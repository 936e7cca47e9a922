"""Coverage analysis by numerical integration (Rayleigh fading only).

The SINR distribution of a typical user is obtained by conditioning on
the serving sub-block (operator subset x LOS/NLOS) and serving distance,
multiplying the noise factor by the interference Laplace transform, and
integrating against the association-distance density.

Interference Laplace transforms reduce to products of exponentials of
semi-infinite integrals, one per (home-network or other blocks, interferer
link type) segment: blocks of k occupants add lam*(1 - u)*(1 + u + ... +
u^(k-1)) to a polynomial in the interferer kernel u.  Each is mapped onto
[0, 1) by a stretched substitution t = lower + q*(exp(Y*v) - 1) and
truncated where an analytic tail bound vanishes.

Both integration levels use one adaptive 21-point Gauss-Kronrod routine
(QUADPACK qk21 panels) in which every component keeps its own panels and
the new panels of all components are evaluated together, a bounded number
per call.  The outer level integrates over the serving distance r, on a
map that is logarithmic above 1e-4 * r_max, with one component per
threshold; each starts from one panel per decade of r above that knee,
and each inner component from one panel.  The outer integrand hands
every r node of every pending panel, both serving link types and every
segment to one inner call, whose components are the segments' exponent
integrals.  Since each component is refined on its own errors, a
threshold's value does not depend on which thresholds share its batch or
worker process.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import (
    BlockModel,
    ConfigError,
    DataError,
    NumericalError,
    OperatorSet,
    SystemParams,
    TwoOpSpec,
    check_grid,
    pool_size,
    rate_sinr_threshold,
    sinr_rate,
)


# ---------------------------------------------------------------------------
# Blockage-aware intensity measures and exclusion radii

# x^2 * sum_k (-x)^k / (k! (k+2)) = P(2, x); 20 terms reach double precision at x = 1.
_P2_SERIES = tuple((-1.0) ** k / (math.factorial(k) * (k + 2)) for k in range(20))


def _gammainc2(x: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma P(2, x) = 1 - exp(-x) * (1 + x).

    The closed form cancels below x = 1, where the alternating series is
    used instead.  x is capped at 800, past which exp(-x) underflows and
    P(2, x) is 1, so that x = inf gives 1 rather than inf * 0.
    """
    xs = np.minimum(x, 1.0)
    series = np.zeros_like(xs)
    for c in reversed(_P2_SERIES):
        series = series * xs + c
    xl = np.minimum(x, 800.0)
    return np.where(x < 1.0, xs * xs * series, -np.expm1(-xl) - xl * np.exp(-xl))


def los_measure(density: float, beta: float, r):
    """Expected LOS sites of a block of ``density`` within distance r.

    2*pi*lam * int_0^r exp(-beta t) t dt = (2*pi*lam/beta^2) * P(2, beta r),
    with P the regularized lower incomplete gamma function.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ConfigError("measure radius must be >= 0")
    val = (2.0 * np.pi * density / beta**2) * _gammainc2(beta * r)
    return val if val.ndim else float(val)


def nlos_measure(density: float, beta: float, r):
    """Expected NLOS sites within r; complements los_measure to pi*lam*r^2."""
    r = np.asarray(r, dtype=float)
    val = np.pi * density * r**2 - los_measure(density, beta, r)
    return val if val.ndim else float(val)


def exclusion_radius(params: SystemParams, r, serving_los):
    """Closest possible opposite-link-type home site given the serving link.

    Defined by path-loss equality: the returned D satisfies
    c_other * D^(-alpha_other) = c_serving * r^(-alpha_serving), so any
    opposite-type site closer than D would have been the serving one.
    ``serving_los`` is a bool or a bool array that broadcasts against r.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ConfigError("serving distance must be positive")
    los, nlos = (params.c_los, params.alpha_los), (params.c_nlos, params.alpha_nlos)
    # scalar exponents keep NumPy's exact sqrt/square for r ** 0.5 and r ** 2
    val = np.where(serving_los, *((c_o / c_s) ** (1.0 / a_o) * r ** (a_s / a_o)
                                  for (c_s, a_s), (c_o, a_o) in ((los, nlos), (nlos, los))))
    return val if val.ndim else float(val)


def interference_kernel(params: SystemParams, s, t, los):
    """Laplace transform of one interferer's fade*gain at distance t.

    E[exp(-s * c_tau * H * G_b * t^(-alpha_tau))] for Exp(1) H and the
    Bernoulli beam gain: a two-term mixture over main/side lobes.  ``los``
    is a bool or a bool array that broadcasts against s and t.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    c = np.where(los, params.c_los, params.c_nlos)
    al = np.where(los, params.alpha_los, params.alpha_nlos)
    pb = params.main_lobe_prob
    with np.errstate(divide="ignore", over="ignore"):
        x = s * c * t ** (-al)
        val = pb / (1.0 + x * params.gain_main) + (1.0 - pb) / (1.0 + x * params.gain_side)
    return val if val.ndim else float(val)


# ---------------------------------------------------------------------------
# Scenario check

def operator_density_of(scenario, m: int) -> float:
    """Operator m's density: the engine's one check that ``scenario`` has ``blocks()``."""
    if isinstance(scenario, (BlockModel, TwoOpSpec)):
        return scenario.operator_density(m)
    raise ConfigError(
        f"scenario must be a BlockModel or TwoOpSpec, got {type(scenario).__name__}"
    )


_BRENT_RTOL = 4 * np.finfo(float).eps


def _brentq(f, a: float, b: float, xtol: float, rtol: float = _BRENT_RTOL,
            maxiter: int = 100) -> float:
    """A root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A step-for-step port of SciPy's brentq.c (same bracket bookkeeping,
    interpolation tests and step rule), so it returns the same float as
    ``scipy.optimize.brentq``.  Where SciPy raises ValueError or
    RuntimeError -- no sign change over [a, b], a NaN from f, no
    convergence in ``maxiter`` iterations -- this raises NumericalError.
    """
    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericalError(f"root finding: the function is NaN at x={x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalError(
            f"root finding: f({xpre!r}) and f({xcur!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise NumericalError(f"root finding did not converge in {maxiter} iterations")


#: Association-distance tail mass that truncation_radius leaves out by default.
TAIL_MASS = 1e-8


def truncation_radius(lambda_home, params: SystemParams, tail_mass: float = TAIL_MASS) -> float:
    """Radius beyond which the association-distance tail mass is < tail_mass.

    Uses closed-form void-probability bounds: the LOS tail is below
    (2*pi*lam/beta^2)(1+beta r)exp(-beta r) and the NLOS tail below
    exp(2*pi*lam/beta^2 - pi*lam*r^2); the bound is evaluated in log
    space and inverted by root finding.
    """
    lam = lambda_home if isinstance(lambda_home, float) else float(lambda_home)
    if not (math.isfinite(lam) and lam > 0):
        raise ConfigError(f"home-operator density must be positive, got {lam}")
    if not 0 < tail_mass < 1:
        raise ConfigError("tail_mass must lie in (0, 1)")
    k = 2.0 * math.pi * lam / params.beta_per_m**2
    log_tail = math.log(tail_mass)

    def log_bound_excess(r: float) -> float:
        log_los = math.log(k) + math.log1p(params.beta_per_m * r) - params.beta_per_m * r
        log_nlos = k - math.pi * lam * r * r
        return np.logaddexp(log_los, log_nlos) - log_tail

    lo, hi = 1.0, 1e8
    if log_bound_excess(lo) <= 0:
        return lo
    if log_bound_excess(hi) > 0:
        raise NumericalError("could not bracket the association-tail truncation radius")
    return _brentq(log_bound_excess, lo, hi, xtol=1e-3)


def association_pdf(scenario, params: SystemParams, subset: OperatorSet, serving_los: bool,
                    r, home_operator: int = 1):
    """Density (over serving distance r) of associating with ``subset``'s
    LOS (or NLOS) sub-block.

    2*pi*lam_S r p_tau(r) times the void probability of every better
    home-network candidate: same-type sites within r and opposite-type
    sites within the exclusion radius, which depends only on the home
    operator's total density.
    """
    if home_operator not in subset:
        raise ConfigError(f"association subset {subset} must contain operator {home_operator}")
    lam_home = operator_density_of(scenario, home_operator)
    lam_sub = dict(scenario.blocks()).get(subset, 0.0)
    val = _association_density(lam_sub, lam_home, params, np.asarray(r, dtype=float),
                               serving_los, 0.0)
    return val if val.ndim else float(val)


def _association_density(lam_sub, lam_home: float, params: SystemParams, r: np.ndarray,
                         serving_los, noise) -> np.ndarray:
    """2*pi*lam_sub r p_tau(r) exp(-void exponent - noise), elementwise in r and serving_los."""
    beta = params.beta_per_m
    d = exclusion_radius(params, r, serving_los)
    expo = (los_measure(lam_home, beta, np.where(serving_los, r, d))
            + nlos_measure(lam_home, beta, np.where(serving_los, d, r)))
    p = np.where(serving_los, np.exp(-beta * r), -np.expm1(-beta * r))
    return 2.0 * np.pi * lam_sub * r * p * np.exp(-expo - noise)


# ---------------------------------------------------------------------------
# Adaptive vector Gauss-Kronrod quadrature (21 point), batched components

# QUADPACK qk21 abscissae/weights (symmetric half, extreme node first).
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 21 ascending nodes
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])       # Kronrod weights
_WEIGHTS_G = np.zeros(21)                                  # embedded Gauss-10, zero
_WEIGHTS_G[1::2] = np.concatenate([_WG, _WG[::-1]])        # at the Kronrod-only nodes


# Panels per integrand call: bounds the size of every vectorised evaluation.
_PANELS_PER_CALL = 256


def _gk21(f, lo: np.ndarray, hi: np.ndarray, comp: np.ndarray):
    """21-point Gauss-Kronrod rule on the panels [lo_j, hi_j] of components comp_j.

    Returns the Kronrod integrals (m,) and the QUADPACK roughness-scaled
    error estimates (m,), which deliberately over-report so that the
    adaptive loop converges well past the requested tolerance.  All
    arithmetic is per row, so a panel's value does not depend on the
    other panels of its call: the row sums are einsums over whole rows,
    as ``@`` or a strided subset of the nodes would round by batch.
    """
    vals, errs = [], []
    for i in range(0, lo.size, _PANELS_PER_CALL):
        a, b = lo[i:i + _PANELS_PER_CALL], hi[i:i + _PANELS_PER_CALL]
        mid = 0.5 * (a + b)
        h = 0.5 * (b - a)
        fx = f(mid[:, None] + h[:, None] * _NODES, comp[i:i + _PANELS_PER_CALL])  # (m, 21)
        resk = np.einsum("ij,j->i", fx, _WEIGHTS_K)
        resg = np.einsum("ij,j->i", fx, _WEIGHTS_G)
        resasc = np.einsum("ij,j->i", np.abs(fx - 0.5 * resk[:, None]), _WEIGHTS_K) * h
        err = np.abs(resk - resg) * h
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = np.where(
                resasc > 0.0,
                resasc * np.minimum(1.0, (200.0 * err / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
                err,
            )
        vals.append(resk * h)
        errs.append(scaled)
    return np.concatenate(vals), np.concatenate(errs)


def adaptive_gk21(f, a: float, b: float, n: int, *, epsabs: float = 1e-9,
                  epsrel: float = 1e-7, max_panels: int = 256,
                  start_panels: int = 1) -> np.ndarray:
    """Adaptive Gauss-Kronrod integration of n integrands over [a, b].

    ``f(x, k)`` maps an (m, 21) array of abscissae, whose row j belongs
    to component k[j], to the (m, 21) integrand values.  Every component
    starts from ``start_panels`` equal panels of [a, b] and is refined
    until err_i <= max(epsabs, epsrel*|I_i|): each round bisects the worst
    panel of every unconverged component, and the new panels of all
    components go to ``f`` together, at most _PANELS_PER_CALL per call.
    So a component's integral does not depend on the components it is
    batched with.  Raises NumericalError naming the components that reach
    ``max_panels`` panels unconverged.
    """
    # panel j of a component is the j-th of start_panels equal parts; the last ends at b
    comp, j = np.divmod(np.arange(n * start_panels), start_panels)
    lo = a + (b - a) * (j / start_panels)
    hi = np.where(j == start_panels - 1, b, a + (b - a) * ((j + 1) / start_panels))
    val, err = _gk21(f, lo, hi, comp)
    out = np.empty(n)
    pending = np.arange(n)
    panels = start_panels  # panels of every pending component
    while True:
        # bincount adds in panel order, so each component's sums are its own;
        # the panel arrays hold only the live panels of pending components
        total = np.bincount(comp, weights=val, minlength=n)[pending]
        toterr = np.bincount(comp, weights=err, minlength=n)[pending]
        done = toterr <= np.maximum(epsabs, epsrel * np.abs(total))
        if done.any():
            out[pending[done]] = total[done]
            finished = np.zeros(n, dtype=bool)
            finished[pending[done]] = True
            keep = ~finished[comp]
            comp, lo, hi, val, err = (v[keep] for v in (comp, lo, hi, val, err))
            pending = pending[~done]
        if pending.size == 0:
            return out
        if panels >= max_panels:
            raise NumericalError(
                f"adaptive quadrature did not converge within {max_panels} panels "
                f"for component(s) {pending.tolist()} of {n}"
            )
        # bisect each pending component's panel with the largest error (first on ties)
        order = np.lexsort((-err, comp))
        worst = order[np.r_[True, comp[order][1:] != comp[order][:-1]]]
        mid = 0.5 * (lo[worst] + hi[worst])
        new_lo = np.stack([lo[worst], mid], axis=1).ravel()
        new_hi = np.stack([mid, hi[worst]], axis=1).ravel()
        new_comp = np.repeat(pending, 2)
        new_val, new_err = _gk21(f, new_lo, new_hi, new_comp)
        keep = np.ones(comp.size, dtype=bool)
        keep[worst] = False
        comp = np.concatenate([comp[keep], new_comp])
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        val, err = np.concatenate([val[keep], new_val]), np.concatenate([err[keep], new_err])
        panels += 1


class _Segments(NamedTuple):
    """Exponent integrals of interference Laplace transforms, as arrays.

    Element i contributes int_lower^inf (1 - u) P(u) p_tau(t) t dt to a log
    transform, where u is the single-interferer kernel of link type ``los``
    and P(u) = sum_j coef[i, j] u^j.  The fields broadcast together over
    all but coef's last axis, which holds the coefficients.
    """

    coef: np.ndarray
    los: np.ndarray
    lower: np.ndarray


def _times_poly(y, coef):
    """y * P(1 - y), P(u) = sum_j coef[j] u^j by Horner: 1 - (1 - y)^k for k unit coefficients."""
    u = 1.0 - y
    acc = coef[-1]
    for c in coef[-2::-1]:
        acc = acc * u + c
    return y * acc


def _exponent_each(segs: _Segments, params: SystemParams, s,
                   epsabs: float = 1e-9, epsrel: float = 1e-7) -> np.ndarray:
    """Every exponent integral of ``segs``, evaluated in one batched adaptive pass.

    ``s`` broadcasts against the segment fields and the result has their
    common shape.  Zero-polynomial entries and entries with s = 0 cost
    nothing and return exactly 0, preserving factor identities.
    """
    coef = np.asarray(segs.coef, dtype=float)
    shape = np.broadcast_shapes(coef.shape[:-1], *(np.shape(a) for a in segs[1:]), np.shape(s))
    coef = np.broadcast_to(coef, shape + coef.shape[-1:]).reshape(-1, coef.shape[-1])
    is_los, lo, s_arr = (np.broadcast_to(np.asarray(a, dtype=float), shape).ravel()
                         for a in (*segs[1:], s))
    pref = coef.sum(axis=1)  # P(u) <= P(1) = sum_c 2*pi*lam_c*k_c
    out = np.zeros(pref.size)
    live = np.flatnonzero((pref > 0.0) & (s_arr > 0.0))
    if live.size == 0:
        return out.reshape(shape)
    coef, pref, is_los, lo, s_arr = (a[live] for a in (coef, pref, is_los, lo, s_arr))
    is_los = is_los > 0.0
    c = np.where(is_los, params.c_los, params.c_nlos)
    al = np.where(is_los, params.alpha_los, params.alpha_nlos)
    beta = params.beta_per_m
    pb = params.main_lobe_prob
    g_main, g_side = params.gain_main, params.gain_side

    # Segments are truncated where an analytic bound on the remainder
    # drops below a tenth of the absolute tolerance, using
    # (1 - u) P(u) <= P(1) * min(1, s*c*gbar*t^(-alpha)): a power-law bound
    # for NLOS tails and an exp(-beta*t) bound for LOS.
    gbar = pb * g_main + (1.0 - pb) * g_side
    tol_tail = max(0.1 * epsabs, 1e-300)
    c_los_bound = pref / beta**2
    t_exp = np.maximum(lo, 1.0 / beta)
    for _ in range(8):
        bound = c_los_bound * (1.0 + beta * t_exp)
        t_exp = np.where(bound * np.exp(-beta * t_exp) > tol_tail,
                         np.log(np.maximum(bound / tol_tail, 1.0)) / beta, t_exp)
    a_nlos = params.alpha_nlos - 2.0  # positive, as SystemParams checks
    with np.errstate(over="ignore"):
        t_far = np.where(is_los, t_exp, (pref * s_arr * params.c_nlos * gbar
                                         / (a_nlos * tol_tail)) ** (1.0 / a_nlos))
    t_far = np.minimum(t_far, 1e30)
    # Exponentially stretched map t = lo + q*(exp(Y*v) - 1): q is the
    # kernel transition radius (where the interferer term turns over),
    # so the integrand's structure sits at moderate v for any s.
    with np.errstate(over="ignore"):
        transition = (s_arr * c * g_main) ** (1.0 / al)
    cap = np.where(is_los, lo + 4.0 / beta, np.inf)
    q = np.maximum(1.0, np.maximum(lo, np.minimum(transition, cap)))
    t_far = np.maximum(t_far, lo + 1e-6 * q)
    y_span = np.log1p((t_far - lo) / q)
    sc = s_arr * c

    def f(v: np.ndarray, k: np.ndarray) -> np.ndarray:
        col = k[:, None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            stretch = np.exp(y_span[col] * v)
            t = lo[col] + q[col] * (stretch - 1.0)
            x = sc[col] * t ** (-al[col])
            xm = x * g_main
            xs = x * g_side
            # 1 - u without cancellation at small x, so the integrand
            # stays smooth to machine precision in the tail
            y = pb * xm / (1.0 + xm) + (1.0 - pb) * xs / (1.0 + xs)
            p_l = np.exp(-beta * t)
            p = np.where(is_los[col], p_l, 1.0 - p_l)
            vals = _times_poly(y, coef[k].T[..., None]) * p * t * (q[col] * y_span[col] * stretch)
        # t = 0 endpoints produce transient non-finite intermediates
        return np.where(np.isfinite(vals), vals, 0.0)

    out[live] = adaptive_gk21(f, 0.0, 1.0, live.size, epsabs=epsabs, epsrel=epsrel)
    return out.reshape(shape)


def _block_classes(blocks, home_operator: int):
    """Arrays (home, occupants, density): the blocks summed by home membership and size.

    Blocks of one class have the same interference integrand, so the sum
    is exact; n operators make at most 2n classes.
    """
    classes: dict[tuple[bool, int], float] = {}
    for subset, lam in blocks:
        key = (home_operator in subset, len(subset))
        classes[key] = classes.get(key, 0.0) + lam
    home, occupants = np.array(list(classes)).reshape(-1, 2).T
    return home.astype(bool), occupants, np.array(list(classes.values()))


def _segments_general(classes, params: SystemParams, r, serving_los) -> _Segments:
    """Segments of the _block_classes ``classes``, shape r.shape + (2, 2).

    ``r`` and ``serving_los`` broadcast together.  Axis -2 holds the home-
    network classes, then the others, each side summed into one polynomial
    whose coefficient j is 2*pi times the density of the side's classes of
    more than j occupants; axis -1 holds the interferer link type (LOS,
    NLOS).  The home side starts at the serving distance (same link type)
    or the exclusion radius (other type); the other side starts at 0.
    """
    home, occupants, lam = classes
    more = occupants > np.arange(occupants.max())[:, None]  # (degree, classes)
    coef = 2.0 * np.pi * np.where(np.array([home, ~home])[:, None] & more, lam, 0.0).sum(-1)
    r = np.asarray(r, dtype=float)[..., None, None]
    serving_los = np.asarray(serving_los, dtype=bool)[..., None, None]
    d = exclusion_radius(params, r, serving_los)
    near = np.concatenate(np.broadcast_arrays(np.where(serving_los, r, d),
                                              np.where(serving_los, d, r)), axis=-1)
    return _Segments(coef=coef[:, None], los=np.array([True, False]),
                     lower=np.where([[True], [False]], near, 0.0))


def laplace_general(scenario, params: SystemParams, subset: OperatorSet, serving_los: bool,
                    r: float, s: float, home_operator: int = 1) -> float:
    """Interference Laplace transform, general block decomposition.

    Conditioned on serving the user from ``subset``'s LOS (or NLOS)
    sub-block at distance r.  Product over blocks of the thinned-PPP
    exponentials (home blocks see the serving-side exclusion holes) times
    the co-location factor u^(|subset|-1) for the serving site's other
    occupants.
    """
    if home_operator not in subset:
        raise ConfigError(f"serving subset {subset} must contain operator {home_operator}")
    if s < 0:
        raise ConfigError("Laplace argument must be >= 0")
    operator_density_of(scenario, home_operator)  # rejects anything but a scenario
    segs = _segments_general(_block_classes(scenario.blocks(), home_operator), params, r,
                             serving_los)
    total = float(_exponent_each(segs, params, s, 1e-11, 1e-9).sum())
    co = interference_kernel(params, s, r, serving_los) ** (len(subset) - 1)
    return float(co * math.exp(-total))


# ---------------------------------------------------------------------------
# Coverage curves

@dataclass(frozen=True, eq=False)
class CoverageCurve:
    """Ordered (threshold, probability) pairs with provenance.

    unit "db" marks SINR thresholds in dB; unit "bps" marks rate
    thresholds in bits/s.  Empirical curves carry Wilson 95% confidence
    half-widths.
    """

    thresholds: np.ndarray
    probabilities: np.ndarray
    unit: str
    ci_halfwidth: np.ndarray | None = None

    def __post_init__(self):
        thr = np.asarray(self.thresholds, dtype=float).reshape(-1)
        prob = np.asarray(self.probabilities, dtype=float).reshape(-1)
        if thr.shape != prob.shape:
            raise DataError("thresholds and probabilities must have equal length")
        if thr.size == 0:
            raise DataError("curve must contain at least one point")
        if np.any(np.diff(thr) <= 0):
            raise DataError("thresholds must be strictly increasing")
        if self.unit not in ("db", "bps"):
            raise DataError(f"unknown threshold unit {self.unit!r}")
        if np.any(prob < -1e-9) or np.any(prob > 1.0 + 1e-9):
            raise NumericalError("coverage probabilities escaped [0, 1]")
        if np.any(np.diff(prob) > 1e-6):
            raise NumericalError("coverage probabilities are not non-increasing")
        prob = np.clip(prob, 0.0, 1.0)
        ci = self.ci_halfwidth
        if ci is not None:
            ci = np.asarray(ci, dtype=float).reshape(-1)
            if ci.shape != thr.shape or np.any(ci < 0):
                raise DataError("ci_halfwidth must be non-negative and match the grid")
        object.__setattr__(self, "thresholds", thr)
        object.__setattr__(self, "probabilities", prob)
        object.__setattr__(self, "ci_halfwidth", ci)

    @property
    def kind(self) -> str:
        """"empirical" when the curve carries confidence intervals, else "analytic"."""
        return "analytic" if self.ci_halfwidth is None else "empirical"

    def __len__(self) -> int:
        return int(self.thresholds.size)

    def to_csv(self, path: str | Path) -> None:
        name = "threshold_db" if self.unit == "db" else "rate_bps"
        cols = [name, "probability"] + (["ci_halfwidth"] if self.ci_halfwidth is not None else [])
        with Path(path).open("w", newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for i in range(len(self)):
                row = [repr(float(self.thresholds[i])), repr(float(self.probabilities[i]))]
                if self.ci_halfwidth is not None:
                    row.append(repr(float(self.ci_halfwidth[i])))
                fh.write(",".join(row) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "CoverageCurve":
        path = Path(path)
        try:
            rows = list(csv.reader(path.read_text().splitlines()))
        except OSError as exc:
            raise DataError(f"cannot read curve file {path}: {exc}") from exc
        rows = [r for r in rows if r]
        if not rows:
            raise DataError(f"{path}: empty curve file")
        header = [h.strip() for h in rows[0]]
        if header[:1] == ["threshold_db"]:
            unit = "db"
        elif header[:1] == ["rate_bps"]:
            unit = "bps"
        else:
            raise DataError(f"{path}: unknown curve header {rows[0]!r}")
        with_ci = header == [header[0], "probability", "ci_halfwidth"]
        if not with_ci and header != [header[0], "probability"]:
            raise DataError(f"{path}: unknown curve header {rows[0]!r}")
        try:
            data = np.array([[float(v) for v in row] for row in rows[1:]])
        except ValueError as exc:
            raise DataError(f"{path}: bad numeric value: {exc}") from exc
        if data.ndim != 2 or data.shape[1] != len(header):
            raise DataError(f"{path}: ragged curve rows")
        ci = data[:, 2] if with_ci else None
        return cls(data[:, 0], data[:, 1], unit=unit, ci_halfwidth=ci)


# ---------------------------------------------------------------------------
# SINR / rate coverage

# The outer integral runs in v on [0, 1] with r = q*(exp(Y*v) - 1), q =
# _OUTER_KNEE * r_max: linear below q and logarithmic above it.  The
# coverage mass of a high threshold T sits at r ~ T^(-1/alpha), decades
# below r_max, where a first panel linear in r has no node and reports a
# converged 0.
_OUTER_KNEE = 1e-4


def _coverage_chunk(thresholds_lin: np.ndarray, scenario, params: SystemParams,
                    home_operator: int, include_interference: bool,
                    r_max: float) -> np.ndarray:
    """Coverage at every threshold: one adaptive integral over r in [0, r_max] each.

    Each integrand call gets the r nodes of every pending panel; those
    nodes times both serving link types times every segment go to one
    _exponent_each call.
    """
    lam_home = operator_density_of(scenario, home_operator)
    classes = home, occupants, lam = _block_classes(scenario.blocks(), home_operator)
    q = r_max * _OUTER_KNEE
    y_span = math.log1p(r_max / q)

    def integrand(v: np.ndarray, k: np.ndarray) -> np.ndarray:
        n = v.size
        stretch = np.exp(y_span * v.ravel())
        # every node twice: served over a LOS link, then over an NLOS link
        r = np.tile(q * (stretch - 1.0), 2)
        los = np.arange(2 * n) < n
        t_lin = np.tile(np.repeat(thresholds_lin[k], v.shape[1]), 2)
        s = t_lin * r ** np.where(los, params.alpha_los, params.alpha_nlos) / (
            np.where(los, params.c_los, params.c_nlos) * params.gain_main)
        # the sub-block densities multiply in below, with the co-location factor
        vals = _association_density(1.0, lam_home, params, r, los, params.sigma2 * s)
        vals[vals < 1e-300] = 0.0
        live = np.flatnonzero(vals)
        if include_interference and live.size:
            r, s, los = r[live], s[live], los[live]
            segs = _segments_general(classes, params, r, los)
            expo = _exponent_each(segs, params, s[:, None, None])
            u_r = interference_kernel(params, s, r, los)
            vals[live] = (vals[live] * np.exp(-expo.reshape(live.size, -1).sum(axis=1))
                          * np.sum(lam[home] * u_r[:, None] ** (occupants[home] - 1), axis=1))
        else:  # noise only, or no live node: thresholds the noise alone makes unreachable
            vals *= lam_home
        return ((vals[:n] + vals[n:]) * q * y_span * stretch).reshape(v.shape)

    # One starting panel per decade of r that the map spans above its knee
    # (4 for a knee of 1e-4): a single panel over all decades takes about 4
    # serial rounds to converge, each a full inner adaptive pass; a panel
    # per decade mostly converges in the first round, and 2, 3, 5, 8 or 16
    # starting panels measured slower.
    decades = round(-math.log10(_OUTER_KNEE))
    vals = adaptive_gk21(integrand, 0.0, 1.0, thresholds_lin.size, epsabs=1e-7, epsrel=1e-6,
                         max_panels=200, start_panels=decades)
    return np.clip(vals, 0.0, 1.0)


def _coverage_linear(scenario, params: SystemParams, thresholds_lin: np.ndarray,
                     home_operator: int = 1, *, include_interference: bool = True,
                     workers: int = 1) -> np.ndarray:
    """Coverage at linear SINR thresholds.

    With workers > 1 the grid is split into contiguous chunks, one per
    worker process and at least 4 thresholds each, as a pool costs more
    than it saves on fewer; each threshold's integral is refined on its
    own, so the values do not depend on the split.
    """
    if params.fading.kind != "rayleigh":
        raise ConfigError(
            "the analytic engine supports Rayleigh fading only; "
            "use the Monte Carlo simulator for other fading models"
        )
    lam_home = operator_density_of(scenario, home_operator)
    if lam_home <= 0:
        raise ConfigError(f"operator {home_operator} has zero density")
    run = partial(_coverage_chunk, scenario=scenario, params=params,
                  home_operator=home_operator, include_interference=include_interference,
                  r_max=truncation_radius(lam_home, params))
    chunks = np.array_split(thresholds_lin, pool_size(workers, thresholds_lin.size // 4))
    if len(chunks) == 1:
        return run(thresholds_lin)
    from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool starts
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return np.concatenate(list(pool.map(run, chunks)))


def _coverage_curve(scenario, params: SystemParams, values, unit: str, home_operator: int,
                    include_interference: bool, workers: int) -> CoverageCurve:
    """The analytic curve over SINR thresholds in dB (unit "db") or rates (unit "bps")."""
    grid = check_grid(values, unit)
    lam_home = operator_density_of(scenario, home_operator)
    thresholds_lin = (10.0 ** (grid / 10.0) if unit == "db"
                      else rate_sinr_threshold(grid, params, lam_home))
    probs = _coverage_linear(scenario, params, thresholds_lin, home_operator,
                             include_interference=include_interference, workers=workers)
    # independent quadratures can wiggle below resolution; tidy for the curve
    probs = np.minimum.accumulate(np.round(probs, 12))
    return CoverageCurve(grid, probs, unit=unit)


def sinr_coverage(scenario, params: SystemParams, thresholds_db, home_operator: int = 1, *,
                  include_interference: bool = True, workers: int = 1) -> CoverageCurve:
    """P(SINR > T) over a strictly increasing grid of thresholds in dB."""
    return _coverage_curve(scenario, params, thresholds_db, "db", home_operator,
                           include_interference, workers)


def rate_coverage(scenario, params: SystemParams, rates_bps, home_operator: int = 1, *,
                  include_interference: bool = True, workers: int = 1) -> CoverageCurve:
    """P(Rate > R): rate targets map to SINR thresholds via the load model."""
    return _coverage_curve(scenario, params, rates_bps, "bps", home_operator,
                           include_interference, workers)


def median_rate(scenario, params: SystemParams, home_operator: int = 1, *,
                rtol: float = 1e-3) -> float:
    """The rate R solving P(Rate > R) = 1/2, by bracketed root finding.

    Raises NumericalError when the coverage curve does not cross 1/2
    below the rate equivalent of an SINR of 1e4 (40 dB).  It runs serially
    in the calling process: each Brent iterate needs the one before it.
    """
    lam_home = operator_density_of(scenario, home_operator)

    @cache  # _brentq evaluates the bracket end that was just checked
    def excess(rate_bps: float) -> float:
        thr = rate_sinr_threshold(rate_bps, params, lam_home)
        return float(_coverage_linear(scenario, params, np.array([thr]), home_operator)[0]) - 0.5

    hi = sinr_rate(1e4, params, lam_home)
    if excess(hi) >= 0.0:
        raise NumericalError(
            f"median rate not bracketed: coverage still >= 0.5 at {hi:.3e} bps"
        )
    return _brentq(excess, 0.0, hi, xtol=1.0, rtol=rtol)
