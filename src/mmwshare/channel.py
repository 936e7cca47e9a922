"""Propagation and radio primitives: path loss, antenna gain, fading, SINR.

The SINR of a user is assembled from a labeled deployment (per-site
LOS/NLOS labels relative to that user).  Association is closed access:
the serving site is the home operator's site with the smallest path
loss; the serving beam is aligned (gain exactly G).  Every other
(site, occupant-operator) pair contributes one interference term with
its own independent fade and independent Bernoulli beam gain; a shared
serving site contributes its remaining occupants as interferers at the
serving distance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError, FadingSpec, SystemParams
from .geometry import Deployment


class LinkType(enum.IntEnum):
    LOS = 0
    NLOS = 1


class HomeOperatorAbsent(DataError):
    """The home operator has no site in the deployment."""


def los_probability(beta: float, r):
    """P(link of length r is LOS) = exp(-beta * r)."""
    return np.exp(-beta * np.asarray(r, dtype=float))


def path_loss(link: LinkType, r, params: SystemParams):
    """Linear path gain c_tau * r^(-alpha_tau); scalar or elementwise."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ConfigError("path loss is defined for r > 0 only")
    if link == LinkType.LOS:
        out = params.c_los * r ** (-params.alpha_los)
    else:
        out = params.c_nlos * r ** (-params.alpha_nlos)
    return out if out.ndim else float(out)


def gain_pmf(params: SystemParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """Exact PMF of an interferer's beam gain: ((G, p_main), (g, 1 - p_main))."""
    p = params.main_lobe_prob
    return ((params.gain_main, p), (params.gain_side, 1.0 - p))


def sample_gain(params: SystemParams, rng: np.random.Generator, size: int | None = None):
    """Bernoulli beam gain draw(s): G w.p. theta_b/pi, else g."""
    u = rng.random(size)
    out = np.where(u < params.main_lobe_prob, params.gain_main, params.gain_side)
    return out if size is not None else float(out)


def sample_fading(spec: FadingSpec, link: LinkType, rng: np.random.Generator,
                  size: int | None = None):
    """Fading power draw(s) for one link type.

    Rayleigh: Exp(1).  Nakagami-lognormal: Gamma(m, 1/m) times 10^(X/10)
    with X ~ Normal(0, sigma_dB); the Gamma factor has unit mean.
    """
    los = np.full(size if size is not None else 1, link == LinkType.LOS)
    out = _sample_fading_mask(spec, los, rng)
    return out if size is not None else float(out[0])


_NEPER_PER_DB = np.log(10.0) / 10.0


def _nakagami_lognormal(m: float, sigma_db: float, size: int,
                        rng: np.random.Generator) -> np.ndarray:
    """size draws of Gamma(m, 1/m) * exp(sigma_dB*ln(10)/10 * Z): gammas, then normals."""
    h = rng.standard_gamma(m, size)
    shadow = rng.standard_normal(size)
    shadow *= sigma_db * _NEPER_PER_DB
    np.exp(shadow, out=shadow)
    shadow *= 1.0 / m
    h *= shadow
    return h


def _sample_fading_mask(spec: FadingSpec, los: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One fade per entry of the LOS mask.

    Nakagami-lognormal draws every entry with the NLOS parameters, then
    fresh LOS draws for the LOS entries: a scalar Gamma shape per call
    samples faster than an array of per-entry shapes.
    """
    n = los.shape[0]
    if spec.kind == "rayleigh":
        return rng.standard_exponential(n)
    out = _nakagami_lognormal(spec.nakagami_m_nlos, spec.shadow_sigma_db_nlos, n, rng)
    li = np.flatnonzero(los)
    out[li] = _nakagami_lognormal(spec.nakagami_m_los, spec.shadow_sigma_db_los, li.size, rng)
    return out


@dataclass(frozen=True)
class Association:
    """Outcome of the closed-access association for one user."""

    site_index: int
    link: LinkType
    distance: float
    co_located: bool


def sinr_batch(d: np.ndarray, los: np.ndarray, occupants: np.ndarray, starts: np.ndarray,
               home_operator: int, params: SystemParams, rng: np.random.Generator,
               include_interference: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """SINR of every segment of a batch of labeled deployments.

    Segment i holds sites starts[i] up to the next start (the last runs to
    the end): their distances d (> 0) to that segment's user, LOS labels
    and occupant bitmasks.  Every segment needs a home-operator site.
    Each segment is associated as in sinr_at_user; the draws are
    batch-wide: every serving fade, then every interferer fade, then
    every interferer gain.  Rayleigh fades are one Exp(1) per link.
    Nakagami-lognormal fades come in two rounds per group (serving,
    interferers): Gamma(m_N) shapes then normals for every link of the
    group, then Gamma(m_L) shapes and normals for its LOS links, which
    replace their first-round fades.  Returns (sinr, serving site index)
    per segment.
    """
    # most sites are NLOS (about 90% of a Monte Carlo draw): the NLOS gain
    # everywhere, then patch LOS sites
    ell = params.c_nlos * d ** (-params.alpha_nlos)
    li = np.flatnonzero(los)
    ell[li] = params.c_los * d[li] ** (-params.alpha_los)

    home = np.where(occupants & np.uint16(1 << (home_operator - 1)), ell, -np.inf)
    best = np.maximum.reduceat(home, starts)
    hits = np.flatnonzero(home == np.repeat(best, np.diff(starts, append=d.size)))
    serving = hits[np.searchsorted(hits, starts)]  # ties: lowest site id

    signal = ell[serving] * _sample_fading_mask(params.fading, los[serving], rng) * params.gain_main
    if not include_interference:
        return signal / params.sigma2, serving
    # one term per (site, occupant), less the serving site's aligned home BS
    counts = np.bitwise_count(occupants)
    counts[serving] -= 1
    terms = np.repeat(ell, counts)
    terms *= _sample_fading_mask(params.fading, np.repeat(los, counts), rng)
    terms *= sample_gain(params, rng, terms.size)
    if starts.size == 1:  # np.sum's pairwise rounding, as sinr_at_user always had
        interference = np.sum(terms, keepdims=True)
    else:
        n_terms = np.add.reduceat(counts, starts, dtype=np.int64)
        busy = n_terms > 0
        interference = np.zeros(starts.size)
        interference[busy] = np.add.reduceat(terms, (np.cumsum(n_terms) - n_terms)[busy])
    return signal / (params.sigma2 + interference), serving


def sinr_at_user(dep: Deployment, user: tuple[float, float], home_operator: int,
                 params: SystemParams, rng: np.random.Generator,
                 include_interference: bool = True) -> tuple[float, Association]:
    """SINR of one user against a labeled deployment.

    Draw order (fixed for reproducibility): serving fade, interferer
    fades, interferer gains.  Fading model comes from params.fading.
    This is sinr_batch on a single segment.
    """
    if dep.link_los is None:
        raise ConfigError("deployment lacks LOS labels; call thin_blockage first")
    los = np.asarray(dep.link_los, dtype=bool)
    d = np.hypot(dep.xy[:, 0] - user[0], dep.xy[:, 1] - user[1])
    d = np.maximum(d, 1e-3)  # coincident-site guard
    if not dep.operator_mask(home_operator).any():
        raise HomeOperatorAbsent(f"operator {home_operator} has no site in the deployment")
    sinr, serving = sinr_batch(d, los, dep.occupants, np.zeros(1, dtype=np.int64),
                               home_operator, params, rng, include_interference)
    s = int(serving[0])
    assoc = Association(
        site_index=s,
        link=LinkType.LOS if los[s] else LinkType.NLOS,
        distance=float(d[s]),
        co_located=int(np.bitwise_count(dep.occupants[s])) > 1,
    )
    return float(sinr[0]), assoc
