"""The paper's two-operator interference transform, as a test oracle.

The two operators are thinned from one mother PPP, so the transform splits
into four exponential factors: exclusive competitor sites inside the LOS
and NLOS exclusion regions, and the tails beyond them, where shared sites
add the (1 + rho*u) correction.  The package computes every scenario
through the general block decomposition; the tests check that form
against this one, which builds its own integrands and integrates them
with the public adaptive_gk21.
"""

import math

import numpy as np

from mmwshare import ConfigError, SystemParams, TwoOpSpec
from mmwshare.analytic import adaptive_gk21, exclusion_radius, interference_kernel


def _exponents(spec: TwoOpSpec, params: SystemParams, serving_los: bool, r: float, s: float,
               epsabs: float, epsrel: float) -> list[float]:
    """The four exponents: LOS inside, LOS tail, NLOS inside, NLOS tail."""
    if r <= 0 or s < 0:
        raise ConfigError("need r > 0 and s >= 0")
    d = exclusion_radius(params, r, serving_los)
    two_pi_lam = 2.0 * math.pi * spec.lambda_total
    solo = two_pi_lam * (1.0 - spec.retain_a)  # operator-2-only sites
    pb, beta = params.main_lobe_prob, params.beta_per_m
    out = []
    for los, near in ((True, r if serving_los else d), (False, d if serving_los else r)):
        c, al = (params.c_los, params.alpha_los) if los else (params.c_nlos, params.alpha_nlos)

        def weighted(t, w):
            # 1 - u summed term by term: 1 - interference_kernel cancels in the far tail
            x = s * c * t ** -al
            xm, xs = x * params.gain_main, x * params.gain_side
            one_minus_u = pb * xm / (1.0 + xm) + (1.0 - pb) * xs / (1.0 + xs)
            p = np.exp(-beta * t) if los else -np.expm1(-beta * t)
            return w * one_minus_u * p * t

        # tail map t = near + q*v/(1 - v), q at the kernel's transition radius or beyond
        q = max(near, (s * c * params.gain_main) ** (1.0 / al))

        def tail(v, _):
            t = near + q * v / (1.0 - v)
            shared = 1.0 + spec.rho * interference_kernel(params, s, t, los)
            return weighted(t, two_pi_lam * shared) * q / (1.0 - v) ** 2

        kw = dict(epsabs=epsabs, epsrel=epsrel)
        out.append(float(adaptive_gk21(lambda t, _: weighted(t, solo), 0.0, near, 1, **kw)[0]))
        out.append(float(adaptive_gk21(tail, 0.0, 1.0, 1, **kw)[0]))
    return out


def laplace_two_op_factors(spec: TwoOpSpec, params: SystemParams, serving_los: bool,
                           r: float, s: float, *, epsabs: float = 1e-11,
                           epsrel: float = 1e-9) -> tuple[float, float, float, float]:
    """The four exponential factors of the two-operator transform.

    Factors 1/3 cover the exclusive-competitor sites inside the LOS/NLOS
    exclusion regions (weight 1-a); factors 2/4 the tails where shared
    sites add the (1 + rho*u) correction.  Their product equals
    laplace_two_op without the co-location factor.
    """
    expo = _exponents(spec, params, serving_los, r, s, epsabs, epsrel)
    return tuple(math.exp(-e) for e in expo)


def laplace_two_op(spec: TwoOpSpec, params: SystemParams, serving_los: bool, r: float,
                   s: float, co_located: bool, *, epsabs: float = 1e-11,
                   epsrel: float = 1e-9) -> float:
    """Two-operator interference Laplace transform (fast path).

    Algebraically identical to laplace_general on the {1},{2},{1,2}
    decomposition; co_located says whether the serving site also hosts
    operator 2, adding one interferer at the serving distance.
    """
    val = math.exp(-sum(_exponents(spec, params, serving_los, r, s, epsabs, epsrel)))
    if co_located:
        val *= interference_kernel(params, s, r, serving_los)
    return float(val)
