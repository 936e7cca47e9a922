"""The paper's two-operator interference transform, as a test oracle.

The two operators are thinned from one mother PPP, so the transform splits
into four exponential factors: exclusive competitor sites inside the LOS
and NLOS exclusion regions, and the tails beyond them, where shared sites
add the (1 + rho*u) correction.  The package computes every scenario
through the general block decomposition; the tests check that form
against this one.
"""

import math

import numpy as np

from mmwshare import ConfigError, SystemParams, TwoOpSpec
from mmwshare.analytic import _exponent_each, _Segments, exclusion_radius, interference_kernel


def _segments_two_op(spec: TwoOpSpec, params: SystemParams, r: float,
                     serving_los: bool) -> _Segments:
    d = exclusion_radius(params, r, serving_los)
    near_los, near_nlos = (r, d) if serving_los else (d, r)
    two_pi_lam = 2.0 * np.pi * spec.lambda_total
    solo = two_pi_lam * (1.0 - spec.retain_a)
    return _Segments(
        weight=np.array([solo, two_pi_lam, solo, two_pi_lam]),
        power=1,
        mix=np.array([0.0, spec.rho, 0.0, spec.rho]),
        los=np.array([True, True, False, False]),
        lower=np.array([0.0, near_los, 0.0, near_nlos]),
        upper=np.array([near_los, np.inf, near_nlos, np.inf]),
    )


def laplace_two_op_factors(spec: TwoOpSpec, params: SystemParams, serving_los: bool,
                           r: float, s: float, *, epsabs: float = 1e-11,
                           epsrel: float = 1e-9) -> tuple[float, float, float, float]:
    """The four exponential factors of the two-operator transform.

    Factors 1/3 cover the exclusive-competitor sites inside the LOS/NLOS
    exclusion regions (weight 1-a); factors 2/4 the tails where shared
    sites add the (1 + rho*u) correction.  Their product equals
    laplace_two_op without the co-location factor.
    """
    if r <= 0 or s < 0:
        raise ConfigError("need r > 0 and s >= 0")
    segs = _segments_two_op(spec, params, r, serving_los)
    expo = _exponent_each(segs, params, s, epsabs, epsrel)
    return tuple(float(math.exp(-e)) for e in expo)


def laplace_two_op(spec: TwoOpSpec, params: SystemParams, serving_los: bool, r: float,
                   s: float, co_located: bool, *, epsabs: float = 1e-11,
                   epsrel: float = 1e-9) -> float:
    """Two-operator interference Laplace transform (fast path).

    Algebraically identical to laplace_general on the {1},{2},{1,2}
    decomposition; co_located says whether the serving site also hosts
    operator 2, adding one interferer at the serving distance.
    """
    if r <= 0 or s < 0:
        raise ConfigError("need r > 0 and s >= 0")
    segs = _segments_two_op(spec, params, r, serving_los)
    total = float(_exponent_each(segs, params, s, epsabs, epsrel).sum())
    val = math.exp(-total)
    if co_located:
        val *= interference_kernel(params, s, r, serving_los)
    return float(val)
