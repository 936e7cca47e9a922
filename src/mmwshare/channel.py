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

import numpy as np

from .core import ConfigError, DataError, FadingSpec, SystemParams
from .geometry import Deployment


def sample_gain(params: SystemParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """size Bernoulli beam gain draws: G w.p. theta_b/pi, else g."""
    u = rng.random(size)
    return np.where(u < params.main_lobe_prob, params.gain_main, params.gain_side)


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


def sinr_batch(d: np.ndarray, los: np.ndarray, occupants: np.ndarray, starts: np.ndarray,
               home_operator: int, params: SystemParams,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """SINR of every segment of a batch of labeled deployments.

    Segment i holds sites starts[i] up to the next start (the last runs to
    the end): their distances d (> 0) to that segment's user, LOS labels
    and occupant bitmasks.  Every segment needs a home-operator site.
    Its serving site is its home-operator site of largest path gain, the
    lowest index on ties.  The draws are batch-wide: every serving fade,
    then every interferer fade, then every interferer gain.  Rayleigh
    fades are one Exp(1) per link.  Nakagami-lognormal fades come in two
    rounds per group (serving, interferers): Gamma(m_N) shapes then
    normals for every link of the group, then Gamma(m_L) shapes and
    normals for its LOS links, which replace their first-round fades.
    Returns (sinr, serving site index) per segment.
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
    # one term per (site, occupant), less the serving site's aligned home BS
    counts = np.bitwise_count(occupants)
    counts[serving] -= 1
    terms = np.repeat(ell, counts)
    terms *= _sample_fading_mask(params.fading, np.repeat(los, counts), rng)
    terms *= sample_gain(params, rng, terms.size)
    n_terms = np.add.reduceat(counts, starts, dtype=np.int64)
    busy = n_terms > 0
    interference = np.zeros(starts.size)
    interference[busy] = np.add.reduceat(terms, (np.cumsum(n_terms) - n_terms)[busy])
    return signal / (params.sigma2 + interference), serving


def sinr_at_user(dep: Deployment, user: tuple[float, float], home_operator: int,
                 params: SystemParams, rng: np.random.Generator) -> tuple[float, int]:
    """SINR of one user against a labeled deployment: sinr_batch on one segment.

    Distances are clipped to 1 mm.  Returns (sinr, serving site index).
    """
    if dep.link_los is None:
        raise ConfigError("deployment lacks LOS labels; call thin_blockage first")
    if not dep.operator_mask(home_operator).any():
        raise DataError(f"operator {home_operator} has no site in the deployment")
    d = np.maximum(np.hypot(dep.xy[:, 0] - user[0], dep.xy[:, 1] - user[1]), 1e-3)
    sinr, serving = sinr_batch(d, np.asarray(dep.link_los, dtype=bool), dep.occupants,
                               np.zeros(1, dtype=np.int64), home_operator, params, rng)
    return float(sinr[0]), int(serving[0])
