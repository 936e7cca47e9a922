"""Monte Carlo SINR sampling for a typical user.

Each replication draws fresh network geometry (for point-process
scenarios), blockage labels, fades and interferer beam gains, then
records the downlink SINR of a user served by the strongest home-network
site.  It draws every site near the user but only the LOS sites beyond a
near radius: LOS labelling is an independent thinning, so the far LOS
sites are a Poisson process of their own, and the far NLOS sites it
drops carry a mean interference bounded by NLOS_OMISSION_BOUND noise
powers.  A point process is drawn on the whole plane around the user,
as the analytic engine integrates it, and by distance, since the SINR
depends on the sites' distances alone: the near disc's sites at i.i.d.
distances of density 2r/R^2, the far LOS sites from their radial law.
A fixed deployment is seen from its window's center.  Replications run
in fixed batches whose size depends on the scenario alone, and batch k
draws from its own stream, the k-th child of the seed's SeedSequence.
Samples are therefore reproducible bit-for-bit for a given seed
regardless of worker count.

Curves are built from the samples by the *_curve_from_samples functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analytic import TAIL_MASS, CoverageCurve
from .channel import sinr_batch
from .core import (
    BlockModel,
    ConfigError,
    DataError,
    NumericalError,
    SystemParams,
    TwoOpSpec,
    check_grid,
    check_seed,
    pool_size,
    rate_sinr_threshold,
    sinr_rate,
)
from .geometry import Deployment, _as_seed_sequence, _guard_point_budget

_Z95 = 1.959963984540054

#: Replications beyond this would hold more samples than memory allows.
MAX_REPLICATIONS = 10**8

# Expected sites drawn per batch; a batch holds this many over the expected
# sites one replication draws, near sites plus far candidates (at least 1).
# 2**15 ran slower: its arrays page-fault afresh in every batch.
_SITES_PER_BATCH = 2**14


@dataclass(frozen=True)
class SimPlan:
    """Settings of a simulation run; the scenario says what is simulated.

    seed may be an int >= 0 or a tuple of them (tuples let callers derive
    independent streams for related runs).  Replications run in fixed
    batches, each drawing from its own child stream of the seed, so the
    samples depend on the seed and the scenario but not on workers.
    replications is capped at MAX_REPLICATIONS.
    """

    replications: int = 20000
    seed: int | tuple = 0
    home_operator: int = 1
    workers: int = 1

    def __post_init__(self):
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise ConfigError(
                f"replications must lie in [1, {MAX_REPLICATIONS:.0e}], got {self.replications}"
            )
        check_seed(self.seed)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


@dataclass(frozen=True)
class RunReport:
    """Deterministic provenance record written next to empirical curves."""

    scenario: str
    replications: int
    redraws: int
    home_operator: int
    near_radius_m: float
    sites_per_rep: float
    fading: str
    seed_text: str
    workers: int

    def to_text(self) -> str:
        lines = [
            f"scenario: {self.scenario}",
            f"replications: {self.replications}",
            f"redraws: {self.redraws}",
            f"home_operator: {self.home_operator}",
            f"near_radius_m: {self.near_radius_m!r}",
            f"far_field: LOS sites only; omitted mean NLOS interference <= "
            f"{NLOS_OMISSION_BOUND:g} x noise power",
            f"sites_per_rep: {self.sites_per_rep!r}",
            f"fading: {self.fading}",
            f"seed: {self.seed_text}",
            f"workers: {self.workers}",
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class SimResult:
    sinr: np.ndarray
    report: RunReport


# ---------------------------------------------------------------------------
# Batched sampling: every site near the user, only the LOS sites beyond

#: The far field omits at most this mean NLOS interference, in noise powers.
NLOS_OMISSION_BOUND = 1e-5

#: Near-site draws a replication gets to hold a home-operator site.
MAX_DRAWS = 1000


def _nlos_mean_power(params: SystemParams) -> float:
    """Mean power of one NLOS interferer at 1 m: c_N * E[beam gain] * E[fade]."""
    p = params.main_lobe_prob
    fade = 1.0  # Exp(1) and Gamma(m, 1/m) have unit mean; shadowing adds its lognormal mean
    if params.fading.kind == "nakagami-lognormal":
        fade = math.exp(0.5 * (params.fading.shadow_sigma_db_nlos * math.log(10.0) / 10.0) ** 2)
    return params.c_nlos * (p * params.gain_main + (1.0 - p) * params.gain_side) * fade


def _near_radius(model: BlockModel | TwoOpSpec, params: SystemParams, home_operator: int) -> float:
    """Radius beyond which a replication of ``model`` draws only LOS sites.

    The larger of two radii: the one where the mean interference of every
    NLOS occupant beyond it, at most
    2*pi*lam_occ*c_N*E[g]*E[h]*R^(2-alpha_N)/(alpha_N-2), falls to
    NLOS_OMISSION_BOUND noise powers; and the one that holds a home site
    but with probability TAIL_MASS, so that dropping far NLOS home sites
    leaves the serving site alone.
    """
    lam_occ = sum(len(sub) * lam for sub, lam in model.blocks())
    a = params.alpha_nlos - 2.0
    r_nlos = (2.0 * math.pi * lam_occ * _nlos_mean_power(params)
              / (a * NLOS_OMISSION_BOUND * params.sigma2)) ** (1.0 / a)
    r_void = math.sqrt(-math.log(TAIL_MASS) / (math.pi * model.operator_density(home_operator)))
    return max(r_nlos, r_void)


def _distances(rel: np.ndarray) -> np.ndarray:
    """Lengths of the columns of a (2, n) offset array, squared in place; 1 mm at least."""
    rel *= rel
    d = rel[0] + rel[1]
    np.sqrt(d, out=d)  # np.hypot is 10x slower here
    np.maximum(d, 1e-3, out=d)
    return d


def _append_far(d, los, occ, sizes, rep, far_d, far_occ):
    """Per-replication arrays with LOS far sites appended to their replication's segment."""
    at = np.cumsum(sizes)[rep]
    return (np.insert(d, at, far_d), np.insert(los, at, True), np.insert(occ, at, far_occ),
            sizes + np.bincount(rep, minlength=sizes.size))


def _starts(sizes: np.ndarray) -> np.ndarray:
    starts = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return starts


@dataclass(frozen=True, eq=False)
class _PoissonField:
    """A Poisson scenario's sites as the typical user at the origin sees them.

    The SINR depends on each site's distance to the user alone, so the
    whole plane is drawn by distance.  The near disc B(radius) holds
    Poisson block counts of mean lam*pi*radius^2 at distances
    radius*sqrt(U), LOS with probability exp(-beta*d).  Beyond the disc
    only the LOS sites are drawn, a PPP of radial intensity
    2*pi*r*lam*exp(-beta*r): its count has mean
    2*pi*lam*exp(-beta*radius)*(radius/beta + 1/beta^2), and each r is
    radius plus an Exp(beta) or Gamma(2, beta) excess in the ratio
    beta*radius : 1.
    """

    bits: np.ndarray        # occupant mask of each block
    near_means: np.ndarray  # expected near sites of each block
    far_means: np.ndarray   # expected far LOS sites of each block
    far_exp_share: float    # share of far excesses drawn from Exp(beta) rather than Gamma(2)
    radius: float
    beta: float
    home_blocks: np.ndarray

    @classmethod
    def build(cls, model: BlockModel | TwoOpSpec, params: SystemParams,
              home_operator: int) -> "_PoissonField":
        radius = _near_radius(model, params, home_operator)
        beta = params.beta_per_m
        bits = np.array([sub.bits for sub, _ in model.blocks()], dtype=np.uint16)
        lam = np.array([lam for _, lam in model.blocks()])
        far = 2.0 * math.pi * math.exp(-beta * radius) * (radius + 1.0 / beta) / beta
        return cls(
            bits=bits,
            near_means=lam * (math.pi * radius * radius),
            far_means=lam * far,
            far_exp_share=beta * radius / (beta * radius + 1.0),
            radius=radius,
            beta=beta,
            home_blocks=(bits & (1 << (home_operator - 1))) != 0,
        )

    def sites(self) -> float:
        """Expected sites drawn per replication: near sites plus far LOS sites."""
        return float(self.near_means.sum() + self.far_means.sum())

    def draw(self, n: int, rng: np.random.Generator):
        """Sites of n replications, concatenated per replication.

        Returns (distance to the user, LOS labels, occupants, segment
        starts, redraws).  Every near block count of the batch comes from
        one call; each replication without a near home site redraws its
        near counts, in replication order, until it has one.  Then come
        the near distances, their LOS labels and, beyond the disc, the far
        counts, excess mixture choices and excesses.
        """
        nb = self.bits.size
        counts = rng.poisson(self.near_means, (n, nb))
        empty = np.flatnonzero(counts[:, self.home_blocks].sum(axis=1) == 0)
        redraws = 0
        for _ in range(MAX_DRAWS - 1):
            if not empty.size:
                break
            redraws += empty.size
            counts[empty] = rng.poisson(self.near_means, (empty.size, nb))
            empty = empty[counts[empty][:, self.home_blocks].sum(axis=1) == 0]
        if empty.size:
            raise NumericalError(
                f"no home-operator site in the {self.radius:.3g} m near disc after "
                f"{MAX_DRAWS} redraws"
            )
        occ = np.repeat(np.tile(self.bits, n), counts.ravel())
        sizes = counts.sum(axis=1)
        d = rng.random(occ.size)  # distance density 2r/R^2
        np.sqrt(d, out=d)
        d *= self.radius
        np.maximum(d, 1e-3, out=d)
        los = rng.random(d.size) < np.exp(d * -self.beta)
        counts = rng.poisson(self.far_means, (n, nb))
        far_occ = np.repeat(np.tile(self.bits, n), counts.ravel())
        rep = np.repeat(np.arange(n), counts.sum(axis=1))
        k = far_occ.size
        gamma2 = rng.random(k) >= self.far_exp_share
        excess = rng.standard_exponential((2, k))
        far_d = self.radius + (excess[0] + excess[1] * gamma2) / self.beta
        d, los, occ, sizes = _append_far(d, los, occ, sizes, rep, far_d, far_occ)
        return d, los, occ, _starts(sizes), redraws


def _skip_slots(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Each of range(total) independently with probability p, found by geometric skips."""
    parts, last = [], -1
    while last < total:
        pos = last + np.cumsum(rng.geometric(p, int((total - last) * p * 1.1) + 16))
        parts.append(pos)
        last = int(pos[-1])
    slots = np.concatenate(parts)
    return slots[slots < total]


@dataclass(frozen=True, eq=False)
class _DeploymentField:
    """A fixed deployment's sites as the user at the window center sees them.

    The near set is the sites nearest the user, in file order, up to the
    smallest radius that holds the nearest home site and leaves beyond it
    a summed mean NLOS interference of at most NLOS_OMISSION_BOUND noise
    powers.  It is drawn whole, LOS with probability exp(-beta*d).  Of the
    far set only the LOS sites are drawn: a geometric skip through every
    (replication, far site) slot at the largest far LOS probability p_max,
    then acceptance with p_i/p_max.
    """

    near_d: np.ndarray
    near_occ: np.ndarray
    far_d: np.ndarray
    far_occ: np.ndarray
    far_accept: np.ndarray  # p_i / p_max
    p_max: float
    radius: float
    beta: float

    @classmethod
    def build(cls, dep: Deployment, params: SystemParams, home_operator: int) -> "_DeploymentField":
        beta = params.beta_per_m
        d = _distances((dep.xy - dep.window.center()).T)
        order = np.argsort(d, kind="stable")
        ds, occ = d[order], dep.occupants[order]
        nlos = (np.bitwise_count(occ) * -np.expm1(ds * -beta) * _nlos_mean_power(params)
                * ds ** -params.alpha_nlos)
        tail = np.append(np.cumsum(nlos[::-1])[::-1], 0.0)  # tail[k]: sites k, k+1, ...
        # the near set ends at k: past the nearest home site, where the tail meets the bound
        first = int(np.flatnonzero(occ & np.uint16(1 << (home_operator - 1)))[0]) + 1
        k = first + int(np.argmax(tail[first:] <= NLOS_OMISSION_BOUND * params.sigma2))
        p_far = np.exp(ds[k:] * -beta)
        near, far = np.sort(order[:k]), order[k:][p_far > 0]  # exp underflow: never LOS
        p_far = p_far[p_far > 0]
        p_max = float(p_far[0]) if far.size else 1.0
        return cls(d[near], dep.occupants[near], d[far], dep.occupants[far], p_far / p_max,
                   p_max, float(ds[k - 1]), beta)

    def sites(self) -> float:
        """Expected sites drawn per replication: the near set plus far candidates."""
        return self.near_d.size + self.far_d.size * self.p_max

    def draw(self, n: int, rng: np.random.Generator):
        """As _PoissonField.draw; a deployment never redraws."""
        d = np.tile(self.near_d, n)
        occ = np.tile(self.near_occ, n)
        los = rng.random(d.size) < np.exp(d * -self.beta)
        sizes = np.full(n, self.near_d.size)
        n_far = self.far_d.size
        if n_far:
            slots = _skip_slots(n * n_far, self.p_max, rng)
            slots = slots[rng.random(slots.size) < self.far_accept[slots % n_far]]
            rep, site = np.divmod(slots, n_far)
            d, los, occ, sizes = _append_far(d, los, occ, sizes, rep, self.far_d[site],
                                             self.far_occ[site])
        return d, los, occ, _starts(sizes), 0


def _batch_stream(root: np.random.SeedSequence, k: int) -> np.random.Generator:
    """Batch k's generator: root.spawn's k-th child, built without the others."""
    child = np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (k,),
                                   pool_size=root.pool_size)
    return np.random.Generator(np.random.PCG64(child))


def _run_batches(field, params: SystemParams, plan: SimPlan, root: np.random.SeedSequence,
                 batch: int, ks: tuple[int, int]) -> tuple[np.ndarray, int, int]:
    """SINR samples, redraw count and sites drawn of batches ks[0] <= k < ks[1]."""
    parts, redraws, sites = [], 0, 0
    for k in range(*ks):
        rng = _batch_stream(root, k)
        n = min(batch, plan.replications - k * batch)
        d, los, occ, starts, extra = field.draw(n, rng)
        sinr, _ = sinr_batch(d, los, occ, starts, plan.home_operator, params, rng)
        parts.append(sinr)
        redraws += extra
        sites += d.size
    return np.concatenate(parts), redraws, sites


# ---------------------------------------------------------------------------
# Curve construction from samples

def wilson_halfwidth(successes, n: int):
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    k = np.asarray(successes, dtype=float)
    p = k / n
    denom = 1.0 + _Z95 * _Z95 / n
    half = _Z95 * np.sqrt(p * (1.0 - p) / n + _Z95 * _Z95 / (4.0 * n * n)) / denom
    return half if half.ndim else float(half)


def _empirical_curve(samples: np.ndarray, grid: np.ndarray, thresholds_lin,
                     unit: str) -> CoverageCurve:
    """The share of samples above each linear threshold, with Wilson half-widths."""
    n = samples.size
    k = n - np.searchsorted(np.sort(samples), thresholds_lin, side="right")
    return CoverageCurve(grid, k / n, unit=unit, ci_halfwidth=wilson_halfwidth(k, n))


def sinr_curve_from_samples(samples: np.ndarray, thresholds_db) -> CoverageCurve:
    thr_db = check_grid(thresholds_db, "db")
    return _empirical_curve(samples, thr_db, 10.0 ** (thr_db / 10.0), "db")


def rate_curve_from_samples(samples: np.ndarray, rates_bps, params: SystemParams,
                            lambda_op: float) -> CoverageCurve:
    """P(Rate > R) from SINR samples via the mean-load rate mapping."""
    rates = check_grid(rates_bps, "bps")
    return _empirical_curve(samples, rates, rate_sinr_threshold(rates, params, lambda_op), "bps")


def median_rate_from_samples(samples: np.ndarray, params: SystemParams,
                             lambda_op: float) -> float:
    """Empirical median user rate; monotone transform of the median SINR."""
    return sinr_rate(float(np.median(samples)), params, lambda_op)


# ---------------------------------------------------------------------------
# Scenario resolution and the top-level driver

def _resolve_scenario(scenario, params: SystemParams, plan: SimPlan):
    """Returns (the scenario's field, its description)."""
    if isinstance(scenario, Deployment):
        if not np.any(scenario.occupants & (1 << (plan.home_operator - 1))):
            raise DataError(f"deployment contains no operator-{plan.home_operator} site")
        return (_DeploymentField.build(scenario, params, plan.home_operator),
                f"deployment(n_sites={scenario.n_sites})")
    if not isinstance(scenario, (BlockModel, TwoOpSpec)):
        raise ConfigError(
            f"scenario must be a BlockModel, TwoOpSpec or Deployment, "
            f"got {type(scenario).__name__}"
        )
    # a TwoOpSpec raises unless the operator is 1 or 2
    if scenario.operator_density(plan.home_operator) <= 0:
        raise ConfigError(f"operator {plan.home_operator} has zero density")
    field = _PoissonField.build(scenario, params, plan.home_operator)
    _guard_point_budget(field.sites(), "per replication")
    return field, scenario.to_text()


def run_simulation(scenario, params: SystemParams, plan: SimPlan) -> SimResult:
    """Collect per-replication SINR samples and the run's provenance report."""
    field, desc = _resolve_scenario(scenario, params, plan)
    root = _as_seed_sequence(plan.seed)
    batch = max(1, int(_SITES_PER_BATCH // max(field.sites(), 1.0)))
    n_batches = -(-plan.replications // batch)
    run = partial(_run_batches, field, params, plan, root, batch)
    n_workers = pool_size(plan.workers, n_batches)
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool starts
        bounds = np.linspace(0, n_batches, n_workers + 1).astype(int).tolist()
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(run, zip(bounds[:-1], bounds[1:])))
        samples = np.concatenate([p[0] for p in parts])
        redraws = sum(p[1] for p in parts)
        sites = sum(p[2] for p in parts)
    else:
        samples, redraws, sites = run((0, n_batches))
    report = RunReport(
        scenario=desc,
        replications=plan.replications,
        redraws=redraws,
        home_operator=plan.home_operator,
        near_radius_m=field.radius,
        sites_per_rep=sites / plan.replications,
        fading=params.fading.kind,
        seed_text=repr(plan.seed),
        workers=plan.workers,
    )
    return SimResult(sinr=samples, report=report)
