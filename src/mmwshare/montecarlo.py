"""Monte Carlo SINR sampling for a user at the window center.

Each replication draws fresh network geometry (for point-process
scenarios), blockage labels, fades and interferer beam gains, then
records the downlink SINR of a user served by the strongest home-network
site.  Replications run in fixed batches whose size depends on the
scenario alone, and batch k draws from its own stream, the k-th child of
the seed's SeedSequence.  Samples are therefore reproducible bit-for-bit
for a given seed regardless of worker count.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .analytic import CoverageCurve, truncation_radius
from .channel import sinr_batch
from .core import (
    BlockModel,
    ConfigError,
    DataError,
    FadingSpec,
    NumericalError,
    SystemParams,
    TwoOpSpec,
    Window,
    check_grid,
    check_seed,
    load_factor,
    pool_size,
    rate_sinr_threshold,
)
from .geometry import Deployment, _as_seed_sequence, _guard_point_budget

_Z95 = 1.959963984540054

DEFAULT_THRESHOLDS_DB = np.arange(-10.0, 30.0 + 0.5, 1.0)

#: Replications beyond this would hold more samples than memory allows.
MAX_REPLICATIONS = 10**8

# Expected sites per batch; a batch holds this many over the expected sites
# of one replication (at least 1).  2**15 ran slower: its arrays page-fault
# afresh in every batch.
_SITES_PER_BATCH = 2**14


@dataclass(frozen=True)
class SimPlan:
    """Knobs of a simulation run.

    seed may be an int >= 0 or a tuple of them (tuples let callers derive
    independent streams for related runs).  Replications run in fixed
    batches, each drawing from its own child stream of the seed, so the
    samples depend on the seed and the scenario but not on workers.
    replications is capped at MAX_REPLICATIONS.  half_width_m defaults to the
    analytic truncation radius of the home operator; smaller values are
    rejected unless enforce_radius is cleared, since they would bias the
    tail of the serving-distance distribution.
    """

    replications: int = 20000
    seed: int | tuple = 0
    thresholds_db: Sequence[float] | None = None
    half_width_m: float | None = None
    home_operator: int = 1
    fading: FadingSpec | None = None
    include_interference: bool = True
    workers: int = 1
    max_attempts: int = 1000
    enforce_radius: bool = True

    def __post_init__(self):
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise ConfigError(
                f"replications must lie in [1, {MAX_REPLICATIONS:.0e}], got {self.replications}"
            )
        check_seed(self.seed)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.half_width_m is not None and self.half_width_m <= 0:
            raise ConfigError("half_width_m must be positive")


@dataclass(frozen=True)
class RunReport:
    """Deterministic provenance record written next to empirical curves."""

    scenario: str
    replications: int
    redraws: int
    home_operator: int
    half_width_m: float
    fading: str
    include_interference: bool
    seed_text: str
    workers: int

    def to_text(self) -> str:
        lines = [
            f"scenario: {self.scenario}",
            f"replications: {self.replications}",
            f"redraws: {self.redraws}",
            f"home_operator: {self.home_operator}",
            f"half_width_m: {self.half_width_m!r}",
            f"fading: {self.fading}",
            f"include_interference: {self.include_interference}",
            f"seed: {self.seed_text}",
            f"workers: {self.workers}",
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class SimResult:
    sinr: np.ndarray
    curve: CoverageCurve
    report: RunReport


# ---------------------------------------------------------------------------
# Batched sampling

def _draw_batch(scenario, user, n: int, beta: float, home_operator: int, max_attempts: int,
                rng: np.random.Generator):
    """Sites of n replications, concatenated per replication.

    Returns (distance to the user, LOS labels, occupants, segment starts,
    redraws).  A BlockModel draws every block count of the batch in one
    call; each replication without a home site redraws its counts, in
    replication order, until it has one.  A Deployment is tiled n times.
    """
    redraws = 0
    if isinstance(scenario, Deployment):
        occ = np.tile(scenario.occupants, n)
        sizes = np.full(n, scenario.n_sites)
        rel = np.tile((scenario.xy - user).T, n)
    else:
        blocks = scenario.blocks()
        bits = np.array([sub.bits for sub, _ in blocks], dtype=np.uint16)
        means = np.array([lam for _, lam in blocks]) * scenario.window.area()
        home_blocks = (bits & (1 << (home_operator - 1))) != 0
        counts = rng.poisson(means, (n, bits.size))
        empty = np.flatnonzero(counts[:, home_blocks].sum(axis=1) == 0)
        for _ in range(max_attempts - 1):
            if not empty.size:
                break
            redraws += empty.size
            counts[empty] = rng.poisson(means, (empty.size, bits.size))
            empty = empty[counts[empty][:, home_blocks].sum(axis=1) == 0]
        if empty.size:
            raise NumericalError(
                f"no home-operator site after {max_attempts} redraws; "
                "the home density is too small for this window"
            )
        occ = np.repeat(np.tile(bits, n), counts.ravel())
        sizes = counts.sum(axis=1)
        w = scenario.window
        rel = rng.random((2, occ.size))  # positions relative to the user
        rel *= [[w.x_max - w.x_min], [w.y_max - w.y_min]]
        rel += [[w.x_min - user[0]], [w.y_min - user[1]]]
    rel *= rel
    d = rel[0] + rel[1]
    np.sqrt(d, out=d)  # np.hypot is 10x slower here
    np.maximum(d, 1e-3, out=d)
    los = rng.random(d.size) < np.exp(d * -beta)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return d, los, occ, starts, redraws


def _batch_stream(root: np.random.SeedSequence, k: int) -> np.random.Generator:
    """Batch k's generator: root.spawn's k-th child, built without the others."""
    child = np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (k,),
                                   pool_size=root.pool_size)
    return np.random.Generator(np.random.PCG64(child))


def _run_batches(scenario, user, params: SystemParams, plan: SimPlan,
                 root: np.random.SeedSequence, batch: int,
                 ks: tuple[int, int]) -> tuple[np.ndarray, int]:
    """SINR samples and redraw count of batches ks[0] <= k < ks[1]."""
    parts, redraws = [], 0
    for k in range(*ks):
        rng = _batch_stream(root, k)
        n = min(batch, plan.replications - k * batch)
        d, los, occ, starts, extra = _draw_batch(
            scenario, user, n, params.beta_per_m, plan.home_operator, plan.max_attempts, rng
        )
        sinr, _ = sinr_batch(d, los, occ, starts, plan.home_operator, params, rng,
                             plan.include_interference)
        parts.append(sinr)
        redraws += extra
    return np.concatenate(parts), redraws


# ---------------------------------------------------------------------------
# Curve construction from samples

def wilson_halfwidth(successes, n: int, z: float = _Z95):
    """Half-width of the Wilson score interval for a binomial proportion."""
    k = np.asarray(successes, dtype=float)
    p = k / n
    denom = 1.0 + z * z / n
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return half if half.ndim else float(half)


def _empirical_curve(samples: np.ndarray, grid: np.ndarray, thresholds_lin,
                     unit: str) -> CoverageCurve:
    """The share of samples above each linear threshold, with Wilson half-widths."""
    n = samples.size
    k = n - np.searchsorted(np.sort(samples), thresholds_lin, side="right")
    return CoverageCurve(grid, k / n, kind="empirical", unit=unit,
                         ci_halfwidth=wilson_halfwidth(k, n))


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
    n_u = load_factor(params, lambda_op)
    med = float(np.median(samples))
    return params.bandwidth_hz * math.log2(1.0 + med) / n_u


# ---------------------------------------------------------------------------
# Scenario resolution and the top-level driver

def _resolve_scenario(scenario, params: SystemParams, plan: SimPlan):
    """Returns (BlockModel or Deployment, description)."""
    if isinstance(scenario, Deployment):
        home_bit = 1 << (plan.home_operator - 1)
        if not np.any(scenario.occupants & home_bit):
            raise DataError(
                f"deployment contains no operator-{plan.home_operator} site"
            )
        return scenario, f"deployment(n_sites={scenario.n_sites})"
    if isinstance(scenario, TwoOpSpec):
        desc = (
            f"two-op(lambda_total={scenario.lambda_total * 1e6:.6g}/km^2, "
            f"retain_a={scenario.retain_a!r}, retain_b={scenario.retain_b!r})"
        )
        lam_home = scenario.operator_density(plan.home_operator)  # raises unless 1 or 2
        half = plan.half_width_m or truncation_radius(lam_home, params)
        # independent uniform marks split the mother PPP into independent blocks
        scenario = scenario.to_block_model(Window.square(half))
    elif isinstance(scenario, BlockModel):
        desc = scenario.to_text()
    else:
        raise ConfigError(
            f"scenario must be a BlockModel, TwoOpSpec or Deployment, "
            f"got {type(scenario).__name__}"
        )
    lam_home = scenario.operator_density(plan.home_operator)
    if lam_home <= 0:
        raise ConfigError(f"operator {plan.home_operator} has zero density")
    window = scenario.window
    if plan.enforce_radius:
        r_max = truncation_radius(lam_home, params)
        cx, cy = window.center()
        margin = min(
            cx - window.x_min, window.x_max - cx, cy - window.y_min, window.y_max - cy
        )
        if margin < r_max * (1.0 - 1e-9):
            raise ConfigError(
                f"window half-width {margin:.1f} m is below the truncation "
                f"radius {r_max:.1f} m; enlarge the window"
            )
    _guard_point_budget(scenario.total_density() * window.area())
    return scenario, desc


def run_simulation(scenario, params: SystemParams, plan: SimPlan) -> SimResult:
    """Collect per-replication SINR samples and the empirical coverage curve."""
    if plan.fading is not None:
        params = dataclasses.replace(params, fading=plan.fading)
    scenario, desc = _resolve_scenario(scenario, params, plan)
    window = scenario.window
    thresholds = (
        DEFAULT_THRESHOLDS_DB if plan.thresholds_db is None else plan.thresholds_db
    )
    root = _as_seed_sequence(plan.seed)
    sites = (scenario.n_sites if isinstance(scenario, Deployment)
             else scenario.total_density() * window.area())
    batch = max(1, int(_SITES_PER_BATCH // max(sites, 1.0)))
    n_batches = -(-plan.replications // batch)
    run = partial(_run_batches, scenario, window.center(), params, plan, root, batch)
    n_workers = pool_size(plan.workers, n_batches)
    if n_workers > 1:
        bounds = np.linspace(0, n_batches, n_workers + 1).astype(int).tolist()
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(run, zip(bounds[:-1], bounds[1:])))
        samples = np.concatenate([p[0] for p in parts])
        redraws = sum(p[1] for p in parts)
    else:
        samples, redraws = run((0, n_batches))
    curve = sinr_curve_from_samples(samples, thresholds)
    cx, cy = window.center()
    half = min(window.x_max - cx, window.y_max - cy)
    report = RunReport(
        scenario=desc,
        replications=plan.replications,
        redraws=redraws,
        home_operator=plan.home_operator,
        half_width_m=float(half),
        fading=params.fading.kind,
        include_interference=plan.include_interference,
        seed_text=repr(plan.seed),
        workers=plan.workers,
    )
    return SimResult(sinr=samples, curve=curve, report=report)
