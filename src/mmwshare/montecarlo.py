"""Monte Carlo SINR sampling for a user at the window center.

Each replication draws fresh network geometry (for point-process
scenarios), blockage labels, fades and interferer beam gains, then
records the downlink SINR of a user served by the strongest home-network
site.  Replications use independently spawned random streams, so results
are reproducible bit-for-bit for a given seed regardless of worker
count.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import CoverageCurve, truncation_radius
from .channel import _sample_fading_mask
from .core import (
    BlockModel,
    ConfigError,
    DataError,
    FadingSpec,
    NumericalError,
    SystemParams,
    TwoOpSpec,
    Window,
    load_factor,
    rate_sinr_threshold,
)
from .geometry import Deployment, _guard_point_budget

_Z95 = 1.959963984540054

DEFAULT_THRESHOLDS_DB = np.arange(-10.0, 30.0 + 0.5, 1.0)


@dataclass(frozen=True)
class SimPlan:
    """Knobs of a simulation run.

    seed may be an int or a tuple of ints (tuples let callers derive
    independent streams for related runs).  half_width_m defaults to the
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
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
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
# Per-replication sampling

def _draw_geometry(kind: str, payload, window: Window, rng: np.random.Generator):
    """Returns (xy (n,2), occupants (n,) uint16) for one replication."""
    if kind == "fixed":
        return payload
    area = window.area()
    if kind == "blocks":
        xs, occs = [], []
        for bits, lam in payload:
            n = rng.poisson(lam * area)
            pts = np.empty((n, 2))
            pts[:, 0] = window.x_min + (window.x_max - window.x_min) * rng.random(n)
            pts[:, 1] = window.y_min + (window.y_max - window.y_min) * rng.random(n)
            xs.append(pts)
            occs.append(np.full(n, bits, dtype=np.uint16))
        return np.concatenate(xs, axis=0), np.concatenate(occs)
    if kind == "two_op":
        lam, a, b = payload
        n = rng.poisson(lam * area)
        pts = np.empty((n, 2))
        pts[:, 0] = window.x_min + (window.x_max - window.x_min) * rng.random(n)
        pts[:, 1] = window.y_min + (window.y_max - window.y_min) * rng.random(n)
        marks = rng.random(n)
        occ = np.where(marks <= a, 1, 0).astype(np.uint16)
        occ |= np.where(marks > b, 2, 0).astype(np.uint16)
        keep = occ != 0
        return pts[keep], occ[keep]
    raise ConfigError(f"unknown scenario kind {kind!r}")


def _rep_sinr(d: np.ndarray, los: np.ndarray, occ: np.ndarray, home_mask: np.ndarray,
              params: SystemParams, include_interference: bool,
              rng: np.random.Generator) -> float:
    """SINR of one replication; draw order matches channel.sinr_at_user."""
    with np.errstate(divide="ignore"):
        pg = np.where(
            los,
            params.c_los * d ** (-params.alpha_los),
            params.c_nlos * d ** (-params.alpha_nlos),
        )
    cand = np.flatnonzero(home_mask)
    serv = int(cand[np.argmax(pg[cand])])
    fading = params.fading
    serv_fade = float(_sample_fading_mask(fading, los[serv : serv + 1], rng)[0])
    signal = pg[serv] * serv_fade * params.gain_main
    if not include_interference:
        return float(signal / params.sigma2)
    counts = np.bitwise_count(occ).astype(np.int64)
    counts[serv] -= 1
    idx = np.repeat(np.arange(occ.size), counts)
    fades = _sample_fading_mask(fading, los[idx], rng)
    gains = np.where(
        rng.random(idx.size) < params.main_lobe_prob, params.gain_main, params.gain_side
    )
    interference = float(np.sum(pg[idx] * fades * gains))
    return float(signal / (params.sigma2 + interference))


def _run_chunk(kind, payload, window: Window, user, params: SystemParams,
               home_operator: int, include_interference: bool, max_attempts: int,
               children) -> tuple[np.ndarray, int]:
    home_bit = np.uint16(1 << (home_operator - 1))
    ux, uy = user
    beta = params.beta_per_m
    out = np.empty(len(children))
    redraws = 0
    for i, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        for attempt in range(max_attempts):
            xy, occ = _draw_geometry(kind, payload, window, rng)
            home_mask = (occ & home_bit) != 0
            if home_mask.any():
                break
            redraws += 1
        else:
            raise NumericalError(
                f"no home-operator site after {max_attempts} redraws; "
                "the home density is too small for this window"
            )
        d = np.hypot(xy[:, 0] - ux, xy[:, 1] - uy)
        np.clip(d, 1e-3, None, out=d)
        los = rng.random(d.size) < np.exp(-beta * d)
        out[i] = _rep_sinr(d, los, occ, home_mask, params, include_interference, rng)
    return out, redraws


def _chunk_task(args):
    return _run_chunk(*args)


# ---------------------------------------------------------------------------
# Curve construction from samples

def wilson_halfwidth(successes, n: int, z: float = _Z95):
    """Half-width of the Wilson score interval for a binomial proportion."""
    k = np.asarray(successes, dtype=float)
    p = k / n
    denom = 1.0 + z * z / n
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return half if half.ndim else float(half)


def _exceed_counts(samples: np.ndarray, thresholds_lin: np.ndarray) -> np.ndarray:
    ordered = np.sort(samples)
    return samples.size - np.searchsorted(ordered, thresholds_lin, side="right")


def sinr_curve_from_samples(samples: np.ndarray, thresholds_db) -> CoverageCurve:
    thr_db = np.asarray(thresholds_db, dtype=float).reshape(-1)
    if thr_db.size == 0 or np.any(np.diff(thr_db) <= 0):
        raise ConfigError("thresholds must be a non-empty strictly increasing grid")
    k = _exceed_counts(samples, 10.0 ** (thr_db / 10.0))
    n = samples.size
    return CoverageCurve(
        thr_db, k / n, kind="empirical", unit="db", ci_halfwidth=wilson_halfwidth(k, n)
    )


def rate_curve_from_samples(samples: np.ndarray, rates_bps, params: SystemParams,
                            lambda_op: float) -> CoverageCurve:
    """P(Rate > R) from SINR samples via the mean-load rate mapping."""
    rates = np.asarray(rates_bps, dtype=float).reshape(-1)
    if rates.size == 0 or np.any(np.diff(rates) <= 0) or np.any(rates < 0):
        raise ConfigError("rates must be a non-empty strictly increasing grid of >= 0 values")
    thr = np.array([rate_sinr_threshold(rr, params, lambda_op) for rr in rates])
    k = _exceed_counts(samples, thr)
    n = samples.size
    return CoverageCurve(
        rates, k / n, kind="empirical", unit="bps", ci_halfwidth=wilson_halfwidth(k, n)
    )


def median_rate_from_samples(samples: np.ndarray, params: SystemParams,
                             lambda_op: float) -> float:
    """Empirical median user rate; monotone transform of the median SINR."""
    n_u = load_factor(params, lambda_op)
    med = float(np.median(samples))
    return params.bandwidth_hz * math.log2(1.0 + med) / n_u


# ---------------------------------------------------------------------------
# Scenario resolution and the top-level driver

def _resolve_scenario(scenario, params: SystemParams, plan: SimPlan):
    """Returns (kind, payload, window, user, description)."""
    if isinstance(scenario, Deployment):
        home_bit = 1 << (plan.home_operator - 1)
        if not np.any(scenario.occupants & home_bit):
            raise DataError(
                f"deployment contains no operator-{plan.home_operator} site"
            )
        window = scenario.window
        payload = (scenario.xy, scenario.occupants)
        desc = f"deployment(n_sites={scenario.n_sites})"
        return "fixed", payload, window, window.center(), desc
    if isinstance(scenario, BlockModel):
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
        payload = tuple((sub.bits, lam) for sub, lam in scenario.blocks())
        desc = "blocks(" + ", ".join(
            f"{sub.to_text()}:{lam * 1e6:.6g}/km^2" for sub, lam in scenario.blocks()
        ) + ")"
        return "blocks", payload, window, window.center(), desc
    if isinstance(scenario, TwoOpSpec):
        if plan.home_operator not in (1, 2):
            raise ConfigError("two-operator scenarios have operators 1 and 2 only")
        lam_home = scenario.operator_density(plan.home_operator)
        if lam_home <= 0:
            raise ConfigError(f"operator {plan.home_operator} has zero density")
        r_max = truncation_radius(lam_home, params)
        half = plan.half_width_m if plan.half_width_m is not None else r_max
        if plan.enforce_radius and half < r_max * (1.0 - 1e-9):
            raise ConfigError(
                f"half_width_m {half:.1f} is below the truncation radius {r_max:.1f} m"
            )
        window = Window.square(half)
        _guard_point_budget(scenario.lambda_total * window.area())
        payload = (scenario.lambda_total, scenario.retain_a, scenario.retain_b)
        desc = (
            f"two-op(lambda_total={scenario.lambda_total * 1e6:.6g}/km^2, "
            f"retain_a={scenario.retain_a!r}, retain_b={scenario.retain_b!r})"
        )
        return "two_op", payload, window, (0.0, 0.0), desc
    raise ConfigError(
        f"scenario must be a BlockModel, TwoOpSpec or Deployment, got {type(scenario).__name__}"
    )


def run_simulation(scenario, params: SystemParams, plan: SimPlan) -> SimResult:
    """Collect per-replication SINR samples and the empirical coverage curve."""
    if plan.fading is not None:
        params = dataclasses.replace(params, fading=plan.fading)
    kind, payload, window, user, desc = _resolve_scenario(scenario, params, plan)
    thresholds = (
        DEFAULT_THRESHOLDS_DB if plan.thresholds_db is None else plan.thresholds_db
    )
    seed = plan.seed if isinstance(plan.seed, (int, np.random.SeedSequence)) else tuple(plan.seed)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(plan.replications)
    n_workers = min(plan.workers, plan.replications)
    if n_workers > 1:
        bounds = np.linspace(0, plan.replications, n_workers + 1).astype(int)
        tasks = [
            (kind, payload, window, user, params, plan.home_operator,
             plan.include_interference, plan.max_attempts, children[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(_chunk_task, tasks))
        samples = np.concatenate([p[0] for p in parts])
        redraws = sum(p[1] for p in parts)
    else:
        samples, redraws = _run_chunk(
            kind, payload, window, user, params, plan.home_operator,
            plan.include_interference, plan.max_attempts, children,
        )
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
