"""Estimating densities and the sharing fraction from deployment data.

Density estimates are plain counts over the observation window.  The
sharing fraction rho (shared density over per-operator density for the
symmetric two-operator model) has two estimators:

* indirect: count sites carrying both operators after co-location
  merging, divide by the total number of physical sites;
* direct: a cross-moment statistic over a square grid of counting
  cells that needs no co-location merging at all, only per-operator
  counts per cell.

The direct estimator converges to the indirect one as the grid is
refined; scanning a ladder of grid sizes and looking for the plateau
gives an estimate that is robust to the choice of cell size and doubles
as a diagnostic: if the two estimators disagree, the deployments are
correlated in a way the coupled-homogeneous model cannot express.

The module needs NumPy alone.  The co-location merge finds pairs within
its radius with the uniform-grid search ``geometry.near_pairs`` and joins
them into groups by min-label propagation; the direct estimator bins
sites arithmetically, correcting each index against the ``linspace``
edges so that its cell counts equal ``np.histogram2d``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError, OperatorSet
from .geometry import Deployment, near_pairs

DEFAULT_BIN_COUNTS = (4, 9, 25, 64, 144, 400, 1024, 2500)
# Each bin count allocates its cells whole: 10**6 (a 1000 x 1000 grid)
# costs megabytes and lies far above any useful ladder.
MAX_BIN_COUNT = 10**6
DEFAULT_MERGE_EPS_M = 10.0
SMOOTH_WINDOW = 5


def estimate_density(dep: Deployment, operator=None) -> float:
    """Sites per square meter over the deployment window.

    operator=None counts every physical site, an int counts sites
    carrying that operator.
    """
    area = dep.window.area()
    if operator is None:
        n = dep.n_sites
    else:
        n = int(np.count_nonzero(dep.operator_mask(operator)))
    return n / area


# ---------------------------------------------------------------------------
# Co-location merging

def merge_colocated(dep: Deployment, eps_m: float = DEFAULT_MERGE_EPS_M) -> Deployment:
    """Collapse sites within eps_m of each other into single multi-operator sites.

    Merging is transitive (connected components of the graph of pairs
    with dx*dx + dy*dy <= eps_m*eps_m); the merged site sits at the group
    centroid and carries the union of the occupants.  eps_m = 0 merges
    exactly coincident coordinates only.  Blockage labels do not survive
    the merge.
    """
    if not (math.isfinite(eps_m) and eps_m >= 0):
        raise ConfigError(f"merge radius must be finite and >= 0, got {eps_m!r}")
    n = dep.n_sites
    if n == 0:
        return Deployment(dep.window, dep.xy[:0], dep.occupants[:0])
    if eps_m == 0:
        _, labels = np.unique(dep.xy, axis=0, return_inverse=True)
    else:
        i, j, d2 = near_pairs(dep.xy, eps_m)
        close = d2 <= eps_m * eps_m
        labels = _components(n, i[close], j[close])
    k = int(labels.max()) + 1
    # bincount sums each group in input order, as np.add.at does
    sizes = np.bincount(labels, minlength=k).astype(float)
    pos = np.column_stack([np.bincount(labels, dep.xy[:, a], minlength=k) for a in (0, 1)])
    pos /= sizes[:, None]
    occ = np.zeros(k, dtype=np.uint16)
    np.bitwise_or.at(occ, labels, dep.occupants)
    # stable ordering: groups in order of their first member
    first = np.full(k, n, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(n))
    order = np.argsort(first, kind="stable")
    # centroids can drift outside a tight window; clamp to stay loadable
    pos = np.column_stack(
        (
            np.clip(pos[:, 0], dep.window.x_min, dep.window.x_max),
            np.clip(pos[:, 1], dep.window.y_min, dep.window.y_max),
        )
    )
    return Deployment(dep.window, pos[order], occ[order])


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Component labels 0..k-1, in order of first node, of n nodes joined by edges (i, j).

    Min-label propagation: every root takes the smallest root among its
    edges' ends, then pointer jumping flattens the forest; pointers only
    ever go to smaller nodes, so the loop ends with each node pointing at
    the smallest node of its component.
    """
    lab = np.arange(n)
    while True:
        li, lj = lab[i], lab[j]
        if np.array_equal(li, lj):
            roots = lab == np.arange(n)
            return (np.cumsum(roots) - 1)[lab]
        low = np.minimum(li, lj)
        np.minimum.at(lab, li, low)
        np.minimum.at(lab, lj, low)
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up


# ---------------------------------------------------------------------------
# Overlap estimators

def estimate_overlap_indirect(dep: Deployment) -> float:
    """Sites shared by operators 1 and 2 over all physical sites: requires co-located occupancy."""
    if dep.n_sites == 0:
        raise DataError("cannot estimate overlap of an empty deployment")
    both = dep.operator_mask(1) & dep.operator_mask(2)
    return float(np.count_nonzero(both)) / dep.n_sites


def estimate_overlap_direct(dep: Deployment, n_bins: int) -> float:
    """Cross-moment overlap estimate of operators 1 and 2 on a k x k grid (n_bins = k^2).

    (sum over cells of count1*count2 - N1*N2/n_bins) / N; the subtracted
    term removes the independent cross-product so only the co-located
    intensity remains.  Unbiased up to a (1 - 1/n_bins) factor under the
    coupled model and needs no site merging.
    """
    if dep.n_sites == 0:
        raise DataError("cannot estimate overlap of an empty deployment")
    _check_bin_count(n_bins)
    k = math.isqrt(n_bins)
    w = dep.window
    cell = _bin_index(dep.xy[:, 0], w.x_min, w.x_max, k) * k
    cell += _bin_index(dep.xy[:, 1], w.y_min, w.y_max, k)
    m1 = dep.operator_mask(1)
    m2 = dep.operator_mask(2)
    c1 = np.bincount(cell[m1], minlength=n_bins)
    c2 = np.bincount(cell[m2], minlength=n_bins)
    n1 = float(np.count_nonzero(m1))
    n2 = float(np.count_nonzero(m2))
    # integer counts, so the sum is exact
    cross = float(np.sum(c1 * c2))
    return (cross - n1 * n2 / n_bins) / dep.n_sites


def _check_bin_count(n_bins: int) -> None:
    if not 1 <= n_bins <= MAX_BIN_COUNT or math.isqrt(n_bins) ** 2 != n_bins:
        raise ConfigError(
            f"bin count must be a perfect square from 1 to {MAX_BIN_COUNT}, got {n_bins}"
        )


def _bin_index(v: np.ndarray, lo: float, hi: float, k: int) -> np.ndarray:
    """Bin of each value in [lo, hi] among k equal bins, as np.histogram2d bins it.

    The arithmetic floor((v - lo) * k / (hi - lo)) is off by at most one
    near an edge; one step against the same ``linspace`` edges gives
    ``searchsorted(side="right") - 1``, and a value on the last edge
    falls in the last bin.
    """
    edges = np.linspace(lo, hi, k + 1)
    b = np.clip(((v - lo) * k / (hi - lo)).astype(np.intp), 0, k - 1)
    b -= v < edges[b]
    b += v >= edges[b + 1]
    return np.minimum(b, k - 1)


def _smooth(values: np.ndarray) -> np.ndarray:
    """Centered moving average over SMOOTH_WINDOW values, truncated at the ends."""
    half = SMOOTH_WINDOW // 2
    out = np.empty_like(values, dtype=float)
    for i in range(values.size):
        lo = max(0, i - half)
        hi = min(values.size, i + half + 1)
        out[i] = values[lo:hi].mean()
    return out


@dataclass(frozen=True)
class OverlapReport:
    """Overlap estimates for operators 1 and 2, across a grid-size ladder."""

    window_area_m2: float
    n_sites: int
    n_op1: int
    n_op2: int
    n_shared: int
    rho_indirect: float
    bin_counts: tuple[int, ...]
    rho_direct_raw: tuple[float, ...]
    rho_direct_smoothed: tuple[float, ...]
    rho_plateau: float

    def to_text(self) -> str:
        km2 = self.window_area_m2 / 1e6
        lines = [
            "operators: 1 and 2",
            f"window_area_km2: {km2!r}",
            f"sites_total: {self.n_sites}",
            f"sites_op1: {self.n_op1}",
            f"sites_op2: {self.n_op2}",
            f"sites_shared: {self.n_shared}",
            f"lambda_op1_per_km2: {self.n_op1 / km2!r}",
            f"lambda_op2_per_km2: {self.n_op2 / km2!r}",
            f"rho_indirect: {self.rho_indirect!r}",
            f"rho_direct_plateau: {self.rho_plateau!r}",
            "rho_direct_by_bins:",
        ]
        for nb, raw, sm in zip(self.bin_counts, self.rho_direct_raw, self.rho_direct_smoothed):
            lines.append(f"  {nb}: raw={raw!r} smoothed={sm!r}")
        return "\n".join(lines) + "\n"

    def bins_csv_rows(self) -> list[tuple[int, float, float]]:
        return [
            (nb, raw, sm)
            for nb, raw, sm in zip(self.bin_counts, self.rho_direct_raw, self.rho_direct_smoothed)
        ]


def overlap_report(dep: Deployment, bin_counts=DEFAULT_BIN_COUNTS) -> OverlapReport:
    """Run both overlap estimators; the plateau summarizes the direct ladder.

    The plateau statistic is the median of the smoothed direct estimates
    over the larger half of the bin ladder, where the (1 - 1/n) bias is
    negligible.
    """
    bins = tuple(int(b) for b in bin_counts)
    if len(bins) == 0:
        raise ConfigError("need at least one bin count")
    for b in bins:
        _check_bin_count(b)
    if list(bins) != sorted(set(bins)):
        raise ConfigError("bin counts must be strictly increasing")
    raw = np.array([estimate_overlap_direct(dep, nb) for nb in bins])
    smoothed = _smooth(raw)
    upper = smoothed[len(bins) // 2 :]
    m1 = dep.operator_mask(1)
    m2 = dep.operator_mask(2)
    return OverlapReport(
        window_area_m2=dep.window.area(),
        n_sites=dep.n_sites,
        n_op1=int(np.count_nonzero(m1)),
        n_op2=int(np.count_nonzero(m2)),
        n_shared=int(np.count_nonzero(m1 & m2)),
        rho_indirect=estimate_overlap_indirect(dep),
        bin_counts=bins,
        rho_direct_raw=tuple(float(v) for v in raw),
        rho_direct_smoothed=tuple(float(v) for v in smoothed),
        rho_plateau=float(np.median(upper)),
    )


# ---------------------------------------------------------------------------
# Sharing structure summary

@dataclass(frozen=True)
class SharingSummary:
    """Exact-subset site counts and per-operator sharing ratios."""

    n_sites: int
    subset_counts: tuple[tuple[OperatorSet, int], ...]
    operator_totals: tuple[tuple[int, int, int], ...]  # (operator, total, shared)

    def to_text(self) -> str:
        lines = [f"sites_total: {self.n_sites}", "sites_by_occupants:"]
        for subset, count in self.subset_counts:
            lines.append(f"  {subset.to_text()}: {count}")
        lines.append("operator_sharing:")
        for op, total, shared in self.operator_totals:
            frac = shared / total if total else 0.0
            lines.append(f"  {op}: total={total} shared={shared} fraction={frac!r}")
        return "\n".join(lines) + "\n"


def sharing_summary(dep: Deployment) -> SharingSummary:
    values, counts = np.unique(dep.occupants, return_counts=True)
    subset_counts = tuple(
        (OperatorSet(int(v)), int(c)) for v, c in zip(values, counts)
    )
    totals = []
    for op in dep.operators():
        mask = dep.operator_mask(op)
        shared = mask & (np.bitwise_count(dep.occupants) > 1)
        totals.append((op, int(np.count_nonzero(mask)), int(np.count_nonzero(shared))))
    return SharingSummary(
        n_sites=dep.n_sites,
        subset_counts=subset_counts,
        operator_totals=tuple(totals),
    )
