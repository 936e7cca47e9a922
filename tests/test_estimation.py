"""Deployment-data estimators: density, co-location, overlap."""

import numpy as np
import pytest

import mmwshare as mw
from mmwshare import ConfigError, DataError
from mmwshare.estimation import MAX_BIN_COUNT, _bin_index, _components
from mmwshare.geometry import near_pairs

KM2 = 1e6


def _dep(window, rows):
    xy = np.array([[x, y] for x, y, _ in rows], dtype=float)
    occ = np.array([o for _, _, o in rows], dtype=np.uint16)
    return mw.Deployment(window, xy, occ)


def test_estimate_density_counting_modes():
    win = mw.Window(0.0, 2000.0, 0.0, 1000.0)  # 2 km^2
    dep = _dep(win, [
        (100.0, 100.0, 0b01),
        (200.0, 100.0, 0b10),
        (300.0, 100.0, 0b11),
        (400.0, 100.0, 0b01),
    ])
    assert mw.estimate_density(dep) == pytest.approx(2.0 / KM2)
    assert mw.estimate_density(dep, 1) == pytest.approx(1.5 / KM2)
    assert mw.estimate_density(dep, 2) == pytest.approx(1.0 / KM2)
    with pytest.raises(ConfigError):
        mw.estimate_density(dep, "1")


def test_merge_colocated_pairs_to_centroid_union():
    win = mw.Window(0.0, 1000.0, 0.0, 1000.0)
    dep = _dep(win, [
        (100.0, 100.0, 0b01),
        (104.0, 100.0, 0b10),   # within 10 m of the first
        (500.0, 500.0, 0b01),
    ])
    merged = mw.merge_colocated(dep, eps_m=10.0)
    assert merged.n_sites == 2
    assert merged.xy[0].tolist() == [102.0, 100.0]
    assert int(merged.occupants[0]) == 0b11
    assert int(merged.occupants[1]) == 0b01


def test_merge_colocated_is_transitive():
    # chain: a-b and b-c are within eps, a-c is not; all three collapse
    win = mw.Window(0.0, 1000.0, 0.0, 1000.0)
    dep = _dep(win, [
        (100.0, 100.0, 0b01),
        (108.0, 100.0, 0b10),
        (116.0, 100.0, 0b01),
    ])
    merged = mw.merge_colocated(dep, eps_m=10.0)
    assert merged.n_sites == 1
    assert merged.xy[0].tolist() == [108.0, 100.0]
    assert int(merged.occupants[0]) == 0b11


def test_merge_colocated_zero_eps_exact_duplicates_only():
    win = mw.Window(0.0, 1000.0, 0.0, 1000.0)
    dep = _dep(win, [
        (100.0, 100.0, 0b01),
        (100.0, 100.0, 0b10),
        (100.0, 100.5, 0b10),
    ])
    merged = mw.merge_colocated(dep, eps_m=0.0)
    assert merged.n_sites == 2
    assert int(merged.occupants[0]) == 0b11
    with pytest.raises(ConfigError):
        mw.merge_colocated(dep, eps_m=-1.0)


def test_indirect_overlap_counts_shared_fraction():
    win = mw.Window(0.0, 1000.0, 0.0, 1000.0)
    dep = _dep(win, [
        (100.0, 100.0, 0b11),
        (200.0, 100.0, 0b01),
        (300.0, 100.0, 0b10),
        (400.0, 100.0, 0b11),
    ])
    assert mw.estimate_overlap_indirect(dep) == pytest.approx(0.5)
    empty = mw.Deployment(win, np.empty((0, 2)), np.empty(0, dtype=np.uint16))
    with pytest.raises(DataError):
        mw.estimate_overlap_indirect(empty)


def test_direct_overlap_hand_computed_grid():
    # Oracle worked by hand: 2x2 grid over a 2x2 window, one site per cell.
    # cell counts c1 = [1,1,0,1], c2 = [1,0,1,1] -> sum c1*c2 = 2,
    # N1 = N2 = 3, N = 4: (2 - 9/4) / 4 = -0.0625
    win = mw.Window(0.0, 2.0, 0.0, 2.0)
    dep = _dep(win, [
        (0.5, 0.5, 0b11),
        (1.5, 0.5, 0b01),
        (0.5, 1.5, 0b10),
        (1.5, 1.5, 0b11),
    ])
    assert mw.estimate_overlap_direct(dep, 4) == pytest.approx(-0.0625)
    # finer grid isolates each site: (2 - 9/16) / 4 = 0.359375
    assert mw.estimate_overlap_direct(dep, 16) == pytest.approx(0.359375)


def test_direct_overlap_validates_bins():
    win = mw.Window(0.0, 2.0, 0.0, 2.0)
    dep = _dep(win, [(0.5, 0.5, 0b11)])
    with pytest.raises(ConfigError):
        mw.estimate_overlap_direct(dep, 5)  # not a perfect square


def test_overlap_report_on_coupled_sample():
    spec = mw.fid_scenario(30.0 / KM2, 0.5)
    dep = mw.couple_two_operators(spec, mw.Window.square(5000.0), seed=14)
    rep = mw.overlap_report(dep)
    assert rep.n_sites == dep.n_sites
    assert rep.n_shared <= min(rep.n_op1, rep.n_op2)
    assert rep.rho_indirect == pytest.approx(0.5, abs=0.05)
    assert rep.rho_plateau == pytest.approx(rep.rho_indirect, abs=0.1)
    assert len(rep.rho_direct_raw) == len(rep.bin_counts)
    assert len(rep.rho_direct_smoothed) == len(rep.bin_counts)
    text = rep.to_text()
    assert "rho_indirect" in text and "rho_direct_plateau" in text


def test_overlap_report_validates_bin_ladder():
    spec = mw.fid_scenario(30.0 / KM2, 0.5)
    dep = mw.couple_two_operators(spec, mw.Window.square(2000.0), seed=14)
    with pytest.raises(ConfigError):
        mw.overlap_report(dep, bin_counts=(4, 10))
    with pytest.raises(ConfigError):
        mw.overlap_report(dep, bin_counts=(25, 4))
    with pytest.raises(ConfigError):
        mw.overlap_report(dep, bin_counts=())


def test_sharing_summary_counts():
    win = mw.Window(0.0, 1000.0, 0.0, 1000.0)
    dep = _dep(win, [
        (100.0, 100.0, 0b01),
        (200.0, 100.0, 0b11),
        (300.0, 100.0, 0b11),
        (400.0, 100.0, 0b10),
        (500.0, 100.0, 0b100),
    ])
    summary = mw.sharing_summary(dep)
    assert summary.n_sites == 5
    counts = {s.to_text(): c for s, c in summary.subset_counts}
    assert counts == {"1": 1, "1;2": 2, "2": 1, "3": 1}
    totals = {op: (total, shared) for op, total, shared in summary.operator_totals}
    assert totals == {1: (3, 2), 2: (3, 2), 3: (1, 0)}
    text = summary.to_text()
    assert "sites_total: 5" in text


def test_merge_and_ladder_reject_unusable_sizes():
    win = mw.Window(0.0, 1000.0, 0.0, 1000.0)
    dep = _dep(win, [(100.0, 100.0, 0b01), (104.0, 100.0, 0b10)])
    for eps in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="merge radius must be finite"):
            mw.merge_colocated(dep, eps)
    for n_bins in (1001**2, 10**12):
        with pytest.raises(ConfigError, match="from 1 to 1000000"):
            mw.estimate_overlap_direct(dep, n_bins)
        with pytest.raises(ConfigError, match="from 1 to 1000000"):
            mw.overlap_report(dep, bin_counts=(4, n_bins))
    # the cap itself is allowed: no shared cell, so only the N1*N2/n_bins term
    assert mw.estimate_overlap_direct(dep, MAX_BIN_COUNT) == pytest.approx(
        -0.5 / MAX_BIN_COUNT)


# ---------------------------------------------------------------------------
# SciPy oracles for the NumPy merge and ladder

def _first_member(labels):
    """Each node's smallest fellow member: a numbering-free form of a partition."""
    labels = np.asarray(labels)
    first = np.full(labels.max() + 1, labels.size)
    np.minimum.at(first, labels, np.arange(labels.size))
    return first[labels]


def _scipy_partition(xy, eps):
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    n = xy.shape[0]
    pairs = cKDTree(xy).query_pairs(eps, output_type="ndarray").reshape(-1, 2)
    adj = sparse.coo_matrix((np.ones(pairs.shape[0]), (pairs[:, 0], pairs[:, 1])),
                            shape=(n, n))
    return _first_member(connected_components(adj, directed=False)[1])


def _tricky_sites(seed, eps=10.0):
    """Random sites plus the cases a fixed-radius merge gets wrong first.

    Integer coordinates make axis and 3-4-5 offsets of eps exact; moving
    such a partner by one ulp puts it just inside or just outside eps.
    """
    rng = np.random.default_rng(seed)
    base = np.round(rng.uniform(0.0, 3000.0, size=(300, 2)))
    steps = eps * np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [-0.8, 0.6]])
    exact = base[:120] + steps[rng.integers(0, 4, 120)]
    nearer = exact[:40].copy()
    nearer[:, 0] = np.nextafter(nearer[:, 0], base[:40, 0])
    farther = exact[40:80].copy()
    farther[:, 0] = np.nextafter(farther[:, 0], 2 * farther[:, 0] - base[40:80, 0])
    coincident = base[rng.integers(0, 300, 30)]
    k = np.arange(200)[:, None]
    chain = np.array([3100.0, 100.0]) + 0.97 * k * steps[2]  # one group over ~200 cells
    exact_chain = np.array([100.0, 3150.0]) + k * steps[0]  # links of exactly eps
    loose = rng.uniform(0.0, 3300.0, size=(400, 2))
    xy = np.concatenate((base, exact, nearer, farther, coincident, chain, exact_chain, loose))
    xy = xy[rng.permutation(xy.shape[0])]
    occ = rng.integers(1, 4, xy.shape[0]).astype(np.uint16)
    return mw.Deployment(mw.Window(-20.0, 5000.0, -20.0, 5000.0), xy, occ)


@pytest.mark.parametrize("seed", range(4))
def test_merge_partitions_equal_scipy(seed):
    dep = _tricky_sites(seed)
    below, above = np.nextafter(10.0, 0.0), np.nextafter(10.0, 20.0)
    for eps in (10.0, below, above, 3.7, 60.0):
        i, j, d2 = near_pairs(dep.xy, eps)
        close = d2 <= eps * eps
        labels = _components(dep.n_sites, i[close], j[close])
        groups = _scipy_partition(dep.xy, eps)
        assert np.array_equal(_first_member(labels), groups), eps
        # the merged deployment: groups in order of first member, occupant unions
        merged = mw.merge_colocated(dep, eps)
        firsts = np.unique(groups)
        assert merged.n_sites == firsts.size
        for g, (xy, occ) in enumerate(zip(merged.xy, merged.occupants)):
            members = groups == firsts[g]
            assert int(occ) == int(np.bitwise_or.reduce(dep.occupants[members]))
            assert xy == pytest.approx(dep.xy[members].mean(axis=0), rel=1e-12, abs=1e-9)



@pytest.mark.parametrize("seed", range(2))
def test_merge_centroids_are_bitwise_the_add_at_sums(seed):
    # the 200-site chain makes the summation order show in the last bits
    dep = _tricky_sites(seed)
    for eps in (3.7, 10.0, 60.0):
        i, j, d2 = near_pairs(dep.xy, eps)
        close = d2 <= eps * eps
        labels = _components(dep.n_sites, i[close], j[close])  # numbered by first member
        k = int(labels.max()) + 1
        pos = np.zeros((k, 2))
        np.add.at(pos, labels, dep.xy)
        pos /= np.bincount(labels, minlength=k)[:, None]
        assert np.array_equal(mw.merge_colocated(dep, eps).xy, pos), eps

def _histogram_overlap(dep, n_bins):
    """The direct estimator as np.histogram2d computes it (the reference)."""
    k = int(np.sqrt(n_bins))
    w = dep.window
    grid = [np.linspace(w.x_min, w.x_max, k + 1), np.linspace(w.y_min, w.y_max, k + 1)]
    m1, m2 = dep.operator_mask(1), dep.operator_mask(2)
    c1, _, _ = np.histogram2d(dep.xy[m1, 0], dep.xy[m1, 1], bins=grid)
    c2, _, _ = np.histogram2d(dep.xy[m2, 0], dep.xy[m2, 1], bins=grid)
    n1, n2 = float(np.count_nonzero(m1)), float(np.count_nonzero(m2))
    every, _, _ = np.histogram2d(dep.xy[:, 0], dep.xy[:, 1], bins=grid)
    return (float(np.sum(c1 * c2)) - n1 * n2 / n_bins) / dep.n_sites, every


@pytest.mark.parametrize("k", [1, 2, 3, 7, 10, 31, 200])
def test_ladder_counts_equal_histogram2d_on_edges(k):
    rng = np.random.default_rng(k)
    win = mw.Window(-1.3, 7.9, 0.1, 2000.0 / 3.0)
    ex = np.linspace(win.x_min, win.x_max, k + 1)
    ey = np.linspace(win.y_min, win.y_max, k + 1)
    # every interior and outer edge, the next doubles on either side of
    # the interior ones, the upper corner, and random points
    on_x = np.concatenate((ex, np.nextafter(ex[1:-1], -np.inf), np.nextafter(ex[1:-1], np.inf)))
    on_y = np.concatenate((ey, np.nextafter(ey[1:-1], -np.inf), np.nextafter(ey[1:-1], np.inf)))
    xy = np.concatenate((
        np.column_stack((on_x, rng.uniform(win.y_min, win.y_max, on_x.size))),
        np.column_stack((rng.uniform(win.x_min, win.x_max, on_y.size), on_y)),
        np.array([[win.x_max, win.y_max], [win.x_min, win.y_max], [win.x_max, win.y_min]]),
        np.column_stack((rng.uniform(win.x_min, win.x_max, 500),
                         rng.uniform(win.y_min, win.y_max, 500))),
    ))
    occ = rng.integers(1, 4, xy.shape[0]).astype(np.uint16)
    dep = mw.Deployment(win, xy, occ)
    rho, counts = _histogram_overlap(dep, k * k)
    assert mw.estimate_overlap_direct(dep, k * k) == rho
    cells = (_bin_index(xy[:, 0], win.x_min, win.x_max, k) * k
             + _bin_index(xy[:, 1], win.y_min, win.y_max, k))
    assert np.array_equal(np.bincount(cells, minlength=k * k), counts.ravel())
