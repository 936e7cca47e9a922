"""Simulation driver: determinism, curve construction, failure modes."""

import concurrent.futures
import dataclasses
import math
import os

import numpy as np
import pytest

import mmwshare as mw
from mmwshare import ConfigError, DataError, NumericalError, SimPlan, montecarlo
from mmwshare.core import pool_size
from mmwshare.montecarlo import wilson_halfwidth

KM2 = 1e6
P = mw.PRESETS["paper-sec5"]
SPEC = mw.fid_scenario(30.0 / KM2, 0.4)


def test_simplan_validation():
    with pytest.raises(ConfigError):
        SimPlan(replications=0)
    with pytest.raises(ConfigError):
        SimPlan(workers=0)


def test_wilson_halfwidth_matches_quadratic_roots():
    # Oracle: the interval ends are the roots of
    # (1 + z^2/n) p^2 - (2 p_hat + z^2/n) p + p_hat^2 = 0
    z = 1.959963984540054
    for k, n in [(0, 50), (7, 50), (25, 50), (49, 50), (1234, 20000)]:
        p_hat = k / n
        roots = np.roots([1 + z * z / n, -(2 * p_hat + z * z / n), p_hat * p_hat])
        want = float(abs(roots[0] - roots[1])) / 2.0
        assert wilson_halfwidth(k, n) == pytest.approx(want, rel=1e-9)


def test_sinr_curve_from_samples_hand_case():
    samples = np.array([0.1, 1.0, 10.0, 100.0])
    curve = mw.sinr_curve_from_samples(samples, [-5.0, 0.0, 5.0])
    # exceedance is strict: the sample at exactly 1.0 (0 dB) does not count
    assert curve.probabilities.tolist() == [0.75, 0.5, 0.5]
    assert curve.kind == "empirical" and curve.unit == "db"
    assert curve.ci_halfwidth is not None and curve.ci_halfwidth.shape == (3,)
    with pytest.raises(ConfigError):
        mw.sinr_curve_from_samples(samples, [])
    with pytest.raises(ConfigError):
        mw.sinr_curve_from_samples(samples, [5.0, 0.0])


def test_rate_curve_from_samples_uses_load_mapping():
    samples = np.array([0.5, 2.0, 30.0, 300.0])
    lam_op = 30.0 / KM2
    curve = mw.rate_curve_from_samples(samples, [100e6], P, lam_op)
    thr = mw.rate_sinr_threshold(100e6, P, lam_op)  # 26.22
    want = np.mean(samples > thr)
    assert curve.probabilities[0] == pytest.approx(want)
    with pytest.raises(ConfigError):
        mw.rate_curve_from_samples(samples, [-1e6, 1e6], P, lam_op)


def test_median_rate_from_samples_formula():
    samples = np.array([1.0, 3.0, 7.0, 15.0, 31.0])
    lam_op = 30.0 / KM2
    got = mw.median_rate_from_samples(samples, P, lam_op)
    n_u = 1.0 + 1.28 * P.user_density_per_m2 / lam_op
    assert got == pytest.approx(P.bandwidth_hz * math.log2(8.0) / n_u, rel=1e-12)


def test_same_seed_reproduces_samples():
    plan = SimPlan(replications=400, seed=10)
    r1 = mw.run_simulation(SPEC, P, plan)
    r2 = mw.run_simulation(SPEC, P, plan)
    assert np.array_equal(r1.sinr, r2.sinr)
    r3 = mw.run_simulation(SPEC, P, SimPlan(replications=400, seed=11))
    assert not np.array_equal(r1.sinr, r3.sinr)


def test_tuple_seeds_give_distinct_streams():
    p1 = SimPlan(replications=200, seed=(5, 0))
    p2 = SimPlan(replications=200, seed=(5, 1))
    r1 = mw.run_simulation(SPEC, P, p1)
    r2 = mw.run_simulation(SPEC, P, p2)
    assert not np.array_equal(r1.sinr, r2.sinr)


def test_worker_count_does_not_change_samples():
    serial = mw.run_simulation(SPEC, P, SimPlan(replications=300, seed=21, workers=1))
    pooled = mw.run_simulation(SPEC, P, SimPlan(replications=300, seed=21, workers=3))
    assert np.array_equal(serial.sinr, pooled.sinr)
    assert pooled.report.workers == 3


def test_simulation_on_fixed_deployment():
    win = mw.Window.square(3000.0)
    dep = mw.couple_two_operators(mw.fid_scenario(40.0 / KM2, 0.5), win, seed=4)
    plan = SimPlan(replications=300, seed=1)
    res = mw.run_simulation(dep, P, plan)
    assert res.sinr.shape == (300,)
    assert mw.sinr_curve_from_samples(res.sinr, [-10.0, 0.0, 10.0]).kind == "empirical"
    assert res.report.scenario.startswith("deployment(")


def test_simulation_rejects_deployment_without_home_operator():
    win = mw.Window.square(1000.0)
    dep = mw.Deployment(win, np.array([[10.0, 10.0]]), np.array([2], dtype=np.uint16))
    with pytest.raises(DataError):
        mw.run_simulation(dep, P, SimPlan(replications=10, home_operator=1))


def test_simulation_rejects_zero_density_home():
    lonely = mw.TwoOpSpec(30.0 / KM2, 1.0, 1.0)  # operator 2 keeps nothing
    with pytest.raises(ConfigError):
        mw.run_simulation(lonely, P, SimPlan(replications=10, home_operator=2))


def test_density_per_km2_given_per_m2_hits_the_point_budget_before_sampling(monkeypatch):
    # 30 read as 30 sites per m^2: ~1e13 expected sites per replication, which
    # would fail on allocation; refused before any draw
    def no_draw(*args):
        raise AssertionError("a refused scenario must not be sampled")

    monkeypatch.setattr(montecarlo._PoissonField, "draw", no_draw)
    model = mw.BlockModel(mw.Window.square(3300.0), {mw.OperatorSet.of(1): 30.0})
    with pytest.raises(ConfigError, match="sampling budget"):
        mw.run_simulation(model, P, SimPlan(replications=10, workers=2))
    with pytest.raises(ConfigError, match="per replication exceeds the sampling budget"):
        mw.run_simulation(mw.fid_scenario(30.0, 0.4), P, SimPlan(replications=10))


def _starved(monkeypatch, density_km2, home_sites):
    """One operator whose near disc holds ``home_sites`` expected sites.

    At these densities the home void radius sets the disc, and TAIL_MASS
    sets that radius: a draw lacks a home site with probability TAIL_MASS.
    """
    monkeypatch.setattr(montecarlo, "TAIL_MASS", math.exp(-home_sites))
    model = mw.BlockModel(mw.Window.square(100.0), {mw.OperatorSet.of(1): density_km2 / KM2})
    near = montecarlo._PoissonField.build(model, P, 1).near_means.sum()
    assert near == pytest.approx(home_sites, rel=1e-9)
    return model


def test_redraw_budget_exhaustion(monkeypatch):
    # ~6e-7 expected sites per draw: no home site will ever appear
    model = _starved(monkeypatch, 1e-4, 6e-7)
    plan = SimPlan(replications=5, seed=0)
    with pytest.raises(NumericalError, match="redraws"):
        mw.run_simulation(model, P, plan)


def test_run_report_round_trips_settings():
    plan = SimPlan(replications=50, seed=(9, 9))
    res = mw.run_simulation(SPEC, P, plan)
    text = res.report.to_text()
    assert "replications: 50" in text
    assert "seed: (9, 9)" in text
    assert "fading: rayleigh" in text


# ---------------------------------------------------------------------------
# Batched stream layout

NAK = mw.NAKAGAMI_LOGNORMAL_DEFAULT
THREE_OP = mw.BlockModel(
    mw.Window.square(mw.truncation_radius(45.0 / KM2, P)),
    {mw.OperatorSet.of(1): 20.0 / KM2, mw.OperatorSet.of(2): 25.0 / KM2,
     mw.OperatorSet.of(3): 15.0 / KM2, mw.OperatorSet.of(1, 2): 15.0 / KM2,
     mw.OperatorSet.of(1, 2, 3): 10.0 / KM2},
)


def _fixed_deployment():
    return mw.couple_two_operators(mw.fid_scenario(40.0 / KM2, 0.5), mw.Window.square(3000.0),
                                   seed=4)


@pytest.fixture
def many_cpus(monkeypatch):
    # pool sizes are capped at the CPU count; pretend there are enough CPUs
    # that three workers really split the batches three ways
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


@pytest.mark.parametrize("scenario, fading", [
    (SPEC, mw.RAYLEIGH), (THREE_OP, NAK), (_fixed_deployment(), mw.RAYLEIGH),
], ids=["two-op", "three-op-nakagami", "deployment"])
def test_samples_do_not_depend_on_workers(many_cpus, scenario, fading):
    params = dataclasses.replace(P, fading=fading)
    runs = [mw.run_simulation(scenario, params, SimPlan(replications=250, seed=(8, 1), workers=w))
            for w in (1, 2, 3)]
    assert pool_size(3, 250) == 3
    for res in runs[1:]:
        assert np.array_equal(res.sinr, runs[0].sinr)
    assert runs[0].sinr.shape == (250,) and np.all(np.isfinite(runs[0].sinr))


def test_frequent_redraws_are_deterministic(many_cpus, monkeypatch):
    crowded = _starved(monkeypatch, 3.0, 1.2)

    def run(workers):
        plan = SimPlan(replications=400, seed=3, workers=workers)
        return mw.run_simulation(crowded, P, plan)

    first, again, pooled = run(1), run(1), run(2)
    # ~1.2 expected home sites per draw: about 30% of draws come up empty
    assert 50 < first.report.redraws < 400
    for other in (again, pooled):
        assert np.array_equal(other.sinr, first.sinr)
        assert other.report.redraws == first.report.redraws


def test_batch_of_mostly_empty_draws_fills_every_sample(monkeypatch):
    # ~0.12 expected home sites per draw, and all 300 replications in one batch
    sparse = _starved(monkeypatch, 0.3, 0.12)
    assert montecarlo._SITES_PER_BATCH >= 300
    res = mw.run_simulation(sparse, P, SimPlan(replications=300, seed=5))
    assert res.report.redraws > 5 * 300
    assert res.sinr.shape == (300,)
    assert np.all(np.isfinite(res.sinr)) and np.all(res.sinr > 0)
    assert np.unique(res.sinr).size == 300


def test_batch_stream_is_the_spawned_child():
    root = np.random.SeedSequence((12, 3))
    children = np.random.SeedSequence((12, 3)).spawn(6)
    for k in (0, 5):
        want = np.random.Generator(np.random.PCG64(children[k])).random(4)
        assert np.array_equal(montecarlo._batch_stream(root, k).random(4), want)


def test_oversized_replication_count_is_rejected_at_once():
    with pytest.raises(ConfigError, match="replications"):
        SimPlan(replications=10**12)
    SimPlan(replications=montecarlo.MAX_REPLICATIONS)


def test_pool_size_is_capped_by_chunks_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert pool_size(5000, 10**6) == 2
    assert pool_size(5000, 1) == 1
    assert pool_size(1, 100) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool_size(4, 100) == 1


def test_huge_thread_counts_start_no_more_processes_than_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-CPU run must not start a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    res = mw.run_simulation(SPEC, P, SimPlan(replications=50, seed=1, workers=5000))
    assert res.report.workers == 5000
    serial = mw.run_simulation(SPEC, P, SimPlan(replications=50, seed=1))
    assert np.array_equal(res.sinr, serial.sinr)
    mw.sinr_coverage(SPEC, P, [0.0, 10.0], workers=5000)


# ---------------------------------------------------------------------------
# Near disc plus LOS-only far field

def _whole_window_draw(model, n, beta, home_operator, max_draws, rng):
    """Every site of the window, LOS with probability exp(-beta*d): the reference draw."""
    bits = np.array([sub.bits for sub, _ in model.blocks()], dtype=np.uint16)
    means = np.array([lam for _, lam in model.blocks()]) * model.window.area()
    home = (bits & (1 << (home_operator - 1))) != 0
    counts = rng.poisson(means, (n, bits.size))
    empty, redraws = np.flatnonzero(counts[:, home].sum(axis=1) == 0), 0
    for _ in range(max_draws - 1):
        if not empty.size:
            break
        redraws += empty.size
        counts[empty] = rng.poisson(means, (empty.size, bits.size))
        empty = empty[counts[empty][:, home].sum(axis=1) == 0]
    assert not empty.size
    occ = np.repeat(np.tile(bits, n), counts.ravel())
    w, (ux, uy) = model.window, model.window.center()
    x, y = rng.random((2, occ.size))
    x, y = x * (w.x_max - w.x_min) + (w.x_min - ux), y * (w.y_max - w.y_min) + (w.y_min - uy)
    d = np.maximum(np.sqrt(x * x + y * y), 1e-3)
    los = rng.random(d.size) < np.exp(d * -beta)
    starts = np.concatenate([[0], np.cumsum(counts.sum(axis=1))[:-1]])
    return d, los, occ, starts, redraws, (x, y)


def test_omitted_nlos_interference_is_below_the_closed_form_bound():
    # full-window draws of the FID scenario: the NLOS occupants outside the
    # near disc carry, on average, less than the bound the radius was chosen for
    model = SPEC.to_block_model(mw.Window.square(mw.truncation_radius(SPEC.lambda_op1, P)))
    field = montecarlo._PoissonField.build(model, P, 1)
    assert field.far_means is not None
    rng = np.random.default_rng(23)
    # 16 chunks of 300 replications: the mean reads 0.962 of the bound, and
    # 0.962-0.973 over seeds 23-27 (0.951-1.000 with one chunk)
    chunk, chunks = 300, 16
    power, n_dropped, n_sites = 0.0, 0, 0
    for _ in range(chunks):
        d, los, occ, _, _, (x, y) = _whole_window_draw(model, chunk, P.beta_per_m, 1, 10, rng)
        dropped = ~los & (np.hypot(x, y) > field.radius)
        k = np.bitwise_count(occ)[dropped]
        terms = np.repeat(P.c_nlos * d[dropped] ** -P.alpha_nlos, k)
        terms *= rng.standard_exponential(terms.size) * mw.channel.sample_gain(P, rng, terms.size)
        power += terms.sum()
        n_dropped += int(dropped.sum())
        n_sites += d.size
    bound = montecarlo.NLOS_OMISSION_BOUND * P.sigma2
    assert 0.2 * bound < power / (chunk * chunks) < bound
    # the dropped sites are most of the window's, as the speed-up needs
    assert n_dropped > 0.9 * n_sites


def test_window_below_truncation_radius_samples_the_whole_plane():
    # the whole plane is drawn: a 100 m window, below the truncation radius,
    # and a 3.3 km one give the same samples and report
    blocks = dict(THREE_OP.blocks())
    runs = [mw.run_simulation(mw.BlockModel(mw.Window.square(h), blocks), P,
                              SimPlan(replications=300, seed=2)) for h in (100.0, 3300.0)]
    assert runs[0].sinr.shape == (300,)
    assert runs[0].sinr.tobytes() == runs[1].sinr.tobytes()
    assert runs[0].report.to_text() == runs[1].report.to_text()


def test_far_field_does_not_depend_on_the_window_size():
    # far LOS candidates are drawn by distance: the same expected number in a
    # 100 m window and in a 20 km one
    fields = [montecarlo._PoissonField.build(SPEC.to_block_model(mw.Window.square(h)), P, 1)
              for h in (100.0, 20000.0)]
    assert fields[0].sites() == fields[1].sites()
    assert fields[0].far_means.sum() == pytest.approx(0.38, abs=0.02)


def test_far_sites_are_los_beyond_the_disc_and_follow_their_radial_law():
    field = montecarlo._PoissonField.build(SPEC, P, 1)
    # the same stream without far sites: its segments are the near sites
    near_only = dataclasses.replace(field, far_means=np.zeros_like(field.far_means))
    n = 20000
    d, los, _, starts, _ = field.draw(n, np.random.default_rng(43))
    near_d, _, _, near_starts, _ = near_only.draw(n, np.random.default_rng(43))
    sizes = np.diff(starts, append=d.size)
    rank = np.arange(d.size) - np.repeat(starts, sizes)
    far = rank >= np.repeat(np.diff(near_starts, append=near_d.size), sizes)
    assert np.array_equal(d[~far], near_d)
    assert np.all(los[far])
    assert np.all(d[far] > field.radius)
    mean = n * field.far_means.sum()
    assert abs(far.sum() - mean) <= 5.0 * math.sqrt(mean)
    # sites in distance bands, the last one unbounded: the integral of the
    # radial intensity 2*pi*r*lam*exp(-beta*r), nothing clipped
    lam, beta = sum(lam for _, lam in SPEC.blocks()), P.beta_per_m
    edges = np.array([field.radius, 650.0, 700.0, 750.0, 800.0, 850.0, 1000.0])
    beyond = n * 2.0 * math.pi * lam * np.exp(-beta * edges) * (edges / beta + 1.0 / beta**2)
    want = beyond - np.append(beyond[1:], 0.0)
    got = np.bincount(np.searchsorted(edges, d[far], side="right") - 1, minlength=edges.size)
    assert want.sum() == pytest.approx(mean, rel=1e-12)
    assert want.sum() > 3000.0 and want[-1] > 100.0
    assert np.all(np.abs(got - want) <= 5.0 * np.sqrt(want))


def test_nlos_mean_power_matches_sampled_fades_and_gains():
    rng = np.random.default_rng(29)
    nlos = np.zeros(10**6, dtype=bool)
    for params in (P, mw.params_from_dict({"fading": dataclasses.asdict(NAK)}, base=P)):
        power = (P.c_nlos * mw.channel._sample_fading_mask(params.fading, nlos, rng)
                 * mw.channel.sample_gain(params, rng, nlos.size))
        assert power.mean() == pytest.approx(montecarlo._nlos_mean_power(params), rel=0.03)


def _near_and_far_deployment():
    # a home site 200 m out; a home site 2 km out and operator-2 sites at 1.5 km
    xy = [[200.0, 0.0], [0.0, 2000.0], [1500.0, 0.0], [-1500.0, 0.0], [0.0, -1500.0]]
    return mw.Deployment(mw.Window.square(2500.0), np.array(xy),
                         np.array([1, 1, 2, 2, 2], dtype=np.uint16))


def test_far_los_home_site_serves_when_it_beats_every_near_site():
    params = dataclasses.replace(P, beta_per_m=1e-3)
    field = montecarlo._DeploymentField.build(_near_and_far_deployment(), params, 1)
    assert field.near_d.tolist() == [200.0] and field.radius == 200.0
    n = 20000
    d, los, occ, starts, _ = field.draw(n, np.random.default_rng(31))
    _, serving = mw.channel.sinr_batch(d, los, occ, starts, 1, params,
                                       np.random.default_rng(32))
    far = np.flatnonzero(np.arange(d.size) != starts.repeat(np.diff(starts, append=d.size)))
    assert np.all(los[far])
    home_far = far[d[far] == 2000.0]
    near_nlos = ~los[starts]
    rep_of = np.searchsorted(starts, home_far, side="right") - 1
    # a LOS site at 2 km (gain 2.5e-13) beats an NLOS one at 200 m (6.3e-17), not a LOS one
    wins = near_nlos[rep_of]
    assert 300 < wins.sum()
    assert np.array_equal(np.isin(home_far, serving), wins)
    alone = np.setdiff1d(np.arange(n), rep_of)
    assert np.array_equal(serving[alone], starts[alone])
    # at 1 /m no far site can be LOS (exp(-1500) is 0.0): the far set is empty
    opaque = montecarlo._DeploymentField.build(_near_and_far_deployment(),
                                               dataclasses.replace(P, beta_per_m=1.0), 1)
    assert opaque.far_d.size == 0
    assert np.array_equal(opaque.draw(3, np.random.default_rng(1))[3], [0, 1, 2])


def test_deployment_thinning_keeps_far_sites_with_their_los_probability():
    params = dataclasses.replace(P, beta_per_m=0.002)
    dep = mw.couple_two_operators(mw.fid_scenario(40.0 / KM2, 0.5), mw.Window.square(2000.0),
                                  seed=6)
    field = montecarlo._DeploymentField.build(dep, params, 1)
    assert field.far_d.size > 200 and field.p_max < 0.5
    n = 4000
    d, los, occ, starts, _ = field.draw(n, np.random.default_rng(37))
    k = field.near_d.size
    rank = np.arange(d.size) - starts.repeat(np.diff(starts, append=d.size))
    assert np.all(np.diff(starts) >= k)
    far = rank >= k
    assert np.all(los[far])
    order = np.argsort(field.far_d)
    site = order[np.searchsorted(field.far_d[order], d[far])]
    assert np.array_equal(field.far_d[site], d[far])
    kept = np.bincount(site, minlength=field.far_d.size)
    p = np.exp(-params.beta_per_m * field.far_d)
    sd = np.sqrt(n * p * (1.0 - p))
    assert np.all(np.abs(kept - n * p) <= 5.0 * sd + 1.0)
    assert abs(kept.sum() - n * p.sum()) <= 4.0 * np.sqrt(np.sum(n * p * (1.0 - p)))


def test_run_report_states_the_near_radius_and_sites_drawn():
    res = mw.run_simulation(SPEC, P, SimPlan(replications=500, seed=4))
    text = res.report.to_text()
    assert 600.0 < res.report.near_radius_m < 650.0
    assert f"near_radius_m: {res.report.near_radius_m!r}" in text
    assert "omitted mean NLOS interference <= 1e-05 x noise power" in text
    # the near disc holds ~52.0 sites and the far field adds ~0.4
    assert 50.0 < res.report.sites_per_rep < 55.0
    assert f"sites_per_rep: {res.report.sites_per_rep!r}" in text
