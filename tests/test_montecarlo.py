"""Simulation driver: determinism, curve construction, failure modes."""

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
    with pytest.raises(ConfigError):
        SimPlan(max_attempts=0)
    with pytest.raises(ConfigError):
        SimPlan(half_width_m=-5.0)


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
    plan = SimPlan(replications=400, seed=10, thresholds_db=[0.0])
    r1 = mw.run_simulation(SPEC, P, plan)
    r2 = mw.run_simulation(SPEC, P, plan)
    assert np.array_equal(r1.sinr, r2.sinr)
    r3 = mw.run_simulation(SPEC, P, SimPlan(replications=400, seed=11,
                                            thresholds_db=[0.0]))
    assert not np.array_equal(r1.sinr, r3.sinr)


def test_tuple_seeds_give_distinct_streams():
    p1 = SimPlan(replications=200, seed=(5, 0), thresholds_db=[0.0])
    p2 = SimPlan(replications=200, seed=(5, 1), thresholds_db=[0.0])
    r1 = mw.run_simulation(SPEC, P, p1)
    r2 = mw.run_simulation(SPEC, P, p2)
    assert not np.array_equal(r1.sinr, r2.sinr)


def test_worker_count_does_not_change_samples():
    serial = mw.run_simulation(SPEC, P, SimPlan(replications=300, seed=21,
                                                thresholds_db=[0.0], workers=1))
    pooled = mw.run_simulation(SPEC, P, SimPlan(replications=300, seed=21,
                                                thresholds_db=[0.0], workers=3))
    assert np.array_equal(serial.sinr, pooled.sinr)
    assert pooled.report.workers == 3


def test_interference_lowers_sinr():
    base = SimPlan(replications=500, seed=33, thresholds_db=[0.0])
    with_i = mw.run_simulation(SPEC, P, base)
    without = mw.run_simulation(
        SPEC, P, SimPlan(replications=500, seed=33, thresholds_db=[0.0],
                         include_interference=False),
    )
    assert without.sinr.mean() > with_i.sinr.mean()


def test_simulation_on_fixed_deployment():
    win = mw.Window.square(3000.0)
    dep = mw.couple_two_operators(mw.fid_scenario(40.0 / KM2, 0.5), win, seed=4)
    plan = SimPlan(replications=300, seed=1, thresholds_db=[-10.0, 0.0, 10.0])
    res = mw.run_simulation(dep, P, plan)
    assert res.sinr.shape == (300,)
    assert res.curve.kind == "empirical"
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


def test_oversized_window_hits_the_point_budget_before_sampling():
    # ~1e14 expected sites: without the guard this fails on allocation
    model = mw.BlockModel(mw.Window.square(1e9), {mw.OperatorSet.of(1): 30.0 / KM2})
    with pytest.raises(ConfigError, match="sampling budget"):
        mw.run_simulation(model, P, SimPlan(replications=10, workers=2))
    with pytest.raises(ConfigError, match="sampling budget"):
        mw.run_simulation(SPEC, P, SimPlan(replications=10, half_width_m=1e9))


def test_window_below_truncation_radius_is_rejected():
    model = mw.BlockModel(mw.Window.square(100.0), {mw.OperatorSet.of(1): 30.0 / KM2})
    with pytest.raises(ConfigError, match="truncation"):
        mw.run_simulation(model, P, SimPlan(replications=10))
    # the check is an accuracy guard, not a hard capability limit
    res = mw.run_simulation(model, P, SimPlan(replications=10, seed=2,
                                              enforce_radius=False, max_attempts=2000))
    assert res.sinr.shape == (10,)


def test_redraw_budget_exhaustion():
    # ~6e-7 expected sites per draw: no home site will ever appear
    model = mw.BlockModel(mw.Window.square(40.0), {mw.OperatorSet.of(1): 1e-10})
    plan = SimPlan(replications=5, seed=0, max_attempts=5, enforce_radius=False)
    with pytest.raises(NumericalError, match="redraws"):
        mw.run_simulation(model, P, plan)


def test_run_report_round_trips_settings():
    plan = SimPlan(replications=50, seed=(9, 9), thresholds_db=[0.0])
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
CROWDED = mw.BlockModel(mw.Window.square(100.0), {mw.OperatorSet.of(1): 30.0 / KM2})


def _fixed_deployment():
    return mw.couple_two_operators(mw.fid_scenario(40.0 / KM2, 0.5), mw.Window.square(3000.0),
                                   seed=4)


@pytest.fixture
def many_cpus(monkeypatch):
    # pool sizes are capped at the CPU count; pretend there are enough CPUs
    # that three workers really split the batches three ways
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


@pytest.mark.parametrize("scenario, fading", [
    (SPEC, None), (THREE_OP, NAK), (_fixed_deployment(), None),
], ids=["two-op", "three-op-nakagami", "deployment"])
def test_samples_do_not_depend_on_workers(many_cpus, scenario, fading):
    runs = [mw.run_simulation(scenario, P, SimPlan(replications=250, seed=(8, 1), fading=fading,
                                                   thresholds_db=[0.0], workers=w))
            for w in (1, 2, 3)]
    assert pool_size(3, 250) == 3
    for res in runs[1:]:
        assert np.array_equal(res.sinr, runs[0].sinr)
    assert runs[0].sinr.shape == (250,) and np.all(np.isfinite(runs[0].sinr))


def test_frequent_redraws_are_deterministic(many_cpus):
    def run(workers):
        plan = SimPlan(replications=400, seed=3, thresholds_db=[0.0], workers=workers,
                       enforce_radius=False)
        return mw.run_simulation(CROWDED, P, plan)

    first, again, pooled = run(1), run(1), run(2)
    # ~1.2 expected home sites per draw: about 30% of draws come up empty
    assert 50 < first.report.redraws < 400
    for other in (again, pooled):
        assert np.array_equal(other.sinr, first.sinr)
        assert other.report.redraws == first.report.redraws


def test_batch_of_mostly_empty_draws_fills_every_sample():
    # ~0.12 expected home sites per draw, and all 300 replications in one batch
    sparse = mw.BlockModel(mw.Window.square(100.0), {mw.OperatorSet.of(1): 3.0 / KM2})
    assert montecarlo._SITES_PER_BATCH >= 300
    res = mw.run_simulation(sparse, P, SimPlan(replications=300, seed=5, thresholds_db=[0.0],
                                               enforce_radius=False, max_attempts=1000))
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

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(mw.analytic, "ProcessPoolExecutor", no_pool)
    res = mw.run_simulation(SPEC, P, SimPlan(replications=50, seed=1, thresholds_db=[0.0],
                                             workers=5000))
    assert res.report.workers == 5000
    serial = mw.run_simulation(SPEC, P, SimPlan(replications=50, seed=1, thresholds_db=[0.0]))
    assert np.array_equal(res.sinr, serial.sinr)
    mw.sinr_coverage(SPEC, P, [0.0, 10.0], workers=5000)
