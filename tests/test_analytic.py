"""Analytic engine: measures, quadrature, Laplace transforms, curves."""

import concurrent.futures
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import mmwshare as mw
from mmwshare import ConfigError, DataError, NumericalError, analytic
from mmwshare.analytic import (
    _brentq,
    adaptive_gk21,
    association_pdf,
    nlos_measure,
    truncation_radius,
)

from _two_op_oracle import laplace_two_op, laplace_two_op_factors

KM2 = 1e6
P = mw.PRESETS["paper-sec5"]


# ---------------------------------------------------------------------------
# Closed-form measures


def test_los_measure_matches_quadrature():
    # Oracle: direct numerical integration of 2*pi*lam*t*exp(-beta*t)
    for lam, beta, r in [(30.0 / KM2, 0.007, 150.0), (5.0 / KM2, 0.002, 800.0)]:
        want, _ = integrate.quad(lambda t: 2 * np.pi * lam * t * np.exp(-beta * t), 0, r)
        assert mw.los_measure(lam, beta, r) == pytest.approx(want, rel=1e-10)


def test_nlos_measure_matches_quadrature():
    for lam, beta, r in [(30.0 / KM2, 0.007, 150.0), (5.0 / KM2, 0.002, 800.0)]:
        want, _ = integrate.quad(
            lambda t: 2 * np.pi * lam * t * (1 - np.exp(-beta * t)), 0, r
        )
        assert nlos_measure(lam, beta, r) == pytest.approx(want, rel=1e-10)


@given(
    lam=st.floats(1e-7, 1e-3),
    beta=st.floats(1e-4, 0.05),
    r=st.floats(0.1, 5e4),
)
def test_measures_complement_to_disk_mean(lam, beta, r):
    total = mw.los_measure(lam, beta, r) + nlos_measure(lam, beta, r)
    assert total == pytest.approx(math.pi * lam * r * r, rel=1e-12)


def test_los_measure_matches_scipy_gammainc():
    from scipy import special

    lam, beta = 30.0 / KM2, 0.007
    x = np.logspace(-10, 3, 4001)  # beta * r, across the series/closed-form switch at 1
    want = (2 * np.pi * lam / beta**2) * special.gammainc(2.0, x)
    np.testing.assert_allclose(mw.los_measure(lam, beta, x / beta), want, rtol=1e-13, atol=0)
    assert mw.los_measure(lam, beta, np.inf) == 2 * np.pi * lam / beta**2


def test_measures_vectorize_and_validate():
    vals = mw.los_measure(1e-5, 0.007, np.array([0.0, 10.0, 100.0]))
    assert vals.shape == (3,)
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ConfigError):
        mw.los_measure(1e-5, 0.007, -1.0)


def test_exclusion_radius_solves_path_loss_equality():
    for r in (5.0, 100.0, 950.0):
        d = mw.exclusion_radius(P, r, serving_los=True)
        assert P.c_nlos * d**-P.alpha_nlos == pytest.approx(
            P.c_los * r**-P.alpha_los, rel=1e-12
        )
        d = mw.exclusion_radius(P, r, serving_los=False)
        assert P.c_los * d**-P.alpha_los == pytest.approx(
            P.c_nlos * r**-P.alpha_nlos, rel=1e-12
        )
    # spot value for the reference preset: (0.1 * 100^2)^(1/4)
    assert mw.exclusion_radius(P, 100.0, True) == pytest.approx(1000.0**0.25, rel=1e-12)
    # a link-type array broadcasts against r and gives the scalar calls' values exactly
    r = np.geomspace(0.3, 3000.0, 13)[:, None]
    los = np.array([True, False, True])
    got = mw.exclusion_radius(P, r, los)
    assert got.shape == (13, 3)
    assert got.tolist() == [[mw.exclusion_radius(P, float(ri), bool(li)) for li in los]
                            for ri in r[:, 0]]


def test_interference_kernel_matches_quadrature():
    # Oracle: integrate exp(-s*x(t)*g*h)*exp(-h) dh over the fade density,
    # mixed over the two-point beam gain law
    s, t = 3.0e8, 140.0
    for los in (True, False):
        c = P.c_los if los else P.c_nlos
        al = P.alpha_los if los else P.alpha_nlos
        x = s * c * t**-al

        def integrand(h, g):
            return math.exp(-x * g * h) * math.exp(-h)

        want = 0.0
        p = P.main_lobe_prob
        for g, pr in ((P.gain_main, p), (P.gain_side, 1.0 - p)):
            part, _ = integrate.quad(integrand, 0, np.inf, args=(g,))
            want += pr * part
        assert mw.interference_kernel(P, s, t, los) == pytest.approx(want, rel=1e-9)
    # a link-type array broadcasts against s and t and gives the scalar calls' values exactly
    s, t = np.geomspace(1e3, 1e12, 9)[:, None], np.geomspace(2.0, 4000.0, 4)
    los = np.array([True, False, False, True])
    got = mw.interference_kernel(P, s, t, los)
    assert got.shape == (9, 4)
    assert got.tolist() == [[mw.interference_kernel(P, float(si), float(ti), bool(li))
                             for ti, li in zip(t, los)] for si in s[:, 0]]


def test_interference_kernel_limits():
    assert mw.interference_kernel(P, 0.0, 50.0, True) == pytest.approx(1.0)
    # s -> inf drives the kernel to 0; far interferers barely attenuate
    assert mw.interference_kernel(P, 1e30, 50.0, True) < 1e-6
    assert mw.interference_kernel(P, 1.0, 1e9, True) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Adaptive quadrature


def _per_component(f):
    """Adapt an integrand mapping (n,) abscissae to (n, k) values to the
    adaptive_gk21 convention: (m, 21) abscissae plus each row's component."""
    def g(x, comp):
        vals = f(x.ravel())
        return vals[np.arange(x.size), np.repeat(comp, x.shape[1])].reshape(x.shape)
    return g


def test_adaptive_gk21_known_integrals():
    def f(x):
        return np.stack([np.sin(x), np.exp(x), 1.0 / (1.0 + x * x)], axis=-1)

    got = adaptive_gk21(_per_component(f), 0.0, 3.0, 3, epsabs=1e-13, epsrel=1e-12)
    want = np.array([1.0 - math.cos(3.0), math.exp(3.0) - 1.0, math.atan(3.0)])
    assert np.allclose(got, want, rtol=1e-12, atol=1e-13)


def test_adaptive_gk21_resolves_narrow_peak():
    # width 0.02 peak: visible to the first panel but needs bisection
    x0 = 0.37171234
    w = 0.02

    def f(x):
        return (np.exp(-((x - x0) / w) ** 2))[:, None]

    got = adaptive_gk21(_per_component(f), 0.0, 1.0, 1, epsabs=1e-14, epsrel=1e-10)
    want = w * math.sqrt(math.pi)  # both tails are > 18 widths away
    assert got[0] == pytest.approx(want, rel=1e-9)


def test_adaptive_gk21_panel_budget_error():
    def f(x):
        return np.abs(x - 1.0 / 3.0)[:, None] ** -0.9

    with pytest.raises(NumericalError):
        adaptive_gk21(_per_component(f), 0.0, 1.0, 1, epsabs=1e-14, epsrel=1e-12,
                      max_panels=4)


def _easy_and_peak(x):
    # component 0 converges on one panel; component 1 is the narrow peak
    return np.stack([np.sin(x), np.exp(-((x - 0.37171234) / 0.02) ** 2)], axis=-1)


def test_adaptive_gk21_component_ignores_its_batch():
    def sin_only(x):
        return np.sin(x)[:, None]

    kw = dict(epsabs=1e-14, epsrel=1e-10)
    alone = adaptive_gk21(_per_component(sin_only), 0.0, 1.0, 1, **kw)
    batched = adaptive_gk21(_per_component(_easy_and_peak), 0.0, 1.0, 2, **kw)
    peak_alone = adaptive_gk21(
        _per_component(lambda x: _easy_and_peak(x)[:, 1:]), 0.0, 1.0, 1, **kw)
    assert batched[0] == alone[0]
    assert batched[1] == peak_alone[0]


def test_adaptive_gk21_budget_error_names_only_the_spent_component():
    def f(x):
        return np.stack([np.sin(x), np.abs(x - 1.0 / 3.0) ** -0.9], axis=-1)

    with pytest.raises(NumericalError, match=r"component\(s\) \[1\] of 2"):
        adaptive_gk21(_per_component(f), 0.0, 1.0, 2, epsabs=1e-14, epsrel=1e-12,
                      max_panels=4)


def test_gk21_panel_does_not_depend_on_its_batch():
    # a BLAS matrix-vector product in the row sums would round a row by its batch
    rng = np.random.default_rng(7)
    n = 2 * analytic._PANELS_PER_CALL + 37
    lo = rng.uniform(0.0, 5.0, n)
    hi = lo + rng.uniform(0.01, 2.0, n)
    scale = rng.uniform(0.5, 20.0, n)

    def f(x, k):  # plain arithmetic, rounded the same in any batch
        return 1.0 / (1.0 + (scale[k][:, None] * x) ** 2) + x**3

    val, err = analytic._gk21(f, lo, hi, np.arange(n))
    for j in range(n):
        one_val, one_err = analytic._gk21(f, lo[j:j + 1], hi[j:j + 1], np.array([j]))
        assert (one_val[0], one_err[0]) == (val[j], err[j])


# ---------------------------------------------------------------------------
# Association distribution


def test_association_pdf_total_probability_single_operator():
    # the user always associates with someone: LOS + NLOS masses sum to 1
    scen = mw.BlockModel(mw.Window.square(1.0), {mw.OperatorSet.of(1): 30.0 / KM2})
    r_max = truncation_radius(30.0 / KM2, P, tail_mass=1e-10)
    total = 0.0
    for los in (True, False):
        mass, _ = integrate.quad(
            lambda r: association_pdf(scen, P, mw.OperatorSet.of(1), los, r),
            1e-6, r_max, limit=200,
        )
        total += mass
    assert total == pytest.approx(1.0, abs=1e-7)


def test_association_pdf_total_probability_two_operators():
    spec = mw.fid_scenario(30.0 / KM2, 0.4)
    r_max = truncation_radius(spec.lambda_op1, P, tail_mass=1e-10)
    total = 0.0
    for subset in (mw.OperatorSet.of(1), mw.OperatorSet.of(1, 2)):
        for los in (True, False):
            mass, _ = integrate.quad(
                lambda r: association_pdf(spec, P, subset, los, r),
                1e-6, r_max, limit=200,
            )
            total += mass
    assert total == pytest.approx(1.0, abs=1e-7)


def test_association_pdf_validation():
    spec = mw.fid_scenario(30.0 / KM2, 0.4)
    with pytest.raises(ConfigError):
        association_pdf(spec, P, mw.OperatorSet.of(2), True, 100.0)  # home is 1
    with pytest.raises(ConfigError):
        association_pdf(spec, P, mw.OperatorSet.of(1), True, 0.0)


def test_engine_entry_points_reject_a_deployment():
    dep = mw.couple_two_operators(mw.fid_scenario(30.0 / KM2, 0.4), mw.Window.square(2000.0), 1)
    one = mw.OperatorSet.of(1)
    calls = [
        lambda: mw.sinr_coverage(dep, P, [0.0, 10.0]),
        lambda: mw.rate_coverage(dep, P, [1e8, 2e8]),
        lambda: mw.median_rate(dep, P),
        lambda: association_pdf(dep, P, one, True, 100.0),
        lambda: mw.laplace_general(dep, P, one, True, 100.0, 1e8),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="BlockModel or TwoOpSpec"):
            call()


def test_truncation_radius_bounds_association_tail():
    lam = 30.0 / KM2
    r_max = truncation_radius(lam, P, tail_mass=1e-8)
    scen = mw.BlockModel(mw.Window.square(1.0), {mw.OperatorSet.of(1): lam})
    tail = 0.0
    for los in (True, False):
        mass, _ = integrate.quad(
            lambda r: association_pdf(scen, P, mw.OperatorSet.of(1), los, r),
            r_max, 10.0 * r_max, limit=200,
        )
        tail += mass
    assert tail < 1e-8
    with pytest.raises(ConfigError):
        truncation_radius(0.0, P)
    with pytest.raises(ConfigError):
        truncation_radius(lam, P, tail_mass=2.0)


# ---------------------------------------------------------------------------
# Laplace transforms


def test_laplace_is_one_at_s_zero():
    spec = mw.fid_scenario(30.0 / KM2, 0.4)
    assert laplace_two_op(spec, P, True, 100.0, 0.0, co_located=False) == 1.0
    assert mw.laplace_general(spec, P, mw.OperatorSet.of(1), True, 100.0, 0.0) == 1.0


def test_laplace_decreases_in_s():
    spec = mw.fid_scenario(30.0 / KM2, 0.4)
    vals = [laplace_two_op(spec, P, True, 100.0, s, co_located=False)
            for s in (0.0, 1e7, 1e8, 1e9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals[1:])


def test_two_op_fast_path_equals_general_decomposition():
    spec = mw.TwoOpSpec(45.0 / KM2, 0.8, 0.3)
    for serving_los, r, s in [(True, 90.0, 2.0e8), (False, 160.0, 5.0e12)]:
        shared = laplace_two_op(spec, P, serving_los, r, s, co_located=True)
        general = mw.laplace_general(spec, P, mw.OperatorSet.of(1, 2), serving_los, r, s)
        assert shared == pytest.approx(general, rel=1e-10)
        solo = laplace_two_op(spec, P, serving_los, r, s, co_located=False)
        general1 = mw.laplace_general(spec, P, mw.OperatorSet.of(1), serving_los, r, s)
        assert solo == pytest.approx(general1, rel=1e-10)


def test_laplace_factors_multiply_to_transform():
    spec = mw.TwoOpSpec(45.0 / KM2, 0.8, 0.3)
    f = laplace_two_op_factors(spec, P, True, 110.0, 3.0e8)
    val = laplace_two_op(spec, P, True, 110.0, 3.0e8, co_located=False)
    assert len(f) == 4
    assert float(np.prod(f)) == pytest.approx(val, rel=1e-12)


def test_polynomial_segment_equals_its_block_classes():
    # classes of 1, 2 and 3 occupants; row c holds 2*pi*lam_c on its c + 1 coefficients
    one_class = np.tril(np.ones((3, 3))) * 2 * np.pi * np.array([[10.0], [20.0], [5.0]]) / KM2
    # SINR thresholds 1e-3..1e3 on a 100 m LOS serving link
    s = (np.logspace(-3, 3, 13) * 100.0**2 / (P.c_los * P.gain_main))[:, None, None]
    los, lower = np.array([True, False]), np.array([[0.0], [80.0]])
    merged = analytic._exponent_each(analytic._Segments(one_class.sum(axis=0), los, lower),
                                     P, s, 1e-11, 1e-9)
    each = analytic._exponent_each(analytic._Segments(one_class[:, None, None, None], los, lower),
                                   P, s, 1e-11, 1e-9)
    assert merged.shape == (13, 2, 2) and np.all(merged > 0)
    # each integral drops a tail of at most epsabs/10: 3e-12 for the three classes
    assert np.allclose(merged, each.sum(axis=0), rtol=1e-10, atol=3e-12)


def test_polynomial_is_one_minus_kernel_power_to_machine_precision():
    x = np.logspace(-12, 6, 400)  # kernel argument s*c*t^(-alpha)
    xm, xs, pb = x * P.gain_main, x * P.gain_side, P.main_lobe_prob
    y = pb * xm / (1.0 + xm) + (1.0 - pb) * xs / (1.0 + xs)
    for k in range(1, mw.core.MAX_OPERATORS + 1):
        want = -np.expm1(k * np.log1p(-y))
        assert np.allclose(analytic._times_poly(y, np.ones(k)), want, rtol=1e-14, atol=0.0)


def _count_outer_panels(monkeypatch):
    """The component array of every outer _gk21 call, in call order; the
    outer integral is the first adaptive_gk21 call of a coverage run."""
    outer, integrands = [], []
    quad, gk21 = analytic.adaptive_gk21, analytic._gk21

    def counted_quad(f, a, b, n, **kw):
        integrands.append(f)
        return quad(f, a, b, n, **kw)

    def counted_gk21(f, lo, hi, comp):
        if f is integrands[0]:
            outer.append(comp)
        return gk21(f, lo, hi, comp)

    monkeypatch.setattr(analytic, "adaptive_gk21", counted_quad)
    monkeypatch.setattr(analytic, "_gk21", counted_gk21)
    return outer


def test_coverage_integrates_four_segments_per_serving_node(monkeypatch):
    # one polynomial per (home or other classes) x (LOS, NLOS), not one segment per class
    components, nodes = [], []
    outer = _count_outer_panels(monkeypatch)
    quad, segments = analytic.adaptive_gk21, analytic._segments_general

    def counted_quad(f, a, b, n, **kw):
        components.append(n)
        return quad(f, a, b, n, **kw)

    def counted_segments(classes, params, r, serving_los):
        nodes.append(np.size(r))
        return segments(classes, params, r, serving_los)

    monkeypatch.setattr(analytic, "adaptive_gk21", counted_quad)
    monkeypatch.setattr(analytic, "_segments_general", counted_segments)
    # -20 dB still bisects after the first round, so later rounds are checked too
    analytic._coverage_linear(_three_op_model(), P,
                              10.0 ** (np.array([-20.0, 8.8, 20.0]) / 10.0))
    assert components[0] == 3  # the outer integral, one component per threshold
    # it starts with one panel per decade of r above the map's knee
    assert np.array_equal(outer[0], np.repeat(np.arange(3), 4)) and len(outer) > 1
    assert components[1:] == [4 * m for m in nodes]


def test_one_three_operator_threshold_takes_one_outer_round(monkeypatch):
    # one panel per decade of r converges at once near the median's SINR
    outer = _count_outer_panels(monkeypatch)
    analytic._coverage_linear(_three_op_model(), P, np.array([8.8]))
    assert len(outer) == 1


def test_coverage_matches_a_tight_solve():
    # both integration levels to epsabs 1e-11: what is left is the outer
    # quadrature's own error, against its 1e-7 target
    quad = analytic.adaptive_gk21

    def tight(f, a, b, n, **kw):
        return quad(f, a, b, n, **{**kw, "epsabs": 1e-11, "epsrel": 1e-9, "max_panels": 2000})

    thresholds = 10.0 ** (np.array([-10.0, 0.0, 10.0, 30.0]) / 10.0)
    for scenario in (mw.fid_scenario(30.0 / KM2, 0.4), _three_op_model()):
        got = analytic._coverage_linear(scenario, P, thresholds)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analytic, "adaptive_gk21", tight)
            want = analytic._coverage_linear(scenario, P, thresholds)
        assert np.max(np.abs(got - want)) <= 1e-8


def test_laplace_general_validation():
    spec = mw.fid_scenario(30.0 / KM2, 0.4)
    with pytest.raises(ConfigError):
        mw.laplace_general(spec, P, mw.OperatorSet.of(2), True, 100.0, 1e8)
    with pytest.raises(ConfigError):
        mw.laplace_general(spec, P, mw.OperatorSet.of(1), True, -5.0, 1e8)
    with pytest.raises(ConfigError):
        mw.laplace_general(spec, P, mw.OperatorSet.of(1), True, 100.0, -1.0)


def test_laplace_conditioned_on_los_serving_beats_nlos():
    # serving NLOS at the same distance implies a denser visible LOS field
    spec = mw.fid_scenario(30.0 / KM2, 0.4)
    s = 1.0e8
    l_los = laplace_two_op(spec, P, True, 120.0, s, co_located=False)
    assert 0.0 < l_los < 1.0


# ---------------------------------------------------------------------------
# Coverage curves


def test_sinr_coverage_no_interference_matches_quadrature():
    # Oracle: P(SNR > T) = sum_tau int f_tau(r) exp(-T sigma^2 r^alpha/(c G)) dr
    scen = mw.BlockModel(mw.Window.square(1.0), {mw.OperatorSet.of(1): 30.0 / KM2})
    t_lin = 10.0  # 10 dB
    r_max = truncation_radius(30.0 / KM2, P, tail_mass=1e-10)
    want = 0.0
    for los in (True, False):
        c = P.c_los if los else P.c_nlos
        al = P.alpha_los if los else P.alpha_nlos

        def f(r):
            snr_term = math.exp(-t_lin * P.sigma2 * r**al / (c * P.gain_main))
            return association_pdf(scen, P, mw.OperatorSet.of(1), los, r) * snr_term

        mass, _ = integrate.quad(f, 1e-6, r_max, limit=200)
        want += mass
    curve = mw.sinr_coverage(scen, P, [10.0], include_interference=False)
    assert curve.probabilities[0] == pytest.approx(want, abs=1e-6)


def test_sinr_coverage_finds_mass_far_below_truncation_radius():
    # At 40 and 60 dB the coverage mass sits within meters of the user,
    # three decades below r_max.  Oracle: quad between decade breakpoints of
    # association density x noise factor x interference transform.
    spec = mw.fcd_scenario(1000.0 / KM2, 0.0)
    home = mw.OperatorSet.of(1)
    r_max = truncation_radius(spec.lambda_op1, P)
    for t_db in (40.0, 60.0):
        t_lin = 10.0 ** (t_db / 10.0)
        want = 0.0
        for los in (True, False):
            c, al = (P.c_los, P.alpha_los) if los else (P.c_nlos, P.alpha_nlos)

            def f(r):
                s = t_lin * r**al / (c * P.gain_main)
                return (association_pdf(spec, P, home, los, r) * math.exp(-P.sigma2 * s)
                        * mw.laplace_general(spec, P, home, los, r, s))

            pts = [1e-6, 0.01, 0.1, 1.0, 10.0, 100.0, r_max]
            want += sum(integrate.quad(f, a, b, epsabs=1e-12, limit=200)[0]
                        for a, b in zip(pts[:-1], pts[1:]))
        got = mw.sinr_coverage(spec, P, [t_db]).probabilities[0]
        assert got == pytest.approx(want, abs=1e-7)  # the outer epsabs


def test_sinr_coverage_curve_shape():
    spec = mw.fid_scenario(30.0 / KM2, 0.4)
    curve = mw.sinr_coverage(spec, P, [-10.0, 0.0, 10.0, 20.0])
    assert curve.kind == "analytic" and curve.unit == "db"
    assert np.all(np.diff(curve.probabilities) <= 0)
    assert 0.0 < curve.probabilities[-1] < curve.probabilities[0] < 1.0


@pytest.mark.filterwarnings("error")
def test_thresholds_the_noise_makes_unreachable_have_coverage_0():
    # at 200 dB and 2e10 bps the noise factor zeroes every node of the outer
    # integral, so no node is left for the interference transform; 1e11 bps
    # needs an SINR past the float range, and infinity is the exact answer
    spec = mw.fid_scenario(30.0 / KM2, 0.4)
    assert mw.sinr_coverage(spec, P, [200.0]).probabilities.tolist() == [0.0]
    assert mw.rate_sinr_threshold(1e11, P, spec.lambda_op1) == math.inf
    assert mw.rate_coverage(spec, P, [2e10, 1e11]).probabilities.tolist() == [0.0, 0.0]


def test_operator_two_coverage_by_symmetry():
    # swapping labels in an asymmetric coupling: op 2's curve equals the
    # curve of the mirrored spec for op 1
    spec = mw.TwoOpSpec(45.0 / KM2, 0.8, 0.3)
    mirrored = mw.TwoOpSpec(45.0 / KM2, 0.7, 0.2)  # a' = 1-b, b' = 1-a
    thr = [0.0]
    c2 = mw.sinr_coverage(spec, P, thr, home_operator=2)
    c1 = mw.sinr_coverage(mirrored, P, thr, home_operator=1)
    assert c2.probabilities[0] == pytest.approx(c1.probabilities[0], rel=1e-9)


def test_analytic_engine_rejects_non_rayleigh():
    spec = mw.fid_scenario(30.0 / KM2, 0.4)
    import dataclasses
    p_nak = dataclasses.replace(P, fading=mw.NAKAGAMI_LOGNORMAL_DEFAULT)
    with pytest.raises(ConfigError):
        mw.sinr_coverage(spec, p_nak, [0.0])


def test_rate_coverage_maps_rate_grid():
    spec = mw.fid_scenario(30.0 / KM2, 0.4)
    curve = mw.rate_coverage(spec, P, [50e6, 100e6])
    assert curve.unit == "bps"
    assert np.all(np.diff(curve.probabilities) <= 0)
    # a rate target of 0 bps is met by everyone
    zero = mw.rate_coverage(spec, P, [0.0])
    assert zero.probabilities[0] == pytest.approx(1.0, abs=1e-9)


def test_coverage_curve_validation():
    with pytest.raises(DataError):
        mw.CoverageCurve(np.array([1.0, 1.0]), np.array([0.5, 0.4]), "db")
    with pytest.raises(DataError):
        mw.CoverageCurve(np.array([1.0]), np.array([0.5, 0.4]), "db")
    with pytest.raises(NumericalError):
        mw.CoverageCurve(np.array([0.0, 1.0]), np.array([0.4, 0.6]), "db")
    with pytest.raises(DataError):
        mw.CoverageCurve(np.array([0.0]), np.array([0.5]), "parsec")
    # the kind follows from the confidence intervals
    assert mw.CoverageCurve(np.array([0.0]), np.array([0.5]), "db").kind == "analytic"
    assert mw.CoverageCurve(np.array([0.0]), np.array([0.5]), "db",
                            ci_halfwidth=np.array([0.01])).kind == "empirical"


def test_coverage_curve_csv_round_trip(tmp_path):
    analytic = mw.CoverageCurve(np.array([-5.0, 0.0, 5.0]),
                                np.array([0.9, 0.7, 0.5]), "db")
    path = tmp_path / "a.csv"
    analytic.to_csv(path)
    back = mw.CoverageCurve.from_csv(path)
    assert back.kind == "analytic" and back.unit == "db"
    assert np.array_equal(back.thresholds, analytic.thresholds)
    assert np.array_equal(back.probabilities, analytic.probabilities)

    empirical = mw.CoverageCurve(np.array([25e6, 50e6]), np.array([0.8, 0.6]), "bps",
                                 ci_halfwidth=np.array([0.01, 0.02]))
    path2 = tmp_path / "e.csv"
    empirical.to_csv(path2)
    back2 = mw.CoverageCurve.from_csv(path2)
    assert back2.kind == "empirical" and back2.unit == "bps"
    assert np.array_equal(back2.ci_halfwidth, empirical.ci_halfwidth)

    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    with pytest.raises(DataError):
        mw.CoverageCurve.from_csv(bad)


GOLDEN = json.loads((Path(__file__).parent / "data" / "analytic_golden.json").read_text())


def _three_op_model():
    return mw.BlockModel(mw.Window.square(3300.0), {
        mw.OperatorSet.of(*map(int, k.split(";"))): v / KM2
        for k, v in GOLDEN["three_op"]["densities_per_km2"].items()})


def test_sinr_coverage_does_not_depend_on_workers(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    pools, executor = [], concurrent.futures.ProcessPoolExecutor

    def counted(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return executor(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    grid = np.linspace(-10.0, 30.0, 12)
    for scenario in (mw.fid_scenario(30.0 / KM2, 0.4), _three_op_model()):
        one, two, three = (mw.sinr_coverage(scenario, P, grid, workers=w).probabilities
                           for w in (1, 2, 3))
        assert np.array_equal(one, two) and np.array_equal(one, three)
    assert pools == [2, 3, 2, 3]  # one worker per 4 thresholds


def test_few_thresholds_start_no_pool(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def no_pool(*args, **kwargs):
        raise AssertionError("2 thresholds must not start a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    mw.sinr_coverage(mw.fid_scenario(30.0 / KM2, 0.4), P, [0.0, 10.0], workers=2)


@pytest.mark.parametrize("name", sorted(GOLDEN["curves"]))
def test_sinr_coverage_matches_golden_curve(name):
    ref = GOLDEN["curves"][name]
    make = mw.fid_scenario if ref["mode"] == "fid" else mw.fcd_scenario
    spec = make(GOLDEN["lambda0_per_km2"] / KM2, ref["rho"])
    got = mw.sinr_coverage(spec, P, GOLDEN["thresholds_db"]).probabilities
    assert np.max(np.abs(got - np.array(ref["probability"]))) <= 1e-6


def test_three_operator_table_matches_golden(tmp_path, monkeypatch):
    ref = GOLDEN["three_op"]
    path = tmp_path / "three_op.json"
    path.write_text(json.dumps({k: ref[k] for k in ("window_m", "densities_per_km2")}))
    model = mw.load_blocks_file(path)
    got = mw.sinr_coverage(model, P, ref["thresholds_db"]).probabilities
    assert np.max(np.abs(got - np.array(ref["probability"]))) <= 1e-6
    # the median root finder evaluates each rate once, the bracket end included
    coverage, thresholds = analytic._coverage_linear, []

    def counted(scenario, params, thresholds_lin, *args, **kwargs):
        thresholds.extend(thresholds_lin.tolist())
        return coverage(scenario, params, thresholds_lin, *args, **kwargs)

    monkeypatch.setattr(analytic, "_coverage_linear", counted)
    med = mw.median_rate(model, P)
    assert abs(med - ref["median_rate_bps"]) <= 1e-6 * ref["median_rate_bps"]
    assert len(thresholds) == len(set(thresholds)) >= 3


def test_blocks_of_one_class_merge_exactly():
    # {2}/{3} and {1,2}/{1,3} interfere alike with operator 1: summing each
    # pair into one block leaves operator 1's coverage unchanged
    split = {mw.OperatorSet.of(*map(int, k.split(";"))): v / KM2
             for k, v in GOLDEN["three_op"]["densities_per_km2"].items()}
    merged = dict(split)
    for keep, fold in (((2,), (3,)), ((1, 2), (1, 3))):
        merged[mw.OperatorSet.of(*keep)] += merged.pop(mw.OperatorSet.of(*fold))
    window = mw.Window.square(3300.0)
    thresholds = 10.0 ** (np.array([-10.0, 0.0, 10.0, 20.0, 30.0]) / 10.0)
    got_split, got_merged = (analytic._coverage_linear(mw.BlockModel(window, d), P, thresholds)
                             for d in (split, merged))
    assert np.max(np.abs(got_split - got_merged)) <= 1e-12


def test_median_rate_halves_the_rate_ccdf():
    spec = mw.fid_scenario(30.0 / KM2, 0.4)
    med = mw.median_rate(spec, P, rtol=1e-4)
    at_median = mw.rate_coverage(spec, P, [med])
    assert at_median.probabilities[0] == pytest.approx(0.5, abs=5e-4)


# ---------------------------------------------------------------------------
# Root finding: a port of SciPy's brentq, with SciPy as the oracle


@pytest.fixture
def brentq_pairs(monkeypatch):
    """Runs every _brentq call twice, as ported and through SciPy; records xtol and both roots."""
    from scipy import optimize

    pairs = []

    def both(f, a, b, xtol, rtol=analytic._BRENT_RTOL, maxiter=100):
        got = _brentq(f, a, b, xtol, rtol, maxiter)
        pairs.append((xtol, got, optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)))
        return got

    monkeypatch.setattr(analytic, "_brentq", both)
    return pairs


def test_truncation_radius_root_is_bitwise_scipy_brentq(brentq_pairs):
    for params in mw.PRESETS.values():
        for lam in np.logspace(-7, -2, 60):
            for tail in (1e-8, 1e-6, 1e-3):
                truncation_radius(float(lam), params, tail)
    assert len(brentq_pairs) >= 100
    assert all(got.hex() == want.hex() for _, got, want in brentq_pairs)


def test_median_rate_root_is_bitwise_scipy_brentq(brentq_pairs):
    for rho in (0.0, 0.4, 1.0):
        mw.median_rate(mw.fid_scenario(30.0 / KM2, rho), P)
    # xtol = 1 bps marks the median roots; the rest are truncation radii within them
    assert sum(xtol == 1.0 for xtol, _, _ in brentq_pairs) == 3
    assert all(got.hex() == want.hex() for _, got, want in brentq_pairs)


def test_brentq_failures_are_numerical_errors():
    with pytest.raises(NumericalError, match="same sign"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
    with pytest.raises(NumericalError, match="NaN"):  # f(0.5), the first interpolated step
        _brentq(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, xtol=1e-12)
    with pytest.raises(NumericalError, match="did not converge"):
        _brentq(lambda x: math.exp(x) - 2.0, 0.0, 1.0, xtol=1e-300, maxiter=2)
