"""Whole-package acceptance checks.

Each test prints one ``criterion N (PASS|FAIL): ...`` line before asserting,
so ``pytest -s tests/test_acceptance.py`` reads as a checklist of the
package's headline guarantees: cross-engine agreement, the sharing
trade-off, coupling moments, quadrature accuracy, transform identities,
overlap estimation, rate comparisons, fading robustness, and CLI
determinism.  Every tolerance is pinned here, not derived at runtime.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import mmwshare as mw
from mmwshare.analytic import exclusion_radius, laplace_general
from mmwshare.montecarlo import median_rate_from_samples, rate_curve_from_samples

from _two_op_oracle import laplace_two_op, laplace_two_op_factors

KM2 = 1e6
P = mw.PRESETS["paper-sec5"]
LAM0 = 30.0 / KM2
GRID_DB = np.arange(-10.0, 31.0)
RHOS = (0.0, 0.4, 1.0)
IDX_LO = int(np.flatnonzero(GRID_DB == -10.0)[0])
IDX_HI = int(np.flatnonzero(GRID_DB == 20.0)[0])


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({'PASS' if ok else 'FAIL'}): {detail}")


@pytest.fixture(scope="module")
def fid_runs():
    """Analytic and 20000-replication empirical SINR curves, FID sharing."""
    runs = {}
    for i, rho in enumerate(RHOS):
        spec = mw.fid_scenario(LAM0, rho)
        curve = mw.sinr_coverage(spec, P, GRID_DB)
        plan = mw.SimPlan(replications=20000, seed=(101, i), thresholds_db=GRID_DB)
        runs[rho] = (curve, mw.run_simulation(spec, P, plan))
    return runs


def test_analytic_matches_simulation(fid_runs):
    worst = 0.0
    for rho in RHOS:
        curve, result = fid_runs[rho]
        gap = np.abs(curve.probabilities - result.curve.probabilities)
        worst = max(worst, float(gap.max()))
    ok = worst <= 0.02
    _report(1, ok, f"max |analytic - empirical| coverage = {worst:.4f} over "
                   f"T in [-10, 30] dB, rho in {{0, 0.4, 1}} (tol 0.02)")
    assert ok


def test_sharing_helps_low_thresholds_and_hurts_high(fid_runs):
    an0, r0 = fid_runs[0.0]
    an1, r1 = fid_runs[1.0]
    emp0, emp1 = r0.curve, r1.curve
    # combined uncertainty of a difference of two independent estimates
    ci_lo = float(np.hypot(emp0.ci_halfwidth[IDX_LO], emp1.ci_halfwidth[IDX_LO]))
    ci_hi = float(np.hypot(emp0.ci_halfwidth[IDX_HI], emp1.ci_halfwidth[IDX_HI]))
    gain_an_lo = float(an1.probabilities[IDX_LO] - an0.probabilities[IDX_LO])
    gain_emp_lo = float(emp1.probabilities[IDX_LO] - emp0.probabilities[IDX_LO])
    loss_an_hi = float(an0.probabilities[IDX_HI] - an1.probabilities[IDX_HI])
    loss_emp_hi = float(emp0.probabilities[IDX_HI] - emp1.probabilities[IDX_HI])
    ok = (gain_an_lo >= 2 * ci_lo and gain_emp_lo >= 2 * ci_lo
          and loss_an_hi >= 2 * ci_hi and loss_emp_hi >= 2 * ci_hi)
    _report(2, ok, "full sharing raises coverage at -10 dB and lowers it at 20 dB: "
                   f"gains {gain_an_lo:+.4f} (analytic) / {gain_emp_lo:+.4f} (empirical) "
                   f"vs 2xCI {2 * ci_lo:.4f}; losses {loss_an_hi:+.4f} / {loss_emp_hi:+.4f} "
                   f"vs 2xCI {2 * ci_hi:.4f}")
    assert ok


def test_coupling_first_and_second_moments():
    lam, a, b = 100.0 / KM2, 0.7, 0.2
    spec = mw.TwoOpSpec(lam, a, b)
    win = mw.Window(0.0, 10000.0, 0.0, 10000.0)
    box_a = (0.0, 6000.0, 0.0, 5000.0)
    box_b = (3000.0, 10000.0, 2000.0, 9000.0)
    reps = 1000
    children = np.random.SeedSequence(20260814).spawn(reps)
    n1 = np.empty(reps)
    n2 = np.empty(reps)
    n12 = np.empty(reps)
    prod = np.empty(reps)
    for k, child in enumerate(children):
        dep = mw.couple_two_operators(spec, win, seed=child)
        has1 = (dep.occupants & 1) != 0
        has2 = (dep.occupants & 2) != 0
        x, y = dep.xy[:, 0], dep.xy[:, 1]
        in_a = (box_a[0] <= x) & (x < box_a[1]) & (box_a[2] <= y) & (y < box_a[3])
        in_b = (box_b[0] <= x) & (x < box_b[1]) & (box_b[2] <= y) & (y < box_b[3])
        n1[k] = np.count_nonzero(has1)
        n2[k] = np.count_nonzero(has2)
        n12[k] = np.count_nonzero(has1 & has2)
        prod[k] = float(np.count_nonzero(has1 & in_a)) * float(np.count_nonzero(has2 & in_b))
    area_a = (box_a[1] - box_a[0]) * (box_a[3] - box_a[2])
    area_b = (box_b[1] - box_b[0]) * (box_b[3] - box_b[2])
    area_ab = 3000.0 * 3000.0  # overlap of the two boxes
    # product moment of counts in overlapping regions: independent part
    # plus the common-site term lambda12 * |A intersect B|
    targets = {
        "lam1": (n1, a * lam * win.area()),
        "lam2": (n2, (1.0 - b) * lam * win.area()),
        "lam12": (n12, (a - b) * lam * win.area()),
        "cross": (prod, a * lam * (1.0 - b) * lam * area_a * area_b + (a - b) * lam * area_ab),
    }
    zs = {}
    for name, (vals, want) in targets.items():
        se = float(vals.std(ddof=1)) / math.sqrt(reps)
        zs[name] = (float(vals.mean()) - want) / se
    ok = all(abs(z) <= 3.0 for z in zs.values())
    _report(3, ok, "coupled-draw moments over 1000 realizations, z-scores "
                   + ", ".join(f"{k} {v:+.2f}" for k, v in zs.items()) + " (|z| <= 3)")
    assert ok


def test_blockage_measures_match_quadrature():
    rng = np.random.default_rng(4242)
    worst_rel = 0.0
    worst_comp = 0.0
    for _ in range(20):
        lam = 10.0 ** rng.uniform(-7.0, -3.5)
        beta = 10.0 ** rng.uniform(-3.5, -1.3)
        r = 10.0 ** rng.uniform(0.0, 4.0)
        ref_l, _ = integrate.quad(lambda t: 2.0 * np.pi * lam * t * np.exp(-beta * t),
                                  0.0, r, epsabs=1e-16, epsrel=1e-13, limit=200)
        ref_n, _ = integrate.quad(lambda t: 2.0 * np.pi * lam * t * (1.0 - np.exp(-beta * t)),
                                  0.0, r, epsabs=1e-16, epsrel=1e-13, limit=200)
        got_l = mw.los_measure(lam, beta, r)
        got_n = mw.nlos_measure(lam, beta, r)
        worst_rel = max(worst_rel, abs(got_l - ref_l) / ref_l, abs(got_n - ref_n) / ref_n)
        total = np.pi * lam * r * r
        worst_comp = max(worst_comp, abs(got_l + got_n - total) / total)
    ok = worst_rel <= 1e-8 and worst_comp <= 1e-12
    _report(4, ok, f"closed-form link-type measures vs adaptive quadrature: "
                   f"rel err {worst_rel:.1e} (tol 1e-8); "
                   f"complementarity {worst_comp:.1e} (tol 1e-12), 20 random draws")
    assert ok


def _laplace_mc(blocks, params, subset, serving_los, r, s, radius, reps, seed):
    """Direct Monte Carlo of E[exp(-s I)] conditioned on the serving link.

    Independent oracle for the transform integrals: per block, Poisson
    point totals over a disk of the given radius are assigned uniformly to
    replications, radii drawn by the inverse-cdf map t = radius*sqrt(u),
    link types thinned by exp(-beta t), and the serving-side exclusion
    applied to blocks hosting operator 1.  Every occupant of a site beams
    independently (unit-mean exponential fade times the two-point gain);
    the serving site's other occupants beam from distance r.  Returns
    (estimate, standard error, truncation bias bound).
    """
    rng = np.random.default_rng(seed)
    beta = params.beta_per_m
    pb = params.main_lobe_prob
    d_other = exclusion_radius(params, r, serving_los)
    lo_los, lo_nlos = (r, d_other) if serving_los else (d_other, r)
    total = np.zeros(reps)
    lam_eff = 0.0
    for block, lam in blocks:
        k = len(block)
        lam_eff += lam * k
        n = rng.poisson(lam * math.pi * radius * radius * reps)
        rep_of = rng.integers(0, reps, n)
        t = radius * np.sqrt(rng.random(n))
        is_los = rng.random(n) < np.exp(-beta * t)
        if 1 in block:
            keep = np.where(is_los, t >= lo_los, t >= lo_nlos)
            t, is_los, rep_of = t[keep], is_los[keep], rep_of[keep]
        path = np.where(is_los, params.c_los * t ** -params.alpha_los,
                        params.c_nlos * t ** -params.alpha_nlos)
        fades = rng.exponential(size=(t.size, k))
        gains = np.where(rng.random((t.size, k)) < pb, params.gain_main, params.gain_side)
        np.add.at(total, rep_of, path * (fades * gains).sum(axis=1))
    extra = len(subset) - 1
    if extra:
        c_srv = params.c_los if serving_los else params.c_nlos
        al_srv = params.alpha_los if serving_los else params.alpha_nlos
        fades = rng.exponential(size=(reps, extra))
        gains = np.where(rng.random((reps, extra)) < pb, params.gain_main, params.gain_side)
        total += c_srv * r ** -al_srv * (fades * gains).sum(axis=1)
    vals = np.exp(-s * total)
    est = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(reps)
    # |E exp(-s I_full) - E exp(-s I_disk)| <= s * E[interference beyond
    # the disk], bounded per link type with the mean beam gain
    gbar = pb * params.gain_main + (1.0 - pb) * params.gain_side
    tail_los = params.c_los * radius ** (1.0 - params.alpha_los) * math.exp(-beta * radius) / beta
    tail_nlos = (params.c_nlos * radius ** (2.0 - params.alpha_nlos)
                 / (params.alpha_nlos - 2.0))
    bias = s * 2.0 * math.pi * lam_eff * gbar * (tail_los + tail_nlos)
    return est, se, bias


def test_interference_transform_identities():
    # (a) the two-operator fast path against the general block form
    rng = np.random.default_rng(555)
    worst_pair = 0.0
    for _ in range(20):
        lam_tot = 10.0 ** rng.uniform(-6.0, -4.0)
        a = rng.uniform(0.3, 1.0)
        b = rng.uniform(0.0, 1.0) * a
        spec = mw.TwoOpSpec(lam_tot, a, b)
        serving_los = bool(rng.integers(0, 2))
        r = 10.0 ** rng.uniform(0.5, 2.8)
        alpha = P.alpha_los if serving_los else P.alpha_nlos
        c = P.c_los if serving_los else P.c_nlos
        big_t = 10.0 ** rng.uniform(-1.0, 1.0)
        s = big_t * r ** alpha / (c * P.gain_main)
        for subset, co in ((mw.OperatorSet.of(1), False), (mw.OperatorSet.of(1, 2), True)):
            fast = laplace_two_op(spec, P, serving_los, r, s, co_located=co)
            general = laplace_general(spec, P, subset, serving_los, r, s)
            worst_pair = max(worst_pair, abs(fast - general) / general)

    # (b) three transform values against the conditioned Monte Carlo oracle
    blocks1 = [(mw.OperatorSet.of(1), 30.0 / KM2)]
    blocks2 = [(mw.OperatorSet.of(1), 10.0 / KM2), (mw.OperatorSet.of(2), 10.0 / KM2),
               (mw.OperatorSet.of(1, 2), 10.0 / KM2)]
    blocks3 = [(mw.OperatorSet.of(1), 15.0 / KM2), (mw.OperatorSet.of(1, 2), 15.0 / KM2)]
    spots = [
        (blocks1, mw.OperatorSet.of(1), True, 80.0, 1.0, 1500.0),
        (blocks2, mw.OperatorSet.of(1, 2), True, 120.0, 1.0, 1500.0),
        (blocks3, mw.OperatorSet.of(1), False, 150.0, 0.5, 2500.0),
    ]
    win = mw.Window.square(5000.0)
    worst_pull = 0.0
    for blocks, subset, serving_los, r, big_t, radius in spots:
        alpha = P.alpha_los if serving_los else P.alpha_nlos
        c = P.c_los if serving_los else P.c_nlos
        s = big_t * r ** alpha / (c * P.gain_main)
        model = mw.BlockModel(win, dict(blocks))
        want = laplace_general(model, P, subset, serving_los, r, s)
        got, se, bias = _laplace_mc(blocks, P, subset, serving_los, r, s,
                                    radius, reps=60000, seed=12345)
        worst_pull = max(worst_pull, abs(want - got) / (3.0 * se + bias))

    # (c) full sharing collapses the two-operator form to a single network:
    # no exclusive competitors, and the shared-tail factors alone must
    # reproduce the transform without co-location
    spec1 = mw.fid_scenario(LAM0, 1.0)
    worst_one = 0.0
    worst_tail = 0.0
    for serving_los in (True, False):
        for r in (50.0, 120.0, 300.0):
            alpha = P.alpha_los if serving_los else P.alpha_nlos
            c = P.c_los if serving_los else P.c_nlos
            s = r ** alpha / (c * P.gain_main)
            f1, f2, f3, f4 = laplace_two_op_factors(spec1, P, serving_los, r, s)
            worst_one = max(worst_one, abs(f1 - 1.0), abs(f3 - 1.0))
            ref = laplace_two_op(spec1, P, serving_los, r, s, co_located=False)
            worst_tail = max(worst_tail, abs(f2 * f4 - ref) / ref)

    ok = worst_pair <= 1e-9 and worst_pull <= 1.0 and worst_one <= 1e-12 and worst_tail <= 1e-12
    _report(5, ok, f"fast two-operator path vs general form: rel err {worst_pair:.1e} "
                   f"(tol 1e-9, 20 draws); conditioned-MC check at 3 operating points: "
                   f"worst |delta|/(3SE+bias) = {worst_pull:.2f} (<= 1); full-sharing "
                   f"collapse: factor dev {worst_one:.1e}, tail product rel {worst_tail:.1e} "
                   f"(tol 1e-12)")
    assert ok


def test_overlap_estimation_ppp_and_clustered():
    win = mw.Window(0.0, 20000.0, 0.0, 20000.0)
    worst_ind = 0.0
    worst_gap = 0.0
    for rho in (0.2, 0.5, 0.8):
        spec = mw.fid_scenario(LAM0, rho)
        assert spec.lambda_shared * win.area() >= 500.0  # enough shared sites
        rep = mw.overlap_report(mw.couple_two_operators(spec, win, seed=3))
        worst_ind = max(worst_ind, abs(rep.rho_indirect - rho))
        worst_gap = max(worst_gap, abs(rep.rho_plateau - rep.rho_indirect))
    # survivor clustering keeps the label overlap intact but correlates
    # the two operators' counts, so the direct estimator must break away
    # from the indirect one
    base = mw.couple_two_operators(mw.fid_scenario(LAM0, 0.5),
                                   mw.Window(0.0, 10000.0, 0.0, 10000.0), seed=1)
    thinned = mw.clustered_thinning(base, 2.0 / KM2, 300.0, seed=101)
    rep_c = mw.overlap_report(thinned)
    gap_c = rep_c.rho_plateau - rep_c.rho_indirect
    ok = (worst_ind <= 0.03 and worst_gap <= 0.05
          and abs(rep_c.rho_indirect - 0.5) <= 0.05 and gap_c > 0.05)
    _report(6, ok, f"independent-thinning fields: max |rho_hat - rho| = {worst_ind:.4f} "
                   f"(tol 0.03), max |direct - indirect| = {worst_gap:.4f} (tol 0.05); "
                   f"clustered field: direct - indirect = {gap_c:+.3f} (must exceed 0.05)")
    assert ok


def test_rate_comparisons_between_sharing_modes():
    reps = 10000
    rates = np.arange(25e6, 500e6 + 1.0, 25e6)
    p100 = mw.params_from_dict({"bandwidth_mhz": 100.0}, base=P)

    def sinr_samples(spec, params, seed_low):
        plan = mw.SimPlan(replications=reps, seed=(301, seed_low))
        return mw.run_simulation(spec, params, plan).sinr

    fid_samples = {rho: sinr_samples(mw.fid_scenario(LAM0, rho), P, 20 + i)
                   for i, rho in enumerate(RHOS)}
    single = mw.TwoOpSpec(LAM0, 1.0, 1.0)  # operator 1 alone at density LAM0
    s200 = sinr_samples(single, P, 30)
    fcd1 = sinr_samples(mw.fcd_scenario(LAM0, 1.0), P, 31)
    s100 = sinr_samples(single, p100, 32)

    # (a) under fixed per-operator density the median rate barely moves
    meds = np.array([median_rate_from_samples(fid_samples[rho], P, LAM0) for rho in RHOS])
    spread = float(np.max(np.abs(meds - meds.mean())) / meds.mean())

    # (b) pooling both operators' sites and spectrum roughly doubles the
    # median rate of one operator on half the band
    ratio = (median_rate_from_samples(fcd1, P, 2.0 * LAM0)
             / median_rate_from_samples(s100, p100, LAM0))

    # (c) at the lowest rate bin a single wide-band operator beats every
    # spectrum-sharing configuration of the same per-operator density
    s200_curve = rate_curve_from_samples(s200, rates, P, LAM0)
    margin_low = min(float(s200_curve.probabilities[0]
                           - rate_curve_from_samples(fid_samples[rho], rates, P, LAM0)
                           .probabilities[0])
                     for rho in RHOS)

    # (d) pooled sites and spectrum dominate the lone half-band operator
    # across the whole rate grid
    fcd1_curve = rate_curve_from_samples(fcd1, rates, P, 2.0 * LAM0)
    s100_curve = rate_curve_from_samples(s100, rates, p100, LAM0)
    min_diff = float(np.min(fcd1_curve.probabilities - s100_curve.probabilities))

    ok = (spread < 0.05 and 1.8 <= ratio <= 2.2 and margin_low > 0.0 and min_diff >= 0.0)
    _report(7, ok, f"fixed-density median-rate spread {spread:.3f} (< 0.05); "
                   f"pooled-vs-half-band median ratio {ratio:.3f} (in [1.8, 2.2]); "
                   f"wide-band margin at 25 Mbps {margin_low:+.4f} (> 0); "
                   f"pooled dominance min gap {min_diff:+.4f} (>= 0)")
    assert ok


def test_rho_ordering_survives_heavier_fading(fid_runs):
    thresholds = np.array([-10.0, 20.0])
    p_nak = dataclasses.replace(P, fading=mw.NAKAGAMI_LOGNORMAL_DEFAULT)
    nak = {}
    for i, rho in enumerate((0.0, 1.0)):
        plan = mw.SimPlan(replications=10000, seed=(301, 40 + i), thresholds_db=thresholds)
        nak[rho] = mw.run_simulation(mw.fid_scenario(LAM0, rho), p_nak, plan).curve.probabilities
    ray0 = fid_runs[0.0][1].curve.probabilities
    ray1 = fid_runs[1.0][1].curve.probabilities
    ray_lo = float(ray1[IDX_LO] - ray0[IDX_LO])
    ray_hi = float(ray0[IDX_HI] - ray1[IDX_HI])
    nak_lo = float(nak[1.0][0] - nak[0.0][0])
    nak_hi = float(nak[0.0][1] - nak[1.0][1])
    ok = ray_lo > 0 and ray_hi > 0 and nak_lo > 0 and nak_hi > 0
    _report(8, ok, "sharing ordering at -10/20 dB unchanged by Nakagami-lognormal "
                   f"fading: gaps {nak_lo:+.4f}/{nak_hi:+.4f} vs Rayleigh "
                   f"{ray_lo:+.4f}/{ray_hi:+.4f} (all > 0)")
    assert ok


def _run_cli(args, cwd):
    # The child must import the same mmwshare as this process, whatever cwd is:
    # a relative PYTHONPATH entry (e.g. ``src``) does not resolve from ``cwd``.
    env = dict(os.environ)
    pkg_root = str(Path(mw.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "mmwshare.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_reruns_are_byte_identical(tmp_path):
    dep = mw.couple_two_operators(mw.TwoOpSpec(40.0 / KM2, 0.75, 0.25),
                                  mw.Window.square(2000.0), seed=9)
    sites = tmp_path / "sites.csv"
    mw.write_deployment_csv(dep, sites)
    jobs = [
        ("analyze", ["analyze", "--fid", "0.4", "--lambda0", "30",
                     "--sinr", "-10:5:30", "--rates", "50:50:300"]),
        ("simulate", ["simulate", "--fid", "0.4", "--lambda0", "30", "--reps", "400",
                      "--seed", "7", "--sinr", "-10:10:30", "--rates", "100:100:300"]),
        ("estimate", ["estimate", "--fid", "0.5", "--lambda0", "30",
                      "--window-km", "5", "--seed", "2"]),
        ("press", ["press", "--deployment", str(sites), "--target-density", "12"]),
        ("compare", ["compare", "--rhos", "1", "--reps", "150",
                     "--rates", "100:100:300", "--seed", "4"]),
    ]
    n_files = 0
    identical = True
    for name, args in jobs:
        outs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"{name}_{tag}"
            out_dir.mkdir()
            _run_cli([*args, "--out", str(out_dir)], cwd=tmp_path)
            outs.append(out_dir)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert names, f"{name} wrote no output files"
        identical &= all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                         for f in names)
        n_files += len(names)
    ok = identical and n_files >= 10
    _report(9, ok, f"re-running all five subcommands reproduced every output "
                   f"byte-for-byte ({n_files} files)")
    assert ok
