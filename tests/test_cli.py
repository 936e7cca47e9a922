"""Command-line interface: parsers, exit codes, output files."""

import argparse
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import mmwshare as mw
from mmwshare import ConfigError
from mmwshare.cli import build_parser, main, parse_bins, parse_grid, parse_rhos

KM2 = 1e6


def test_parse_grid_inclusive_endpoint():
    assert parse_grid("0:0.5:2", "sinr").tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
    # endpoint off the lattice is dropped
    assert parse_grid("0:0.4:1", "sinr").tolist() == pytest.approx([0.0, 0.4, 0.8])
    assert parse_grid("-10:10:30", "sinr").tolist() == [-10.0, 0.0, 10.0, 20.0, 30.0]
    assert parse_grid("5:1:5", "sinr").tolist() == [5.0]
    assert parse_grid("1:1:10000", "sinr").size == 10000  # at the point cap


def test_parse_grid_rejects_malformed():
    for text in ("1:2", "a:b:c", "0:-1:5", "5:1:0", "1:0:2", "nan:1:5", "0:nan:5",
                 "0:1:inf", "-inf:1:0", "0:1e-9:500", "0:1:10000", "-1e308:1e-300:1e308"):
        with pytest.raises(ConfigError):
            parse_grid(text, "sinr")


def test_malformed_grids_exit_2_before_any_work(tmp_path):
    assert main(["analyze", "--fid", "0.4", "--sinr", "nan:1:5",
                 "--out", str(tmp_path / "an")]) == 2
    assert main(["simulate", "--fid", "0.4", "--reps", "10", "--rates", "0:1e-9:500",
                 "--out", str(tmp_path / "sim")]) == 2
    assert not (tmp_path / "an").exists() and not (tmp_path / "sim").exists()


def test_parse_bins_and_rhos():
    assert parse_bins("4,9,25") == (4, 9, 25)
    with pytest.raises(ConfigError):
        parse_bins("4,nine")
    assert parse_rhos("0,0.4,1") == (0.0, 0.4, 1.0)
    with pytest.raises(ConfigError):
        parse_rhos("0,1.5")
    with pytest.raises(ConfigError):
        parse_rhos("zero")


def test_analyze_writes_curve_and_summary(tmp_path):
    out = tmp_path / "an"
    code = main(["analyze", "--fid", "0.4", "--sinr", "0:10:20",
                 "--out", str(out)])
    assert code == 0
    curve = mw.CoverageCurve.from_csv(out / "sinr_coverage.csv")
    assert curve.kind == "analytic"
    assert curve.thresholds.tolist() == [0.0, 10.0, 20.0]
    assert np.all(np.diff(curve.probabilities) <= 0)
    summary = (out / "summary.txt").read_text()
    assert "engine: analytic" in summary
    assert "fid(rho=0.4" in summary


def test_analyze_accepts_negative_grid_start(tmp_path):
    out = tmp_path / "neg"
    code = main(["analyze", "--fid", "0.4", "--sinr", "-10:15:20",
                 "--out", str(out)])
    assert code == 0
    curve = mw.CoverageCurve.from_csv(out / "sinr_coverage.csv")
    assert curve.thresholds.tolist() == [-10.0, 5.0, 20.0]


def test_scenario_flags_are_mutually_exclusive(tmp_path):
    code = main(["analyze", "--fid", "0.4", "--fcd", "0.2",
                 "--out", str(tmp_path)])
    assert code == 2
    code = main(["analyze", "--out", str(tmp_path)])  # no scenario at all
    assert code == 2
    with pytest.raises(SystemExit) as exc:  # bare, no rho
        main(["analyze", "--fid", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_analyze_params_file_overrides(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"bandwidth_mhz": 100.0}))
    out = tmp_path / "o"
    code = main(["analyze", "--fid", "0", "--sinr", "0:10:10",
                 "--params", str(params), "--out", str(out)])
    assert code == 0
    assert '"bandwidth_mhz": 100.0' in (out / "summary.txt").read_text()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--fid", "0", "--params", str(bad),
                 "--out", str(out)]) == 2
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"bandwidht_mhz": 100.0}))
    assert main(["analyze", "--fid", "0", "--params", str(typo),
                 "--out", str(out)]) == 2


def test_simulate_on_deployment_csv(tmp_path):
    win = mw.Window.square(2500.0)
    dep = mw.couple_two_operators(mw.fid_scenario(40.0 / KM2, 0.5), win, seed=3)
    csv_path = tmp_path / "sites.csv"
    mw.write_deployment_csv(dep, csv_path)
    out = tmp_path / "sim"
    code = main(["simulate", "--deployment", str(csv_path), "--reps", "200",
                 "--seed", "7", "--sinr", "0:10:10", "--rates", "50:50:100",
                 "--out", str(out)])
    assert code == 0
    emp = mw.CoverageCurve.from_csv(out / "sinr_empirical.csv")
    assert emp.kind == "empirical"
    assert emp.ci_halfwidth is not None
    rates = mw.CoverageCurve.from_csv(out / "rate_empirical.csv")
    assert rates.unit == "bps"
    assert "replications: 200" in (out / "run_report.txt").read_text()
    # a fixed deployment keeps its file's window: simulate takes none
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--deployment", str(csv_path), "--window-km", "4", "--out", str(out)])
    assert exc.value.code == 2


def test_window_override_of_a_deployment_exits_2_before_reading_it(tmp_path, capsys):
    # simulate has no --window-km for any source: the parser refuses it
    out = tmp_path / "sim"
    for source in (["--deployment", str(tmp_path / "missing.csv")],
                   ["--blocks", str(tmp_path / "missing.json")], ["--fid", "0.4"]):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *source, "--window-km", "4", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --window-km 4" in capsys.readouterr().err
    assert not out.exists()


def test_fid_and_its_blocks_on_one_window_write_the_same_files(tmp_path):
    # FID rho=0 at 30/km^2 is the blocks {1: 30, 2: 30}/km^2 bit for bit, so
    # both runs draw the same stream and describe it alike; the blocks file's
    # 100 m window, below the truncation radius, is no engine's window
    blocks = tmp_path / "b.json"
    blocks.write_text(json.dumps({"window_m": [-50.0, 50.0, -50.0, 50.0],
                                  "densities_per_km2": {"1": 30.0, "2": 30.0}}))
    runs = {"fid": ["--fid", "0", "--lambda0", "30"], "blocks": ["--blocks", str(blocks)]}
    for name, source in runs.items():
        assert main(["simulate", *source, "--reps", "300", "--seed", "3",
                     "--sinr", "-10:10:30", "--out", str(tmp_path / name)]) == 0
    for name in ("sinr_empirical.csv", "run_report.txt"):
        assert (tmp_path / "fid" / name).read_bytes() == (tmp_path / "blocks" / name).read_bytes()
    report = (tmp_path / "fid" / "run_report.txt").read_text()
    assert report.startswith("scenario: blocks(1:30/km^2, 2:30/km^2)\n")
    assert "half_width_m" not in report


@pytest.mark.filterwarnings("error")
def test_unreachable_thresholds_give_coverage_0_without_a_warning(tmp_path, capsys):
    # the noise alone puts 200 dB and 10 Gbps out of reach of every serving distance
    out = tmp_path / "an"
    assert main(["analyze", "--fid", "0.4", "--sinr", "0:100:200", "--rates", "1e4:1e4:2e4",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    sinr = mw.CoverageCurve.from_csv(out / "sinr_coverage.csv").probabilities
    assert sinr[0] > 0.5 and sinr[2] == 0.0
    assert mw.CoverageCurve.from_csv(out / "rate_coverage.csv").probabilities.tolist() == [0, 0]


@pytest.mark.parametrize("argv, message", [
    # per-m^2 densities typed per km^2 (x1e6): ~1e16 expected sites per replication
    (["simulate", "--fid", "0.4", "--lambda0", "1e9", "--reps", "10"],
     "per replication exceeds the sampling budget"),
    (["simulate", "--blocks", "huge.json", "--reps", "10"],
     "per replication exceeds the sampling budget"),
    (["compare", "--lambda0", "1e9", "--reps", "10"],
     "per replication exceeds the sampling budget"),
    (["analyze", "--fid", "0.4", "--params", "nakagami.json"], "Rayleigh fading only"),
], ids=["simulate-fid", "simulate-blocks", "compare", "analyze"])
def test_engine_refusals_exit_2_without_output(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.json").write_text(json.dumps({
        "window_m": [-3300.0, 3300.0, -3300.0, 3300.0],
        "densities_per_km2": {"1": 3e7, "1;2": 1e7}}))
    (tmp_path / "nakagami.json").write_text(json.dumps({"fading": {
        "kind": "nakagami-lognormal", "nakagami_m_los": 2.0, "nakagami_m_nlos": 3.0,
        "shadow_sigma_db_los": 5.2, "shadow_sigma_db_nlos": 7.6}}))
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_oversized_reps_are_config_errors_before_any_work(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["simulate", "--fid", "0.4", "--reps", str(10**12), "--out", str(out)]) == 2
    assert "replications must lie in" in capsys.readouterr().err
    assert not out.exists()
    assert main(["compare", "--rhos", "1", "--reps", str(10**12), "--out", str(out)]) == 2
    assert not out.exists()


def test_simulate_missing_home_operator_is_data_error(tmp_path):
    csv_path = tmp_path / "op2only.csv"
    csv_path.write_text(
        "site_id,x_m,y_m,operators\n"
        "0,100.0,100.0,2\n"
        "1,-350.0,200.0,2\n"
    )
    out = tmp_path / "sim"
    code = main(["simulate", "--deployment", str(csv_path), "--reps", "10",
                 "--out", str(out)])
    assert code == 3


def test_estimate_synthetic_round_trip(tmp_path):
    out = tmp_path / "est"
    code = main(["estimate", "--fid", "0.5", "--window-km", "8",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    report = (out / "overlap_report.txt").read_text()
    line = next(l for l in report.splitlines() if l.startswith("rho_indirect"))
    assert float(line.split(":")[1]) == pytest.approx(0.5, abs=0.05)
    ladder = (out / "rho_vs_bins.csv").read_text().splitlines()
    assert ladder[0] == "n_bins,rho_direct,rho_smoothed"
    assert len(ladder) > 2
    # synthetic sampling without a window is underspecified
    assert main(["estimate", "--fid", "0.5", "--out", str(out)]) == 2
    assert main(["estimate", "--fid", "0.5", "--window-km", "8",
                 "--bins", "5", "--out", str(out)]) == 2


def test_estimate_merges_near_duplicate_sites(tmp_path):
    csv_path = tmp_path / "dup.csv"
    csv_path.write_text(
        "# window_m,0.0,1000.0,0.0,1000.0\n"
        "site_id,x_m,y_m,operators\n"
        "0,100.0,100.0,1\n"
        "1,102.0,100.0,2\n"
        "2,500.0,500.0,1\n"
    )
    out = tmp_path / "est"
    code = main(["estimate", "--deployment", str(csv_path), "--eps-coloc", "10",
                 "--bins", "4", "--out", str(out)])
    assert code == 0
    report = (out / "overlap_report.txt").read_text()
    assert "sites_total: 2" in report
    # with merging disabled the pair stays separate
    code = main(["estimate", "--deployment", str(csv_path), "--eps-coloc", "0",
                 "--bins", "4", "--out", str(out)])
    assert code == 0
    assert "sites_total: 3" in (out / "overlap_report.txt").read_text()


@pytest.mark.parametrize("name, text, message", [
    ("inf_x.csv",
     "site_id,x_m,y_m,operators\n0,100.0,100.0,1\n1,inf,200.0,1;2\n2,300.0,250.0,2\n",
     "inf_x.csv:3: bad coordinate"),
    ("nan_x.csv",
     "site_id,x_m,y_m,operators\n0,100.0,100.0,1\n1,nan,200.0,1;2\n2,300.0,250.0,2\n",
     "nan_x.csv:3: bad coordinate"),
    ("inf_window.csv",
     "# window_m,0.0,inf,0.0,1000.0\nsite_id,x_m,y_m,operators\n"
     "0,100.0,100.0,1\n1,150.0,200.0,1;2\n2,300.0,250.0,2\n",
     "inf_window.csv: bad window comment"),
], ids=["inf-x", "nan-x", "inf-window"])
def test_estimate_non_finite_site_data_is_data_error(tmp_path, capsys, name, text, message):
    csv_path = tmp_path / name
    csv_path.write_text(text)
    code = main(["estimate", "--deployment", str(csv_path), "--bins", "4",
                 "--out", str(tmp_path / "est")])
    assert code == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--eps-coloc", "nan"], "merge radius must be finite and >= 0, got nan"),
    (["--eps-coloc", "inf"], "merge radius must be finite and >= 0, got inf"),
    (["--eps-coloc=-inf"], "merge radius must be finite and >= 0, got -inf"),
    (["--eps-coloc=-1"], "merge radius must be finite and >= 0, got -1.0"),
    (["--bins", "4,1000000000000"], "bin count must be a perfect square from 1 to 1000000"),
    (["--eps-coloc", "1e6"], "a search radius of 1000000.0 m gives"),
], ids=["eps-nan", "eps-inf", "eps-minus-inf", "eps-negative", "bins-huge", "eps-huge"])
def test_estimate_bad_merge_radius_or_bins_exit_2_without_output(tmp_path, capsys, flags,
                                                                  message):
    # some 3,900 sites in one cell: the huge radius is refused once its
    # 7.6e6 candidate pairs are counted, before any pair is built
    dep = mw.couple_two_operators(mw.fid_scenario(3000e-6, 0.5), mw.Window.square(500.0), 3)
    assert dep.n_sites * (dep.n_sites - 1) // 2 > mw.geometry.MAX_NEAR_PAIRS
    csv_path = tmp_path / "sites.csv"
    mw.write_deployment_csv(dep, csv_path)
    out = tmp_path / "out"
    assert main(["estimate", "--deployment", str(csv_path), *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--bins", "4"],
    ["press", "--target-density", "10"],
], ids=["estimate", "press"])
def test_site_file_that_is_not_utf8_is_data_error(tmp_path, capsys, argv):
    csv_path = tmp_path / "latin.csv"
    csv_path.write_bytes(b"# window_m,0.0,1000.0,0.0,1000.0\nsite_id,x_m,y_m,operators\n"
                         b"0,100.0,100.0,1\n1,150.0,200.0,\xff1;2\n2,300.0,250.0,2\n")
    out = tmp_path / "out"
    assert main([*argv, "--deployment", str(csv_path), "--out", str(out)]) == 3
    assert "latin.csv: line 4: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--bins", "4"],
    ["press", "--target-density", "10"],
], ids=["estimate", "press"])
@pytest.mark.parametrize("header, site, row", [
    ("site_id", "7" * 140_000, 3),
    ("s" * 140_000, "1", 1),
], ids=["row", "header"])
def test_site_file_with_an_over_long_field_is_data_error(tmp_path, capsys, argv, header, site,
                                                         row):
    csv_path = tmp_path / "long.csv"
    csv_path.write_text(f"# window_m,0.0,1000.0,0.0,1000.0\n{header},x_m,y_m,operators\n"
                        f"0,100.0,100.0,1\n{site},150.0,200.0,1;2\n")
    out = tmp_path / "out"
    assert main([*argv, "--deployment", str(csv_path), "--out", str(out)]) == 3
    assert f"long.csv:{row}: field larger than field limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--blocks", "--params"])
@pytest.mark.parametrize("content", [b'{"window_m": "\xff"}', b"[" * 100_000],
                         ids=["not-utf8", "deep-nesting"])
def test_json_file_that_does_not_decode_is_config_error(tmp_path, capsys, flag, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    argv = ["analyze", "--sinr", "0:10:10", *([] if flag == "--blocks" else ["--fid", "0"])]
    out = tmp_path / "out"
    assert main([*argv, flag, str(path), "--out", str(out)]) == 2
    assert f"{path} is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("window, densities, message", [
    (["a", 1000, 0, 1000], {"1": 10.0}, "bad 'window_m'"),
    ([0, 1000, None, 1000], {"1": 10.0}, "bad 'window_m'"),
    ([0, 1000, 0, 1000], {"1": "x"}, "density of block '1' must be a number"),
    ([0, 1000, 0, 1000], {"1": 5.0, "1;2": None}, "density of block '1;2' must be a number"),
], ids=["window-text", "window-null", "density-text", "density-null"])
def test_malformed_blocks_file_is_config_error(tmp_path, capsys, window, densities, message):
    blocks = tmp_path / "bad_blocks.json"
    blocks.write_text(json.dumps({"window_m": window, "densities_per_km2": densities}))
    with pytest.raises(ConfigError, match="bad_blocks.json"):
        mw.load_blocks_file(blocks)
    code = main(["analyze", "--blocks", str(blocks), "--sinr", "0:10:10",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad_blocks.json" in err and message in err


def test_press_rescales_to_target(tmp_path):
    win = mw.Window.square(2000.0)
    dep = mw.couple_two_operators(mw.fid_scenario(40.0 / KM2, 0.5), win, seed=9)
    csv_path = tmp_path / "sites.csv"
    mw.write_deployment_csv(dep, csv_path)
    out = tmp_path / "pressed"
    code = main(["press", "--deployment", str(csv_path), "--target-density", "10",
                 "--out", str(out)])
    assert code == 0
    pressed = mw.read_deployment_csv(out / "pressed.csv")
    assert mw.estimate_density(pressed) * KM2 == pytest.approx(10.0, rel=1e-9)
    assert pressed.n_sites == dep.n_sites


@pytest.mark.parametrize("flags, code, message", [
    # the density is checked in the per-km^2 units it was typed in
    (["--target-density", "nan"], 2, "must be a positive density per km^2, got nan"),
    (["--target-density", "-5"], 2, "--target-density must be a positive density per km^2, got -5"),
    (["--target-density", "10", "--operator", "40"], 2, "operator index must be"),
    (["--target-density", "10", "--operator", "2"], 3, "no sites for the selected operator"),
], ids=["nan-density", "negative-density", "bad-operator", "absent-operator"])
def test_press_rejects_bad_input_without_output(tmp_path, capsys, flags, code, message):
    dep = mw.couple_two_operators(mw.fid_scenario(40.0 / KM2, 0.5), mw.Window.square(2000.0),
                                  seed=9)
    csv_path = tmp_path / "op1.csv"
    mw.write_deployment_csv(dep.keep(dep.occupants == 1), csv_path)
    out = tmp_path / "pressed"
    assert main(["press", "--deployment", str(csv_path), *flags, "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--fid", "0.4", "--sinr", "0:10:0"],
    ["simulate", "--fid", "0.4", "--reps", "50", "--sinr", "0:10:0"],
    ["estimate", "--fid", "0.4", "--window-km", "1"],
    ["press", "--deployment", "sites.csv", "--target-density", "10"],
    ["compare", "--rhos", "1", "--reps", "20"],
], ids=["analyze", "simulate", "estimate", "press", "compare"])
def test_out_that_cannot_be_created_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    dep = mw.couple_two_operators(mw.fid_scenario(40.0 / KM2, 0.5), mw.Window.square(500.0),
                                  seed=9)
    mw.write_deployment_csv(dep, tmp_path / "sites.csv")
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err


def test_compare_writes_all_labels(tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", "--rhos", "1", "--reps", "120",
                 "--rates", "100:100:200", "--seed", "5", "--out", str(out)])
    assert code == 0
    header = (out / "compare_rates.csv").read_text().splitlines()[0].split(",")
    assert header[0] == "rate_mbps"
    for label in ("fid_rho1", "fcd_rho1", "single_100mhz", "single_200mhz"):
        assert label in header
    medians = (out / "compare_medians.csv").read_text().splitlines()
    assert medians[0] == "label,median_rate_bps"
    assert len(medians) == 5


def test_unknown_flag_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--fid", "0.4", "--sirn", "0:1:1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    # options a command does not read are not accepted either
    sites = tmp_path / "sites.csv"
    for argv in (["estimate", "--deployment", str(sites), "--threads", "2"],
                 ["press", "--deployment", str(sites), "--target-density", "10",
                  "--preset", "paper-sec5"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2


def test_unknown_preset_is_config_error(tmp_path):
    # there are no presets left; any --preset is a usage error before any work
    out = tmp_path / "out"
    for preset in ("nosuch", "paper-sec5"):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--fid", "0", "--preset", preset, "--out", str(out)])
        assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--fid", "abc"], "--fid expects a number, got 'abc'"),
    (["simulate", "--fcd", "x"], "--fcd expects a number, got 'x'"),
    (["estimate", "--fid", "0.4x", "--window-km", "2"], "--fid expects a number"),
    (["analyze", "--fid", "0.4", "--threads", "0"], "--threads: must be at least 1, got 0"),
    # --window-km is checked in the km it was typed in
    (["estimate", "--fcd", "0.4", "--window-km", "nan"], "positive width in km, got nan"),
    (["estimate", "--fcd", "0.4", "--window-km", "inf"], "positive width in km, got inf"),
    (["estimate", "--fcd", "0.4", "--window-km", "0"], "positive width in km, got 0"),
], ids=["analyze-fid", "simulate-fcd", "estimate-fid", "analyze-threads",
        "estimate-window-nan", "estimate-window-inf", "estimate-window-zero"])
def test_malformed_sharing_value_or_thread_count_exits_2_without_output(tmp_path, capsys, argv,
                                                                        message):
    out = tmp_path / "out"
    try:
        code = main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse rejects an option's value this way
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--fid", "0.4", "--reps", "10"],
    ["compare", "--rhos", "1", "--reps", "10"],
    ["estimate", "--fid", "0.4", "--window-km", "2"],
], ids=["simulate", "compare", "estimate"])
def test_negative_seed_exits_2_without_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_compare_rejects_rhos_with_repeated_labels(tmp_path, capsys):
    # both columns would carry one label, and the second run's numbers
    with pytest.raises(ConfigError):
        parse_rhos("0.1,0.10")
    out = tmp_path / "out"
    for rhos in ("0.1,0.10", "0,0", "1,0.4,1.0"):
        assert main(["compare", "--rhos", rhos, "--reps", "10", "--out", str(out)]) == 2
        assert "--rhos values must differ" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--fid", "0.4"],
    ["simulate", "--fcd", "0.4", "--reps", "10"],
    ["estimate", "--fid", "0.4", "--window-km", "2"],
    ["compare", "--rhos", "1", "--reps", "10"],
], ids=["analyze", "simulate", "estimate", "compare"])
@pytest.mark.parametrize("value", ["-3", "0", "inf", "nan"])
def test_bad_lambda0_is_reported_per_km2(tmp_path, capsys, argv, value):
    out = tmp_path / "out"
    assert main([*argv, f"--lambda0={value}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--lambda0 must be a positive density per km^2, got {value}" in err
    assert not out.exists()


@pytest.mark.parametrize("source, argv, flag", [
    ("blocks", ["analyze", "--lambda0", "30", "--sinr", "0:10:10"], "--lambda0"),
    ("blocks", ["analyze", "--lambda0", "-3", "--sinr", "0:10:10"], "--lambda0"),
    ("blocks", ["simulate", "--lambda0", "30", "--reps", "10"], "--lambda0"),
    ("deployment", ["simulate", "--lambda0", "30", "--reps", "10"], "--lambda0"),
    ("deployment", ["estimate", "--lambda0", "30"], "--lambda0"),
    ("deployment", ["estimate", "--seed", "1"], "--seed"),
    ("deployment", ["estimate", "--seed", "-1"], "--seed"),
    ("deployment", ["estimate", "--window-km", "2"], "--window-km"),
], ids=["analyze-blocks", "analyze-blocks-bad", "simulate-blocks", "simulate-deployment",
        "estimate-lambda0", "estimate-seed", "estimate-bad-seed", "estimate-window"])
def test_flags_the_scenario_source_never_reads_exit_2_without_output(tmp_path, capsys, source,
                                                                    argv, flag):
    if source == "blocks":
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"window_m": [-3300.0, 3300.0, -3300.0, 3300.0],
                                    "densities_per_km2": {"1": 30.0}}))
    else:
        path = tmp_path / "sites.csv"
        mw.write_deployment_csv(mw.couple_two_operators(mw.fid_scenario(40e-6, 0.5),
                                                        mw.Window.square(1000.0), 1), path)
    out = tmp_path / "out"
    assert main([*argv, f"--{source}", str(path), "--out", str(out)]) == 2
    assert f"{flag} does not apply to" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, message", [
    ("noise_figure_db", "noise_figure_db"),
    ("user_density_per_km2", "user_density_per_m2"),
    ("fading.nakagami_m_los", "nakagami_m_los"),
    ("fading.nakagami_m_nlos", "nakagami_m_nlos"),
    ("fading.shadow_sigma_db_los", "shadow_sigma_db_los"),
    ("fading.shadow_sigma_db_nlos", "shadow_sigma_db_nlos"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_parameter_exits_2_without_output(tmp_path, capsys, key, message, value):
    # NaN passes every `x < 0` check: a NaN noise figure gave coverage 1.0 at
    # every threshold, a NaN user density a rate curve of zeros
    if key.startswith("fading."):
        data = {"fading": {"kind": "nakagami-lognormal", key.split(".")[1]: value}}
    else:
        data = {key: value}
    with pytest.raises(ConfigError, match=f"{message} must be finite"):
        mw.params_from_dict(data)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))  # NaN and Infinity, as Python's json writes them
    out = tmp_path / "out"
    assert main(["simulate", "--fid", "0.4", "--reps", "10", "--params", str(path),
                 "--out", str(out)]) == 2
    assert f"{message} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_readme_option_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| command | options |"):].split("\n\n")[0]
    documented = {}
    for row in table.splitlines()[2:]:
        command, options = row.strip("|").split("|")
        documented[command.strip().strip("`")] = set(re.findall(r"--[a-z0-9-]+", options))
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actual = {name: {o for a in sub._actions for o in a.option_strings
                     if o.startswith("--")} - {"--out", "--help"}
              for name, sub in commands.choices.items()}
    assert documented == actual


def test_no_command_loads_scipy(tmp_path):
    # SciPy is a test oracle only; a fresh interpreter shows what the
    # package itself pulls in.
    script = textwrap.dedent(f"""
        import sys
        import mmwshare as mw
        from mmwshare.cli import main

        out = {str(tmp_path)!r}
        dep = mw.couple_two_operators(mw.fid_scenario(40e-6, 0.5), mw.Window.square(1000.0), 1)
        mw.write_deployment_csv(dep, out + "/sites.csv")
        runs = [
            ["analyze", "--fid", "0.4", "--sinr", "0:10:10", "--rates", "100:100:200",
             "--median"],
            ["simulate", "--fid", "0.4", "--reps", "50", "--sinr", "0:10:10",
             "--rates", "100:100:200"],
            ["compare", "--rhos", "1", "--reps", "20", "--rates", "100:100:200"],
            ["press", "--deployment", out + "/sites.csv", "--target-density", "30"],
            ["estimate", "--deployment", out + "/sites.csv", "--eps-coloc", "10"],
            ["estimate", "--fid", "0.4", "--window-km", "2"],
        ]
        for i, argv in enumerate(runs):
            assert main(argv + ["--out", out + f"/o{{i}}"]) == 0, argv
        # one worker starts no pool, so the pool machinery stays unloaded
        assert "concurrent.futures.process" not in sys.modules
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
    """)
    env = dict(os.environ)
    pkg_root = str(Path(mw.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
