"""Write ``refs.json``: the reference outputs the benchmark's gates use.

Run from the repository root, on the commit whose outputs are the
reference (the references in the repository come from the seed commit
named in the file):

    PYTHONPATH=src python3 perfbench/gen_refs.py

It runs the workloads' analytic commands at both sizes, the 41-point
analytic curves for FID rho in {0, 0.4, 1} and FCD rho = 0.4 (the
equivalence baselines of later engine rewrites), and the Monte Carlo
commands at REF_SEED with more replications than a benchmark pass.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
from pathlib import Path

import numpy as np
import scipy

from mmwshare import cli

import envinfo
import workloads as wl

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"


def run_cli(argv: list[str], out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    code = cli.main(argv + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"reference command failed with exit code {code}: {argv}")


def analytic_ref(argv: list[str], out: Path) -> dict:
    run_cli(argv, out)
    curve = wl.read_curve(out / "sinr_coverage.csv")
    ref = {"argv": argv, "thresholds_db": curve["threshold_db"],
           "probability": curve["probability"], "median_rate_bps": None}
    if "--median" in argv:
        ref["median_rate_bps"] = wl.read_summary_value(out / "summary.txt", "median_rate_bps")
    return ref


def main() -> int:
    work = Path(".perfbench") / "gen-refs"
    work.mkdir(parents=True, exist_ok=True)
    wl.write_json_inputs(work)
    # recorded argv name the generated inputs by file name; local() runs them from work/
    blocks, params = Path("three_op.json"), Path("nakagami.json")

    def local(argv: list[str]) -> list[str]:
        return [str(work / a) if a in (str(blocks), str(params)) else a for a in argv]

    analytic = {}
    for size in ("full", "tiny"):
        sinr = wl.SIZES["analyze-fid"][size]["sinr"]
        analytic[f"analyze-fid/{sinr}"] = analytic_ref(wl.analyze_fid_argv(sinr), work / "a")
        sinr = wl.SIZES["blocks-3op"][size]["sinr"]
        argv = wl.analyze_blocks_argv(blocks, sinr)
        analytic[f"blocks-3op/{sinr}"] = analytic_ref(local(argv), work / "a")
        analytic[f"blocks-3op/{sinr}"]["argv"] = argv
    for key, mode, rho in (("fid-41", "--fid", wl.FID_RHO), ("fid-rho0-41", "--fid", 0.0),
                           ("fid-rho1-41", "--fid", 1.0), ("fcd-rho0.4-41", "--fcd", 0.4)):
        argv = ["analyze", mode, f"{rho:g}", "--lambda0", f"{wl.LAMBDA0_PER_KM2:g}",
                "--sinr", wl.FULL_SINR_GRID]
        analytic[key] = analytic_ref(argv, work / "a")

    empirical = {}
    argv = wl.simulate_fid_argv(wl.REF_SIM_REPS, wl.REF_SEED)
    run_cli(argv, work / "s")
    empirical["fid-simulate"] = {
        "argv": argv, "n": wl.REF_SIM_REPS,
        "curves": {"sinr": wl.read_curve(work / "s" / "sinr_empirical.csv")["probability"],
                   "rate": wl.read_curve(work / "s" / "rate_empirical.csv")["probability"]},
    }
    argv = wl.compare_argv(wl.REF_COMPARE_REPS, wl.REF_SEED)
    run_cli(argv, work / "c")
    table = wl.read_curve(work / "c" / "compare_rates.csv")
    empirical["compare"] = {
        "argv": argv, "n": wl.REF_COMPARE_REPS,
        "curves": {k: v for k, v in table.items() if k != "rate_mbps" and not k.endswith("_ci")},
    }
    argv = wl.simulate_blocks_argv(blocks, params, wl.REF_SIM_REPS, wl.REF_SEED)
    run_cli(local(argv), work / "b")
    empirical["blocks-nakagami"] = {
        "argv": argv, "n": wl.REF_SIM_REPS,
        "curves": {"sinr": wl.read_curve(work / "b" / "sinr_empirical.csv")["probability"]},
    }

    refs = {
        "commit": envinfo.git_sha(),
        "src_sha256": envinfo.src_sha256(Path("src")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "analytic": analytic,
        "empirical": empirical,
    }
    REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
