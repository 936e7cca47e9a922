"""Workload definitions: commands, generated inputs and output checks.

Each workload is a fixed set of ``mmwshare`` CLI commands.  The harness
repeats that set for the measuring time, one pass per iteration, and
checks every command's output files against seed-commit references
(``refs.json``) or against the model that generated the inputs.

Inputs are built from the workload seed with NumPy alone, so they do not
depend on the code under test.  Two sizes exist: ``full`` is what the
benchmark measures, ``tiny`` is what the benchmark's own tests run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Scenario constants shared by the commands, the generated inputs and the probes.
FID_RHO = 0.4
LAMBDA0_PER_KM2 = 30.0
RATE_GRID = "25:25:500"
FULL_SINR_GRID = "-10:1:30"

# Three operators, asymmetric sharing, one site class shared by all three.
THREE_OP_BLOCKS = {
    "window_m": [-3300.0, 3300.0, -3300.0, 3300.0],
    "densities_per_km2": {
        "1": 12.0, "2": 8.0, "3": 10.0,
        "1;2": 6.0, "1;3": 4.0, "2;3": 3.0, "1;2;3": 5.0,
    },
}
# The values of mmwshare.NAKAGAMI_LOGNORMAL_DEFAULT, as a --params file.
NAKAGAMI_PARAMS = {
    "fading": {
        "kind": "nakagami-lognormal",
        "nakagami_m_los": 2.0,
        "nakagami_m_nlos": 3.0,
        "shadow_sigma_db_los": 5.2,
        "shadow_sigma_db_nlos": 7.6,
    }
}

# Site file: an FID deployment as two operators would publish it, each
# listing its own sites, so a shared site appears once per operator.
SITES_TARGET_DENSITY = 60.0
SITES_JITTER_M = 3.0
SITES_EPS_M = 10.0
SITES_SIDE_KM = {"full": 40.0, "tiny": 20.0}
# The package's default bin ladder (4 ... 2500) extended by four finer
# grids.  The direct estimator's noise falls with the bin count, not with
# the site count: over 30 seeds of the full file, the default ladder's
# plateau strayed from rho_indirect with sd 0.025 and up to 0.059, past
# the 0.05 gate; with this ladder the sd is 0.006 and the worst 0.016.
SITES_BINS = "4,9,25,64,144,400,1024,2500,6400,10000,22500,40000"

# Output gates.  The tolerances are the package's own: 1e-6 for analytic
# curves, 0.02 between the engines (acceptance criterion 1), 0.03 and
# 0.05 for the overlap estimators (criterion 6).
ANALYTIC_TOL = 1e-6
ENGINE_TOL = 0.02
RHO_TOL = 0.03
PLATEAU_TOL = 0.05
PRESS_RTOL = 1e-9
# Each curve point may differ from its reference by the sum of both
# Wilson half-widths at z = 6: a correct run crosses that with
# probability ~2e-9 per point.
WILSON_Z = 6.0

# Reference runs of the Monte Carlo commands use this seed and these sizes.
REF_SEED = 20260817
REF_SIM_REPS = 20000
REF_COMPARE_REPS = 4000


# ---------------------------------------------------------------------------
# Command lines

def analyze_fid_argv(sinr: str) -> list[str]:
    return ["analyze", "--fid", str(FID_RHO), "--lambda0", f"{LAMBDA0_PER_KM2:g}", "--sinr", sinr]


def simulate_fid_argv(reps: int, seed: int) -> list[str]:
    return ["simulate", "--fid", str(FID_RHO), "--lambda0", f"{LAMBDA0_PER_KM2:g}",
            "--reps", str(reps), "--rates", RATE_GRID, "--seed", str(seed)]


def compare_argv(reps: int, seed: int) -> list[str]:
    return ["compare", "--rhos", "0,0.4,1", "--reps", str(reps), "--seed", str(seed)]


def analyze_blocks_argv(blocks: Path, sinr: str) -> list[str]:
    return ["analyze", "--blocks", str(blocks), "--sinr", sinr, "--median", "--threads", "2"]


def simulate_blocks_argv(blocks: Path, params: Path, reps: int, seed: int) -> list[str]:
    return ["simulate", "--blocks", str(blocks), "--params", str(params),
            "--reps", str(reps), "--threads", "2", "--seed", str(seed)]


def estimate_argv(sites: Path) -> list[str]:
    return ["estimate", "--deployment", str(sites), "--eps-coloc", f"{SITES_EPS_M:g}",
            "--bins", SITES_BINS]


def press_argv(sites: Path) -> list[str]:
    return ["press", "--deployment", str(sites), "--target-density", f"{SITES_TARGET_DENSITY:g}"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload pass and how to judge it."""

    name: str
    argv: list[str]
    check: str                 # key into CHECKS
    ref: str | None = None     # key into refs["analytic"] or refs["empirical"]
    thresholds: int = 0        # analytic thresholds the command evaluates
    reps: int = 0              # Monte Carlo replications it draws
    rows: int = 0              # site rows it reads


@dataclass
class Inputs:
    """Files generated for one workload run, plus facts about them."""

    workdir: Path
    files: dict[str, Path] = field(default_factory=dict)
    facts: dict[str, float] = field(default_factory=dict)


# Full sizes are cut from the north-star commands so that a pass takes a
# few seconds on 2 cores and a measuring window holds several passes,
# whose median is the run's figure: 5 of the 41 FID thresholds, 5000
# instead of 20000 FID simulate reps (the engine gate pools the passes,
# see EnginePool), 250 instead of 2000 reps per compare curve, and on the
# block table 2 thresholds plus the median and 5000 Nakagami reps.
SIZES = {
    "analyze-fid": {"full": {"sinr": "-10:10:30"}, "tiny": {"sinr": "0:10:10"}},
    "mc-two-op": {"full": {"sim_reps": 5000, "cmp_reps": 250},
                  "tiny": {"sim_reps": 20000, "cmp_reps": 200}},
    "blocks-3op": {"full": {"sinr": "0:10:10", "reps": 5000},
                   "tiny": {"sinr": "0:10:10", "reps": 400}},
    "estimate-sites": {"full": {}, "tiny": {}},
}
WORKLOADS = tuple(SIZES)


def min_passes(workload: str, size: str) -> int:
    """Passes a run needs before its pooled engine gate sees REF_SIM_REPS reps."""
    if workload == "mc-two-op":
        return math.ceil(REF_SIM_REPS / SIZES[workload][size]["sim_reps"])
    return 1


def grid_size(text: str) -> int:
    lo, step, hi = (float(v) for v in text.split(":"))
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def commands(workload: str, size: str, inputs: Inputs, seed: int) -> list[Command]:
    """The commands of one pass; ``seed`` feeds the Monte Carlo streams."""
    cfg = SIZES[workload][size]
    f = inputs.files
    if workload == "analyze-fid":
        return [Command("analyze", analyze_fid_argv(cfg["sinr"]), "analytic",
                        ref=f"analyze-fid/{cfg['sinr']}", thresholds=grid_size(cfg["sinr"]))]
    if workload == "mc-two-op":
        return [
            Command("simulate", simulate_fid_argv(cfg["sim_reps"], seed), "fid_simulate",
                    ref="fid-simulate", reps=cfg["sim_reps"]),
            Command("compare", compare_argv(cfg["cmp_reps"], seed), "compare",
                    ref="compare", reps=8 * cfg["cmp_reps"]),
        ]
    if workload == "blocks-3op":
        return [
            Command("analyze", analyze_blocks_argv(f["three_op.json"], cfg["sinr"]), "analytic",
                    ref=f"blocks-3op/{cfg['sinr']}", thresholds=grid_size(cfg["sinr"])),
            Command("simulate", simulate_blocks_argv(f["three_op.json"], f["nakagami.json"],
                                                     cfg["reps"], seed),
                    "blocks_simulate", ref="blocks-nakagami", reps=cfg["reps"]),
        ]
    if workload == "estimate-sites":
        rows = int(inputs.facts["csv_rows"])
        return [
            Command("estimate", estimate_argv(f["sites.csv"]), "estimate", rows=rows),
            Command("press", press_argv(f["sites.csv"]), "press", rows=rows),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Generated inputs

def write_json_inputs(workdir: Path) -> dict[str, Path]:
    files = {}
    for name, data in (("three_op.json", THREE_OP_BLOCKS), ("nakagami.json", NAKAGAMI_PARAMS)):
        path = workdir / name
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        files[name] = path
    return files


def write_sites_csv(path: Path, seed: int, side_km: float) -> dict[str, float]:
    """Jittered two-operator site listing drawn from the FID model.

    A mother Poisson process at the FID total density is marked into
    operator-1-only, shared and operator-2-only sites.  Operator 1 lists
    its sites, then operator 2 lists its own; each listing of a shared
    site is moved by at most SITES_JITTER_M, so the two copies lie within
    2 * SITES_JITTER_M < SITES_EPS_M of each other and merge.
    """
    rng = np.random.default_rng([seed, 0x5173])
    half = side_km * 500.0
    lam_total = 2.0 * LAMBDA0_PER_KM2 / (1.0 + FID_RHO) / 1e6
    n = int(rng.poisson(lam_total * (2.0 * half) ** 2))
    xy = rng.uniform(-half, half, size=(n, 2))
    u = rng.random(n)
    in_1 = u <= (1.0 + FID_RHO) / 2.0
    in_2 = u > (1.0 - FID_RHO) / 2.0
    listings = []
    for op, mask in ((1, in_1), (2, in_2)):
        pts = xy[mask]
        radius = SITES_JITTER_M * np.sqrt(rng.random(pts.shape[0]))
        angle = rng.uniform(0.0, 2.0 * np.pi, pts.shape[0])
        pts = pts + np.column_stack((radius * np.cos(angle), radius * np.sin(angle)))
        listings.append((op, np.clip(pts, -half, half)))
    rows = 0
    with path.open("w") as fh:
        fh.write(f"# window_m,{-half!r},{half!r},{-half!r},{half!r}\n")
        fh.write("site_id,x_m,y_m,operators\n")
        for op, pts in listings:
            for x, y in pts:
                fh.write(f"{rows},{x:.2f},{y:.2f},{op}\n")
                rows += 1
    n_shared = int(np.count_nonzero(in_1 & in_2))
    return {"csv_rows": rows, "csv_shared_sites": n_shared,
            "csv_merge_share": 2.0 * n_shared / rows}


def make_inputs(workload: str, size: str, seed: int, workdir: Path,
                with_sites: bool = False) -> Inputs:
    """Write the workload's input files; ``with_sites`` adds the site CSV anyway."""
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(workdir, write_json_inputs(workdir))
    if workload == "estimate-sites" or with_sites:
        path = workdir / "sites.csv"
        inputs.facts.update(write_sites_csv(path, seed, SITES_SIDE_KM[size]))
        inputs.files["sites.csv"] = path
    return inputs


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output is right

def read_curve(path: Path) -> dict[str, list[float]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [r for r in rows[1:] if r]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def read_summary_value(path: Path, key: str) -> float:
    for line in path.read_text().splitlines():
        if line.startswith(key + ":"):
            return float(line.split(":", 1)[1])
    raise KeyError(f"{key} missing from {path.name}")


def wilson_halfwidth(p: np.ndarray, n: int, z: float = WILSON_Z) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / (1.0 + z * z / n)


def _compare_points(label: str, got, want, tol) -> list[str]:
    got, want, tol = np.asarray(got), np.asarray(want), np.broadcast_to(tol, np.shape(want))
    if got.shape != want.shape:
        return [f"{label}: {got.size} points, reference has {want.size}"]
    bad = np.flatnonzero(~(np.abs(got - want) <= tol))
    if bad.size:
        i = int(bad[0])
        return [f"{label}: {bad.size} points off; first at index {i}: "
                f"{got[i]!r} vs {want[i]!r} (tolerance {tol[i]:.3g})"]
    return []


def _wilson_band(label: str, got, n_got: int, ref: dict, key: str) -> list[str]:
    want = np.asarray(ref["curves"][key])
    tol = wilson_halfwidth(np.asarray(got), n_got) + wilson_halfwidth(want, ref["n"])
    return _compare_points(label, got, want, tol)


def check_analytic(cmd: Command, out: Path, refs: dict) -> list[str]:
    ref = refs["analytic"][cmd.ref]
    curve = read_curve(out / "sinr_coverage.csv")
    problems = _compare_points("thresholds", curve["threshold_db"], ref["thresholds_db"], 0.0)
    problems += _compare_points("sinr coverage", curve["probability"], ref["probability"],
                                ANALYTIC_TOL)
    if ref.get("median_rate_bps") is not None:
        got = read_summary_value(out / "summary.txt", "median_rate_bps")
        problems += _compare_points("median rate", [got], [ref["median_rate_bps"]],
                                    ANALYTIC_TOL * ref["median_rate_bps"])
    return problems


def check_fid_simulate(cmd: Command, out: Path, refs: dict) -> list[str]:
    ref = refs["empirical"][cmd.ref]
    problems = _wilson_band("sinr curve", read_curve(out / "sinr_empirical.csv")["probability"],
                            cmd.reps, ref, "sinr")
    problems += _wilson_band("rate curve", read_curve(out / "rate_empirical.csv")["probability"],
                             cmd.reps, ref, "rate")
    return problems


class EnginePool:
    """The SINR curves of one run's FID simulate commands, pooled.

    Criterion 1's 0.02 gate between the engines holds for 20000
    replications, more than one pass draws.  The pool weights each
    curve by its replications, which gives the curve of all of them,
    and checks that against the analytic reference once per run.
    """

    def __init__(self):
        self.reps = 0
        self.hits = 0.0

    def add(self, cmd: Command, out: Path) -> None:
        if cmd.check == "fid_simulate":
            curve = np.asarray(read_curve(out / "sinr_empirical.csv")["probability"])
            self.hits = self.hits + cmd.reps * curve
            self.reps += cmd.reps

    def check(self, refs: dict) -> list[str]:
        if self.reps < REF_SIM_REPS:
            return [f"engine gate: {self.reps} pooled reps, it needs {REF_SIM_REPS}"]
        return _compare_points("pooled sinr vs analytic", self.hits / self.reps,
                               refs["analytic"]["fid-41"]["probability"], ENGINE_TOL)


def check_compare(cmd: Command, out: Path, refs: dict) -> list[str]:
    ref = refs["empirical"][cmd.ref]
    table = read_curve(out / "compare_rates.csv")
    problems = []
    for label in ref["curves"]:
        if label not in table:
            problems.append(f"compare_rates.csv lacks column {label}")
            continue
        problems += _wilson_band(label, table[label], cmd.reps // 8, ref, label)
    return problems


def check_blocks_simulate(cmd: Command, out: Path, refs: dict) -> list[str]:
    sinr = read_curve(out / "sinr_empirical.csv")
    return _wilson_band("nakagami sinr", sinr["probability"], cmd.reps,
                        refs["empirical"][cmd.ref], "sinr")


def check_estimate(cmd: Command, out: Path, refs: dict) -> list[str]:
    report = out / "overlap_report.txt"
    rho = read_summary_value(report, "rho_indirect")
    plateau = read_summary_value(report, "rho_direct_plateau")
    return (_compare_points("rho_indirect vs generating rho", [rho], [FID_RHO], RHO_TOL)
            + _compare_points("plateau vs rho_indirect", [plateau], [rho], PLATEAU_TOL))


def check_press(cmd: Command, out: Path, refs: dict) -> list[str]:
    with (out / "pressed.csv").open() as fh:
        x0, x1, y0, y1 = (float(v) for v in fh.readline().split(",")[1:])
        fh.readline()
        rows = sum(1 for line in fh if line.strip())
    density = rows / ((x1 - x0) * (y1 - y0)) * 1e6
    return _compare_points("pressed density", [density], [SITES_TARGET_DENSITY],
                           PRESS_RTOL * SITES_TARGET_DENSITY)


CHECKS = {
    "analytic": check_analytic,
    "fid_simulate": check_fid_simulate,
    "compare": check_compare,
    "blocks_simulate": check_blocks_simulate,
    "estimate": check_estimate,
    "press": check_press,
}


def check(cmd: Command, out: Path, refs: dict, pool: EnginePool | None = None) -> list[str]:
    """Problems with ``cmd``'s output; a correct one also joins ``pool``."""
    try:
        problems = CHECKS[cmd.check](cmd, out, refs)
        if pool is not None and not problems:
            pool.add(cmd, out)
        return problems
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
