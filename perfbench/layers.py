"""Per-layer measurements for the traced run.

Two sources feed the per-layer metrics:

* spans around the package's public functions while the workload's own
  commands run (``TRACE_TARGETS``); and
* probes, which call public functions directly on the workload's
  scenario: the inner transform, the truncation radius, one replication
  rebuilt from geometry and channel calls, the curve builders, and the
  1- versus 2-worker scaling of both engines.

Every per-layer metric is reported on every workload.  A span metric
whose function the workload's commands never call (say, the CSV reader
on ``analyze-fid``) is measured by a stand-in probe on the workload's
scenario or on the generated site file instead.  ``LAYER_METRICS`` says
which end-to-end metric and workload each one should move.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from pathlib import Path

import numpy as np

import mmwshare as mw
from mmwshare import analytic, channel, cli, estimation, geometry, montecarlo

import tracing
import workloads as wl

MODULES = ("__init__", "analytic", "channel", "cli", "core", "estimation", "geometry",
           "montecarlo")

# name -> (unit, better, "moves <e2e metric> on <workloads>")
LAYER_METRICS = {
    "analytic.transform_us": ("us", "lower", "curve_points_per_s on analyze-fid; median_rate_s on blocks-3op"),
    "analytic.sinr_coverage_s": ("s", "lower", "wall_s on analyze-fid and blocks-3op"),
    "analytic.median_rate_s": ("s", "lower", "wall_s on blocks-3op"),
    "analytic.truncation_radius_us": ("us", "lower", "no e2e metric measurably"),
    "analytic.scaling_eff_2w": ("ratio", "higher", "curve_points_per_s on blocks-3op"),
    "montecarlo.scaling_eff_2w": ("ratio", "higher", "reps_per_s on blocks-3op"),
    "montecarlo.us_per_rep": ("us", "lower", "reps_per_s on mc-two-op and blocks-3op"),
    "montecarlo.proxy_us_per_rep": ("us", "lower", "reps_per_s on mc-two-op and blocks-3op"),
    "montecarlo.curve_ms": ("ms", "lower", "wall_s on mc-two-op (a small share)"),
    "montecarlo.useful_draw_ratio": ("ratio", "higher", "reps_per_s on mc-two-op and blocks-3op"),
    "geometry.draw_us": ("us", "lower", "reps_per_s on mc-two-op and blocks-3op"),
    "geometry.sites_per_draw": ("count", "lower", "reps_per_s on mc-two-op and blocks-3op"),
    "geometry.thin_blockage_us": ("us", "lower", "reps_per_s on mc-two-op and blocks-3op"),
    "channel.sinr_us": ("us", "lower", "reps_per_s on mc-two-op and blocks-3op"),
    "channel.interferers_per_user": ("count", "lower", "reps_per_s on mc-two-op and blocks-3op"),
    "geometry.read_csv_s": ("s", "lower", "sites_per_s on estimate-sites"),
    "geometry.write_csv_s": ("s", "lower", "sites_per_s on estimate-sites"),
    "geometry.press_ms": ("ms", "lower", "sites_per_s on estimate-sites"),
    "estimation.merge_ms": ("ms", "lower", "sites_per_s on estimate-sites"),
    "estimation.merge_ratio": ("ratio", "lower", "sites_per_s on estimate-sites"),
    "estimation.overlap_ladder_ms": ("ms", "lower", "sites_per_s on estimate-sites"),
    "estimation.sharing_summary_ms": ("ms", "lower", "sites_per_s on estimate-sites"),
    "cli.overhead_ms": ("ms", "lower", "wall_s on every workload"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s"),
    **{f"{m}.loc": ("lines", "lower", "none: tracks the size of the package")
       for m in MODULES},
    "src.loc": ("lines", "lower", "none: tracks the size of the package"),
}


# ---------------------------------------------------------------------------
# Wrapped functions

def _sim_attrs(args, kwargs, result):
    plan = args[2] if len(args) > 2 else kwargs["plan"]
    return {"reps": plan.replications, "workers": plan.workers,
            "redraws": result.report.redraws}


def _coverage_attrs(args, kwargs, result):
    return {"thresholds": len(result), "workers": kwargs.get("workers", 1)}


def _merge_attrs(args, kwargs, result):
    return {"rows_in": args[0].n_sites, "rows_out": result.n_sites}


# The untraced passes time only these, to split a command into engines.
STOPWATCH_TARGETS = (
    (analytic, "sinr_coverage", _coverage_attrs),
    (analytic, "median_rate", None),
    (montecarlo, "run_simulation", _sim_attrs),
)
TRACE_TARGETS = STOPWATCH_TARGETS + (
    (analytic, "rate_coverage", _coverage_attrs),
    (analytic, "operator_density_of", None),
    (montecarlo, "sinr_curve_from_samples", None),
    (montecarlo, "rate_curve_from_samples", None),
    (montecarlo, "median_rate_from_samples", None),
    (geometry, "read_deployment_csv", None),
    (geometry, "write_deployment_csv", None),
    (geometry, "press", None),
    (geometry, "couple_two_operators", None),
    (geometry, "sample_block_model", None),
    (estimation, "merge_colocated", _merge_attrs),
    (estimation, "overlap_report", None),
    (estimation, "sharing_summary", None),
    (estimation, "estimate_density", None),
    (estimation, "estimate_overlap_indirect", None),
    (estimation, "estimate_overlap_direct", None),
)


# ---------------------------------------------------------------------------
# Probes

@dataclasses.dataclass
class Scenario:
    """What a workload's engines see: the model, both parameter sets, the grid."""

    model: object
    params: mw.SystemParams        # Rayleigh, for the analytic engine
    mc_params: mw.SystemParams     # the fading the workload simulates
    thresholds_db: np.ndarray
    window: mw.Window


def scenario_for(workload: str, inputs: wl.Inputs) -> Scenario:
    params = mw.PRESETS["paper-sec5"]
    if workload == "blocks-3op":
        model = mw.load_blocks_file(inputs.files["three_op.json"])
        nakagami = json.loads(inputs.files["nakagami.json"].read_text())
        return Scenario(model, params, mw.params_from_dict(nakagami, base=params),
                        cli.parse_grid(wl.SIZES[workload]["full"]["sinr"], "sinr"),
                        model.window)
    # the FID scenario: analyze-fid and mc-two-op run it, and the site file is drawn from it
    model = mw.fid_scenario(wl.LAMBDA0_PER_KM2 / 1e6, wl.FID_RHO)
    half = mw.truncation_radius(model.operator_density(1), params)
    return Scenario(model, params, params,
                    cli.parse_grid(wl.SIZES["analyze-fid"]["full"]["sinr"], "sinr"),
                    mw.Window.square(half))


def _draw(sc: Scenario, seed):
    if isinstance(sc.model, mw.BlockModel):
        return geometry.sample_block_model(sc.model, seed)
    return geometry.couple_two_operators(sc.model, sc.window, seed)


def probe_transform(tr: tracing.Tracer, sc: Scenario) -> None:
    """laplace_general over r in (0, r_max] and the low, middle and top thresholds."""
    p = sc.params
    r_max = analytic.truncation_radius(sc.model.operator_density(1), p)
    t_db = sc.thresholds_db[[0, sc.thresholds_db.size // 2, -1]]
    home = mw.OperatorSet.of(1)
    for r in r_max * np.array([0.002, 0.02, 0.1, 0.3, 1.0]):
        for t in 10.0 ** (t_db / 10.0):
            for los in (True, False):
                c, al = (p.c_los, p.alpha_los) if los else (p.c_nlos, p.alpha_nlos)
                s = t * r**al / (c * p.gain_main)
                with tr.span("probe.transform"):
                    analytic.laplace_general(sc.model, p, home, los, float(r), float(s))


def probe_truncation(tr: tracing.Tracer, sc: Scenario, calls: int = 200) -> None:
    lam = sc.model.operator_density(1)
    for _ in range(5):
        with tr.span("probe.truncation_radius", calls=calls):
            for _ in range(calls):
                analytic.truncation_radius(lam, sc.params)


def probe_replications(tr: tracing.Tracer, sc: Scenario, seed: int, reps: int = 200) -> None:
    """One replication rebuilt from public calls: draw, LOS labels, SINR."""
    beta = sc.params.beta_per_m
    user = sc.window.center()
    for i in range(reps):
        with tr.span("probe.replication"):
            with tr.span("probe.draw") as rec:
                dep = _draw(sc, (seed, i))
            rec["attrs"]["sites"] = dep.n_sites
            with tr.span("probe.thin_blockage"):
                dep = geometry.thin_blockage(dep, user, beta, (seed, i, 1))
            with tr.span("probe.sinr") as rec:
                channel.sinr_at_user(dep, user, 1, sc.mc_params,
                                     np.random.default_rng((seed, i, 2)))
            rec["attrs"]["interferers"] = int(np.bitwise_count(dep.occupants).sum()) - 1


def probe_curves(tr: tracing.Tracer, sc: Scenario, seed: int, repeats: int = 20) -> None:
    """The *_from_samples builders on 20000 SINR-like samples."""
    samples = 10.0 ** np.random.default_rng((seed, 3)).normal(1.0, 1.5, 20000)
    grid = cli.parse_grid(wl.FULL_SINR_GRID, "sinr")
    rates = cli.parse_grid(wl.RATE_GRID, "rates") * 1e6
    lam = sc.model.operator_density(1)
    for _ in range(repeats):
        with tr.span("probe.curves"):
            montecarlo.sinr_curve_from_samples(samples, grid)
            montecarlo.rate_curve_from_samples(samples, rates, sc.mc_params, lam)
            montecarlo.median_rate_from_samples(samples, sc.mc_params, lam)


def probe_scaling(sc: Scenario, seed: int) -> None:
    """Both engines with 1 and then 2 workers (spans tagged by worker count)."""
    thresholds = np.array([-10.0, 0.0, 10.0, 20.0])
    for workers in (1, 2):
        analytic.sinr_coverage(sc.model, sc.params, thresholds, workers=workers)
    for workers in (1, 2):
        plan = mw.SimPlan(replications=2000, seed=(seed, 7), workers=workers)
        montecarlo.run_simulation(sc.model, sc.mc_params, plan)


def probe_sites(sites: Path, workdir: Path) -> None:
    """The estimate and press library calls, without the CLI, on the site file."""
    dep = geometry.read_deployment_csv(sites)
    merged = estimation.merge_colocated(dep, wl.SITES_EPS_M)
    estimation.overlap_report(merged, cli.parse_bins(wl.SITES_BINS))
    estimation.sharing_summary(merged)
    dep = geometry.read_deployment_csv(sites)
    geometry.write_deployment_csv(geometry.press(dep, wl.SITES_TARGET_DENSITY / 1e6),
                                  workdir / "probe-pressed.csv")


def run_probes(tr: tracing.Tracer, workload: str, inputs: wl.Inputs, seed: int) -> None:
    """Every probe, plus stand-ins for span metrics the passes left without spans."""
    sc = scenario_for(workload, inputs)
    called = {s["name"] for s in tr.spans if s["run"].startswith("pass")}
    # microsecond-scale probes time themselves; the rest need the library spans
    for name, step in (("transform", lambda: probe_transform(tr, sc)),
                       ("truncation", lambda: probe_truncation(tr, sc)),
                       ("replication", lambda: probe_replications(tr, sc, seed)),
                       ("curves", lambda: probe_curves(tr, sc, seed))):
        tr.run = f"probe:{name}"
        step()
    steps = [("scaling", lambda: probe_scaling(sc, seed))]
    if "analytic.median_rate" not in called:
        steps.append(("median", lambda: analytic.median_rate(sc.model, sc.params)))
    if "geometry.read_deployment_csv" not in called:
        steps.append(("sites", lambda: probe_sites(inputs.files["sites.csv"], inputs.workdir)))
    with tr.patched(TRACE_TARGETS):
        for name, step in steps:
            tr.run = f"probe:{name}"
            step()


# ---------------------------------------------------------------------------
# Metrics from spans

def _median_dur(spans) -> float:
    return statistics.median(tracing.duration(s) for s in spans)


def _source(tr: tracing.Tracer, name: str, probe_run: str, **attrs) -> list[dict]:
    """The passes' spans of ``name``; else the named probe's, filtered by attrs."""
    spans = tr.select(name, "pass")
    if not spans:
        spans = [s for s in tr.select(name, probe_run)
                 if all(s["attrs"].get(k) == v for k, v in attrs.items())]
    return spans


def src_loc(src: Path) -> dict[str, float]:
    out = {}
    for module in MODULES:
        with (src / "mmwshare" / f"{module}.py").open("rb") as fh:
            out[f"{module}.loc"] = float(sum(1 for _ in fh))
    out["src.loc"] = sum(out.values())
    return out


def layer_metrics(tr: tracing.Tracer, overhead_s: float, src: Path) -> dict[str, float]:
    m: dict[str, float] = {}
    m["analytic.transform_us"] = _median_dur(tr.select("probe.transform")) * 1e6
    m["analytic.sinr_coverage_s"] = _median_dur(
        _source(tr, "analytic.sinr_coverage", "probe:scaling", workers=1))
    m["analytic.median_rate_s"] = _median_dur(_source(tr, "analytic.median_rate", "probe:median"))
    m["analytic.truncation_radius_us"] = statistics.median(
        tracing.duration(s) / s["attrs"]["calls"] for s in tr.select("probe.truncation_radius")
    ) * 1e6

    def per_workers(name, workers):
        return _median_dur([s for s in tr.select(name, "probe:scaling")
                            if s["attrs"]["workers"] == workers])

    for layer, name in (("analytic", "analytic.sinr_coverage"),
                        ("montecarlo", "montecarlo.run_simulation")):
        m[f"{layer}.scaling_eff_2w"] = per_workers(name, 1) / (2.0 * per_workers(name, 2))

    sims = _source(tr, "montecarlo.run_simulation", "probe:scaling", workers=1)
    reps = sum(s["attrs"]["reps"] for s in sims)
    m["montecarlo.us_per_rep"] = sum(tracing.duration(s) for s in sims) / reps * 1e6
    m["montecarlo.useful_draw_ratio"] = reps / (reps + sum(s["attrs"]["redraws"] for s in sims))
    m["montecarlo.proxy_us_per_rep"] = _median_dur(tr.select("probe.replication")) * 1e6
    m["montecarlo.curve_ms"] = _median_dur(tr.select("probe.curves")) * 1e3

    draws = tr.select("probe.draw")
    m["geometry.draw_us"] = _median_dur(draws) * 1e6
    m["geometry.sites_per_draw"] = statistics.fmean(s["attrs"]["sites"] for s in draws)
    m["geometry.thin_blockage_us"] = _median_dur(tr.select("probe.thin_blockage")) * 1e6
    sinr = tr.select("probe.sinr")
    m["channel.sinr_us"] = _median_dur(sinr) * 1e6
    m["channel.interferers_per_user"] = statistics.fmean(s["attrs"]["interferers"] for s in sinr)

    m["geometry.read_csv_s"] = _median_dur(_source(tr, "geometry.read_deployment_csv",
                                                   "probe:sites"))
    m["geometry.write_csv_s"] = _median_dur(_source(tr, "geometry.write_deployment_csv",
                                                    "probe:sites"))
    m["geometry.press_ms"] = _median_dur(_source(tr, "geometry.press", "probe:sites")) * 1e3
    merges = _source(tr, "estimation.merge_colocated", "probe:sites")
    m["estimation.merge_ms"] = _median_dur(merges) * 1e3
    m["estimation.merge_ratio"] = statistics.fmean(
        s["attrs"]["rows_out"] / s["attrs"]["rows_in"] for s in merges)
    m["estimation.overlap_ladder_ms"] = _median_dur(
        _source(tr, "estimation.overlap_report", "probe:sites")) * 1e3
    m["estimation.sharing_summary_ms"] = _median_dur(
        _source(tr, "estimation.sharing_summary", "probe:sites")) * 1e3

    # the CLI's own time: its command spans minus the library calls inside them
    passes = {s["run"] for s in tr.spans if s["run"].startswith("pass")}
    m["cli.overhead_ms"] = self_time_by_layer(tr)["cli"] / len(passes) * 1e3
    m["trace.overhead_s"] = overhead_s
    m.update(src_loc(src))
    return m


def self_time_by_layer(tr: tracing.Tracer) -> dict[str, float]:
    """Self seconds per module over the traced passes (probes excluded)."""
    selfs = tracing.self_times(tr.spans)
    out: dict[str, float] = {}
    for s in tr.spans:
        if s["run"].startswith("pass"):
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + selfs[s["id"]]
    return out
