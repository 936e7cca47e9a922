"""Runs a workload's command set in-process and turns the passes into metrics.

``run_workload`` is the whole measurement of one run; ``worker.py`` calls
it in a fresh interpreter, the benchmark's tests call it directly.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import time
import traceback
from pathlib import Path

from mmwshare import cli

import layers
import tracing
import workloads as wl

# End-to-end metrics the worker measures (run.py adds setup_s).
E2E_UNITS = {"wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed beside them where the workload has the work; not in the JSON
# result, which must carry the same metrics on every workload.
NAMED_UNITS = {"curve_points_per_s": "1/s", "median_rate_s": "s", "reps_per_s": "1/s",
               "sites_per_s": "1/s"}
# The unit of work each workload's work_per_s counts.
WORK_UNIT = {"analyze-fid": "thresholds", "mc-two-op": "reps", "blocks-3op": "reps",
             "estimate-sites": "rows"}


def run_pass(cmds: list[wl.Command], workdir: Path, refs: dict, tracer: tracing.Tracer,
             targets, pool: wl.EnginePool | None = None) -> dict:
    """Runs every command once under ``targets`` wrappers; checks the outputs."""
    results = []
    with tracer.patched(targets):
        for cmd in cmds:
            out = workdir / f"out-{cmd.name}"
            t0 = time.perf_counter()
            with tracer.span(f"cli.{cmd.name}"), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = cli.main(cmd.argv + ["--out", str(out)])
                except SystemExit as exc:  # argparse rejects bad flags this way
                    code = exc.code
                except Exception as exc:  # noqa: BLE001  a crash is a failed command
                    traceback.print_exc()
                    code = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            problems = wl.check(cmd, out, refs, pool) if code == 0 else [f"exit {code}"]
            results.append({"name": cmd.name, "seconds": seconds, "problems": problems,
                            "thresholds": cmd.thresholds, "reps": cmd.reps, "rows": cmd.rows})
    return {"wall": sum(c["seconds"] for c in results), "commands": results}


def pass_metrics(p: dict, spans: list[dict], unit: str) -> dict:
    """End-to-end figures of one pass; ``spans`` are its stopwatch spans."""
    cmds = p["commands"]
    busy = [c for c in cmds if c[unit]]
    figures = {}

    def total(name):
        return sum(tracing.duration(s) for s in spans if s["name"] == name)

    points = sum(s["attrs"]["thresholds"] for s in spans if s["name"] == "analytic.sinr_coverage")
    if points:
        figures["curve_points_per_s"] = points / total("analytic.sinr_coverage")
    if total("analytic.median_rate"):
        figures["median_rate_s"] = total("analytic.median_rate")
    reps = sum(s["attrs"]["reps"] for s in spans if s["name"] == "montecarlo.run_simulation")
    if reps:
        figures["reps_per_s"] = reps / total("montecarlo.run_simulation")
    rows = sum(c["rows"] for c in cmds)
    if rows:
        figures["sites_per_s"] = rows / sum(c["seconds"] for c in cmds if c["rows"])
    figures["wall_s"] = p["wall"]
    figures["work_per_s"] = sum(c[unit] for c in busy) / sum(c["seconds"] for c in busy)
    return figures


def main(setup_s: float) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--refs", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--env", type=json.loads, required=True, help="provenance for the trace file")
    ap.add_argument("--spawned-at", type=float, help="read by worker.py")
    args = ap.parse_args()
    result = run_workload(args.workload, "full", args.seed, args.seconds, bool(args.trace),
                          args.workdir, json.loads(args.refs.read_text()), args.src,
                          args.trace_out, args.env)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


def run_workload(workload: str, size: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, refs: dict, src: Path, trace_out: Path | None = None,
                 env: dict | None = None) -> dict:
    """Measures one workload; returns metrics, counts and problems as a dict."""
    inputs = wl.make_inputs(workload, size, seed, workdir, with_sites=trace)
    unit = WORK_UNIT[workload]
    tracer = tracing.Tracer()
    pool = wl.EnginePool()
    passes, problems = [], []
    overheads = []  # traced minus untraced wall time, per pass
    attempted = failed = 0
    min_passes = wl.min_passes(workload, size)
    loop_s = []  # wall time of each loop iteration
    start = time.perf_counter()
    # untraced: passes until the time is used.  traced: (untraced, traced)
    # pairs of the same seed for half of it, then the probes.  A pass starts
    # when it is due to end less than half a pass past the budget.
    budget = seconds / 2 if trace else seconds
    k = 0
    while k < min_passes or (time.perf_counter() - start + statistics.median(loop_s) / 2
                             < budget):
        t_loop = time.perf_counter()
        cmds = wl.commands(workload, size, inputs, seed * 1000 + k)
        plain = f"plain-{k}"
        runs = [(plain, layers.STOPWATCH_TARGETS)]
        if trace:  # alternate the order so drift in machine speed cancels
            runs.insert(k % 2, (f"pass-{k}", layers.TRACE_TARGETS))
        done = {}
        for run, targets in runs:
            tracer.run = run
            first = len(tracer.spans)
            # only the untraced pass joins the pool: the traced one repeats its draws
            done[run] = run_pass(cmds, workdir, refs, tracer, targets,
                                 pool if run == plain else None)
            if run == plain:
                passes.append(pass_metrics(done[run], tracer.spans[first:], unit))
        if trace:
            overheads.append(done[f"pass-{k}"]["wall"] - done[plain]["wall"])
        for c in (c for d in done.values() for c in d["commands"]):
            attempted += 1
            failed += bool(c["problems"])
            problems += [f"pass {k} {c['name']}: {msg}" for msg in c["problems"]]
        loop_s.append(time.perf_counter() - t_loop)
        k += 1
    if pool.reps:
        attempted += 1
        pooled = pool.check(refs)
        failed += bool(pooled)
        problems += [f"all passes: {msg}" for msg in pooled]
    result = {"workload": workload, "passes": k, "attempted": attempted, "failed": failed,
              "problems": problems[:20], "inputs": inputs.facts}
    if trace:
        layers.run_probes(tracer, workload, inputs, seed)
        values = layers.layer_metrics(tracer, statistics.median(overheads), src)
        result["metrics"] = {name: {"value": v, "unit": layers.LAYER_METRICS[name][0]}
                             for name, v in values.items()}
        if trace_out is not None:
            tracer.dump(trace_out, {"workload": workload, "seed": seed, "env": env,
                                    "self_s_by_layer": layers.self_time_by_layer(tracer),
                                    "metrics": values, "inputs": inputs.facts})
    else:
        medians = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
        medians["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = {name: {"value": medians.pop(name), "unit": unit}
                             for name, unit in E2E_UNITS.items()}
        result["named"] = {name: {"value": v, "unit": NAMED_UNITS[name]}
                           for name, v in medians.items()}
    return result
