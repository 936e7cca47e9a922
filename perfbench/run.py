"""Benchmark entry point: one measured run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.
It starts two fresh interpreters that only import the CLI (set-up
probes), then one worker interpreter that measures its own set-up and
runs the workload (see ``harness.py``), then two more probes.
``setup_s`` is the median set-up time over all five, taken before and
after the workload so that a drift in machine speed during the run
moves it less.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
the per-layer metrics, and it writes every span as JSON under
``.perfbench/traces/``.  Human-readable lines come first; the last line
of standard output is the JSON result.  The exit code is 0 whenever a
result was printed, with ``"correct": false`` if any output check
failed, and non-zero without a result if the run itself broke.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2  # before the worker, and again after it
SETUP_CODE = "import time\nfrom mmwshare import cli\ncli.build_parser()\nprint(repr(time.perf_counter()))"
RUN_TIMEOUT_S = 170.0


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(argv: list[str], env: dict[str, str], deadline: float) -> str:
    """Runs ``argv`` in its own process group; returns its standard output."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{argv[1]} ran past the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} exited with code {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "mmwshare" / "cli.py").is_file():
        print(f"error: no package source at {src}/mmwshare; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = envinfo.record(src)
    print("env " + json.dumps(env, sort_keys=True))

    child = child_env(root)
    setups = []

    def probe_setup() -> None:
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            out = run_child([sys.executable, "-c", SETUP_CODE], child, deadline)
            setups.append(float(out.split()[-1]) - t0)

    probe_setup()

    base = root / ".perfbench"
    workdir = base / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    trace_out = base / "traces" / f"{args.workload}-seed{args.seed}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir), "--refs", str(HERE / "refs.json"),
            "--src", str(src), "--trace-out", str(trace_out), "--env", json.dumps(env)]
    try:
        out = run_child(argv + ["--spawned-at", repr(time.perf_counter())], child, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = json.loads(out.strip().splitlines()[-1])

    setups.append(res["setup_s"])
    probe_setup()
    metrics = dict(res["metrics"])
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    print("inputs " + json.dumps(res["inputs"], sort_keys=True))
    print(f"passes {res['passes']}, commands attempted {res['attempted']}, failed {res['failed']}")
    for problem in res["problems"]:
        print(f"FAIL {problem}")
    print(f"{'fail_ratio':<32} {res['failed'] / res['attempted']:.6g} ratio")
    for name, m in sorted(res.get("named", {}).items()):
        print(f"{name:<32} {m['value']:.6g} {m['unit']}")
    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"spans written to {trace_out.relative_to(root)}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
