"""Command line front end: analyze, simulate, estimate, press, compare.

Exit codes: 0 success, 2 configuration problems (also used by argparse),
3 data problems, 4 numerical failures.  All outputs are deterministic
for a fixed configuration and seed: no timestamps, stable float
formatting, replication-indexed random streams.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analytic, estimation, geometry, montecarlo
from .core import (
    KM2,
    REFERENCE_PRESET,
    ConfigError,
    DataError,
    NumericalError,
    SystemParams,
    TwoOpSpec,
    Window,
    check_seed,
    fcd_scenario,
    fid_scenario,
    load_blocks_file,
    load_params_file,
    params_to_dict,
)

DEFAULT_LAMBDA0_PER_KM2 = 30.0
DEFAULT_SINR_GRID = "-10:1:30"
DEFAULT_RATE_GRID_MBPS = "25:25:500"
MAX_GRID_POINTS = 10_000  # per --sinr / --rates grid


# ---------------------------------------------------------------------------
# Small parsers

def parse_grid(text: str, name: str) -> np.ndarray:
    """Inclusive lo:step:hi grid; hi is included when it lands on the grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--{name} expects lo:step:hi, got {text!r}")
    try:
        lo, step, hi = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--{name} expects numbers, got {text!r}") from exc
    if not all(math.isfinite(v) for v in (lo, step, hi)):
        raise ConfigError(f"--{name} expects finite numbers, got {text!r}")
    if step <= 0:
        raise ConfigError(f"--{name} step must be positive")
    if hi < lo:
        raise ConfigError(f"--{name} upper end must be >= lower end")
    steps = (hi - lo) / step + 1e-9
    if not steps < MAX_GRID_POINTS:
        raise ConfigError(f"--{name} grid {text!r} has more than {MAX_GRID_POINTS} points")
    return lo + step * np.arange(int(steps) + 1)


def parse_bins(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--bins expects comma-separated integers, got {text!r}") from exc


def parse_rhos(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--rhos expects comma-separated numbers, got {text!r}") from exc
    if any(not 0.0 <= v <= 1.0 for v in vals):
        raise ConfigError("--rhos values must lie in [0, 1]")
    labels = [f"{v:g}" for v in vals]  # compare names its columns by these
    if len(set(labels)) < len(labels):
        raise ConfigError(f"--rhos values must differ in their labels ({','.join(labels)})")
    return vals


def _load_params(args) -> SystemParams:
    return REFERENCE_PRESET if args.params is None else load_params_file(args.params)


def _worker_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _lambda0_km2(args) -> float:
    """--lambda0 per km^2, or its default when it was not given."""
    return DEFAULT_LAMBDA0_PER_KM2 if args.lambda0 is None else args.lambda0


def _density_per_m2(km2: float, flag: str) -> float:
    """A density option in SI units, checked in the per-km^2 units it was given in."""
    if not (math.isfinite(km2) and km2 > 0):
        raise ConfigError(f"--{flag} must be a positive density per km^2, got {km2:g}")
    return km2 / KM2


def _half_width_m(args) -> float | None:
    """Half of --window-km in meters, checked in the km it was given in; None if not given."""
    km = args.window_km
    if km is not None and not 0 < km < math.inf:
        raise ConfigError(f"--window-km must be a positive width in km, got {km:g}")
    return None if km is None else km * 1000.0 / 2.0


def _reject_unread(args, source: str, *flags: str) -> None:
    """ConfigError for a flag that was given although ``source`` never reads it."""
    for flag in flags:
        if getattr(args, flag.replace("-", "_"), None) is not None:
            raise ConfigError(f"--{flag} does not apply to {source}")


def _sharing(args) -> tuple[str, float] | None:
    """The mode and rho of ``--fid RHO`` or ``--fcd RHO``; None when neither is given."""
    if args.fid is not None and args.fcd is not None:
        raise ConfigError("--fid and --fcd are mutually exclusive")
    for mode in ("fid", "fcd"):
        value = getattr(args, mode)
        if value is not None:
            try:
                return mode, float(value)
            except ValueError as exc:
                raise ConfigError(f"--{mode} expects a number, got {value!r}") from exc
    return None


def _sharing_spec(mode: str, rho: float, lambda0_km2: float) -> tuple[TwoOpSpec, str]:
    """The FID or FCD scenario and its ``rho=..., lambda0=...`` text."""
    make = fid_scenario if mode == "fid" else fcd_scenario
    spec = make(_density_per_m2(lambda0_km2, "lambda0"), rho)
    return spec, f"rho={rho!r}, lambda0={lambda0_km2!r}/km^2"


def _resolve_scenario(args):
    """Returns (scenario, description) of the one source."""
    sharing = _sharing(args)
    deployment_path = getattr(args, "deployment", None)
    sources = sum([args.blocks is not None, deployment_path is not None, sharing is not None])
    if sources == 0:
        raise ConfigError(
            "no scenario given: use --blocks FILE, --fid X or --fcd X, or --deployment FILE"
        )
    if sources > 1:
        raise ConfigError("--blocks, --fid/--fcd and --deployment are mutually exclusive")
    if sharing is None:
        _reject_unread(args, "--blocks or --deployment", "lambda0")
    if deployment_path is not None:
        dep = geometry.read_deployment_csv(deployment_path)
        return dep, f"deployment({deployment_path}, n_sites={dep.n_sites})"
    if args.blocks is not None:
        model = load_blocks_file(args.blocks)
        return model, model.to_text()
    model, text = _sharing_spec(*sharing, _lambda0_km2(args))
    return model, f"{sharing[0]}({text})"


def _operator_density(scenario, operator: int = 1) -> float:
    if isinstance(scenario, geometry.Deployment):
        return estimation.estimate_density(scenario, operator)
    return analytic.operator_density_of(scenario, operator)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Subcommands

def cmd_analyze(args) -> int:
    params = _load_params(args)
    scenario, desc = _resolve_scenario(args)
    grid = parse_grid(args.sinr or DEFAULT_SINR_GRID, "sinr")
    rates = parse_grid(args.rates, "rates") * 1e6 if args.rates else None
    curve = analytic.sinr_coverage(scenario, params, grid, workers=args.threads)
    rcurve = None if rates is None else analytic.rate_coverage(scenario, params, rates,
                                                               workers=args.threads)
    med = analytic.median_rate(scenario, params) if args.median else None
    out = _out_dir(args)  # once the results exist, so that a failed run leaves no --out
    curve.to_csv(out / "sinr_coverage.csv")
    print(f"wrote {out / 'sinr_coverage.csv'}")
    lines = [
        f"scenario: {desc}",
        "engine: analytic",
        f"sinr_grid_db: {args.sinr or DEFAULT_SINR_GRID}",
    ]
    if rcurve is not None:
        rcurve.to_csv(out / "rate_coverage.csv")
        print(f"wrote {out / 'rate_coverage.csv'}")
        lines.append(f"rate_grid_mbps: {args.rates}")
    if med is not None:
        lines.append(f"median_rate_bps: {med!r}")
        print(f"median rate: {med / 1e6:.3f} Mbps")
    lines.append("parameters:")
    lines.append(json.dumps(params_to_dict(params), sort_keys=True, indent=2))
    _write(out / "summary.txt", "\n".join(lines) + "\n")
    return 0


def cmd_simulate(args) -> int:
    params = _load_params(args)
    scenario, _ = _resolve_scenario(args)
    grid = parse_grid(args.sinr or DEFAULT_SINR_GRID, "sinr")
    rates = parse_grid(args.rates, "rates") * 1e6 if args.rates else None
    plan = montecarlo.SimPlan(replications=args.reps, seed=args.seed, workers=args.threads)
    result = montecarlo.run_simulation(scenario, params, plan)
    out = _out_dir(args)  # after the run, so that a refused scenario leaves no --out
    montecarlo.sinr_curve_from_samples(result.sinr, grid).to_csv(out / "sinr_empirical.csv")
    print(f"wrote {out / 'sinr_empirical.csv'}")
    if rates is not None:
        lam_op = _operator_density(scenario, plan.home_operator)
        rcurve = montecarlo.rate_curve_from_samples(result.sinr, rates, params, lam_op)
        rcurve.to_csv(out / "rate_empirical.csv")
        print(f"wrote {out / 'rate_empirical.csv'}")
    _write(out / "run_report.txt", result.report.to_text())
    return 0


def cmd_estimate(args) -> int:
    sharing = _sharing(args)
    bins = parse_bins(args.bins) if args.bins else estimation.DEFAULT_BIN_COUNTS
    if args.deployment is not None:
        if sharing is not None:
            raise ConfigError("--deployment and --fid/--fcd are mutually exclusive")
        _reject_unread(args, "--deployment", "lambda0", "seed", "window-km")
        dep = geometry.read_deployment_csv(args.deployment)
        source = f"deployment({args.deployment})"
    elif sharing is not None:
        # synthetic round trip: sample a coupled deployment, then estimate
        spec, text = _sharing_spec(*sharing, _lambda0_km2(args))
        half = _half_width_m(args)
        if half is None:
            raise ConfigError("synthetic estimation needs --window-km for the sampling window")
        seed = 0 if args.seed is None else args.seed
        check_seed(seed)
        window = Window.square(half)
        dep = geometry.couple_two_operators(spec, window, seed)
        source = f"synthetic({sharing[0]}, {text}, seed={seed})"
    else:
        raise ConfigError("no data given: use --deployment FILE, or --fid X or --fcd X "
                          "with --window-km W")
    if args.eps_coloc != 0:  # merge_colocated rejects NaN, infinities and negatives
        dep = estimation.merge_colocated(dep, args.eps_coloc)
    report = estimation.overlap_report(dep, bins)
    summary = estimation.sharing_summary(dep)
    out = _out_dir(args)
    text = (
        f"source: {source}\n"
        f"colocation_merge_eps_m: {args.eps_coloc!r}\n"
        + report.to_text()
        + summary.to_text()
    )
    _write(out / "overlap_report.txt", text)
    rows = ["n_bins,rho_direct,rho_smoothed"]
    for nb, raw, sm in report.bins_csv_rows():
        rows.append(f"{nb},{raw!r},{sm!r}")
    _write(out / "rho_vs_bins.csv", "\n".join(rows) + "\n")
    print(
        f"rho_indirect={report.rho_indirect:.4f} "
        f"rho_direct_plateau={report.rho_plateau:.4f}"
    )
    return 0


def cmd_press(args) -> int:
    target = _density_per_m2(args.target_density, "target-density")
    dep = geometry.read_deployment_csv(args.deployment)
    pressed = geometry.press(dep, target, operator=args.operator)
    out = _out_dir(args)
    geometry.write_deployment_csv(pressed, out / "pressed.csv")
    print(f"wrote {out / 'pressed.csv'}")
    new_density = estimation.estimate_density(pressed, args.operator) * KM2
    print(f"pressed density: {new_density:.6g} /km^2 over {pressed.window.area() / KM2:.6g} km^2")
    return 0


def cmd_compare(args) -> int:
    params = _load_params(args)
    rhos = parse_rhos(args.rhos) if args.rhos else (0.0, 0.4, 1.0)
    lam0 = _density_per_m2(_lambda0_km2(args), "lambda0")
    rates = parse_grid(args.rates or DEFAULT_RATE_GRID_MBPS, "rates") * 1e6
    half_b = dataclasses.replace(params, bandwidth_hz=params.bandwidth_hz / 2.0)
    runs: list[tuple[str, object, SystemParams]] = []
    for rho in rhos:
        runs.append((f"fid_rho{rho:g}", fid_scenario(lam0, rho), params))
    for rho in rhos:
        runs.append((f"fcd_rho{rho:g}", fcd_scenario(lam0, rho), params))
    single = TwoOpSpec(lam0, 1.0, 1.0)  # operator 1 alone at density lam0
    runs.append((f"single_{half_b.bandwidth_hz / 1e6:g}mhz", single, half_b))
    runs.append((f"single_{params.bandwidth_hz / 1e6:g}mhz", single, params))
    plans = [montecarlo.SimPlan(replications=args.reps, seed=(args.seed, i), workers=args.threads)
             for i in range(len(runs))]

    curves: dict[str, analytic.CoverageCurve] = {}
    medians: dict[str, float] = {}
    reports: list[str] = []
    for (label, scenario, run_params), plan in zip(runs, plans):
        result = montecarlo.run_simulation(scenario, run_params, plan)
        lam_op = _operator_density(scenario, 1)
        curves[label] = montecarlo.rate_curve_from_samples(result.sinr, rates, run_params, lam_op)
        medians[label] = montecarlo.median_rate_from_samples(result.sinr, run_params, lam_op)
        reports.append(f"[{label}]\n{result.report.to_text()}")
    out = _out_dir(args)  # once the results exist, so that a failed run leaves no --out
    labels = [label for label, _, _ in runs]
    header = ["rate_mbps"]
    for label in labels:
        header += [label, f"{label}_ci"]
    lines = [",".join(header)]
    for j, rate in enumerate(rates):
        row = [repr(float(rate / 1e6))]
        for label in labels:
            cv = curves[label]
            row += [repr(float(cv.probabilities[j])), repr(float(cv.ci_halfwidth[j]))]
        lines.append(",".join(row))
    _write(out / "compare_rates.csv", "\n".join(lines) + "\n")
    med_lines = ["label,median_rate_bps"]
    for label in labels:
        med_lines.append(f"{label},{medians[label]!r}")
    _write(out / "compare_medians.csv", "\n".join(med_lines) + "\n")
    _write(out / "run_report.txt", "\n".join(reports))
    return 0


# ---------------------------------------------------------------------------
# Parser assembly

def _add_common(p: argparse.ArgumentParser, engine: bool) -> None:
    """--out, plus the parameter and worker options of the commands that run an engine."""
    p.add_argument("--out", default=".", metavar="DIR", help="output directory")
    if engine:
        p.add_argument("--params", metavar="FILE",
                       help="JSON parameter overrides of the paper-sec5 preset")
        p.add_argument("--threads", type=_worker_count, default=1,
                       help="worker process cap (at least 1)")


def _add_scenario(p: argparse.ArgumentParser, blocks: bool, deployment: bool) -> None:
    if blocks:
        p.add_argument("--blocks", metavar="FILE", help="JSON block-density table")
    p.add_argument("--lambda0", type=float, metavar="Y",
                   help=f"per-operator density per km^2 of --fid/--fcd "
                        f"(default {DEFAULT_LAMBDA0_PER_KM2:g})")
    p.add_argument("--fid", metavar="RHO", help="fixed-individual-density sharing at rho")
    p.add_argument("--fcd", metavar="RHO", help="fixed-cumulative-density sharing at rho")
    if deployment:
        p.add_argument("--deployment", metavar="FILE", help="site CSV to use as-is")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwshare",
        description="SINR and rate coverage of spectrum- and site-sharing mmWave networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="coverage curves by numerical integration")
    _add_common(p, engine=True)
    _add_scenario(p, blocks=True, deployment=False)
    p.add_argument("--sinr", metavar="LO:STEP:HI", help=f"SINR grid in dB (default {DEFAULT_SINR_GRID})")
    p.add_argument("--rates", metavar="LO:STEP:HI", help="also compute rate coverage (grid in Mbps)")
    p.add_argument("--median", action="store_true", help="also compute the median rate")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="coverage curves by Monte Carlo")
    _add_common(p, engine=True)
    _add_scenario(p, blocks=True, deployment=True)
    p.add_argument("--sinr", metavar="LO:STEP:HI", help=f"SINR grid in dB (default {DEFAULT_SINR_GRID})")
    p.add_argument("--rates", metavar="LO:STEP:HI", help="also compute rate coverage (grid in Mbps)")
    p.add_argument("--reps", type=int, default=20000, help="Monte Carlo replications")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="densities and overlap from site data")
    _add_common(p, engine=False)
    _add_scenario(p, blocks=False, deployment=True)
    p.add_argument("--eps-coloc", type=float, default=estimation.DEFAULT_MERGE_EPS_M,
                   metavar="M", help="co-location merge radius in meters (0 disables)")
    p.add_argument("--bins", metavar="K1,K2,...", help="counting-grid sizes (perfect squares)")
    p.add_argument("--seed", type=int, help="seed for synthetic sampling (default 0)")
    p.add_argument("--window-km", type=float, metavar="W",
                   help="window side length (km) for synthetic sampling")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("press", help="rescale a deployment to a target density")
    _add_common(p, engine=False)
    p.add_argument("--deployment", metavar="FILE", required=True, help="site CSV to press")
    p.add_argument("--target-density", type=float, required=True, metavar="X",
                   help="target density per km^2")
    p.add_argument("--operator", type=int, help="match this operator's density (default: all sites)")
    p.set_defaults(func=cmd_press)

    p = sub.add_parser("compare", help="rate coverage of sharing modes vs single operator")
    _add_common(p, engine=True)
    p.add_argument("--rhos", metavar="R1,R2,...", help="sharing fractions (default 0,0.4,1)")
    p.add_argument("--lambda0", type=float, metavar="Y",
                   help=f"per-operator density per km^2 (default {DEFAULT_LAMBDA0_PER_KM2:g})")
    p.add_argument("--rates", metavar="LO:STEP:HI",
                   help=f"rate grid in Mbps (default {DEFAULT_RATE_GRID_MBPS})")
    p.add_argument("--reps", type=int, default=20000, help="Monte Carlo replications per curve")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_compare)

    return parser


def _merge_grid_values(argv: list[str]) -> list[str]:
    """Let ``--sinr -10:1:30`` parse: argparse mistakes the value for a flag."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in ("--sinr", "--rates") and nxt and nxt.startswith("-") and ":" in nxt:
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_merge_grid_values(argv))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # an --out that cannot be created or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
