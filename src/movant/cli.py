"""Command-line interface: optimize, sweep, thresholds, special-case,
validate."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import MovantError
from .harness import (
    CSV_HEADER,
    RunConfig,
    SchemeId,
    SweepParameter,
    SweepSpec,
    csv_row,
    default_scenario,
    load_config,
    run_scheme,
    run_sweep,
    run_validation,
    scenario_from_config,
    threshold_summary,
    write_csv,
)
from .positioning import PenaltyConfig
from .stationarity import SpecialCase, verify_threshold


def _add_common(parser):
    parser.add_argument("--config", help="path to a key = value scenario config")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movant",
        description="Movable-antenna movement/transmission tradeoff simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run one scheme on one scenario")
    _add_common(p_opt)
    p_opt.add_argument(
        "--scheme",
        default="OTGM",
        choices=[s.value for s in SchemeId],
        help="benchmark scheme to run",
    )
    p_opt.add_argument("--grid-step", type=float, help="duration grid step in seconds")
    p_opt.add_argument("--samples", type=int, default=5, help="fitting sample count")
    p_opt.add_argument("--restarts", type=int, default=1, help="optimizer multi-starts")
    p_opt.add_argument("--out", help="write the result as a one-row CSV")

    p_sweep = sub.add_parser("sweep", help="sweep a scenario parameter over a grid")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--sweep",
        required=True,
        metavar="PARAM=V1,V2,...",
        help="swept parameter (Vmax, RegionL, NumAntennas, Duration) and grid",
    )
    p_sweep.add_argument(
        "--scheme",
        default=",".join(s.value for s in SchemeId),
        help="comma list of schemes to run (default: all)",
    )
    p_sweep.add_argument("--grid-step", type=float, help="duration grid step in seconds")
    p_sweep.add_argument("--samples", type=int, default=5)
    p_sweep.add_argument("--restarts", type=int, default=1)
    p_sweep.add_argument("--out", help="CSV output path (default: stdout)")

    p_thr = sub.add_parser("thresholds", help="stay/move thresholds at the start")
    _add_common(p_thr)
    p_thr.add_argument("--out", help="CSV output path")

    p_case = sub.add_parser(
        "special-case", help="two-antenna line benchmark: optimal duration vs speed"
    )
    p_case.add_argument("--case", choices=["wide", "narrow"], default="wide")
    p_case.add_argument(
        "--vmax",
        default="0.01:1.0:0.01",
        help="speed grid, 'start:stop:step' or a comma list",
    )
    p_case.add_argument("--out", help="CSV output path")

    p_val = sub.add_parser("validate", help="run the invariant spot checks")
    _add_common(p_val)

    return parser


def _scenario_from_args(args):
    if getattr(args, "config", None):
        return scenario_from_config(load_config(args.config))
    return default_scenario()


def _run_config_from_args(args) -> RunConfig:
    penalty = PenaltyConfig(restarts=getattr(args, "restarts", 1))
    return RunConfig(
        grid_step=getattr(args, "grid_step", None),
        samples=getattr(args, "samples", 5),
        penalty=penalty,
    )


def _parse_speed_grid(text: str) -> np.ndarray:
    if ":" in text:
        start, stop, step = (float(tok) for tok in text.split(":"))
        if step <= 0:
            raise ValueError("speed grid step must be positive")
        if stop < start:
            raise ValueError("speed grid stop lies below its start")
        count = int(round((stop - start) / step)) + 1
        return start + step * np.arange(count)
    grid = np.array([float(tok) for tok in text.split(",") if tok.strip()])
    if grid.size == 0:
        raise ValueError("speed grid is empty")
    return grid


def _emit(rows, out_path):
    if out_path:
        write_csv(rows, out_path)
        print(f"wrote {out_path}")
    else:
        print("\n".join(rows))


def _cmd_optimize(args) -> int:
    scenario = _scenario_from_args(args)
    scheme = SchemeId(args.scheme)
    report = run_scheme(scenario, scheme, _run_config_from_args(args))
    print(f"scheme          : {scheme.value}")
    print(f"movement time   : {report.best_t_mov:.6g} s")
    print(f"rate            : {report.best_rate:.6g} bits/s/Hz")
    print(f"throughput      : {report.best_throughput:.6g} bits/Hz")
    print(f"converged       : {report.converged}")
    if args.out:
        write_csv([CSV_HEADER, csv_row("", scheme, report)], args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    scenario = _scenario_from_args(args)
    if "=" not in args.sweep:
        raise ValueError("--sweep expects PARAM=V1,V2,...")
    name, values = args.sweep.split("=", 1)
    parameter = SweepParameter(name.strip())
    grid = tuple(float(tok) for tok in values.split(",") if tok.strip())
    schemes = tuple(SchemeId(tok.strip()) for tok in args.scheme.split(",") if tok.strip())
    if not schemes:
        raise ValueError("--scheme names no scheme")
    spec = SweepSpec(parameter=parameter, values=grid, schemes=schemes)
    rows = run_sweep(scenario, spec, _run_config_from_args(args))
    _emit(rows, args.out)
    return 0


def _cmd_thresholds(args) -> int:
    scenario = _scenario_from_args(args)
    report, rows = threshold_summary(scenario)
    print(f"initial rate    : {report.initial_rate:.6g} bits/s/Hz")
    print(f"gradient sum    : {report.gradient_norm_sum:.6g}")
    if report.stationary:
        print("speed threshold : (initial deployment already stationary)")
    else:
        print(f"speed threshold : {report.speed_threshold:.6g} wavelengths/s")
        print(f"time threshold  : {report.time_threshold:.6g} s")
    print(f"decision        : {report.decision.value}")
    if args.out:
        write_csv(rows, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_special_case(args) -> int:
    case = SpecialCase.WIDE_GAP if args.case == "wide" else SpecialCase.NARROW_GAP
    grid = _parse_speed_grid(args.vmax)
    rows = ["v_max_wl_s,optimal_t_mov_s"]
    for speed, t_star in verify_threshold(case, grid):
        rows.append(f"{speed!r},{t_star!r}")
    _emit(rows, args.out)
    return 0


def _cmd_validate(args) -> int:
    scenario = _scenario_from_args(args)
    results = run_validation(scenario)
    failed = 0
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{status}  {name}{suffix}")
        failed += 0 if passed else 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


_COMMANDS = {
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "thresholds": _cmd_thresholds,
    "special-case": _cmd_special_case,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (MovantError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
