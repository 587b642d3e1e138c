#!/usr/bin/env python3
"""Interleaved A/B runs of the layered benchmark on two checkouts.

    python3 tools/ab.py PARENT CHANGE --workload W [W ...] --pairs 10 [--seed 1 [2 ...]] [--json PATH]

Runs ``layerbench/run.py --workload W --seed S --seconds X`` (15 s unless
``--seconds`` says otherwise) in the PARENT and CHANGE checkouts, one run at
a time, pair after pair. With several workloads or seeds, each pair runs
every workload at every seed in turn, so their pairs interleave. Each run
alternates which side goes first from one pair to the next, and so do the
runs of one pair (``run_order``), so that no verdict carries an effect of
the order. Everything below is reported per workload: one run shows a
claimed gain on one workload and the no-regression verdicts on the others.
Prints each pair's end-to-end metrics, then per seed each side's median and
quartiles, and the number of pairs in which the change read better, per
metric (ties count for neither side); the better direction of each metric
comes from CHANGE's ``BENCHMARK.json``. A verdict line per metric says
whether a gain may be claimed: the change wins at least nine tenths of the
pairs, and its median is better than the parent's by more than the
parent's interquartile range. A second verdict line per metric says
whether the change is free of regression: its median, shown relative to
the parent's, is worse by no more than the metric's ``bound`` in
``BENCHMARK.json``, read as a fraction of the parent's median; it is
"unresolved" where the parent's interquartile range is wider than that
bound, unless every run of the change reads better than every run of the
parent. With several seeds, a pooled table and verdicts over the pairs of
every seed follow. Exits with status 1 when a run reports incorrect
answers, when the two sides' result digests differ in any pair, or when
the change fails a larger share of a workload's operations than the
parent: ``failed`` over ``attempted``, read from each run's last line and
summed over the workload's runs. The digests
and result rows are read from each checkout's
``layerbench/out/<W>-seed<S>-trace0.json``. Where the digests differ, the
result rows that only one side's record holds are printed once per seed,
so a change that moves results shows which rows it moved. ``--json PATH``
also writes the run to PATH: each pair's metrics and digests, per seed
(and pooled) each metric's quartiles, wins and both verdicts, per seed
the rows that differ, and each side's (failed, attempted) sums; with
several workloads it holds a list of such records, one per workload.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--json", type=Path, help="write the pairs and verdicts to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def run_order(pair: int, position: int) -> tuple:
    """The sides in the order they run in pair ``pair`` (counted from 1) of
    the run at ``position`` (counted from 0) among the pair's runs, each
    workload's seeds in turn: the parent first where pair + position is
    odd, else the change."""
    return SIDES if (pair + position) % 2 else SIDES[::-1]


def run_side(root: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One untraced benchmark run in ``root``: (end-to-end metric values,
    its run record, whether the answers were correct, its (failed,
    attempted) operations)."""
    cmd = [
        sys.executable, "layerbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"ab: layerbench failed in {root} (exit {done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = root / "layerbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    counts = (result["failed"], result["attempted"])
    return metrics, json.loads(record.read_text()), result["correct"] is True, counts


def moved_rows(parent: list, change: list) -> dict:
    """Per side, in its own order, the result rows the other side lacks."""
    in_parent, in_change = set(parent), set(change)
    return {
        "parent": [row for row in parent if row not in in_change],
        "change": [row for row in change if row not in in_parent],
    }


def quartiles(values: list) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the ends."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def claim(parent: list, change: list, is_lower: bool) -> tuple[bool, int, float, float]:
    """(whether a gain may be claimed, the change's wins, the median gap
    in the better direction, the parent's interquartile range) over paired
    runs ``parent`` and ``change`` of one metric; ties count for neither."""
    wins = sum(c < p if is_lower else c > p for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    c2 = quartiles(change)[1]
    gap = p2 - c2 if is_lower else c2 - p2
    return 10 * wins >= 9 * len(parent) and gap > p3 - p1, wins, gap, p3 - p1


def regression(parent: list, change: list, is_lower: bool, bound: float) -> tuple[str, float]:
    """(verdict, the change's median relative to the parent's) over paired
    runs ``parent`` and ``change`` of one metric whose ``bound`` is a
    fraction of the parent's median. The verdict is "regression" where the
    change's median is worse than the parent's by more than the bound,
    else "unresolved" where the parent's interquartile range is wider than
    the bound and some run of the change reads no better than some run of
    the parent, else "no regression"."""
    p1, p2, p3 = quartiles(parent)
    c2 = quartiles(change)[1]
    allowed = bound * abs(p2)
    worse = c2 - p2 if is_lower else p2 - c2
    ahead = max(change) < min(parent) if is_lower else min(change) > max(parent)
    if worse > allowed:
        verdict = "regression"
    elif p3 - p1 > allowed and not ahead:
        verdict = "unresolved"
    else:
        verdict = "no regression"
    return verdict, (c2 - p2) / abs(p2) if p2 else math.nan


def summarize(values: dict, lower: dict, bounds: dict) -> dict:
    """Per metric, each side's quartiles and the claim and no-regression
    verdicts over the paired runs in ``values``, per side a list of runs'
    metrics."""
    summary = {}
    for name, is_lower in lower.items():
        parent = [run[name] for run in values["parent"]]
        change = [run[name] for run in values["change"]]
        holds, wins, gap, iqr = claim(parent, change, is_lower)
        verdict, relative = regression(parent, change, is_lower, bounds[name])
        summary[name] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "wins": wins,
            "pairs": len(parent),
            "median_gap": gap,
            "parent_iqr": iqr,
            "claim": holds,
            "relative_change": relative,
            "bound": bounds[name],
            "regression": verdict,
        }
    return summary


def report(title: str, summary: dict) -> None:
    """The quartile table and the verdict lines of ``summarize``'s
    ``summary`` under ``title``."""
    print(f"\n{title}")
    print(f"{'metric':<18}{'parent q1 / median / q3':>36}{'change q1 / median / q3':>36}  wins")
    verdicts = []
    for name, row in summary.items():
        cells = "".join(f"{q:>12.6g}" for side in ("parent", "change") for q in row[side])
        print(f"{name:<18}{cells}  {row['wins']}/{row['pairs']}")
        verdicts.append(
            f"{name}: claim {'holds' if row['claim'] else 'does not hold'} "
            f"({row['wins']}/{row['pairs']} wins, 9/10 needed; median gap "
            f"{row['median_gap']:.6g} vs parent IQR {row['parent_iqr']:.6g})"
        )
        verdicts.append(
            f"{name}: {row['regression']} (change median {row['relative_change']:+.2%} "
            f"from the parent's, bound {row['bound']:.0%})"
        )
    print("\n".join(verdicts))


def label(pair: int, workload: str, seed: int, args) -> str:
    """A run's name in the printed lines: its pair, then its workload and
    seed where ``--workload`` or ``--seed`` name several."""
    parts = [f"pair {pair}"]
    if len(args.workload) > 1:
        parts.append(workload)
    if len(args.seed) > 1:
        parts.append(f"seed {seed}")
    return " ".join(parts)


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    lower = {metric["name"]: metric["better"] == "lower" for metric in declared}
    bounds = {metric["name"]: metric["bound"] for metric in declared}
    # each pair runs every workload at every seed, in this order
    runs = [(workload, seed) for workload in args.workload for seed in args.seed]
    values = {run: {side: [] for side in SIDES} for run in runs}
    faults = {workload: [] for workload in args.workload}
    pairs = {workload: [] for workload in args.workload}
    # per workload and seed, the rows of its first pair whose digests differ
    moved = {workload: {} for workload in args.workload}
    # per workload and side, the (failed, attempted) operations of its runs
    failed = {workload: {side: [0, 0] for side in SIDES} for workload in args.workload}
    for pair in range(1, args.pairs + 1):
        for position, (workload, seed) in enumerate(runs):
            order = run_order(pair, position)
            name = label(pair, workload, seed, args)
            got = values[(workload, seed)]
            records = {}
            for side in order:
                metrics, records[side], correct, counts = run_side(
                    roots[side], workload, seed, args.seconds
                )
                got[side].append(metrics)
                failed[workload][side] = [a + b for a, b in zip(failed[workload][side], counts)]
                if not correct:
                    faults[workload].append(f"{name}: {side} reports incorrect answers")
            pairs[workload].append(
                {
                    "pair": pair,
                    "seed": seed,
                    "first": order[0],
                    **{side: got[side][-1] for side in SIDES},
                    "digests": {side: records[side]["digest"] for side in SIDES},
                }
            )
            digests = pairs[workload][-1]["digests"]
            if digests["parent"] != digests["change"]:
                faults[workload].append(
                    f"{name}: digests differ, {digests['parent']} / {digests['change']}"
                )
                if seed not in moved[workload]:
                    moved[workload][seed] = moved_rows(
                        records["parent"]["rows"], records["change"]["rows"]
                    )
            cells = "  ".join(
                f"{metric} {got['parent'][-1][metric]:.6g} / {got['change'][-1][metric]:.6g}"
                for metric in lower
            )
            shown = name.replace(f"pair {pair}", f"pair {pair:2d}", 1)
            print(f"{shown} ({order[0]} first)  parent / change:  {cells}", flush=True)

    records = []
    for workload in args.workload:
        (pf, pa), (cf, ca) = (failed[workload][side] for side in SIDES)
        if cf * pa > pf * ca:
            faults[workload].append(
                f"{workload}: the change fails {cf} of {ca} operations, the parent {pf} of {pa}"
            )
        summaries = []
        for seed in args.seed:
            title = f"{workload}, seed {seed}, {args.pairs} pairs of {args.seconds:g} s runs"
            metrics = summarize(values[(workload, seed)], lower, bounds)
            summaries.append({"seed": seed, "title": title, "metrics": metrics})
        if len(args.seed) > 1:
            pooled = {
                side: [run for seed in args.seed for run in values[(workload, seed)][side]]
                for side in SIDES
            }
            seeds = " ".join(str(seed) for seed in args.seed)
            title = f"{workload}, pooled over seeds {seeds}, {len(pooled['parent'])} pairs"
            metrics = summarize(pooled, lower, bounds)
            summaries.append({"seed": "pooled", "title": title, "metrics": metrics})
        for summary in summaries:
            report(summary["title"], summary["metrics"])
        prefix = f"{workload} " if len(args.workload) > 1 else ""
        for seed, rows in moved[workload].items():
            print(f"\n{prefix}seed {seed}: result rows that differ (- parent only, + change only)")
            for side, mark in (("parent", "-"), ("change", "+")):
                for row in rows[side]:
                    print(f"{mark} {row}")
        records.append(
            {
                "workload": workload,
                "seeds": args.seed,
                "pairs": args.pairs,
                "seconds": args.seconds,
                "host": {
                    "machine": platform.machine(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                },
                "runs": pairs[workload],
                "summaries": summaries,
                "faults": faults[workload],
                "failed": failed[workload],
                "moved_rows": [{"seed": seed, **rows} for seed, rows in moved[workload].items()],
            }
        )
    every = [fault for workload in args.workload for fault in faults[workload]]
    for fault in every:
        print(f"FAULT: {fault}", file=sys.stderr)
    print(f"{len(every)} fault(s)" if every else "answers correct, digests equal in every pair")
    if args.json is not None:
        written = records[0] if len(records) == 1 else records
        args.json.write_text(json.dumps(written, indent=2) + "\n")
    return 1 if every else 0


if __name__ == "__main__":
    sys.exit(main())
