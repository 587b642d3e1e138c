#!/usr/bin/env python3
"""Interleaved A/B runs of the layered benchmark on two checkouts.

    python3 tools/ab.py PARENT CHANGE --workload grid_search --pairs 10 [--seed 1]

Runs ``layerbench/run.py --workload W --seed S --seconds X`` (15 s unless
``--seconds`` says otherwise) in the PARENT and CHANGE checkouts, one run at
a time, pair after pair, alternating which side runs first. Prints each
pair's end-to-end metrics, each side's median and quartiles, and the number
of pairs in which the change read better, per metric (ties count for
neither side); the better direction of each metric comes from CHANGE's
``BENCHMARK.json``. Exits with status 1 when a run reports incorrect
answers or the two sides' result digests differ in any pair; the digests
are read from each checkout's ``layerbench/out/<W>-seed<S>-trace0.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def run_side(root: Path, args) -> tuple[dict, str, bool]:
    """One untraced benchmark run in ``root``: (end-to-end metric values,
    result digest, whether the answers were correct)."""
    cmd = [
        sys.executable, "layerbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"ab: layerbench failed in {root} (exit {done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = root / "layerbench" / "out" / f"{args.workload}-seed{args.seed}-trace0.json"
    digest = json.loads(record.read_text())["digest"]
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return metrics, digest, result["correct"] is True


def quartiles(values: list) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the ends."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    lower = {metric["name"]: metric["better"] == "lower" for metric in declared}
    values = {side: [] for side in SIDES}
    faults = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        digests = {}
        for side in order:
            metrics, digests[side], correct = run_side(roots[side], args)
            values[side].append(metrics)
            if not correct:
                faults.append(f"pair {pair}: {side} reports incorrect answers")
        if digests["parent"] != digests["change"]:
            faults.append(f"pair {pair}: digests differ, {digests['parent']} / {digests['change']}")
        cells = "  ".join(
            f"{name} {values['parent'][-1][name]:.6g} / {values['change'][-1][name]:.6g}"
            for name in lower
        )
        print(f"pair {pair:2d} ({order[0]} first)  parent / change:  {cells}", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print(f"{'metric':<18}{'parent q1 / median / q3':>36}{'change q1 / median / q3':>36}  wins")
    for name, is_lower in lower.items():
        parent = [run[name] for run in values["parent"]]
        change = [run[name] for run in values["change"]]
        wins = sum(c < p if is_lower else c > p for p, c in zip(parent, change))
        cells = "".join(f"{q:>12.6g}" for runs in (parent, change) for q in quartiles(runs))
        print(f"{name:<18}{cells}  {wins}/{args.pairs}")
    for fault in faults:
        print(f"FAULT: {fault}", file=sys.stderr)
    print(f"{len(faults)} fault(s)" if faults else "answers correct, digests equal in every pair")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
