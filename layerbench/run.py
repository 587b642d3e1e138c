#!/usr/bin/env python3
"""Layered benchmark for movant.

    python3 layerbench/run.py --workload grid_search --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; movant is imported from its ``src/``. With
``--trace 0`` the run times whole rounds of the workload until ``--seconds``
have passed and prints the end-to-end metrics, times put at a
reference machine speed by ``speed.py``; with ``--trace 1`` it
alternates untraced and traced rounds and prints the per-layer metrics. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record (and, when traced, a
span file) is written under ``layerbench/out/``. See README.md.
"""

import os

# one thread per run: BLAS threads would only contend on the tiny matrices
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy
import scipy

import layers
import selftest
import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
SETUP_SPEED_SAMPLES = 15
WORKLOAD_NAMES = ("grid_search", "stay_or_move", "antenna_sweep")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_movant():
    """Import movant from this checkout's src/, never from elsewhere."""
    init = SRC / "movant" / "__init__.py"
    if not init.is_file():
        sys.exit(f"layerbench: movant sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import movant
    import movant.cli  # noqa: F401 - the CLI layer's cost is its import, counted in setup_s

    if Path(movant.__file__).resolve() != init.resolve():
        sys.exit(f"layerbench: imported movant from {movant.__file__}, expected {init}")
    return movant


def probe_setup(args) -> tuple[float, float]:
    """Wall time of a fresh process that imports movant, builds the
    workload's inputs and runs one warm-up solve: (raw seconds, seconds at
    the reference speed, sampled just before and after the process)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    probe = speed.SpeedProbe()
    for _ in range(SETUP_SPEED_SAMPLES):
        probe.sample()
    start = time.perf_counter()
    # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    end = time.perf_counter()
    for _ in range(SETUP_SPEED_SAMPLES):
        probe.sample()
    return end - start, probe.reference_seconds(start, end)


def timed_round(workload, tracer=None):
    start = time.perf_counter()
    raw = workload.run_round(tracer)
    elapsed = time.perf_counter() - start
    return elapsed, workload.summarize(raw)


def digest(rows) -> str:
    """SHA-256 of the round's result rows, independent of operation order."""
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


def measure(args, workload, movant):
    """Rounds until ``args.seconds`` have passed, at least one. Returns
    (summaries, metrics, extra record fields)."""
    summaries = []
    if not args.trace:
        probe = speed.SpeedProbe()
        raw, at_reference, probe_ms = [], [], []
        start = time.perf_counter()
        while not summaries or time.perf_counter() - start < args.seconds:
            with probe:
                begin = time.perf_counter()
                out = workload.run_round()
                end = time.perf_counter()
            raw.append(end - begin)
            at_reference.append(probe.reference_seconds(begin, end))
            probe_ms.append(probe.median_s() * 1e3)
            summaries.append(workload.summarize(out))
            if probe.threaded or threading.active_count() > 1:
                summaries[-1].faults.append("a second thread ran during the round")
        metrics = {
            "wall_s": statistics.median(at_reference),
            "throughput_b_hz": statistics.fmean(summaries[0].throughputs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return summaries, metrics, {"round_s": raw, "round_reference_s": at_reference,
                                    "probe_ms": probe_ms}

    plain, traced, per_round, spans = [], [], [], []
    tracer = layers.Tracer()
    start = time.perf_counter()
    while not summaries or time.perf_counter() - start < args.seconds:
        elapsed, summary = timed_round(workload)
        plain.append(elapsed)
        summaries.append(summary)
        tracer.reset()
        tracer.install()
        try:
            elapsed, summary = timed_round(workload, tracer)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        summaries.append(summary)
        per_round.append(tracer.round_metrics())
        spans.extend(tracer.spans)

    counts = per_round[0][0]
    for other, _ in per_round[1:]:
        if other != counts:
            summaries[0].faults.append("per-layer counts differ between traced rounds")
    metrics = dict(counts)
    for name in per_round[0][1]:
        metrics[name] = statistics.median(times[name] for _, times in per_round)
    metrics.update(layers.kernel_microtimings(movant.kernels, movant.harness.default_scenario()))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    extra = {"round_s": plain, "traced_round_s": traced, "spans": spans}
    return summaries, metrics, extra


def write_record(args, record, spans):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, begin, end in spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                     "start": begin, "end": end}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    movant = import_movant()
    import workloads  # imports movant, so only after import_movant

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warmup()
    if args.setup_probe:
        return 0

    setup = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    faults = [f"self-test: {f}" for f in selftest.run_all()]
    faults += workload.extra_checks()

    summaries, metrics, extra = measure(args, workload, movant)
    first = summaries[0]
    for summary in summaries:
        faults += summary.faults
        if summary.rows != first.rows:
            faults.append("round results differ from the first round's")
        if (summary.attempted, summary.failed) != (first.attempted, first.failed):
            faults.append("round failure counts differ from the first round's")
    if setup:
        metrics = {"setup_s": statistics.median(at_reference for _, at_reference in setup), **metrics}
    names = [name for name, _, _ in layers.PER_LAYER] if args.trace else list(metrics)
    units = layers.UNITS if args.trace else {
        "setup_s": "s", "wall_s": "s", "throughput_b_hz": "b/Hz", "peak_rss_mb": "MB",
    }
    result = {
        "correct": not faults,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    spans = extra.pop("spans", [])
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_raw_s": [raw for raw, _ in setup],
        "setup_reference_s": [at_reference for _, at_reference in setup],
        **extra,
        "digest": digest(first.rows),
        "rows": first.rows,
        "rounds": len(summaries),
        "faults": faults,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": movant.kernels.NUMBA_ENABLED,
        "nproc": os.cpu_count(),
    }
    write_record(args, record, spans)
    for fault in faults[:20]:
        print(f"FAULT: {fault}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
