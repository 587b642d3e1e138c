"""Self-tests of the benchmark's checks.

Each check must accept the reference answer and reject an answer made wrong
on purpose. Needs only NumPy: the scenarios are plain namespaces holding the
raw fields of movant's default scenario and two-antenna wide case. Run with

    python3 layerbench/selftest.py

``run.py`` runs the same tests before every measurement.
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import reference as ref


def default_scenario(**changes):
    """The raw fields of movant's built-in default scenario."""
    fields = dict(
        elevation_angles=np.array([math.pi / 2, math.pi / 4, math.pi / 6, math.pi / 8]),
        azimuth_angles=np.array([math.pi / 3, math.pi / 5, math.pi / 7, math.pi / 8]),
        fading_coeffs=np.full(4, 1e-4 * 100.0**-2),
        noise_power=10.0 ** ((-80.0 - 30.0) / 10.0),
        total_power=10.0 ** ((15.0 - 30.0) / 10.0),
        wavelength=1.0,
        topology="square",
        region_side=10.0,
        min_spacing=0.5,
        max_speed=6.0,
        interval=8.0,
        initial_positions=np.array([[4.5, 0.0], [5.0, 0.0], [5.5, 0.0], [6.0, 0.0], [6.5, 0.0]]),
    )
    fields.update(changes)
    return SimpleNamespace(**fields)


def wide_case():
    """Two antennas at x = 4 and 6 on a segment, two users whose direction
    cosines differ by 1/8, unit powers, 0.5 wl/s, 5 s."""
    return SimpleNamespace(
        elevation_angles=np.arccos([0.5, 0.625]),
        azimuth_angles=np.zeros(2),
        fading_coeffs=np.ones(2),
        noise_power=1.0,
        total_power=1.0,
        wavelength=1.0,
        topology="segment",
        region_side=10.0,
        min_spacing=0.5,
        max_speed=0.5,
        interval=5.0,
        initial_positions=np.array([[4.0, 0.0], [6.0, 0.0]]),
    )


def _expect(failures, name, faults, want_fault):
    if bool(faults) != want_fault:
        verb = "accepted a wrong answer" if want_fault else f"rejected the reference answer: {faults}"
        failures.append(f"{name}: {verb}")


def run_all() -> list[str]:
    """Names of the self-tests that failed (empty when all pass)."""
    failures = []
    s = default_scenario()
    start = s.initial_positions
    rate = ref.rate(s, start)

    if abs(ref.rate_ceiling(s) - 5.3409) > 1e-4:
        failures.append(f"ceiling of the default scenario is {ref.rate_ceiling(s)}, not 5.3409")

    _expect(failures, "rate", checks.rate_faults(s, start, rate), False)
    _expect(failures, "rate +1e-6", checks.rate_faults(s, start, rate * (1 + 1e-6)), True)
    _expect(failures, "rate -1e-6", checks.rate_faults(s, start, rate * (1 - 1e-6)), True)

    t = 1.0
    _expect(failures, "throughput", checks.throughput_faults(s, t, rate, (s.interval - t) * rate), False)
    _expect(failures, "throughput T*rate", checks.throughput_faults(s, t, rate, s.interval * rate), True)
    _expect(failures, "throughput +1e-9",
            checks.throughput_faults(s, t, rate, (s.interval - t) * rate * (1 + 1e-9)), True)
    _expect(failures, "t_mov beyond T", checks.throughput_faults(s, 9.0, rate, -rate), True)

    ceiling = ref.rate_ceiling(s)
    _expect(failures, "ceiling", checks.ceiling_faults(s, ceiling), False)
    _expect(failures, "above ceiling", checks.ceiling_faults(s, ceiling * (1 + 1e-9)), True)

    reach = s.max_speed * 0.1
    moved = start.copy()
    moved[0] += [0.0, reach]
    _expect(failures, "static deployment", ref.feasibility_faults(s, start, 0.0), False)
    _expect(failures, "move within reach", ref.feasibility_faults(s, moved, reach), False)
    outside = start.copy()
    outside[0] += [0.0, reach + 1e-3]
    _expect(failures, "outside reach disk", ref.feasibility_faults(s, outside, reach), True)
    crowded = start.copy()
    crowded[1] = crowded[0] + [0.4, 0.0]
    _expect(failures, "spacing", ref.feasibility_faults(s, crowded, None), True)
    escaped = start.copy()
    escaped[0] = [-0.1, 0.0]
    _expect(failures, "outside region", ref.feasibility_faults(s, escaped, None), True)

    curve = [SimpleNamespace(t_mov=t, rate=rate, throughput=(s.interval - t) * rate) for t in (0.0, 0.5, 1.0)]
    top = curve[0].throughput
    _expect(failures, "curve", checks.curve_faults(s, 0.0, top, curve), False)
    _expect(failures, "curve best not its maximum", checks.curve_faults(s, 0.5, curve[1].throughput, curve), True)
    holed = [curve[0], SimpleNamespace(t_mov=0.5, rate=math.nan, throughput=math.nan), curve[2]]
    _expect(failures, "curve with a NaN point", checks.curve_faults(s, 0.0, top, holed), True)
    _expect(failures, "curve with a failed duration",
            checks.curve_faults(s, 0.0, top, curve, ((0.5, "InfeasibleSpacing"),)), True)

    _expect(failures, "stay", checks.stay_faults(0.0), False)
    _expect(failures, "stationary case moves", checks.stay_faults(0.16), True)

    wide = wide_case()
    # closed form: R = log2(1 + sin^2(pi/8 gap)), |dR/dx_n| = (pi/8) sin(pi/4 gap) / (ln 2 (1 + sin^2))
    gap = 2.0
    r0 = math.log2(1.0 + math.sin(math.pi / 8 * gap) ** 2)
    slope = (math.pi / 8) * math.sin(math.pi / 4 * gap) / (math.log(2.0) * (1.0 + math.sin(math.pi / 8 * gap) ** 2))
    v_th = r0 / (wide.interval * 2.0 * slope)
    if abs(ref.speed_threshold_fd(wide) - v_th) > 1e-7 * v_th:
        failures.append(f"finite-difference threshold {ref.speed_threshold_fd(wide)} != closed form {v_th}")
    _expect(failures, "threshold", checks.threshold_faults(wide, v_th, "move"), False)
    _expect(failures, "threshold +1e-3", checks.threshold_faults(wide, v_th * 1.001, "move"), True)
    _expect(failures, "wrong decision", checks.threshold_faults(wide, v_th, "stay"), True)

    step = 0.05
    grid = checks.duration_grid(wide.interval, step)
    values = ref.two_antenna_throughput(grid, gap, wide.max_speed, wide.interval)
    t_best, best = float(grid[np.argmax(values)]), float(values.max())
    _expect(failures, "two-antenna optimum", checks.two_antenna_faults(wide, step, t_best, best), False)
    _expect(failures, "two-antenna +1e-6",
            checks.two_antenna_faults(wide, step, t_best, best * (1 + 1e-6)), True)
    _expect(failures, "two-antenna wrong duration", checks.two_antenna_faults(wide, step, 0.0, best), True)
    return failures


def benchmark_json_faults(path: Path) -> list[str]:
    """BENCHMARK.json lists exactly the per-layer metrics the code emits."""
    import layers

    spec = json.loads(path.read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    return [] if listed == layers.PER_LAYER else ["BENCHMARK.json per_layer differs from layers.PER_LAYER"]


if __name__ == "__main__":
    failed = run_all() + benchmark_json_faults(Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    for line in failed:
        print(line)
    print(f"{'FAILED' if failed else 'ok'}: {len(failed)} self-test failures")
    sys.exit(1 if failed else 0)
