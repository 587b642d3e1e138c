"""The benchmark's correctness checks.

Each check returns a list of faults, empty when the answer holds. The checks
compare against the independent reference in ``reference.py`` or test
properties the method must have; none compares against a stored copy of an
earlier run's output.
"""

import math

import numpy as np

import reference as ref

EPS = float(np.finfo(float).eps)


def rate_faults(scenario, deployment, reported: float) -> list[str]:
    """The reported rate equals the reference rate at the deployment.

    Both sides invert the Gram matrix G, so each carries a relative trace
    error of order eps * cond(G); since |dR| <= R |d tr / tr|, the tolerance
    is R times a generous multiple of that.
    """
    trace, cond = ref.trace_and_cond(scenario, deployment)
    expected = math.log2(1.0 + scenario.total_power / scenario.noise_power / trace)
    k = len(scenario.fading_coeffs)
    tol = expected * (16.0 * k * cond + 16.0) * EPS
    if not abs(reported - expected) <= tol:
        return [f"rate {reported!r} != reference {expected!r} (tol {tol:.2e}, cond {cond:.2e})"]
    return []


def throughput_faults(scenario, t_mov: float, rate: float, throughput: float) -> list[str]:
    """t_mov lies in [0, T] and the throughput is (T - t_mov) * rate."""
    if not 0.0 <= t_mov <= scenario.interval:
        return [f"t_mov {t_mov!r} outside [0, {scenario.interval}]"]
    expected = (scenario.interval - t_mov) * rate
    if not abs(throughput - expected) <= 4.0 * EPS * abs(expected):
        return [f"throughput {throughput!r} != (T - t) * rate = {expected!r}"]
    return []


def ceiling_faults(scenario, rate: float) -> list[str]:
    ceiling = ref.rate_ceiling(scenario)
    if not rate <= ceiling * (1.0 + 1e-12):
        return [f"rate {rate!r} exceeds the ceiling {ceiling!r}"]
    return []


def stay_faults(t_mov: float) -> list[str]:
    """A case below its speed threshold must not move."""
    return [] if t_mov == 0.0 else [f"slow case moves for {t_mov!r} s instead of staying"]


def threshold_faults(scenario, reported: float, decision: str) -> list[str]:
    """The speed threshold matches the finite-difference reference, and the
    decision is 'stay' exactly when the speed limit does not exceed it.

    Round-off in the differenced rates gives the gradient a relative error
    of order eps cond(G) R0 / (h sum|grad R|) = eps cond(G) T v_th / h, so
    the tolerance grows with it; ill-conditioned draws need that.
    """
    faults = []
    expected = ref.speed_threshold_fd(scenario)
    _, cond = ref.trace_and_cond(scenario, scenario.initial_positions)
    tol = 1e-6 + 16.0 * EPS * cond * scenario.interval * expected / ref.FD_STEP
    if not abs(reported - expected) <= tol * expected:
        faults.append(f"speed threshold {reported!r} != reference {expected!r}")
    want = "stay" if scenario.max_speed <= reported else "move"
    if decision != want:
        faults.append(f"decision {decision!r} at speed {scenario.max_speed!r}, threshold {reported!r}")
    return faults


def report_faults(scenario, t_mov, deployment, rate, throughput, reach) -> list[str]:
    """Every check that applies to one returned (t_mov, deployment, rate,
    throughput); ``reach`` is the per-antenna travel limit (None = none)."""
    return (
        rate_faults(scenario, deployment, rate)
        + throughput_faults(scenario, t_mov, rate, throughput)
        + ceiling_faults(scenario, rate)
        + ref.feasibility_faults(scenario, deployment, reach)
    )


def curve_faults(scenario, best_t_mov, best_throughput, curve, failures=()) -> list[str]:
    """A grid search's curve: no duration failed, every point is finite and
    obeys the throughput identity and the ceiling, and the reported best is
    the curve's maximum at its smallest maximizing duration. (The search
    records a failed duration and writes a NaN point for it instead of
    raising, so a failure would otherwise pass unseen.)"""
    faults = [f"search failed at t_mov {t!r}: {message}" for t, message in failures]
    bad = [p.t_mov for p in curve if not (math.isfinite(p.rate) and math.isfinite(p.throughput))]
    if bad:
        faults.append(f"search curve has {len(bad)} non-finite points, the first at t_mov {bad[0]!r}")
    points = [(p.t_mov, p.rate, p.throughput) for p in curve if p.t_mov not in bad]
    if not points:
        return faults + ["search curve has no finite point"]
    for t, rate, throughput in points:
        faults += throughput_faults(scenario, t, rate, throughput)
        faults += ceiling_faults(scenario, rate)
    top = max(thr for _, _, thr in points)
    first = min(t for t, _, thr in points if thr == top)
    if best_throughput != top or best_t_mov != first:
        faults.append(
            f"best ({best_t_mov!r}, {best_throughput!r}) is not the curve maximum ({first!r}, {top!r})"
        )
    return faults


def ordering_faults(label: str, values: list[tuple[str, float]]) -> list[str]:
    """Throughputs named in ``values`` are non-increasing, up to 1e-9
    relative."""
    faults = []
    for (hi_name, hi), (lo_name, lo) in zip(values, values[1:]):
        if not hi >= lo - 1e-9 * abs(hi):
            faults.append(f"{label}: {hi_name} {hi!r} < {lo_name} {lo!r}")
    return faults


def duration_grid(interval: float, step: float) -> np.ndarray:
    """The durations {0, step, 2 step, ...} below the interval."""
    return step * np.arange(math.ceil(interval / step - 1e-9))


def two_antenna_faults(scenario, step: float, best_t_mov: float, best_throughput: float) -> list[str]:
    """A two-antenna line case on a duration grid reaches the closed-form
    optimum over that grid, at a duration where the closed form attains it."""
    start = ref.positions(scenario.initial_positions)
    gap = abs(start[1, 0] - start[0, 0])
    args = (gap, scenario.max_speed, scenario.interval)
    optimum = float(ref.two_antenna_throughput(duration_grid(scenario.interval, step), *args).max())
    tol = 1e-9 * optimum
    faults = []
    if not abs(best_throughput - optimum) <= tol:
        faults.append(f"two-antenna throughput {best_throughput!r} != closed-form optimum {optimum!r}")
    if not float(ref.two_antenna_throughput(best_t_mov, *args)) >= optimum - tol:
        faults.append(f"two-antenna duration {best_t_mov!r} is not a closed-form maximizer")
    return faults
