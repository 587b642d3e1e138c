import collections
import time

import numpy as np
import pytest

from movant import harness, kernels, positioning, scheduling
from movant.channel import SINGULAR_COND_LIMIT
from movant.errors import SingularChannel
from movant.harness import RunConfig, SchemeId, default_scenario, run_scheme
from movant.scenario import (
    Deployment,
    Scenario,
    Topology,
    as_positions,
    two_antenna_line_scenario,
)
from movant.stationarity import speed_threshold


@pytest.fixture(scope="session")
def case_wide():
    """Two antennas on a line starting 2 wavelengths apart."""
    return two_antenna_line_scenario(4.0, 6.0)


@pytest.fixture(scope="session")
def case_narrow():
    """Two antennas on a line starting 0.5 wavelengths apart."""
    return two_antenna_line_scenario(5.0, 5.5)


@pytest.fixture(scope="session")
def default_2d():
    return default_scenario()


@pytest.fixture(scope="session")
def default_table():
    """Every scheme's report on the default scenario at 2, 6 and 18
    wavelengths/s with a 0.08 s grid step, keyed (speed, scheme), and the
    seconds the fifteen runs took: solved once, for criterion 7 and the
    pinned table alike."""
    rc = RunConfig(grid_step=8.0 / 100)
    start = time.perf_counter()
    reports = {}
    for v in (2.0, 6.0, 18.0):
        s = default_scenario(max_speed_wl_s=v)
        for scheme in SchemeId:
            reports[(v, scheme)] = run_scheme(s, scheme, rc)
    return reports, time.perf_counter() - start


def random_instance(rng, n_max=6, k_max=4, cond_cap=1e4, trace_cap=50.0, region=8.0):
    """Well-conditioned random scenario with order-one fading.

    The condition and trace caps keep the finite-difference oracle's
    round-off noise (about 1e-10 times the objective) below the comparison
    tolerances; the analytic gradients themselves have no such limit.
    """
    while True:
        n = int(rng.integers(1, n_max + 1))
        k = int(rng.integers(1, min(n, k_max) + 1))
        scenario = Scenario(
            num_antennas=n,
            num_users=k,
            elevation_angles=rng.uniform(-np.pi / 2, np.pi / 2, k),
            azimuth_angles=rng.uniform(-np.pi / 2, np.pi / 2, k),
            fading_coeffs=rng.uniform(0.5, 2.0, k),
            noise_power=float(rng.uniform(0.5, 2.0)),
            total_power=float(rng.uniform(0.5, 4.0)),
            interval=5.0,
            region_side=region,
            min_spacing=0.0,
            max_speed=1.0,
            initial_positions=Deployment(rng.uniform(0.0, region, (n, 2))),
            topology=Topology.SQUARE_2D,
        )
        H = np.exp(
            -1j
            * scenario.wavenumber
            * (scenario.initial_positions.coords @ scenario.direction_vectors().T)
        ) * scenario.amplitudes()[None, :]
        gram = H.conj().T @ H
        eigvals = np.linalg.eigvalsh(gram)
        if eigvals[0] <= 0 or eigvals[-1] / eigvals[0] > cond_cap:
            continue
        if (1.0 / eigvals).sum() > trace_cap:
            continue
        return scenario


def record_loop_statuses(monkeypatch) -> list:
    """The list that collects the status of every lane of every
    ``positioning._pgd_loop`` call from here on."""
    statuses = []
    pgd_loop = positioning._pgd_loop

    def recording(*args, **kwargs):
        result = pgd_loop(*args, **kwargs)
        statuses.extend(status for *_, status, _ in result)
        return result

    monkeypatch.setattr(positioning, "_pgd_loop", recording)
    return statuses


Solve = collections.namedtuple("Solve", "scenario t_mov restarts speed_free outcome")


def record_solves(monkeypatch) -> list:
    """The list that collects every placement solve from here on, as a
    ``Solve`` once its stack returns. Every solve, an ``optimize_positions``
    call or a lane of a duration chain's stacked solve, runs in
    ``positioning._optimize_stack``, patched in the defining module (used
    by optimize_positions) and as the scheduler's imported name, with
    arguments (scenario, solves, race). A race counts as one solve, with
    its restart count and its winner's outcome (the lowest objective, the
    earliest on a tie); a speed-free solve is one that
    ``unconstrained_deploy`` makes."""
    solves = []
    speed_free = []  # one entry per unconstrained_deploy call still running
    stack, deploy = positioning._optimize_stack, positioning.unconstrained_deploy

    def recording(scenario, stacked, race=False):
        found = stack(scenario, stacked, race)
        outcomes = [outcome for outcome, _ in found]
        if race:
            winner = min(outcomes, key=lambda outcome: outcome.objective)
            solved = [(stacked[0][0], len(stacked), winner)]
        else:
            solved = [(t_mov, 1, outcome) for (t_mov, _), outcome in zip(stacked, outcomes)]
        solves.extend(
            Solve(scenario, t_mov, restarts, bool(speed_free), outcome)
            for t_mov, restarts, outcome in solved
        )
        return found

    def deploying(scenario, config=None):
        speed_free.append(True)
        try:
            return deploy(scenario, config)
        finally:
            speed_free.pop()

    for module in (positioning, scheduling):
        monkeypatch.setattr(module, "_optimize_stack", recording)
    for module in (positioning, scheduling, harness):
        monkeypatch.setattr(module, "unconstrained_deploy", deploying)
    return solves


def reference_pick_start(scenario, t_mov, candidates):
    """The candidate start that ``optimize_positions`` begins from, scored
    one candidate per ``trace_at`` call: each is projected into the
    reachable set on its own, the first with the lowest finite trace wins,
    and the first candidate when no trace is finite. Returns the raw
    candidate, as given."""
    lo, hi = scenario.region_bounds()
    radius = scenario.max_speed * t_mov
    best, best_trace = candidates[0], np.inf
    for cand in candidates:
        pts = kernels.project_deployment(
            as_positions(cand), scenario.initial_positions.coords, radius, lo, hi
        )
        trace, _ = kernels.trace_at(
            pts,
            scenario.direction_vectors(),
            scenario.amplitudes(),
            scenario.wavenumber,
            SINGULAR_COND_LIMIT,
        )
        if np.isfinite(trace) and trace < best_trace:
            best, best_trace = cand, float(trace)
    return best


def slow_scenarios():
    """The first two non-stationary draws of criterion 9's scenario
    generator (seed 909; draws with a singular initial channel skipped), at
    half their own speed threshold: antennas that reach at most a few
    hundredths of a wavelength in the whole interval."""
    rng = np.random.default_rng(909)
    slow = []
    while len(slow) < 2:
        thetas, phis = rng.uniform(0.15, 1.45, 4), rng.uniform(0.15, 1.45, 4)
        s = default_scenario(elevation_angles=list(thetas), azimuth_angles=list(phis))
        try:
            report = speed_threshold(s)
        except SingularChannel:
            continue
        if not report.stationary:
            slow.append(s.with_(max_speed=0.5 * report.speed_threshold))
    return slow
