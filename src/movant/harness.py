"""Experiment front end: config files, benchmark schemes, parameter sweeps,
and CSV emission.

Config files are flat ``key = value`` text (see ``DEFAULT_CONFIG`` and the
README for the key reference); angles are radians, lengths are wavelengths,
and powers are dBm (converted to linear watts internally).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .channel import achievable_rate
from .errors import MovantError, SingularChannel
from .gradients import fd_gradient, grad_rate, grad_trace
from .positioning import PenaltyConfig, optimize_positions, project_box_disk, unconstrained_deploy
from .scenario import Deployment, Scenario, Topology, linear_from_dbm
from .scheduling import (
    CurvePoint,
    SearchMethod,
    TradeoffReport,
    fitting_method,
    general_search,
)
from .stationarity import ThresholdReport, speed_threshold

__all__ = [
    "SchemeId",
    "SweepParameter",
    "SweepSpec",
    "RunConfig",
    "CSV_HEADER",
    "DEFAULT_CONFIG",
    "load_config",
    "parse_config_text",
    "scenario_from_config",
    "default_scenario",
    "scenario_variant",
    "run_scheme",
    "run_sweep",
    "write_csv",
    "threshold_summary",
    "run_validation",
]


class SchemeId(Enum):
    """Benchmark schemes: grid-search and fitting-based duration
    optimization, the instantaneous-movement upper bound, a fixed movement
    duration of 20% of the interval, and no movement at all."""

    OTGM = "OTGM"
    OTFM = "OTFM"
    UPPER_BOUND = "UpperBound"
    FMD_OAD = "FMDOAD"
    STATIC = "Static"


class SweepParameter(Enum):
    VMAX = "Vmax"
    REGION_L = "RegionL"
    NUM_ANTENNAS = "NumAntennas"
    DURATION = "Duration"


@dataclass(frozen=True)
class SweepSpec:
    parameter: SweepParameter
    values: tuple
    schemes: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("sweep needs at least one grid value")


@dataclass(frozen=True)
class RunConfig:
    """Solver settings shared by all schemes in a run."""

    grid_step: float | None = None  # duration grid step; None = interval/400
    samples: int = 5
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    unconstrained_restarts: int = 4

    def step_for(self, scenario: Scenario) -> float:
        return scenario.interval / 400.0 if self.grid_step is None else self.grid_step


CSV_HEADER = "param,scheme,t_mov,rate_bps_hz,throughput_b_hz,converged,error"

DEFAULT_CONFIG: dict = {
    "topology": "square",
    "num_antennas": 5,
    "num_users": 4,
    "elevation_angles": [math.pi / 2, math.pi / 4, math.pi / 6, math.pi / 8],
    "azimuth_angles": [math.pi / 3, math.pi / 5, math.pi / 7, math.pi / 8],
    "interval_s": 8.0,
    "region_side_wl": 10.0,
    "min_spacing_wl": 0.5,
    "max_speed_wl_s": 6.0,
    "initial_x_wl": [4.5, 5.0, 5.5, 6.0, 6.5],
    "initial_y_wl": [0.0, 0.0, 0.0, 0.0, 0.0],
    "total_power_dbm": 15.0,
    "noise_power_dbm": -80.0,
    "ref_gain": 1e-4,
    "pathloss_exp": 2.0,
    "user_distance_m": 100.0,
}

_LIST_KEYS = {
    "elevation_angles",
    "azimuth_angles",
    "initial_x_wl",
    "initial_y_wl",
    "fading_coeffs",
    "user_distance_m",
}
_INT_KEYS = {"num_antennas", "num_users"}
_STR_KEYS = {"topology"}
_KNOWN_KEYS = set(DEFAULT_CONFIG) | _LIST_KEYS


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment, lists are
    comma separated. An unknown key is an error, so a misspelt key cannot
    leave its default in force."""
    cfg = dict(DEFAULT_CONFIG)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in _STR_KEYS:
            cfg[key] = value
        elif key in _LIST_KEYS:
            cfg[key] = [float(tok) for tok in value.split(",") if tok.strip()]
        elif key in _INT_KEYS:
            cfg[key] = int(value)
        else:
            cfg[key] = float(value)
    return cfg


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def scenario_from_config(cfg: dict) -> Scenario:
    topology = {
        "square": Topology.SQUARE_2D,
        "segment": Topology.SEGMENT_1D,
    }.get(str(cfg["topology"]).lower())
    if topology is None:
        raise ValueError(f"unknown topology {cfg['topology']!r}")
    k = int(cfg["num_users"])
    if "fading_coeffs" in cfg:
        fading = np.asarray(cfg["fading_coeffs"], dtype=float)
    else:
        dist = np.asarray(cfg["user_distance_m"], dtype=float).reshape(-1)
        if dist.size == 1:
            dist = np.full(k, dist[0])
        fading = float(cfg["ref_gain"]) * dist ** (-float(cfg["pathloss_exp"]))
    xs = np.asarray(cfg["initial_x_wl"], dtype=float)
    ys = np.asarray(cfg.get("initial_y_wl", np.zeros_like(xs)), dtype=float)
    if topology is Topology.SEGMENT_1D:
        ys = np.zeros_like(xs)
    return Scenario(
        num_antennas=int(cfg["num_antennas"]),
        num_users=k,
        elevation_angles=np.asarray(cfg["elevation_angles"], dtype=float),
        azimuth_angles=np.asarray(cfg["azimuth_angles"], dtype=float),
        fading_coeffs=fading,
        noise_power=linear_from_dbm(float(cfg["noise_power_dbm"])),
        total_power=linear_from_dbm(float(cfg["total_power_dbm"])),
        interval=float(cfg["interval_s"]),
        region_side=float(cfg["region_side_wl"]),
        min_spacing=float(cfg["min_spacing_wl"]),
        max_speed=float(cfg["max_speed_wl_s"]),
        initial_positions=Deployment(np.stack([xs, ys], axis=1)),
        topology=topology,
    )


def default_scenario(**overrides) -> Scenario:
    cfg = dict(DEFAULT_CONFIG)
    cfg.update(overrides)
    return scenario_from_config(cfg)


def scenario_variant(base: Scenario, parameter: SweepParameter, value) -> Scenario:
    """Scenario with one swept parameter replaced.

    Region sweeps keep the initial pattern's shape and recenter its bounding
    box at the region center; antenna-count sweeps place the antennas on the
    x axis at 0.5-wavelength spacing, centered in the region.
    """
    if parameter is SweepParameter.VMAX:
        return base.with_(max_speed=float(value))
    if parameter is SweepParameter.DURATION:
        return base.with_(interval=float(value))
    if parameter is SweepParameter.REGION_L:
        side = float(value)
        coords = base.initial_positions.coords
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        span = hi - lo
        if np.any(span > side + 1e-12):
            raise ValueError(f"initial pattern spans {span} and cannot fit in {side}")
        center = np.array([side / 2.0, 0.0 if base.topology is Topology.SEGMENT_1D else side / 2.0])
        shifted = coords - (lo + hi) / 2.0 + center
        return base.with_(
            region_side=side, initial_positions=Deployment(shifted)
        )
    if parameter is SweepParameter.NUM_ANTENNAS:
        n = int(value)
        spacing = 0.5
        span = (n - 1) * spacing
        if span > base.region_side + 1e-12:
            raise ValueError(f"{n} antennas at {spacing} spacing exceed the region")
        xs = base.region_side / 2.0 + (np.arange(n) - (n - 1) / 2.0) * spacing
        return base.with_(
            num_antennas=n, initial_positions=Deployment.from_x(xs)
        )
    raise ValueError(f"unknown sweep parameter {parameter}")


def _fixed_duration_report(
    scenario: Scenario, t_mov: float, deployment: Deployment, converged: bool
) -> TradeoffReport:
    rate = achievable_rate(scenario, deployment)
    throughput = (scenario.interval - t_mov) * rate
    return TradeoffReport(
        best_t_mov=t_mov,
        best_deployment=deployment,
        best_rate=rate,
        best_throughput=throughput,
        curve=(CurvePoint(t_mov, rate, throughput),),
        method=SearchMethod.STATIONARY,
        t_mov_max=t_mov,
        converged=converged,
    )


def run_scheme(
    scenario: Scenario, scheme: SchemeId, run_config: RunConfig | None = None
) -> TradeoffReport:
    """Execute one benchmark scheme on a scenario."""
    rc = run_config or RunConfig()
    boosted = replace(
        rc.penalty, restarts=max(rc.penalty.restarts, rc.unconstrained_restarts)
    )
    if scheme is SchemeId.OTGM:
        return general_search(
            scenario,
            grid_step=rc.step_for(scenario),
            config=rc.penalty,
            guide_config=boosted,
        )
    if scheme is SchemeId.OTFM:
        return fitting_method(
            scenario, samples=rc.samples, config=rc.penalty, guide_config=boosted
        )
    if scheme is SchemeId.UPPER_BOUND:
        outcome = unconstrained_deploy(scenario, config=boosted)
        return _fixed_duration_report(scenario, 0.0, outcome.deployment, outcome.converged)
    if scheme is SchemeId.FMD_OAD:
        t_mov = 0.2 * scenario.interval
        outcome = optimize_positions(scenario, t_mov, config=rc.penalty)
        return _fixed_duration_report(scenario, t_mov, outcome.deployment, outcome.converged)
    if scheme is SchemeId.STATIC:
        return _fixed_duration_report(scenario, 0.0, scenario.initial_positions, True)
    raise ValueError(f"unknown scheme {scheme}")


def _format_float(x: float) -> str:
    return repr(float(x))


def _sanitize(message: str) -> str:
    return message.replace(",", ";").replace("\n", " ").strip()


def run_sweep(
    base_scenario: Scenario, sweep: SweepSpec, run_config: RunConfig | None = None
) -> list[str]:
    """Run every (grid value, scheme) cell and return CSV rows.

    Row order is grid-major, scheme-minor; a cell that raises a
    ``MovantError`` or ``ValueError`` contributes a row with the error column
    set instead of aborting the sweep. Other errors propagate.
    """
    rc = run_config or RunConfig()

    def solve(value, scheme):
        try:
            scenario = scenario_variant(base_scenario, sweep.parameter, value)
            report = run_scheme(scenario, scheme, rc)
        except (MovantError, ValueError) as exc:
            return f"{_format_float(value)},{scheme.value},,,,,{_sanitize(str(exc))}"
        return ",".join(
            [
                _format_float(value),
                scheme.value,
                _format_float(report.best_t_mov),
                _format_float(report.best_rate),
                _format_float(report.best_throughput),
                "true" if report.converged else "false",
                "",
            ]
        )

    rows = [solve(value, scheme) for value in sweep.values for scheme in sweep.schemes]
    return [CSV_HEADER, *rows]


def write_csv(rows: list[str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def threshold_summary(scenario: Scenario) -> tuple[ThresholdReport, list[str]]:
    """Stay/move report plus its CSV rendering (header and one row).

    A vanishing initial gradient is rendered with empty threshold fields and
    decision 'stay' rather than numeric infinities.
    """
    report = speed_threshold(scenario)
    header = "initial_rate_bps_hz,grad_norm_sum,v_th_wl_s,t_th_s,decision,stationary"
    if report.stationary:
        v_th = t_th = ""
    else:
        v_th = _format_float(report.speed_threshold)
        t_th = "" if math.isinf(report.time_threshold) else _format_float(report.time_threshold)
    row = ",".join(
        [
            _format_float(report.initial_rate),
            _format_float(report.gradient_norm_sum),
            v_th,
            t_th,
            report.decision.value,
            "true" if report.stationary else "false",
        ]
    )
    return report, [header, row]


def run_validation(scenario: Scenario, seed: int = 0) -> list[tuple[str, bool, str]]:
    """Spot-check the library invariants on one scenario.

    Returns (name, passed, detail) triples; used by the CLI ``validate``
    subcommand.
    """
    from .channel import channel_state, common_sinr, optimal_power, trace_objective, zf_beamformer

    rng = np.random.default_rng(seed)
    results = []
    deployment = scenario.initial_positions
    checks_failed: list[str] = []

    def record(name, passed, detail=""):
        results.append((name, bool(passed), detail))
        if not passed:
            checks_failed.append(name)

    try:
        state = channel_state(scenario, deployment)
        herm = np.max(np.abs(state.G - np.conj(state.G.T)))
        record("gram_hermitian", herm <= 1e-12, f"max asymmetry {herm:.2e}")
        eye_gap = np.linalg.norm(state.G @ state.G_inv - np.eye(scenario.num_users))
        record("gram_inverse", eye_gap <= 1e-9, f"Frobenius gap {eye_gap:.2e}")
        amps = scenario.amplitudes()
        mod_err = np.max(np.abs(np.abs(state.H) - amps[None, :]) / amps[None, :])
        record("unit_modulus_channel", mod_err <= 1e-12, f"relative error {mod_err:.2e}")

        powers = optimal_power(scenario, deployment)
        record(
            "power_budget",
            abs(powers.sum() - scenario.total_power) <= 1e-9 * scenario.total_power,
            f"sum {powers.sum():.6e}",
        )
        gamma = common_sinr(scenario, deployment)
        sinrs = []
        cross_ok = True
        for k in range(scenario.num_users):
            w = zf_beamformer(scenario, deployment, k)
            gains = np.abs(state.H.conj().T @ w) ** 2
            signal = powers[k] * gains[k]
            interference = powers @ gains - signal
            sinrs.append(signal / (interference + scenario.noise_power))
            others = np.delete(np.sqrt(gains), k)
            cross_ok &= bool(np.all(others <= 1e-9 * np.delete(amps, k)))
        record("zf_orthogonality", cross_ok)
        spread = (max(sinrs) - min(sinrs)) / gamma
        record("equal_sinr", spread <= 1e-9, f"relative spread {spread:.2e}")

        shift = rng.uniform(-0.5, 0.5, 2)
        if scenario.topology is Topology.SEGMENT_1D:
            shift[1] = 0.0
        shifted = deployment.coords + shift
        rel = abs(
            trace_objective(scenario, shifted) - trace_objective(scenario, deployment)
        ) / trace_objective(scenario, deployment)
        record("translation_invariance", rel <= 1e-9, f"relative change {rel:.2e}")

        analytic = grad_trace(scenario, deployment).components
        numeric = fd_gradient(scenario, deployment).components
        scale = max(np.abs(analytic).max(), 1.0)
        gap = np.max(np.abs(analytic - numeric)) / scale
        record("gradient_fd_agreement", gap <= 1e-4, f"scaled gap {gap:.2e}")

        g_rate = grad_rate(scenario, deployment).components
        dots = (g_rate * analytic).sum()
        record("rate_gradient_antiparallel", dots <= 0.0)

        lo, hi = scenario.region_bounds()
        ok_proj = True
        for _ in range(100):
            center = rng.uniform(0, scenario.region_side, 2)
            if scenario.topology is Topology.SEGMENT_1D:
                center[1] = 0.0
            point = rng.uniform(-scenario.region_side, 2 * scenario.region_side, 2)
            radius = rng.uniform(0, scenario.region_side)
            proj = project_box_disk(
                point, center, radius, scenario.region_side, scenario.topology
            )
            in_box = np.all(proj >= lo - 1e-10) and np.all(proj <= hi + 1e-10)
            in_disk = np.linalg.norm(proj - center) <= radius + 1e-10
            ok_proj &= bool(in_box and in_disk)
        record("projection_feasibility", ok_proj)
    except SingularChannel as exc:
        record("channel_rank", False, str(exc))
    return results
