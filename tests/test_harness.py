
import dataclasses
import math

import numpy as np
import pytest

import movant.cli as cli
import movant.harness as harness
import movant.positioning as positioning
import movant.scheduling as scheduling
from movant.channel import achievable_rate
from movant.cli import main
from movant.harness import (
    CSV_HEADER,
    DEFAULT_CONFIG,
    RunConfig,
    SchemeId,
    SweepParameter,
    SweepSpec,
    default_scenario,
    load_config,
    parse_config_text,
    run_scheme,
    run_sweep,
    run_validation,
    scenario_from_config,
    scenario_variant,
    threshold_summary,
    write_csv,
)
from movant.errors import InfeasibleSpacing, SingularChannel
from movant.scenario import Deployment, Topology
from movant.stationarity import speed_threshold

from conftest import record_solves

QUICK = RunConfig(grid_step=0.8, samples=5)

# initial layouts from the threshold study: tightly clustered through
# well dispersed across the square region
PATTERNS = {
    "clustered": [[1, 1], [0.6, 1], [1.2, 0.5], [1.7, 0.4], [2.3, 0]],
    "mostly_line": [[1, 0], [3, 3], [6, 0], [7, 0], [8, 0]],
    "partial_2d": [[1, 0], [1, 5], [6, 0], [6, 5], [3, 3]],
    "dispersed": [[3.9, 2.25], [0.7, 9.5], [7, 3.35], [4.5, 6], [8.7, 0.45]],
}


def pattern_scenario(name):
    pts = PATTERNS[name]
    return default_scenario(
        min_spacing_wl=0.3,
        initial_x_wl=[p[0] for p in pts],
        initial_y_wl=[p[1] for p in pts],
    )


class TestConfig:
    def test_default_matches_reference_setup(self, default_2d):
        assert default_2d.num_antennas == 5
        assert default_2d.num_users == 4
        assert default_2d.interval == 8.0
        assert default_2d.region_side == 10.0
        assert default_2d.min_spacing == 0.5
        assert default_2d.topology is Topology.SQUARE_2D
        assert np.allclose(default_2d.initial_positions.x, [4.5, 5, 5.5, 6, 6.5])
        assert np.allclose(default_2d.fading_coeffs, 1e-8)

    def test_dbm_conversion(self, default_2d):
        assert default_2d.total_power == pytest.approx(10 ** (-1.5), rel=1e-12)
        assert default_2d.noise_power == pytest.approx(1e-11, rel=1e-12)

    def test_parse_round_trip(self, tmp_path):
        text = "\n".join(
            f"{key} = {', '.join(map(str, val)) if isinstance(val, list) else val}"
            for key, val in DEFAULT_CONFIG.items()
        )
        path = tmp_path / "scenario.cfg"
        path.write_text(text + "\n# trailing comment\n")
        cfg = load_config(path)
        s = scenario_from_config(cfg)
        d = default_scenario()
        assert s.num_antennas == d.num_antennas
        assert np.allclose(s.initial_positions.coords, d.initial_positions.coords)
        assert s.total_power == d.total_power

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_config_text("this is not a key value line")

    def test_parse_rejects_unknown_key(self):
        # a misspelt key must not leave the default speed in force
        with pytest.raises(ValueError, match="max_sped_wl_s"):
            parse_config_text("max_sped_wl_s = 2")

    def test_explicit_fading_override(self):
        cfg = dict(DEFAULT_CONFIG)
        cfg["fading_coeffs"] = [1.0, 2.0, 3.0, 4.0]
        s = scenario_from_config(cfg)
        assert np.allclose(s.fading_coeffs, [1, 2, 3, 4])

    def test_unpaired_initial_positions_are_fatal(self, tmp_path, capsys):
        # six x values against the default five y values
        path = tmp_path / "six.cfg"
        path.write_text("num_antennas = 6\ninitial_x_wl = 3, 4, 5, 6, 7, 8\n")
        assert main(["optimize", "--config", str(path), "--scheme", "Static"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "initial_x_wl has 6" in err and "initial_y_wl has 5" in err

    @pytest.mark.parametrize(
        "fields",
        [
            {"samples": 3},
            {"grid_step": 0.0},
            {"grid_step": -0.1},
            {"samples": 4.5},
            {"samples": 5.0},
            {"samples": "5"},
            {"grid_step": "0.1"},
            {"grid_step": True},
            {"grid_step": float("inf")},
            {"grid_step": float("nan")},
        ],
    )
    def test_run_config_rejects_bad_values(self, fields):
        with pytest.raises(ValueError, match="samples|grid_step"):
            RunConfig(**fields)

    def test_run_config_accepts_numpy_integer_samples(self):
        assert RunConfig(samples=np.int64(4)).samples == 4

    def test_shipped_config_matches_defaults(self):
        # keeps configs/default.cfg from drifting away from DEFAULT_CONFIG
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"
        s = scenario_from_config(load_config(path))
        d = default_scenario()
        assert s.num_antennas == d.num_antennas
        assert s.num_users == d.num_users
        assert np.allclose(s.elevation_angles, d.elevation_angles)
        assert np.allclose(s.azimuth_angles, d.azimuth_angles)
        assert np.allclose(s.fading_coeffs, d.fading_coeffs)
        assert np.allclose(s.initial_positions.coords, d.initial_positions.coords)
        assert (s.interval, s.region_side, s.min_spacing, s.max_speed) == (
            d.interval,
            d.region_side,
            d.min_spacing,
            d.max_speed,
        )
        assert s.total_power == d.total_power and s.noise_power == d.noise_power


def kinds(solves) -> list:
    """(restarts, speed-free) of each solve that ``record_solves`` recorded."""
    return [(solve.restarts, solve.speed_free) for solve in solves]


class TestSchemes:
    @pytest.mark.parametrize(
        "scheme", [SchemeId.OTGM, SchemeId.OTFM, SchemeId.UPPER_BOUND, SchemeId.FMD_OAD]
    )
    def test_one_speed_free_solve_per_scheme(self, default_2d, monkeypatch, scheme):
        solves = record_solves(monkeypatch)
        run_scheme(default_2d, scheme, QUICK)
        restarts = harness._UNCONSTRAINED_RESTARTS
        assert [solve for solve in kinds(solves) if solve[1]] == [(restarts, True)]
        # every duration solve is single-start
        assert all(solve == (1, False) for solve in kinds(solves) if not solve[1])

    @pytest.mark.parametrize("scheme", [SchemeId.OTGM, SchemeId.OTFM])
    def test_schedulers_solve_nothing_at_zero_speed(self, default_2d, monkeypatch, scheme):
        solves = record_solves(monkeypatch)
        run_scheme(default_2d.with_(max_speed=0.0), scheme, QUICK)
        assert solves == []

    def test_fmdoad_starts_from_the_speed_free_optimum(self, default_2d):
        report = run_scheme(default_2d, SchemeId.FMD_OAD, QUICK)
        t_mov = 0.2 * default_2d.interval
        guide = harness._speed_free(default_2d).deployment
        outcome = positioning.optimize_positions(
            default_2d, t_mov, start=[default_2d.initial_positions, guide]
        )
        # the guide, projected into reach, scores better than the initial layout
        assert outcome.start == 1
        expected = scheduling._fixed_duration_report(
            default_2d, t_mov, outcome.deployment, outcome.converged
        )
        coords = report.best_deployment.coords
        assert coords.tobytes() == expected.best_deployment.coords.tobytes()
        assert dataclasses.replace(report, best_deployment=None) == dataclasses.replace(
            expected, best_deployment=None
        )

    def test_fmdoad_makes_no_speed_free_solve_at_zero_speed(self, default_2d, monkeypatch):
        still = default_2d.with_(max_speed=0.0)
        solves = record_solves(monkeypatch)
        report = run_scheme(still, SchemeId.FMD_OAD, QUICK)
        assert kinds(solves) == [(1, False)]
        outcome = positioning.optimize_positions(still, 0.2 * still.interval)
        assert report.best_deployment.coords.tobytes() == outcome.deployment.coords.tobytes()

    def test_static_value(self, default_2d):
        report = run_scheme(default_2d, SchemeId.STATIC, QUICK)
        expected = 8.0 * achievable_rate(default_2d, default_2d.initial_positions)
        assert report.best_throughput == expected
        assert report.best_t_mov == 0.0

    def test_fixed_movement_uses_fifth_of_interval(self, default_2d):
        report = run_scheme(default_2d, SchemeId.FMD_OAD, QUICK)
        assert report.best_t_mov == pytest.approx(1.6)
        assert report.best_throughput == pytest.approx(6.4 * report.best_rate)

    def test_upper_bound_dominates(self, default_2d):
        upper = run_scheme(default_2d, SchemeId.UPPER_BOUND, QUICK).best_throughput
        for scheme in (SchemeId.OTGM, SchemeId.OTFM, SchemeId.FMD_OAD, SchemeId.STATIC):
            got = run_scheme(default_2d, scheme, QUICK).best_throughput
            assert upper >= got - 1e-6

    def test_grid_search_beats_static(self, default_2d):
        otgm = run_scheme(default_2d, SchemeId.OTGM, QUICK).best_throughput
        static = run_scheme(default_2d, SchemeId.STATIC, QUICK).best_throughput
        assert otgm > static


class TestSweeps:
    def test_rows_and_determinism(self, default_2d):
        spec = SweepSpec(
            SweepParameter.VMAX, (2.0, 6.0), (SchemeId.STATIC, SchemeId.OTFM)
        )
        rows_a = run_sweep(default_2d, spec, QUICK)
        rows_b = run_sweep(default_2d, spec, QUICK)
        assert rows_a == rows_b
        assert rows_a[0] == CSV_HEADER
        assert len(rows_a) == 5
        # grid-major, scheme-minor ordering
        assert rows_a[1].startswith("2.0,Static")
        assert rows_a[2].startswith("2.0,OTFM")
        assert rows_a[3].startswith("6.0,Static")

    def test_error_cells_recorded(self, default_2d):
        spec = SweepSpec(SweepParameter.NUM_ANTENNAS, (3.0, 4.5, 5.0), (SchemeId.STATIC,))
        rows = run_sweep(default_2d, spec, QUICK)
        assert len(rows) == 4
        bad = rows[1].split(",")
        assert bad[0] == "3.0" and bad[-1] != ""
        # a count of 4.5 used to build four antennas under the label 4.5
        fractional = rows[2].split(",")
        assert fractional[0] == "4.5" and fractional[2:6] == [""] * 4
        assert "integer" in fractional[-1]
        good = rows[3].split(",")
        assert good[-1] == ""

    def test_zero_speed_sweep_runs_every_scheme(self, default_2d):
        spec = SweepSpec(SweepParameter.VMAX, (0.0,), tuple(SchemeId))
        rows = run_sweep(default_2d, spec, QUICK)
        cells = {row.split(",")[1]: row.split(",") for row in rows[1:]}
        assert len(cells) == len(SchemeId)
        assert all(cell[-1] == "" for cell in cells.values()), rows
        # neither scheduler can move: both report the static deployment
        for scheme in ("OTGM", "OTFM"):
            assert cells[scheme][2:] == cells["Static"][2:]

    @pytest.mark.parametrize("speed", [6.0, 18.0])
    def test_fmdoad_antenna_sweep_has_no_errors(self, speed):
        spec = SweepSpec(SweepParameter.NUM_ANTENNAS, tuple(range(4, 11)), (SchemeId.FMD_OAD,))
        rows = run_sweep(default_scenario(max_speed_wl_s=speed), spec)
        assert len(rows) == 8
        assert all(row.split(",")[-1] == "" for row in rows[1:]), rows

    @pytest.mark.parametrize("speed", [6.0, 18.0])
    def test_fmdoad_antenna_sweep_rates_do_not_collapse(self, speed):
        # on the raw trace, N = 9 at 6 wl/s and N = 7 at 18 wl/s returned
        # the initial deployment (0.161 and 0.027 b/s/Hz)
        spec = SweepSpec(SweepParameter.NUM_ANTENNAS, tuple(range(4, 11)), (SchemeId.FMD_OAD,))
        rows = run_sweep(default_scenario(max_speed_wl_s=speed), spec)
        rates = [float(row.split(",")[3]) for row in rows[1:]]
        assert len(rates) == 7 and min(rates) > 1.0, rows

    def test_programming_errors_propagate(self, default_2d, monkeypatch):
        def broken(scenario, scheme, run_config=None):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(harness, "run_scheme", broken)
        spec = SweepSpec(SweepParameter.VMAX, (2.0,), (SchemeId.STATIC,))
        with pytest.raises(TypeError, match="synthetic programming error"):
            run_sweep(default_2d, spec, QUICK)

    def test_empty_scheme_list_gives_header_only(self, default_2d):
        spec = SweepSpec(SweepParameter.VMAX, (2.0,), ())
        assert run_sweep(default_2d, spec, QUICK) == [CSV_HEADER]

    def test_csv_round_trip_precision(self, default_2d, tmp_path):
        spec = SweepSpec(SweepParameter.VMAX, (6.0,), (SchemeId.STATIC,))
        rows = run_sweep(default_2d, spec, QUICK)
        path = tmp_path / "sweep.csv"
        write_csv(rows, path)
        reparsed = path.read_text().strip().split("\n")
        fields = reparsed[1].split(",")
        rate = float(fields[3])
        assert rate == achievable_rate(default_2d, default_2d.initial_positions)

    def test_variant_builders(self, default_2d):
        faster = scenario_variant(default_2d, SweepParameter.VMAX, 12.0)
        assert faster.max_speed == 12.0
        longer = scenario_variant(default_2d, SweepParameter.DURATION, 4.0)
        assert longer.interval == 4.0
        small = scenario_variant(default_2d, SweepParameter.REGION_L, 4.0)
        assert small.region_side == 4.0
        # pattern recentered but shape preserved
        spacings = np.diff(np.sort(small.initial_positions.x))
        assert np.allclose(spacings, 0.5)
        center = (small.initial_positions.x.min() + small.initial_positions.x.max()) / 2
        assert center == pytest.approx(2.0)
        seven = scenario_variant(default_2d, SweepParameter.NUM_ANTENNAS, 7)
        assert seven.num_antennas == 7
        assert np.allclose(np.diff(np.sort(seven.initial_positions.x)), 0.5)
        assert np.all(seven.initial_positions.coords[:, 1] == 0.0)
        for count in (4.5, 4.000001, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="integer"):
                scenario_variant(default_2d, SweepParameter.NUM_ANTENNAS, count)


def count_speed_free_solves(solves) -> int:
    return sum(solve.speed_free for solve in solves)


class TestSweepSharesSpeedFreeSolve:
    @pytest.mark.parametrize(
        "parameter, values, schemes, expected",
        [
            (
                SweepParameter.VMAX,
                (2.0, 6.0, 18.0),
                (SchemeId.OTGM, SchemeId.OTFM, SchemeId.UPPER_BOUND),
                1,
            ),
            (SweepParameter.VMAX, (2.0, 6.0, 18.0), (SchemeId.FMD_OAD, SchemeId.UPPER_BOUND), 1),
            (SweepParameter.NUM_ANTENNAS, (4, 6, 8), (SchemeId.OTFM, SchemeId.UPPER_BOUND), 3),
        ],
        ids=["vmax", "vmax_fmdoad", "num_antennas"],
    )
    def test_one_solve_per_problem_and_rows_unchanged(
        self, default_2d, monkeypatch, parameter, values, schemes, expected
    ):
        rc = RunConfig(grid_step=0.08)
        solves = record_solves(monkeypatch)
        rows = run_sweep(default_2d, SweepSpec(parameter, values, schemes), rc)
        assert count_speed_free_solves(solves) == expected
        # every cell run on its own solves for itself, and gives the same row
        del solves[:]
        alone = [
            harness.csv_row(
                repr(float(value)),
                scheme,
                run_scheme(scenario_variant(default_2d, parameter, value), scheme, rc),
            )
            for value in values
            for scheme in schemes
        ]
        assert count_speed_free_solves(solves) == len(values) * len(schemes)
        assert rows == [CSV_HEADER, *alone]

    def test_no_solve_outlives_its_sweep(self, default_2d, monkeypatch):
        solves = record_solves(monkeypatch)
        spec = SweepSpec(SweepParameter.VMAX, (2.0, 6.0), (SchemeId.UPPER_BOUND,))
        first = run_sweep(default_2d, spec, QUICK)
        assert count_speed_free_solves(solves) == 1
        assert run_sweep(default_2d, spec, QUICK) == first
        assert count_speed_free_solves(solves) == 2
        run_scheme(default_2d, SchemeId.UPPER_BOUND, QUICK)
        assert count_speed_free_solves(solves) == 3

    def test_failed_solve_is_not_shared(self, default_2d, monkeypatch):
        calls = []

        def failing(scenario, config=None):
            calls.append(scenario.max_speed)
            raise SingularChannel("synthetic speed-free failure")

        monkeypatch.setattr(harness, "unconstrained_deploy", failing)
        spec = SweepSpec(SweepParameter.VMAX, (2.0, 6.0), (SchemeId.OTFM, SchemeId.UPPER_BOUND))
        rows = run_sweep(default_2d, spec, QUICK)
        # each cell solves again and writes its own error row
        assert calls == [2.0, 2.0, 6.0, 6.0]
        assert all(row.endswith("synthetic speed-free failure") for row in rows[1:]), rows

    def test_infeasible_speed_free_solve_fails_the_fmdoad_cell(self, default_2d, monkeypatch):
        def failing(scenario, config=None):
            raise InfeasibleSpacing("synthetic speed-free failure")

        monkeypatch.setattr(harness, "unconstrained_deploy", failing)
        spec = SweepSpec(SweepParameter.VMAX, (6.0,), (SchemeId.OTGM, SchemeId.FMD_OAD))
        rows = run_sweep(default_2d, spec, QUICK)
        assert [row.split(",")[1] for row in rows[1:]] == ["OTGM", "FMDOAD"]
        # FMDOAD's cell fails with the speed-free solve, as OTGM's does
        assert all(row.endswith(",,,,,synthetic speed-free failure") for row in rows[1:]), rows

    def test_key_is_every_field_but_max_speed(self, default_2d):
        key = harness._speed_free_key
        base = default_2d
        assert key(base.with_(max_speed=18.0)) == key(base)
        six = Deployment.from_x(3.0 + 0.5 * np.arange(6))
        variants = {
            "num_antennas": base.with_(num_antennas=6, initial_positions=six),
            "num_users": base.with_(
                num_users=3,
                elevation_angles=base.elevation_angles[:3],
                azimuth_angles=base.azimuth_angles[:3],
                fading_coeffs=base.fading_coeffs[:3],
            ),
            "elevation_angles": base.with_(elevation_angles=base.elevation_angles * 0.5),
            "azimuth_angles": base.with_(azimuth_angles=base.azimuth_angles * 0.5),
            "fading_coeffs": base.with_(fading_coeffs=base.fading_coeffs * 2.0),
            "noise_power": base.with_(noise_power=base.noise_power * 2.0),
            "total_power": base.with_(total_power=base.total_power * 2.0),
            "interval": base.with_(interval=4.0),
            "region_side": base.with_(region_side=12.0),
            "min_spacing": base.with_(min_spacing=0.0),
            "initial_positions": base.with_(
                initial_positions=base.initial_positions.coords + [0.0, 1.0]
            ),
            "topology": base.with_(topology=Topology.SEGMENT_1D),
            "wavelength": base.with_(wavelength=2.0),
        }
        fields = {f.name for f in dataclasses.fields(base)} - {"max_speed"}
        assert set(variants) == fields
        for name, variant in variants.items():
            assert key(variant) != key(base), name
        # fields equal as numbers but not bit for bit are kept apart too
        zero = base.with_(min_spacing=0.0)
        assert key(zero.with_(min_spacing=-0.0)) != key(zero)


class TestThresholdSummary:
    def test_matches_stationarity_module(self, default_2d):
        report, rows = threshold_summary(default_2d)
        direct = speed_threshold(default_2d)
        assert report.speed_threshold == direct.speed_threshold
        fields = rows[1].split(",")
        assert float(fields[0]) == direct.initial_rate
        assert float(fields[2]) == direct.speed_threshold

    def test_pattern_ordering(self):
        thresholds = {
            name: speed_threshold(pattern_scenario(name)).speed_threshold
            for name in PATTERNS
        }
        assert thresholds["clustered"] == min(thresholds.values())
        assert thresholds["dispersed"] == max(thresholds.values())

    def test_stationary_sentinel(self):
        cfg = dict(DEFAULT_CONFIG)
        cfg.update(
            num_antennas=1,
            num_users=1,
            elevation_angles=[0.4],
            azimuth_angles=[0.2],
            initial_x_wl=[5.0],
            initial_y_wl=[0.0],
        )
        s = scenario_from_config(cfg)
        report, rows = threshold_summary(s)
        assert report.stationary
        fields = rows[1].split(",")
        assert fields[2] == "" and fields[4] == "stay" and fields[5] == "true"

    def test_zero_speed_blanks_time_threshold(self, default_2d):
        frozen = default_2d.with_(max_speed=0.0)
        report, rows = threshold_summary(frozen)
        assert not report.stationary
        fields = rows[1].split(",")
        assert fields[2] != "" and fields[3] == ""
        assert fields[4] == "stay"


class TestValidation:
    def test_default_scenario_passes(self, default_2d):
        for scenario in (default_2d, default_scenario(topology="segment")):
            results = run_validation(scenario)
            assert results and all(ok for _, ok, _ in results)

    def test_singular_channel_fails_the_rank_check(self):
        # two users at one angle give a rank-deficient Gram
        base = default_scenario()
        angles = [list(base.elevation_angles), list(base.azimuth_angles)]
        for values in angles:
            values[1] = values[0]
        scenario = default_scenario(elevation_angles=angles[0], azimuth_angles=angles[1])
        assert run_validation(scenario) == [
            ("channel_rank", False, "Gram condition number inf exceeds 1e+12")
        ]


class TestCli:
    def test_thresholds_command(self, capsys):
        assert main(["thresholds"]) == 0
        out = capsys.readouterr().out
        assert "speed threshold" in out

    def test_thresholds_of_a_stationary_start_written_to_csv(self, tmp_path, capsys):
        # two antennas 4 wavelengths apart at the wide-gap spatial
        # frequency: the rate gradient vanishes at the start
        path = tmp_path / "stationary.cfg"
        path.write_text(
            "topology = segment\n"
            "num_antennas = 2\n"
            "num_users = 2\n"
            f"elevation_angles = {math.acos(0.5)!r}, {math.acos(0.625)!r}\n"
            "azimuth_angles = 0, 0\n"
            "fading_coeffs = 1, 1\n"
            "total_power_dbm = 30\n"
            "noise_power_dbm = 30\n"
            "interval_s = 5\n"
            "max_speed_wl_s = 0.5\n"
            "initial_x_wl = 3, 7\n"
            "initial_y_wl = 0, 0\n"
        )
        out_path = tmp_path / "thresholds.csv"
        assert main(["thresholds", "--config", str(path), "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "speed threshold : (initial deployment already stationary)" in out
        assert f"wrote {out_path}" in out
        header, row = out_path.read_text().strip().split("\n")
        assert header == "initial_rate_bps_hz,grad_norm_sum,v_th_wl_s,t_th_s,decision,stationary"
        assert row.split(",")[2:] == ["", "", "stay", "true"]

    def test_special_case_csv(self, tmp_path, capsys):
        out_path = tmp_path / "case.csv"
        code = main(
            ["special-case", "--case", "wide", "--vmax", "0.1,0.2", "--out", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "v_max_wl_s,optimal_t_mov_s"
        assert float(lines[1].split(",")[1]) == 0.0
        assert float(lines[2].split(",")[1]) > 0.0

    def test_sweep_writes_byte_identical_csv(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = [
            "sweep",
            "--sweep",
            "Vmax=2,6",
            "--scheme",
            "Static,FMDOAD",
            "--out",
        ]
        assert main(args + [str(out_a)]) == 0
        assert main(args + [str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_optimize_command(self, capsys):
        assert main(["optimize", "--scheme", "Static"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_validate_command(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out

    def test_missing_config_is_fatal(self, capsys):
        assert main(["thresholds", "--config", "/nonexistent/path.cfg"]) != 0

    def test_bad_sweep_spec_is_fatal(self):
        assert main(["sweep", "--sweep", "NotAParam=1"]) != 0

    def test_config_file_flows_through(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text("max_speed_wl_s = 3.0\n")
        assert main(["thresholds", "--config", str(path)]) == 0

    def test_optimize_writes_single_row_csv(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        assert main(["optimize", "--scheme", "Static", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "Static"

    def test_sweep_prints_to_stdout_without_out(self, capsys):
        code = main(["sweep", "--sweep", "Vmax=2", "--scheme", "Static"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER)

    def test_singular_channel_is_an_error_not_a_traceback(self, tmp_path, capsys):
        # four users in one direction give a rank-one channel
        path = tmp_path / "same_direction.cfg"
        path.write_text(
            "elevation_angles = 0.5, 0.5, 0.5, 0.5\n"
            "azimuth_angles = 0.3, 0.3, 0.3, 0.3\n"
        )
        assert main(["thresholds", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "line, field",
        [
            ("max_speed_wl_s = nan", "max_speed"),
            ("max_speed_wl_s = inf", "max_speed"),
            ("interval_s = nan", "interval"),
            ("region_side_wl = nan", "region_side"),
            ("min_spacing_wl = inf", "min_spacing"),
            ("noise_power_dbm = nan", "noise_power"),
            ("elevation_angles = 1.5, 0.7, nan, 0.3", "elevation_angles"),
            ("ref_gain = nan", "fading_coeffs"),
        ],
    )
    def test_nonfinite_config_value_is_fatal(self, tmp_path, capsys, line, field):
        # a NaN speed once reported the initial layout as converged, a NaN
        # interval a NaN throughput, and a NaN region an OverflowError
        path = tmp_path / "nonfinite.cfg"
        path.write_text(line + "\n")
        assert main(["optimize", "--config", str(path), "--scheme", "OTGM"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert f"{field} must be finite" in captured.err

    @pytest.mark.parametrize(
        "grid, count",
        [
            ("0.1:1:0.6", 2),
            ("0.01:1.0:0.01", 100),
            ("0.1:0.3:0.1", 3),
            ("0.3:0.9:0.2", 4),
            ("0.1:1:0.3", 4),
            ("0.5:0.5:1", 1),
        ],
    )
    def test_speed_grid_stays_within_stop(self, grid, count, capsys):
        # 0.1:1:0.6 used to print 0.1, 0.7 and 1.3
        assert main(["special-case", "--vmax", grid]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        speeds = [float(row.split(",")[0]) for row in rows]
        start, stop, step = (float(tok) for tok in grid.split(":"))
        assert len(speeds) == count
        assert speeds[0] == start and max(speeds) <= stop
        # a stop on the grid is kept
        assert stop - speeds[-1] < step - 1e-9

    @pytest.mark.parametrize(
        "grid", ["0:1:0", "0:1:-0.1", "1:0:0.1", ",", "0.1:inf:0.1", "0.1:nan:0.1", "inf", "nan,0.2"]
    )
    def test_bad_speed_grid_is_fatal(self, grid, capsys):
        assert main(["special-case", "--vmax", grid]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["optimize", "--scheme", "OTFM", "--samples", "3"],
            ["sweep", "--sweep", "Vmax=2,6", "--scheme", "OTGM", "--grid-step", "0"],
        ],
    )
    def test_bad_run_config_fails_before_any_solve(self, args, capsys, monkeypatch):
        solves = record_solves(monkeypatch)
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert solves == []

    @pytest.mark.parametrize("schemes", [",", " , ", ""])
    def test_empty_scheme_list_is_fatal(self, schemes, capsys):
        assert main(["sweep", "--sweep", "Vmax=2", "--scheme", schemes]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_programming_error_leaves_main(self, monkeypatch, capsys):
        # no command raises a KeyError on purpose: one is a bug, so it
        # leaves main as a traceback, not as "error: ..." and exit code 2
        def broken(*args):
            raise KeyError("not a user error")

        monkeypatch.setattr(cli, "run_scheme", broken)
        with pytest.raises(KeyError, match="not a user error"):
            main(["optimize", "--scheme", "Static"])
        assert capsys.readouterr().err == ""

    def test_special_case_narrow(self, capsys):
        assert main(["special-case", "--case", "narrow", "--vmax", "0.02,0.04"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert float(lines[1].split(",")[1]) == 0.0
        assert float(lines[2].split(",")[1]) > 0.0


# (best_t_mov, best_throughput) of every scheme on the default scenario at
# 2, 6 and 18 wavelengths/s with a 0.08 s grid step; a change that moves a
# cell updates it here and names the cell, both values and the cause
DEFAULT_TABLE = {
    (2.0, SchemeId.OTGM): (1.52, 32.83457812131144),
    (2.0, SchemeId.OTFM): (1.5338686410010096, 32.770388938351594),
    (2.0, SchemeId.UPPER_BOUND): (0.0, 42.65260775817304),
    (2.0, SchemeId.FMD_OAD): (1.6, 32.693894058560566),
    (2.0, SchemeId.STATIC): (0.0, 0.012792550158695026),
    (6.0, SchemeId.OTGM): (0.56, 38.29985400442181),
    (6.0, SchemeId.OTFM): (0.6206423052106008, 38.32773741262191),
    (6.0, SchemeId.UPPER_BOUND): (0.0, 42.65260775817304),
    (6.0, SchemeId.FMD_OAD): (1.6, 34.122086206538434),
    (6.0, SchemeId.STATIC): (0.0, 0.012792550158695026),
    (18.0, SchemeId.OTGM): (0.4, 40.519977370264385),
    (18.0, SchemeId.OTFM): (0.24043654301223358, 40.31041759535255),
    (18.0, SchemeId.UPPER_BOUND): (0.0, 42.65260775817304),
    (18.0, SchemeId.FMD_OAD): (1.6, 34.122086206538434),
    (18.0, SchemeId.STATIC): (0.0, 0.012792550158695026),
}


def test_default_table_is_pinned(default_table):
    reports, _ = default_table
    got = {key: (r.best_t_mov, r.best_throughput) for key, r in reports.items()}
    assert got == DEFAULT_TABLE
