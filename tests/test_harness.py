
import numpy as np
import pytest

import movant.harness as harness
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
from movant.scenario import Topology
from movant.stationarity import speed_threshold

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


class TestSchemes:
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
        spec = SweepSpec(SweepParameter.NUM_ANTENNAS, (3.0, 5.0), (SchemeId.STATIC,))
        rows = run_sweep(default_2d, spec, QUICK)
        assert len(rows) == 3
        bad = rows[1].split(",")
        assert bad[0] == "3.0" and bad[-1] != ""
        good = rows[2].split(",")
        assert good[-1] == ""

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


class TestCli:
    def test_thresholds_command(self, capsys):
        assert main(["thresholds"]) == 0
        out = capsys.readouterr().out
        assert "speed threshold" in out

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

    @pytest.mark.parametrize("grid", ["0:1:0", "0:1:-0.1", "1:0:0.1", ","])
    def test_bad_speed_grid_is_fatal(self, grid, capsys):
        assert main(["special-case", "--vmax", grid]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize("schemes", [",", " , ", ""])
    def test_empty_scheme_list_is_fatal(self, schemes, capsys):
        assert main(["sweep", "--sweep", "Vmax=2", "--scheme", schemes]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_zero_restarts_is_fatal(self, capsys):
        assert main(["optimize", "--scheme", "Static", "--restarts", "0"]) == 2
        assert "restarts" in capsys.readouterr().err

    def test_special_case_narrow(self, capsys):
        assert main(["special-case", "--case", "narrow", "--vmax", "0.02,0.04"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert float(lines[1].split(",")[1]) == 0.0
        assert float(lines[2].split(",")[1]) > 0.0
