"""The benchmark's workloads.

Each workload builds fixed inputs, runs one round of a fixed list of
operations through movant's public functions (``run_round``, the timed
part) and checks that round's outputs (``summarize``, untimed). The seed
only orders the operations and draws extra inputs that are checked but not
timed: the cost of a solve depends strongly on the scenario, so timed
inputs drawn from the seed would make runs incomparable.
"""

from dataclasses import dataclass, field

import numpy as np

import checks
from movant import channel, errors, harness, positioning, scenario, scheduling, stationarity

# a failure the program reports through its own error types counts as a
# failed operation; any other exception is a fault of the run itself
OPERATION_ERRORS = (errors.MovantError, ValueError)
S = harness.SchemeId


@dataclass
class RoundSummary:
    attempted: int = 0
    failed: int = 0
    throughputs: list = field(default_factory=list)  # successful optimizing operations
    rows: list = field(default_factory=list)  # one canonical line per operation
    faults: list = field(default_factory=list)


def _row(key, report) -> str:
    return f"{key},{report.best_t_mov!r},{report.best_rate!r},{report.best_throughput!r},{report.converged}"


def _rng(seed: int):
    return np.random.default_rng(seed % 2**64)  # any integer seed, negative too


def _order(seed: int, items: list) -> list:
    return [items[i] for i in _rng(seed).permutation(len(items))]


class GridSearch:
    """OTGM at grid step 0.08 s (100 durations) on the default scenario at
    2, 6 and 18 wl/s, beside UpperBound and Static at the same speeds."""

    SPEEDS = (2.0, 6.0, 18.0)
    GRID_STEP = 0.08
    SCHEMES = (S.OTGM, S.UPPER_BOUND, S.STATIC)

    def __init__(self, seed: int):
        self.scenarios = {v: harness.default_scenario(max_speed_wl_s=v) for v in self.SPEEDS}
        self.config = harness.RunConfig(grid_step=self.GRID_STEP)
        self.ops = _order(seed, [(v, s) for v in self.SPEEDS for s in self.SCHEMES])

    def warmup(self):
        positioning.optimize_positions(self.scenarios[6.0], self.GRID_STEP)

    def extra_checks(self) -> list:
        return []

    def run_round(self, tracer=None) -> dict:
        out = {}
        for v, scheme in self.ops:
            if tracer is not None:
                tracer.op = f"{scheme.value}@{v}"
            try:
                out[(v, scheme)] = harness.run_scheme(self.scenarios[v], scheme, self.config)
            except OPERATION_ERRORS as exc:
                out[(v, scheme)] = exc
        return out

    def summarize(self, out: dict) -> RoundSummary:
        summary = RoundSummary(attempted=len(out))
        best = {}
        for (v, scheme), report in out.items():
            key = f"{scheme.value}@{v}"
            if isinstance(report, Exception):
                summary.failed += 1
                summary.rows.append(f"{key},failed,{report}")
                continue
            s = self.scenarios[v]
            reach = {S.OTGM: v * report.best_t_mov, S.UPPER_BOUND: None, S.STATIC: 0.0}[scheme]
            faults = checks.report_faults(
                s, report.best_t_mov, report.best_deployment, report.best_rate,
                report.best_throughput, reach,
            )
            if scheme is S.OTGM:
                faults += checks.curve_faults(
                    s, report.best_t_mov, report.best_throughput, report.curve, report.failures
                )
            if scheme is not S.STATIC:
                summary.throughputs.append(report.best_throughput)
            summary.faults += [f"{key}: {f}" for f in faults]
            summary.rows.append(_row(key, report))
            best[(v, scheme)] = report.best_throughput
        previous = None
        for v in self.SPEEDS:
            chain = (S.UPPER_BOUND, S.OTGM, S.STATIC)
            if all((v, s) in best for s in chain):
                summary.faults += checks.ordering_faults(
                    f"{v} wl/s", [(s.value, best[(v, s)]) for s in chain]
                )
            if (v, S.OTGM) in best:
                current = (f"OTGM@{v}", best[(v, S.OTGM)])
                if previous is not None:
                    summary.faults += checks.ordering_faults("OTGM over speed", [current, previous])
                previous = current
        return summary


class StayOrMove:
    """Slow-antenna scenarios at half their own speed threshold, each a
    ``speed_threshold`` then a 10-point ``general_search``, and the paper's
    two-antenna wide and narrow line cases on a 0.05 s grid."""

    GENERATOR_SEED = 909  # criterion 9's scenario generator
    SLOW_SCENARIOS = 2
    COARSE_POINTS = 10
    PAIRS = ((4.0, 6.0), (5.0, 5.5))
    PAIR_STEP = 0.05
    CHECKED_SCENARIOS = 3

    def __init__(self, seed: int):
        self.slow = [
            s.with_(max_speed=0.5 * stationarity.speed_threshold(s).speed_threshold)
            for s in self._draw(np.random.default_rng(self.GENERATOR_SEED), self.SLOW_SCENARIOS)
        ]
        self.pairs = [scenario.two_antenna_line_scenario(x1, x2) for x1, x2 in self.PAIRS]
        self.checked = self._draw(_rng(seed), self.CHECKED_SCENARIOS)
        self.ops = _order(
            seed,
            [("slow", i) for i in range(len(self.slow))] + [("pair", i) for i in range(len(self.pairs))],
        )

    @staticmethod
    def _draw(rng, count: int) -> list:
        """Criterion 9's generator: default scenarios with four users at
        angles uniform in [0.15, 1.45] rad, skipping stationary ones and,
        unlike criterion 9, ones whose initial channel is singular (some
        seeds draw them; ``speed_threshold`` then rightly raises)."""
        out = []
        while len(out) < count:
            thetas = rng.uniform(0.15, 1.45, 4)
            phis = rng.uniform(0.15, 1.45, 4)
            s = harness.default_scenario(elevation_angles=list(thetas), azimuth_angles=list(phis))
            try:
                stationary = stationarity.speed_threshold(s).stationary
            except errors.SingularChannel:
                continue
            if not stationary:
                out.append(s)
        return out

    def warmup(self):
        positioning.optimize_positions(self.pairs[0], 1.0)

    def extra_checks(self) -> list:
        faults = []
        for i, s in enumerate(self.checked):
            report = stationarity.speed_threshold(s)
            slow = s.with_(max_speed=0.5 * report.speed_threshold)
            slow_decision = stationarity.speed_threshold(slow).decision.value
            start = s.initial_positions
            found = (
                checks.threshold_faults(s, report.speed_threshold, report.decision.value)
                + checks.threshold_faults(slow, report.speed_threshold, slow_decision)
                + checks.rate_faults(s, start, channel.achievable_rate(s, start))
            )
            faults += [f"checked scenario {i}: {f}" for f in found]
        return faults

    def run_round(self, tracer=None) -> dict:
        out = {}
        for kind, i in self.ops:
            if tracer is not None:
                tracer.op = f"{kind}{i}"
            try:
                if kind == "slow":
                    s = self.slow[i]
                    threshold = stationarity.speed_threshold(s)
                    out[(kind, i)] = (
                        threshold,
                        scheduling.general_search(s, grid_step=s.interval / self.COARSE_POINTS),
                    )
                else:
                    out[(kind, i)] = (None, scheduling.general_search(self.pairs[i], grid_step=self.PAIR_STEP))
            except OPERATION_ERRORS as exc:
                out[(kind, i)] = exc
        return out

    def summarize(self, out: dict) -> RoundSummary:
        summary = RoundSummary(attempted=len(out))
        for (kind, i), result in out.items():
            key = f"{kind}{i}"
            if isinstance(result, Exception):
                summary.failed += 1
                summary.rows.append(f"{key},failed,{result}")
                continue
            threshold, report = result
            s = self.slow[i] if kind == "slow" else self.pairs[i]
            faults = checks.report_faults(
                s, report.best_t_mov, report.best_deployment, report.best_rate,
                report.best_throughput, s.max_speed * report.best_t_mov,
            )
            faults += checks.curve_faults(
                s, report.best_t_mov, report.best_throughput, report.curve, report.failures
            )
            if kind == "slow":
                faults += checks.threshold_faults(s, threshold.speed_threshold, threshold.decision.value)
                faults += checks.stay_faults(report.best_t_mov)
            else:
                faults += checks.two_antenna_faults(s, self.PAIR_STEP, report.best_t_mov, report.best_throughput)
            summary.throughputs.append(report.best_throughput)
            summary.faults += [f"{key}: {f}" for f in faults]
            summary.rows.append(_row(key, report))
        return summary


class AntennaSweep:
    """``run_sweep`` over NumAntennas in {4, 6, 8} x {OTFM, UpperBound,
    FMDOAD, Static} on the default scenario, with the default RunConfig."""

    VALUES = (4, 6, 8)
    SCHEMES = (S.OTFM, S.UPPER_BOUND, S.FMD_OAD, S.STATIC)

    def __init__(self, seed: int):
        self.base = harness.default_scenario()
        rng = _rng(seed)
        self.spec = harness.SweepSpec(
            harness.SweepParameter.NUM_ANTENNAS,
            tuple(self.VALUES[i] for i in rng.permutation(len(self.VALUES))),
            tuple(self.SCHEMES[i] for i in rng.permutation(len(self.SCHEMES))),
        )

    def warmup(self):
        s = harness.scenario_variant(self.base, harness.SweepParameter.NUM_ANTENNAS, self.VALUES[0])
        positioning.optimize_positions(s, 0.2 * s.interval)

    def extra_checks(self) -> list:
        return []

    def run_round(self, tracer=None) -> tuple:
        # run_sweep returns CSV rows only; record the reports behind them so
        # that deployments can be checked too
        reports = {}
        inner = harness.run_scheme

        def recording(scenario, scheme, run_config=None):
            report = inner(scenario, scheme, run_config)
            reports[(scenario.num_antennas, scheme)] = (scenario, report)
            return report

        if tracer is not None:
            tracer.op = "sweep"
        harness.run_scheme = recording
        try:
            rows = harness.run_sweep(self.base, self.spec)
        finally:
            harness.run_scheme = inner
        return rows, reports

    def summarize(self, out: tuple) -> RoundSummary:
        rows, reports = out
        cells = rows[1:]
        summary = RoundSummary(attempted=len(self.spec.values) * len(self.spec.schemes))
        summary.rows = list(rows)
        if len(cells) != summary.attempted:
            summary.faults.append(f"sweep has {len(cells)} rows for {summary.attempted} cells")
        best = {}
        for line in cells:
            fields = line.split(",")
            if len(fields) != 7:
                summary.faults.append(f"malformed sweep row {line!r}")
                continue
            n, scheme = int(float(fields[0])), S(fields[1])
            if fields[6]:
                summary.failed += 1
                continue
            s, report = reports[(n, scheme)]
            t, rate, throughput = (float(x) for x in fields[2:5])
            if (t, rate, throughput) != (report.best_t_mov, report.best_rate, report.best_throughput):
                summary.faults.append(f"N={n} {scheme.value}: row {line!r} differs from its report")
            reach = None if scheme is S.UPPER_BOUND else s.max_speed * t
            faults = checks.report_faults(s, t, report.best_deployment, rate, throughput, reach)
            summary.faults += [f"N={n} {scheme.value}: {f}" for f in faults]
            if scheme is not S.STATIC:
                summary.throughputs.append(throughput)
            best[(n, scheme)] = throughput
        for n in self.VALUES:
            for chain in ((S.UPPER_BOUND, S.OTFM, S.STATIC), (S.UPPER_BOUND, S.FMD_OAD)):
                if all((n, s) in best for s in chain):
                    summary.faults += checks.ordering_faults(
                        f"N={n}", [(s.value, best[(n, s)]) for s in chain]
                    )
        return summary


WORKLOADS = {"grid_search": GridSearch, "stay_or_move": StayOrMove, "antenna_sweep": AntennaSweep}
