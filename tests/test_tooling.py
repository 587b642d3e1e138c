"""The committed benchmark's own checks, run as the benchmark runs them, so
a change that its self-tests or answer checks reject, or that breaks the
calls its workloads make into movant, fails here, traced or not; and one
round of each of its workloads, run in-process, ends every placement loop
below the iteration cap and without a stall, with the same result rows as
ever. An in-process round also shows how many speed-free solves it makes.
The A/B tool runs the benchmark on two checkouts."""

import hashlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from movant import harness, positioning, scheduling

from conftest import record_loop_statuses, record_solves

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_layerbench_self_tests_pass():
    done = run("layerbench/selftest.py")
    assert done.returncode == 0, done.stderr
    assert "0 self-test failures" in done.stdout


# the cells each workload's round attempts
ATTEMPTED = {"grid_search": 9, "stay_or_move": 4, "antenna_sweep": 12}


@pytest.mark.parametrize("workload", list(ATTEMPTED))
def test_layerbench_answers_are_correct(workload):
    done = run("layerbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    # a cell that raises is counted in failed, not in correct
    assert (result["attempted"], result["failed"]) == (ATTEMPTED[workload], 0), result


@pytest.mark.parametrize("workload", list(ATTEMPTED))
def test_layerbench_traced_answers_are_correct(workload):
    # the tracer wraps every name in movant's __all__ lists, binds the
    # solver's config by name and calls the kernels by parameter name
    done = run(
        "layerbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert (result["attempted"], result["failed"]) == (ATTEMPTED[workload], 0), result
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {metric["name"] for metric in declared} <= set(result["metrics"])


@pytest.fixture
def layerbench_workloads(monkeypatch):
    """``layerbench/workloads.py``, imported without writing bytecode under
    ``layerbench/``; its modules leave ``sys.modules`` afterwards."""
    here = ROOT / "layerbench"
    monkeypatch.syspath_prepend(str(here))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    yield workloads
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if path and pathlib.Path(path).parent == here:
            del sys.modules[name]


# the SHA-256 of each workload's seed-1 result rows, as layerbench/run.py
# digests them; a change that moves results updates these and says so
ROWS_DIGEST = {
    "grid_search": "24cdacaa2b5f85986e525106a49b44585ff0fe2bea9f887c96145cc2b1d66bd8",
    "stay_or_move": "0bee2bd5d891af05e2a8e597eb5d87710819946f47f1607a9b829d4b598458b6",
    "antenna_sweep": "a00be53ae969ea6b87fa01be67f9f613e4afea705afd6d81676f8a7f6204788a",
}


# the most outer rounds, summed over the solves of a seed-1 round, as the
# traced benchmark counts them (positioning.outer_iters): with the pull
# aimed at the spacing tolerance a slow solve needs two rounds, not seven,
# the reach rate ceiling leaves stay_or_move's slow draws no solve, and its
# pair chains solve no lane past the bound stop
OUTER_ROUNDS = {"grid_search": 96, "stay_or_move": 84, "antenna_sweep": 21}


@pytest.mark.parametrize("workload", list(ATTEMPTED))
def test_layerbench_loops_end_below_iteration_cap(monkeypatch, layerbench_workloads, workload):
    statuses = record_loop_statuses(monkeypatch)
    solves = record_solves(monkeypatch)
    runner = layerbench_workloads.WORKLOADS[workload](1)
    summary = runner.summarize(runner.run_round())
    assert (summary.attempted, summary.failed, summary.faults) == (ATTEMPTED[workload], 0, [])
    assert statuses and positioning._STATUS_MAX_ITERS not in statuses
    # no loop of a round runs its line search down to the tolerance either
    assert positioning._STATUS_STALLED not in statuses
    rounds = sum(solve.outcome.outer_iterations for solve in solves)
    assert rounds <= OUTER_ROUNDS[workload], rounds
    digest = hashlib.sha256("\n".join(sorted(summary.rows)).encode()).hexdigest()
    assert digest == ROWS_DIGEST[workload]


def test_antenna_sweep_fits_report_their_convergence(layerbench_workloads):
    # the N = 8 sigmoid fit runs to GAUSS_NEWTON_MAX_ITERS, and says so
    runner = layerbench_workloads.WORKLOADS["antenna_sweep"](1)
    _, reports = runner.run_round()
    fits = {n: reports[(n, harness.SchemeId.OTFM)][1].fit for n in runner.VALUES}
    sigmoid = scheduling.FitKind.SIGMOIDAL
    assert {n: (fit.kind, fit.converged) for n, fit in fits.items()} == {
        4: (sigmoid, True),
        6: (sigmoid, True),
        8: (sigmoid, False),
    }


# speed-free solves per round: antenna_sweep's sweep shares one per antenna
# count between OTFM and UpperBound, grid_search's separate run_scheme calls
# each solve their own, and stay_or_move solves the two pairs' guides only:
# the reach rate ceiling stops its slow draws' searches at t = 0
SPEED_FREE_PER_ROUND = {"antenna_sweep": 3, "grid_search": 6, "stay_or_move": 2}


@pytest.mark.parametrize("workload", list(SPEED_FREE_PER_ROUND))
def test_layerbench_speed_free_solves_per_round(monkeypatch, layerbench_workloads, workload):
    calls = []
    deploy = positioning.unconstrained_deploy

    def counting(scenario, config=None):
        calls.append(scenario.num_antennas)
        return deploy(scenario, config)

    for module in (harness, scheduling):
        monkeypatch.setattr(module, "unconstrained_deploy", counting)
    runner = layerbench_workloads.WORKLOADS[workload](1)
    # two rounds in one process, as the benchmark repeats them: the second
    # solves again, so no solve outlives the sweep that made it
    for _ in range(2):
        del calls[:]
        summary = runner.summarize(runner.run_round())
        assert (summary.attempted, summary.failed, summary.faults) == (ATTEMPTED[workload], 0, [])
        assert len(calls) == SPEED_FREE_PER_ROUND[workload], calls


# stacked solves per seed-1 round, each one positioning._optimize_stack
# call: stay_or_move's two pair chains each solve three durations alone and
# the rest, to the bound stop, in one window, beside the two pairs' guides
# and the slow draws' solves at t = 0; in the other two workloads no window
# opens
STACKS_PER_ROUND = {"grid_search": 47, "stay_or_move": 12, "antenna_sweep": 24}


@pytest.mark.parametrize("workload", list(STACKS_PER_ROUND))
def test_layerbench_stacked_solves_per_round(monkeypatch, layerbench_workloads, workload):
    stacks = []
    stack = positioning._optimize_stack

    def counting(scenario, solves, race=False):
        stacks.append(len(solves))
        return stack(scenario, solves, race)

    for module in (positioning, scheduling):
        monkeypatch.setattr(module, "_optimize_stack", counting)
    runner = layerbench_workloads.WORKLOADS[workload](1)
    summary = runner.summarize(runner.run_round())
    assert (summary.attempted, summary.failed, summary.faults) == (ATTEMPTED[workload], 0, [])
    assert len(stacks) == STACKS_PER_ROUND[workload], stacks


def test_ab_compares_a_checkout_with_itself(tmp_path):
    record = tmp_path / "ab.json"
    done = run(
        "tools/ab.py", ".", ".", "--workload", "stay_or_move", "--pairs", "1", "--seconds", "0",
        "--seed", "1", "2", "--json", str(record),
    )
    assert done.returncode == 0, done.stderr
    # the seeds' runs interleave, alternating which side runs first
    assert "pair  1 seed 1 (parent first)" in done.stdout
    assert "pair  1 seed 2 (change first)" in done.stdout
    assert "answers correct, digests equal in every pair" in done.stdout
    # a verdict per seed and one pooled over both; equal throughputs tie,
    # and a tie is no win
    for title in (
        "stay_or_move, seed 1, 1 pairs of 0 s runs",
        "stay_or_move, seed 2, 1 pairs of 0 s runs",
        "stay_or_move, pooled over seeds 1 2, 2 pairs",
    ):
        assert title in done.stdout
    assert done.stdout.count("throughput_b_hz: claim does not hold (0/1 wins") == 2
    assert "throughput_b_hz: claim does not hold (0/2 wins" in done.stdout
    # the JSON record holds each pair's metrics and digests, and the
    # quartiles and verdicts printed per seed and pooled
    written = json.loads(record.read_text())
    assert (written["workload"], written["seeds"], written["pairs"]) == ("stay_or_move", [1, 2], 1)
    assert [(r["pair"], r["seed"], r["first"]) for r in written["runs"]] == [
        (1, 1, "parent"),
        (1, 2, "change"),
    ]
    for r in written["runs"]:
        assert r["parent"]["throughput_b_hz"] == r["change"]["throughput_b_hz"]
        assert r["digests"]["parent"] == r["digests"]["change"]
    assert [summary["seed"] for summary in written["summaries"]] == [1, 2, "pooled"]
    pooled = written["summaries"][-1]["metrics"]["throughput_b_hz"]
    assert (pooled["claim"], pooled["wins"], pooled["pairs"]) == (False, 0, 2)
    assert pooled["parent"] == pooled["change"] and len(pooled["parent"]) == 3
    # and the no-regression verdict of each metric, with its bound
    for summary in written["summaries"]:
        for row in summary["metrics"].values():
            assert {"relative_change", "bound", "regression"} <= row.keys()
    assert done.stdout.count("throughput_b_hz: no regression (change median") == 3
    assert written["faults"] == [] and written["moved_rows"] == []


def test_ab_fails_when_digests_differ(tmp_path):
    # two stand-in checkouts whose benchmark runs report different digests
    # and one different row, the change at half the parent's wall time
    for side, wall in (("parent", 1.0), ("change", 0.5)):
        bench = tmp_path / side / "layerbench"
        (bench / "out").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]})
        )
        rows = ["param,scheme,rate", f"4.0,FMDOAD,{wall}", "4.0,Static,0.1"]
        record = json.dumps({"digest": side, "rows": rows})
        result = json.dumps(
            {"correct": True, "attempted": 9, "failed": 0, "metrics": {"wall_s": {"value": wall}}}
        )
        (bench / "run.py").write_text(
            "import pathlib\n"
            f"pathlib.Path('layerbench/out/grid_search-seed1-trace0.json').write_text({record!r})\n"
            f"print({result!r})\n"
        )
    done = run(
        "tools/ab.py", str(tmp_path / "parent"), str(tmp_path / "change"),
        "--workload", "grid_search", "--pairs", "2", "--json", str(tmp_path / "ab.json"),
    )
    assert done.returncode == 1
    assert "pair 1: digests differ" in done.stderr and "pair 2: digests differ" in done.stderr
    # the rows that moved, once for the seed, not once per pair
    moved = "\nseed 1: result rows that differ (- parent only, + change only)\n"
    assert done.stdout.count(moved) == 1
    assert moved + "- 4.0,FMDOAD,1.0\n+ 4.0,FMDOAD,0.5\n" in done.stdout
    assert "Static" not in done.stdout
    written = json.loads((tmp_path / "ab.json").read_text())
    assert written["moved_rows"] == [
        {"seed": 1, "parent": ["4.0,FMDOAD,1.0"], "change": ["4.0,FMDOAD,0.5"]}
    ]
    assert "wall_s: claim holds (2/2 wins, 9/10 needed; median gap 0.5 vs parent IQR 0)" in (
        done.stdout
    )


def test_ab_reports_each_workload(tmp_path):
    # stand-in checkouts whose runs report equal digests; the change halves
    # grid_search's wall time and leaves stay_or_move's as it is, and has
    # one line of source fewer
    for side in ("parent", "change"):
        bench = tmp_path / side / "layerbench"
        (bench / "out").mkdir(parents=True)
        source = tmp_path / side / "src" / "movant"
        source.mkdir(parents=True)
        (source / "__init__.py").write_text("one = 1\ntwo = 2\n")
        (source / "kernels.py").write_text("three = 3\n" if side == "parent" else "")
        (source / "notes.txt").write_text("not counted\n")
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]})
        )
        faster = 0.5 if side == "change" else 1.0
        (bench / "run.py").write_text(
            "import json, pathlib, sys\n"
            "workload, seed = sys.argv[2], sys.argv[4]\n"
            "record = {'digest': 'same', 'rows': ['row']}\n"
            "pathlib.Path(f'layerbench/out/{workload}-seed{seed}-trace0.json')"
            ".write_text(json.dumps(record))\n"
            f"wall = {faster} if workload == 'grid_search' else 1.0\n"
            "print(json.dumps({'correct': True, 'attempted': 4, 'failed': 0,"
            " 'metrics': {'wall_s': {'value': wall}}}))\n"
        )
    done = run(
        "tools/ab.py", str(tmp_path / "parent"), str(tmp_path / "change"),
        "--workload", "grid_search", "stay_or_move", "--pairs", "2",
        "--json", str(tmp_path / "ab.json"),
    )
    assert done.returncode == 0, done.stderr
    # the workloads' runs interleave, alternating which side runs first
    assert "pair  1 grid_search (parent first)" in done.stdout
    assert "pair  1 stay_or_move (change first)" in done.stdout
    assert "pair  2 grid_search (change first)" in done.stdout
    # each workload gets its own table and verdicts
    grid, stay = done.stdout.split("\ngrid_search, seed 1, 2 pairs of 15 s runs\n")[1].split(
        "\nstay_or_move, seed 1, 2 pairs of 15 s runs\n"
    )
    assert "wall_s: claim holds (2/2 wins" in grid
    assert "wall_s: claim does not hold (0/2 wins" in stay
    assert "wall_s: no regression (change median +0.00%" in stay
    assert "\nsrc/movant/*.py lines: parent 3, change 2 (-1)\n" in done.stdout
    written = json.loads((tmp_path / "ab.json").read_text())
    assert [record["workload"] for record in written] == ["grid_search", "stay_or_move"]
    assert [len(record["runs"]) for record in written] == [2, 2]
    assert [record["src_lines"] for record in written] == [{"parent": 3, "change": 2}] * 2


def test_ab_faults_a_larger_failed_share(tmp_path):
    # stand-in checkouts with equal digests: on grid_search both sides fail
    # one of 9 operations per run, on stay_or_move the change fails one of
    # 4 where the parent fails none
    for side in ("parent", "change"):
        bench = tmp_path / side / "layerbench"
        (bench / "out").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]})
        )
        (bench / "run.py").write_text(
            "import json, pathlib, sys\n"
            "workload, seed = sys.argv[2], sys.argv[4]\n"
            "pathlib.Path(f'layerbench/out/{workload}-seed{seed}-trace0.json')"
            ".write_text(json.dumps({'digest': 'same', 'rows': ['row']}))\n"
            "attempted = 9 if workload == 'grid_search' else 4\n"
            f"failed = 1 if workload == 'grid_search' else {int(side == 'change')}\n"
            "print(json.dumps({'correct': True, 'attempted': attempted, 'failed': failed,"
            " 'metrics': {'wall_s': {'value': 1.0}}}))\n"
        )
    done = run(
        "tools/ab.py", str(tmp_path / "parent"), str(tmp_path / "change"),
        "--workload", "grid_search", "stay_or_move", "--pairs", "2",
        "--json", str(tmp_path / "ab.json"),
    )
    assert done.returncode == 1
    faults = [line for line in done.stderr.splitlines() if line.startswith("FAULT: ")]
    assert faults == [
        "FAULT: stay_or_move: the change fails 2 of 8 operations, the parent 0 of 8"
    ]
    assert "1 fault(s)" in done.stdout
    written = json.loads((tmp_path / "ab.json").read_text())
    assert [(record["workload"], record["failed"]) for record in written] == [
        ("grid_search", {"parent": [2, 18], "change": [2, 18]}),
        ("stay_or_move", {"parent": [0, 8], "change": [2, 8]}),
    ]


def test_ab_claim_rule(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)

    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    # 10/10 wins by more than the parent's IQR of 0.2
    assert ab.claim(parent, [p - 0.3 for p in parent], True)[:2] == (True, 10)
    # 10/10 wins, but by less than that IQR
    assert ab.claim(parent, [p - 0.1 for p in parent], True)[:2] == (False, 10)
    # 8/10 wins: two ties count for neither side
    change = [p - 0.3 for p in parent[:8]] + parent[8:]
    assert ab.claim(parent, change, True)[:2] == (False, 8)
    # higher is better: the same gap the other way
    assert ab.claim(parent, [p + 0.3 for p in parent], False)[:2] == (True, 10)


def test_ab_alternates_each_seed(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)

    # with one, two or three seeds, each seed runs a different side first in
    # two pairs in a row, and the seeds of one pair alternate too
    for seeds in (1, 2, 3):
        for pair in (1, 2, 3):
            for position in range(seeds):
                firsts = {ab.run_order(pair + k, position)[0] for k in (0, 1)}
                assert firsts == set(ab.SIDES)
                assert set(ab.run_order(pair, position)) == set(ab.SIDES)
            order = [ab.run_order(pair, position)[0] for position in range(seeds)]
            assert all(a != b for a, b in zip(order, order[1:]))
    assert ab.run_order(1, 0) == ("parent", "change")


def test_ab_regression_rule(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)

    # parent median 1.2, IQR 0.2: a bound of 0.25 allows 0.3 either way
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    verdict, relative = ab.regression(parent, [p + 0.2 for p in parent], True, 0.25)
    assert verdict == "no regression" and relative == pytest.approx(0.2 / 1.2)
    assert ab.regression(parent, [p + 0.4 for p in parent], True, 0.25)[0] == "regression"
    assert ab.regression(parent, [p - 0.4 for p in parent], False, 0.25)[0] == "regression"
    # a spread wider than the bound leaves the verdict open, unless every
    # change run reads better than every parent run
    assert ab.regression(parent, parent, True, 0.1)[0] == "unresolved"
    assert ab.regression(parent, [0.5] * 10, True, 0.1)[0] == "no regression"
