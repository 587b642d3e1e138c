"""The committed benchmark's own checks, run as the benchmark runs them, so
a change that its self-tests or answer checks reject, or that breaks the
calls its workloads make into movant, fails here, traced or not; and one
round of each of its workloads, run in-process, ends every placement loop
below the iteration cap and without a stall, with the same result rows as
ever. An in-process round also shows how many speed-free solves it makes.
The A/B tool runs the benchmark on two checkouts."""

import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

from movant import harness, positioning, scheduling

from conftest import record_loop_statuses

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
    "antenna_sweep": "50d9aa03a9062a9627cb4866c5cf1c3ee1814bfe91c98d944f6540c521fc0bb5",
}


@pytest.mark.parametrize("workload", list(ATTEMPTED))
def test_layerbench_loops_end_below_iteration_cap(monkeypatch, layerbench_workloads, workload):
    statuses = record_loop_statuses(monkeypatch)
    runner = layerbench_workloads.WORKLOADS[workload](1)
    summary = runner.summarize(runner.run_round())
    assert (summary.attempted, summary.failed, summary.faults) == (ATTEMPTED[workload], 0, [])
    assert statuses and positioning._STATUS_MAX_ITERS not in statuses
    # no loop of a round runs its line search down to the tolerance either
    assert positioning._STATUS_STALLED not in statuses
    digest = hashlib.sha256("\n".join(sorted(summary.rows)).encode()).hexdigest()
    assert digest == ROWS_DIGEST[workload]


# speed-free solves per round: antenna_sweep's sweep shares one per antenna
# count between OTFM and UpperBound, grid_search's separate run_scheme calls
# each solve their own
SPEED_FREE_PER_ROUND = {"antenna_sweep": 3, "grid_search": 6}


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


def test_ab_compares_a_checkout_with_itself():
    done = run(
        "tools/ab.py", ".", ".", "--workload", "stay_or_move", "--pairs", "1", "--seconds", "0"
    )
    assert done.returncode == 0, done.stderr
    assert "pair  1 (parent first)" in done.stdout
    assert "answers correct, digests equal in every pair" in done.stdout


def test_ab_fails_when_digests_differ(tmp_path):
    # two stand-in checkouts whose benchmark runs report different digests
    for side in ("parent", "change"):
        bench = tmp_path / side / "layerbench"
        (bench / "out").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower"}]})
        )
        record = json.dumps({"digest": side})
        result = json.dumps({"correct": True, "metrics": {"wall_s": {"value": 1.0}}})
        (bench / "run.py").write_text(
            "import pathlib\n"
            f"pathlib.Path('layerbench/out/grid_search-seed1-trace0.json').write_text({record!r})\n"
            f"print({result!r})\n"
        )
    done = run(
        "tools/ab.py", str(tmp_path / "parent"), str(tmp_path / "change"),
        "--workload", "grid_search", "--pairs", "2",
    )
    assert done.returncode == 1
    assert "pair 1: digests differ" in done.stderr and "pair 2: digests differ" in done.stderr
