"""The committed benchmark's own checks, run as the benchmark runs them, so
a solver change that its self-tests or answer checks reject fails here."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_layerbench_self_tests_pass():
    done = run("layerbench/selftest.py")
    assert done.returncode == 0, done.stderr
    assert "0 self-test failures" in done.stdout


def test_layerbench_stay_or_move_answers_are_correct():
    done = run("layerbench/run.py", "--workload", "stay_or_move", "--seed", "1", "--seconds", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
