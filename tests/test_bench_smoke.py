"""The benchmark harness runs against the current source.  `bench/` calls
fibcalc's public functions, checks their outputs against its own reference
and, traced, wraps probed names and counts from their results; a change under
`src/` that breaks any of that fails here, before a benchmark run.  Each
check runs the harness as a user would, in a subprocess from the repository
root."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


def test_bench_selftest_catches_every_corruption():
    result = _run("bench/selftest.py")
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("workload", ["scripts", "alexander", "twists"])
def test_one_traced_round_is_correct(workload):
    result = _run("bench/run.py", "--workload", workload, "--seed", "1",
                  "--seconds", "0", "--trace", "1")
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["correct"] is True, result.stderr
    assert summary["failed"] == 0 and summary["attempted"] > 0
