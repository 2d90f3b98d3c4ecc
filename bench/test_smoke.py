"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Fails if a metric named in BENCHMARK.json is missing from a run's result
line, if a correctness check did not run or lets a wrong answer through,
or if a run leaves files behind in the checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from workloads import Checker, Command, closed_form, simulate_workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    res = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    checks = json.loads(next(ln for ln in lines if ln.startswith("checks "))[len("checks ") :])
    for name in run.REQUIRED_CHECKS[workload]:
        assert checks.get(name, 0) > 0, f"check {name} did not run"
    assert not os.path.exists(os.path.join(ROOT, ".bench_work"))


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


FGN_THREE_POINT = {"kind": "fgn", "H": 0.75, "h": 1.0, "a": 0.0, "b": 2.0, "n": 401}


def test_reference_matches_published_closed_form():
    name, value, _ = closed_form(FGN_THREE_POINT)
    assert name == "three_point"
    assert value == pytest.approx(0.5744706733790146, rel=1e-14)


def _rate_stdout(sigma_sq, name="three_point", verified="True"):
    return f"command = rate\nclosed_form = {name}\nsigma_sq = {sigma_sq!r}\nverified = {verified}\n"


def test_checker_rejects_wrong_answers():
    checker = Checker()
    rate = Command("rate", "x.ini", FGN_THREE_POINT)
    files = {"measure.csv": b""}
    good = closed_form(FGN_THREE_POINT)[1]
    assert checker.check(rate, 0, _rate_stdout(good), files, {}) is None
    assert checker.check(rate, 0, _rate_stdout(good * (1 + 1e-8)), files, {}) is not None
    assert checker.check(rate, 0, _rate_stdout(good, name="two_point"), files, {}) is not None
    assert checker.check(rate, 0, _rate_stdout(good, verified="False"), files, {}) is not None
    for code in ("exception", 1, 4, 5):
        assert checker.check(rate, code, _rate_stdout(good), files, {}) is not None
    # an answer line the check needs is missing: a failure, not a crash
    assert checker.check(rate, 0, "closed_form = three_point\nverified = True\n", files, {}) is not None

    solve = Command("solve", "s.ini", FGN_THREE_POINT)
    out = f"sigma_sq = {good + 1e-6!r}\nequilibrium_gap = 1e-7\nconverged = False\n"
    assert checker.check(solve, 2, out, {}, {}) is not None  # energy above the certificate
    out = f"sigma_sq = {good + 1e-8!r}\nequilibrium_gap = 1e-7\nconverged = False\n"
    assert checker.check(solve, 2, out, {}, {}) is None
    assert checker.check(solve, 0, out, {}, {}) is not None  # exit 0 without convergence


def test_checker_rejects_biased_monte_carlo():
    cmds, _, _ = simulate_workload(0, "tiny")
    cmd = cmds[0]
    p = 0.1
    checker = Checker({(cmd.spec["n"], u): p for u in cmd.extra["u_list"]})
    trials = cmd.extra["trials"]
    sd = (trials * p * (1 - p)) ** 0.5

    def ldp(hits):
        rows = "".join(f"{u},{trials},{hits},0,0,0,0\n" for u in cmd.extra["u_list"])
        return {"ldp.csv": ("u,trials,hits,p_hat,log_p_over_u2,ci_halfwidth,flag\n" + rows).encode()}

    assert checker.check(cmd, 0, "", ldp(round(trials * p + 2 * sd)), {}) is None
    assert checker.check(cmd, 0, "", ldp(round(trials * p + 6 * sd)), {}) is not None
    assert checker.check(cmd, 0, "", {}, {}) is not None  # no ldp.csv written


class _DriftingCli:
    """Stand-in for gaussmin.cli whose output changes on every call."""

    calls = 0

    def main(self, argv):
        _DriftingCli.calls += 1
        print(f"sigma_sq = {0.5 + _DriftingCli.calls * 1e-15!r}")
        print("equilibrium_gap = 1.0\nconverged = False")
        return 2


def test_rerun_that_differs_is_a_failure(tmp_path):
    cmd = Command("solve", "s.ini", {"kind": "fgn", "H": 0.3, "h": 1.0, "a": 0.0, "b": 3.0, "n": 41})
    runner = run.Runner(_DriftingCli(), [cmd], str(tmp_path), Checker())
    runner.loop(0.0)
    assert runner.attempted == 2
    assert len(runner.failures) == 1 and "differs" in runner.failures[0]
