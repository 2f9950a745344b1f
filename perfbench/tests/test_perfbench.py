"""Tests of the benchmark itself (not of ropcalc).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from run import percentile, tail, window_stats  # noqa: E402

from ropcalc import collision_probability  # noqa: E402


def _inputs(workload, seed, batches=3):
    log = workloads.InputLog()
    for index in range(batches):
        log.add(workloads.batch(workload, seed, index))
    return log.report()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7)["sha256"] != _inputs(workload, 8)["sha256"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_audit_is_seeded(workload):
    assert workloads.audit(workload, 7) == workloads.audit(workload, 7)
    assert workloads.audit(workload, 7) != workloads.audit(workload, 8)
    assert len(workloads.audit(workload, 7)) == workloads.AUDIT_OPS


def _seed_bracket(op):
    """solve_space's first upper bracket, 4 * t0."""
    return 4 * op["p"] * (op["p"] - 1) / 2 / -math.log1p(-op["x"])


def test_only_the_audit_draws_solve_space_brackets_past_the_domain():
    window = [op for index in range(50) for op in workloads.batch("solve_sweep", 7, index)
              if op["kind"] == "solve_space"]
    assert max(map(_seed_bracket, window)) <= 1e30
    # the root t0 itself lies inside the domain
    assert all(1e30 < _seed_bracket(op) < 4e30 for op in workloads.audit("solve_sweep", 7))


def _as_list(r):
    return [r.probability, r.log_survival, r.method, r.abs_error_bound, r.order]


@pytest.mark.parametrize("t, p", [(2**36, 10**5), (10**7, 10**4), (365, 23)])
def test_oracle_flags_injected_wrong_answers(t, p):
    check = oracle.Oracle().check_forward
    good = _as_list(collision_probability(t, p))
    assert check(t, p, good) == []
    wrong_probability = list(good)
    wrong_probability[0] += 1e-9
    assert check(t, p, wrong_probability) == ["probability"]
    wrong_log = list(good)
    wrong_log[1] *= 1 + 1e-6
    assert check(t, p, wrong_log) == ["log_survival"]


def test_oracle_is_exact_where_the_answer_is():
    check = oracle.Oracle().check_forward
    assert check(10, 1, _as_list(collision_probability(10, 1))) == []
    assert check(10, 11, _as_list(collision_probability(10, 11))) == []
    assert check(10, 11, [1.0, -1e300, "exact", 0.0, None]) == ["log_survival"]


def test_tables_parse_back_to_their_generated_rows():
    from ropcalc import parse_populations

    for table in workloads.batch("rop_tables", 3, 0):
        records = parse_populations(table["text"])
        assert [(r.name, r.population) for r in records] == list(zip(table["names"], table["pops"]))


def test_percentile_counts_samples_beyond_it():
    values = list(range(1, 101))
    assert percentile(values, 90) == (90, 10)
    assert percentile(values, 50) == (50, 50)


def test_tail_is_the_median_over_parts_of_the_window():
    steady = [1.0] * 4000
    burst = steady[:1000] + [9.0] * 1000 + steady[2000:]
    assert tail(steady) == (1.0, 10) == tail(burst)
    assert tail([2.0] * 999) == (2.0, 9)


def test_times_are_scaled_to_the_reference_host():
    op = {"seconds": 0.01, "answered": True, "ok": True, "calibration": calibration.REFERENCE_S}
    idle = window_stats([op] * 4)
    # the same work on a host twice as slow: twice the time and twice the loop time
    busy = window_stats([dict(op, seconds=0.02, calibration=2 * calibration.REFERENCE_S)] * 4)
    assert idle["ops_per_s"] == pytest.approx(100) == busy["ops_per_s"]
    assert busy["latencies"] == pytest.approx(idle["latencies"])


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_sweep", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_listed_metric_is_emitted(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    listed = {m["name"]: m["unit"] for m in spec[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == listed


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_checks_flag_a_wrong_solver_answer_and_a_wrong_cli_output():
    import check

    checker = check.Checker()
    op = {"kind": "solve_population", "t": 365, "x": 0.5}
    assert checker.check(op, 23) == ([], 0)
    assert checker.check(op, 24) == (["not_minimal"], 0)
    cli_op = {"kind": "cli", "sub": "prob", "t": 365, "p": 23}
    good = json.dumps(checker._cli_expected(cli_op))
    assert checker.check(cli_op, {"code": 0, "stdout": good, "stderr": ""}) == ([], 0)
    bad = good.replace("0.5072972343239854", "0.5072972343239855")
    assert bad != good
    assert checker.check(cli_op, {"code": 0, "stdout": bad, "stderr": ""}) == (["cli_mismatch"], 0)
