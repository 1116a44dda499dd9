"""Tests of the benchmark itself: its declared metrics, its output checks,
the repeatability of its counts and where its traced time goes.

    PYTHONPATH=src python -m pytest perfbench -q      (about a minute)
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import reference
import tracing
import workloads
from gaplab import subtour

ROOT = Path(__file__).resolve().parent.parent
REPEATABLE_COUNTS = ("lp_solver.pivots", "subtour.rounds", "subtour.cuts_added",
                     "exact.held_karp.states", "gline.zvector_candidates")


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("n, beyond, percentile", [(1, 0, 100.0), (4, 1, 75.0), (8, 2, 75.0),
                                                   (40, 10, 75.0), (100, 10, 90.0)])
def test_tail_keeps_samples_beyond_it(n, beyond, percentile):
    value, pct, got_beyond = bench.tail([float(i) for i in range(n)])
    assert (got_beyond, pct) == (beyond, percentile)
    assert value == n - 1 - beyond


def checked(ops) -> bench.Checker:
    checker = bench.Checker()
    checker.check(ops, bench.run_pass(ops)[2])
    checker.finish()
    return checker


def small_lp_ops(ops):
    return [op for op in ops if op.label in ("solve lp --n 5 --d 3", "solve lp --n 6 --d 1")]


def test_grid_checks_pass_with_true_references():
    checker = checked(small_lp_ops(workloads.build("small-oracles", 1)))
    assert checker.attempted == 2 and checker.error_rate == 0.0


def test_wrong_lp_reference_raises_error_rate(monkeypatch):
    """Negative control: the same operations against a closed form shifted
    by 0.25, as ``verify --corrupt-lp-constant 0.25`` does for verify."""
    true_value = subtour.closed_form_lp_value
    with monkeypatch.context() as m:
        m.setattr(workloads.subtour, "closed_form_lp_value", lambda n, d: true_value(n, d) + 0.25)
        ops = workloads.build("small-oracles", 1)
    checker = checked(small_lp_ops(ops))
    assert checker.error_rate == 0.5  # n = 6, d = 1 is checked against 3n, not the closed form
    assert "expected" in checker.failures[0]


def test_wrong_cut_reference_raises_error_rate(monkeypatch):
    true_value = workloads.highs_objective
    monkeypatch.setattr(workloads, "highs_objective", lambda pts, sets: true_value(pts, sets) + 1e-3)
    checker = checked(workloads.build("lp-cuts", 1)[:1])
    assert checker.error_rate == 1.0 and "HiGHS" in checker.failures[0]


def test_wrong_tour_reference_raises_error_rate(monkeypatch):
    true_value = workloads.zvector_minimum
    monkeypatch.setattr(workloads, "zvector_minimum", lambda n, d: true_value(n, d) + 1.0)
    ops = [op for op in workloads.build("sweep", 1) if "sqrt-n-1" in op.label]
    checker = checked(ops)
    assert checker.error_rate == 1.0 and "enumerated minimum" in checker.failures[0]


def test_scipy_stays_out_until_peak_memory_is_read():
    """The measured process loads scipy only in Checker.finish, which runs
    after peak_rss_mb has been read."""
    code = ("import sys, bench, workloads\n"
            "bench.environment(1)\n"
            "ops = workloads.build('lp-cuts', 1)[:1]\n"
            "checker = bench.Checker()\n"
            "checker.check(ops, bench.run_pass(ops)[2])\n"
            "assert 'scipy' not in sys.modules, 'scipy loaded before finish'\n"
            "checker.finish()\n"
            "assert 'scipy' in sys.modules and not checker.failures, checker.failures\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_failing_operation_counts_as_error():
    op = workloads.cli_op(["solve", "lp", "--n", "6", "--d", "-1"], lambda text: None)
    checker = checked([op])
    assert checker.error_rate == 1.0 and "exit code 2" in checker.failures[0]


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    """Two traced single-pass runs of every workload with the same seed."""
    out = tmp_path_factory.mktemp("spans")
    saved = bench.OUT
    bench.OUT = out
    try:
        return {name: [bench.run(name, 7, seconds=0.001, trace=True) for _ in range(2)]
                for name in workloads.BUILDERS}
    finally:
        bench.OUT = saved


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_traced_counts_repeat_exactly(traced_twice, name):
    (first, _), (second, _) = traced_twice[name]
    assert first["correct"] and second["correct"]
    for count in REPEATABLE_COUNTS:
        assert first["metrics"][count]["value"] == second["metrics"][count]["value"], count


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_self_times_account_for_traced_wall(traced_twice, name):
    metrics = traced_twice[name][0][0]["metrics"]
    assert 0.95 <= metrics["trace.self_coverage"]["value"] <= 1.0
    assert set(metrics) == set(tracing.PER_LAYER)


def test_module_shares_match_workload_roles(traced_twice):
    def shares(name):
        m = traced_twice[name][0][0]["metrics"]
        return {mod: m[f"{mod}.self_share"]["value"] for mod in tracing.MODULES}

    assert max(shares("lp-headline").items(), key=lambda kv: kv[1])[0] == "lp_solver"
    assert shares("lp-headline")["lp_solver"] > 0.5
    assert max(shares("small-oracles").items(), key=lambda kv: kv[1])[0] == "exact"
    const4 = traced_twice["sweep"][0][1]["op_shares"]["sweep --n 18:20000:2 --d-rule const:4"]
    assert const4["gline"] > 0.8
    assert shares("lp-cuts")["ratio"] == 0.0 and shares("sweep")["lp_solver"] == 0.0


def test_reference_build_times_operations_then_stops():
    """The child loads the frozen copy, not src/gaplab (its constructor
    checks the path), times the requested operation and ends when closed."""
    with reference.Reference("small-oracles", 1, max(os.sched_getaffinity(0))) as ref_build:
        assert ref_build.time_op(0) > 0
    assert ref_build._proc.returncode == 0


def test_blas_threads_within_processors():
    env = bench.environment(1)
    assert env["blas"]["threads"] is None or env["blas"]["threads"] <= env["nproc"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
