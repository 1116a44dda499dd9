import os
import pathlib
import subprocess
import sys
import types

import pytest

import gaplab
from gaplab.ratio import CSV_COLUMNS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def test_all_exports_public_names_not_submodules():
    for name in ("exact", "gline", "instances", "lp_solver", "ratio", "subtour"):
        assert name not in gaplab.__all__
    for name in gaplab.__all__:
        assert not isinstance(getattr(gaplab, name), types.ModuleType), name


SCRIPT_CASES = [
    (["convergence_sweep.py", "--max-n", "5000", "--out-dir", "{tmp}"],
     ["    sqrt-n-1: 78 rows -> {tmp}/ratio_sqrt-n-1.csv",
      "     const:4: 78 rows -> {tmp}/ratio_const4.csv"]),
]


@pytest.mark.parametrize("argv, summary", SCRIPT_CASES)
def test_scripts_run(tmp_path, argv, summary):
    # the scripts call the package API directly; an API change must not break them
    assert {case[0][0] for case in SCRIPT_CASES} == {p.name for p in SCRIPTS.glob("*.py")}
    argv = [a.format(tmp=tmp_path) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gaplab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in summary:
        assert line.format(tmp=tmp_path) in lines
    # every CSV a script reports writing has the columns of the package's reports
    for line in lines:
        if " rows -> " in line:
            header = pathlib.Path(line.split(" rows -> ")[1]).read_text().splitlines()[0]
            assert header.split(",") == CSV_COLUMNS


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gaplab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gaplab", "solve", "ratio", "--n", "18",
                           "--d", "sqrt(n-1)"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "ratio = 1.14463249602" in proc.stdout.splitlines()


def test_verify_summary_is_the_benchmarks(monkeypatch, capsys):
    # the benchmark's small-oracles workload requires this last line of verify
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import VERIFY_SUMMARY
    from gaplab.cli import main
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == VERIFY_SUMMARY


def test_benchmark_tracer_hooks_exist(monkeypatch):
    # the benchmark's traced mode wraps these functions by name; renaming or
    # removing one must fail here, not only in the benchmark's own suite
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import WRAPS, Tracer
    with Tracer().installed():
        pass
    for _name, targets, _facts in WRAPS:
        for module, attr in targets:
            assert hasattr(module, attr), f"{module.__name__}.{attr}"
