"""Measurement loop, environment record and result line of the gaplab benchmark.

One process runs one workload as a closed loop with one client: a pass
calls the workload's operations one after another, and the next pass
starts when the previous one and its output checks are done.  Passes
continue while one more median pass, with its set-ups, reference runs and
checks, still ends within ``--seconds`` of the run's start, with at least
MIN_PASSES passes.  No pass is discarded as warm-up: every CLI invocation
a user makes pays first-call costs too, and the reference build pays them
in the same pass.  Before each pass the workload is also set up
SETUPS_PER_PASS times, so the set-up samples spread over the run as the
passes do.

Pass times are relative.  The reference build (reference.py), a frozen
copy of gaplab in a child process, runs each operation of the pass right
after the gaplab under test, or right before it on every other pass, on
the same processor.  A
pass's relative time is its wall time over the reference's, times the
reference's pass time on the reference host (REFERENCE_PASS_S), so
``wall_s`` and ``wall_s.tail`` read as seconds on that host and move only
when the code under test runs faster or slower than the reference.  The
raw wall times of both builds are in the info record.  ``setup_s`` stays
an absolute time.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` every pass runs twice on the same inputs, untraced and then
traced, and the result carries the per-layer metrics: medians over the
traced passes, plus ``proc.cpu_s`` from the untraced passes and
``trace.overhead_s``, the traced minus the untraced median pass time.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import gaplab
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3          # timed passes per untraced run
MIN_TRACED_PASSES = 1   # untraced-then-traced pass pairs per traced run
SETUPS_PER_PASS = 2
TAIL_BEYOND = 10        # samples wanted beyond the tail percentile

# Median pass time of the reference build over four trial runs of each
# workload on the reference host, a shared 2-vCPU Intel Xeon KVM guest.
# Fixed, so that relative times read as seconds on that host.
REFERENCE_PASS_S = {"lp-headline": 4.18, "lp-cuts": 4.57, "small-oracles": 2.49, "sweep": 5.82}

END_TO_END = {"setup_s": "s", "wall_s": "s", "wall_s.tail": "s", "peak_rss_mb": "MiB"}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import gaplab, gaplab.cli; "
                "print(time.perf_counter() - t)")


# -- statistics -------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest order statistic
    with TAIL_BEYOND samples above it.  Runs with fewer than
    4 * TAIL_BEYOND passes keep a quarter of their samples (at least one)
    beyond it instead, so the tail never reduces to the single maximum."""
    xs = sorted(samples)
    beyond = min(TAIL_BEYOND, max(1, len(xs) // 4)) if len(xs) > 1 else 0
    idx = len(xs) - 1 - beyond
    return xs[idx], 100.0 * (idx + 1) / len(xs), beyond


# -- environment record -------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the gaplab sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gaplab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, asked through ctypes."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": nproc(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "seed": seed,
    }


# -- set-up ---------------------------------------------------------------------------

def import_seconds() -> float:
    """Time to import gaplab in a fresh interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def setup_once(name: str, seed: int) -> tuple[float, float]:
    """(import s, input build s) of one set-up of the workload."""
    imported = import_seconds()
    start = time.perf_counter()
    workloads.build(name, seed)
    return imported, time.perf_counter() - start


# -- passes and checks ------------------------------------------------------------------

class Checker:
    """Checks every output outside the timed region and counts failures.

    A check may return a callable: the part of it that needs a reference
    solver from scipy.  Those parts run in ``finish``, after peak memory has
    been read, so scipy's footprint stays out of ``peak_rss_mb``."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._late: list = []

    def check(self, ops, outputs) -> None:
        for op, out in zip(ops, outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                self.failures.append(f"{op.label}: raised {out!r}")
                continue
            late = self._run(op.label, op.check, out)
            if late is not None:
                self._late.append((op.label, late))

    def finish(self) -> None:
        """Run the reference parts of the checks made so far."""
        for label, late in self._late:
            self._run(label, late)
        self._late = []

    def _run(self, label, check, *args):
        try:
            return check(*args)
        except Exception as exc:  # any check error marks the output wrong
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return None

    @property
    def error_rate(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 1.0


def run_pass(ops, tracer=None, ref_build=None, reference_first=False) -> tuple[float, float, list, float]:
    """(wall s, process CPU s, outputs, reference s) of one pass over
    ``ops``.  With ``ref_build``, the reference build runs each operation
    right after the build under test (right before it if
    ``reference_first``); wall and CPU cover only the build under test."""
    outputs = []
    wall = cpu = ref = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        if ref_build is not None and reference_first:
            ref += ref_build.time_op(i)
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            outputs.append(op.call())
        except Exception as exc:  # an operation that raises counts as failed
            outputs.append(exc)
        wall += time.perf_counter() - start
        cpu += time.process_time() - cpu0
        if ref_build is not None and not reference_first:
            ref += ref_build.time_op(i)
    return wall, cpu, outputs, ref


def another_pass(start: float, seconds: float, spent: list[float], minimum: int) -> bool:
    """Whether to start another pass: always until ``minimum`` passes are
    done, then while one more pass of the median time ``spent`` on a pass
    still ends ``seconds`` after ``start``."""
    if len(spent) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(spent) <= seconds


def measure(name: str, seed: int, ops, seconds: float,
            checker: Checker) -> tuple[list[float], list[float], float, float]:
    """Pass walls of an untraced run, the reference build's walls for the
    same passes, the run's set-up time (the median import time plus the
    median input build time) and its peak memory in MiB.

    Peak memory is read right after the first timed pass.  Later passes in
    the same process add only the allocator's fragmentation from repeating
    the operations, which a CLI user, who runs one command per process,
    never sees; on lp-headline it made the peak 152 or 171 MiB depending on
    how many passes fitted in the run."""
    start = time.perf_counter()
    peak_mb = 0.0
    walls: list[float] = []
    refs: list[float] = []
    spent: list[float] = []
    setups: list[tuple[float, float]] = []
    cpu = max(os.sched_getaffinity(0))
    with reference.Reference(name, seed, cpu) as ref_build:
        os.sched_setaffinity(0, {cpu})  # the main thread only; see reference.py
        while another_pass(start, seconds, spent, MIN_PASSES):
            began = time.perf_counter()
            setups += [setup_once(name, seed) for _ in range(SETUPS_PER_PASS)]
            wall, _cpu, outputs, ref = run_pass(ops, ref_build=ref_build,
                                                reference_first=len(walls) % 2 == 1)
            if not walls:
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            checker.check(ops, outputs)
            walls.append(wall)
            refs.append(ref)
            spent.append(time.perf_counter() - began)
    imports, builds = zip(*setups)
    return walls, refs, statistics.median(imports) + statistics.median(builds), peak_mb


def measure_traced(ops, seconds: float, checker: Checker):
    """Per-layer metrics of a traced run, plus the spans of every traced pass
    and each operation's module shares."""
    tracer = tracing.Tracer()
    start = time.perf_counter()
    plain, cpus, traced, pairs, per_pass, recorded = [], [], [], [], [], []
    while another_pass(start, seconds, pairs, MIN_TRACED_PASSES):
        wall, cpu, outputs, _ref = run_pass(ops)
        checker.check(ops, outputs)
        plain.append(wall)
        cpus.append(cpu)
        with tracer.installed():
            wall, _cpu, outputs, _ref = run_pass(ops, tracer)
        spans = tracer.take()
        checker.check(ops, outputs)
        traced.append(wall)
        pairs.append(plain[-1] + wall)
        per_pass.append(tracing.layer_metrics(spans, wall))
        recorded.append(spans)
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["proc.cpu_s"] = statistics.median(cpus)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    shares = tracing.op_shares(recorded[0], [op.label for op in ops])
    return metrics, recorded, shares


def write_spans(path: Path, passes) -> None:
    """Spans of every traced pass, one JSON object a line, times in seconds
    from the pass's first span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for p, spans in enumerate(passes):
            t0 = spans[0][1] if spans else 0.0
            for name, start, end, parent, op, facts in spans:
                fh.write(json.dumps({"pass": p, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "op": op,
                                     "facts": facts}) + "\n")


# -- result -------------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the result object and an info record
    (environment, tail position, error rate, failures)."""
    info = {"workload": name, "env": environment(seed), "why": workloads.WHY[name]}
    blas = info["env"]["blas"]["threads"]
    if blas is not None and blas > info["env"]["nproc"]:
        raise RuntimeError(f"BLAS runs {blas} threads on {info['env']['nproc']} processors")
    ops = workloads.build(name, seed)
    checker = Checker()
    if trace:
        metrics, recorded, shares = measure_traced(ops, seconds, checker)
        metrics = {m: {"value": metrics[m], "unit": unit}
                   for m, (unit, _better) in tracing.PER_LAYER.items()}
        info["passes"] = len(recorded)
        info["op_shares"] = shares
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        write_spans(spans_path, recorded)
        info["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        walls, refs, setup, peak_mb = measure(name, seed, ops, seconds, checker)
        relative = [wall / ref * REFERENCE_PASS_S[name] for wall, ref in zip(walls, refs)]
        tail_s, pct, beyond = tail(relative)
        values = {
            "setup_s": setup,
            "wall_s": statistics.median(relative),
            "wall_s.tail": tail_s,
            "peak_rss_mb": peak_mb,
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}
        info["passes"] = len(walls)
        info["pass_walls_s"] = walls
        info["reference_walls_s"] = refs
        info["wall_s.tail"] = {"percentile": pct, "samples": len(walls), "beyond": beyond}
    checker.finish()
    info["error_rate"] = {"value": checker.error_rate, "unit": "fraction"}
    info["failures"] = checker.failures[:10]
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": metrics,
    }
    return result, info


def report(result: dict, info: dict) -> None:
    """Every metric by name with its unit, then the info record, then the
    result object as the last line."""
    for name, m in result["metrics"].items():
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':<36} {info['error_rate']['value']:>16.6g} fraction")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))


def parse_args(argv):
    parser = argparse.ArgumentParser(description="gaplab benchmark: one workload per process")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(gaplab.__file__).resolve().parent != SRC / "gaplab":
        print(f"error: gaplab was imported from {gaplab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    report(*run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0
