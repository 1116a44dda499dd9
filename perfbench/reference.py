"""The reference build: a frozen copy of gaplab that every timed pass is compared with.

The benchmark's host is a shared VM whose speed drifts for minutes at a
time: the same pass of the same code took from 1.4 to 2.9 s within one
28-second run of small-oracles, and medians of whole runs a few minutes
apart differed by 30-40%.  No number of passes in one run averages that
out, and a fixed probe kernel does not track it either, because different
code slows by different amounts.  So every operation of a timed pass is
run twice, once by the gaplab under test and once, in a child process, by
reference/gaplab: a copy of src/gaplab as it was when the benchmark was
defined.  Both run the same operation on the same inputs moments apart,
so a slow spell of the host moves both, and their quotient moves only when
the code under test changes.  The reference copy is never edited; a
change to gaplab shows as a change of the quotient.

The two vCPUs of the host do not always run at the same speed: unpinned,
the reference's sweep pass took 3.3 s while the build under test, moments
before, took 4.6 s, and the spread (IQR over median) of per-pass
quotients on sweep was 0.21; pinned, it was 0.14.  So both main threads
are pinned to one processor.  Each pins only
itself, after numpy has started its BLAS threads (the build under test
after starting the child, which inherits its affinity), so BLAS keeps its
threads on every processor.

The child runs the operations of ``workloads.build(name, seed)`` with the
reference gaplab first on its path.  It reads one operation index a line
and answers with the seconds the operation took; it ends when its stdin
closes.  Running it in a child keeps the reference's memory out of the
measured process's peak.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_SRC = HERE / "reference"


class Reference:
    """The reference build's child process for one workload and seed, its
    main thread pinned to processor ``cpu``."""

    def __init__(self, name: str, seed: int, cpu: int):
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), name, str(seed), str(cpu)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            loaded = self._reply()
            if Path(loaded).resolve().parent != REFERENCE_SRC / "gaplab":
                raise RuntimeError(f"the reference child imported gaplab from {loaded}")
        except BaseException:
            self.close()
            raise

    def _reply(self) -> str:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the reference child exited with code {self._proc.wait()}")
        return line.strip()

    def time_op(self, index: int) -> float:
        """Seconds the reference build took to run operation ``index``."""
        self._proc.stdin.write(f"{index}\n")
        self._proc.stdin.flush()
        return float(self._reply())

    def close(self) -> None:
        """Close the child's stdin and wait for it to end; kill it if it does not."""
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=60)
        except (subprocess.TimeoutExpired, OSError):
            self._proc.kill()
            self._proc.wait()
        finally:
            self._proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(name: str, seed: int, cpu: int) -> None:
    sys.path[:0] = [str(REFERENCE_SRC), str(HERE)]
    import gaplab
    import workloads

    os.sched_setaffinity(0, {cpu})
    ops = workloads.build(name, seed)
    print(gaplab.__file__, flush=True)
    for line in sys.stdin:
        op = ops[int(line)]
        start = time.perf_counter()
        op.call()
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
