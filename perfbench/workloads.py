"""The four benchmark workloads: operation lists, seeded inputs, output checks.

Each workload is a fixed list of operations called in-process through the
public entry points: ``gaplab.cli.main(argv)`` with stdout captured, and
``gaplab.subtour.solve_subtour_lp`` for raw point sets.  Every pass calls
the same list.  An operation's check runs outside the timed region and
raises ``CheckFailed`` with a one-line reason when the output is wrong.

scipy is imported only inside the reference solve, so a process that has
not yet run one holds only what gaplab itself loads.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gaplab import cli, gline, ratio, subtour

# Why each workload is in the benchmark; BENCHMARK.json carries the same text.
WHY = {
    "lp-headline": "solve lp on G(60|80, sqrt(n-1)): large dense LPs, two cut rounds, "
                   "dense simplex pricing dominates; the headline numeric cross-check",
    "lp-cuts": "solve_subtour_lp on 6 seeded random 100-point sets: 50-80 cuts, many "
               "warm-started re-solves, per-round row building and Stoer-Wagner",
    "small-oracles": "verify, Held-Karp tours of G(6, d) and the 24-LP adjudication grid: "
                     "29 short calls, Held-Karp at 18 points sets time and memory",
    "sweep": "sweep n=18..20000 const:4 (O(N^2) z-vector enumeration) then sqrt-n-1 "
             "(closed forms); a gline change should move only the first half",
}

LP_CUTS_SETS = 6          # point sets per pass
LP_CUTS_POINTS = 100
SWEEP_NS = range(18, 20001, 2)   # 9,992 rows per rule
SWEEP_RANGE = f"{SWEEP_NS.start}:{SWEEP_NS.stop - 1}:{SWEEP_NS.step}"
SWEEP_SAMPLE = 8          # rows per rule re-derived by the pure-Python minimum
VERIFY_SUMMARY = "14 passed, 0 failed, 0 skipped"


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


@dataclass
class Op:
    """One operation: ``call`` runs it and returns its output, ``check``
    raises on a wrong output.  A check may return a callable that does the
    rest of it with a reference solver; the caller runs that later."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], Callable[[], None] | None]


# -- CLI operations ---------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    """``gaplab.cli.main(argv)`` with stdout and stderr captured; returns
    (exit code, stdout).  ``cli.main`` is looked up on every call so a
    tracer that replaces the module attribute sees it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def cli_op(argv: list[str], check: Callable[[str], None]) -> Op:
    def check_output(out):
        code, text = out
        require(code == 0, f"exit code {code}")
        check(text)
    return Op(label=" ".join(argv), call=lambda: run_cli(argv), check=check_output)


def printed_value(text: str, key: str) -> tuple[float, str]:
    """The number and backend label of a ``key = value  [backend]`` line."""
    for line in text.splitlines():
        if line.startswith(key + " = "):
            parts = line[len(key) + 3:].split()
            label = parts[1].strip("[]") if len(parts) > 1 else ""
            return float(parts[0]), label
    raise CheckFailed(f"no '{key} = ' line in output")


def expect_value(key: str, want: float, tol: float, backend: str) -> Callable[[str], None]:
    def check(text: str) -> None:
        got, label = printed_value(text, key)
        require(label == backend, f"{key} backend {label!r}, expected {backend!r}")
        require(abs(got - want) <= tol, f"{key} = {got!r}, expected {want!r} within {tol:g}")
    return check


def shuffled(ops: list[Op], seed: int) -> list[Op]:
    """The workload's operations in a seed-determined order."""
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


# -- lp-headline -----------------------------------------------------------------------

def build_lp_headline(seed: int) -> list[Op]:
    """The same two solves in the same order for every seed.  Their order
    sets the peak memory (152 or 171 MiB when runs shuffled them), so a
    seed-chosen order would split a set of runs between two peaks."""
    ops = []
    for n in (60, 80):
        want = subtour.closed_form_lp_value(n, math.sqrt(n - 1))
        ops.append(cli_op(["solve", "lp", "--n", str(n), "--d", "sqrt(n-1)"],
                          expect_value("lp", want, 1e-6, "cutting_plane")))
    return ops


# -- lp-cuts ------------------------------------------------------------------------------

def highs_objective(points: np.ndarray, subsets) -> float:
    """Optimum of the degree rows plus the given subset rows, by scipy HiGHS
    on a sparse matrix built here, independently of gaplab."""
    from scipy import sparse
    from scipy.optimize import linprog

    n = len(points)
    I, J = np.triu_indices(n, k=1)
    costs = np.hypot(points[I, 0] - points[J, 0], points[I, 1] - points[J, 1])
    cols = np.arange(len(I))
    A_eq = sparse.csr_matrix((np.ones(2 * len(I)), (np.concatenate([I, J]), np.concatenate([cols, cols]))),
                             shape=(n, len(I)))
    A_ub, b_ub = None, None
    if subsets:
        inside = np.zeros((len(subsets), n), dtype=bool)
        for r, S in enumerate(subsets):
            inside[r, list(S)] = True
        A_ub = sparse.csr_matrix((inside[:, I] & inside[:, J]).astype(float))
        b_ub = np.array([len(S) - 1.0 for S in subsets])
    res = linprog(costs, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=np.full(n, 2.0),
                  bounds=(0.0, 1.0), method="highs")
    require(res.status == 0, f"reference HiGHS solve failed: {res.message}")
    return float(res.fun)


def check_cutting_plane(points: np.ndarray) -> Callable[[object], Callable[[], None]]:
    """Degree rows and separation now; the returned callable compares the
    objective with a HiGHS solve of the degree rows plus the returned cuts."""
    def check(out) -> Callable[[], None]:
        x, cuts = out
        viol = x.max_degree_violation()
        require(viol <= 1e-6, f"degree violation {viol:g}")
        require(subtour.separate(x) is None, "a violated subset remains")
        got, subsets = x.objective_value, [c.subset for c in cuts]

        def against_highs() -> None:
            want = highs_objective(points, subsets)
            require(abs(got - want) <= 1e-6, f"objective {got!r}, HiGHS {want!r}")
        return against_highs
    return check


def build_lp_cuts(seed: int) -> list[Op]:
    """LP_CUTS_SETS seeded uniform point sets in [0, 100]^2."""
    rng = np.random.default_rng(seed)
    sets = rng.uniform(0.0, 100.0, size=(LP_CUTS_SETS, LP_CUTS_POINTS, 2))
    return [Op(label=f"solve_subtour_lp set {i}",
               call=lambda pts=pts: subtour.solve_subtour_lp(pts),
               check=check_cutting_plane(pts))
            for i, pts in enumerate(sets)]


# -- small-oracles ------------------------------------------------------------------------

def check_verify(text: str) -> None:
    lines = text.splitlines()
    require(bool(lines) and lines[-1] == VERIFY_SUMMARY,
            f"verify summary {lines[-1] if lines else ''!r}")


def build_small_oracles(seed: int) -> list[Op]:
    ops = [cli_op(["verify"], check_verify)]
    for d in (1, 4, 6, 8):
        # G(6, 1) is the 3x6 unit grid, which has a Hamiltonian cycle of unit edges
        want = 18.0 if d == 1 else gline.optimal_zvector(6, float(d))[1]
        ops.append(cli_op(["solve", "tour", "--n", "6", "--d", str(d), "--backend", "held-karp"],
                          expect_value("tour", want, 1e-9, "held_karp")))
    for n in range(3, 11):
        for d in (1, 3, 4):
            # at even n and d = 1 the LP optimum is 3n, not the closed form
            want = 3.0 * n if (d == 1 and n % 2 == 0) else subtour.closed_form_lp_value(n, float(d))
            ops.append(cli_op(["solve", "lp", "--n", str(n), "--d", str(d)],
                              expect_value("lp", want, 1e-5, "cutting_plane")))
    return shuffled(ops, seed)


# -- sweep ------------------------------------------------------------------------------------

def zvector_minimum(n: int, d: float) -> float:
    """Minimum over k = 1 and balanced even k of the z-structured tour
    length, enumerated in plain Python from ``c_cost``."""
    best = 3.0 * n + 3.0 * d - 4.0 + math.hypot(n - 2, d)
    for k in range(2, n + 1, 2):
        q, r = divmod(n, k)
        length = n + k + 2.0 * d - 2.0 + (k - r) * gline.c_cost(q, d)
        if r:
            length += r * gline.c_cost(q + 1, d)
        best = min(best, length)
    return best


def check_sweep(rule: str, seed: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        lines = text.splitlines()
        require(bool(lines) and lines[0].split(",") == ratio.CSV_COLUMNS, "unexpected CSV header")
        rows = [dict(zip(ratio.CSV_COLUMNS, line.split(","))) for line in lines[1:]]
        require(len(rows) == len(SWEEP_NS), f"{len(rows)} rows, expected {len(SWEEP_NS)}")
        require([int(r["n"]) for r in rows] == list(SWEEP_NS), "unexpected n column")
        bad = [r["n"] for r in rows if r["error"]]
        require(not bad, f"{len(bad)} error rows, first at n={bad[:1]}")
        for r in rows:
            n = int(r["n"])
            if rule == "sqrt-n-1":
                got, want = float(r["ratio_numeric"]), ratio.closed_form_ratio(n)
                require(abs(got - want) <= 1e-10, f"n={n}: ratio {got!r}, closed form {want!r}")
            else:
                tour, bound = float(r["tour_numeric"]), gline.tour_lower_bound(n, 4.0)
                require(tour >= bound * (1 - 1e-11), f"n={n}: tour {tour!r} below bound {bound!r}")
        for r in random.Random(seed).sample(rows, SWEEP_SAMPLE):
            n, d, tour = int(r["n"]), float(r["d"]), float(r["tour_numeric"])
            want = zvector_minimum(n, math.sqrt(n - 1) if rule == "sqrt-n-1" else 4.0)
            require(abs(tour - want) <= 1e-10 * want,
                    f"n={n} (d={d:g}): tour {tour!r}, enumerated minimum {want!r}")
    return check


def build_sweep(seed: int) -> list[Op]:
    return [cli_op(["sweep", "--n", SWEEP_RANGE, "--d-rule", rule], check_sweep(rule, seed))
            for rule in ("const:4", "sqrt-n-1")]


BUILDERS = {
    "lp-headline": build_lp_headline,
    "lp-cuts": build_lp_cuts,
    "small-oracles": build_small_oracles,
    "sweep": build_sweep,
}


def build(name: str, seed: int) -> list[Op]:
    return BUILDERS[name](seed)
