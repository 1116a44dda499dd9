import itertools

import numpy as np
import pytest

from gaplab import lp_solver
from gaplab.instances import pairwise_distances
from gaplab.lp_solver import (
    FEASIBILITY_TOL,
    REDUCED_COST_TOL,
    LpDimensionError,
    LpIterationLimit,
    LpNumericalError,
    LpStatus,
    SparseLp,
    _Simplex,
    solve,
)
from gaplab.subtour import edge_endpoints

from conftest import UNIT_SQUARE, sparse_row


def bounds(n, lo=0.0, hi=1.0):
    return [(lo, hi)] * n


def dense_rows(rows, nv):
    """(cols, vals, rhs) rows back as a dense matrix and a right-hand-side vector."""
    A = np.zeros((len(rows), nv))
    for i, (cols, vals, _rhs) in enumerate(rows):
        np.add.at(A[i], cols, vals)
    return A, np.array([rhs for _c, _v, rhs in rows])


def row_times(row, x):
    cols, vals, _rhs = row
    return float(vals @ x[cols])


def test_bound_only_lp():
    sol = solve(SparseLp(objective=np.array([1.0]), var_bounds=bounds(1)))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(0.0, abs=1e-12)


def test_triangle_lp():
    lp = SparseLp(objective=np.array([-1.0, -1.0]),
                  ineq_rows=[sparse_row([1.0, 1.0], 1.0)],
                  var_bounds=bounds(2))
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-1.0)


def square_degree_lp():
    I, J = edge_endpoints(4)
    costs = pairwise_distances(UNIT_SQUARE)[I, J]
    rows = []
    for v in range(4):
        row = np.zeros(6)
        row[(I == v) | (J == v)] = 1.0
        rows.append((row, 2.0))
    lp = SparseLp(objective=costs, eq_rows=[sparse_row(r, rhs) for r, rhs in rows],
                  var_bounds=bounds(6))
    return lp, costs, rows


def degree_polytope_minimum(costs, rows):
    """Brute-force oracle: the degree polytope of K4 is half-integral, so its
    vertices live in {0, 1/2, 1}^6; enumerate and take the cheapest."""
    best = np.inf
    for x in itertools.product((0.0, 0.5, 1.0), repeat=6):
        x = np.array(x)
        if all(abs(row @ x - rhs) < 1e-12 for row, rhs in rows):
            best = min(best, float(costs @ x))
    return best


def test_degree_two_square_lp_matches_enumeration():
    lp, costs, rows = square_degree_lp()
    oracle = degree_polytope_minimum(costs, rows)
    assert oracle == pytest.approx(4.0)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(oracle, abs=1e-9)


def test_infeasible_lp_detected():
    lp = SparseLp(objective=np.array([1.0]),
                  ineq_rows=[sparse_row([-1.0], -2.0)],   # x >= 2 but x <= 1
                  var_bounds=bounds(1))
    assert solve(lp).status is LpStatus.INFEASIBLE


def test_dimension_mismatch():
    indices = r"row column indices must be integers in \[0, 2\)"
    bad_rows = [
        (np.array([2]), np.array([1.0]), 1.0),          # column index past the last variable
        (np.array([-1]), np.array([1.0]), 1.0),         # negative column index
        (np.array([0.0]), np.array([1.0]), 1.0),        # non-integer column index
        (np.array([2**63], np.uint64), np.array([1.0]), 1.0),  # past the intp range
        (np.array([0, 1]), np.array([1.0]), 1.0),       # cols and vals of different lengths
    ]
    messages = [indices] * 4 + ["row with 2 column indices and 1 values"]
    for row, message in zip(bad_rows, messages):
        lp = SparseLp(objective=np.array([1.0, 2.0]), eq_rows=[row], var_bounds=bounds(2))
        with pytest.raises(LpDimensionError, match=message):
            solve(lp)
        lp = SparseLp(objective=np.array([1.0, 2.0]), ineq_rows=[row], var_bounds=bounds(2))
        with pytest.raises(LpDimensionError, match=message):
            solve(lp)
    # int64 and uint64 rows together, whose concatenation numpy promotes to float64
    mixed = SparseLp(objective=np.array([1.0, 2.0]),
                     eq_rows=[(np.array([0]), np.array([1.0]), 1.0),
                              (np.array([1], np.uint64), np.array([1.0]), 1.0)],
                     var_bounds=bounds(2))
    sol = solve(mixed)
    assert sol.status is LpStatus.OPTIMAL and sol.objective_value == 3.0
    # an empty row has no index to check, even as a float array
    empty_row = (np.array([]), np.array([]), 0.0)
    for lp in (SparseLp(objective=np.array([1.0, 2.0]), eq_rows=[empty_row], var_bounds=bounds(2)),
               SparseLp(objective=np.array([1.0, 2.0]), ineq_rows=[empty_row], var_bounds=bounds(2))):
        assert solve(lp).status is LpStatus.OPTIMAL
    with pytest.raises(LpDimensionError, match="1 bounds for 2 variables"):
        solve(SparseLp(objective=np.array([1.0, 2.0]), var_bounds=bounds(1)))
    for not_pairs in ([(0, 1, 2), (0, 1, 2)], [(0, 1), (0, 1, 2)], [0, 1]):
        with pytest.raises(LpDimensionError, match=r"bounds must be \(lo, hi\) pairs"):
            solve(SparseLp(objective=np.array([1.0, 2.0]), var_bounds=not_pairs))
    with pytest.raises(LpDimensionError, match=r"invalid bounds \(0.0, inf\)"):
        solve(SparseLp(objective=np.array([1.0]), var_bounds=[(0.0, np.inf)]))
    with pytest.raises(LpDimensionError, match=r"invalid bounds \(0.5, 0.25\)"):
        solve(SparseLp(objective=np.array([1.0, 1.0]), var_bounds=[(0.0, 1.0), (0.5, 0.25)]))
    # non-finite data: a NaN right-hand side, row value or cost, and an
    # infinite right-hand side
    for objective, row in (([1.0, 2.0], sparse_row([1.0, 1.0], np.nan)),
                           ([1.0, 2.0], sparse_row([1.0, np.nan], 1.0)),
                           ([np.nan, 2.0], sparse_row([1.0, 1.0], 1.0)),
                           ([1.0, 2.0], sparse_row([1.0, 1.0], np.inf))):
        with pytest.raises(LpDimensionError, match="must be finite"):
            solve(SparseLp(objective=np.array(objective), eq_rows=[row], var_bounds=bounds(2)))


def test_variable_in_no_row_goes_to_its_cost_optimal_bound():
    # columns 1 and 3 have no nonzeros, so their reduced costs are their
    # costs; the row's dual (10 or 20) must not leak into column 1, whose
    # cost 1 keeps it at its lower bound
    lp = SparseLp(objective=np.array([10.0, 1.0, 20.0, -1.0]),
                  eq_rows=[(np.array([0, 2]), np.array([1.0, 1.0]), 1.0)],
                  var_bounds=[(0.0, 1.0), (0.5, 2.0), (0.0, 1.0), (0.0, 3.0)])
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.values == pytest.approx([1.0, 0.5, 0.0, 3.0])
    assert sol.objective_value == pytest.approx(7.5)


def slack_start(lp):
    """The working state of lp on the all-slack basis, in place of the
    crash basis a cold solve starts from."""
    ws = _Simplex(lp)
    ws.set_basis(np.arange(ws.nv, ws.ncols), np.eye(ws.m))
    return ws


def test_iteration_limit_is_not_infeasible():
    # the crash basis puts x0 basic at 1.5, above its bound: one dual pivot
    # makes it leave at 1 with x1 entering at 0.5, and the next pass finds
    # the budget spent
    lp = SparseLp(objective=np.array([1.0, 1.0]), eq_rows=[sparse_row([1.0, 1.0], 1.5)],
                  var_bounds=bounds(2))
    with pytest.raises(LpIterationLimit) as raised:
        solve(lp, max_pivots=0)
    assert raised.value.pivots == 1
    assert solve(lp).status is LpStatus.OPTIMAL
    # from the all-slack basis, one equality row: both columns price in and
    # flip to 1, and one dual pivot makes the row feasible
    lp = SparseLp(objective=np.array([-1.0, -1.0]),
                  eq_rows=[sparse_row([1.0, 1.0], 1.0)],
                  var_bounds=bounds(2))
    with pytest.raises(LpIterationLimit) as raised:
        slack_start(lp).run(max_pivots=0)
    assert raised.value.pivots == 1
    # two disjoint equality rows need two dual pivots (a right-hand side of
    # 1 would be met by bound flips, which are not pivots)
    lp = SparseLp(objective=np.array([1.0, 1.0]),
                  eq_rows=[sparse_row([1.0, 0.0], 0.5), sparse_row([0.0, 1.0], 0.5)],
                  var_bounds=bounds(2))
    with pytest.raises(LpIterationLimit) as raised:
        slack_start(lp).run(max_pivots=0)
    assert raised.value.pivots == 1
    assert slack_start(lp).run(max_pivots=2) is LpStatus.OPTIMAL


def test_passable_width_short_by_rounding_only_is_feasible():
    # 0.1 * 0.29 rounds below 0.029: passing x to its upper bound leaves the
    # row 3.5e-18 short, far inside the feasibility tolerance, so x enters
    lp = SparseLp(objective=np.array([1.0]), eq_rows=[sparse_row([0.1], 0.029)],
                  var_bounds=[(0.0, 0.29)])
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.values == pytest.approx([0.29], abs=1e-12)


def test_start_from_another_objective():
    # the optimum of min -x subject to x <= 0.5 has x basic at 0.5 and the
    # row's slack nonbasic; under min x that slack prices in, and since it
    # has no upper bound to flip to, the solve restarts from the crash basis,
    # which for an LP without equality rows is the all-slack basis
    row = [sparse_row([1.0], 0.5)]
    first = solve(SparseLp(objective=np.array([-1.0]), ineq_rows=row, var_bounds=bounds(1)))
    assert first.status is LpStatus.OPTIMAL and first.values == pytest.approx([0.5])
    sol = solve(SparseLp(objective=np.array([1.0]), ineq_rows=row, var_bounds=bounds(1)),
                start=first)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == 0.0 and list(sol.values) == [0.0]


def is_permuted_triangular(B):
    """Whether some row and column order makes B triangular with a nonzero
    diagonal: peel off a column with one nonzero in the rows left, and that
    row, until none is left."""
    rows, cols = set(range(len(B))), set(range(len(B)))
    while cols:
        for j in cols:
            nonzero = [i for i in rows if B[i, j] != 0.0]
            if len(nonzero) == 1:
                break
        else:
            return False
        rows.remove(nonzero[0])
        cols.remove(j)
    return True


def sparse_lp_corpus(rng, count=60):
    """(k, lp) for count seeded feasible LPs of 6 to 20 variables with
    sparse rows, mostly equalities, and costs of both signs."""
    for k in range(count):
        nv, me, mi = int(rng.integers(6, 21)), int(rng.integers(1, 9)), int(rng.integers(0, 4))
        x0 = rng.uniform(0.0, 1.0, nv)
        rows = [(rng.uniform(size=nv) < 0.3) * rng.normal(size=nv) for _ in range(me + mi)]
        yield k, SparseLp(objective=rng.normal(size=nv),
                          eq_rows=[sparse_row(a, a @ x0) for a in rows[:me]],
                          ineq_rows=[sparse_row(a, a @ x0 + 0.1) for a in rows[me:]],
                          var_bounds=bounds(nv))


def test_crash_basis_is_triangular_over_equality_rows(rng):
    # the cold basis replaces equality slacks only, every inequality slack
    # stays basic, B is triangular up to a permutation, and the closed-form
    # inverse the solve starts from inverts it
    crashed = 0
    for k, lp in [(-1, square_degree_lp()[0]), *sparse_lp_corpus(rng)]:
        ws = _Simplex(lp)
        n_eq = len(lp.eq_rows)
        structural = np.flatnonzero(ws.basis < ws.nv)
        assert (structural < n_eq).all(), f"case {k}"
        assert list(ws.basis[n_eq:]) == list(range(ws.nv + n_eq, ws.ncols)), f"case {k}"
        B = ws.basis_matrix()
        assert is_permuted_triangular(B), f"case {k}"
        assert np.linalg.matrix_rank(B) == ws.m, f"case {k}"
        assert np.abs(ws.Binv @ B - np.eye(ws.m)).max() <= 1e-12, f"case {k}"
        crashed += structural.size
        assert_matches_highs(lp, solve(lp), k)
    assert crashed >= 100


def test_crash_keeps_the_slack_basis_without_equality_rows(rng):
    for k, lp in random_lp_corpus(rng, 30):
        lp = SparseLp(objective=lp.objective, ineq_rows=lp.ineq_rows, var_bounds=lp.var_bounds)
        ws = _Simplex(lp)
        assert list(ws.basis) == list(range(ws.nv, ws.ncols)), f"case {k}"


def test_crash_rejects_a_tiny_pivot():
    # x0, the cheapest column, has 1e-12 in the equality row next to 1 in
    # the inequality row: it cannot replace the equality slack, x1 does
    lp = SparseLp(objective=np.array([0.0, 1.0]),
                  eq_rows=[sparse_row([1e-12, 1.0], 0.5)], ineq_rows=[sparse_row([1.0, 0.0], 1.0)],
                  var_bounds=bounds(2))
    assert list(_Simplex(lp).basis) == [1, 3]
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL and sol.values == pytest.approx([0.0, 0.5])


def test_crash_skips_a_column_whose_repeated_entries_cancel():
    # x0's two entries in the row add to zero: as a pivot it would make B singular
    lp = SparseLp(objective=np.array([0.0, 1.0]),
                  eq_rows=[(np.array([0, 0, 1]), np.array([1.0, -1.0, 1.0]), 0.5)],
                  var_bounds=bounds(2))
    assert list(_Simplex(lp).basis) == [1]
    assert solve(lp).values == pytest.approx([0.0, 0.5])


def test_restart_ends_on_the_crash_basis(monkeypatch):
    # from the optimum of min x0 + 2 x1 - x2, the slack of x2 <= 0.5 is
    # nonbasic and prices in under min x0 + 2 x1 + x2: the loop restarts on
    # the crash basis, x0 in place of the equality slack and the
    # inequality slack basic
    eq, ineq = [sparse_row([1.0, 1.0, 0.0], 1.0)], [sparse_row([0.0, 0.0, 1.0], 0.5)]
    first = solve(SparseLp(objective=np.array([1.0, 2.0, -1.0]), eq_rows=eq, ineq_rows=ineq,
                           var_bounds=bounds(3)))
    assert list(first.basis) == [0, 2]
    lp = SparseLp(objective=np.array([1.0, 2.0, 1.0]), eq_rows=eq, ineq_rows=ineq,
                  var_bounds=bounds(3))
    cold = list(_Simplex(lp).basis)
    bases, set_basis = [], _Simplex.set_basis

    def recording_set_basis(self, basis, Binv):
        bases.append(list(basis))
        set_basis(self, basis, Binv)
    monkeypatch.setattr(_Simplex, "set_basis", recording_set_basis)
    sol = solve(lp, start=first)
    assert bases == [[0, 2], [0, 4]] and bases[-1] == cold
    assert sol.status is LpStatus.OPTIMAL and sol.values == pytest.approx([1.0, 0.0, 0.0])


def test_optimal_only_after_a_passing_residual_check(monkeypatch):
    lp = SparseLp(objective=np.array([1.0, 2.0]), eq_rows=[sparse_row([1.0, 1.0], 1.0)],
                  var_bounds=bounds(2))
    expected = solve(lp).objective_value
    monkeypatch.setattr(_Simplex, "residual", lambda self: 1.0)
    with pytest.raises(LpNumericalError, match="after 3 repair rounds"):
        solve(lp)
    # one failed check, then a passing one: a repair round, and the same optimum
    checks = iter([1.0])
    monkeypatch.setattr(_Simplex, "residual", lambda self: next(checks, 0.0))
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL and sol.objective_value == expected


def random_feasible_lp(rng, nv, me, mi):
    x0 = rng.uniform(0.0, 1.0, nv)
    ub = np.maximum(x0 + rng.uniform(0.0, 1.0, nv), 1e-3)
    c = rng.normal(size=nv)
    eq = [(rng.normal(size=nv), 0.0) for _ in range(me)]
    eq = [sparse_row(row, row @ x0) for row, _ in eq]
    ineq = [(rng.normal(size=nv), 0.0) for _ in range(mi)]
    ineq = [sparse_row(row, row @ x0 + rng.uniform(0.0, 0.5)) for row, _ in ineq]
    return SparseLp(objective=c, eq_rows=eq, ineq_rows=ineq,
                    var_bounds=[(0.0, float(u)) for u in ub])


def replay_feasibility(lp, sol, tol=FEASIBILITY_TOL):
    x = sol.values
    for row in lp.eq_rows:
        assert abs(row_times(row, x) - row[2]) <= tol * (1 + abs(row[2]))
    for row in lp.ineq_rows:
        assert row_times(row, x) <= row[2] + tol * (1 + abs(row[2]))
    for xi, (lo, hi) in zip(x, lp.var_bounds):
        assert lo - 1e-9 <= xi <= hi + 1e-9


def random_lp_corpus(rng, count=120):
    """(k, lp) for count seeded random feasible LPs of 2 to 8 variables."""
    for k in range(count):
        nv = int(rng.integers(2, 9))
        yield k, random_feasible_lp(rng, nv, me=int(rng.integers(0, 3)), mi=int(rng.integers(0, 4)))


def assert_duals_certify(lp, sol, case):
    """y = c_B B^-1: the reduced costs c - yA have the optimal signs, and
    b.y plus the bound terms of the nonbasics is the objective."""
    nv = lp.n_vars
    A, b = dense_rows(lp.eq_rows + lp.ineq_rows, nv)
    y = sol.duals
    reduced = lp.objective - y @ A
    basic = np.isin(np.arange(nv), sol.basis)
    lower = ~basic & ~sol.at_upper[:nv]
    upper = ~basic & sol.at_upper[:nv]
    assert (reduced[lower] >= -REDUCED_COST_TOL).all(), f"case {case}"
    assert (reduced[upper] <= REDUCED_COST_TOL).all(), f"case {case}"
    assert np.abs(reduced[basic]).max(initial=0.0) <= REDUCED_COST_TOL, f"case {case}"
    # an inequality row's slack prices at -y_r: nonnegative at its lower bound 0
    assert (y[len(lp.eq_rows):] <= REDUCED_COST_TOL).all(), f"case {case}"
    bound_terms = reduced[~basic] @ sol.values[~basic]
    assert b @ y + bound_terms == pytest.approx(sol.objective_value, abs=1e-9), f"case {case}"


def assert_matches_highs(lp, sol, case):
    """sol has the status of a scipy HiGHS solve of lp (0 optimal, 2
    infeasible) and, when OPTIMAL, its objective and a feasible point."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    nv = lp.n_vars
    A_ub, b_ub = dense_rows(lp.ineq_rows, nv) if lp.ineq_rows else (None, None)
    A_eq, b_eq = dense_rows(lp.eq_rows, nv) if lp.eq_rows else (None, None)
    ref = linprog(lp.objective, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=lp.var_bounds, method="highs")
    assert ref.status in (0, 2), f"case {case}"
    assert sol.status is (LpStatus.OPTIMAL if ref.status == 0 else LpStatus.INFEASIBLE), f"case {case}"
    if ref.status == 0:
        replay_feasibility(lp, sol)
        assert sol.objective_value == pytest.approx(ref.fun, abs=1e-7, rel=1e-7), f"case {case}"


def test_random_lps_match_scipy(rng):
    for k, lp in random_lp_corpus(rng):
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL, f"case {k}"
        assert_matches_highs(lp, sol, k)


def mixed_lp_corpus(rng, count=120):
    """(k, lp) for count seeded random LPs with costs of both signs, about a
    quarter of them infeasible: a row pair a.x <= t, a.x >= t + delta, each
    satisfiable over the bounds alone, is added to the constraints."""
    for k, lp in random_lp_corpus(rng, count):
        if rng.uniform() < 0.25:
            a = rng.normal(size=lp.n_vars)
            lo, hi = np.asarray(lp.var_bounds).T
            least, most = np.minimum(a * lo, a * hi).sum(), np.maximum(a * lo, a * hi).sum()
            t = rng.uniform(least, most)
            delta = rng.uniform(0.05, 0.5) * (most - least)
            lp = grown_by(lp, [sparse_row(a, t), sparse_row(-a, -t - delta)])
        yield k, lp


def grown_by_row_and_column(lp, rng, x):
    """lp with one variable appended to every row and one inequality row
    appended after them; the row cuts x (padded with the new variable at 0)
    off or keeps it, by a random margin."""
    nv = lp.n_vars
    col = rng.normal(size=len(lp.eq_rows) + len(lp.ineq_rows))
    rows = [(np.append(c, nv), np.append(v, col[r]), rhs)
            for r, (c, v, rhs) in enumerate(list(lp.eq_rows) + list(lp.ineq_rows))]
    a = rng.normal(size=nv + 1)
    cut = sparse_row(a, float(a[:nv] @ x) - rng.uniform(-0.2, 0.5))
    return SparseLp(objective=np.append(lp.objective, rng.normal()),
                    eq_rows=rows[:len(lp.eq_rows)], ineq_rows=rows[len(lp.eq_rows):] + [cut],
                    var_bounds=list(lp.var_bounds) + [(0.0, float(rng.uniform(0.5, 2.0)))])


def check_mixed_corpus_against_highs(rng):
    """Cold solves of mixed_lp_corpus, then warm solves after one appended
    row and column, against HiGHS.  Both verdicts must be well represented:
    between 20 and 100 of the 120 LPs are infeasible, cold and warm."""
    infeasible = [0, 0]
    for k, lp in mixed_lp_corpus(rng):
        cold = solve(lp)
        assert_matches_highs(lp, cold, k)
        grown = grown_by_row_and_column(lp, rng, cold.values)
        warm = solve(grown, start=cold)
        assert_matches_highs(grown, warm, f"{k} warm")
        infeasible[0] += cold.status is LpStatus.INFEASIBLE
        infeasible[1] += warm.status is LpStatus.INFEASIBLE
    assert 20 <= min(infeasible) and max(infeasible) <= 100


def test_mixed_lps_match_highs_cold_and_warm(rng):
    check_mixed_corpus_against_highs(rng)


def grown_by_column(lp, rng):
    """lp with one variable appended to every row and nothing else, as a
    pricing round appends columns."""
    nv, m = lp.n_vars, len(lp.eq_rows) + len(lp.ineq_rows)
    col = rng.normal(size=m)
    rows = [(np.append(c, nv), np.append(v, col[r]), rhs)
            for r, (c, v, rhs) in enumerate(list(lp.eq_rows) + list(lp.ineq_rows))]
    return SparseLp(objective=np.append(lp.objective, rng.normal()),
                    eq_rows=rows[:len(lp.eq_rows)], ineq_rows=rows[len(lp.eq_rows):],
                    var_bounds=list(lp.var_bounds) + bounds(1))


def test_warm_start_borders_or_reuses_the_inverse(rng):
    # a start carries the inverse of its basis, optimal or infeasible; after
    # appended rows the warm start borders it, after appended columns alone
    # it copies it, and either is the inverse of the basis it starts on
    for k, lp in mixed_lp_corpus(rng, 60):
        first = solve(lp)
        a = rng.normal(size=lp.n_vars)
        for grown in (lp, grown_by(lp, [sparse_row(a, a @ first.values - 0.1)]),
                      grown_by_row_and_column(lp, rng, first.values), grown_by_column(lp, rng)):
            ws = _Simplex(grown, first)
            assert not np.shares_memory(ws.Binv, first.inverse), f"case {k}"
            assert np.abs(ws.Binv - np.linalg.inv(ws.basis_matrix())).max(initial=0.0) <= 1e-10, \
                f"case {k}"


def snapshot(sol):
    """Every field of an LpSolution, bit for bit."""
    return [value.tobytes() if isinstance(value, np.ndarray) else repr(value)
            for value in vars(sol).values()]


def test_warm_solve_leaves_its_start_as_it_was(rng):
    for k, lp in mixed_lp_corpus(rng, 60):
        first = solve(lp)
        kept = snapshot(first)
        assert first.inverse is not None, f"case {k}"
        for grown in (lp, grown_by_row_and_column(lp, rng, first.values), grown_by_column(lp, rng)):
            solve(grown, start=first)
            assert snapshot(first) == kept, f"case {k}"


def permuted_within_rows(lp, rng):
    """lp with the entries of every row in a random order."""
    def permuted(rows):
        return [(cols[p], vals[p], rhs)
                for cols, vals, rhs in rows for p in [rng.permutation(len(cols))]]
    return SparseLp(objective=lp.objective, eq_rows=permuted(lp.eq_rows),
                    ineq_rows=permuted(lp.ineq_rows), var_bounds=lp.var_bounds)


def test_order_within_a_row_does_not_matter(rng, monkeypatch):
    # the column build sorts the entries by column, stably, so each column
    # lists its rows in ascending order whatever the order within a row:
    # every field of the solution, the inverse included, is bit-identical
    for k, lp in mixed_lp_corpus(rng, 60):
        assert snapshot(solve(permuted_within_rows(lp, rng))) == snapshot(solve(lp)), f"case {k}"
    # the last LP of a cutting-plane solve, whose degree rows list a point's
    # edges out of column order, cold and warm from the solve before it
    import gaplab.subtour as sub
    solve_lp, calls = sub.lp_solver.solve, []

    def recording_solve(lp, start=None, **kwargs):
        calls.append((lp, start))
        return solve_lp(lp, start=start, **kwargs)
    monkeypatch.setattr(sub.lp_solver, "solve", recording_solve)
    sub.solve_subtour_lp(np.random.default_rng(1301).uniform(0.0, 100.0, size=(100, 2)))
    lp, start = calls[-1]
    assert lp.ineq_rows and start is not None
    assert any((np.diff(cols) < 0).any() for cols, _vals, _rhs in lp.eq_rows)
    permuted = permuted_within_rows(lp, rng)
    for begin in (None, start):
        assert snapshot(solve(permuted, start=begin)) == snapshot(solve(lp, start=begin))


def test_start_without_an_inverse_is_rejected():
    lp = SparseLp(objective=np.array([1.0]), eq_rows=[sparse_row([1.0], 0.5)], var_bounds=bounds(1))
    first = solve(lp)
    first.inverse = None
    with pytest.raises(LpDimensionError, match="no inverse of its 1-row basis"):
        solve(lp, start=first)


def test_warm_start_after_adding_rows(rng):
    lp = random_feasible_lp(rng, 8, me=2, mi=2)
    first = solve(lp)
    assert first.status is LpStatus.OPTIMAL
    # a start from the same LP, no rows appended, is already optimal
    again = solve(lp, start=first)
    assert again.status is LpStatus.OPTIMAL and again.pivots == 0
    assert again.objective_value == pytest.approx(first.objective_value, abs=1e-12)
    # append two more inequality rows, warm start from the previous solution
    extra = [rng.normal(size=8), rng.normal(size=8)]
    x0 = first.values
    grown = SparseLp(objective=lp.objective, eq_rows=lp.eq_rows,
                     ineq_rows=lp.ineq_rows + [sparse_row(row, row @ x0 - 0.1) for row in extra],
                     var_bounds=lp.var_bounds)
    warm = solve(grown, start=first)
    cold = solve(grown)
    assert warm.status is cold.status is LpStatus.OPTIMAL
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-8)
    replay_feasibility(grown, warm)
    # a start with more rows than the LP has no meaning for it
    with pytest.raises(LpDimensionError, match="start has 6 rows"):
        solve(lp, start=warm)


def test_duals_certify_the_optimum(rng):
    for k, lp in random_lp_corpus(rng):
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL, f"case {k}"
        assert_duals_certify(lp, sol, k)


def test_no_duals_unless_optimal():
    lp = SparseLp(objective=np.array([1.0]), ineq_rows=[sparse_row([-1.0], -2.0)],
                  var_bounds=bounds(1))
    assert solve(lp).duals is None


def test_warm_start_after_adding_variables(rng):
    lp = random_feasible_lp(rng, 8, me=2, mi=2)
    first = solve(lp)
    extra = rng.normal(size=(4, 3))

    def grow(costs):
        """lp with three more variables appended to every row; a start from lp knows eight"""
        return SparseLp(
            objective=np.concatenate([lp.objective, costs]),
            eq_rows=[(np.concatenate([c, [8, 9, 10]]), np.concatenate([v, extra[r]]), rhs)
                     for r, (c, v, rhs) in enumerate(lp.eq_rows)],
            ineq_rows=[(np.concatenate([c, [8, 9, 10]]), np.concatenate([v, extra[2 + r]]), rhs)
                       for r, (c, v, rhs) in enumerate(lp.ineq_rows)],
            var_bounds=list(lp.var_bounds) + bounds(3))
    # columns too dear to enter: the start's basis is optimal as it stands
    same = solve(grow(np.full(3, 1e3)), start=first)
    assert same.pivots == 0 and same.objective_value == pytest.approx(first.objective_value, abs=1e-12)
    assert np.array_equal(same.basis, np.where(first.basis < 8, first.basis, first.basis + 3))
    grown = grow(rng.normal(size=3) - 1.0)
    warm = solve(grown, start=first)
    cold = solve(grown)
    assert warm.status is cold.status is LpStatus.OPTIMAL
    assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-8)
    assert warm.objective_value < first.objective_value - 1e-6  # the new columns entered
    replay_feasibility(grown, warm)
    # a start with more variables than the LP has no meaning for it
    with pytest.raises(LpDimensionError, match="start has 4 rows and 11 variables"):
        solve(lp, start=warm)


def grown_by(lp, rows):
    """lp with the (cols, vals, rhs) rows appended to its inequality rows."""
    return SparseLp(objective=lp.objective, eq_rows=lp.eq_rows,
                    ineq_rows=list(lp.ineq_rows) + rows, var_bounds=lp.var_bounds)


def dual_pass(lp, start=None):
    """The pivot loop alone, from start or else the all-slack basis, which
    must be dual feasible (no nonbasic column prices in); its basics must
    match those recomputed from a fresh inverse, so bound flips and pivots
    kept them in step.  Returns the working state."""
    ws = _Simplex(lp, start) if start is not None else slack_start(lp)
    d = ws.reduced_costs()
    prices_in = np.where(ws.at_upper, d > REDUCED_COST_TOL, d < -REDUCED_COST_TOL)
    assert not np.delete(prices_in & ~ws.fixed, ws.basis).any()
    ws.run(max_pivots=10_000)
    kept = ws.xB.copy()
    ws.refactor()
    assert kept == pytest.approx(ws.xB, abs=1e-9)
    return ws


def test_warm_start_after_cutting_off_the_optimum(rng):
    # the cutting-plane re-solve: rows that the optimum violates leave its
    # basis dual feasible, so the dual loop repairs them
    cut_rng = np.random.default_rng(11)
    optimal = 0
    for k, lp in random_lp_corpus(rng):
        first = solve(lp)
        rows = []
        for _ in range(int(cut_rng.integers(1, 4))):
            a = cut_rng.normal(size=lp.n_vars)
            rows.append(sparse_row(a, a @ first.values - cut_rng.uniform(0.05, 0.5)))
        grown = grown_by(lp, rows)
        dual_pass(grown, first)
        warm, cold = solve(grown, start=first), solve(grown)
        assert warm.status is cold.status, f"case {k}"
        if warm.status is LpStatus.OPTIMAL:
            optimal += 1
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9), f"case {k}"
            replay_feasibility(grown, warm)
            assert_duals_certify(grown, warm, k)
    assert optimal >= 60


def test_appended_row_that_empties_the_lp_is_infeasible(rng):
    for k, lp in random_lp_corpus(rng, 30):
        first = solve(lp)
        a = rng.normal(size=lp.n_vars)
        lo, hi = np.asarray(lp.var_bounds).T
        least = np.minimum(a * lo, a * hi).sum()  # the row's least value over the bounds
        grown = grown_by(lp, [sparse_row(a, least - 0.1)])
        dual_pass(grown, first)
        assert solve(grown, start=first).status is LpStatus.INFEASIBLE, f"case {k}"


def test_bound_flipping_ratio_test_passes_breakpoints(rng):
    # costs >= 0 with every column at its lower bound: the all-slack basis is
    # dual feasible.  x0 + x1 + x2 + x3 = 2.5 puts its fixed slack 2.5 above
    # its bound; the two cheapest columns are passed (flipped to 1) and the
    # third enters at 0.5, all in one pivot
    lp = SparseLp(objective=np.array([1.0, 2.0, 3.0, 4.0]),
                  eq_rows=[sparse_row([1.0, 1.0, 1.0, 1.0], 2.5)], var_bounds=bounds(4))
    ws = dual_pass(lp)
    assert ws.pivots == 1 and list(ws.basis) == [2] and ws.xB == pytest.approx([0.5])
    assert list(ws.at_upper[:4]) == [True, True, False, False]
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(4.5, abs=1e-12)
    # feasible boxed LPs with nonnegative costs, where the dual loop puts
    # columns at their upper bounds: its optimum matches HiGHS
    at_upper = 0
    for k in range(30):
        nv, m = int(rng.integers(4, 10)), int(rng.integers(1, 4))
        ub = rng.uniform(0.2, 1.0, nv)
        x0 = rng.uniform(0.0, 1.0, nv) * ub
        rows = [(rng.uniform(size=nv) < 0.6) * rng.uniform(0.5, 2.0, nv) for _ in range(m)]
        lp = SparseLp(objective=rng.uniform(0.0, 1.0, nv),
                      eq_rows=[sparse_row(row, row @ x0) for row in rows],
                      var_bounds=[(0.0, float(u)) for u in ub])
        at_upper += bool(dual_pass(lp).at_upper[:nv].any())
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL, f"case {k}"
        assert_matches_highs(lp, sol, k)
    assert at_upper >= 10



def test_optimum_is_confirmed_by_pricing_again(monkeypatch):
    # the loop flips the columns that price in on its first pass and checks
    # again only once no basic is out of bounds.  A cost changed after the
    # first pivot stands in for rounding drift: x3 then prices in, and the
    # second check must flip it before OPTIMAL
    lp = SparseLp(objective=np.array([1.0, 2.0, 3.0, 4.0]),
                  eq_rows=[sparse_row([1.0, 1.0, 1.0, 1.0], 2.5)], var_bounds=bounds(4))
    apply_pivot = _Simplex._apply_pivot

    def drifting_pivot(self, *args):
        apply_pivot(self, *args)
        self.c[3] = -10.0
    monkeypatch.setattr(_Simplex, "_apply_pivot", drifting_pivot)
    ws = _Simplex(lp)
    assert ws.run(max_pivots=100) is LpStatus.OPTIMAL
    assert ws.full_values()[:4] == pytest.approx([1.0, 0.5, 0.0, 1.0])

def test_determinism(rng):
    lp = random_feasible_lp(rng, 10, me=3, mi=3)
    a = solve(lp)
    b = solve(lp)
    assert a.status is b.status
    assert np.array_equal(a.values, b.values)
    assert a.pivots == b.pivots


def test_redundant_equality_rows(rng):
    # duplicated rows keep the system consistent but rank-deficient
    row = rng.normal(size=5)
    x0 = rng.uniform(0.2, 0.8, 5)
    lp = SparseLp(objective=rng.normal(size=5),
                  eq_rows=[sparse_row(row, row @ x0), sparse_row(row.copy(), row @ x0)],
                  var_bounds=bounds(5))
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    replay_feasibility(lp, sol)


def transportation_lps(rng, count=20):
    """Balanced a x b transportation LPs with small integer costs: many tied
    basic solutions, so many degenerate pivots."""
    for _ in range(count):
        a, b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        nv = a * b
        eq = []
        for i in range(a):
            row = np.zeros(nv)
            row[i * b:(i + 1) * b] = 1.0
            eq.append(sparse_row(row, 1.0))
        for j in range(b):
            row = np.zeros(nv)
            row[j::b] = 1.0
            eq.append(sparse_row(row, a / b))
        yield SparseLp(objective=rng.integers(1, 5, size=nv).astype(float), eq_rows=eq,
                       var_bounds=bounds(nv))


def test_degenerate_transportation_like(rng):
    # degenerate pivots under the default rules; the Bland fallback is
    # covered by test_bland_fallback_matches_highs
    for k, lp in enumerate(transportation_lps(rng)):
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL, f"case {k}"
        assert_matches_highs(lp, sol, k)


def test_bland_fallback_matches_highs(rng, monkeypatch):
    # with BLAND_AFTER = 0 every pivot follows Bland's rule: the
    # lowest-index violated basic leaves, nothing is passed
    monkeypatch.setattr(lp_solver, "BLAND_AFTER", 0)
    for k, lp in enumerate(transportation_lps(rng)):
        assert_matches_highs(lp, solve(lp), k)
    check_mixed_corpus_against_highs(rng)


def test_objective_never_exceeds_external_feasible_point(rng):
    # any feasible point the caller supplies upper-bounds the optimum
    for _ in range(30):
        x0 = rng.uniform(0.2, 0.8, 6)
        rows = [rng.normal(size=6) for _ in range(3)]
        lp = SparseLp(objective=rng.normal(size=6),
                      ineq_rows=[sparse_row(r, r @ x0 + 0.5) for r in rows],
                      var_bounds=bounds(6))
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        checked = 0
        for _ in range(20):
            x = np.clip(x0 + rng.uniform(-0.05, 0.05, 6), 0.0, 1.0)
            if all(row_times(row, x) <= row[2] + 1e-12 for row in lp.ineq_rows):
                assert sol.objective_value <= lp.objective @ x + 1e-7
                checked += 1
        assert checked > 0


def test_fixed_variables_respected():
    # lower == upper pins a variable
    lp = SparseLp(objective=np.array([1.0, -1.0]),
                  ineq_rows=[sparse_row([1.0, 1.0], 1.5)],
                  var_bounds=[(0.25, 0.25), (0.0, 2.0)])
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.values[0] == pytest.approx(0.25)
    assert sol.values[1] == pytest.approx(1.25)
