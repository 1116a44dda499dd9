import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from gaplab.exact import held_karp
from gaplab.instances import DomainError, pairwise_distances
from gaplab.lp_solver import REDUCED_COST_TOL, LpStatus, SparseLp, solve
from gaplab.subtour import (
    CORE_NEIGHBOURS,
    CutRoundLimitError,
    EdgeValueMap,
    _quadrant_core,
    _reduced_costs,
    build_half_integral,
    closed_form_lp_value,
    connected_components,
    edge_endpoints,
    grid_tour_length,
    separate,
    solve_subtour_lp,
    stoer_wagner,
)

from conftest import EQUILATERAL, UNIT_SQUARE, gline_instance, sparse_row


def edge_map_from_matrix(W):
    n = len(W)
    I, J = edge_endpoints(n)
    return EdgeValueMap(n_points=n, I=I, J=J, values=W[I, J], objective_value=0.0)


def exhaustive_min_cut(W):
    """Oracle: min over all proper nonempty subsets of the crossing weight."""
    n = len(W)
    best = math.inf
    for size in range(1, n):
        for S in itertools.combinations(range(n), size):
            mask = np.zeros(n, dtype=bool)
            mask[list(S)] = True
            best = min(best, float(W[mask][:, ~mask].sum()))
    return best


def test_solve_subtour_lp_reference_value():
    inst = gline_instance(6, 3.0)
    x, cuts = solve_subtour_lp(inst)
    assert x.objective_value == pytest.approx(3 * 6 - 4 + 9 + math.sqrt(10), abs=1e-5)
    dist = pairwise_distances(inst.coords())
    assert x.values @ dist[x.I, x.J] == pytest.approx(x.objective_value)
    assert x.degrees() == pytest.approx(x.as_matrix().sum(axis=1), abs=1e-12)
    assert x.max_degree_violation() <= 1e-6
    assert separate(x) is None
    assert all(0 < len(c.subset) < 18 and c.violation > 0 for c in cuts)


def test_solve_subtour_lp_triangle():
    x, _ = solve_subtour_lp(EQUILATERAL)
    assert x.objective_value == pytest.approx(3.0, abs=1e-6)


def test_solve_subtour_lp_unit_square():
    x, _ = solve_subtour_lp(UNIT_SQUARE)
    assert x.objective_value == pytest.approx(4.0, abs=1e-6)


def test_solve_subtour_lp_needs_three_points():
    with pytest.raises(DomainError):
        solve_subtour_lp(np.array([[0.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_subtour_lp_rejects_non_finite_coordinates(bad):
    pts = np.random.default_rng(0).uniform(0, 10, (7, 2))
    pts[0, 0] = bad
    with pytest.raises(DomainError, match="^point coordinates must be finite$"):
        solve_subtour_lp(pts)


def test_separate_disconnected_support():
    W = np.zeros((6, 6))
    for tri in ([0, 1, 2], [3, 4, 5]):
        for i, j in itertools.combinations(tri, 2):
            W[i, j] = W[j, i] = 1.0
    S = separate(edge_map_from_matrix(W))
    assert S in (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def test_separate_hamiltonian_cycle_is_clean():
    n = 8
    W = np.zeros((n, n))
    for i in range(n):
        W[i, (i + 1) % n] = W[(i + 1) % n, i] = 1.0
    assert separate(edge_map_from_matrix(W)) is None


def test_separate_half_integral_witness():
    assert separate(build_half_integral(gline_instance(18, 3.0))) is None


def test_separate_finds_violated_cut():
    # two triangles joined by a single edge pair of weight 1/2 each: the
    # bridge cut has weight 1 < 2
    W = np.zeros((6, 6))
    for tri in ([0, 1, 2], [3, 4, 5]):
        for i, j in itertools.combinations(tri, 2):
            W[i, j] = W[j, i] = 1.0
    W[2, 3] = W[3, 2] = 0.5
    W[0, 5] = W[5, 0] = 0.5
    S = separate(edge_map_from_matrix(W))
    assert S is not None
    mask = np.zeros(6, dtype=bool)
    mask[list(S)] = True
    assert W[mask][:, ~mask].sum() < 2 - 1e-6


def test_stoer_wagner_matches_exhaustive_oracle(rng):
    for n in (4, 6, 8, 10, 12):
        W = rng.uniform(0.0, 1.0, size=(n, n))
        W = np.triu(W, 1)
        W = W + W.T
        W[W < 0.3] = 0.0
        value, side, _ = stoer_wagner(W)
        assert 0 < len(side) < n
        mask = np.zeros(n, dtype=bool)
        mask[list(side)] = True
        assert W[mask][:, ~mask].sum() == pytest.approx(value, abs=1e-9)
        assert value == pytest.approx(exhaustive_min_cut(W), abs=1e-9)


def test_stoer_wagner_on_lp_solutions(rng):
    pts = rng.uniform(0.0, 10.0, size=(9, 2))
    x, _ = solve_subtour_lp(pts)
    W = x.as_matrix()
    assert x.min_cut() == pytest.approx(exhaustive_min_cut(W), abs=1e-6)
    assert x.min_cut() >= 2 - 1e-6


def test_connected_components():
    adj = np.zeros((5, 5), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    adj[2, 3] = adj[3, 2] = True
    comps = connected_components(adj)
    assert comps == [[0, 1], [2, 3], [4]]


MIN_CUT_POINTS = [(3, 4.0), (6, 3.0), (18, 3.0)]


@pytest.mark.parametrize("n,d", list(dict.fromkeys(MIN_CUT_POINTS + [
    (n, d) for n in range(3, 25) for d in (0.5, 1.0, 1.2, 2.0, 4.0, math.sqrt(n - 1))])))
def test_half_integral_witness_invariants(n, d):
    # the witness is subtour-feasible with value 3n - 4 + 3d + sqrt(d^2 + 1)
    # everywhere, so the LP optimum never reaches a 3n - 3 constant
    witness = build_half_integral(gline_instance(n, d))
    assert witness.max_degree_violation() <= 1e-12
    assert separate(witness) is None
    if (n, d) in MIN_CUT_POINTS:
        assert witness.min_cut() >= 2 - 1e-12
    assert witness.objective_value == pytest.approx(
        3 * n - 4 + 3 * d + math.hypot(d, 1.0), abs=1e-9)
    assert set(witness.values.tolist()) <= {0.5, 1.0}


def test_half_integral_reference_objectives():
    assert build_half_integral(gline_instance(18, 3.0)).objective_value \
        == pytest.approx(3 * 18 - 4 + 9 + math.sqrt(10), abs=1e-9)
    assert build_half_integral(gline_instance(3, 4.0)).objective_value \
        == pytest.approx(5 + 12 + math.sqrt(17), abs=1e-9)


def test_half_integral_rejects_foreign_points():
    with pytest.raises(DomainError):
        build_half_integral(UNIT_SQUARE)  # raw arrays are not instances
    inst = gline_instance(4, 4.0)
    tampered = inst.__class__(spec=inst.spec,
                              points=inst.points[::-1], roles=inst.roles)
    with pytest.raises(DomainError):
        build_half_integral(tampered)


def test_closed_form_values():
    assert closed_form_lp_value(18, math.sqrt(17)) \
        == pytest.approx(50 + 3 * math.sqrt(17) + math.sqrt(18), abs=1e-12)
    assert closed_form_lp_value(3, 4.0) == pytest.approx(17 + math.sqrt(17), abs=1e-12)
    with pytest.raises(DomainError):
        closed_form_lp_value(2, 1.0)
    assert closed_form_lp_value(20, 1e300) == 4e300
    for d in (1e308, math.inf):
        with pytest.raises(DomainError, match="overflows"):
            closed_form_lp_value(20, d)


def test_lp_below_feasible_witness():
    inst = gline_instance(8, 4.0)
    x, _ = solve_subtour_lp(inst)
    assert x.objective_value <= build_half_integral(inst).objective_value + 1e-7


def test_lp_below_optimal_tour(rng):
    for n, d in ((3, 4.0), (4, 3.0), (5, 1.0), (6, 4.0)):
        inst = gline_instance(n, d)
        x, _ = solve_subtour_lp(inst)
        assert x.objective_value <= held_karp(inst).length + 1e-6
    for _ in range(4):
        pts = rng.uniform(0.0, 10.0, size=(8, 2))
        x, _ = solve_subtour_lp(pts)
        assert x.objective_value <= held_karp(pts).length + 1e-6


def test_construction_matches_lp_where_it_is_optimal():
    # spot checks of the closed form grid; the even-n d=1 exception is
    # documented in test_unit_spacing_even_n_is_integral below
    for n, d in ((3, 1.0), (5, 1.0), (7, 3.0), (9, 4.0), (10, 3.0)):
        x, _ = solve_subtour_lp(gline_instance(n, d))
        assert x.objective_value == pytest.approx(closed_form_lp_value(n, d), abs=1e-5)


def test_unit_spacing_even_n_is_integral():
    # at d = 1 and even n the 3xn grid has a Hamiltonian cycle of unit
    # edges, every pairwise distance is >= 1, and degree rows force
    # sum(x) = 3n, so the LP optimum is exactly 3n, strictly below the
    # half-integral construction value 3n - 1 + sqrt(2); the closed form,
    # which is that construction value, refuses there
    for n in (4, 6, 8):
        inst = gline_instance(n, 1.0)
        x, _ = solve_subtour_lp(inst)
        assert x.objective_value == pytest.approx(3 * n, abs=1e-6)
        assert x.objective_value < build_half_integral(inst).objective_value - 0.4
        with pytest.raises(DomainError):
            closed_form_lp_value(n, 1.0)
        if 3 * n <= 18:
            assert held_karp(inst).length == pytest.approx(3 * n, abs=1e-9)


def explicit_grid_tour(inst):
    """The tour behind grid_tour_length, as a point order: the bottom row
    left to right, a rung up at column n, then a zigzag leftwards through
    the middle and top rows.  For odd n the zigzag stops at column 2 and
    a diagonal reaches the top of column 1."""
    n = inst.spec.n
    at = inst.index_of
    order = [at(x, 1) for x in range(1, n + 1)]
    last = 1 if n % 2 == 0 else 2
    for x in range(n, last - 1, -1):
        rows = (2, 3) if (n - x) % 2 == 0 else (3, 2)
        order += [at(x, r) for r in rows]
    if n % 2:
        order += [at(1, 3), at(1, 2)]
    return order


def tour_length(inst, order):
    dist = pairwise_distances(inst.coords())
    return sum(dist[a, b] for a, b in zip(order, order[1:] + order[:1]))


def lp_form(n, d):
    return 3 * n - 4 + 3 * d + math.sqrt(d * d + 1)


def d_star(n):
    """The root of (n - 1)(d - 1) = sqrt(d^2 + 1) - 1 above 1, even n."""
    m = n - 1
    return m / (m + 1) + math.sqrt(2 * m * (m - 1)) / (m * m - 1)


def test_closed_form_refusals_are_undercut_by_a_grid_tour():
    refused = []
    for n in range(3, 7):  # 3n <= 18
        for d in (0.5, 0.9, 1.0, 1.1):
            try:
                closed_form_lp_value(n, d)
                continue
            except DomainError:
                refused.append((n, d))
            inst = gline_instance(n, d)
            order = explicit_grid_tour(inst)
            assert sorted(order) == list(range(3 * n))
            length = tour_length(inst, order)
            assert length == pytest.approx(grid_tour_length(n, d), abs=1e-9)
            assert held_karp(inst).length == pytest.approx(length, abs=1e-9)
            assert length < lp_form(n, d) - 1e-3
    assert refused == [(3, 0.5), (3, 0.9), (4, 0.5), (4, 0.9), (4, 1.0), (4, 1.1),
                       (5, 0.5), (5, 0.9), (6, 0.5), (6, 0.9), (6, 1.0)]


def test_closed_form_region_boundary():
    assert d_star(4) == pytest.approx(1.1830127, abs=1e-6)
    assert d_star(6) == pytest.approx(1.0968565, abs=1e-6)
    assert d_star(10) == pytest.approx(1.05, abs=1e-12)
    for n in (4, 6, 8):
        above, below = d_star(n) + 1e-3, d_star(n) - 1e-3
        assert closed_form_lp_value(n, above) == lp_form(n, above)
        x, _ = solve_subtour_lp(gline_instance(n, above))
        assert x.objective_value == pytest.approx(lp_form(n, above), abs=1e-5)
        with pytest.raises(DomainError):
            closed_form_lp_value(n, below)
        x, _ = solve_subtour_lp(gline_instance(n, below))
        assert x.objective_value == pytest.approx(grid_tour_length(n, below), abs=1e-5)


def test_closed_form_unchanged_outside_the_refusals():
    # the refusal removes values and changes none: at odd n with d = 1 the
    # odd grid tour ties the form, and from d = 1.2 up no tour undercuts it
    assert closed_form_lp_value(18, math.sqrt(17)) == 3.0 * 18 - 4.0 + 3.0 * math.sqrt(17) \
        + math.hypot(math.sqrt(17), 1.0)
    for n in (3, 5, 7, 9):
        assert closed_form_lp_value(n, 1.0) == 3.0 * n - 4.0 + 3.0 + math.hypot(1.0, 1.0)
    for n in range(3, 41):
        for d in (1.2, 1.5, 2.0, 3.0, 4.0, math.sqrt(n - 1) + 1.2):
            assert closed_form_lp_value(n, d) == 3.0 * n - 4.0 + 3.0 * d + math.hypot(d, 1.0)


def directed_subtour_optimum(points):
    """Independent oracle: the directed two-degree formulation with every
    subset row enumerated up front, solved as one LP."""
    dist = pairwise_distances(points)
    n = len(points)
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    idx = {a: k for k, a in enumerate(arcs)}
    nv = len(arcs)
    costs = np.array([dist[i, j] for i, j in arcs])
    eq = []
    for v in range(n):
        row = np.zeros(nv)
        for j in range(n):
            if j != v:
                row[idx[(v, j)]] = 1.0
        eq.append(sparse_row(row, 1.0))
    for v in range(n):
        row = np.zeros(nv)
        for j in range(n):
            if j != v:
                row[idx[(j, v)]] = 1.0
        eq.append(sparse_row(row, 1.0))
    ineq = []
    for size in range(2, n):
        for S in itertools.combinations(range(n), size):
            row = np.zeros(nv)
            for i, j in itertools.permutations(S, 2):
                row[idx[(i, j)]] = 1.0
            ineq.append(sparse_row(row, size - 1))
    sol = solve(SparseLp(objective=costs, eq_rows=eq, ineq_rows=ineq,
                         var_bounds=[(0.0, 1.0)] * nv))
    assert sol.status is LpStatus.OPTIMAL
    return sol.objective_value


def test_directed_formulation_equivalence(rng):
    cases = [UNIT_SQUARE,
             gline_instance(2, 3.0).coords(),
             rng.uniform(0.0, 10.0, size=(7, 2)),
             rng.uniform(0.0, 10.0, size=(8, 2))]
    for pts in cases:
        x, _ = solve_subtour_lp(pts)
        assert x.objective_value == pytest.approx(directed_subtour_optimum(pts), abs=1e-6)


def test_edge_value_map_json():
    x, _ = solve_subtour_lp(EQUILATERAL)
    doc = json.loads(x.to_json())
    assert doc["objective"] == pytest.approx(3.0, abs=1e-6)
    assert sorted(tuple(e[:2]) for e in doc["edges"]) == [(0, 1), (0, 2), (1, 2)]
    doc = json.loads(build_half_integral(gline_instance(8, 4.0)).to_json())
    pairs = [tuple(e[:2]) for e in doc["edges"]]
    assert pairs == sorted(set(pairs)) and all(i < j for i, j in pairs)
    assert {e[2] for e in doc["edges"]} <= {0.5, 1.0}
    assert doc["objective"] == pytest.approx(closed_form_lp_value(8, 4.0), abs=1e-9)


def test_cut_round_cap_raises(monkeypatch):
    import gaplab.subtour as sub
    monkeypatch.setattr(sub, "CUT_ROUND_FACTOR", 0)
    with pytest.raises(CutRoundLimitError):
        sub.solve_subtour_lp(gline_instance(6, 3.0))


def enumerated_subtour_optimum_scipy(points):
    """Second independent oracle: one LP with every subset row enumerated,
    solved by an external solver (HiGHS)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    dist = pairwise_distances(points)
    n = len(points)
    I, J = edge_endpoints(n)
    costs = dist[I, J]
    a_eq = np.zeros((n, len(costs)))
    for v in range(n):
        a_eq[v, (I == v) | (J == v)] = 1.0
    rows = []
    rhs = []
    for size in range(2, n - 1):
        for S in itertools.combinations(range(n), size):
            mask = np.zeros(n, dtype=bool)
            mask[list(S)] = True
            rows.append((mask[I] & mask[J]).astype(float))
            rhs.append(size - 1.0)
    res = linprog(costs, A_ub=np.array(rows), b_ub=np.array(rhs),
                  A_eq=a_eq, b_eq=np.full(n, 2.0),
                  bounds=[(0.0, 1.0)] * len(costs), method="highs")
    assert res.status == 0
    return res.fun


def test_cutting_plane_matches_enumerated_lp(rng):
    for n in (6, 7, 8, 9, 10, 11):
        pts = rng.uniform(0.0, 10.0, size=(n, 2))
        x, _ = solve_subtour_lp(pts)
        ref = enumerated_subtour_optimum_scipy(pts)
        assert x.objective_value == pytest.approx(ref, abs=1e-6), f"n={n}"


def test_cutting_plane_matches_enumerated_lp_on_grid_family():
    for n, d in ((3, 1.0), (4, 1.0), (4, 2.0)):
        inst = gline_instance(n, d)
        x, _ = solve_subtour_lp(inst)
        ref = enumerated_subtour_optimum_scipy(inst.coords())
        assert x.objective_value == pytest.approx(ref, abs=1e-6)


def test_clustered_points_heavily_degenerate(rng):
    # two tight clusters force a deep fractional optimum with many cuts
    a = rng.normal(0.0, 0.05, size=(7, 2))
    b = rng.normal(0.0, 0.05, size=(7, 2)) + [10.0, 0.0]
    pts = np.vstack([a, b])
    x, cuts = solve_subtour_lp(pts)
    assert x.max_degree_violation() <= 1e-6
    assert x.min_cut() >= 2 - 1e-6
    assert len(cuts) >= 1
    assert x.objective_value <= held_karp(pts).length + 1e-6


def test_solve_subtour_lp_deterministic(rng):
    pts = rng.uniform(0.0, 10.0, size=(9, 2))
    x1, cuts1 = solve_subtour_lp(pts)
    x2, cuts2 = solve_subtour_lp(pts)
    assert x1.objective_value == x2.objective_value
    assert np.array_equal(x1.values, x2.values)
    assert x1.to_json() == x2.to_json()
    assert [c.subset for c in cuts1] == [c.subset for c in cuts2]


def test_cutting_plane_pivot_path_on_g18(monkeypatch):
    # pins the pivot path: a solver change that keeps every value but pivots
    # differently shows up here (37 = 21 dual pivots on the quadrant core
    # from the crash basis + 16 dual pivots after the three cuts; no edge
    # prices in)
    import gaplab.subtour as sub
    solve_lp, calls = sub.lp_solver.solve, []

    def counting_solve(lp, start=None, **kwargs):
        sol = solve_lp(lp, start=start, **kwargs)
        calls.append((start, sol))
        return sol
    monkeypatch.setattr(sub.lp_solver, "solve", counting_solve)
    x, cuts = solve_subtour_lp(gline_instance(18, math.sqrt(17)).coords())
    assert [sol.pivots for _start, sol in calls] == [21, 16]
    assert calls[0][0] is None
    assert all(start is prev for (start, _), (_, prev) in zip(calls[1:], calls))
    # the three cuts are the three rows of the grid
    assert sorted(sorted(c.subset) for c in cuts) == [list(range(k, k + 18)) for k in (0, 18, 36)]
    assert x.objective_value == pytest.approx(closed_form_lp_value(18, math.sqrt(17)), abs=1e-7)
    # many cuts: the warm starts begin the dual loop with violated cut
    # slacks, basics below their lower bound; the second solve follows
    # pricing: the new edge that prices in flips to its upper bound first,
    # and the dual loop repairs the degree rows it overfills.  In the sixth
    # solve, the second ratio test has two breakpoints equal up to rounding;
    # from the bordered inverse (within 8e-16 of a fresh one) it takes the
    # one that ends in 2 pivots, from a fresh inverse the one that takes 3
    calls.clear()
    x, cuts = solve_subtour_lp(np.random.default_rng(5).uniform(0, 100, (40, 2)))
    assert [sol.pivots for _start, sol in calls] == [32, 1, 16, 8, 1, 2, 2]
    assert all(start is prev for (start, _), (_, prev) in zip(calls[1:], calls))
    assert len(cuts) == 13
    assert x.objective_value == pytest.approx(510.81997510781366, abs=1e-9)


def test_cold_solve_of_g120_starts_from_the_crash_basis(monkeypatch):
    # from the all-slack basis each degree row's fixed slack, basic at 2,
    # must leave: about one pivot per row (369 at m = 360); the crash basis
    # takes 21.  Fewer than m / 4 pivots shows the crash was not bypassed
    import gaplab.subtour as sub
    solve_lp, calls = sub.lp_solver.solve, []

    def recording_solve(lp, start=None, **kwargs):
        sol = solve_lp(lp, start=start, **kwargs)
        calls.append((len(lp.eq_rows) + len(lp.ineq_rows), start, sol))  # the LP grows in place
        return sol
    monkeypatch.setattr(sub.lp_solver, "solve", recording_solve)
    solve_subtour_lp(gline_instance(120, math.sqrt(119)).coords())
    m, start, sol = calls[0]
    assert start is None and m == 360
    assert sol.pivots < m / 4


def test_one_inversion_per_solve_of_g120(monkeypatch):
    # the crash basis and the warm starts get their inverses by algebra, so
    # only each solve's final check inverts the basis matrix: 3 in 3 solves
    # (inverting every starting basis as well made 6)
    import gaplab.subtour as sub
    inv, solve_lp, inversions, solves = np.linalg.inv, sub.lp_solver.solve, [], []

    def counting_inv(a):
        inversions.append(len(a))
        return inv(a)

    def counting_solve(lp, start=None, **kwargs):
        solves.append(start)
        return solve_lp(lp, start=start, **kwargs)
    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    monkeypatch.setattr(sub.lp_solver, "solve", counting_solve)
    solve_subtour_lp(gline_instance(120, math.sqrt(119)).coords())
    assert len(solves) == 3 and len(inversions) == 3


@pytest.mark.parametrize("n,d", [
    *((n, d) for n in range(3, 11) for d in (1.0, 3.0, 4.0)),  # the criterion-4 grid
    *((n, math.sqrt(n - 1)) for n in (18, 19, 30, 60, 80, 120)),
    (7, 1.0), (9, 1.05), (101, 10.0), (200, 4.0),
])
def test_orbit_lp_matches_the_full_lp(n, d):
    # a generated instance is solved over its mirror orbits, its points as a
    # raw array over every edge; the two optima agree, and the orbit
    # solution, expanded to every pair, is a cut-free point of the full LP
    inst = gline_instance(n, d)
    x, _ = solve_subtour_lp(inst)
    full, _ = solve_subtour_lp(inst.coords())
    assert x.objective_value == pytest.approx(full.objective_value, abs=1e-9)
    I, J = edge_endpoints(inst.n_points)
    assert np.array_equal(x.I, I) and np.array_equal(x.J, J)
    assert x.values @ pairwise_distances(inst.coords())[I, J] == pytest.approx(x.objective_value,
                                                                              abs=1e-9)
    assert separate(x) is None
    assert x.max_degree_violation() <= 1e-6


def test_orbit_lp_path_on_g18(monkeypatch):
    # pins the orbit LP of G(18, sqrt(17)): one degree row per point orbit
    # (18, against 54 over the points) and 61 orbit columns; 8 dual pivots
    # from the crash basis, then 3 after two cuts.  The cuts are the bottom
    # row, the least image of the top row too, and the middle row, which
    # the mirrors keep; the full LP adds all three rows (21 and 16 pivots)
    import gaplab.subtour as sub
    solve_lp, calls = sub.lp_solver.solve, []

    def recording_solve(lp, start=None, **kwargs):
        sol = solve_lp(lp, start=start, **kwargs)
        calls.append((len(lp.eq_rows), lp.n_vars, sol.pivots))
        return sol
    monkeypatch.setattr(sub.lp_solver, "solve", recording_solve)
    x, cuts = solve_subtour_lp(gline_instance(18, math.sqrt(17)))
    assert calls == [(18, 61, 8), (18, 61, 3)]
    assert [sorted(c.subset) for c in cuts] == [list(range(0, 18)), list(range(18, 36))]
    assert x.objective_value == pytest.approx(closed_form_lp_value(18, math.sqrt(17)), abs=1e-7)


def test_orbit_lp_recovers_from_a_poor_core(monkeypatch):
    # a Hamiltonian path as the core of G(6, 3)'s orbit LP: its orbits
    # leave the path's ends one edge each, so the LP is infeasible and
    # every edge orbit joins it
    import gaplab.subtour as sub
    inst = gline_instance(6, 3.0)
    n = inst.spec.n
    mirrors = [lambda c, r: (n + 1 - c, r), lambda c, r: (c, 4 - r), lambda c, r: (n + 1 - c, 4 - r)]
    grid = [(c, r) for r in (1, 2, 3) for c in range(1, n + 1)]
    orbits = {min(tuple(sorted([inst.index_of(*m(*grid[i])), inst.index_of(*m(*grid[j]))]))
                  for m in [lambda c, r: (c, r), *mirrors])
              for i, j in itertools.combinations(range(3 * n), 2)}
    solve_lp, calls = sub.lp_solver.solve, []

    def recording_solve(lp, start=None, **kwargs):
        calls.append((lp.n_vars, solve_lp(lp, start=start, **kwargs)))
        return calls[-1][1]
    path = np.array([i * 18 - i * (i + 1) // 2 for i in range(17)])
    monkeypatch.setattr(sub, "_quadrant_core", lambda coords: path)
    monkeypatch.setattr(sub.lp_solver, "solve", recording_solve)
    x, _cuts = solve_subtour_lp(inst)
    assert calls[0][1].status is LpStatus.INFEASIBLE
    assert calls[1][0] == len(orbits)
    assert x.objective_value == pytest.approx(closed_form_lp_value(6, 3.0), abs=1e-9)
    assert separate(x) is None and x.max_degree_violation() <= 1e-6


def test_point_set_the_frozen_reference_build_cannot_solve():
    # set 0 of the benchmark's lp-cuts seed 1401: the reference build under
    # perfbench/reference raises "singular basis matrix" on it
    points = np.random.default_rng(1401).uniform(0.0, 100.0, size=(6, 100, 2))[0]
    x, cuts = solve_subtour_lp(points)
    assert x.max_degree_violation() <= 1e-6
    assert separate(x) is None
    assert x.objective_value == pytest.approx(highs_objective(points, [c.subset for c in cuts]),
                                              abs=1e-6)


def test_small_lps_run_blas_on_one_thread_whatever_the_count_around_them(monkeypatch):
    # OpenBLAS splits the products and the inversion of a 150-row basis
    # over its threads, and a split product rounds by the thread count: on
    # this set, solved on two threads, the pivot path and the cuts followed
    # it (46 cuts against 45 on one).  A solve of fewer than
    # ONE_BLAS_THREAD_BELOW rows runs on one thread and restores the count
    # it found; a larger one keeps that count.
    import gaplab.lp_solver as lps
    count = lps._openblas_thread_count()
    if count is None:
        pytest.skip("numpy links no OpenBLAS")
    get, set_ = count
    inv, during = np.linalg.inv, []

    def recording_inv(a):
        during.append(get())
        return inv(a)
    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    points = np.random.default_rng(101).uniform(0.0, 100.0, size=(6, 100, 2))[1]
    m = lps.ONE_BLAS_THREAD_BELOW
    large = SparseLp(objective=np.ones(m), var_bounds=[(0.0, 2.0)] * m,
                     eq_rows=[(np.array([i]), np.array([1.0]), 1.0) for i in range(m)])
    saved, runs = get(), []
    try:
        for threads in (1, 2):
            set_(threads)
            x, cuts = solve_subtour_lp(points)
            assert get() == threads
            runs.append((x.objective_value, [c.subset for c in cuts]))
        assert during and set(during) == {1}
        during.clear()
        assert solve(large).status is LpStatus.OPTIMAL
        assert during == [2]
    finally:
        set_(saved)
    assert runs[0] == runs[1]


def independent_reduced_costs(points, duals, subsets):
    """c_e - y_i - y_j - sum_{S containing i, j} y_S over every pair, one
    subset at a time."""
    dist = pairwise_distances(points)
    n = len(points)
    I, J = edge_endpoints(n)
    reduced = dist[I, J] - duals[I] - duals[J]
    for y_S, S in zip(duals[n:], subsets):
        inside = np.zeros(n, dtype=bool)
        inside[list(S)] = True
        reduced -= y_S * (inside[I] & inside[J])
    return reduced


@pytest.mark.parametrize("points,objective", zip([
    gline_instance(18, math.sqrt(17)).coords(),
    gline_instance(60, math.sqrt(59)).coords(),
    *np.random.default_rng(101).uniform(0.0, 100.0, size=(2, 100, 2)),
], [closed_form_lp_value(18, math.sqrt(17)), closed_form_lp_value(60, math.sqrt(59)),
    795.6160289435986, 760.0267245946907]), ids=["G18", "G60", "set0", "set1"])
def test_returned_solution_is_priced_over_every_edge(monkeypatch, points, objective):
    # the two point sets are the first of the benchmark's lp-cuts seed 101;
    # their objectives were measured with every edge in the LP from the start
    import gaplab.subtour as sub
    solve_lp, last = sub.lp_solver.solve, []

    def recording_solve(lp, start=None, **kwargs):
        last[:] = [solve_lp(lp, start=start, **kwargs)]
        return last[0]
    monkeypatch.setattr(sub.lp_solver, "solve", recording_solve)
    x, cuts = solve_subtour_lp(points)
    reduced = independent_reduced_costs(points, last[0].duals, [c.subset for c in cuts])
    # the loop's own pricing adds the same terms in another order
    n, dist = len(points), pairwise_distances(points)
    I, J = edge_endpoints(n)
    priced = _reduced_costs(dist[I, J], I, J, n, last[0].duals, [c.subset for c in cuts])
    assert np.abs(priced - reduced).max() <= 1e-9
    # edges outside the final LP sit at 0 and price out; inside it, the
    # simplex checked the same sign condition
    assert reduced[x.values == 0.0].min() >= -REDUCED_COST_TOL
    assert separate(x) is None
    assert x.max_degree_violation() <= 1e-6
    assert x.values @ dist[x.I, x.J] == pytest.approx(x.objective_value, abs=1e-9)
    assert x.objective_value == pytest.approx(objective, abs=1e-9)


def highs_objective(points, subsets):
    """Optimum of the degree rows plus the given subset rows over every
    edge, by an external solver (HiGHS) on a sparse matrix."""
    sparse = pytest.importorskip("scipy.sparse")
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = len(points)
    I, J = edge_endpoints(n)
    cols = np.arange(len(I))
    a_eq = sparse.csr_matrix((np.ones(2 * len(I)), (np.concatenate([I, J]), np.concatenate([cols, cols]))),
                             shape=(n, len(I)))
    inside = np.zeros((len(subsets), n), dtype=bool)
    for r, S in enumerate(subsets):
        inside[r, list(S)] = True
    res = linprog(pairwise_distances(points)[I, J],
                  A_ub=sparse.csr_matrix((inside[:, I] & inside[:, J]).astype(float)),
                  b_ub=np.array([len(S) - 1.0 for S in subsets]),
                  A_eq=a_eq, b_eq=np.full(n, 2.0), bounds=(0.0, 1.0), method="highs")
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("k", range(6))
def test_benchmark_point_sets_match_highs(k):
    # the six 100-point sets of the benchmark's lp-cuts seed 101: no subset
    # is violated, and the objective is the optimum over every edge of the
    # degree rows plus the returned cuts
    points = np.random.default_rng(101).uniform(0.0, 100.0, size=(6, 100, 2))[k]
    x, cuts = solve_subtour_lp(points)
    assert cuts and separate(x) is None
    assert x.objective_value == pytest.approx(highs_objective(points, [c.subset for c in cuts]),
                                              abs=1e-6)


def reference_quadrant_core(coords, neighbours):
    """The core edge set, one point and one quadrant at a time: the
    neighbours nearest points in each half-open quadrant (Euclidean
    distance ties to the lower index, the point and its duplicates left
    out), joined both ways, as positions in edge_endpoints order."""
    n = len(coords)
    dist = pairwise_distances(coords)
    quadrants = (lambda dx, dy: dx > 0 and dy >= 0, lambda dx, dy: dx <= 0 and dy > 0,
                 lambda dx, dy: dx < 0 and dy <= 0, lambda dx, dy: dx >= 0 and dy < 0)
    edges = set()
    for i in range(n):
        for inside in quadrants:
            near = sorted((float(dist[i, j]), j) for j in range(n)
                          if inside(coords[j, 0] - coords[i, 0], coords[j, 1] - coords[i, 1]))
            edges.update((min(i, j), max(i, j)) for _, j in near[:neighbours])
    position = {pair: k for k, pair in enumerate(zip(*(e.tolist() for e in edge_endpoints(n))))}
    return sorted(position[e] for e in edges)


LATTICE = np.array([(i, j) for i in range(5) for j in range(5)], dtype=float)


@pytest.mark.parametrize("points, neighbours", [
    *((pts, 2) for pts in np.random.default_rng(7).uniform(0.0, 10.0, size=(4, 25, 2))),
    # integer grids: distance ties, points on the quadrant axes, duplicates
    *((pts, k) for pts, k in zip(np.random.default_rng(8).integers(0, 4, size=(6, 20, 2)),
                                  (2, 1, math.inf, 2, 1, math.inf))),
    (np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 2),
    *((gline_instance(n, d).coords(), 2) for n, d in ((3, 1.0), (6, 3.0), (18, math.sqrt(17)))),
    (gline_instance(7, 4.0).coords(), 1),
    # a 5 x 5 lattice, then with every fourth point twice: a duplicate ties
    # with its twin at every distance
    *((LATTICE, k) for k in (2, 1, math.inf)),
    *((np.vstack([LATTICE, LATTICE[::4]]), k) for k in (2, 1, math.inf)),
])
def test_quadrant_core_matches_a_point_by_point_reference(monkeypatch, points, neighbours):
    # one, two (the core's own count) and every point per quadrant; with
    # every point, a quadrant settles only once no point past the window
    # may lie in it
    import gaplab.subtour as sub
    coords = np.asarray(points, dtype=float)
    count = min(neighbours, len(coords))
    monkeypatch.setattr(sub, "CORE_NEIGHBOURS", count)
    assert sub._quadrant_core(coords).tolist() == reference_quadrant_core(coords, count)


def test_quadrant_core_windows_cover_large_sets(monkeypatch):
    # small blocks and far-off points: the windows double past their
    # blocks' ends, and a point alone on its side settles only at the end
    import gaplab.subtour as sub
    coords = np.vstack([np.random.default_rng(9).uniform(0.0, 10.0, size=(60, 2)),
                        [[-50.0, 5.0], [60.0, 5.0], [5.0, 80.0]]])
    expected = reference_quadrant_core(coords, CORE_NEIGHBOURS)
    assert _quadrant_core(coords).tolist() == expected
    monkeypatch.setattr(sub, "WINDOW_BLOCK", 8)
    assert sub._quadrant_core(coords).tolist() == expected


def test_loop_recovers_from_a_poor_core(monkeypatch):
    import gaplab.subtour as sub
    inst = gline_instance(6, 3.0)
    expected, expected_cuts = solve_subtour_lp(inst)
    solve_lp, calls = sub.lp_solver.solve, []

    def recording_solve(lp, start=None, **kwargs):
        calls.append((lp.n_vars, solve_lp(lp, start=start, **kwargs)))
        return calls[-1][1]
    # a Hamiltonian path leaves its two ends one edge each: no degree-2 point
    path = np.array([i * 18 - i * (i + 1) // 2 for i in range(17)])
    monkeypatch.setattr(sub, "_quadrant_core", lambda coords: path)
    monkeypatch.setattr(sub.lp_solver, "solve", recording_solve)
    x, _cuts = solve_subtour_lp(inst.coords())
    assert calls[0][0] == 17 and calls[0][1].status is LpStatus.INFEASIBLE
    assert calls[1][0] == 18 * 17 // 2
    assert x.objective_value == pytest.approx(expected.objective_value, abs=1e-9)
    assert x.objective_value == pytest.approx(closed_form_lp_value(6, 3.0), abs=1e-9)
    assert separate(x) is None
    # closing the path into a cycle makes the core feasible but far from
    # optimal: only pricing can bring in the edges the optimum uses
    cycle = np.append(path, 17 - 1)  # the pair (0, 17)
    monkeypatch.setattr(sub, "_quadrant_core", lambda coords: cycle)
    calls.clear()
    x, _cuts = solve_subtour_lp(inst.coords())
    assert calls[0][1].status is LpStatus.OPTIMAL
    assert calls[0][1].objective_value > expected.objective_value + 1.0
    assert x.objective_value == pytest.approx(expected.objective_value, abs=1e-9)


def test_shrunk_separation_agrees_with_dense():
    from gaplab.subtour import _shrunk_violated_sets
    triangles = np.zeros((6, 6))
    for tri in ([0, 1, 2], [3, 4, 5]):
        for i, j in itertools.combinations(tri, 2):
            triangles[i, j] = triangles[j, i] = 1.0
    bridged = triangles.copy()
    bridged[2, 3] = bridged[3, 2] = bridged[0, 5] = bridged[5, 0] = 0.5
    cycle = np.zeros((8, 8))
    for i in range(8):
        cycle[i, (i + 1) % 8] = cycle[(i + 1) % 8, i] = 1.0
    maps = [edge_map_from_matrix(W) for W in (triangles, bridged, cycle)]
    maps.append(build_half_integral(gline_instance(18, 3.0)))
    for x in maps:
        found = _shrunk_violated_sets(x)
        assert bool(found) == (separate(x) is not None)
        W = x.as_matrix()
        for S, cut_value in found:
            mask = np.zeros(x.n_points, dtype=bool)
            mask[list(S)] = True
            assert W[mask][:, ~mask].sum() == pytest.approx(cut_value, abs=1e-12)
            assert cut_value < 2 - 1e-6


def test_solve_subtour_lp_builds_no_dense_row_by_edge_matrix():
    # one dense (points x edges) float64 matrix takes 8 * points * edges
    # bytes; sparse rows and the (rows x rows) basis inverse stay well below
    inst = gline_instance(30, math.sqrt(29))
    points = inst.n_points
    edges = points * (points - 1) // 2
    tracemalloc.start()
    try:
        solve_subtour_lp(inst)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * points * edges


@pytest.mark.parametrize("n", [12, 14, 16, 20, 24, 60, 120])
def test_construction_stays_lp_optimal_into_the_proven_regime(n):
    # the sqrt(n-1) spacing regime: the cutting-plane optimum keeps landing
    # exactly on the closed form well beyond the small acceptance grid
    d = math.sqrt(n - 1)
    x, _ = solve_subtour_lp(gline_instance(n, d))
    assert x.objective_value == pytest.approx(closed_form_lp_value(n, d), abs=1e-7)
    assert x.min_cut() >= 2 - 1e-6


@pytest.mark.parametrize("call", [
    lambda: stoer_wagner(np.zeros((1, 1))),
    lambda: build_half_integral(gline_instance(2, 4.0)),
    lambda: closed_form_lp_value(5, 0.0),
], ids=["stoer_wagner-one-vertex", "witness-n2", "closed-form-d"])
def test_input_checks_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_blocks_of_any_size_give_the_same_solve(monkeypatch):
    # the core and pricing look at pairs a block at a time; blocks of a few
    # pairs take other paths through both and reach the same solution
    import gaplab.subtour as sub
    cases = [gline_instance(18, math.sqrt(17)), np.random.default_rng(101).uniform(0.0, 100.0, (40, 2))]
    expected = [sub.solve_subtour_lp(obj) for obj in cases]
    monkeypatch.setattr(sub, "WINDOW_BLOCK", 16)
    for obj, (x, cuts) in zip(cases, expected):
        y, y_cuts = sub.solve_subtour_lp(obj)
        assert y.objective_value == x.objective_value
        assert np.array_equal(y.values, x.values)
        assert [c.subset for c in y_cuts] == [c.subset for c in cuts]


@pytest.mark.parametrize("obj", [gline_instance(18, math.sqrt(17)),
                                 np.random.default_rng(5).uniform(0.0, 100.0, (60, 2))],
                         ids=["G18", "random60"])
def test_radius_pricing_enters_what_pricing_every_edge_enters(monkeypatch, obj):
    # each pass's duals, then the same with every point dual raised so that
    # an edge outside the LP, at one of four places in the order of
    # c_e - u_i - u_j, lands just inside its ends' radius: the entering
    # orbits are those of one pass over every edge, each orbit's reduced
    # costs summed in edge order
    import gaplab.subtour as sub
    passes, entering = [], sub._entering

    def recording(coords, order, duals, subsets, lp_edges, mirrors):
        passes.append((coords, order, duals, list(subsets), lp_edges, mirrors))
        return entering(coords, order, duals, subsets, lp_edges, mirrors)
    monkeypatch.setattr(sub, "_entering", recording)
    sub.solve_subtour_lp(obj)
    coords, mirrors = passes[0][0], passes[0][5]
    n = len(coords)
    I, J = edge_endpoints(n)
    costs = pairwise_distances(coords)[I, J]
    position = {pair: k for k, pair in enumerate(zip(I.tolist(), J.tolist()))}
    group = [np.arange(n), *mirrors]
    orbit = np.array([min(position[tuple(sorted((int(g[i]), int(g[j]))))] for g in group)
                      for i, j in zip(I.tolist(), J.tolist())])
    found = 0
    for coords, order, duals, subsets, lp_edges, mirrors in passes:
        outside = np.ones(len(I), dtype=bool)
        outside[orbit[lp_edges]] = False
        slack = costs - duals[I] - duals[J]
        slack = np.sort(slack[outside[orbit] & (slack > 0)])
        for raised in (0.0, *(slack[k * len(slack) // 8] / 2 + 5e-7 for k in (0, 1, 2, 4))):
            y = duals.copy()
            y[:n] += raised
            every = np.bincount(orbit, _reduced_costs(costs, I, J, n, y, subsets), len(I))
            expected = np.flatnonzero(outside & (every < -REDUCED_COST_TOL))
            assert entering(coords, order, y, subsets, lp_edges, mirrors).tolist() == expected.tolist()
            found += len(expected)
    assert len(passes) >= 2 and found


@pytest.mark.parametrize("obj,objective", [
    (gline_instance(60, math.sqrt(59)), float.fromhex("0x1.9d942cc0b115cp+7")),
    (np.random.default_rng(101).uniform(0.0, 100.0, size=(6, 100, 2))[0],
     float.fromhex("0x1.8dceda0953128p+9")),
], ids=["G60", "lp-cuts-101-set0"])
def test_loop_builds_no_distance_matrix(monkeypatch, obj, objective):
    # the core and pricing cost their pairs from the coordinates; the
    # objectives are those of the all-pairs loop, bit for bit
    import gaplab.instances as instances
    import gaplab.subtour as sub

    def refuse(coords):
        raise AssertionError("the LP loop built a distance matrix")
    monkeypatch.setattr(sub, "pairwise_distances", refuse)
    monkeypatch.setattr(instances, "pairwise_distances", refuse)
    x, _cuts = sub.solve_subtour_lp(obj)
    assert x.objective_value == objective


def test_solve_refuses_d_past_2_to_the_52_before_any_pivot(monkeypatch):
    # past 2^52 the simplex reached its iteration limit after 3,561 pivots
    import gaplab.subtour as sub

    def no_solve(lp, start=None, **kwargs):
        raise AssertionError("an LP was solved")
    monkeypatch.setattr(sub.lp_solver, "solve", no_solve)
    refusal = r"^the cutting-plane LP needs d <= 2\^52, got 5000000000000000\.0$"
    with pytest.raises(DomainError, match=refusal):
        sub.solve_subtour_lp(gline_instance(6, 5e15))


def flow_subtour_optimum(points):
    """Third independent oracle, with no cutting planes: the compact flow
    formulation (Wong, 1980), solved by HiGHS.  x_e in [0, 1] with degree
    2 at every point, and for every point t != 0 a flow of 2 from point 0
    to t over the arcs, each arc's flow at most the x of its edge.  By
    max-flow min-cut its projection on x is the subtour polytope.  Costs
    come from math.dist; no gaplab code is used."""
    sparse = pytest.importorskip("scipy.sparse")
    linprog = pytest.importorskip("scipy.optimize").linprog
    points = [tuple(map(float, p)) for p in points]
    n = len(points)
    I, J = (np.array(e) for e in zip(*itertools.combinations(range(n), 2)))
    m = len(I)
    tails, heads = np.concatenate([I, J]), np.concatenate([J, I])  # arc a and arc a + m share edge a
    costs = [math.dist(points[i], points[j]) for i, j in zip(I, J)]
    eq_row = [np.concatenate([I, J])]
    eq_col = [np.tile(np.arange(m), 2)]
    eq_val = [np.ones(2 * m)]
    b_eq = [np.full(n, 2.0)]
    for t in range(1, n):  # commodity t: out - in = 2 at point 0, -2 at t, 0 elsewhere
        rows, cols = t * n, m + (t - 1) * 2 * m + np.arange(2 * m)
        eq_row += [rows + tails, rows + heads]
        eq_col += [cols, cols]
        eq_val += [np.ones(2 * m), -np.ones(2 * m)]
        supply = np.zeros(n)
        supply[0], supply[t] = 2.0, -2.0
        b_eq.append(supply)
    arcs = 2 * m * (n - 1)  # every flow at most the x of its edge
    a_ub = sparse.csr_matrix((np.concatenate([np.ones(arcs), -np.ones(arcs)]),
                              (np.tile(np.arange(arcs), 2),
                               np.concatenate([m + np.arange(arcs), np.arange(arcs) % m]))),
                             shape=(arcs, m + arcs))
    a_eq = sparse.csr_matrix((np.concatenate(eq_val), (np.concatenate(eq_row), np.concatenate(eq_col))),
                             shape=(n * n, m + arcs))
    res = linprog(np.concatenate([costs, np.zeros(arcs)]), A_ub=a_ub, b_ub=np.zeros(arcs),
                  A_eq=a_eq, b_eq=np.concatenate(b_eq), bounds=(0.0, 1.0), method="highs")
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("obj", [
    *(gline_instance(n, d) for n in (6, 7) for d in (1.0, 3.0, 4.0)),
    gline_instance(8, 4.0),
    *np.random.default_rng(31).uniform(0.0, 100.0, size=(2, 20, 2)),
], ids=[*(f"G{n}-{d:g}" for n in (6, 7) for d in (1.0, 3.0, 4.0)), "G8-4", "random0", "random1"])
def test_orbit_and_full_lp_match_the_flow_formulation(obj):
    # the flow LP shares no code with the cutting-plane loop: not the core,
    # pricing, separation, the orbits or the simplex
    forms = [obj, obj.coords()] if hasattr(obj, "coords") else [obj]
    optimum = flow_subtour_optimum(forms[-1])
    for form in forms:
        x, _cuts = solve_subtour_lp(form)
        assert x.objective_value == pytest.approx(optimum, abs=1e-9)
