"""Exact subtour-LP optimum by cutting planes, plus the half-integral witness.

The LP has one variable per unordered point pair with 0 <= x_e <= 1,
degree equalities sum_{e at v} x_e = 2, and a subset constraint
sum_{e inside S} x_e <= |S| - 1 for every proper nonempty S.  Both
columns and rows are added lazily.  The LP starts on a core edge set (the
nearest points of each point in each of its four quadrants).  After each
optimal solve, the LP duals price every edge, and the edges with negative
reduced cost join the LP, until none is left: the solution is then
optimal over all edges by the simplex's own criterion.  Only then is a
violated subset sought, as a global minimum cut below 2 (Stoer-Wagner) on
the fractional support graph, with its value-1 edges contracted.  When no
subset is violated, the objective is the subtour-LP optimum, also known
as the Held-Karp bound.

The loop solves the LP over the orbits of a group of point permutations
that maps the input onto itself, read from the input: a generated G(n, d)
has the mirror in x (column i -> n+1-i), the mirror in y (row j -> 4-j)
and both together, and every other input has the identity alone.  The
subtour LP is invariant under the group and convex, so the average of an
optimal solution over the group is optimal too, and the LP over solutions
constant on each edge orbit has the same optimum (Boedi, Herr and Joswig,
Algorithms for highly symmetric linear and integer programs, Math.
Programming 137, 2013).  It has one column per edge orbit, one degree row
per point orbit and one row per subset, which stands for all the
subset's images.  Under the identity each orbit is one edge or one point,
and the loop is the plain cutting-plane loop over the full LP.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import lp_solver
from .instances import (
    DomainError,
    Instance,
    coerce_points,
    generate,
    lp_distance,
    pairwise_distances,
)
from .lp_solver import REDUCED_COST_TOL, LpStatus, SparseLp

SEPARATION_TOL = 1e-6   # a cut below 2 - this counts as violated
SUPPORT_EPS = 1e-9      # edge values above this form the support graph
CUT_ROUND_FACTOR = 10   # cut rounds capped at this times the point count
CORE_NEIGHBOURS = 2     # the core edge set: this many nearest points per quadrant


class SubtourSolveError(RuntimeError):
    """LP failure or stalled separation inside the cutting-plane loop."""


class CutRoundLimitError(SubtourSolveError):
    """Cut-round cap reached with violated subsets still outstanding."""


@dataclass(frozen=True)
class CutRecord:
    """A subset added as a violated constraint, with its violation
    2 - cut_value at the moment of discovery."""

    subset: frozenset[int]
    violation: float


@dataclass
class EdgeValueMap:
    """Fractional edge values over unordered point pairs: ``values[k]`` is x
    on (I[k], J[k]), with I[k] < J[k], each pair once, sorted by (i, j), and
    unlisted pairs 0.  LP solutions list every pair (:func:`edge_endpoints`)."""

    n_points: int
    I: np.ndarray
    J: np.ndarray
    values: np.ndarray
    objective_value: float

    def as_matrix(self) -> np.ndarray:
        W = np.zeros((self.n_points, self.n_points))
        W[self.I, self.J] = W[self.J, self.I] = self.values
        return W

    def degrees(self) -> np.ndarray:
        n = self.n_points
        return np.bincount(self.I, self.values, n) + np.bincount(self.J, self.values, n)

    def max_degree_violation(self) -> float:
        return float(np.abs(self.degrees() - 2.0).max())

    def min_cut(self) -> float:
        value, _side, _ = stoer_wagner(self.as_matrix())
        return value

    def to_json(self) -> str:
        keep = self.values > SUPPORT_EPS
        rows = [[i, j, v] for i, j, v in zip(self.I[keep].tolist(), self.J[keep].tolist(),
                                             self.values[keep].tolist())]
        return json.dumps({"edges": rows, "objective": self.objective_value}) + "\n"


def edge_endpoints(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of the n(n-1)/2 unordered pairs in row-major order."""
    return np.triu_indices(n, k=1)


# -- separation --------------------------------------------------------------

def connected_components(adj: np.ndarray) -> list[list[int]]:
    n = len(adj)
    seen = np.zeros(n, dtype=bool)
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            nxt = np.flatnonzero(adj[v] & ~seen)
            seen[nxt] = True
            stack.extend(int(u) for u in nxt)
        comps.append(sorted(comp))
    return comps


def stoer_wagner(W: np.ndarray, collect_below: float | None = None):
    """Global minimum cut of a weighted graph by repeated maximum-adjacency
    phases with contraction.

    Returns (best_value, best_side, harvested) where harvested maps every
    phase cut with weight < collect_below to its weight (empty when
    collect_below is None).  Deterministic: argmax ties take the lowest
    index.
    """
    n = len(W)
    if n < 2:
        raise DomainError("minimum cut needs at least 2 vertices")
    Wc = np.array(W, dtype=float)
    np.fill_diagonal(Wc, 0.0)
    active = np.ones(n, dtype=bool)
    groups: list[frozenset[int]] = [frozenset([i]) for i in range(n)]
    best_value, best_side = math.inf, frozenset()
    harvested: dict[frozenset[int], float] = {}

    for _phase in range(n - 1):
        act = np.flatnonzero(active)
        a = int(act[0])
        wsum = Wc[a].copy()
        wsum[~active] = -np.inf
        wsum[a] = -np.inf
        last, cut_of_phase = a, 0.0
        for _ in range(len(act) - 1):
            nxt = int(np.argmax(wsum))
            cut_of_phase = float(wsum[nxt])
            wsum += Wc[nxt]
            wsum[nxt] = -np.inf
            prev, last = last, nxt
        side = groups[last]
        if collect_below is not None and cut_of_phase < collect_below:
            harvested[side] = cut_of_phase
        if cut_of_phase < best_value:
            best_value, best_side = cut_of_phase, side
        # contract last into prev
        Wc[prev] += Wc[last]
        Wc[:, prev] += Wc[:, last]
        Wc[prev, prev] = 0.0
        active[last] = False
        groups[prev] = groups[prev] | groups[last]
    return best_value, best_side, harvested


def _most_violated_first(found: list[tuple[frozenset[int], float]]):
    return sorted(found, key=lambda sv: (sv[1], len(sv[0]), sorted(sv[0])))


def _violated_sets(W: np.ndarray) -> list[tuple[frozenset[int], float]]:
    """All violated subsets one separation round can see, most violated first.

    A disconnected support graph yields its connected components (cut
    value zero); otherwise the Stoer-Wagner phase cuts below 2 - SEPARATION_TOL.
    """
    comps = connected_components(W > SUPPORT_EPS)
    if len(comps) > 1:
        return [(frozenset(c), 0.0) for c in comps]
    _best, _side, harvested = stoer_wagner(W, collect_below=2.0 - SEPARATION_TOL)
    return _most_violated_first([(S, v) for S, v in harvested.items() if 0 < len(S) < len(W)])


def _shrunk_violated_sets(x: EdgeValueMap) -> list[tuple[frozenset[int], float]]:
    """:func:`_violated_sets` on the support graph with every edge of value
    >= 1 - SUPPORT_EPS contracted, its subsets expanded back to point sets.

    The contraction is safe (Padberg and Rinaldi, 1990): if a violated S
    splits a value-1 edge uv with u in S, then S + v is violated too,
    since v has degree 2 and sends at least 1 into S, so x(delta(S + v)) =
    x(delta(S)) + 2 - 2 x(v : S) <= x(delta(S)).  (S + v is proper, or the
    complement of S would be {v}, whose cut is 2.)  Growing S this way
    ends in a violated set that splits no value-1 edge, and contraction
    keeps the weight of every such cut.
    """
    n = x.n_points
    support = x.values > SUPPORT_EPS
    I, J, w = x.I[support], x.J[support], x.values[support]
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    ones = w >= 1.0 - SUPPORT_EPS
    for i, j in zip(I[ones].tolist(), J[ones].tolist()):
        parent[find(i)] = find(j)
    root = np.array([find(v) for v in range(n)])
    is_root = root == np.arange(n)
    group = (np.cumsum(is_root) - 1)[root]  # groups numbered in the order of their roots
    k = int(is_root.sum())
    if k < 2:  # one Hamiltonian cycle of value-1 edges
        return []
    a, b = group[I], group[J]
    cross = a != b
    W = np.bincount(a[cross] * k + b[cross], w[cross], k * k).reshape(k, k)
    W += W.T
    members = np.split(np.argsort(group, kind="stable"), np.cumsum(np.bincount(group))[:-1])
    return _most_violated_first(
        [(frozenset(np.concatenate([members[g] for g in S]).tolist()), v)
         for S, v in _violated_sets(W)])


def separate(x: EdgeValueMap) -> frozenset[int] | None:
    """A most violated subset (cut value below 2 - SEPARATION_TOL), or None
    if none exists.  Runs on the unshrunk support graph, so it checks the
    cutting-plane loop's shrunk separation independently."""
    found = _violated_sets(x.as_matrix())
    return found[0][0] if found else None


# -- cutting-plane driver -----------------------------------------------------

def _quadrant_core(coords: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The core edge set, as ascending indices into :func:`edge_endpoints`:
    every point joined to its CORE_NEIGHBOURS nearest points in each of
    the four half-open quadrants around it (ties to the lower index).  A
    boolean mask of the upper triangle lists them row-major, in that order.

    Quadrant neighbours reach across the long rungs of G(n, sqrt(n-1)),
    which plain nearest neighbours miss (Applegate, Bixby, Chvatal and
    Cook, The Traveling Salesman Problem, 2006).
    """
    n = len(coords)
    dx = coords[None, :, 0] - coords[:, None, 0]
    dy = coords[None, :, 1] - coords[:, None, 1]
    quadrant = np.full((n, n), -1, dtype=np.int8)  # -1: the point itself and its duplicates
    for q, inside in enumerate(((dx > 0) & (dy >= 0), (dx <= 0) & (dy > 0),
                                (dx < 0) & (dy <= 0), (dx >= 0) & (dy < 0))):
        quadrant[inside] = q
    order = np.argsort(dist, axis=1, kind="stable")
    quadrant = np.take_along_axis(quadrant, order, axis=1)
    pick = np.zeros((n, n), dtype=bool)
    for q in range(4):
        hit = quadrant == q
        pick |= hit & (np.cumsum(hit, axis=1, dtype=np.int32) <= CORE_NEIGHBOURS)
    np.put_along_axis(pick, order, pick.copy(), axis=1)  # back from distance order to point order
    keep = pick | pick.T
    return np.flatnonzero(keep[np.triu(np.ones_like(keep), 1)])


def _mirrors(obj) -> list[np.ndarray]:
    """The point permutations other than the identity that map the input
    onto itself: for a generated G(n, d), the mirror in x, the mirror in y
    and both together; none for any other input.  A mirror keeps every
    coordinate difference up to sign, so it keeps every L^p distance."""
    if not (isinstance(obj, Instance) and obj == generate(obj.spec)):
        return []
    grid = np.arange(obj.n_points).reshape(3, obj.spec.n)  # grid[row - 1, col - 1]
    return [grid[:, ::-1].ravel(), grid[::-1].ravel(), grid[::-1, ::-1].ravel()]


def _pair_positions(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Positions in :func:`edge_endpoints` order of the pairs {a[k], b[k]},
    a[k] != b[k]; a and b are overwritten."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b, out=b)
    pos = np.subtract(2 * n - 3, lo, out=a)  # the pair (i, j), i < j, sits at i(2n-3-i)/2 + j - 1
    pos *= lo
    pos //= 2
    pos += hi
    pos -= 1
    return pos


def _least_image(S, mirrors: list[np.ndarray]) -> frozenset[int]:
    """Of S and its images, the one whose sorted points come first: the
    images of a subset give one row over the orbits."""
    points = sorted(S)
    return frozenset(min([points, *(sorted(g[points].tolist()) for g in mirrors)]))


def _orbit_edges(cols: np.ndarray, I: np.ndarray, J: np.ndarray, n: int,
                 mirrors: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Every edge of the orbits whose least edges are cols, with the LP
    column of its orbit: cols first, then their images under each mirror,
    each edge once."""
    images = np.stack([cols, *(_pair_positions(g[I[cols]], g[J[cols]], n) for g in mirrors)])
    first = np.ones(images.shape, dtype=bool)  # an image not met earlier in its column
    for k in range(1, len(images)):
        first[k] = (images[k] != images[:k]).all(axis=0)
    return images[first], np.nonzero(first)[1]


def _inside(S, I: np.ndarray, J: np.ndarray, n: int) -> np.ndarray:
    """Which edges (I, J) lie inside S: the one subset-to-edge map, for cut rows and pricing."""
    inside = np.zeros(n, dtype=bool)
    inside[list(S)] = True
    return inside[I] & inside[J]


def _subset_row(S, I: np.ndarray, J: np.ndarray, column: np.ndarray,
                n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The sparse row of sum_{e inside S} x_e <= |S| - 1 over the edges
    (I, J), edge k in LP column column[k]."""
    cols = column[_inside(S, I, J, n)]
    return cols, np.ones(len(cols)), float(len(S) - 1)


def _subtour_lp(n: int, I: np.ndarray, J: np.ndarray, column: np.ndarray, costs: np.ndarray,
                reps: np.ndarray, subsets) -> SparseLp:
    """The LP over the edges (I[k], J[k]) of cost costs[k], edge k in
    column column[k], which costs the sum of its edges: one degree row per
    point in reps, then one row per subset in order."""
    ends = np.concatenate([I, J])
    # each point's edges, those where it is the smaller end first; the order
    # within a row does not matter, since the solver sorts the entries by column
    incident = np.split(np.argsort(ends, kind="stable") % len(I),
                        np.cumsum(np.bincount(ends, minlength=n))[:-1])
    objective = np.bincount(column, costs)
    return SparseLp(objective=objective,
                    eq_rows=[(column[incident[p]], np.ones(len(incident[p])), 2.0) for p in reps],
                    ineq_rows=[_subset_row(S, I, J, column, n) for S in subsets],
                    var_bounds=np.tile([0.0, 1.0], (len(objective), 1)))


def _reduced_costs(costs: np.ndarray, I: np.ndarray, J: np.ndarray, n: int, duals: np.ndarray,
                   subsets) -> np.ndarray:
    """c_e - y_i - y_j - sum_{S containing i, j} y_S for every edge (I, J),
    from the duals of the n points, then of the subset rows.  Each
    nonzero subset dual is added over :func:`_inside`, the mask its cut row
    is built from, so no (points x points) array is built."""
    y = duals[:n]
    potential = y[I]
    potential += y[J]
    for k in np.flatnonzero(duals[n:]):
        potential[_inside(subsets[k], I, J, n)] += duals[n + k]
    return np.subtract(costs, potential, out=potential)


def solve_subtour_lp(obj) -> tuple[EdgeValueMap, list[CutRecord]]:
    """Exact subtour-LP optimum of an Instance or raw (N, 2) point array.

    Returns the last round's edge values over every point pair, optimal
    over all edges and with no violated subset, together with the cuts
    added on the way.

    A generated G(n, d) is solved over the orbits of its mirrors (module
    docstring): one LP column per edge orbit, costing the sum of its
    edges, and one degree row per point orbit, at its least index.  A
    subset row counts the edges of each orbit inside the subset, and a
    subset joins the LP as the least of its images.  Pricing stays per
    edge, with each point orbit's dual spread evenly over its points, and
    an orbit enters when its edges' reduced costs sum below
    -REDUCED_COST_TOL.  Separation and the returned values take x_e = the
    value of e's orbit.  Any other input has the identity alone, and its
    LP is the full LP: one column per edge, one degree row per point.
    """
    coords, p = coerce_points(obj)
    n = len(coords)
    dist = pairwise_distances(coords, p)
    I, J = edge_endpoints(n)
    costs = dist[I, J]
    core = _quadrant_core(coords, dist)
    del dist

    mirrors = _mirrors(obj)
    orbit = np.arange(len(I))   # the least edge of every edge's orbit
    point_orbit = np.arange(n)  # the least point of every point's orbit
    for g in mirrors:
        np.minimum(orbit, _pair_positions(g[I], g[J], n), out=orbit)
        np.minimum(point_orbit, g, out=point_orbit)
    reps = np.flatnonzero(point_orbit == np.arange(n))  # one degree row each
    row = np.searchsorted(reps, point_orbit)             # every point's degree row
    share = np.bincount(point_orbit)[point_orbit]        # the size of every point's orbit

    # the LP's columns, as the least edges of their orbits
    cols = np.flatnonzero(np.bincount(orbit[core], minlength=len(I)))
    edges, column = _orbit_edges(cols, I, J, n, mirrors)
    subsets: list[frozenset[int]] = []
    lp = _subtour_lp(n, I[edges], J[edges], column, costs[edges], reps, subsets)
    records: list[CutRecord] = []
    sol = None  # every solve warm-starts from the previous one

    for _round in range(CUT_ROUND_FACTOR * n):
        while True:  # price every edge until no orbit has a negative reduced cost
            sol = lp_solver.solve(lp, start=sol)
            if sol.status is LpStatus.OPTIMAL:
                # the edge-sized reduced costs are dropped before the next solve
                duals = np.concatenate([sol.duals[row] / share, sol.duals[len(reps):]])
                prices_in = np.bincount(orbit, _reduced_costs(costs, I, J, n, duals, subsets),
                                        len(I)) < -REDUCED_COST_TOL
                prices_in[cols] = False
                new = np.flatnonzero(prices_in)
                if not new.size:
                    break
            else:
                # the core admits no solution: take every orbit
                missing = orbit == np.arange(len(I))
                missing[cols] = False
                new = np.flatnonzero(missing)
                if sol.status is not LpStatus.INFEASIBLE or not new.size:
                    raise SubtourSolveError(f"subtour LP solve returned {sol.status.value}")
            cols = np.concatenate([cols, new])
            edges, column = _orbit_edges(cols, I, J, n, mirrors)
            lp = _subtour_lp(n, I[edges], J[edges], column, costs[edges], reps, subsets)
        order = np.argsort(edges)  # separate on the LP's edges, in edge_endpoints order
        x = EdgeValueMap(n, I[edges[order]], J[edges[order]], sol.values[column[order]],
                         sol.objective_value)
        violated = _shrunk_violated_sets(x)
        if not violated:
            values = np.zeros(len(I))
            values[edges] = sol.values[column]
            return EdgeValueMap(n, I, J, values, sol.objective_value), records
        found = len(subsets)
        for S, cut_value in violated:
            S = _least_image(S, mirrors)
            if S not in subsets:
                subsets.append(S)
                lp.ineq_rows.append(_subset_row(S, I[edges], J[edges], column, n))
                records.append(CutRecord(subset=S, violation=2.0 - cut_value))
        if len(subsets) == found:
            # a subset whose row is already present cannot stay violated beyond
            # the LP tolerance, so this is a numerical stall, not convergence
            raise SubtourSolveError(
                f"separation keeps returning already-added cuts ({len(violated)} duplicates)")
    raise CutRoundLimitError(
        f"no cut-free solution after {CUT_ROUND_FACTOR * n} rounds "
        f"({len(records)} cuts added)")


# -- the half-integral witness -------------------------------------------------

def build_half_integral(inst: Instance) -> EdgeValueMap:
    """The explicit LP-feasible point for G(n, d) with objective
    3n - 4 + 3d + sqrt(d^2 + 1).

    Value-1 edges: consecutive pairs along the top and bottom rows, the
    middle row minus its two end gaps, and the two verticals joining the
    top row to the middle end points.  Value-1/2 edges: at each end, the
    triangle formed by the middle end point, its middle neighbour, and
    the bottom corner.  Degrees are 2 everywhere and every cut is >= 2.
    """
    if not isinstance(inst, Instance) or inst != generate(inst.spec):
        raise DomainError("not a generated G(n, d) instance")
    n = inst.spec.n
    if n < 3:
        raise DomainError(f"the half-integral construction needs n >= 3, got {n}")

    bot = lambda x: inst.index_of(x, 1)
    mid = lambda x: inst.index_of(x, 2)
    top = lambda x: inst.index_of(x, 3)

    support: list[tuple[int, int, float]] = []

    def put(a: int, b: int, v: float) -> None:
        support.append((min(a, b), max(a, b), v))

    for x in range(1, n):
        put(top(x), top(x + 1), 1.0)
        put(bot(x), bot(x + 1), 1.0)
    for x in range(2, n - 1):
        put(mid(x), mid(x + 1), 1.0)
    put(mid(1), top(1), 1.0)
    put(mid(n), top(n), 1.0)
    for end, nbr in ((1, 2), (n, n - 1)):
        put(mid(end), bot(end), 0.5)
        put(mid(nbr), bot(end), 0.5)
        put(mid(end), mid(nbr), 0.5)

    objective = sum(v * lp_distance(inst.points[i], inst.points[j], inst.spec.p)
                    for i, j, v in support)
    I, J, values = (np.array(col) for col in zip(*sorted(support)))
    return EdgeValueMap(inst.n_points, I, J, values, objective)


def grid_tour_length(n: int, d: float) -> float:
    """Length of an explicit tour of G(n, d) along the 3 x n grid.

    Even n: the bottom row, then a column-by-column zigzag through the
    middle and top rows: 2n - 2 unit edges and n + 2 rungs of length d.
    Odd n has no all-grid tour, so the zigzag stops at column 2 and one
    diagonal of length sqrt(d^2 + 1) closes it: 2n - 3 unit edges, n + 2
    rungs.  Every tour bounds the subtour LP from above.
    """
    if n % 2 == 0:
        return 2.0 * n - 2.0 + (n + 2) * d
    return 2.0 * n - 3.0 + (n + 2) * d + math.hypot(d, 1.0)


def closed_form_lp_value(n: int, d: float) -> float:
    """Closed-form subtour-LP optimum 3n - 4 + 3d + sqrt(d^2 + 1) for G(n, d),
    the value of the half-integral witness.

    Returned only where no grid tour undercuts it (see
    :func:`grid_tour_length`): for odd n when d >= 1, for even n when
    (n - 1)(d - 1) >= sqrt(d^2 + 1) - 1, i.e. d >= d*(n) with d*(4) ~ 1.183,
    d*(6) ~ 1.097, d*(10) = 1.05 and d*(n) -> 1.  Below that the tour is
    shorter than the form, so the form is not the LP optimum, and
    DomainError is raised, as it is where the value overflows.  Optimality
    inside the returned region rests on cutting-plane solves, not on a
    proof.
    """
    if n < 3:
        raise DomainError(f"closed form needs n >= 3, got {n}")
    if not d > 0:
        raise DomainError(f"d must be positive, got {d!r}")
    value = 3.0 * n - 4.0 + 3.0 * d + math.hypot(d, 1.0)
    if not math.isfinite(value):
        raise DomainError(f"closed LP form overflows at n={n} d={d:g}")
    tour = grid_tour_length(n, d)
    if tour < value:
        raise DomainError(f"closed LP form {value:.12g} does not hold at n={n} d={d:g}: "
                          f"a grid tour of length {tour:.12g} is shorter")
    return value
