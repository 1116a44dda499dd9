import math

import numpy as np
import pytest

from gaplab.exact import brute_force, held_karp, tour_length
from gaplab.instances import DomainError, pairwise_distances

from conftest import EQUILATERAL, UNIT_SQUARE, gline_instance


def test_unit_square():
    tour = held_karp(UNIT_SQUARE)
    assert tour.length == pytest.approx(4.0)
    assert sorted(tour.order) == [0, 1, 2, 3]


def test_triangle_perimeter():
    assert held_karp(EQUILATERAL).length == pytest.approx(3.0)
    assert brute_force(EQUILATERAL).length == pytest.approx(3.0)


def test_degenerate_inputs_rejected():
    two = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DomainError):
        held_karp(two)
    with pytest.raises(DomainError):
        brute_force(two)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("solver", [held_karp, brute_force])
def test_non_finite_coordinates_rejected(solver, bad):
    # unchecked, held_karp returned a NaN length here, or with inf or on
    # another point never returned from its walk-back
    pts = np.random.default_rng(0).uniform(0, 10, (7, 2))
    pts[0, 0] = bad
    with pytest.raises(DomainError, match="^point coordinates must be finite$"):
        solver(pts)


def test_size_caps():
    pts = np.random.default_rng(0).uniform(0, 1, size=(11, 2))
    with pytest.raises(DomainError, match="^11 points exceeds the enumeration cap of 10$"):
        brute_force(pts)
    with pytest.raises(DomainError, match="^21 points exceeds the DP cap of 20$"):
        held_karp(np.random.default_rng(21).uniform(0, 10, (21, 2)))


def test_brute_force_matches_held_karp(rng):
    for _ in range(25):
        n = int(rng.integers(4, 10))
        pts = rng.uniform(0.0, 10.0, size=(n, 2))
        bf = brute_force(pts)
        hk = held_karp(pts)
        assert bf.length == pytest.approx(hk.length, abs=1e-9)


def test_brute_force_boundary_size(rng):
    pts = rng.uniform(0.0, 10.0, size=(10, 2))
    assert brute_force(pts).length == pytest.approx(held_karp(pts).length, abs=1e-9)


def test_tour_is_a_permutation(rng):
    pts = rng.uniform(0.0, 10.0, size=(8, 2))
    tour = held_karp(pts)
    assert sorted(tour.order) == list(range(8))
    dist = pairwise_distances(pts)
    assert tour_length(dist, tour.order) == pytest.approx(tour.length, abs=1e-9)


def test_length_invariant_under_rotation_and_reflection(rng):
    pts = rng.uniform(0.0, 10.0, size=(7, 2))
    dist = pairwise_distances(pts)
    order = list(held_karp(pts).order)
    base = tour_length(dist, order)
    for k in range(len(order)):
        rotated = order[k:] + order[:k]
        assert tour_length(dist, rotated) == pytest.approx(base, abs=1e-9)
        assert tour_length(dist, rotated[::-1]) == pytest.approx(base, abs=1e-9)


def test_deterministic_reconstruction(rng):
    pts = rng.uniform(0.0, 10.0, size=(8, 2))
    a = held_karp(pts)
    b = held_karp(pts)
    assert a == b
    assert a.order[0] == 0
    assert a.order[1] <= a.order[-1]


@pytest.mark.parametrize("points, order, length", [
    # unit grids: many optimal tours, so these pin which one the ties select
    (gline_instance(4, 1.0), (0, 1, 2, 3, 7, 11, 10, 6, 5, 9, 8, 4), 12.0),
    (gline_instance(6, 1.0), (0, 1, 2, 3, 4, 5, 11, 17, 16, 10, 9, 15, 14, 8, 7, 13, 12, 6), 18.0),
    (np.random.default_rng(9).uniform(0, 10, (9, 2)), (0, 5, 4, 6, 8, 1, 2, 3, 7), 30.74203719598125),
    (np.random.default_rng(18).uniform(0, 10, (18, 2)),
     (0, 16, 15, 5, 10, 1, 4, 11, 7, 12, 2, 6, 8, 9, 3, 14, 13, 17), 36.17120753496651),
    (np.random.default_rng(19).uniform(0, 10, (19, 2)),
     (0, 4, 16, 2, 14, 6, 8, 10, 1, 15, 5, 11, 3, 12, 7, 17, 18, 9, 13), 34.855405859899854),
    # the default cap
    (np.random.default_rng(20).uniform(0, 10, (20, 2)),
     (0, 13, 9, 6, 2, 11, 8, 14, 18, 19, 5, 4, 12, 17, 10, 16, 3, 7, 1, 15), 36.51113014543465),
])
def test_held_karp_returns_the_pinned_optimal_order(points, order, length):
    tour = held_karp(points)
    assert tour.order == order
    assert tour.length == length


def test_held_karp_convex_polygon_at_the_cap():
    # 20 points in convex position, the DP's fixed cap: the only optimal
    # tour is the hull order
    angle = 2 * np.pi * np.arange(20) / 20
    radius = 5 + 0.01 * np.arange(20)
    ring = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    edges = np.roll(ring, -1, axis=0) - ring
    turn = np.roll(edges, -1, axis=0)
    assert (edges[:, 0] * turn[:, 1] - edges[:, 1] * turn[:, 0] > 0).all()  # strictly convex
    perm = np.random.default_rng(0).permutation(20)  # ring[perm[k]] is input point k
    tour = held_karp(ring[perm])
    cycle = [int(perm[v]) for v in tour.order]
    k = cycle.index(0)
    cycle = cycle[k:] + cycle[:k]
    assert cycle in (list(range(20)), [0] + list(range(19, 0, -1)))
    assert tour.length == pytest.approx(np.hypot(*edges.T).sum(), rel=0, abs=1e-9)


def test_gline_oracle_equivalence_small():
    # cross-module ground truth; the z-vector side is checked in test_gline
    inst = gline_instance(4, 4.0)
    assert held_karp(inst).length == pytest.approx(16 + 2 * math.sqrt(17), abs=1e-9)
