"""Exact TSP oracles for small instances: bitmask DP and brute force.

Both solvers are deterministic: ties break toward the lowest vertex index
during reconstruction and the returned order is canonicalized (starts at
vertex 0, second vertex not larger than the last).  They exist to
ground-truth the structural tour machinery, so the two implementations
stay independent of each other and of everything else.  Their size caps,
HELD_KARP_CAP and BRUTE_FORCE_CAP, are fixed; nothing overrides them.

The DP keeps one float64 table of path costs per subset size, still
2^(N-1) * (N-1) floats in all (80 MB at the 20-point cap), plus a
2^(N-1) array that maps each subset to its column, and re-derives the
order from them.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .instances import DomainError, coerce_points, pairwise_distances

HELD_KARP_CAP = 20
BRUTE_FORCE_CAP = 10


@dataclass(frozen=True)
class Tour:
    """A closed tour: a permutation of point indices plus its length."""

    order: tuple[int, ...]
    length: float


def tour_length(dist: np.ndarray, order) -> float:
    order = np.asarray(order, dtype=int)
    return float(dist[order, np.roll(order, -1)].sum())


def _canonical(order: list[int]) -> tuple[int, ...]:
    k = order.index(0)
    order = order[k:] + order[:k]
    if len(order) > 2 and order[1] > order[-1]:
        order = [order[0]] + order[:0:-1]
    return tuple(order)


def held_karp(obj) -> Tour:
    """Optimal tour by dynamic programming over vertex subsets.

    Subsets of the same size share one table, filled from the table one
    size smaller.  Memory grows as 2^(N-1) * (N-1) floats, so N is capped
    at HELD_KARP_CAP (20, about 10M states).  Accepts an Instance or a raw
    (N, 2) array.
    """
    coords = coerce_points(obj)
    n = len(coords)
    if n > HELD_KARP_CAP:
        raise DomainError(f"{n} points exceeds the DP cap of {HELD_KARP_CAP}")
    dist = pairwise_distances(coords)

    m = n - 1  # vertices 1..n-1 on bits 0..m-1; vertex 0 is the fixed start
    full = 1 << m
    masks = np.arange(full, dtype=np.int64)
    by_size = [masks[np.bitwise_count(masks) == s] for s in range(m + 1)]
    rank = np.empty(full, dtype=np.int64)  # a mask's column in its layer's table
    for layer in by_size:
        rank[layer] = np.arange(len(layer))
    # table[s][j, rank[mask]]: shortest path from 0 through the s vertices of
    # mask, ending at j; inf where j is not in mask
    table = [np.full((m, len(layer)), np.inf) for layer in by_size]
    table[1][np.arange(m), rank[1 << np.arange(m)]] = dist[0, 1:]

    sub = dist[1:, 1:]
    for s in range(2, m + 1):
        layer, prev = by_size[s], table[s - 1]
        for j in range(m):
            sel = layer[(layer >> j) & 1 == 1]
            cols = rank[sel ^ (1 << j)]
            low = np.full(len(sel), np.inf)
            buf = np.empty_like(low)
            for i in range(m):
                if i != j:  # prev[j] is inf on every column: j is not in them
                    prev[i].take(cols, out=buf)
                    buf += sub[i, j]
                    np.minimum(low, buf, out=low)
            table[s][j, rank[sel]] = low

    closing = table[m][:, 0] + dist[1:, 0]
    j = int(np.argmin(closing))
    best = float(closing[j])

    # walk back: the predecessor of j is the argmin over the same sums the
    # fill took the minimum of, so ties again go to the lowest index
    order_rev = [j + 1]
    mask = full - 1
    while mask != 1 << j:
        mask ^= 1 << j
        j = int(np.argmin(table[mask.bit_count()][:, rank[mask]] + sub[:, j]))
        order_rev.append(j + 1)
    order = [0] + order_rev[::-1]
    return Tour(order=_canonical(order), length=best)


@functools.cache
def _perms(k: int) -> np.ndarray:
    return np.array(list(permutations(range(1, k + 1))), dtype=np.int8)


def brute_force(obj) -> Tour:
    """Optimal tour by enumerating all (N-1)! orders with vertex 0 fixed."""
    coords = coerce_points(obj)
    n = len(coords)
    if n > BRUTE_FORCE_CAP:
        raise DomainError(f"{n} points exceeds the enumeration cap of {BRUTE_FORCE_CAP}")
    dist = pairwise_distances(coords)

    perms = _perms(n - 1)
    lengths = dist[0, perms[:, 0]] + dist[perms[:, -1], 0]
    for k in range(n - 2):
        lengths = lengths + dist[perms[:, k], perms[:, k + 1]]
    i = int(np.argmin(lengths))  # first minimum = lexicographically smallest order
    order = [0] + [int(v) for v in perms[i]]
    return Tour(order=_canonical(order), length=float(lengths[i]))
