"""Optimal-tour structure for G(n, d): insertion costs, z-tours, closed forms.

For d >= 4 an optimal tour of G(n, d) covers the lower two rows by a
sequence of alternately oriented z-shaped paths, joined by unit edges and
closed through the top row with two vertical edges.  Such a tour is
described by its z-vector (z_1, ..., z_k): the number of middle-row
points each z-path covers, with sum(z_i) = n.  A z-path over i points
costs

    c(i) = 2(i - 1) + sqrt((i - 1)^2 + d^2),

and for even k the whole tour costs n + k + 2d - 2 + sum c(z_i).  Odd k
only closes up for k = 1, where the tour instead threads the whole inner
row between one middle end point and the opposite bottom corner, at cost
3n + 3d - 4 + sqrt((n - 2)^2 + d^2).

The optimal z-vector is balanced (entries floor(n/k) or ceil(n/k), by
convexity of c), so only its length k is searched.  The balanced length
n + k + 2d - 2 + k c^(n/k), with c^ the piecewise-linear interpolant of c,
is convex in k, being the perspective of a convex function.
``optimal_zvector`` therefore evaluates a window of even k that grows until
both its edges rise outward by more than a stated rounding margin, which
certifies the window holds the minimum of all even k, and compares that
minimum with k = 1.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .exact import Tour, tour_length
from .instances import DomainError, Instance, generate

MIN_ROW_GAP = 4.0  # the exact cost formulas require d >= 4


def _require_min_gap(d: float) -> None:
    if not d >= MIN_ROW_GAP:
        raise DomainError(f"row spacing d must be >= {MIN_ROW_GAP:g}, got {d!r}")


@dataclass(frozen=True)
class ZVector:
    """Middle-row point counts of consecutive z-paths; all entries >= 1."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 1 or any(z < 1 or z != int(z) for z in self.entries):
            raise DomainError(f"z-vector needs positive integer entries, got {self.entries!r}")

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> int:
        return int(sum(self.entries))


@dataclass(frozen=True)
class ZTour:
    """A realized z-structured tour: vector, formula length, explicit tour."""

    zvec: ZVector
    length: float
    tour: Tour

    def to_json(self) -> str:
        return json.dumps({"z": list(self.zvec.entries), "length": self.length,
                           "order": list(self.tour.order)}) + "\n"


def c_cost(i: int, d: float) -> float:
    """Length 2(i-1) + sqrt((i-1)^2 + d^2) of a z-path over i middle points."""
    if i < 1 or i != int(i):
        raise DomainError(f"z-path size must be a positive integer, got {i!r}")
    if not d > 0:
        raise DomainError(f"d must be positive, got {d!r}")
    return 2.0 * (i - 1) + math.hypot(i - 1, d)


def insertion_cost_inner(k: int, d: float, parity_exact: bool = True) -> float:
    """Cost of inserting a k-point inner segment between adjacent bottom points.

    With parity_exact the value is exact and splits on the parity of k:

        k even:  k - 2 + sqrt((k - 2)^2 + 4 d^2)
        k odd:   k - 2 + (sqrt((k - 1)^2 + 4 d^2) + sqrt((k - 3)^2 + 4 d^2)) / 2

    otherwise the cruder bound k - 2 + max(2d, k - 2) is returned.
    Valid for segments not touching either end of the inner row; d >= 4.
    """
    if k < 1 or k != int(k):
        raise DomainError(f"segment size must be a positive integer, got {k!r}")
    _require_min_gap(d)
    if not parity_exact:
        return k - 2 + max(2.0 * d, float(k - 2))
    if k % 2 == 0:
        return k - 2 + math.hypot(k - 2, 2.0 * d)
    return k - 2 + 0.5 * (math.hypot(k - 1, 2.0 * d) + math.hypot(k - 3, 2.0 * d))


def insertion_cost_end(k: int, d: float) -> float:
    """Exact cost k - d + sqrt(k^2 + d^2) of inserting a k-point segment that
    contains an end of the inner row (hooked to the middle end point).

    For d >= 4 this never exceeds the interior cost of the same segment;
    violation of that dominance would indicate a broken formula, so it is
    checked on every call.
    """
    if k < 1 or k != int(k):
        raise DomainError(f"segment size must be a positive integer, got {k!r}")
    _require_min_gap(d)
    value = k - d + math.hypot(k, d)
    if value > k - 2 + math.hypot(k - 2, 2.0 * d) + 1e-12:
        raise RuntimeError(f"end-insertion dominance violated at k={k}, d={d}")
    return value


def sqrt_inequality_check(a: float, b: float, c: float) -> bool:
    """Whether a + sqrt(b^2 + c) >= sqrt((a + b)^2 + c), up to 1e-12 slack.

    Holds for all nonnegative a, b, c; exposed as a property-test utility.
    """
    if a < 0 or b < 0 or c < 0:
        raise DomainError(f"inputs must be nonnegative, got ({a}, {b}, {c})")
    return a + math.sqrt(b * b + c) >= math.sqrt((a + b) ** 2 + c) - 1e-12


def _check_gline(inst: Instance) -> tuple[int, float]:
    if not isinstance(inst, Instance) or inst != generate(inst.spec):
        raise DomainError("not a generated G(n, d) instance")
    return inst.spec.n, float(inst.spec.d)


def zvector_tour_value(n: int, k: int, d: float, sum_c: float) -> float:
    """Formula length of the z-structured tour: valid for even k and k = 1."""
    if k == 1:
        return 3.0 * n + 3.0 * d - 4.0 + math.hypot(n - 2, d)
    if k % 2:
        raise DomainError(f"no closed z-structure exists for odd k = {k} > 1")
    return n + k + 2.0 * d - 2.0 + sum_c


def tour_from_zvector(inst: Instance, z: ZVector) -> ZTour:
    """Materialize the explicit tour realizing a z-vector on G(n, d).

    Even-length vectors alternate z-path orientation along the lower two
    rows; the formula length n + k + 2d - 2 + sum c(z_i) is exact.  A
    length-1 vector threads the whole inner row from one middle end and
    drops diagonally to the far bottom corner.  Odd lengths above 1 admit
    no closed z-structure and are rejected.
    """
    n, d = _check_gline(inst)
    k = z.k
    if z.total != n:
        raise DomainError(f"z-vector sums to {z.total}, expected n = {n}")
    if k > 1 and k % 2:
        raise DomainError(f"no closed z-structure exists for odd k = {k} > 1")

    bot = lambda x: inst.index_of(x, 1)
    mid = lambda x: inst.index_of(x, 2)
    top = lambda x: inst.index_of(x, 3)

    order: list[int] = []
    if k == 1:
        order += [mid(x) for x in range(1, n)]          # middle row up to g_{n-2}
        order += [bot(x) for x in range(1, n + 1)]      # diagonal drop, then bottom row
        order += [mid(n), top(n)]                       # climb the right side
        order += [top(x) for x in range(n - 1, 0, -1)]  # top row back to the start
        formula = zvector_tour_value(n, 1, d, 0.0)
    else:
        start = 1
        for j, zj in enumerate(z.entries):
            stop = start + zj - 1
            mids = [mid(x) for x in range(start, stop + 1)]
            bots = [bot(x) for x in range(start, stop + 1)]
            # alternate orientation: even j enters on the middle row and exits
            # on the bottom row via the diagonal, odd j the other way round
            order += mids + bots if j % 2 == 0 else bots + mids
            start = stop + 1
        order += [top(x) for x in range(n, 0, -1)]
        formula = zvector_tour_value(n, k, d, sum(c_cost(zj, d) for zj in z.entries))

    dist = inst.distance_matrix()
    explicit = tour_length(dist, order)
    tour = Tour(order=tuple(order), length=explicit)
    return ZTour(zvec=z, length=formula, tour=tour)


def balanced_zvector(n: int, k: int) -> ZVector:
    """The k-entry z-vector with entries floor(n/k) or ceil(n/k), ceilings last."""
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    q, r = divmod(n, k)
    return ZVector(entries=tuple([q] * (k - r) + [q + 1] * r))


def _even_k_values(n: int, d: float, ks: np.ndarray) -> np.ndarray:
    """Formula lengths V(k) of the balanced z-vectors with the even lengths ks."""
    q, r = n // ks, n % ks
    sum_c = (ks - r) * (2.0 * (q - 1) + np.hypot(q - 1, d)) \
        + r * (2.0 * q + np.hypot(q, d))
    return n + ks + 2.0 * d - 2.0 + sum_c


# Relative float-rounding margin of the windowed search in optimal_zvector.
# Each computed V(k) is formed with at most ten roundings of relative size
# u = 2^-53 (hypot included), and every partial sum lies below V(k) + 2, so
# the computed value is within rho = 2^-49 of the exact one, relatively.  If
# the window's edge values differ by D > margin * fl(V(edge)), the exact
# edge slope is at least D - 2 rho V(edge), and by convexity every k beyond
# the edge has exact V(k) >= V(edge) + that slope; its computed value then
# exceeds the computed edge value once D > 4 rho V(edge) (to first order in
# rho).  The margin 2^-44 = 32 rho leaves a factor 8 over that.  Two such
# nearby positive values subtract exactly (Sterbenz), so D carries no error.
_SLOPE_MARGIN = 2.0 ** -44


def optimal_zvector(n: int, d: float) -> tuple[int, float]:
    """Length k and formula length of the minimum-length z-vector for G(n, d).

    The vector itself is ``balanced_zvector(n, k)``: balanced entries are
    optimal for each length by convexity of c.  Returns the same k and the
    bit-identical value of a full argmin over the balanced even k = 2..n
    (ties to the smaller k) followed by the comparison with k = 1, found
    without evaluating every k.  The balanced length
    V(k) = n + k + 2d - 2 + k c^(n/k), with c^ the piecewise-linear
    interpolant of the convex c, is convex in k: k c^(n/k) is the
    perspective of c^.  So a window of even k that contains the minimum
    and whose edge values both rise outward by more than the rounding
    margin ``_SLOPE_MARGIN`` certifies that no k outside it computes a
    value as small.  The window starts around k = n / q*, where
    q* = (d^2 + 1)/2 minimises (c(q) + 1)/q over real q, and doubles until
    both edges are certified or it covers 2..n; the start only affects the
    speed.  Requires n even >= 4, d >= 4.
    """
    if n % 2 or n < 4:
        raise DomainError(f"n must be even and >= 4, got {n}")
    _require_min_gap(d)
    last = n // 2  # even k = 2j for j = 1..last
    q_star = (d * d + 1.0) / 2.0
    centre = min(max(round(n / (2.0 * q_star)), 1), last)
    # V is linear in k while n // k stays put, kinked at k = n/q; start one
    # kink spacing (about n/q*^2 in k) to each side, which usually certifies
    half = math.ceil(n / (2.0 * q_star * q_star)) + 2
    while True:
        lo, hi = max(centre - half, 1), min(centre + half, last)
        ks = 2 * np.arange(lo, hi + 1)
        vals = _even_k_values(n, d, ks)
        left_ok = lo == 1 or vals[0] - vals[1] > _SLOPE_MARGIN * vals[0]
        right_ok = hi == last or vals[-1] - vals[-2] > _SLOPE_MARGIN * vals[-1]
        if left_ok and right_ok:
            break
        half *= 2
    i = int(np.argmin(vals))
    v1 = zvector_tour_value(n, 1, d, 0.0)
    if v1 <= vals[i]:
        return 1, v1
    return int(ks[i]), float(vals[i])


def f_value(k: float, d: float, n: float) -> float:
    """Relaxed tour length 3n - 2k + 2d - 2 + sqrt((n - 2k)^2 + 4 d^2 k^2) of a
    balanced z-vector of length 2k; k may be fractional for analysis."""
    return float(f_values(k, d, n))


def f_values(ks: np.ndarray, d: float, n: float) -> np.ndarray:
    """:func:`f_value` at every k in ``ks``."""
    ks = np.asarray(ks, dtype=float)
    return 3.0 * n - 2.0 * ks + 2.0 * d - 2.0 + np.sqrt((n - 2.0 * ks) ** 2 + 4.0 * d * d * ks * ks)


def tour_lower_bound(n: int, d: float) -> float:
    """Lower bound 4n + 2d - 2 - 2n/(d + 1) on any tour of G(n, d), d >= 4."""
    _require_min_gap(d)
    return 4.0 * n + 2.0 * d - 2.0 - 2.0 * n / (d + 1.0)


def closed_form_tour_value(n: int) -> float:
    """Optimal tour length 4n - 4 + 2 sqrt(n - 1) of G(n, sqrt(n - 1)) for
    even n >= 18 (the first even size with sqrt(n - 1) >= 4)."""
    if n % 2 or n < 18:
        raise DomainError(f"closed form needs even n >= 18, got {n}")
    return 4.0 * n - 4.0 + 2.0 * math.sqrt(n - 1.0)
