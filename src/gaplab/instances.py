"""Generation, metrics, and serialization for the three-row grid family G(n, d).

G(n, d) consists of the 3n planar points (i, j*d) for i = 1..n and
j = 1, 2, 3.  The n - 2 interior points of the middle row,
g_i = (i + 1, 2d) for i = 1..n-2, are the only points that do not lie on
the boundary of the convex hull; every other point is a hull point.
Distances are L^p norms (p = 2 unless stated otherwise).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

INF = math.inf  # metric exponent sentinel for the L^inf norm


class DomainError(ValueError):
    """Parameter or precondition violation.  Maps to CLI exit code 2."""


class Role(str, Enum):
    INNER = "INNER"                    # g_1 .. g_{n-2}, middle row interior
    HULL_UPPER = "HULL_UPPER"          # top row
    HULL_MIDDLE_END = "HULL_MIDDLE_END"  # (1, 2d) and (n, 2d)
    HULL_LOWER = "HULL_LOWER"          # bottom row


def _finite_product(x: float, k) -> bool:
    """Whether the float x * k is finite; False where k is an int too large
    for a float."""
    try:
        return math.isfinite(x * k)
    except OverflowError:
        return False


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of a G(n, d) instance: points per row, row spacing, metric."""

    n: int
    d: float
    p: float = 2

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise DomainError(f"n must be an integer >= 2, got {self.n!r}")
        if not (isinstance(self.d, (int, float)) and not isinstance(self.d, bool)
                and self.d > 0 and _finite_product(3.0, self.d)):
            raise DomainError(f"d must be a positive real with 3d finite, got {self.d!r}")
        p = self.p
        if p != INF and not (isinstance(p, (int, float)) and not isinstance(p, bool)
                             and p >= 1 and p % 1 == 0):
            raise DomainError(f"p must be a positive integer or INF, got {p!r}")


@dataclass(frozen=True)
class Instance:
    """An immutable G(n, d) point set.

    Points are ordered row-major, bottom row (y = d) first, left to right,
    so index (row-1)*n + (col-1) holds the point (col, row*d).  This
    ordering is fixed; edge indices derived from it are stable across
    modules.
    """

    spec: InstanceSpec
    points: tuple[tuple[float, float], ...]
    roles: tuple[Role, ...]

    @property
    def n_points(self) -> int:
        return len(self.points)

    def index_of(self, col: int, row: int) -> int:
        """Index of the grid point (col, row*d); row 1 = bottom, 3 = top."""
        n = self.spec.n
        if not (1 <= col <= n and 1 <= row <= 3):
            raise DomainError(f"grid position (col={col}, row={row}) outside G({n}, ...)")
        return (row - 1) * n + (col - 1)

    def inner_indices(self) -> list[int]:
        return [i for i, r in enumerate(self.roles) if r is Role.INNER]

    def lower_boundary_indices(self) -> list[int]:
        """Hull points on the two lower rows: the bottom row plus the two
        middle-row end points (n + 2 points)."""
        return [i for i, r in enumerate(self.roles)
                if r in (Role.HULL_LOWER, Role.HULL_MIDDLE_END)]

    def coords(self) -> np.ndarray:
        return np.array(self.points, dtype=float)

    def distance_matrix(self) -> np.ndarray:
        return pairwise_distances(self.coords(), self.spec.p)


def generate(spec: InstanceSpec) -> Instance:
    """Build the G(n, d) point set for ``spec``.  Pure and deterministic."""
    n, d = spec.n, spec.d
    points: list[tuple[float, float]] = []
    roles: list[Role] = []
    for row in (1, 2, 3):
        for col in range(1, n + 1):
            points.append((float(col), row * float(d)))
            if row == 1:
                roles.append(Role.HULL_LOWER)
            elif row == 3:
                roles.append(Role.HULL_UPPER)
            elif col in (1, n):
                roles.append(Role.HULL_MIDDLE_END)
            else:
                roles.append(Role.INNER)
    return Instance(spec=spec, points=tuple(points), roles=tuple(roles))


def lp_distance(a, b, p: float = 2) -> float:
    """L^p distance of two planar points (p a positive integer, or INF)."""
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    if p == INF:
        return max(dx, dy)
    if p == 1:
        return dx + dy
    if p == 2:
        return math.hypot(dx, dy)
    return (dx ** p + dy ** p) ** (1.0 / p)


def pairwise_distances(coords: np.ndarray, p: float = 2) -> np.ndarray:
    """Dense symmetric distance matrix of a (N, 2) coordinate array."""
    coords = np.asarray(coords, dtype=float)
    diff = np.abs(coords[:, None, :] - coords[None, :, :])
    if p == INF:
        return diff.max(axis=2)
    if p == 1:
        return diff.sum(axis=2)
    if p == 2:
        return np.hypot(diff[..., 0], diff[..., 1])
    return (diff ** p).sum(axis=2) ** (1.0 / p)


def distance(inst: Instance, i: int, j: int) -> float:
    """L^p distance between points ``i`` and ``j`` of the instance."""
    npts = inst.n_points
    if not (0 <= i < npts and 0 <= j < npts):
        raise IndexError(f"point index out of range: ({i}, {j}) for {npts} points")
    return lp_distance(inst.points[i], inst.points[j], inst.spec.p)


def coerce_points(obj) -> tuple[np.ndarray, float]:
    """Accept an Instance or a raw (N, 2) coordinate array; return (coords, p).

    Raw arrays are treated as Euclidean point sets.  Several solvers
    (subtour LP, exact tours) accept either form; both must hold at least
    3 points, all with finite coordinates.
    """
    if isinstance(obj, Instance):
        coords, p = obj.coords(), obj.spec.p
    else:
        coords, p = np.asarray(obj, dtype=float), 2
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise DomainError(f"expected an Instance or an (N, 2) array, got shape {coords.shape}")
    if len(coords) < 3:
        raise DomainError(f"need at least 3 points, got {len(coords)}")
    if not np.isfinite(coords).all():
        raise DomainError("point coordinates must be finite")
    return coords, p


# -- serialization ----------------------------------------------------------

def to_json(inst: Instance) -> str:
    p = inst.spec.p
    doc = {
        "n": inst.spec.n,
        "d": inst.spec.d,
        "p": "inf" if p == INF else int(p),
        "points": [[x, y] for x, y in inst.points],
        "roles": [r.value for r in inst.roles],
    }
    return json.dumps(doc, indent=2) + "\n"


def from_json(text: str | bytes) -> Instance:
    """Parse an instance previously produced by :func:`to_json`.

    Malformed documents raise DomainError; the reconstructed instance is
    revalidated against its own spec.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
        n = doc["n"]
        d = doc["d"]
        p = INF if doc["p"] == "inf" else doc["p"]
        points = tuple((float(x), float(y)) for x, y in doc["points"])
        roles = tuple(Role(r) for r in doc["roles"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed instance document: {exc}") from exc
    inst = Instance(spec=InstanceSpec(n=n, d=d, p=p), points=points, roles=roles)
    if inst != generate(inst.spec):
        raise DomainError("instance document does not describe a G(n, d) point set")
    return inst


def to_tsplib(inst: Instance, scale: int = 1000) -> str:
    """Render the instance in TSPLIB format (TYPE TSP, EDGE_WEIGHT_TYPE EUC_2D).

    Coordinates are multiplied by ``scale`` and rounded to integers.  EUC_2D
    rounds every distance to the nearest integer, so the exported file only
    approximates G(n, d); larger scales approximate better.  Requires p = 2.
    """
    if inst.spec.p != 2:
        raise DomainError("TSPLIB EUC_2D export requires the Euclidean metric (p = 2)")
    if not isinstance(scale, int) or scale < 1:
        raise DomainError(f"scale must be a positive integer, got {scale!r}")
    if not _finite_product(max(inst.points[-1]), scale):  # the last point (n, 3d) is largest
        raise DomainError(f"scale={scale} makes a coordinate infinite")
    lines = [
        f"NAME : G_{inst.spec.n}_{inst.spec.d:g}",
        "TYPE : TSP",
        f"COMMENT : three-row grid, scale={scale}",
        f"DIMENSION : {inst.n_points}",
        "EDGE_WEIGHT_TYPE : EUC_2D",
        "NODE_COORD_SECTION",
    ]
    for k, (x, y) in enumerate(inst.points, start=1):
        lines.append(f"{k} {round(x * scale)} {round(y * scale)}")
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def export(inst: Instance, fmt: str = "json", scale: int = 1000) -> bytes:
    """Serialize to bytes in the requested format ("json" or "tsplib")."""
    if fmt == "json":
        return to_json(inst).encode("utf-8")
    if fmt == "tsplib":
        return to_tsplib(inst, scale=scale).encode("utf-8")
    raise DomainError(f"unknown export format {fmt!r}")
