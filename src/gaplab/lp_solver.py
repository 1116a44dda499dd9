"""Sparse bounded-variable linear programming via revised simplex.

Self-contained two-phase solver for the LPs produced by the cutting-plane
engine.  Rows are sparse: each is a (column indices, values, rhs) triple,
and the structural part of the constraint matrix is stored by columns
(compressed sparse column arrays), so pricing, the entering column and
matrix-vector products cost O(nonzeros) rather than O(rows x columns).
Only the basis matrix and its inverse are dense (rows x rows).

Every row (equality or <=) receives an internal slack column; the slacks
form an identity block that is never stored.  Equality slacks are fixed
at zero, so the all-slack basis always exists and phase 1 reduces to
driving the bound violations of the working basis to zero.  This uniform
treatment makes warm starts after appending rows trivial: reuse the
previous basis plus the new slacks and let phase 1 repair the (few)
violated rows.

Tolerances below are the single source of truth; the subtour module
imports them rather than restating values.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

FEASIBILITY_TOL = 1e-7    # bound / constraint satisfaction
REDUCED_COST_TOL = 1e-7   # dual sign certificate at optimality
PIVOT_TOL = 1e-10         # smallest pivot magnitude accepted in the ratio test
BLAND_AFTER = 5000        # pivot count after which Bland's rule takes over
REFRESH_EVERY = 120       # pivots between basis-inverse refactorizations


class LpStatus(Enum):
    OPTIMAL = "OPTIMAL"
    INFEASIBLE = "INFEASIBLE"
    UNBOUNDED = "UNBOUNDED"


class LpDimensionError(ValueError):
    """Row, bound vector or basis inconsistent with the variable count."""


class LpIterationLimit(RuntimeError):
    """Pivot budget exhausted before reaching a verdict.

    Deliberately distinct from an INFEASIBLE status: the LP may well be
    solvable, the solver just gave up.
    """

    def __init__(self, phase: int, pivots: int):
        super().__init__(f"simplex iteration limit reached in phase {phase} after {pivots} pivots")
        self.phase = phase
        self.pivots = pivots


@dataclass
class SparseLp:
    """minimize objective . x  subject to eq_rows, ineq_rows (<=), and bounds.

    Each row is a (cols, vals, rhs) triple: the row's coefficient on
    variable cols[k] is vals[k], every other coefficient is zero, and
    repeated indices add.  var_bounds are per-variable (lower, upper) with
    0 <= lower <= upper, both finite: a sequence of pairs or an
    (n_vars, 2) array.
    """

    objective: np.ndarray
    eq_rows: list[tuple[np.ndarray, np.ndarray, float]] = field(default_factory=list)
    ineq_rows: list[tuple[np.ndarray, np.ndarray, float]] = field(default_factory=list)
    var_bounds: list[tuple[float, float]] | np.ndarray = field(default_factory=list)

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    def validate(self) -> np.ndarray:
        """Raise LpDimensionError unless rows and bounds fit the variable
        count; return the bounds as an (n_vars, 2) float array."""
        nv = self.n_vars
        if len(self.var_bounds) != nv:
            raise LpDimensionError(f"{len(self.var_bounds)} bounds for {nv} variables")
        nonempty = []
        for cols, vals, _rhs in list(self.eq_rows) + list(self.ineq_rows):
            if len(cols) != len(vals):
                raise LpDimensionError(f"row with {len(cols)} column indices and {len(vals)} values")
            if len(cols):
                nonempty.append(np.asarray(cols))
        if nonempty:
            cols = np.concatenate(nonempty)
            if not (cols.dtype.kind in "iu" and 0 <= cols.min() and cols.max() < nv):
                raise LpDimensionError(f"row column indices must be integers in [0, {nv})")
        try:
            bounds = np.asarray(self.var_bounds, dtype=float)
        except ValueError:  # ragged or non-numeric
            bounds = None
        if bounds is None or bounds.shape != (nv, 2):
            raise LpDimensionError("bounds must be (lo, hi) pairs of numbers")
        lo, hi = bounds[:, 0], bounds[:, 1]
        bad = ~(np.isfinite(lo) & np.isfinite(hi) & (0 <= lo) & (lo <= hi))
        if bad.any():
            lo, hi = self.var_bounds[int(np.argmax(bad))]
            raise LpDimensionError(f"invalid bounds ({lo}, {hi}); need finite 0 <= lo <= hi")
        return bounds


@dataclass
class LpSolution:
    status: LpStatus
    values: np.ndarray        # structural variables (clipped into bounds)
    objective_value: float    # NaN unless OPTIMAL
    basis: np.ndarray         # internal column indices, reusable as a warm start
    at_upper: np.ndarray      # nonbasic-at-upper flags over internal columns
    pivots: int


_BOUND_FLIP = -1


class _Simplex:
    """Working state: columns are [structural | one slack per row].

    The structural block A is held as compressed sparse columns: the
    nonzeros of column j are rowind[indptr[j]:indptr[j + 1]] with values
    data[...], and nzcol is the column of every nonzero.  The slack block
    is the identity and is never stored.
    """

    def __init__(self, c, indptr, rowind, data, b, lb, ub, nv):
        self.c = c
        self.indptr = indptr
        self.rowind = rowind
        self.data = data
        self.nzcol = np.repeat(np.arange(nv), np.diff(indptr))
        self.b = b
        self.lb = lb
        self.ub = ub
        self.nv = nv
        self.m = len(b)
        self.ncols = nv + self.m
        self.pivots = 0
        # fixed columns (lb == ub, i.e. equality slacks) never enter the basis
        self.fixed = ub - lb <= 0

    def load_basis(self, basis: np.ndarray, at_upper: np.ndarray | None = None):
        self.basis = np.array(basis, dtype=int)
        if len(self.basis) != self.m:
            raise LpDimensionError(f"basis of size {len(self.basis)} for {self.m} rows")
        self.at_upper = np.zeros(self.ncols, dtype=bool)
        if at_upper is not None:
            self.at_upper[: len(at_upper)] = at_upper
        self.at_upper[~np.isfinite(self.ub)] = False
        self.is_basic = np.zeros(self.ncols, dtype=bool)
        self.is_basic[self.basis] = True
        self.refactor()

    # -- sparse kernels over [A | I] ------------------------------------------

    def price(self, y: np.ndarray) -> np.ndarray:
        """y @ [A | I]."""
        yA = np.bincount(self.nzcol, weights=y[self.rowind] * self.data, minlength=self.nv)
        return np.concatenate([yA, y])

    def times(self, x: np.ndarray) -> np.ndarray:
        """[A | I] @ x."""
        Ax = np.bincount(self.rowind, weights=self.data * x[self.nzcol], minlength=self.m)
        return Ax + x[self.nv:]

    def entering_column(self, q: int) -> np.ndarray:
        """Binv @ [A | I][:, q].

        A structural column is scattered from its sparse slice into a
        length-m vector first: a product over the full column sums in the
        order of a dense matrix-vector product, and the Dantzig tie-breaks
        follow that rounding (a dot product over the nonzeros alone picks
        different pivots on some inputs).
        """
        if q >= self.nv:
            return self.Binv[:, q - self.nv].copy()
        lo, hi = self.indptr[q], self.indptr[q + 1]
        column = np.bincount(self.rowind[lo:hi], weights=self.data[lo:hi], minlength=self.m)
        return self.Binv @ column

    def basis_matrix(self) -> np.ndarray:
        """[A | I][:, basis], scattered from the sparse columns in one pass."""
        m, nv = self.m, self.nv
        position = np.full(self.ncols, -1)
        position[self.basis] = np.arange(m)
        nzpos = position[self.nzcol]
        basic = nzpos >= 0
        B = np.bincount(self.rowind[basic] * m + nzpos[basic], weights=self.data[basic],
                        minlength=m * m).reshape(m, m)
        slack = np.flatnonzero(self.basis >= nv)
        B[self.basis[slack] - nv, slack] = 1.0
        return B

    def refactor(self):
        B = self.basis_matrix()
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise LpDimensionError("singular basis matrix") from exc
        self.recompute_xb()

    def recompute_xb(self):
        x = np.where(self.at_upper, self.ub, self.lb)
        x[self.basis] = 0.0
        self.xB = self.Binv @ (self.b - self.times(x))

    def nonbasic_value(self, j: int) -> float:
        return self.ub[j] if self.at_upper[j] else self.lb[j]

    def full_values(self) -> np.ndarray:
        x = np.where(self.at_upper, self.ub, self.lb)
        x[self.basis] = self.xB
        return x

    # -- pivoting -----------------------------------------------------------

    def _choose_entering(self, d: np.ndarray, rising: np.ndarray, falling: np.ndarray):
        """Dantzig rule on |d| among eligible columns; Bland after the cap."""
        eligible = (rising | falling) & ~self.is_basic & ~self.fixed
        idx = np.flatnonzero(eligible)
        if idx.size == 0:
            return None
        if self.pivots >= BLAND_AFTER:
            q = int(idx[0])
        else:
            q = int(idx[np.argmax(np.abs(d[idx]))])
        sigma = 1 if rising[q] else -1
        return q, sigma

    def _ratio_test(self, u: np.ndarray, sigma: int, q: int, phase1: bool):
        """First blocking event moving the entering column by t*sigma, t >= 0.

        Basics move along delta = -sigma*u.  In phase 1 an out-of-bounds
        basic blocks when it reaches its violated bound (turning feasible);
        feasible basics always block at the bound they approach.  Returns
        (t, row, leave_at_upper); row == _BOUND_FLIP flips the entering
        variable to its other bound.
        """
        delta = -sigma * u
        xB = self.xB
        lbB = self.lb[self.basis]
        ubB = self.ub[self.basis]
        t = np.full(self.m, np.inf)
        leave_upper = np.zeros(self.m, dtype=bool)

        if phase1:
            below = xB < lbB - FEASIBILITY_TOL
            above = xB > ubB + FEASIBILITY_TOL
        else:
            below = above = np.zeros(self.m, dtype=bool)
        feas = ~(below | above)

        dn = delta < -PIVOT_TOL
        up = delta > PIVOT_TOL

        sel = feas & dn
        t[sel] = (xB[sel] - lbB[sel]) / -delta[sel]
        sel = feas & up & np.isfinite(ubB)
        t[sel] = (ubB[sel] - xB[sel]) / delta[sel]
        leave_upper[sel] = True
        sel = below & up
        t[sel] = (lbB[sel] - xB[sel]) / delta[sel]
        sel = above & dn
        t[sel] = (xB[sel] - ubB[sel]) / -delta[sel]
        leave_upper[sel] = True

        np.maximum(t, 0.0, out=t)  # tolerance-sized overshoots pivot degenerately

        t_flip = self.ub[q] - self.lb[q] if np.isfinite(self.ub[q]) else np.inf
        t_min = min(float(np.min(t, initial=np.inf)), t_flip)
        if not np.isfinite(t_min):
            return np.inf, _BOUND_FLIP, False
        if t_flip <= t_min:
            return t_flip, _BOUND_FLIP, False
        # ties break toward the lowest basic variable index (deterministic runs)
        rows = np.flatnonzero(t <= t_min)
        r = int(rows[np.argmin(self.basis[rows])])
        return float(t[r]), r, bool(leave_upper[r])

    def _apply_pivot(self, q: int, sigma: int, t: float, r: int, leave_at_upper: bool,
                     u: np.ndarray):
        enter_val = self.nonbasic_value(q) + sigma * t
        self.xB += t * (-sigma) * u
        if r == _BOUND_FLIP:
            self.at_upper[q] = not self.at_upper[q]
            return
        leaving = self.basis[r]
        self.is_basic[leaving] = False
        self.at_upper[leaving] = leave_at_upper and np.isfinite(self.ub[leaving])
        self.basis[r] = q
        self.is_basic[q] = True
        self.xB[r] = enter_val
        ur = u[r]
        if abs(ur) < PIVOT_TOL:
            self.refactor()
            return
        # product-form update of the inverse
        row_r = self.Binv[r] / ur
        self.Binv -= np.outer(u, row_r)
        self.Binv[r] = row_r
        self.pivots += 1
        if self.pivots % REFRESH_EVERY == 0:
            self.refactor()

    # -- phases ---------------------------------------------------------------

    def infeasibility_signs(self) -> np.ndarray:
        lbB = self.lb[self.basis]
        ubB = self.ub[self.basis]
        w = np.zeros(self.m)
        w[self.xB > ubB + FEASIBILITY_TOL] = 1.0
        w[self.xB < lbB - FEASIBILITY_TOL] = -1.0
        return w

    def phase1(self, max_pivots: int) -> bool:
        """Drive bound violations of the basics to zero.  False = infeasible."""
        stall = 0
        while True:
            w = self.infeasibility_signs()
            if not w.any():
                return True
            if self.pivots > max_pivots:
                raise LpIterationLimit(1, self.pivots)
            y = w @ self.Binv
            d = self.price(y)
            rising = ~self.at_upper & (d > REDUCED_COST_TOL)
            falling = self.at_upper & (d < -REDUCED_COST_TOL)
            choice = self._choose_entering(d, rising, falling)
            if choice is None:
                return False
            q, sigma = choice
            u = self.entering_column(q)
            t, r, leave_up = self._ratio_test(u, sigma, q, phase1=True)
            if not np.isfinite(t):
                # cannot happen in exact arithmetic while infeasible; re-anchor
                stall += 1
                self.refactor()
                if stall > 3:
                    raise LpIterationLimit(1, self.pivots)
                continue
            stall = 0
            self._apply_pivot(q, sigma, t, r, leave_up, u)

    def phase2(self, max_pivots: int) -> LpStatus:
        while True:
            if self.pivots > max_pivots:
                raise LpIterationLimit(2, self.pivots)
            y = self.c[self.basis] @ self.Binv
            d = self.c - self.price(y)
            rising = ~self.at_upper & (d < -REDUCED_COST_TOL)
            falling = self.at_upper & (d > REDUCED_COST_TOL)
            choice = self._choose_entering(d, rising, falling)
            if choice is None:
                return LpStatus.OPTIMAL
            q, sigma = choice
            u = self.entering_column(q)
            t, r, leave_up = self._ratio_test(u, sigma, q, phase1=False)
            if not np.isfinite(t):
                return LpStatus.UNBOUNDED
            self._apply_pivot(q, sigma, t, r, leave_up, u)

    def residual(self) -> float:
        x = self.full_values()
        res = float(np.max(np.abs(self.times(x) - self.b))) if self.m else 0.0
        lo = float(np.max(self.lb - x, initial=0.0))
        hi = float(np.max((x - self.ub)[np.isfinite(self.ub)], initial=0.0))
        return max(res, lo, hi)


def _standardize(lp: SparseLp):
    bounds = lp.validate()
    nv = lp.n_vars
    rows = list(lp.eq_rows) + list(lp.ineq_rows)
    me, m = len(lp.eq_rows), len(rows)
    counts = np.array([len(cols) for cols, _vals, _rhs in rows], dtype=np.intp)
    # the leading empty arrays let an LP without rows through np.concatenate
    cols = np.concatenate([np.zeros(0, np.intp), *(c for c, _v, _r in rows)]).astype(np.intp)
    vals = np.concatenate([np.zeros(0), *(v for _c, v, _r in rows)]).astype(float)
    # column-major order; the stable sort keeps each column's rows ascending
    order = np.argsort(cols, kind="stable")
    rowind = np.repeat(np.arange(m), counts)[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=nv))])
    b = np.array([rhs for _c, _v, rhs in rows], dtype=float)
    lb = np.zeros(nv + m)
    ub = np.zeros(nv + m)
    lb[:nv] = bounds[:, 0]
    ub[:nv] = bounds[:, 1]
    ub[nv + me:] = np.inf  # inequality slacks; equality slacks stay fixed at 0
    c = np.zeros(nv + m)
    c[:nv] = np.asarray(lp.objective, dtype=float)
    return c, (indptr, rowind, vals[order]), b, lb, ub, nv, m


def solve(lp: SparseLp, start: tuple[np.ndarray, np.ndarray] | None = None,
          max_pivots: int | None = None) -> LpSolution:
    """Solve a SparseLp.  ``start`` is an optional (basis, at_upper) warm start
    as returned in a previous LpSolution; after appending rows, extend the
    basis with the new rows' slack columns.
    """
    c, (indptr, rowind, data), b, lb, ub, nv, m = _standardize(lp)
    ws = _Simplex(c, indptr, rowind, data, b, lb, ub, nv)
    if max_pivots is None:
        max_pivots = 2000 + 40 * (m + nv)
    if start is None:
        ws.load_basis(np.arange(nv, nv + m))
    else:
        ws.load_basis(np.asarray(start[0], dtype=int), np.asarray(start[1], dtype=bool))

    if not ws.phase1(max_pivots):
        return LpSolution(LpStatus.INFEASIBLE, ws.full_values()[:nv], float("nan"),
                          ws.basis.copy(), ws.at_upper.copy(), ws.pivots)
    status = ws.phase2(max_pivots)
    if status is LpStatus.OPTIMAL:
        # hygiene: refresh the factorization and re-verify; repair if drifted
        for _ in range(3):
            ws.refactor()
            if ws.residual() <= FEASIBILITY_TOL:
                break
            if not ws.phase1(max_pivots):
                return LpSolution(LpStatus.INFEASIBLE, ws.full_values()[:nv], float("nan"),
                                  ws.basis.copy(), ws.at_upper.copy(), ws.pivots)
            status = ws.phase2(max_pivots)

    values = ws.full_values()[:nv]
    if status is LpStatus.OPTIMAL:
        values = np.clip(values, lb[:nv], ub[:nv])
        obj = float(c[:nv] @ values)
    else:
        obj = float("nan")
    return LpSolution(status, values, obj, ws.basis.copy(), ws.at_upper.copy(), ws.pivots)
