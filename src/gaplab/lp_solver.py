"""Sparse bounded-variable linear programming via revised simplex.

Self-contained solver for the LPs produced by the cutting-plane engine.
Rows are sparse: each is a (column indices, values, rhs) triple, and the
structural part of the constraint matrix is stored by columns
(compressed sparse column arrays), so pricing, the entering column and
matrix-vector products cost O(nonzeros) rather than O(rows x columns).
Only the basis matrix and its inverse are dense (rows x rows).

Every row (equality or <=) receives an internal slack column; the slacks
form an identity block that is never stored.  Equality slacks are fixed
at zero.  A cold solve starts from a triangular crash basis (Bixby,
"Implementing the simplex method: the initial basis", 1992): the
all-slack basis with cheap structural columns in place of equality
slacks, chosen so that the basis matrix is triangular up to a
permutation, which gives its inverse in closed form.  A warm start is
the LpSolution of the same LP before rows were appended to its row list
or variables to its objective: its basis is reused, the new rows' slacks
join it, and the new variables enter nonbasic at their lower bound.  The
start carries the inverse of its basis, which is reused as it is when no
row was appended and bordered by the new rows otherwise, so the basis
matrix is inverted afresh only to refresh the product-form updates of
the pivots and to check the final basis.

One pivot loop reaches every verdict: the dual simplex with the
bound-flipping ratio test.  Every structural column is boxed, so flipping
the columns that price in to their other bounds makes a basis dual
feasible unless an inequality slack prices in, and then the crash basis,
where every inequality slack is basic, is taken instead; the dual pivots
drive the basics into their bounds (OPTIMAL) or find a row that no
setting of the nonbasics can satisfy (INFEASIBLE).  A boxed LP has no
UNBOUNDED verdict.  An optimal solution carries the row duals
y = c_B B^-1 of its basis, so a caller can price columns it has not yet
added: c_j - y . A_j.

An LP of fewer than ONE_BLAS_THREAD_BELOW rows is solved with numpy's
OpenBLAS on one thread (see _OneBlasThread), so its pivot path and its
time do not depend on how many processors are free.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

FEASIBILITY_TOL = 1e-7    # bound / constraint satisfaction
REDUCED_COST_TOL = 1e-7   # dual sign certificate at optimality
PIVOT_TOL = 1e-10         # smallest pivot magnitude accepted in the ratio test
BLAND_AFTER = 5000        # pivot count after which Bland's rule takes over
REFRESH_EVERY = 120       # pivots between basis-inverse refactorizations
CRASH_PIVOT_RATIO = 0.1   # a crash pivot's least size next to its column's largest entry
ONE_BLAS_THREAD_BELOW = 400  # rows; smaller LPs are solved on one OpenBLAS thread


class LpStatus(Enum):
    OPTIMAL = "OPTIMAL"
    INFEASIBLE = "INFEASIBLE"


class LpDimensionError(ValueError):
    """Bad input: rows, bounds or a start that do not fit the LP, or non-finite data."""


class LpNumericalError(RuntimeError):
    """A singular basis matrix, or an optimal basis whose basics kept failing the residual check."""


class LpIterationLimit(RuntimeError):
    """Pivot budget exhausted before reaching a verdict.

    Deliberately distinct from an INFEASIBLE status: the LP may well be
    solvable, the solver just gave up after ``pivots`` pivots.
    """

    def __init__(self, pivots: int):
        super().__init__(f"simplex iteration limit reached after {pivots} pivots")
        self.pivots = pivots


@dataclass
class SparseLp:
    """minimize objective . x  subject to eq_rows, ineq_rows (<=), and bounds.

    Each row is a (cols, vals, rhs) triple: the row's coefficient on
    variable cols[k] is vals[k], every other coefficient is zero, and
    repeated indices add.  var_bounds are per-variable (lower, upper) with
    0 <= lower <= upper, both finite: a sequence of pairs or an
    (n_vars, 2) array.  The objective, row values and right-hand sides are
    finite.  Since every variable is boxed and the objective prices only
    the variables, the objective is bounded over any feasible set: the LP
    is either OPTIMAL or INFEASIBLE, never unbounded.  solve checks all of
    this as it reads the rows and raises LpDimensionError otherwise.
    """

    objective: np.ndarray
    eq_rows: list[tuple[np.ndarray, np.ndarray, float]] = field(default_factory=list)
    ineq_rows: list[tuple[np.ndarray, np.ndarray, float]] = field(default_factory=list)
    var_bounds: list[tuple[float, float]] | np.ndarray = field(default_factory=list)

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass
class LpSolution:
    status: LpStatus
    values: np.ndarray        # structural variables (clipped into bounds)
    objective_value: float    # NaN unless OPTIMAL
    basis: np.ndarray         # final basis, one column per row; solve(..., start=) reuses it
    at_upper: np.ndarray      # which nonbasic columns sit at their upper bound
    pivots: int
    duals: np.ndarray | None = None  # row duals c_B B^-1, eq_rows then ineq_rows; OPTIMAL only
    # inverse of the final basis matrix, one row per basis position; solve(..., start=)
    # borders or reuses it.  OPTIMAL: the fresh inverse of the residual check;
    # INFEASIBLE: the pivots' updated inverse where the loop stopped
    inverse: np.ndarray | None = field(default=None, repr=False)


class _Simplex:
    """Working state: columns are [structural | one slack per row].

    The structural block A is held as compressed sparse columns: the
    nonzeros of column j are rowind[indptr[j]:indptr[j + 1]] with values
    data[...], and nzcol is the column of every nonzero.  The slack block
    is the identity and is never stored.  Pivots and bound flips keep the
    basis inverse Binv and the basics xB in step; run() is the pivot loop.
    """

    def __init__(self, lp: SparseLp, start: LpSolution | None = None):
        nv = lp.n_vars
        if len(lp.var_bounds) != nv:
            raise LpDimensionError(f"{len(lp.var_bounds)} bounds for {nv} variables")
        rows = [*lp.eq_rows, *lp.ineq_rows]
        m = len(rows)
        counts, cols, vals, b = np.zeros(m, np.intp), [], [], []
        bad_index = f"row column indices must be integers in [0, {nv})"
        for i, (c, v, rhs) in enumerate(rows):
            if len(c) != len(v):
                raise LpDimensionError(f"row with {len(c)} column indices and {len(v)} values")
            if len(c):  # left out of the index check: an empty row may be a float array
                # each row on its own: int64 and uint64 rows concatenate to float64
                if np.asarray(c).dtype.kind not in "iu":
                    raise LpDimensionError(bad_index)
                counts[i] = len(c)
                cols.append(c)
                vals.append(v)
            b.append(rhs)
        # a uint64 index past the intp range wraps negative and fails the range check
        cols = np.concatenate(cols, dtype=np.intp) if cols else np.zeros(0, np.intp)
        if cols.size and not (0 <= cols.min() and cols.max() < nv):
            raise LpDimensionError(bad_index)
        vals = np.concatenate(vals).astype(float, copy=False) if vals else np.zeros(0)
        try:
            bounds = np.asarray(lp.var_bounds, dtype=float)
        except ValueError:  # ragged or non-numeric
            bounds = None
        if bounds is None or bounds.shape != (nv, 2):
            raise LpDimensionError("bounds must be (lo, hi) pairs of numbers")
        lo, hi = bounds[:, 0], bounds[:, 1]
        bad = ~(np.isfinite(lo) & np.isfinite(hi) & (0 <= lo) & (lo <= hi))
        if bad.any():
            lo, hi = lp.var_bounds[int(np.argmax(bad))]
            raise LpDimensionError(f"invalid bounds ({lo}, {hi}); need finite 0 <= lo <= hi")
        self.b = np.array(b, dtype=float)
        self.c = np.concatenate([np.asarray(lp.objective, dtype=float), np.zeros(m)])
        if not all(np.isfinite(a).all() for a in (vals, self.b, self.c)):
            raise LpDimensionError("objective, row values and right-hand sides must be finite")
        # column-major order; the stable sort keeps each column's rows ascending
        order = np.argsort(cols, kind="stable")
        self.nzcol = cols[order]
        self.rowind = np.repeat(np.arange(m), counts)[order]
        self.data = vals[order]
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(self.nzcol, minlength=nv))])
        del cols, vals, order  # the unsorted copies must not live through the first refactor
        self.lb = np.concatenate([lo, np.zeros(m)])
        # equality slacks stay fixed at 0, inequality slacks are unbounded above
        self.ub = np.concatenate([hi, np.zeros(len(lp.eq_rows)), np.full(len(lp.ineq_rows), np.inf)])
        self.nv, self.m, self.ncols = nv, m, nv + m
        self.pivots = 0
        # fixed columns (lb == ub, i.e. equality slacks) never enter the basis
        self.fixed = self.ub - self.lb <= 0
        self.at_upper = np.zeros(self.ncols, dtype=bool)
        if start is None:  # a cold solve: the crash basis, every nonbasic at its lower bound
            self.set_basis(*self._cold_basis())
            return
        # start's basis with the slacks of the rows appended since; start's
        # slack columns move past the variables appended since
        k, nv0 = len(start.basis), len(start.at_upper) - len(start.basis)
        if k > self.m or nv0 > self.nv:
            raise LpDimensionError(
                f"start has {k} rows and {nv0} variables; "
                f"the LP has {self.m} rows and {self.nv} variables")
        if start.inverse is None or start.inverse.shape != (k, k):
            raise LpDimensionError(f"start carries no inverse of its {k}-row basis")
        basis = np.arange(self.nv, self.ncols)
        basis[:k] = np.where(start.basis < nv0, start.basis, start.basis + self.nv - nv0)
        self.at_upper[:nv0] = start.at_upper[:nv0]
        self.at_upper[self.nv: self.nv + k] = start.at_upper[nv0:]
        # B = [[B0, 0], [R, I]] with R the appended rows on start's basic
        # columns, so Binv = [[B0^-1, 0], [-R B0^-1, I]]; a copy of B0^-1
        # when no row was appended
        Binv = np.zeros((self.m, self.m))
        Binv[:k, :k] = start.inverse
        nzrow, nzpos, nzval = self._basic_entries(basis[:k])
        new = nzrow >= k
        R = np.bincount((nzrow[new] - k) * k + nzpos[new], weights=nzval[new],
                        minlength=(self.m - k) * k).reshape(self.m - k, k)
        Binv[k:, :k] = -(R @ start.inverse)
        np.fill_diagonal(Binv[k:, k:], 1.0)
        self.set_basis(basis, Binv)

    def _cold_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """The cold-start basis and its inverse: a triangular crash (Bixby, 1992).

        Start from the slack basis and walk the structural columns in
        ascending cost, ties to the lower index.  Column j replaces the
        fixed slack of equality row r when no column accepted so far has a
        nonzero in row r, no row of j is an accepted column's pivot row, and
        |a_rj| >= CRASH_PIVOT_RATIO * max_i |a_ij|; of several such rows, r
        has the largest |a_rj|, ties to the lower index.  Fixed and empty
        columns are left out, and so are columns that list a row twice
        (whose entries add).  The accepted columns are then zero in each
        other's pivot rows, so B is triangular up to a permutation with a
        nonzero diagonal: nonsingular by construction.  Inequality slacks
        stay basic, so none prices in here.

        Column j sits in the position of its pivot row r, and every other
        position holds its row's slack.  Over the pivot rows P and the rest
        N, B = [[D, 0], [C, I]] with D diagonal, so Binv = [[D^-1, 0],
        [-C D^-1, I]]: Binv[r, r] = 1 / a_rj and Binv[i, r] = -a_ij / a_rj
        for the other rows i of j.
        """
        size = np.abs(self.data)
        largest = np.zeros(self.nv)
        np.maximum.at(largest, self.nzcol, size)
        size[size < CRASH_PIVOT_RATIO * largest[self.nzcol]] = 0.0  # too small to pivot on
        skip = self.fixed[: self.nv] | (np.diff(self.indptr) == 0)
        skip[self.nzcol[1:][(np.diff(self.nzcol) == 0) & (np.diff(self.rowind) == 0)]] = True
        basis = np.arange(self.nv, self.ncols)
        closed = ~self.fixed[self.nv:]        # inequality rows, and rows an accepted column touches
        pivot = np.zeros(self.m, dtype=bool)  # the accepted columns' pivot rows
        open_rows = np.count_nonzero(~closed)
        for j in np.argsort(self.c[: self.nv], kind="stable"):
            if not open_rows:
                break
            lo, hi = self.indptr[j], self.indptr[j + 1]
            rows = self.rowind[lo:hi]
            if skip[j] or pivot[rows].any():
                continue
            free = np.where(closed[rows], 0.0, size[lo:hi])
            k = np.argmax(free)
            if free[k] > 0.0:
                basis[rows[k]] = j
                pivot[rows[k]] = True
                open_rows -= np.count_nonzero(~closed[rows])
                closed[rows] = True
        rows, pos, vals = self._basic_entries(basis)
        on_pivot = rows == pos
        diagonal = np.ones(self.m)  # a_rj in a crash column's position, 1 in a slack's
        diagonal[pos[on_pivot]] = vals[on_pivot]
        Binv = np.diag(1.0 / diagonal)
        off = ~on_pivot
        Binv[rows[off], pos[off]] = -vals[off] / diagonal[pos[off]]
        return basis, Binv

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
        order of a dense matrix-vector product, and the pivot path follows
        that rounding (a dot product over the nonzeros alone can pick
        different pivots).
        """
        if q >= self.nv:
            return self.Binv[:, q - self.nv].copy()
        lo, hi = self.indptr[q], self.indptr[q + 1]
        column = np.bincount(self.rowind[lo:hi], weights=self.data[lo:hi], minlength=self.m)
        return self.Binv @ column

    def _basic_entries(self, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, position in basis, value) of every structural nonzero on the
        columns of basis, in column-major order."""
        position = np.full(self.ncols, -1)
        position[basis] = np.arange(len(basis))
        nzpos = position[self.nzcol]
        basic = nzpos >= 0
        return self.rowind[basic], nzpos[basic], self.data[basic]

    def basis_matrix(self) -> np.ndarray:
        """[A | I][:, basis], scattered from the sparse columns in one pass."""
        m, nv = self.m, self.nv
        rows, pos, vals = self._basic_entries(self.basis)
        B = np.bincount(rows * m + pos, weights=vals, minlength=m * m).reshape(m, m)
        slack = np.flatnonzero(self.basis >= nv)
        B[self.basis[slack] - nv, slack] = 1.0
        return B

    def refactor(self):
        """Invert the basis matrix afresh and recompute the basics from it."""
        self.Binv = None  # the old inverse must not live through the inversion
        try:
            self.Binv = np.linalg.inv(self.basis_matrix())
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError("singular basis matrix") from exc
        self._compute_basics()

    def _compute_basics(self):
        """The basics from Binv, with the nonbasics at their bounds."""
        x = np.where(self.at_upper, self.ub, self.lb)
        x[self.basis] = 0.0
        self.xB = self.Binv @ (self.b - self.times(x))

    def full_values(self) -> np.ndarray:
        x = np.where(self.at_upper, self.ub, self.lb)
        x[self.basis] = self.xB
        return x

    # -- pivoting -----------------------------------------------------------

    def set_basis(self, basis: np.ndarray, Binv: np.ndarray):
        """Make basis the basis, with Binv the inverse of its basis matrix,
        keeping the nonbasics at their bounds."""
        self.basis = basis
        self.Binv = Binv
        self._compute_basics()

    def _flip(self, cols: np.ndarray):
        """Move the nonbasic columns cols to their other bounds, in one
        update of the basics."""
        dx = np.zeros(self.ncols)
        dx[cols] = np.where(self.at_upper[cols], self.lb[cols] - self.ub[cols],
                            self.ub[cols] - self.lb[cols])
        self.at_upper[cols] = ~self.at_upper[cols]
        self.xB -= self.Binv @ self.times(dx)

    def _apply_pivot(self, q: int, r: int, t: float, leave_at_upper: bool, u: np.ndarray):
        """Raise column q by t (lower it when t < 0); row r's basic leaves
        (|u[r]| > PIVOT_TOL by the ratio test)."""
        enter_val = (self.ub[q] if self.at_upper[q] else self.lb[q]) + t
        self.xB -= t * u
        leaving = self.basis[r]
        self.at_upper[leaving] = leave_at_upper and np.isfinite(self.ub[leaving])
        self.basis[r] = q
        self.xB[r] = enter_val
        # product-form update of the inverse
        row_r = self.Binv[r] / u[r]
        self.Binv -= np.outer(u, row_r)
        self.Binv[r] = row_r
        self.pivots += 1
        if self.pivots % REFRESH_EVERY == 0:
            self.refactor()

    def reduced_costs(self) -> np.ndarray:
        """c - (c_B Binv) @ [A | I]."""
        return self.c - self.price(self.c[self.basis] @ self.Binv)

    def run(self, max_pivots: int) -> LpStatus:
        """Dual simplex with the bound-flipping ratio test, to a verdict.

        The first pass flips every nonbasic column that prices in to its
        other bound, which makes the basis dual feasible (the dual phase 1
        of a boxed LP).  An inequality slack, unbounded above, cannot be
        flipped: when one prices in, as after a start from another
        objective, the loop restarts from the crash basis of _cold_basis,
        where every inequality slack is basic and none can.  Dual pivots
        keep the reduced costs' signs up to rounding, so the check is
        skipped until no basic is out of bounds, then made once more; a
        pass that checks and finds no basic out of bounds returns OPTIMAL.

        Otherwise the basic with the largest bound violation leaves at the
        bound it violates.  Its tableau row alpha = Binv[r] @ [A | I] gives
        each column that can move x_r toward that bound a breakpoint
        -d_j/alpha_j, where its reduced cost d_j would change sign.
        Bound-flipping ratio test (Fourer, 1994): in breakpoint order, a
        column is passed, i.e. flipped to its other bound, while the
        violation left exceeds |alpha_j| (ub_j - lb_j); the first column
        that cannot be passed enters.  When passing every column leaves x_r
        out of bounds by more than FEASIBILITY_TOL, row r proves the LP
        INFEASIBLE; by less, the last column enters.  After BLAND_AFTER
        pivots, the lowest-index violated basic leaves and the lowest-index
        column with the least breakpoint enters, passing none.
        """
        check = True  # whether this pass flips the columns that price in
        while True:
            if self.pivots > max_pivots:
                raise LpIterationLimit(self.pivots)
            d = self.reduced_costs()
            free = ~self.fixed  # the nonbasic columns that can move
            free[self.basis] = False
            if check:
                cols = np.flatnonzero(free & (np.where(self.at_upper, -d, d) < -REDUCED_COST_TOL))
                if np.isinf(self.ub[cols]).any():
                    self.set_basis(*self._cold_basis())
                    continue
                if cols.size:
                    self._flip(cols)
            lb, ub = self.lb[self.basis], self.ub[self.basis]
            violation = np.maximum(lb - self.xB, self.xB - ub)
            if violation.max(initial=0.0) <= FEASIBILITY_TOL:
                if check:
                    return LpStatus.OPTIMAL
                check = True
                continue
            check = False
            bland = self.pivots >= BLAND_AFTER
            if bland:
                rows = np.flatnonzero(violation > FEASIBILITY_TOL)
                r = int(rows[np.argmin(self.basis[rows])])
            else:
                r = int(np.argmax(violation))
            rising = bool(self.xB[r] < lb[r])
            # sign-adjusted row: raising column j moves x_r toward its bound iff alpha_j < 0
            alpha = self.price(self.Binv[r]) * (1.0 if rising else -1.0)
            idx = np.flatnonzero(free & (np.where(self.at_upper, -alpha, alpha) < -PIVOT_TOL))
            step = np.maximum(-d[idx] / alpha[idx], 0.0)  # the breakpoints
            # ties break toward the larger |alpha|, the more stable pivot (Bland: the lower index)
            order = idx[np.lexsort((idx if bland else -np.abs(alpha[idx]), step))]
            width = np.abs(alpha[order]) * (self.ub[order] - self.lb[order])
            reach = np.cumsum(width)  # how far passing order[:k + 1] moves x_r
            if reach.size == 0 or reach[-1] < violation[r] - FEASIBILITY_TOL:
                return LpStatus.INFEASIBLE  # passing every column leaves x_r out of bounds
            k = 0 if bland else min(int(np.searchsorted(reach, violation[r])), len(order) - 1)
            if k:
                self._flip(order[:k])
            q = int(order[k])
            u = self.entering_column(q)
            target = lb[r] if rising else ub[r]
            self._apply_pivot(q, r, (self.xB[r] - target) / u[r], not rising, u)

    def residual(self) -> float:
        x = self.full_values()
        res = float(np.max(np.abs(self.times(x) - self.b))) if self.m else 0.0
        lo = float(np.max(self.lb - x, initial=0.0))
        hi = float(np.max((x - self.ub)[np.isfinite(self.ub)], initial=0.0))
        return max(res, lo, hi)


@functools.cache
def _openblas_thread_count():
    """(get, set) for the thread count of the OpenBLAS bundled with numpy,
    through ctypes; None when numpy links another BLAS."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # numpy has loaded it: the same handle
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class _OneBlasThread:
    """Runs its block with numpy's OpenBLAS on one thread, then restores
    the thread count.

    A solve's dense work is matrix-vector products on the basis inverse
    and one inversion.  OpenBLAS splits them across processors, and each
    split waits for the slowest processor: on a 2-processor host with the
    other processor busy, a 150 x 150 inversion took 1.2 ms at the
    median, 5.4 ms at the 90th percentile and up to 140 ms on two
    threads, against 1.1, 1.5 and 3.3 ms on one.  The rounding of a split
    product also depends on the thread count, and the pivot path with it.
    On an idle host, one thread solves G(60..120, sqrt(n-1)) (up to 363
    rows) as fast as two, while two threads solve G(160..500) (480 rows
    and more) up to a quarter faster; hence ONE_BLAS_THREAD_BELOW.

    The thread count belongs to the process, so solves in several threads
    share one count: the first to enter saves it and sets one thread, the
    last to leave restores it.  Without OpenBLAS this does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inside = 0
        self._saved = 0

    def __enter__(self):
        count = _openblas_thread_count()
        if count is not None:
            with self._lock:
                if self._inside == 0:
                    self._saved = count[0]()
                    count[1](1)
                self._inside += 1
        return self

    def __exit__(self, *exc):
        count = _openblas_thread_count()
        if count is not None:
            with self._lock:
                self._inside -= 1
                if self._inside == 0:
                    count[1](self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()


def solve(lp: SparseLp, start: LpSolution | None = None,
          max_pivots: int | None = None) -> LpSolution:
    """Solve a SparseLp.  ``start`` is an optional warm start: the
    LpSolution of this LP before rows were appended to the end of its row
    list (eq_rows, then ineq_rows) or variables to the end of its
    objective.  An LP that breaks the rules of SparseLp, or a start with
    more rows or more variables than the LP or without the inverse of its
    basis, raises LpDimensionError.

    The verdict, OPTIMAL or INFEASIBLE, comes from _Simplex.run.  An
    OPTIMAL basis is checked against a fresh inverse and solved on from
    where it stands when the check fails.  LpNumericalError is raised when
    three repair rounds fail the check or a basis matrix is singular, and
    LpIterationLimit past ``max_pivots`` pivots in all.
    """
    small = len(lp.eq_rows) + len(lp.ineq_rows) < ONE_BLAS_THREAD_BELOW
    with _ONE_BLAS_THREAD if small else contextlib.nullcontext():
        ws = _Simplex(lp, start)
        if max_pivots is None:
            max_pivots = 2000 + 40 * ws.ncols
        status = ws.run(max_pivots)
        repairs = 0
        while status is LpStatus.OPTIMAL:
            # hygiene: refresh the factorization and re-verify; repair if drifted
            ws.refactor()
            if ws.residual() <= FEASIBILITY_TOL:
                break
            if repairs == 3:
                raise LpNumericalError("the residual check still fails after 3 repair rounds")
            repairs += 1
            status = ws.run(max_pivots)

        values = ws.full_values()[: ws.nv]
        obj, duals = float("nan"), None
        if status is LpStatus.OPTIMAL:
            values = np.clip(values, ws.lb[: ws.nv], ws.ub[: ws.nv])
            obj = float(ws.c[: ws.nv] @ values)
            duals = ws.c[ws.basis] @ ws.Binv
        return LpSolution(status, values, obj, ws.basis.copy(), ws.at_upper.copy(), ws.pivots, duals,
                          ws.Binv)
