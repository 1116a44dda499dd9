"""Integrality-ratio reports, closed-form ratio expressions, convergence sweeps.

The headline quantities for G(n, sqrt(n-1)) with even n >= 18:

    tour  = 4n - 4 + 2 sqrt(n-1)
    lp    = 3n - 4 + 3 sqrt(n-1) + sqrt(n)
    ratio = tour / lp            (about 1.1447 at n = 18, tending to 4/3)

plus the cruder bound (4n + 2d - 2 - 2n/(d+1)) / (3n + 4d) valid for any
d >= 4, and the d = sqrt(n/2 - 1) variant whose ratio is slightly larger
at equal n.  Which closed forms hold is decided from (n, d) alone
(:func:`subtour.closed_form_lp_value`, :func:`closed_form_tour`), and
:func:`ratio_exact` and :func:`sweep` fill their reports by one routine;
a sweep row is the default report, a z-vector tour beside the closed
forms.  Every report row names the backend that produced each value;
closed forms and numeric solvers are never mixed silently.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from enum import Enum
from operator import attrgetter

import numpy as np

from . import exact, gline, subtour
from .instances import DomainError, InstanceSpec, generate


class LpBackend(Enum):
    CUTTING_PLANE = "cutting_plane"
    CLOSED_FORM = "closed_form"


class TourBackend(Enum):
    ZVECTOR = "zvector"
    HELD_KARP = "held_karp"
    CLOSED_FORM = "closed_form"


@dataclass
class RatioReport:
    """Per-(n, d) record of LP value, tour value, and their ratio.

    ``*_numeric`` holds the value produced by the selected backend,
    ``*_closed`` the closed-form counterpart where one exists.  The
    fields are declared in sweep-CSV column order; that order is the
    schema (:data:`CSV_COLUMNS`).
    """

    n: int
    d: float
    lp_numeric: float = math.nan
    lp_closed: float = math.nan
    tour_numeric: float = math.nan
    tour_closed: float = math.nan
    ratio_numeric: float = math.nan
    ratio_closed: float = math.nan
    backend_lp: str = ""
    backend_tour: str = ""
    error: str = ""

    @property
    def delta_tour(self) -> float:
        return self.tour_numeric - self.tour_closed

    def csv_row(self) -> list[str]:
        """Each field as a CSV cell: a float to 12 significant digits (NaN
        as empty), anything else as str."""
        return [("" if v != v else f"{v:.12g}") if isinstance(v, float) else str(v)
                for v in _csv_values(self)]


CSV_COLUMNS = [f.name for f in fields(RatioReport)]
_csv_values = attrgetter(*CSV_COLUMNS)


def closed_form_ratio(n: int) -> float:
    """(4n - 4 + 2 sqrt(n-1)) / (3n - 4 + 3 sqrt(n-1) + sqrt(n)), even n >= 18."""
    return gline.closed_form_tour_value(n) / subtour.closed_form_lp_value(n, math.sqrt(n - 1))


def ratio_lower_bound(n: int, d: float) -> float:
    """The bound (4n + 2d - 2 - 2n/(d+1)) / (3n + 4d) on the ratio, d >= 4."""
    return gline.tour_lower_bound(n, d) / (3.0 * n + 4.0 * d)


def variant_ratio_sqrt_half(n: int) -> float:
    """(4n - 6 + 2 sqrt(n/2-1)) / (3n - 4 + 3 sqrt(n/2-1) + sqrt(n/2)) for
    even n with n/2 - 1 >= 16 (so that the row spacing is at least 4)."""
    half = n / 2 - 1
    tour = closed_form_tour(n, math.sqrt(half)) if half >= 0 else math.nan
    if math.isnan(tour):
        raise DomainError(f"need even n with n/2 - 1 >= 16, got {n}")
    return tour / subtour.closed_form_lp_value(n, math.sqrt(half))


def f_argmin(n: int, d: float) -> int:
    """argmin over k = 1..n/2 of the relaxed tour length f(k, d); ties to
    the smaller k.  Companion check for the sqrt(n/2 - 1) variant, whose
    closed form presumes the minimum falls at k = 2."""
    if n % 2 or n < 4:
        raise DomainError(f"n must be even and >= 4, got {n}")
    ks = np.arange(1, n // 2 + 1)
    return int(ks[np.argmin(gline.f_values(ks, d, n))])


def proven_tour_form_holds(n: int, d: float) -> bool:
    """Whether 4n - 4 + 2 sqrt(n-1) is the proven optimal tour of G(n, d)."""
    return n % 2 == 0 and n >= 18 and abs(d - math.sqrt(n - 1)) <= 1e-9


def closed_form_tour(n: int, d: float) -> float:
    """The closed tour form that holds at G(n, d), NaN where none does:
    the proven 4n - 4 + 2 sqrt(n-1) (:func:`proven_tour_form_holds`), or
    4n - 6 + 2 sqrt(n/2-1) at d = sqrt(n/2-1) for even n with n/2 - 1 >= 16,
    which is attained only when 4 | n and slightly short otherwise."""
    if proven_tour_form_holds(n, d):
        return gline.closed_form_tour_value(n)
    half = n / 2 - 1
    if n % 2 == 0 and half >= 16 and abs(d - math.sqrt(half)) <= 1e-9:
        return 4.0 * n - 6.0 + 2.0 * math.sqrt(half)
    return math.nan


def tour_value(n: int, d: float, backend: TourBackend) -> float:
    if backend is TourBackend.ZVECTOR:
        return gline.optimal_zvector(n, d)[1]
    if backend is TourBackend.CLOSED_FORM:
        if not proven_tour_form_holds(n, d):
            raise DomainError("the closed tour form needs even n >= 18 and d = sqrt(n-1), "
                              f"got n={n} d={d:.12g}")
        return gline.closed_form_tour_value(n)
    if backend is TourBackend.HELD_KARP:
        inst = generate(InstanceSpec(n=n, d=d))
        return exact.held_karp(inst).length
    raise DomainError(f"unknown tour backend {backend!r}")


def lp_value(n: int, d: float, backend: LpBackend) -> float:
    if backend is LpBackend.CLOSED_FORM:
        return subtour.closed_form_lp_value(n, d)
    if backend is LpBackend.CUTTING_PLANE:
        x, _cuts = subtour.solve_subtour_lp(generate(InstanceSpec(n=n, d=d)))
        return x.objective_value
    raise DomainError(f"unknown LP backend {backend!r}")


def _fill(report: RatioReport, lp_mode: LpBackend, tour_mode: TourBackend,
          tour: float | None = None) -> RatioReport:
    """Set the LP fields, then the tour fields, then the ratios, evaluating
    each closed form once; a DomainError propagates and leaves the fields
    set so far in place.  ``tour``, when given, is the tour backend's value
    at (n, d), found beforehand."""
    n, d = report.n, report.d
    report.backend_lp = lp_mode.value
    lp_closed_form = lp_mode is LpBackend.CLOSED_FORM
    try:
        lp_closed = subtour.closed_form_lp_value(n, d)
    except DomainError:
        if lp_closed_form:
            raise
        lp_closed = math.nan
    report.lp_numeric = lp_closed if lp_closed_form else lp_value(n, d, lp_mode)
    report.lp_closed = lp_closed
    report.tour_numeric = tour if tour is not None else tour_value(n, d, tour_mode)
    report.tour_closed = closed_form_tour(n, d)
    report.backend_tour = tour_mode.value
    report.ratio_numeric = report.tour_numeric / report.lp_numeric
    report.ratio_closed = report.tour_closed / lp_closed
    return report


def ratio_exact(n: int, d: float,
                lp_mode: LpBackend = LpBackend.CLOSED_FORM,
                tour_mode: TourBackend = TourBackend.ZVECTOR) -> RatioReport:
    """Integrality-ratio report for G(n, d) with explicit backend choices.

    The ``*_closed`` fields hold the closed forms that apply at (n, d)
    (:func:`subtour.closed_form_lp_value`, :func:`closed_form_tour`) and
    stay NaN elsewhere; the CLOSED_FORM backends raise DomainError there.
    """
    return _fill(RatioReport(n=n, d=float(d)), lp_mode, tour_mode)


# -- d-growth rules and sweeps --------------------------------------------------

@dataclass(frozen=True)
class DRule:
    """A rule d(n) for how the row spacing grows with n."""

    kind: str
    value: float = 0.0

    SQRT_N_MINUS_1 = "sqrt-n-1"
    SQRT_HALF = "sqrt-half"
    CONST = "const"
    POW = "pow"
    GRAMMAR = "sqrt-n-1 | sqrt(n-1) | sqrt-half | sqrt(n/2-1) | const:V | V | pow:ALPHA"

    @classmethod
    def parse(cls, text: str) -> "DRule":
        """The rule named by ``text`` in :attr:`GRAMMAR`, spaces ignored;
        a bare number V is the constant rule const:V."""
        s = text.strip().replace(" ", "")
        s = {"sqrt(n-1)": cls.SQRT_N_MINUS_1, "sqrt(n/2-1)": cls.SQRT_HALF}.get(s, s)
        if s in (cls.SQRT_N_MINUS_1, cls.SQRT_HALF):
            return cls(s)
        kind, _, value = (s if ":" in s else f"{cls.CONST}:{s}").partition(":")
        if kind in (cls.CONST, cls.POW):
            try:
                return cls(kind, float(value))
            except ValueError:
                pass
        raise DomainError(f"cannot parse d {text!r}; expected {cls.GRAMMAR}")

    @property
    def name(self) -> str:
        if self.kind in (self.CONST, self.POW):
            return f"{self.kind}:{self.value:g}"
        return self.kind

    def d_of(self, n: int) -> float:
        """d at n; DomainError where the rule has no finite real value."""
        if self.kind == self.SQRT_N_MINUS_1:
            d = math.sqrt(n - 1) if n >= 1 else math.nan
        elif self.kind == self.SQRT_HALF:
            d = math.sqrt(n / 2 - 1) if n >= 2 else math.nan
        elif self.kind == self.CONST:
            d = self.value
        elif self.kind == self.POW:
            try:
                d = math.pow(n, self.value)
            except (ValueError, OverflowError):  # math's domain and range errors
                d = math.nan
        else:
            raise DomainError(f"unknown d-rule kind {self.kind!r}")
        if not math.isfinite(d):
            raise DomainError(f"d-rule {self.name} has no finite value at n={n}")
        return d


def sweep(n_values, d_rule: DRule) -> list[RatioReport]:
    """One RatioReport per n, ordered by n, each the default
    :func:`ratio_exact` report: the closed LP form, and the z-vector
    optimum beside the closed tour forms that hold.  The rows inside the
    search's domain are searched together by one
    :func:`gline.optimal_zvectors` call; the others get
    :func:`gline.optimal_zvector`'s error.  Per-row failures are recorded
    in the row and the sweep continues."""
    reports = []
    for n in n_values:
        report = RatioReport(n=int(n), d=math.nan)
        try:
            report.d = d_rule.d_of(report.n)
        except DomainError as exc:
            report.error = str(exc)
        reports.append(report)
    # the rows inside the search's domain (an error row's d is NaN); the
    # others raise its error in _fill
    searched = [i for i, r in enumerate(reports) if gline.in_search_domain(r.n, r.d)]
    _, values = gline.optimal_zvectors([reports[i].n for i in searched],
                                       [reports[i].d for i in searched])
    tours = dict(zip(searched, values.tolist()))
    lp, zvector = LpBackend.CLOSED_FORM, TourBackend.ZVECTOR  # about 0.1 µs per lookup
    for i, report in enumerate(reports):
        if report.error:
            continue
        try:
            _fill(report, lp, zvector, tours.get(i))
        except DomainError as exc:
            report.error = str(exc)
    return reports


def sweep_csv(reports: list[RatioReport]) -> str:
    """The reports as CSV text under CSV_COLUMNS, one newline-terminated
    line each; fields holding a comma (error messages) are quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(r.csv_row() for r in reports)
    return out.getvalue()
