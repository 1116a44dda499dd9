"""Exact subtour-LP integrality-ratio experiments on the three-row grid
family G(n, d): instance generation, a self-contained LP solver, cutting
planes with minimum-cut separation, exact tour oracles, z-structure tour
machinery, and closed-form ratio sweeps."""

from .exact import Tour, brute_force, held_karp
from .gline import (
    ZTour,
    ZVector,
    c_cost,
    closed_form_tour_value,
    f_value,
    insertion_cost_end,
    insertion_cost_inner,
    optimal_zvector,
    sqrt_inequality_check,
    tour_from_zvector,
    tour_lower_bound,
)
from .instances import INF, DomainError, Instance, InstanceSpec, Role, distance, export, from_json, generate
from .lp_solver import LpSolution, LpStatus, SparseLp, solve
from .ratio import DRule, LpBackend, RatioReport, TourBackend, f_argmin, ratio_exact, ratio_lower_bound, sweep, variant_ratio_sqrt_half
from .subtour import (
    CutRecord,
    EdgeValueMap,
    build_half_integral,
    closed_form_lp_value,
    separate,
    solve_subtour_lp,
)

__all__ = [
    "CutRecord", "DRule", "DomainError", "EdgeValueMap", "INF", "Instance", "InstanceSpec",
    "LpBackend", "LpSolution", "LpStatus", "RatioReport", "Role", "SparseLp", "Tour",
    "TourBackend", "ZTour", "ZVector", "brute_force", "build_half_integral", "c_cost",
    "closed_form_lp_value", "closed_form_tour_value",
    "distance", "export", "f_argmin", "f_value", "from_json", "generate", "held_karp",
    "insertion_cost_end", "insertion_cost_inner", "optimal_zvector", "ratio_exact",
    "ratio_lower_bound", "separate", "solve", "solve_subtour_lp", "sqrt_inequality_check",
    "sweep", "tour_from_zvector", "tour_lower_bound", "variant_ratio_sqrt_half",
]
__version__ = "0.1.0"
