"""Spans around calls into each gaplab module, recorded from outside the package.

While installed, a ``Tracer`` replaces public functions of the gaplab
modules with wrappers that record one span per call: name, start, end,
parent span and operation id.  Functions that other modules import by
name are replaced in every importing namespace too, so their time is not
charged to the caller.  Spans stay in memory; per-layer metrics are
derived from one traced pass's spans by ``layer_metrics``.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from gaplab import cli, exact, gline, instances, lp_solver, ratio, subtour
from gaplab.lp_solver import LpStatus

MODULES = ("cli", "instances", "ratio", "subtour", "lp_solver", "exact", "gline")


def _lp_facts(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    m = len(lp.eq_rows) + len(lp.ineq_rows)
    start = args[1] if len(args) > 1 else kwargs.get("start")
    return {
        "pivots": result.pivots if result is not None else 0,
        "warm": start is not None,
        "dense_bytes": 8 * m * (lp.n_vars + m),  # the standardized [A | I] matrix
        # a raised LpIterationLimit leaves no result
        "failed": result is None or result.status is not LpStatus.OPTIMAL,
    }


def _subtour_facts(args, kwargs, result):
    if result is None:
        return {}
    x, cuts = result
    return {"points": x.n_points, "cuts": len(cuts)}


def _stoer_wagner_facts(args, kwargs, result):
    return {"harvested": len(result[2]) if result is not None else 0}


def _held_karp_facts(args, kwargs, result):
    return {"points": len(result.order) if result is not None else 0}


def _zvector_facts(args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    return {"candidates": n // 2 + 1}  # every even k plus k = 1


def _sweep_facts(args, kwargs, result):
    if result is None:
        return {}
    return {"rows": len(result), "errors": sum(1 for r in result if r.error)}


# span name, the (module, attribute) pairs that hold the function, facts recorder
WRAPS = [
    ("cli.main", [(cli, "main")], None),
    ("instances.generate",
     [(instances, "generate"), (cli, "generate"), (gline, "generate"), (ratio, "generate"),
      (subtour, "generate")], None),
    ("instances.pairwise_distances",
     [(instances, "pairwise_distances"), (exact, "pairwise_distances"),
      (subtour, "pairwise_distances")], None),
    ("ratio.sweep", [(ratio, "sweep")], _sweep_facts),
    ("ratio.lp_value", [(ratio, "lp_value")], None),
    ("ratio.tour_value", [(ratio, "tour_value")], None),
    ("subtour.solve_subtour_lp", [(subtour, "solve_subtour_lp")], _subtour_facts),
    ("subtour.stoer_wagner", [(subtour, "stoer_wagner")], _stoer_wagner_facts),
    ("subtour.connected_components", [(subtour, "connected_components")], None),
    ("lp_solver.solve", [(lp_solver, "solve")], _lp_facts),
    ("exact.held_karp", [(exact, "held_karp")], _held_karp_facts),
    ("exact.brute_force", [(exact, "brute_force")], None),
    ("gline.optimal_zvector", [(gline, "optimal_zvector")], _zvector_facts),
    ("gline.sqrt_inequality_check", [(gline, "sqrt_inequality_check")], None),
]


class Tracer:
    """Span recorder.  ``spans`` holds (name, start, end, parent index,
    operation id, facts) tuples in call order; ``op`` is the id stamped on
    new spans."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn, facts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op,
                              facts(args, kwargs, result) if facts else None)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every function in WRAPS for the duration of the block."""
        saved = []
        try:
            for name, targets, facts in WRAPS:
                module, attr = targets[0]
                traced = self._wrap(name, getattr(module, attr), facts)
                for module, attr in targets:
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, traced)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def take(self) -> list:
        """The spans recorded so far; the recorder starts empty again."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _name, start, end, _parent, _op, _facts in spans]
    for _name, start, end, parent, _op, _facts in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


# name -> (unit, better); the per-layer metrics of one traced pass
PER_LAYER = {
    "cli.main.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "instances.generate.s": ("s", "lower"),
    "instances.pairwise_distances.s": ("s", "lower"),
    "ratio.sweep.s": ("s", "lower"),
    "ratio.sweep.self_s": ("s", "lower"),
    "ratio.sweep.rows": ("count", "higher"),
    "ratio.sweep.error_rows": ("count", "lower"),
    "ratio.lp_value.s": ("s", "lower"),
    "ratio.tour_value.s": ("s", "lower"),
    "subtour.solve_subtour_lp.calls": ("count", "lower"),
    "subtour.solve_subtour_lp.s": ("s", "lower"),
    "subtour.solve_subtour_lp.self_s": ("s", "lower"),
    "subtour.rounds": ("count", "lower"),
    "subtour.cuts_added": ("count", "lower"),
    "subtour.cuts_per_round": ("count", "higher"),
    "subtour.rows_final": ("count", "lower"),
    "subtour.edges": ("count", "lower"),
    "subtour.separation_s": ("s", "lower"),
    "subtour.stoer_wagner.calls": ("count", "lower"),
    "subtour.stoer_wagner.s": ("s", "lower"),
    "subtour.sw_yield": ("count", "higher"),
    "lp_solver.solve.calls": ("count", "lower"),
    "lp_solver.solve.s": ("s", "lower"),
    "lp_solver.pivots": ("count", "lower"),
    "lp_solver.s_per_pivot": ("s", "lower"),
    "lp_solver.warm_start_calls": ("count", "higher"),
    "lp_solver.dense_bytes": ("B", "lower"),
    "lp_solver.failures": ("count", "lower"),
    "exact.held_karp.calls": ("count", "lower"),
    "exact.held_karp.s": ("s", "lower"),
    "exact.held_karp.states": ("count", "lower"),
    "exact.held_karp.states_per_s": ("1/s", "higher"),
    "exact.held_karp.table_bytes": ("B", "lower"),
    "exact.brute_force.calls": ("count", "lower"),
    "exact.brute_force.s": ("s", "lower"),
    "gline.optimal_zvector.calls": ("count", "lower"),
    "gline.optimal_zvector.s": ("s", "lower"),
    "gline.zvector_candidates": ("count", "lower"),
    "gline.candidates_per_s": ("1/s", "higher"),
    "gline.sqrt_inequality_check.calls": ("count", "lower"),
    "gline.sqrt_inequality_check.s": ("s", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    **{f"{m}.self_share": ("fraction", "lower") for m in MODULES},
    "proc.cpu_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_coverage": ("fraction", "higher"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall`` seconds.

    Times and counts are totals over the pass.  ``lp_solver.dense_bytes``
    and ``exact.held_karp.table_bytes`` are computed from the problem
    sizes (8 B per dense matrix entry; 10 B per Held-Karp state for the
    float64 cost and int16 parent tables) and report the largest call.
    The ``proc.*`` and ``trace.overhead_s`` metrics need the untraced
    passes and are filled in by the runner.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    module_self: dict[str, float] = defaultdict(float)
    facts: dict[str, list] = defaultdict(list)
    rounds = 0
    for (name, start, end, parent, _op, fact), mine in zip(spans, own):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += mine
        module_self[module_of(name)] += mine
        if fact is not None:
            facts[name].append(fact)
        if name == "lp_solver.solve" and parent >= 0 and spans[parent][0] == "subtour.solve_subtour_lp":
            rounds += 1

    lp = facts["lp_solver.solve"]
    solved = facts["subtour.solve_subtour_lp"]
    cuts = sum(f.get("cuts", 0) for f in solved)
    sw = facts["subtour.stoer_wagner"]
    hk_states = [2 ** (f["points"] - 1) * (f["points"] - 1) for f in facts["exact.held_karp"]]
    candidates = sum(f["candidates"] for f in facts["gline.optimal_zvector"])
    sweeps = facts["ratio.sweep"]
    pivots = sum(f["pivots"] for f in lp)

    m = {
        "cli.main.calls": calls["cli.main"],
        "cli.self_s": module_self["cli"],
        "instances.generate.s": total["instances.generate"],
        "instances.pairwise_distances.s": total["instances.pairwise_distances"],
        "ratio.sweep.s": total["ratio.sweep"],
        "ratio.sweep.self_s": self_s["ratio.sweep"],
        "ratio.sweep.rows": sum(f.get("rows", 0) for f in sweeps),
        "ratio.sweep.error_rows": sum(f.get("errors", 0) for f in sweeps),
        "ratio.lp_value.s": total["ratio.lp_value"],
        "ratio.tour_value.s": total["ratio.tour_value"],
        "subtour.solve_subtour_lp.calls": calls["subtour.solve_subtour_lp"],
        "subtour.solve_subtour_lp.s": total["subtour.solve_subtour_lp"],
        "subtour.solve_subtour_lp.self_s": self_s["subtour.solve_subtour_lp"],
        "subtour.rounds": rounds,
        "subtour.cuts_added": cuts,
        "subtour.cuts_per_round": _ratio(cuts, rounds),  # the final cut-free round counts
        # the last LP of a solve holds one degree row per point plus every cut
        "subtour.rows_final": sum(f.get("points", 0) + f.get("cuts", 0) for f in solved),
        "subtour.edges": sum(f["points"] * (f["points"] - 1) // 2 for f in solved if f),
        "subtour.separation_s": total["subtour.stoer_wagner"] + total["subtour.connected_components"],
        "subtour.stoer_wagner.calls": calls["subtour.stoer_wagner"],
        "subtour.stoer_wagner.s": total["subtour.stoer_wagner"],
        "subtour.sw_yield": _ratio(sum(f["harvested"] for f in sw), len(sw)),
        "lp_solver.solve.calls": calls["lp_solver.solve"],
        "lp_solver.solve.s": total["lp_solver.solve"],
        "lp_solver.pivots": pivots,
        "lp_solver.s_per_pivot": _ratio(total["lp_solver.solve"], pivots),
        "lp_solver.warm_start_calls": sum(1 for f in lp if f["warm"]),
        "lp_solver.dense_bytes": max((f["dense_bytes"] for f in lp), default=0),
        "lp_solver.failures": sum(1 for f in lp if f["failed"]),
        "exact.held_karp.calls": calls["exact.held_karp"],
        "exact.held_karp.s": total["exact.held_karp"],
        "exact.held_karp.states": sum(hk_states),
        "exact.held_karp.states_per_s": _ratio(sum(hk_states), total["exact.held_karp"]),
        "exact.held_karp.table_bytes": 10 * max(hk_states, default=0),
        "exact.brute_force.calls": calls["exact.brute_force"],
        "exact.brute_force.s": total["exact.brute_force"],
        "gline.optimal_zvector.calls": calls["gline.optimal_zvector"],
        "gline.optimal_zvector.s": total["gline.optimal_zvector"],
        "gline.zvector_candidates": candidates,
        "gline.candidates_per_s": _ratio(candidates, total["gline.optimal_zvector"]),
        "gline.sqrt_inequality_check.calls": calls["gline.sqrt_inequality_check"],
        "gline.sqrt_inequality_check.s": total["gline.sqrt_inequality_check"],
        "trace.wall_s": wall,
        "trace.self_coverage": _ratio(sum(own), wall),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = module_self[mod]
        m[f"{mod}.self_share"] = _ratio(module_self[mod], wall)
    return m


def op_shares(spans, labels: list[str]) -> dict[str, dict[str, float]]:
    """Each operation's self time per module, as shares of the operation's
    total span time."""
    own = self_times(spans)
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (name, _start, _end, _parent, op, _facts), mine in zip(spans, own):
        per_op[op][module_of(name)] += mine
    shares = {}
    for op, mods in sorted(per_op.items()):
        busy = sum(mods.values())
        shares[labels[op]] = {mod: round(_ratio(t, busy), 4) for mod, t in sorted(mods.items())}
    return shares
