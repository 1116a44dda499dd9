"""Command-line entry point: gen | solve | sweep | verify.

``--d`` and ``--d-rule`` share one grammar, ``ratio.DRule.GRAMMAR``.  The
output depends on the arguments alone: the exact oracles' size caps are
constants of ``exact`` and ``verify`` is a fixed suite.  ``solve lp`` and
``solve tour`` take ``--backend``, ``solve ratio`` takes ``--lp-backend``
and ``--tour-backend``, and any other backend flag is a usage error;
``gen --scale`` is for TSPLIB only.  Exit codes: 0 success, 1 internal
failure, 2 usage or precondition error.  All floats print with 12
significant digits.
"""
from __future__ import annotations

import argparse
import math
import sys
from enum import Enum

import numpy as np

from . import exact, gline, ratio, subtour
from .instances import DomainError, InstanceSpec, export, generate
from .lp_solver import LpIterationLimit, LpNumericalError
from .ratio import DRule, LpBackend, TourBackend

def parse_backend(kind: type[Enum], text: str, option: str) -> Enum:
    try:
        return kind(text.replace("-", "_"))
    except ValueError:
        names = " | ".join(m.value.replace("_", "-") for m in kind)
        raise DomainError(f"{option} takes {names} (or _ for -), got {text!r}") from None


def fmt12(x: float) -> str:
    return f"{float(x):.12g}"


def _write_output(data: bytes, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(data.decode("utf-8"))
    else:
        with open(out, "wb") as fh:
            fh.write(data)


# -- subcommands ----------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.scale is not None and args.format != "tsplib":
        raise DomainError(f"gen --format {args.format} takes no --scale")
    spec = InstanceSpec(n=args.n, d=DRule.parse(args.d).d_of(args.n))
    scale = 1000 if args.scale is None else args.scale
    _write_output(export(generate(spec), fmt=args.format, scale=scale), args.out)
    return 0


def cmd_solve(args) -> int:
    given = {"--backend": args.backend, "--lp-backend": args.lp_backend,
             "--tour-backend": args.tour_backend}
    takes = ("--lp-backend", "--tour-backend") if args.what == "ratio" else ("--backend",)
    for flag, value in given.items():
        if value is not None and flag not in takes:
            raise DomainError(f"solve {args.what} takes {' and '.join(takes)}, not {flag}")
    n = args.n
    d = DRule.parse(args.d).d_of(n)
    out = []
    if args.what == "lp":
        backend = parse_backend(LpBackend, args.backend or "cutting-plane", "--backend")
        value = ratio.lp_value(n, d, backend)
        out.append(f"lp = {fmt12(value)}  [{backend.value}]")
        try:
            closed = subtour.closed_form_lp_value(n, d)
        except DomainError:
            pass  # the form does not hold here, so it is not printed
        else:
            out.append(f"lp_closed = {fmt12(closed)}")
    elif args.what == "tour":
        backend = parse_backend(TourBackend, args.backend or "zvector", "--backend")
        value = ratio.tour_value(n, d, backend)
        out.append(f"tour = {fmt12(value)}  [{backend.value}]")
    else:  # ratio
        lp_mode = parse_backend(LpBackend, args.lp_backend or "closed-form", "--lp-backend")
        tour_mode = parse_backend(TourBackend, args.tour_backend or "zvector", "--tour-backend")
        rep = ratio.ratio_exact(n, d, lp_mode, tour_mode)
        out.append(f"lp = {fmt12(rep.lp_numeric)}  [{rep.backend_lp}]")
        out.append(f"tour = {fmt12(rep.tour_numeric)}  [{rep.backend_tour}]")
        out.append(f"ratio = {fmt12(rep.ratio_numeric)}")
        if not math.isnan(rep.ratio_closed):
            out.append(f"ratio_closed = {fmt12(rep.ratio_closed)}")
    print("\n".join(out))
    return 0


def parse_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3) or not all(part.isascii() and part.removeprefix("-").isdigit()
                                           for part in parts):
        raise DomainError(f"range must be START:STOP[:STEP], got {text!r}")
    start, stop = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
    if step <= 0:
        raise DomainError(f"range step must be positive, got {step}")
    return list(range(start, stop + 1, step))


def cmd_sweep(args) -> int:
    reports = ratio.sweep(parse_range(args.n), DRule.parse(args.d_rule))
    _write_output(ratio.sweep_csv(reports).encode("utf-8"), args.out)
    return 0


# -- verify ------------------------------------------------------------------------

def run_verify():
    """The fixed invariant suite: (name, status, detail) per check, status
    'PASS' or 'FAIL'; it reads no setting.  A check that raises is recorded
    as a failure and the suite keeps going; it never aborts mid-run."""
    checks = []

    def record(name, fn):
        try:
            result = fn()
        except Exception as exc:  # enumerate, do not abort
            result = (False, f"raised {exc!r}")
        # a check returns ok or (ok, detail), where ok is a truth value
        ok, detail = result if isinstance(result, tuple) else (result, "")
        checks.append((name, "PASS" if ok else "FAIL", detail))

    rng = np.random.default_rng(1905)

    def sqrt_inequality():
        triples = rng.uniform(0.0, 100.0, size=(10_000, 3))
        return all(gline.sqrt_inequality_check(a, b, c) for a, b, c in triples)
    record("sqrt-inequality on 10^4 random triples", sqrt_inequality)

    for d in (4.0, 10.0):
        def convexity(d=d):
            vals = [gline.c_cost(i, d) for i in range(1, 102)]
            return bool(np.all(np.diff(vals, 2) >= -1e-12))
        record(f"z-path cost convexity (d={d:g})", convexity)

    for n, d in ((4, 4.0), (6, 4.0)):
        def oracle(n=n, d=d):
            zv = gline.optimal_zvector(n, d)[1]
            hk = exact.held_karp(generate(InstanceSpec(n=n, d=d))).length
            return abs(zv - hk) <= 1e-9, f"zvector={fmt12(zv)} held_karp={fmt12(hk)}"
        record(f"z-vector optimum equals Held-Karp on G({n},{d:g})", oracle)

    def brute_vs_dp():
        pts = rng.uniform(0.0, 10.0, size=(8, 7, 2))
        return all(abs(exact.brute_force(P).length - exact.held_karp(P).length) <= 1e-9
                   for P in pts)
    record("brute force equals Held-Karp on random 7-point sets", brute_vs_dp)

    state = {}

    def lp_matches_closed_form():
        inst = generate(InstanceSpec(n=6, d=3.0))
        state["x"], _ = subtour.solve_subtour_lp(inst)
        closed = subtour.closed_form_lp_value(6, 3.0)
        return (abs(state["x"].objective_value - closed) <= 1e-5,
                f"lp={fmt12(state['x'].objective_value)} closed={fmt12(closed)}")
    record("cutting-plane LP matches closed form on G(6,3)", lp_matches_closed_form)

    def lp_invariants():
        x = state["x"]
        return x.max_degree_violation() <= 1e-6 and subtour.separate(x) is None
    record("G(6,3) LP solution satisfies degree and cut invariants", lp_invariants)

    def witness_checks():
        inst84 = generate(InstanceSpec(n=8, d=4.0))
        state["witness"] = subtour.build_half_integral(inst84)
        state["x84"], _ = subtour.solve_subtour_lp(inst84)
        w = state["witness"]
        return subtour.separate(w) is None and w.max_degree_violation() <= 1e-6
    record("half-integral witness on G(8,4) is cut-free", witness_checks)

    def witness_dominates():
        x84, witness = state["x84"], state["witness"]
        return (x84.objective_value <= witness.objective_value + 1e-7,
                f"lp={fmt12(x84.objective_value)} witness={fmt12(witness.objective_value)}")
    record("LP optimum does not exceed the witness value", witness_dominates)

    def witness_closed_form():
        want = subtour.closed_form_lp_value(8, 4.0)
        return abs(state["witness"].objective_value - want) <= 1e-9
    record("witness value matches its closed form", witness_closed_form)

    for n in (18, 20, 100):
        def closed_form(n=n):
            got = gline.optimal_zvector(n, math.sqrt(n - 1))[1]
            return abs(got - gline.closed_form_tour_value(n)) <= 1e-9
        record(f"closed-form optimum at n={n}", closed_form)

    return checks


def cmd_verify(args) -> int:
    checks = run_verify()
    width = max(len(name) for name, _, _ in checks)
    for name, status, detail in checks:
        print(f"{status:<4} {name:<{width}}  {detail}".rstrip())
    failed = sum(status == "FAIL" for _, status, _ in checks)
    print(f"{len(checks) - failed} passed, {failed} failed, 0 skipped")
    return 1 if failed else 0


# -- parser -------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaplab",
        description="Subtour-LP integrality-ratio experiments on the G(n, d) family")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance and serialize it")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=str, required=True, help=DRule.GRAMMAR)
    gen.add_argument("--format", choices=["json", "tsplib"], default="json")
    gen.add_argument("--scale", type=int, default=None,
                     help="tsplib only: coordinate multiplier (default 1000)")
    gen.add_argument("--out", type=str, default=None)
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve the LP, the tour, or their ratio")
    solve.add_argument("what", choices=["lp", "tour", "ratio"])
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--d", type=str, required=True, help=DRule.GRAMMAR)
    solve.add_argument("--backend", type=str, default=None,
                       help="lp: cutting-plane|closed-form; tour: zvector|held-karp|closed-form")
    solve.add_argument("--lp-backend", type=str, default=None,
                       help="ratio only: cutting-plane|closed-form (default closed-form)")
    solve.add_argument("--tour-backend", type=str, default=None,
                       help="ratio only: zvector|held-karp|closed-form (default zvector)")
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser("sweep", help="ratio series over a range of n")
    sweep.add_argument("--n", type=str, required=True, help="START:STOP[:STEP], inclusive")
    sweep.add_argument("--d-rule", type=str, required=True, help=DRule.GRAMMAR)
    sweep.add_argument("--out", type=str, default=None)
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="run the invariant suite")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # DomainError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (subtour.SubtourSolveError, LpIterationLimit, LpNumericalError, OSError) as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # the CLI reports, it does not traceback
        print(f"internal failure: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
