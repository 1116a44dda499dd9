"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 checks the subtour LP on the grid n = 3..10, d in {1, 3, 4}.
The closed form 3n - 4 + 3d + sqrt(d^2 + 1) refuses at the four points
with even n and d = 1: there a Hamiltonian cycle of unit edges exists
and every pairwise distance is at least 1, so the degree rows pin the LP
optimum at exactly 3n, below the form.  The criterion asserts that the
form refuses at exactly those four points, that the LP equals 3n there
and the form at the other twenty, and that the half-integral witness is
cut-free at all 24; the README walks through the argument.
"""
import math
import time

import numpy as np

import gaplab as g
from gaplab.ratio import LpBackend, TourBackend

SQRT17 = math.sqrt(17)


def report(num: int, ok: bool, detail: str = ""):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'}" + (f" - {detail}" if detail else ""))


def G(n, d):
    return g.generate(g.InstanceSpec(n=n, d=d))


def test_criterion_1_reference_ratio():
    t0 = time.perf_counter()
    rep = g.ratio_exact(18, SQRT17, LpBackend.CLOSED_FORM, TourBackend.CLOSED_FORM)
    want = (68 + 2 * SQRT17) / (50 + 3 * SQRT17 + math.sqrt(18))
    closed_ok = abs(rep.ratio_numeric - want) <= 1e-12
    printed = f"{rep.ratio_numeric:.3g}"

    _, zvec_value = g.optimal_zvector(18, SQRT17)
    tour_ok = abs(zvec_value - (68 + 2 * SQRT17)) <= 1e-9
    x, _ = g.solve_subtour_lp(G(18, SQRT17))
    lp_ok = abs(x.objective_value - (50 + 3 * SQRT17 + math.sqrt(18))) <= 1e-5
    elapsed = time.perf_counter() - t0

    ok = closed_ok and printed == "1.14" and tour_ok and lp_ok and elapsed < 10
    report(1, ok, f"ratio={rep.ratio_numeric:.6f} printed={printed} "
                  f"zvec_delta={zvec_value - (68 + 2 * SQRT17):.2e} "
                  f"lp_delta={x.objective_value - (50 + 3 * SQRT17 + math.sqrt(18)):.2e} "
                  f"[{elapsed:.2f}s]")
    assert closed_ok and printed == "1.14"
    assert tour_ok and lp_ok
    assert elapsed < 10


def test_criterion_2_expression_lower_bound():
    value = g.ratio_lower_bound(18, SQRT17)
    ok = abs(value - 1.01) <= 0.005
    report(2, ok, f"value={value:.6f}")
    assert ok


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    deltas = []
    for n in (4, 6):  # the even n with 3n <= 18
        for d in (4.0, 5.0, 6.5):
            _, zvec_value = g.optimal_zvector(n, d)
            hk = g.held_karp(G(n, d)).length
            deltas.append((n, d, abs(zvec_value - hk)))
    elapsed = time.perf_counter() - t0
    worst = max(delta for _, _, delta in deltas)
    ok = worst <= 1e-9 and elapsed < 120
    report(3, ok, f"worst |zvector - held_karp| = {worst:.2e} over {len(deltas)} cases "
                  f"[{elapsed:.1f}s]")
    assert worst <= 1e-9
    assert elapsed < 120


def test_criterion_4_lp_construction_optimality():
    t0 = time.perf_counter()
    mismatches, refused = [], []
    for n in range(3, 11):
        for d in (1.0, 3.0, 4.0):
            inst = G(n, d)
            x, _ = g.solve_subtour_lp(inst)
            try:
                want = g.closed_form_lp_value(n, d)
            except g.DomainError:
                # a grid tour undercuts the form; the proven optimum is 3n
                refused.append((n, d))
                want = 3.0 * n
            if abs(x.objective_value - want) > 1e-5:
                mismatches.append((n, d, x.objective_value, want))
            assert g.separate(g.build_half_integral(inst)) is None
    elapsed = time.perf_counter() - t0
    expected_refusals = [(n, 1.0) for n in (4, 6, 8, 10)]
    ok = not mismatches and refused == expected_refusals and elapsed < 60
    report(4, ok, f"{24 - len(mismatches)}/24 grid points match; "
                  f"refused={refused} "
                  f"mismatches={[(n, d) for n, d, *_ in mismatches]} [{elapsed:.1f}s]")
    assert elapsed < 60
    assert refused == expected_refusals
    assert not mismatches, "; ".join(
        f"G({n},{d:g}) lp={lp:.6f} expected={want:.6f}" for n, d, lp, want in mismatches)


def test_criterion_5_closed_form_optimum():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(18, 2001, 2):
        d = math.sqrt(n - 1)
        _, value = g.optimal_zvector(n, d)
        worst = max(worst, abs(value - (4 * n - 4 + 2 * d)))
        ks = np.arange(2, n // 2 + 1)
        assert np.all(g.gline.f_values(ks, d, n) > g.f_value(1, d, n))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30
    report(5, ok, f"worst delta {worst:.2e} over even n in [18, 2000] [{elapsed:.1f}s]")
    assert worst <= 1e-9
    assert elapsed < 30


def test_criterion_6_convergence():
    t0 = time.perf_counter()
    grid = sorted({18, 20, 24, 30, 40, 60, 100, 200, 400, 1000, 2000, 5000,
                   10_000, 30_000, 100_000, 300_000, 1_000_000})
    reports = g.sweep(grid, g.DRule.parse("sqrt-n-1"))
    ratios = [r.ratio_numeric for r in reports]
    monotone = all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    final = ratios[-1]
    near_limit = final >= 1.332 and abs(final - 4 / 3) <= 2e-3

    const_grid = sorted(set(range(18, 2001, 2)) | {int(x) // 2 * 2 for x in np.geomspace(2000, 1e6, 40)})
    const_reports = g.sweep(const_grid, g.DRule.parse("const:4"))
    const_max = max(r.ratio_numeric for r in const_reports)
    bounded_away = const_max < 1.30
    elapsed = time.perf_counter() - t0

    ok = monotone and near_limit and bounded_away and elapsed < 5
    report(6, ok, f"monotone={monotone} ratio(1e6)={final:.6f} "
                  f"const4_max={const_max:.6f} [{elapsed:.2f}s]")
    assert monotone and near_limit and bounded_away
    assert elapsed < 5


def test_criterion_7_variant_remark():
    t0 = time.perf_counter()
    for n in range(40, 2001, 2):
        assert g.f_argmin(n, math.sqrt(n / 2 - 1)) == 2, f"argmin shifted at n={n}"
        assert g.variant_ratio_sqrt_half(n) > g.ratio.closed_form_ratio(n), f"n={n}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30
    report(7, ok, f"argmin k = 2 and variant above the sqrt-rule ratio on even n in [40, 2000] "
                  f"[{elapsed:.1f}s]")
    assert elapsed < 30


def test_criterion_8_property_suites():
    rng = np.random.default_rng(1823)

    triples = rng.uniform(0.0, 100.0, size=(100_000, 3))
    a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
    inequality_ok = bool(np.all(a + np.sqrt(b * b + c) >= np.sqrt((a + b) ** 2 + c) - 1e-12))
    spot = all(g.sqrt_inequality_check(*t) for t in triples[:200])

    convex_ok = True
    for d in (4.0, 10.0):
        vals = np.array([g.c_cost(i, d) for i in range(1, 102)])
        convex_ok &= bool(np.all(np.diff(vals, 2) >= -1e-12))

    dominance_ok = True
    for d in np.arange(4.0, 12.01, 0.2):
        k = np.arange(1, 61)
        h = d - 2 + np.hypot(k - 2, 2 * d) - np.hypot(k, d)
        dominance_ok &= bool(np.all(h >= -1e-12))

    bf_hk_worst = 0.0
    for _ in range(100):
        pts = rng.uniform(0.0, 10.0, size=(int(rng.integers(5, 10)), 2))
        bf_hk_worst = max(bf_hk_worst,
                          abs(g.brute_force(pts).length - g.held_karp(pts).length))
    oracle_ok = bf_hk_worst <= 1e-9

    relax_ok = True
    for n, d in ((3, 1.0), (4, 1.0), (4, 4.0), (5, 3.0), (6, 4.0)):
        inst = G(n, d)
        x, _ = g.solve_subtour_lp(inst)
        relax_ok &= x.objective_value <= g.held_karp(inst).length + 1e-6
    for _ in range(5):
        pts = rng.uniform(0.0, 10.0, size=(8, 2))
        x, _ = g.solve_subtour_lp(pts)
        relax_ok &= x.objective_value <= g.held_karp(pts).length + 1e-6

    ok = inequality_ok and spot and convex_ok and dominance_ok and oracle_ok and relax_ok
    report(8, ok, f"inequality={inequality_ok} convexity={convex_ok} "
                  f"dominance={dominance_ok} brute_vs_dp_worst={bf_hk_worst:.1e} "
                  f"lp_below_tour={relax_ok}")
    assert inequality_ok and spot
    assert convex_ok and dominance_ok
    assert oracle_ok
    assert relax_ok
