import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab import gline
from gaplab.exact import held_karp
from gaplab.gline import (
    ZVector,
    balanced_zvector,
    c_cost,
    closed_form_tour_value,
    f_value,
    f_values,
    insertion_cost_end,
    insertion_cost_inner,
    optimal_zvector,
    optimal_zvectors,
    sqrt_inequality_check,
    tour_from_zvector,
    tour_lower_bound,
    zvector_tour_value,
)
from gaplab.instances import DomainError
from gaplab.ratio import DRule

from conftest import full_enumeration_optimum, gline_instance, plain_even_k_values


def positional_insertion_oracle(k: int, d: float) -> float:
    """Independent oracle for the interior insertion cost: place the segment
    over positions 1..k and try every split point a."""
    return min((k - 1) + math.hypot(a - 1, d) + math.hypot(k - a - 1, d) - 1
               for a in range(1, k + 1))


def test_c_cost_values():
    assert c_cost(1, 7.0) == pytest.approx(7.0)
    assert c_cost(2, 4.0) == pytest.approx(2 + math.sqrt(17))
    with pytest.raises(DomainError):
        c_cost(0, 4.0)


@pytest.mark.parametrize("d", [4.0, 10.0])
def test_c_cost_convexity(d):
    values = np.array([c_cost(i, d) for i in range(1, 102)])
    steps = np.diff(values)
    assert np.all(np.diff(steps) >= -1e-12)


def test_insertion_cost_inner_examples():
    assert insertion_cost_inner(2, 4.0) == pytest.approx(8.0)
    assert insertion_cost_inner(3, 4.0) == pytest.approx(1 + 0.5 * (math.sqrt(68) + 8))


@pytest.mark.parametrize("d", [4.0, 6.0, 10.0])
def test_insertion_cost_inner_matches_positional_oracle(d):
    for k in range(1, 41):
        assert insertion_cost_inner(k, d) == pytest.approx(
            positional_insertion_oracle(k, d), abs=1e-9)


@pytest.mark.parametrize("d", [4.0, 6.0, 10.0])
def test_insertion_lower_bound_below_exact(d):
    for k in range(1, 41):
        assert insertion_cost_inner(k, d, parity_exact=False) \
            <= insertion_cost_inner(k, d) + 1e-12


def test_insertion_cost_requires_wide_rows():
    with pytest.raises(DomainError):
        insertion_cost_inner(3, 3.9)
    with pytest.raises(DomainError):
        insertion_cost_end(3, 2.0)


def test_insertion_cost_end_examples():
    assert insertion_cost_end(1, 4.0) == pytest.approx(1 - 4 + math.sqrt(17))
    assert insertion_cost_end(4, 4.0) == pytest.approx(4 * math.sqrt(2))


def test_end_insertion_dominance_sweep():
    # h(d) = d - 2 + sqrt((k-2)^2 + 4 d^2) - sqrt(k^2 + d^2) stays nonnegative
    for d in np.arange(4.0, 12.01, 0.25):
        for k in range(1, 61):
            h = d - 2 + math.hypot(k - 2, 2 * d) - math.hypot(k, d)
            assert h >= -1e-12
            assert insertion_cost_end(k, float(d)) \
                <= insertion_cost_inner(k, float(d)) + 1e-12


def test_sqrt_inequality_edges():
    assert sqrt_inequality_check(0.0, 3.0, 5.0)
    assert sqrt_inequality_check(2.0, 3.0, 0.0)
    with pytest.raises(DomainError):
        sqrt_inequality_check(-1.0, 2.0, 3.0)


@given(st.floats(0, 100), st.floats(0, 100), st.floats(0, 100))
def test_sqrt_inequality_property(a, b, c):
    assert sqrt_inequality_check(a, b, c)


def test_zvector_validation():
    with pytest.raises(DomainError):
        ZVector(())
    with pytest.raises(DomainError):
        ZVector((3, 0))
    assert ZVector((4, 3)).total == 7


def test_tour_from_zvector_reference():
    # the 28-point three-row layout with z-vector (4,3,3,4,4,3,4,3)
    inst = gline_instance(28, 3.0)
    z = ZVector((4, 3, 3, 4, 4, 3, 4, 3))
    zt = tour_from_zvector(inst, z)
    expected = 28 + 8 + 2 * 3 - 2 + sum(c_cost(zi, 3.0) for zi in z.entries)
    assert zt.length == pytest.approx(expected, abs=1e-9)
    assert zt.tour.length == pytest.approx(zt.length, abs=1e-9)
    assert sorted(zt.tour.order) == list(range(84))


def test_tour_from_zvector_single_entry():
    # one z-path cannot close through the top row at the even-k price; the
    # realizable single-segment tour costs 3n + 3d - 4 + sqrt((n-2)^2 + d^2)
    inst = gline_instance(4, 4.0)
    zt = tour_from_zvector(inst, ZVector((4,)))
    expected = 3 * 4 + 3 * 4 - 4 + math.hypot(2, 4)
    assert zt.length == pytest.approx(expected, abs=1e-9)
    assert zt.tour.length == pytest.approx(zt.length, abs=1e-9)
    assert zt.length >= held_karp(inst).length - 1e-9


@pytest.mark.parametrize("n,d,entries", [
    (6, 4.0, (3, 3)),
    (6, 4.0, (1, 1, 2, 2)),
    (8, 5.0, (2, 2, 2, 2)),
    (10, 4.5, (5, 5)),
    (10, 6.5, (1, 2, 3, 4)),
])
def test_tour_formula_matches_explicit_tour(n, d, entries):
    inst = gline_instance(n, d)
    zt = tour_from_zvector(inst, ZVector(entries))
    assert zt.tour.length == pytest.approx(zt.length, abs=1e-9)
    assert sorted(zt.tour.order) == list(range(3 * n))


def test_tour_from_zvector_rejections():
    inst = gline_instance(6, 4.0)
    with pytest.raises(DomainError):
        tour_from_zvector(inst, ZVector((3, 2)))      # does not sum to n
    with pytest.raises(DomainError):
        tour_from_zvector(inst, ZVector((2, 2, 2)))   # odd length > 1


def test_optimal_zvector_sqrt_rule_closed_form():
    k, value = optimal_zvector(18, math.sqrt(17))
    assert value == pytest.approx(68 + 2 * math.sqrt(17), abs=1e-9)
    assert balanced_zvector(18, k).entries == (9, 9)


@pytest.mark.parametrize("n,d", [
    (4, 4.0), (4, 7.25), (4, 30.0),
    (6, 4.0), (6, 5.5), (6, 10.0),
])
def test_optimal_zvector_matches_held_karp(n, d):
    _, value = optimal_zvector(n, d)
    assert value == pytest.approx(held_karp(gline_instance(n, d)).length, abs=1e-9)


def test_optimal_zvector_preconditions():
    with pytest.raises(DomainError):
        optimal_zvector(7, 4.0)
    with pytest.raises(DomainError):
        optimal_zvector(6, 3.0)


def assert_search_matches_enumeration(n, d):
    k, value = optimal_zvector(n, d)
    want_k, want_value = full_enumeration_optimum(n, d)
    assert (k, value) == (want_k, want_value), (n, d)
    assert type(value) is float


def assert_batch_matches_enumeration(ns, ds):
    """One optimal_zvectors call over all rows: every row's k and value bits
    are the full enumeration's."""
    ks, values = optimal_zvectors(ns, ds)
    assert ks.dtype == np.int64 and values.dtype == np.float64
    for n, d, k, value in zip(ns, ds, ks.tolist(), values.tolist()):
        want_k, want_value = full_enumeration_optimum(n, d)
        assert (k, value.hex()) == (want_k, want_value.hex()), (n, d)


@pytest.mark.parametrize("d", [4.0, 4.5, 10.0, 50.0])
def test_zvector_search_matches_full_enumeration(d):
    """Gate of the kink search: same k, bit-identical value, every even n,
    one n at a time and all n in one batched call."""
    ns = list(range(4, 2001, 2))
    for n in ns:
        assert_search_matches_enumeration(n, d)
    assert_batch_matches_enumeration(ns, [d] * len(ns))


def test_zvector_search_matches_full_enumeration_large_and_growing_d():
    for n in list(range(2002, 20001, 666)) + [19998, 20000]:
        assert_search_matches_enumeration(n, 4.0)
    ns = list(range(2002, 20001, 26))
    assert_batch_matches_enumeration(ns, [4.0] * len(ns))
    for rule, ns in ((DRule.parse("pow:0.5"), (16, 100, 1000, 4096, 9998)),
                     (DRule.parse("sqrt-half"), (34, 36, 38, 500, 2002, 12000))):
        for n in ns:
            assert_search_matches_enumeration(n, rule.d_of(n))
        assert_batch_matches_enumeration(ns, [rule.d_of(n) for n in ns])
    # k = 1 wins only on a float tie, since hypot(n-2, 2d) <= hypot(n-2, d) + d;
    # at d = 1e9 the tie holds for n = 4..10
    for d in (1e8, 1e9):
        for n in range(4, 11, 2):
            assert_search_matches_enumeration(n, d)
        assert_batch_matches_enumeration(range(4, 11, 2), [d] * 4)
    assert all(optimal_zvector(n, 1e9)[0] == 1 for n in range(4, 11, 2))
    mixed = [(4, 1e9), (2002, 4.0), (10, 1e8), (36, math.sqrt(17)), (20000, 50.0)]
    assert_batch_matches_enumeration(*zip(*mixed))


def test_search_holds_its_bound_up_to_2_to_the_53():
    """Past any full enumeration: the returned value is, up to the 2^-49
    rounding of each V, no greater than V at every even k within 64 steps
    of the returned k and at the even k next to the kinks n/q for q within
    5 of floor(q*), and no less than the tour lower bound."""
    ns = [10 ** 6, 2 ** 30 + 2, 10 ** 12, 3 * 2 ** 40 + 2, 2 ** 52 + 6, 2 ** 53 - 2, 2 ** 53]
    rows = [(n, d) for n in ns for d in (4.0, 1e3, 1e5)]
    ks, values = optimal_zvectors(*zip(*rows))
    for (n, d), k, value in zip(rows, ks.tolist(), values.tolist()):
        assert (k, value) == optimal_zvector(n, d)
        q_star = math.floor((d * d + 1) / 2)
        kinks = [2 * (n // (2 * q)) + j for q in range(max(q_star - 5, 1), min(q_star + 5, n // 2) + 1)
                 for j in (0, 2)]
        near = range(max(k - 128, 2), min(k + 128, n) + 1, 2)
        others = np.array(sorted({min(kk, n) for kk in kinks} | set(near)))
        assert (value <= plain_even_k_values(n, d, others) * (1 + 2.0 ** -49)).all(), (n, d)
        assert value >= tour_lower_bound(n, d), (n, d)


def test_batched_search_breaks_ties_to_the_smaller_k(monkeypatch):
    """No (n, d) tried has two candidates at the minimum, so a constant V
    stands in for one: every candidate ties, and the smallest is returned.
    At d = 4 the candidates come from q = 7..10, and q = 10 gives the
    smallest k, 2 (n // 20)."""
    monkeypatch.setattr(gline, "_even_k_values", lambda n, d, ks: np.full(ks.shape, 4.0))
    ks, values = optimal_zvectors([60, 400, 2000], [4.0, 4.0, 4.0])
    assert ks.tolist() == [6, 40, 200] and values.tolist() == [4.0, 4.0, 4.0]


def test_batched_search_inputs():
    ks, values = optimal_zvectors([], [])
    assert ks.shape == values.shape == (0,)
    assert optimal_zvectors(np.array([20]), np.array([4.0]))[0].tolist() == [optimal_zvector(20, 4.0)[0]]
    # the first row outside the domain raises optimal_zvector's own error
    for ns, ds, message in (([18, 7, 6], [4.0, 4.0, 3.0], "n must be even and >= 4, got 7"),
                            ([18, 6, 7], [4.0, 3.0, 4.0], "row spacing d must be >= 4, got 3.0"),
                            ([2], [4.0], "n must be even and >= 4, got 2"),
                            ([20.5], [4.0], "n must be even and >= 4, got 20.5"),
                            ([18, math.inf], [4.0, 4.0], "n must be even and >= 4, got inf"),
                            ([18], [1e308], "row spacing d must be <= 2^1000, got 1e+308"),
                            ([18], [math.inf], "row spacing d must be finite, got inf"),
                            ([18], [math.nan], "row spacing d must be >= 4, got nan"),
                            ([2 ** 53 + 2], [4.0], "n must be <= 2^53, got 9007199254740994"),
                            ([2 ** 64], [4.0], f"n must be <= 2^53, got {2 ** 64}")):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            optimal_zvectors(ns, ds)
    with pytest.raises(DomainError, match="equal-length"):
        optimal_zvectors([18, 20], [4.0])
    # a float n is taken where it is integral, as by optimal_zvector
    assert optimal_zvectors([20.0], [4.0])[0].tolist() == [optimal_zvector(20, 4.0)[0]]


def test_huge_d_neither_overflows_nor_warns():
    """d^2 is past the float range from d of about 1.3e154; the kink search
    clamps d at 2^32 before it squares it, so it stays exact and quiet up to
    d = 2^1000, where its domain ends."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (1e100, 1e200, 1e300, gline.MAX_ROW_GAP):
            assert optimal_zvector(20, d) == full_enumeration_optimum(20, d), d
        ks, values = optimal_zvectors([20, 2000, 10**12], [1e300] * 3)
        assert ks.tolist() == [1, 1, 1] and np.isfinite(values).all()
    for d in (1e308, math.nextafter(gline.MAX_ROW_GAP, math.inf)):
        with pytest.raises(DomainError, match=r"must be <= 2\^1000"):
            optimal_zvector(20, d)


def test_balancedness_beats_random_unbalanced(rng):
    n, d = 36, 5.0
    for k in (2, 4, 6, 12):
        balanced = zvector_tour_value(n, k, d,
                                      sum(c_cost(z, d) for z in balanced_zvector(n, k).entries))
        for _ in range(50):
            cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
            parts = np.diff(np.concatenate([[0], cuts, [n]]))
            value = zvector_tour_value(n, k, d, sum(c_cost(int(z), d) for z in parts))
            assert balanced <= value + 1e-9


@pytest.mark.parametrize("n", [18, 50, 120, 400])
def test_single_entry_never_beats_best_pair(n):
    for d in (4.0, 6.0, math.sqrt(n - 1)):
        v1 = zvector_tour_value(n, 1, d, 0.0)
        v2 = zvector_tour_value(n, 2, d, 2 * c_cost(n // 2, d))
        assert v1 >= v2 - 1e-9


def test_f_value_collapses_at_special_spacings():
    for n in (18, 64, 200, 1024):
        d = math.sqrt(n - 1)
        assert f_value(1, d, n) == pytest.approx(4 * n - 4 + 2 * d, abs=1e-9)
        dh = math.sqrt(n / 2 - 1)
        assert f_value(2, dh, n) == pytest.approx(4 * n - 6 + 2 * dh, abs=1e-9)


@pytest.mark.parametrize("n", [18, 40, 100, 256, 400])
def test_f_minimum_at_one_for_sqrt_rule(n):
    d = math.sqrt(n - 1)
    ks = np.arange(2, n // 2 + 1)
    assert np.all(f_values(ks, d, n) > f_value(1, d, n))


def test_growth_chain_inequality():
    # 2kn - n >= sqrt(n^2 + 4nk(k-1)) for integers k >= 1, n >= 1
    for n in range(1, 200, 7):
        for k in range(1, 60):
            assert 2 * k * n - n >= math.sqrt(n * n + 4 * n * k * (k - 1)) - 1e-9


def test_tour_lower_bound_values():
    value = tour_lower_bound(18, math.sqrt(17))
    explicit = 4 * 18 + 2 * math.sqrt(17) - 2 - 36 / (math.sqrt(17) + 1)
    assert value == pytest.approx(explicit, abs=1e-12)
    assert value == pytest.approx(71.22, abs=0.01)
    with pytest.raises(DomainError):
        tour_lower_bound(18, 3.0)


@pytest.mark.parametrize("d", [4.0, 5.0, 8.0])
def test_tour_lower_bound_below_zvector_optimum(d):
    for n in range(4, 41, 2):
        assert tour_lower_bound(n, d) <= optimal_zvector(n, d)[1] + 1e-9


def test_tour_lower_bound_below_held_karp():
    for n, d in ((4, 4.0), (6, 4.0)):
        assert tour_lower_bound(n, d) <= held_karp(gline_instance(n, d)).length + 1e-9


@settings(max_examples=30)
@given(st.integers(2, 24), st.floats(4.0, 12.0))
def test_even_zvector_formula_is_realizable(half, d):
    n = 2 * half
    inst = gline_instance(n, d)
    zt = tour_from_zvector(inst, balanced_zvector(n, 2))
    assert zt.tour.length == pytest.approx(zt.length, abs=1e-9)


def test_ztour_json_round_trip():
    import json
    inst = gline_instance(6, 4.0)
    zt = tour_from_zvector(inst, ZVector((3, 3)))
    doc = json.loads(zt.to_json())
    assert doc["z"] == [3, 3]
    assert doc["length"] == pytest.approx(zt.length)
    assert sorted(doc["order"]) == list(range(18))


def test_closed_form_tour_value_bounds():
    assert closed_form_tour_value(18) == pytest.approx(68 + 2 * math.sqrt(17), abs=1e-12)
    with pytest.raises(DomainError):
        closed_form_tour_value(17)
    with pytest.raises(DomainError):
        closed_form_tour_value(16)


@pytest.mark.parametrize("call", [
    lambda: c_cost(2, 0.0),
    lambda: insertion_cost_inner(0, 4.0),
    lambda: insertion_cost_end(1.5, 4.0),
    lambda: tour_from_zvector(np.zeros((6, 2)), ZVector((1, 1))),
    lambda: zvector_tour_value(10, 3, 4.0, 0.0),
    lambda: balanced_zvector(5, 6),
], ids=["c_cost-d", "inner-k", "end-k", "tour-raw-array", "value-odd-k", "balanced-k"])
def test_input_checks_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()
