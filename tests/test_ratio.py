import dataclasses
import math

import pytest

from gaplab import gline
from gaplab.instances import DomainError
from gaplab.ratio import (
    DRule,
    LpBackend,
    TourBackend,
    closed_form_ratio,
    closed_form_tour,
    f_argmin,
    ratio_exact,
    ratio_lower_bound,
    sweep,
    sweep_csv,
    tour_value,
    variant_ratio_sqrt_half,
)

from conftest import full_enumeration_optimum

SQRT17 = math.sqrt(17)


def test_reference_ratio_closed_forms():
    rep = ratio_exact(18, SQRT17, LpBackend.CLOSED_FORM, TourBackend.CLOSED_FORM)
    want = (68 + 2 * SQRT17) / (50 + 3 * SQRT17 + math.sqrt(18))
    assert rep.ratio_numeric == pytest.approx(want, abs=1e-12)
    assert f"{rep.ratio_numeric:.3g}" == "1.14"
    assert rep.lp_closed_variant == pytest.approx(rep.lp_closed + 1.0)
    assert rep.ratio_closed_variant < rep.ratio_closed


def test_ratio_exact_held_karp_and_cutting_plane():
    rep = ratio_exact(6, 4.0, LpBackend.CUTTING_PLANE, TourBackend.HELD_KARP)
    assert rep.ratio_numeric >= 1.0
    assert rep.backend_lp == "cutting_plane"
    assert rep.backend_tour == "held_karp"
    assert rep.lp_numeric == pytest.approx(rep.lp_closed, abs=1e-5)


def test_ratio_report_invariant():
    rep = ratio_exact(20, math.sqrt(19), LpBackend.CLOSED_FORM, TourBackend.ZVECTOR)
    assert rep.ratio_numeric == rep.tour_numeric / rep.lp_numeric
    assert rep.ratio_numeric >= 1.0 - 1e-9
    assert abs(rep.delta_tour) <= 1e-9


def test_closed_tour_backend_guards():
    with pytest.raises(DomainError):
        ratio_exact(18, 4.0, LpBackend.CLOSED_FORM, TourBackend.CLOSED_FORM)
    with pytest.raises(DomainError):
        ratio_exact(17, 4.0, LpBackend.CLOSED_FORM, TourBackend.ZVECTOR)


def test_ratio_lower_bound_values():
    assert ratio_lower_bound(18, SQRT17) == pytest.approx(1.01, abs=0.005)
    assert ratio_lower_bound(10 ** 6, 10 ** 3) == pytest.approx(4 / 3, abs=0.01)
    with pytest.raises(DomainError):
        ratio_lower_bound(18, 2.0)


def test_ratio_lower_bound_degrades_when_d_grows_like_n():
    for n in (20, 100, 1000, 10 ** 5):
        assert ratio_lower_bound(n, float(n)) < 4 / 3


def test_ratio_lower_bound_is_a_lower_bound():
    for n in (18, 24, 40, 80):
        d = math.sqrt(n - 1)
        rep = ratio_exact(n, d, LpBackend.CUTTING_PLANE if n <= 24 else LpBackend.CLOSED_FORM,
                          TourBackend.ZVECTOR)
        assert rep.ratio_numeric >= ratio_lower_bound(n, d) - 1e-6


def test_variant_ratio():
    value = variant_ratio_sqrt_half(100)
    d = math.sqrt(49)
    assert value == pytest.approx((400 - 6 + 2 * d) / (300 - 4 + 3 * d + math.sqrt(50)), abs=1e-12)
    assert f_argmin(100, d) == 2
    assert variant_ratio_sqrt_half(34) > 1  # boundary case: d = 4 exactly
    with pytest.raises(DomainError):
        variant_ratio_sqrt_half(32)
    with pytest.raises(DomainError):
        variant_ratio_sqrt_half(35)


@pytest.mark.parametrize("n", [40, 60, 100, 400, 1200])
def test_variant_exceeds_sqrt_rule_ratio(n):
    assert variant_ratio_sqrt_half(n) > closed_form_ratio(n)


def test_sweep_sqrt_rule_monotone():
    reports = sweep(range(18, 402, 2), DRule.parse("sqrt-n-1"))
    ratios = [r.ratio_numeric for r in reports]
    assert all(not r.error for r in reports)
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert all(r.backend_tour == "closed_form" for r in reports)
    assert all(r.ratio_numeric < 1.5 for r in reports)  # below the 3/2 bound


def test_sweep_const_rule_uses_enumeration():
    reports = sweep([20, 50, 100], DRule.parse("const:4"))
    assert all(r.backend_tour == "zvector" for r in reports)
    assert all(math.isnan(r.tour_closed) for r in reports)
    assert all(1.0 <= r.ratio_numeric < 1.5 for r in reports)


def test_sweep_pow_rule_tracks_sqrt_rule():
    ns = [100, 400, 1600, 6400]
    pow_reports = sweep(ns, DRule.parse("pow:0.5"))
    sqrt_reports = sweep(ns, DRule.parse("sqrt-n-1"))
    for p, s in zip(pow_reports, sqrt_reports):
        assert abs(p.ratio_numeric - s.ratio_numeric) <= 5.0 / math.sqrt(p.n)


def test_sweep_records_row_errors_and_continues():
    reports = sweep([7, 18], DRule.parse("const:4"))  # odd n cannot be enumerated
    assert reports[0].error
    assert math.isnan(reports[0].ratio_numeric)
    assert not reports[1].error


def test_sweep_unit_spacing_rows_leave_the_lp_empty():
    # at even n and d = 1 the closed LP form refuses (the LP optimum is 3n),
    # so the rows carry the refusal instead of a wrong lp_numeric
    reports = sweep([4, 6, 8], DRule.parse("const:1"))
    for r in reports:
        assert math.isnan(r.lp_numeric) and math.isnan(r.lp_closed)
        assert math.isnan(r.lp_closed_variant) and math.isnan(r.ratio_numeric)
        assert "grid tour" in r.error
    rows = sweep_csv(reports).splitlines()[1:]
    assert [row.split(",")[:4] for row in rows] == [["4", "1", "", ""], ["6", "1", "", ""],
                                                    ["8", "1", "", ""]]


def test_ratio_exact_where_the_closed_lp_form_refuses():
    rep = ratio_exact(6, 1.0, LpBackend.CUTTING_PLANE, TourBackend.HELD_KARP)
    assert rep.lp_numeric == pytest.approx(18.0, abs=1e-6)
    assert rep.tour_numeric == pytest.approx(18.0, abs=1e-9)
    assert math.isnan(rep.lp_closed) and math.isnan(rep.lp_closed_variant)
    assert math.isnan(rep.ratio_closed) and math.isnan(rep.ratio_closed_variant)
    with pytest.raises(DomainError):
        ratio_exact(6, 1.0, LpBackend.CLOSED_FORM, TourBackend.HELD_KARP)


def test_sweep_csv_layout():
    text = sweep_csv(sweep([18, 20], DRule.parse("sqrt-n-1")))
    lines = text.strip().splitlines()
    # RatioReport's field order is the schema; pin it
    assert lines[0] == ("n,d,lp_numeric,lp_closed,tour_numeric,tour_closed,ratio_numeric,"
                        "ratio_closed,backend_lp,backend_tour,lp_closed_variant,"
                        "ratio_closed_variant,error")
    assert len(lines) == 3
    assert lines[1].startswith("18,")


def test_const_sweep_csv_matches_full_enumeration(monkeypatch):
    got = sweep_csv(sweep(range(18, 2001, 2), DRule.parse("const:4")))
    monkeypatch.setattr(gline, "optimal_zvector", full_enumeration_optimum)
    assert got == sweep_csv(sweep(range(18, 2001, 2), DRule.parse("const:4")))


def test_drule_parsing():
    assert DRule.parse("sqrt-n-1").d_of(17) == pytest.approx(4.0)
    assert DRule.parse("sqrt-half").d_of(34) == pytest.approx(4.0)
    assert DRule.parse("const:4").d_of(999) == 4.0
    assert DRule.parse("pow:0.5").d_of(256) == pytest.approx(16.0)
    # --d and --d-rule share this grammar: each spelling of a rule is the same rule
    for a, b in (("sqrt-n-1", "sqrt(n-1)"), ("sqrt-half", " sqrt( n/2 - 1 ) "),
                 ("const:6.5", "6.5"), ("pow:0.5", "pow: 0.5")):
        assert DRule.parse(a) == DRule.parse(b), (a, b)
    for bad in ("cubic", "two", "const:", "pow:x", ":4", "sqrt(n)"):
        with pytest.raises(DomainError):
            DRule.parse(bad)


def test_sqrt_half_closed_form_is_exact_only_at_multiples_of_four():
    # the quoted variant tour form equals the enumerated optimum when 4 | n
    # and slightly understates it otherwise; the sweep reports both values
    reports = {r.n: r for r in sweep([36, 38, 40, 42], DRule.parse("sqrt-half"))}
    for n in (36, 40):
        assert abs(reports[n].delta_tour) <= 1e-9
    for n in (38, 42):
        assert 0 < reports[n].delta_tour < 0.02
        assert reports[n].ratio_numeric >= reports[n].ratio_closed


def same_field(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("rule", ["sqrt-n-1", "sqrt-half", "const:4", "const:5", "pow:0.5"])
def test_sweep_rows_are_ratio_exact_reports(rule):
    # one dispatch: a sweep row carries the closed forms of its (n, d),
    # whichever rule produced d
    reports = sweep(range(4, 61), DRule.parse(rule))
    assert {26, 34, 52} <= {r.n for r in reports}
    checked = 0
    for row in reports:
        if row.error:
            continue
        want = ratio_exact(row.n, row.d, LpBackend.CLOSED_FORM, TourBackend(row.backend_tour))
        for field in dataclasses.fields(row):
            got, exp = getattr(row, field.name), getattr(want, field.name)
            assert same_field(got, exp), (rule, row.n, field.name, got, exp)
        checked += 1
    assert checked > 0


def test_closed_tour_forms_attach_by_n_and_d():
    rows = {r.n: r for r in sweep([26, 34, 52], DRule.parse("const:5"))}
    assert rows[26].backend_tour == "closed_form"
    assert rows[26].tour_closed == rows[26].tour_numeric == 4 * 26 - 4 + 2 * 5
    assert rows[52].backend_tour == "zvector"
    assert rows[52].tour_closed == 4 * 52 - 6 + 2 * 5
    assert math.isnan(rows[34].tour_closed) and math.isnan(rows[34].ratio_closed)

    const4 = sweep([34], DRule.parse("const:4"))[0]
    half = sweep([34], DRule.parse("sqrt-half"))[0]
    assert const4.tour_closed == 138
    for name in ("tour_closed", "ratio_closed", "ratio_closed_variant"):
        assert getattr(const4, name) == getattr(half, name)


def test_closed_form_tour_domain():
    assert closed_form_tour(18, SQRT17) == gline.closed_form_tour_value(18)
    assert closed_form_tour(36, math.sqrt(17)) == 4 * 36 - 6 + 2 * math.sqrt(17)
    for n, d in ((17, 4.0), (16, math.sqrt(15)), (18, 4.0), (32, math.sqrt(15)), (35, 4.0)):
        assert math.isnan(closed_form_tour(n, d)), (n, d)
    # only the proven form is a tour backend
    assert tour_value(18, SQRT17, TourBackend.CLOSED_FORM) == gline.closed_form_tour_value(18)
    with pytest.raises(DomainError):
        tour_value(34, 4.0, TourBackend.CLOSED_FORM)
