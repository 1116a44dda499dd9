import csv
import json
import math

import numpy as np
import pytest

from gaplab import exact, subtour
from gaplab.cli import held_karp_cap, main, parse_range, run_verify
from gaplab.instances import DomainError
from gaplab.ratio import DRule


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "--n", "18", "--d", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 54
    assert doc["p"] == 2


def test_gen_minimal_instance(capsys):
    code, out, _ = run(capsys, "gen", "--n", "2", "--d", "1")
    assert code == 0
    assert len(json.loads(out)["points"]) == 6


def test_gen_rejects_bad_n(capsys):
    code, _, err = run(capsys, "gen", "--n", "0", "--d", "1")
    assert code == 2
    assert "error" in err


def test_gen_p_values(capsys):
    code, out, _ = run(capsys, "gen", "--n", "3", "--d", "1", "--p", "inf")
    assert code == 0
    assert json.loads(out)["p"] == "inf"
    code, out, err = run(capsys, "gen", "--n", "3", "--d", "1", "--p", "2.5")
    assert code == 2 and out == ""
    assert err == "error: p must be a positive integer or 'inf', got '2.5'\n"


def test_gen_tsplib_to_file(tmp_path, capsys):
    out_file = tmp_path / "inst.tsp"
    code, _, _ = run(capsys, "gen", "--n", "4", "--d", "4", "--format", "tsplib",
                     "--scale", "1000", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.count("\n") == len(text.splitlines())
    coords = [ln for ln in text.splitlines()
              if ln and ln[0].isdigit()]
    assert len(coords) == 12


def test_solve_ratio_prints_reference_value(capsys):
    code, out, _ = run(capsys, "solve", "ratio", "--n", "18", "--d", "sqrt(n-1)",
                       "--lp-backend", "closed-form", "--tour-backend", "closed-form")
    assert code == 0
    assert "ratio = 1.14463249602" in out


def test_solve_tour_held_karp(capsys):
    code, out, _ = run(capsys, "solve", "tour", "--n", "6", "--d", "4",
                       "--backend", "held-karp")
    assert code == 0
    assert f"tour = {30.94427190999916:.12g}" in out


def test_solve_tour_zvector_rejects_odd_n(capsys):
    code, _, err = run(capsys, "solve", "tour", "--n", "17", "--d", "4",
                       "--backend", "zvector")
    assert code == 2
    assert "even" in err


def test_solve_lp_cutting_plane(capsys):
    code, out, _ = run(capsys, "solve", "lp", "--n", "5", "--d", "3",
                       "--backend", "cutting-plane")
    assert code == 0
    assert "lp = " in out and "[cutting_plane]" in out
    assert run(capsys, "solve", "lp", "--n", "5", "--d", "3", "--backend", "cutting_plane")[1] == out
    # an unknown backend names the accepted spellings, not the enum
    code, _, err = run(capsys, "solve", "lp", "--n", "5", "--d", "3", "--backend", "held-karp")
    assert code == 2
    assert err == ("error: --backend takes cutting-plane | closed-form (or _ for -), "
                   "got 'held-karp'\n")


def test_solve_lp_closed_form_backend(capsys):
    code, out, _ = run(capsys, "solve", "lp", "--n", "18", "--d", "sqrt(n-1)",
                       "--backend", "closed-form")
    assert code == 0
    assert out.splitlines() == ["lp = 66.611957564  [closed_form]",
                                "lp_closed = 66.611957564",
                                "lp_closed_variant = 67.611957564"]
    code, out, err = run(capsys, "solve", "lp", "--n", "4", "--d", "1", "--backend", "closed-form")
    assert code == 2
    assert out == ""
    assert err == ("error: closed LP form 12.4142135624 does not hold at n=4 d=1: "
                   "a grid tour of length 12 is shorter\n")


def test_solve_lp_omits_the_closed_form_where_it_refuses(capsys):
    code, out, _ = run(capsys, "solve", "lp", "--n", "4", "--d", "1")
    assert code == 0
    assert out == "lp = 12  [cutting_plane]\n"
    code, out, _ = run(capsys, "solve", "lp", "--n", "5", "--d", "1")
    assert code == 0
    assert out.splitlines()[1:] == [f"lp_closed = {14 + math.sqrt(2):.12g}",
                                    f"lp_closed_variant = {15 + math.sqrt(2):.12g}"]


def test_sweep_csv_output(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--n", "18:40:2", "--d-rule", "sqrt-n-1",
                     "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 1 + 12
    ratios = [float(ln.split(",")[6]) for ln in lines[1:]]
    assert ratios == sorted(ratios)


def test_sweep_empty_range_emits_header_only(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "20:18", "--d-rule", "const:4")
    assert code == 0
    assert out.strip().splitlines() == [out.strip().splitlines()[0]]
    assert out.startswith("n,d,lp_numeric")


def test_sweep_error_rows_keep_the_columns(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "5:7", "--d-rule", "const:4")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert len(rows) == 4 and all(len(row) == 13 for row in rows)
    assert [row[-1] for row in rows[1:]] == ["n must be even and >= 4, got 5", "",
                                             "n must be even and >= 4, got 7"]
    # a rule with no finite d at some n leaves d empty there and says why
    for n_range, rule, no_d in (("1:3", "sqrt-half", ["1"]), ("0:3", "sqrt-n-1", ["0"]),
                                ("4:6", "pow:2000", ["4", "5", "6"])):
        code, out, _ = run(capsys, "sweep", "--n", n_range, "--d-rule", rule)
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert [row[0] for row in rows[1:]] == [str(n) for n in parse_range(n_range)]
        assert all(len(row) == 13 for row in rows)
        for row in rows[1:]:
            if row[0] in no_d:
                assert (row[1], row[-1]) == ("", f"d-rule {rule} has no finite value at n={row[0]}")
            else:
                assert row[1] != ""


def test_sweep_rejects_a_bare_n(capsys):
    code, out, err = run(capsys, "sweep", "--n", "18", "--d-rule", "sqrt-n-1")
    assert code == 2 and out == ""
    assert err == "error: range must be START:STOP[:STEP], got '18'\n"


def test_sweep_deterministic_output(capsys):
    _, first, _ = run(capsys, "sweep", "--n", "18:60:2", "--d-rule", "sqrt-n-1")
    _, second, _ = run(capsys, "sweep", "--n", "18:60:2", "--d-rule", "sqrt-n-1")
    assert first == second


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    assert "0 failed" in out


def test_verify_with_small_cap_skips_but_passes(capsys):
    code, out, _ = run(capsys, "verify", "--held-karp-cap", "12")
    assert code == 0
    assert "SKIP" in out
    assert "0 failed" in out


def test_verify_corrupted_constant_fails_loudly(monkeypatch, capsys):
    true_value = subtour.closed_form_lp_value
    monkeypatch.setattr(subtour, "closed_form_lp_value", lambda n, d: true_value(n, d) + 0.25)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    failed = [line[5:].split("  ")[0].rstrip() for line in out.splitlines()
              if line.startswith("FAIL ")]
    assert failed == ["cutting-plane LP matches closed form on G(6,3)",
                      "witness value matches its closed form"]
    assert out.splitlines()[-1] == "12 passed, 2 failed, 0 skipped"


def test_hk_cap_env_override(monkeypatch, capsys):
    monkeypatch.delenv("GAPLAB_HK_CAP", raising=False)
    assert held_karp_cap(None) == exact.HELD_KARP_DEFAULT_CAP
    monkeypatch.setenv("GAPLAB_HK_CAP", "12")
    assert held_karp_cap(None) == 12
    assert held_karp_cap(9) == 9  # the flag comes first
    monkeypatch.setenv("GAPLAB_HK_CAP", "banana")
    with pytest.raises(DomainError):
        held_karp_cap(None)
    # only commands that can run Held-Karp read the cap
    code, out, _ = run(capsys, "solve", "lp", "--n", "4", "--d", "3")
    assert code == 0 and out.startswith("lp = ")
    code, _, err = run(capsys, "solve", "tour", "--n", "4", "--d", "3", "--backend", "held-karp")
    assert code == 2 and "GAPLAB_HK_CAP" in err


def test_config_validation(monkeypatch):
    with pytest.raises(DomainError):
        held_karp_cap(0)
    monkeypatch.setenv("GAPLAB_HK_CAP", "0")
    with pytest.raises(DomainError):
        held_karp_cap(None)


def test_solve_ratio_reports_the_sqrt_half_closed_form(capsys):
    code, out, _ = run(capsys, "solve", "ratio", "--n", "34", "--d", "sqrt(n/2-1)")
    assert code == 0
    assert "ratio_closed = " in out and "ratio_closed_variant = " in out
    assert f"ratio_closed = {138 / (3 * 34 - 4 + 12 + math.sqrt(17)):.12g}" in out


def test_d_spellings_are_interchangeable(capsys):
    lp = [run(capsys, "solve", "lp", "--n", "18", "--d", d) for d in ("sqrt-n-1", "sqrt(n-1)")]
    assert lp[0] == lp[1] and lp[0][0] == 0
    rows = [run(capsys, "sweep", "--n", "18:40:2", "--d-rule", rule)
            for rule in ("sqrt(n-1)", "sqrt-n-1")]
    assert rows[0] == rows[1] and rows[0][0] == 0


def test_parse_d_forms():
    # --d values go through the same grammar as --d-rule
    assert DRule.parse("sqrt(n-1)").d_of(18) == pytest.approx(math.sqrt(17))
    assert DRule.parse("sqrt(n/2-1)").d_of(36) == pytest.approx(math.sqrt(17))
    assert DRule.parse("6.5").d_of(0) == 6.5
    with pytest.raises(DomainError):
        DRule.parse("two")


def test_parse_range_forms():
    assert parse_range("18:24:2") == [18, 20, 22, 24]
    assert parse_range("3:5") == [3, 4, 5]
    assert parse_range("5:3") == []
    with pytest.raises(DomainError):
        parse_range("1:10:0")


def test_run_verify_reports_structured_checks():
    checks = run_verify(12)
    names = [name for name, _, _ in checks]
    assert any("Held-Karp" in n for n in names)
    statuses = {status for _, status, _ in checks}
    assert statuses <= {"PASS", "SKIP"}


def test_verify_survives_a_raising_check(capsys, monkeypatch):
    import gaplab.subtour as sub

    def boom(*a, **k):
        raise RuntimeError("synthetic solver failure")

    monkeypatch.setattr(sub, "solve_subtour_lp", boom)
    code, out, _ = run(capsys, "verify", "--held-karp-cap", "12")
    assert code == 1
    assert "raised RuntimeError" in out
    assert "closed-form optimum at n=100" in out  # later checks still ran


def test_failed_residual_check_is_an_internal_failure(capsys, monkeypatch):
    from gaplab import lp_solver
    monkeypatch.setattr(lp_solver._Simplex, "residual", lambda self: 1.0)
    code, out, err = run(capsys, "solve", "lp", "--n", "4", "--d", "3")
    assert code == 1 and out == ""
    assert err == "internal failure: the residual check still fails after 3 repair rounds\n"


def test_singular_basis_is_an_internal_failure(capsys, monkeypatch):
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "inv", singular)
    code, out, err = run(capsys, "solve", "lp", "--n", "6", "--d", "3")
    assert code == 1 and out == ""
    assert err == "internal failure: singular basis matrix\n"


def test_unexpected_exception_is_an_internal_failure(capsys, monkeypatch):
    import gaplab.cli as cli

    def lookup_fails(*a, **k):
        raise KeyError("synthetic")
    monkeypatch.setattr(cli, "generate", lookup_fails)
    code, out, err = run(capsys, "gen", "--n", "3", "--d", "1")
    assert code == 1 and out == ""
    assert err == "internal failure: KeyError('synthetic')\n"
