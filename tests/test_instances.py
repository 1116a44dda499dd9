import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaplab.instances import (
    INF,
    DomainError,
    InstanceSpec,
    Role,
    coerce_points,
    distance,
    export,
    from_json,
    generate,
    lp_distance,
    pairwise_distances,
    to_json,
    to_tsplib,
)

from conftest import gline_instance


def test_generate_reference_layout():
    inst = gline_instance(18, 3.0)
    assert inst.n_points == 54
    inner = inst.inner_indices()
    assert len(inner) == 16
    # inner points are g_i = (i+1, 2d) on the middle row
    assert [inst.points[i] for i in inner] == [(float(x), 6.0) for x in range(2, 18)]
    assert {inst.points[i][1] for i in range(inst.n_points)} == {3.0, 6.0, 9.0}


def test_generate_smallest_instance_has_no_inner_points():
    inst = gline_instance(2, 1.0)
    assert inst.n_points == 6
    assert inst.inner_indices() == []


def test_generate_collinear_distance():
    inst = gline_instance(4, 4.0)
    assert inst.n_points == 12
    assert distance(inst, inst.index_of(1, 1), inst.index_of(4, 1)) == pytest.approx(3.0)


def test_lower_boundary_is_bottom_row_plus_middle_ends():
    inst = gline_instance(5, 4.0)
    bl = inst.lower_boundary_indices()
    assert len(bl) == 5 + 2
    assert {inst.roles[i] for i in bl} == {Role.HULL_LOWER, Role.HULL_MIDDLE_END}


@pytest.mark.parametrize("n,d", [(0, 1.0), (1, 1.0), (3, 0.0), (3, -2.0)])
def test_bad_parameters_rejected(n, d):
    with pytest.raises(DomainError):
        InstanceSpec(n=n, d=d)


def test_d_whose_rows_overflow_rejected():
    # the top row sits at y = 3d: 3d must be finite, not only d
    assert InstanceSpec(3, 5e307).d == 5e307
    message = "^d must be a positive real with 3d finite, got 1e\\+308$"
    with pytest.raises(DomainError, match=message):
        InstanceSpec(3, 1e308)
    # an older document at d = 1e308, with its rows at Infinity, is refused
    doc = {"n": 3, "d": 1e308, "p": 2, "roles": [r.value for r in gline_instance(3, 1.0).roles],
           "points": [[x, y * 1e308] for x, y in gline_instance(3, 1.0).points]}
    assert "Infinity" in json.dumps(doc)
    with pytest.raises(DomainError, match=message):
        from_json(json.dumps(doc))
    # an integer d too large for a float is refused with the same message,
    # in a spec and in a document whose points are those of G(3, 1)
    huge = 10 ** 400
    message = f"^d must be a positive real with 3d finite, got {huge}$"
    with pytest.raises(DomainError, match=message):
        InstanceSpec(3, huge)
    doc = json.loads(to_json(gline_instance(3, 1.0)))
    doc["d"] = huge
    with pytest.raises(DomainError, match=message):
        from_json(json.dumps(doc))
    # a bool d is refused like a bool n, so to_json never writes "d": true
    for flag in (True, False):
        with pytest.raises(DomainError, match=f"^d must be a positive real with 3d finite, got {flag}$"):
            InstanceSpec(3, flag)
    doc["d"] = True
    with pytest.raises(DomainError, match="^d must be a positive real with 3d finite, got True$"):
        from_json(json.dumps(doc))


def test_bad_metric_exponent_rejected():
    with pytest.raises(DomainError):
        InstanceSpec(n=3, d=1.0, p=0)
    with pytest.raises(DomainError):
        InstanceSpec(n=3, d=1.0, p=1.5)


MALFORMED_P = [None, [2], -math.inf, math.nan, True]


@pytest.mark.parametrize("p", MALFORMED_P, ids=["null", "list", "-inf", "nan", "true"])
def test_malformed_metric_exponent_is_a_domain_error(p):
    # p was once passed to int() before its type was checked
    message = "^p must be a positive integer or INF"
    with pytest.raises(DomainError, match=message):
        InstanceSpec(n=3, d=1.0, p=p)
    doc = json.loads(to_json(gline_instance(3, 2.0)))
    doc["p"] = p
    with pytest.raises(DomainError, match=message):
        from_json(json.dumps(doc))


def test_distance_examples():
    assert lp_distance((0, 0), (3, 4), 2) == pytest.approx(5.0)
    assert lp_distance((0, 0), (3, 4), 1) == pytest.approx(7.0)
    assert lp_distance((0, 0), (3, 4), INF) == pytest.approx(4.0)
    # raw coordinate arithmetic behind the g_1 example: offsets (2, 3)
    assert lp_distance((2, 6), (0, 3), 2) == pytest.approx(math.sqrt(13))


def test_distance_index_out_of_range():
    inst = gline_instance(2, 1.0)
    with pytest.raises(IndexError):
        distance(inst, 0, 6)


def test_generate_is_pure():
    a = generate(InstanceSpec(n=7, d=2.5, p=3))
    b = generate(InstanceSpec(n=7, d=2.5, p=3))
    assert a == b


def test_json_round_trip():
    inst = gline_instance(4, 4.0)
    again = from_json(to_json(inst))
    assert again == inst
    assert from_json(to_json(inst).encode("utf-8")) == inst  # bytes are decoded as UTF-8


def test_json_round_trip_inf_metric():
    inst = gline_instance(3, 2.0, p=INF)
    doc = json.loads(to_json(inst))
    assert doc["p"] == "inf"
    assert from_json(to_json(inst)) == inst


@pytest.mark.parametrize("text", [
    "not json at all",
    '{"n": 3}',
    '{"n": 3, "d": 1.0, "p": 2, "points": [[0, 0]], "roles": ["INNER"]}',
])
def test_malformed_reimport_rejected(text):
    with pytest.raises(DomainError):
        from_json(text)


def test_tampered_document_rejected():
    doc = json.loads(to_json(gline_instance(3, 2.0)))
    doc["points"][0] = [99.0, 99.0]
    with pytest.raises(DomainError):
        from_json(json.dumps(doc))


def test_tsplib_export():
    inst = gline_instance(4, 4.0)
    text = to_tsplib(inst, scale=1000)
    lines = text.strip().splitlines()
    coord_lines = lines[lines.index("NODE_COORD_SECTION") + 1: lines.index("EOF")]
    assert len(coord_lines) == 12
    assert coord_lines[0].split() == ["1", "1000", "4000"]
    assert "EDGE_WEIGHT_TYPE : EUC_2D" in text


def test_tsplib_requires_euclidean_metric():
    with pytest.raises(DomainError):
        to_tsplib(gline_instance(4, 4.0, p=1))


def test_export_bytes_dispatch():
    inst = gline_instance(3, 1.0)
    assert export(inst, "json").startswith(b"{")
    assert export(inst, "tsplib").startswith(b"NAME")
    with pytest.raises(DomainError):
        export(inst, "csv")


@given(st.integers(2, 9), st.floats(0.1, 50.0, allow_nan=False))
def test_distance_symmetry_and_identity(n, d):
    inst = generate(InstanceSpec(n=n, d=d))
    k = inst.n_points
    for i in range(0, k, max(1, k // 4)):
        for j in range(0, k, max(1, k // 4)):
            assert distance(inst, i, j) == pytest.approx(distance(inst, j, i))
    assert distance(inst, 0, 0) == 0.0


@pytest.mark.parametrize("p", [1, 2, 3, 5, INF])
def test_triangle_inequality_sampled(p, rng):
    pts = rng.uniform(-10.0, 10.0, size=(60, 2))
    for _ in range(300):
        a, b, c = pts[rng.integers(0, len(pts), size=3)]
        assert lp_distance(a, c, p) <= lp_distance(a, b, p) + lp_distance(b, c, p) + 1e-9


def test_pairwise_matches_scalar(rng):
    pts = rng.uniform(-5.0, 5.0, size=(7, 2))
    for p in (1, 2, 4, INF):
        mat = pairwise_distances(pts, p)
        for i in range(7):
            for j in range(7):
                assert mat[i, j] == pytest.approx(lp_distance(pts[i], pts[j], p))


@pytest.mark.parametrize("call", [
    lambda: gline_instance(4, 3.0).index_of(0, 1),
    lambda: coerce_points(np.zeros((4, 3))),
    lambda: to_tsplib(gline_instance(4, 3.0), scale=0),
], ids=["index_of-col", "coerce-shape", "tsplib-scale"])
def test_input_checks_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()
