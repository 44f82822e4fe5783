"""Clutching construction, canonical forms, and the principal axioms."""

import itertools

import pytest

from groupoidal import (Bisection, CechBase, Cocycle, DivisionError,
                        FiniteGroupoid, MomentMismatch, PPoint, StructuralError,
                        build_bundle, bundle_from_json, bundle_to_json,
                        enumerate_bisections, unit_bisection, validate_cocycle,
                        validate_groupoid, verify_principal_axioms)
from groupoidal.bisection import bisection_inverse, left_mult


def test_base_shape():
    base = CechBase(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    assert base.n_charts == 2
    assert base.charts_containing("b") == [0, 1]
    assert base.canonical_chart("b") == 0
    assert base.overlap(0, 1) == ["b"]
    with pytest.raises(StructuralError):
        CechBase(["a", "b"], [["a"]])
    with pytest.raises(StructuralError):
        CechBase(["a"], [["a"], []])


def test_cocycle_fallbacks_are_built_once(three_point_bundle):
    c = three_point_bundle.cocycle
    assert (1, 0, "b") not in c.entries and (0, 0, "b") not in c.entries
    assert c.beta(0, 0, "b") is c.beta(0, 0, "b") == unit_bisection(c.groupoid)
    assert c.beta(1, 0, "b") is c.beta(1, 0, "b")
    assert c.beta(1, 0, "b") == bisection_inverse(c.entries[0, 1, "b"])
    assert c.beta(0, 1, "b") is c.entries[0, 1, "b"]
    with pytest.raises(StructuralError):
        c.beta(0, 1, "a")


def test_point_counts(three_point_bundle):
    assert len(three_point_bundle.points) == 12
    assert len(three_point_bundle.shadow_points) == 6


def test_cocycle_conditions(three_point_bundle):
    assert validate_cocycle(three_point_bundle.base,
                            three_point_bundle.cocycle).ok


def test_cocycle_inverse_fallback(three_point_bundle):
    c = three_point_bundle.cocycle
    b01 = c.beta(0, 1, "b")
    assert c.beta(1, 0, "b") == bisection_inverse(b01)
    assert c.beta(0, 0, "a") == unit_bisection(three_point_bundle.groupoid)
    with pytest.raises(StructuralError):
        c.beta(0, 1, "a")


def test_bad_cocycle_rejected(z2_groupoid):
    base = CechBase(["a", "b"], [["a", "b"], ["a", "b"]])
    g = z2_groupoid
    beta_r = Bisection(g, [g.arrow_index(("r", 0)), g.arrow_index(("r", 1))])
    # a non-unit value on the diagonal violates the cocycle conditions
    cocycle = Cocycle(g, {(0, 1, "a"): beta_r, (0, 1, "b"): beta_r,
                          (0, 0, "a"): beta_r})
    report = validate_cocycle(base, cocycle)
    assert any(v.check == "cocycle:diag" for v in report.violations)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("fibre", ["z2_groupoid", "pair3"])
def test_broken_cocycle_value_on_triple_overlap(request, triple_overlap_bundle,
                                                fibre, n):
    bundle = triple_overlap_bundle(request.getfixturevalue(fibre), n, seed=n)
    entries = dict(bundle.cocycle.entries)
    good = entries[(1, 2, "s0")]
    entries[(1, 2, "s0")] = next(b for b in enumerate_bisections(bundle.groupoid)
                                 if b != good)
    report = validate_cocycle(bundle.base, Cocycle(bundle.groupoid, entries))
    assert {v.check for v in report.violations} == {"cocycle:triple"}
    # every ordering of the three charts at the hub breaks, and nothing else
    assert sorted(v.witness for v in report.violations) == \
        [ijk + ("s0",) for ijk in itertools.permutations(range(3))]


def test_canonical_point_gluing(three_point_bundle):
    bundle = three_point_bundle
    g = bundle.groupoid
    # over "b" a chart-1 coordinate is left-multiplied into chart 0
    a = g.arrow_index(("e", 0))
    p = bundle.canonical_point("b", 1, a)
    assert p.chart == 0
    assert p.arrow == g.arrow_index(("r", 0))
    # reading it back in chart 1 inverts the transport
    assert left_mult(bundle.cocycle.beta(1, 0, "b"), p.arrow) == a
    # chart-0 coordinates are untouched
    assert bundle.canonical_point("a", 0, a) == PPoint("a", 0, a)


def test_moment_and_duck(three_point_bundle):
    bundle = three_point_bundle
    g = bundle.groupoid
    p = PPoint("a", 0, g.arrow_index(("r", 0)))
    assert bundle.moment(p) == 0
    assert bundle.sitting_duck(p).obj == 1


def test_right_action_guard(three_point_bundle):
    bundle = three_point_bundle
    g = bundle.groupoid
    p = PPoint("a", 0, g.arrow_index(("e", 0)))  # moment 0
    h = g.arrow_index(("r", 0))  # target 1
    with pytest.raises(MomentMismatch):
        bundle.right_action(p, h)


def test_division_guard(three_point_bundle):
    bundle = three_point_bundle
    g = bundle.groupoid
    p1 = PPoint("a", 0, g.arrow_index(("e", 0)))
    p2 = PPoint("a", 0, g.arrow_index(("e", 1)))
    with pytest.raises(DivisionError):
        bundle.division(p1, p2)


def test_principal_axioms(three_point_bundle):
    assert verify_principal_axioms(three_point_bundle).ok


def test_duck_fibres_are_orbits(three_point_bundle):
    bundle = three_point_bundle
    for f in bundle.shadow_points:
        fibre = set(bundle.duck_fibre(f))
        assert fibre
        for p in fibre:
            assert bundle.orbit(p) == fibre


def test_b_action_matches_induced(three_point_bundle):
    bundle = three_point_bundle
    for b in enumerate_bisections(bundle.groupoid):
        for p in bundle.points:
            assert bundle.b_action(p, b) == bundle.induced_b_action(p, b)


def test_json_round_trip(three_point_bundle):
    doc = bundle_to_json(three_point_bundle)
    back = bundle_from_json(doc)
    assert back.points == three_point_bundle.points
    assert back.groupoid == three_point_bundle.groupoid
    assert bundle_to_json(back) == doc


def test_malformed_bundle_doc():
    with pytest.raises(StructuralError):
        bundle_from_json({"base": ["a"]})


def test_empty_fibre_rejected():
    g = FiniteGroupoid(0, [], [], [], [], {})
    assert validate_groupoid(g).ok  # an empty groupoid, but no fibre of a bundle
    with pytest.raises(StructuralError, match="no objects"):
        build_bundle(CechBase(["a"], [["a"]]), Cocycle(g, {}), g)
