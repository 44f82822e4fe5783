"""Clutching construction, canonical forms, and the principal axioms."""

import itertools
import random

import pytest

from groupoidal import (Bisection, CechBase, Cocycle, DivisionError,
                        FiniteGroupoid, MomentMismatch, PPoint, StructuralError,
                        ValidationReport, build_bundle, bundle_from_json,
                        bundle_to_json, enumerate_bisections, pair_groupoid,
                        unit_bisection, validate_cocycle, validate_groupoid,
                        verify_principal_axioms)
from groupoidal.bisection import bisection_inverse, bisection_product, left_mult


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


def oracle_cocycle_report(base, c):
    """validate_cocycle over every ordered pair and triple of charts."""
    report = ValidationReport()
    unit = unit_bisection(c.groupoid)
    charts = range(base.n_charts)
    for key in c.entries:
        i, j, sigma = key
        if i in charts and j in charts and sigma not in base.cover[i] & base.cover[j]:
            report.add("cocycle:domain", key, "sigma off chart i or chart j")
    for key in ((i, i, sigma) for i in charts for sigma in base.cover[i]):
        if key in c.entries:
            report.record("cocycle:diag", c.entries[key] == unit, key)
    for i, j in itertools.product(charts, repeat=2):
        for sigma in base.overlap(i, j) if i != j else ():
            prod = bisection_product(c.beta(i, j, sigma), c.beta(j, i, sigma))
            report.record("cocycle:inverse", prod == unit, (i, j, sigma))
    for i, j, k in itertools.product(charts, repeat=3):
        triple = base.cover[i] & base.cover[j] & base.cover[k]
        for sigma in triple if len({i, j, k}) == 3 else ():
            lhs = bisection_product(c.beta(i, j, sigma), c.beta(j, k, sigma))
            report.record("cocycle:triple", lhs == c.beta(i, k, sigma), (i, j, k, sigma))
    return report


def test_cocycle_report_matches_all_chart_loops(z2_groupoid):
    # seeded covers of 1-6 points by 1-6 charts, values on every overlap
    # (units, or seeded choices that break conditions), and stray entries
    rng = random.Random(5)
    for _ in range(300):
        g = rng.choice([z2_groupoid, pair_groupoid(3)])
        bis, unit = enumerate_bisections(g), unit_bisection(g)
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        base = ["p{}".format(i) for i in range(n)]
        cover = [set(rng.sample(base, rng.randint(1, n))) for _ in range(m)]
        for sigma in base:
            if not any(sigma in chart for chart in cover):
                rng.choice(cover).add(sigma)
        p_unit = rng.choice([0.9, 1.0])
        entries = {(i, j, sigma): unit if rng.random() < p_unit else rng.choice(bis)
                   for i, j in itertools.product(range(m), repeat=2)
                   for sigma in sorted(cover[i] & cover[j])}
        for _ in range(rng.randint(0, 2)):
            entries[(rng.randrange(m + 1), rng.randrange(m), rng.choice(base))] = rng.choice(bis)
        cech, c = CechBase(base, cover), Cocycle(g, entries)
        assert validate_cocycle(cech, c).to_dict() == oracle_cocycle_report(cech, c).to_dict()


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
