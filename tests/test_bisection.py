"""Bisection group structure, the arrow actions, and the commutant search."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from groupoidal import (Bisection, InternalError, StructuralError,
                        bisection_inverse, bisection_product,
                        bisection_through, check_structure_identities,
                        conjugate, enumerate_bisections, is_id_reducible,
                        left_mult, pair_groupoid, r_equivariant_commutant,
                        right_mult, unit_bisection, validate_bisection)


def test_z2_bisection_count(z2_groupoid):
    bis = enumerate_bisections(z2_groupoid)
    assert len(bis) == 2
    assert unit_bisection(z2_groupoid) in bis


@given(st.integers(min_value=1, max_value=4))
@settings(deadline=None)
def test_pair_bisection_count_is_factorial(n):
    # sections of the pair groupoid are graphs of permutations
    assert len(enumerate_bisections(pair_groupoid(n))) == math.factorial(n)


def test_group_laws(pair3):
    bis = enumerate_bisections(pair3)
    e = unit_bisection(pair3)
    for b in bis:
        assert bisection_product(b, bisection_inverse(b)) == e
        assert bisection_product(e, b) == b
        assert bisection_product(b, e) == b
    for b1 in bis:
        for b2 in bis:
            prod = bisection_product(b2, b1)
            assert validate_bisection(pair3, prod)
            assert prod in bis


def test_shadow_is_homomorphism(pair3):
    bis = enumerate_bisections(pair3)
    for b1 in bis:
        for b2 in bis:
            sh1, sh2 = b1.shadow(), b2.shadow()
            composed = tuple(sh2[sh1[m]] for m in pair3.objects)
            assert bisection_product(b2, b1).shadow() == composed


def test_invalid_sections_rejected(z2_groupoid, pair3):
    g = z2_groupoid
    # both values in the same source fibre but with colliding shadow
    e0, r0 = g.arrow_index(("e", 0)), g.arrow_index(("r", 1))
    b = Bisection(g, [e0, r0])
    assert not validate_bisection(g, b)  # shadow hits 0 twice
    b2 = Bisection(g, [g.arrow_index(("e", 1)), g.arrow_index(("e", 1))])
    assert not validate_bisection(g, b2)  # not a section of s
    assert not validate_bisection(g, unit_bisection(pair3))  # 3 values, 2 objects


def test_wrong_length_rejected(z2_groupoid):
    with pytest.raises(StructuralError):
        Bisection(z2_groupoid, [1])
    with pytest.raises(StructuralError):
        Bisection(z2_groupoid, [0, 3, 1])


def test_left_right_conjugate_agree_with_definitions(z2_groupoid):
    g = z2_groupoid
    for b in enumerate_bisections(g):
        shinv = b.shadow_inverse
        for a in g.arrows:
            assert left_mult(b, a) == g.compose(b(g.tgt[a]), a)
            assert right_mult(a, b) == g.compose(a, b(shinv[g.src[a]]))
            assert conjugate(b, a) == g.compose(
                g.compose(b(g.tgt[a]), a), g.inv[b(g.src[a])])


def test_structure_identity_suite(z2_groupoid, pair3):
    assert check_structure_identities(z2_groupoid).ok
    assert check_structure_identities(pair3).ok


def test_structure_identities_catch_corruption():
    # a one-object "group" with a twisted product stays total but breaks
    # the multiplication identities
    from groupoidal import FiniteGroupoid, group_groupoid
    elements = list(range(4))
    mult = {(a, b): (a + b) % 4 for a in elements for b in elements}
    g = group_groupoid(elements, mult, 0, {a: (-a) % 4 for a in elements})
    mul = dict(g.mul)
    mul[(1, 1)], mul[(1, 3)] = mul[(1, 3)], mul[(1, 1)]
    bad = FiniteGroupoid(g.n_objects, g.src, g.tgt, g.unit, g.inv, mul)
    assert not check_structure_identities(bad).ok


def test_bisection_through_every_arrow(z2_groupoid, pair3):
    for g in (z2_groupoid, pair3):
        for a in g.arrows:
            b = bisection_through(g, a)
            assert b is not None
            assert b(g.src[a]) == a
            assert validate_bisection(g, b)


def test_bisection_through_checks_its_result(monkeypatch, pair3):
    # a result that fails validation is a bug in the library, not bad
    # input, and -O keeps the check
    import groupoidal.bisection as bisection
    monkeypatch.setattr(bisection, "validate_bisection", lambda g, b: False)
    with pytest.raises(InternalError) as info:
        bisection_through(pair3, 0)
    assert not isinstance(info.value, ValueError)


def test_id_reducibility(z2_groupoid, pair3):
    from groupoidal import fibred_pair_groupoid
    for g in (z2_groupoid, pair3):
        flag, witness = is_id_reducible(g)
        assert flag
        assert set(witness) == set(g.arrows)
    # two blocks of different size: no global bisection moves across blocks,
    # but within-block arrows still extend, so this stays reducible
    g2 = fibred_pair_groupoid([[0], [1, 2]])
    flag, witness = is_id_reducible(g2)
    assert flag


def test_commutant_equals_left_translations(z2_groupoid, pair3):
    for g, expected in ((z2_groupoid, 2), (pair3, 6)):
        comm = r_equivariant_commutant(g)
        assert comm["r_equals_left_translations"]
        assert len(comm["r_commutant"]) == expected
        assert len(comm["left_translations"]) == expected


def test_left_translations_commute_with_right_translations(pair3):
    g = pair3
    for b in enumerate_bisections(g):
        for (x, h), prod in g.mul.items():
            assert left_mult(b, prod) == g.compose(left_mult(b, x), h)
