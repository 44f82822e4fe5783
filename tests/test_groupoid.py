"""Axiom validation and the stock constructors."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from groupoidal import (CompositionError, FiniteGroupAction, FiniteGroupoid,
                        StructuralError, ValidationReport, fibred_pair_groupoid,
                        group_groupoid, pair_groupoid, product_groupoid,
                        validate_groupoid)

from test_bisection_tables import action, fibred, groups


def test_z2_action_groupoid_shape(z2_groupoid):
    g = z2_groupoid
    assert g.n_objects == 2
    assert g.n_arrows == 4
    assert validate_groupoid(g).ok
    # arrow (r, 0) runs 0 -> 1
    a = g.arrow_index(("r", 0))
    assert g.src[a] == 0 and g.tgt[a] == 1
    # (r, 1).(r, 0) = (e, 0)
    b = g.arrow_index(("r", 1))
    assert g.compose(b, a) == g.arrow_index(("e", 0))


def test_pair_groupoid_valid(pair3):
    assert pair3.n_arrows == 9
    assert validate_groupoid(pair3).ok


@given(st.integers(min_value=1, max_value=4))
def test_pair_groupoid_axioms(n):
    assert validate_groupoid(pair_groupoid(n)).ok


def test_group_groupoid():
    elements = ["e", "r"]
    mult = {("e", "e"): "e", ("e", "r"): "r", ("r", "e"): "r", ("r", "r"): "e"}
    g = group_groupoid(elements, mult, "e", {"e": "e", "r": "r"})
    assert g.n_objects == 1
    assert validate_groupoid(g).ok


def test_fibred_pair_groupoid():
    g = fibred_pair_groupoid([[0, 1], [2, 3, 4]])
    assert g.n_arrows == 4 + 9
    assert validate_groupoid(g).ok
    a01 = g.arrow_index((0, 1))
    a23 = g.arrow_index((2, 3))
    with pytest.raises(CompositionError):
        g.compose(a01, a23)


def test_product_groupoid(z2_groupoid, pair3):
    g = product_groupoid(z2_groupoid, pair3)
    assert g.n_objects == 6
    assert g.n_arrows == 36
    assert validate_groupoid(g).ok
    assert g.arrow_index((3, 5)) == 3 * 9 + 5


def test_pair_groupoid_is_one_block_fibred():
    for n in range(4):
        g, h = pair_groupoid(n), fibred_pair_groupoid([list(range(n))])
        assert g == h
        assert g.arrow_labels == h.arrow_labels


def eager_pair(blocks):
    """The fibred pair groupoid as its labels once built it: every label
    (m2, m1) at once, and mul found by trying every pair of labels."""
    labels = [(m2, m1) for block in blocks for m2 in block for m1 in block]
    points = sorted(p for block in blocks for p in block)
    ids = {x: k for k, x in enumerate(labels)}
    mul = {(ids[x], ids[y]): ids[x[0], y[1]] for x in labels for y in labels if x[1] == y[0]}
    return FiniteGroupoid(len(points), [x[1] for x in labels], [x[0] for x in labels],
                          [ids[m, m] for m in points], [ids[x[1], x[0]] for x in labels],
                          mul, labels)


@pytest.mark.parametrize("blocks", [[range(k)] for k in range(1, 9)]
                         + [[[0, 2], [1]], [[1, 0], [2, 4, 3]], [[3], [0, 1, 2]]])
def test_pair_groupoids_match_their_labelled_construction(blocks):
    g, oracle = fibred_pair_groupoid(blocks), eager_pair(blocks)
    if len(blocks) == 1:
        assert g == pair_groupoid(len(blocks[0]))
    # the maps and rows come from arithmetic; the labels on first read
    assert not {"arrow_labels", "_arrow_ids"} & set(vars(g))
    assert g == oracle and list(g.mul.items()) == list(oracle.mul.items())
    assert (g.source_fibres, g.target_fibres) == (oracle.source_fibres, oracle.target_fibres)
    assert g.to_json() == oracle.to_json()
    assert g.arrow_labels == oracle.arrow_labels and g.arrow_labels is g.arrow_labels
    assert [g.arrow_index(x) for x in oracle.arrow_labels] == list(oracle.arrows)
    assert validate_groupoid(g).ok


@pytest.mark.parametrize("blocks, message", [
    ([[0, 2]], "dense range"), ([[0, 1], [1]], "dense range"),
    ([[0, 1.0]], "object id not an int in range: 1.0")])
def test_pair_groupoid_blocks_are_checked(blocks, message):
    with pytest.raises(StructuralError, match=message):
        fibred_pair_groupoid(blocks)


def all_pairs_product(g1, g2):
    """The product as a FiniteGroupoid built from every ordered pair of its
    arrows, composed factor by factor where they compose."""
    n2, k2 = g2.n_objects, g2.n_arrows
    arrows = [(a1, a2) for a1 in g1.arrows for a2 in g2.arrows]
    src = [g1.src[a1] * n2 + g2.src[a2] for a1, a2 in arrows]
    tgt = [g1.tgt[a1] * n2 + g2.tgt[a2] for a1, a2 in arrows]
    mul = {(a, b): g1.compose(x[0], y[0]) * k2 + g2.compose(x[1], y[1])
           for a, x in enumerate(arrows) for b, y in enumerate(arrows) if src[a] == tgt[b]}
    return FiniteGroupoid(g1.n_objects * n2, src, tgt,
                          [u1 * k2 + u2 for u1 in g1.unit for u2 in g2.unit],
                          [g1.inv[a1] * k2 + g2.inv[a2] for a1, a2 in arrows], mul)


factors = st.one_of(st.integers(1, 3).map(pair_groupoid), fibred(max_points=4),
                    groups, action()).filter(lambda g: g.n_arrows <= 12)


@given(factors, factors)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_generated_products_match_all_pairs_construction(g1, g2):
    g, oracle = product_groupoid(g1, g2), all_pairs_product(g1, g2)
    assert g == oracle and list(g.mul.items()) == list(oracle.mul.items())
    assert (g.n_objects, g.unit, g.inv) == (oracle.n_objects, oracle.unit, oracle.inv)
    assert (g.source_fibres, g.target_fibres) == (oracle.source_fibres, oracle.target_fibres)
    assert g.arrow_labels == tuple((a1, a2) for a1 in g1.arrows for a2 in g2.arrows)


def test_product_of_a_factor_missing_a_product_raises(z2_groupoid, pair3):
    mul = dict(z2_groupoid.mul.items())
    del mul[next(iter(mul))]
    bad = FiniteGroupoid(2, z2_groupoid.src, z2_groupoid.tgt, z2_groupoid.unit,
                         z2_groupoid.inv, mul)
    with pytest.raises(CompositionError) as want:
        bad.rows()
    for g1, g2 in ((bad, pair3), (pair3, bad)):
        with pytest.raises(CompositionError) as got:
            product_groupoid(g1, g2)
        assert str(got.value) == str(want.value)


def test_stock_tables_fill_mul_in_sorted_order(z2_groupoid, pair3):
    z3 = group_groupoid([0, 1, 2], {(a, b): (a + b) % 3 for a in range(3)
                                    for b in range(3)},
                        0, {a: (-a) % 3 for a in range(3)})
    for g in (pair3, z2_groupoid, z3, fibred_pair_groupoid([[0, 3], [1, 2, 4]]),
              product_groupoid(z2_groupoid, pair3)):
        assert list(g.mul) == sorted(g.mul)


def test_non_composable_raises(z2_groupoid):
    g = z2_groupoid
    a = g.arrow_index(("r", 0))  # 0 -> 1
    with pytest.raises(CompositionError):
        g.compose(a, a)


def test_negative_ids_are_off_the_table(z2_groupoid):
    # -1 does not wrap around to the last arrow's row
    g = z2_groupoid
    last = g.n_arrows - 1
    b = next(b for b in g.arrows if g.composable(last, b))
    for a, b in ((-1, b), (last, b - g.n_arrows)):
        with pytest.raises(CompositionError) as got:
            g.compose(a, b)
        assert str(got.value) == str(g.composition_error(a, b))
        assert (a, b) not in g.mul


@pytest.mark.parametrize("a, b", [(99, 0), (0, 99), (-1, 0)])
def test_ids_off_the_table_raise_composition_error(a, b):
    # never IndexError, and no wrapped arrow's source or target in the message
    g = pair_groupoid(2)
    with pytest.raises(CompositionError) as got:
        g.compose(a, b)
    assert str(got.value) == "non-composable pair: {!r} is off the table".format((a, b))


def test_mul_view_answers_keys_that_are_not_ids():
    # as a dict of int pairs would: absent, never TypeError
    g = pair_groupoid(2)
    for key in (("a", "b"), (0.5, 0), (0, 0.5), (None, 0), (0, 0, 0), "x", (-1, 0)):
        assert key not in g.mul
        assert g.mul.get(key) is None
        with pytest.raises(KeyError):
            g.mul[key]
    assert (0, 0) in g.mul and g.mul.get((0, 0)) == 0


def test_corrupted_inverse_detected(z2_groupoid):
    g = z2_groupoid
    bad_inv = list(g.inv)
    bad_inv[0], bad_inv[2] = bad_inv[2], bad_inv[0]
    bad = FiniteGroupoid(g.n_objects, g.src, g.tgt, g.unit, bad_inv, g.mul)
    report = validate_groupoid(bad)
    assert not report.ok
    assert any(v.check.startswith("iv:") for v in report.violations)


def test_missing_product_detected(pair3):
    g = pair3
    mul = dict(reversed(list(g.mul.items())))
    key, last = next(iter(g.mul)), list(g.mul)[-1]
    del mul[key], mul[last]
    bad = FiniteGroupoid(g.n_objects, g.src, g.tgt, g.unit, g.inv, mul)
    report = validate_groupoid(bad)
    assert any(v.check == "i:mul-total" and v.witness == key
               for v in report.violations)
    # rows() raises at the first missing product in row order, not the
    # mapping's order, and compose at the pair it is asked for
    for call in (bad.rows, lambda: bad.compose(*key)):
        with pytest.raises(CompositionError) as got:
            call()
        assert str(got.value) == str(bad.composition_error(*key)) != str(
            bad.composition_error(*last))


def test_extra_product_detected(z2_groupoid):
    g = z2_groupoid
    a = g.arrow_index(("r", 0))
    mul = dict(g.mul)
    mul[(a, a)] = a
    bad = FiniteGroupoid(g.n_objects, g.src, g.tgt, g.unit, g.inv, mul)
    assert any(v.check == "i:mul-domain" for v in validate_groupoid(bad).violations)


def test_out_of_range_table_rejected():
    with pytest.raises(StructuralError):
        FiniteGroupoid(1, [0], [0], [5], [0], {})


def test_sparse_action_tables_rejected():
    mult = {("e", "e"): "e", ("e", "r"): "r", ("r", "e"): "r", ("r", "r"): "e"}
    act = {("e", 0): 0, ("e", 1): 1, ("r", 0): 1, ("r", 1): 0}
    inverse = {"e": "e", "r": "r"}
    sparse_act = {k: v for k, v in act.items() if k != ("e", 1)}
    with pytest.raises(StructuralError, match=r"\('e', 1\)"):
        FiniteGroupAction(["e", "r"], mult, "e", inverse, 2, sparse_act)
    sparse_mult = {k: v for k, v in mult.items() if k != ("r", "r")}
    with pytest.raises(StructuralError, match=r"\('r', 'r'\)"):
        FiniteGroupAction(["e", "r"], sparse_mult, "e", inverse, 2, act)


def test_action_table_must_be_an_action():
    mult = {("e", "e"): "e", ("e", "r"): "r", ("r", "e"): "r", ("r", "r"): "e"}
    inverse = {"e": "e", "r": "r"}
    moved = {("e", 0): 1, ("e", 1): 0, ("r", 0): 1, ("r", 1): 0}
    with pytest.raises(StructuralError, match=r"^act\(e, m\) != m at m=0$"):
        FiniteGroupAction(["e", "r"], mult, "e", inverse, 2, moved)
    # r sends both points to 0, so r.(r.1) = 0 but (r.r).1 = e.1 = 1
    collapsed = {("e", 0): 0, ("e", 1): 1, ("r", 0): 0, ("r", 1): 0}
    with pytest.raises(StructuralError, match=r"^action not homomorphic at \('r', 'r', 1\)$"):
        FiniteGroupAction(["e", "r"], mult, "e", inverse, 2, collapsed)


def test_inverse_table_checked():
    mult = {("e", "e"): "e", ("e", "r"): "r", ("r", "e"): "r", ("r", "r"): "e"}
    act = {("e", 0): 0, ("e", 1): 1, ("r", 0): 1, ("r", 1): 0}
    with pytest.raises(StructuralError, match="'r'"):
        FiniteGroupAction(["e", "r"], mult, "e", {"e": "e"}, 2, act)
    with pytest.raises(StructuralError, match="inverse of 'r'"):
        FiniteGroupAction(["e", "r"], mult, "e", {"e": "e", "r": "e"}, 2, act)


@given(st.integers(min_value=1, max_value=4))
def test_json_round_trip(n):
    g = pair_groupoid(n)
    assert FiniteGroupoid.from_json(g.to_json()) == g


def test_groupoid_is_not_equal_to_other_objects(z2_groupoid):
    assert z2_groupoid != z2_groupoid.to_json()
    assert z2_groupoid != "z2"
    assert z2_groupoid.__eq__(None) is False


def test_json_rejects_sparse_ids(z2_groupoid):
    doc = z2_groupoid.to_json()
    doc["arrows"][0]["id"] = 99
    with pytest.raises(StructuralError):
        FiniteGroupoid.from_json(doc)


def test_json_rejects_repeated_mul_pair(z2_groupoid):
    # a row [0, 0, 3] ahead of [0, 0, 0] says 0.0 is both 3 and 0
    doc = z2_groupoid.to_json()
    doc["mul"].insert(doc["mul"].index([0, 0, 0]), [0, 0, 3])
    with pytest.raises(StructuralError, match=r"repeats the pair \(0, 0\)"):
        FiniteGroupoid.from_json(doc)


def test_validation_collects_all_violations(z2_groupoid):
    g = z2_groupoid
    bad_unit = [g.unit[1], g.unit[0]]
    bad = FiniteGroupoid(g.n_objects, g.src, g.tgt, bad_unit, g.inv, g.mul)
    report = validate_groupoid(bad)
    # both unit-src checks fail, and neither stops the other
    witnesses = {v.witness for v in report.violations if v.check == "iii:unit-src"}
    assert witnesses == {0, 1}


def test_report_repr_names_its_verdict_and_violations():
    report = ValidationReport()
    report.record("x:holds", True, 1)
    assert repr(report) == "ValidationReport(ok=True, violations=[])"
    report.record("x:fails", False, (0, 1))
    assert repr(report) == \
        "ValidationReport(ok=False, violations=[Violation('x:fails', witness=(0, 1))])"
