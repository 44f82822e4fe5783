"""The symmetry groupoid over the shadow bundle and its exact sequence."""

import re
from itertools import product as iproduct

import pytest

from groupoidal import (AtiyahGroupoid, AdjointBundle, CompositionError,
                        FiniteGroupoid, MomentMismatch, StructuralError,
                        enumerate_gauge_group,
                        enumerate_projectable_bisections, pair_groupoid,
                        product_groupoid, validate_groupoid,
                        verify_atiyah_sequence, verify_bisection_correspondence,
                        verify_gauge_group, verify_principal_axioms, verify_trident)
import groupoidal.atiyah as atiyah_module
from groupoidal.atiyah import AtElement


@pytest.fixture(scope="module")
def at(three_point_bundle):
    return AtiyahGroupoid(three_point_bundle)


@pytest.fixture(scope="module")
def adjoint(three_point_bundle):
    return AdjointBundle(three_point_bundle)


def test_element_count(at, adjoint, three_point_bundle):
    # |Sigma|^2 base pairs, one copy of the fibre groupoid each
    assert len(at.elements) == 9 * three_point_bundle.groupoid.n_arrows == 36
    assert len(adjoint.elements) == 3 * three_point_bundle.groupoid.n_arrows == 12


def test_is_a_groupoid_over_shadow_points(at):
    fg = at.as_finite_groupoid()
    assert fg.n_objects == 6
    assert fg.n_arrows == 36
    assert validate_groupoid(fg).ok


def all_pairs_table(at):
    """The finite groupoid over shadow points, with mul found by testing
    every ordered pair of elements for composability."""
    fpoints = at.bundle.shadow_points
    findex = {f: k for k, f in enumerate(fpoints)}
    g = at.bundle.groupoid
    src = [findex[at.source(e)] for e in at.elements]
    tgt = [findex[at.target(e)] for e in at.elements]
    unit = [at.index(at.unit(f)) for f in fpoints]
    inv = [at.index(at.invert(e)) for e in at.elements]
    mul = {}
    for k1, e1 in enumerate(at.elements):
        for k2, e2 in enumerate(at.elements):
            if at.source(e1) == at.target(e2):
                prod = AtElement(e1.sigma1, e1.chart_i,
                                 g.compose(e1.arrow, e2.arrow),
                                 e2.sigma2, e2.chart_j)
                mul[(k1, k2)] = at.index(prod)
    return FiniteGroupoid(len(fpoints), src, tgt, unit, inv, mul,
                          arrow_labels=at.elements, object_labels=fpoints)


def assert_table_matches_all_pairs(at):
    fg = at.as_finite_groupoid()
    oracle = all_pairs_table(at)
    assert fg == oracle
    assert list(fg.mul.items()) == list(oracle.mul.items())
    assert fg.arrow_labels == oracle.arrow_labels
    assert fg.object_labels == oracle.object_labels


def test_table_matches_all_pairs_construction(at):
    assert_table_matches_all_pairs(at)


@pytest.mark.parametrize("fibre,k", [("z2_groupoid", 3), ("z2_groupoid", 4), ("pair3", 3)])
def test_chain_table_matches_all_pairs_construction(
        request, chain_bundle, fibre, k):
    g = request.getfixturevalue(fibre)
    assert_table_matches_all_pairs(AtiyahGroupoid(chain_bundle(g, k, seed=k)))


def test_table_is_pair_groupoid_times_fibre(three_point_bundle, chain_bundle,
                                           z2_groupoid, pair3):
    # with canonical charts At(P) over a finite base is Pair(B) x G, arrow
    # for arrow and in the same mul order
    bundles = [three_point_bundle] + [chain_bundle(g, k, seed=k)
                                      for g in (z2_groupoid, pair3)
                                      for k in (3, 4, 5)]
    for bundle in bundles:
        fg = AtiyahGroupoid(bundle).as_finite_groupoid()
        product = product_groupoid(pair_groupoid(len(bundle.base.base)),
                                   bundle.groupoid)
        assert fg == product
        assert list(fg.mul.items()) == list(product.mul.items())


def test_table_is_built_once(at):
    assert at.as_finite_groupoid() is at.as_finite_groupoid()


def test_canonicalization(at, three_point_bundle):
    bundle = three_point_bundle
    g = bundle.groupoid
    # resolve an element over (b, b) in charts (1, 1); both ends transport
    a = g.arrow_index(("e", 0))
    e = at.canonical("b", 1, a, "b", 1)
    assert e.chart_i == 0 and e.chart_j == 0
    direct = at.canonical("b", 0, g.arrow_index(("e", 0)), "b", 0)
    # transporting both ends by the swap conjugates the arrow
    from groupoidal import conjugate
    swap = bundle.cocycle.beta(0, 1, "b")
    assert e.arrow == conjugate(swap, a)
    assert direct.arrow == a


def test_structure_map_guards(at):
    e = at.elements[0]
    bad = next(x for x in at.elements if at.target(x) != at.source(e))
    with pytest.raises(CompositionError):
        at.multiply(e, bad)
    p_bad = next(p for p in at.bundle.points
                 if at.bundle.sitting_duck(p) != at.source(e))
    with pytest.raises(MomentMismatch):
        at.act_on_bundle(e, p_bad)
    assert at.act_on_shadow(e, at.source(e)) == at.target(e)
    f_bad = next(f for f in at.bundle.shadow_points if f != at.source(e))
    with pytest.raises(MomentMismatch, match="^element source differs from the shadow point$"):
        at.act_on_shadow(e, f_bad)
    p1, p2 = next((p, q) for p in at.bundle.points for q in at.bundle.points
                  if at.bundle.moment(p) != at.bundle.moment(q))
    with pytest.raises(MomentMismatch, match="^moments differ$"):
        at.division(p1, p2)


def test_sequence_exact(three_point_bundle, at, adjoint):
    assert verify_atiyah_sequence(three_point_bundle, at, adjoint).ok


def test_adjoint_canonicalization(adjoint, three_point_bundle):
    bundle = three_point_bundle
    g = bundle.groupoid
    from groupoidal import conjugate
    swap = bundle.cocycle.beta(0, 1, "b")
    for a in g.arrows:
        e = adjoint.canonical("b", 1, a)
        assert e.chart == 0
        assert e.arrow == conjugate(swap, a)


def test_trident(three_point_bundle, at):
    assert verify_trident(three_point_bundle, at).ok


def test_division_is_action_inverse(three_point_bundle, at):
    bundle = three_point_bundle
    for p1 in bundle.points:
        for p2 in bundle.points:
            if bundle.moment(p1) != bundle.moment(p2):
                continue
            e = at.division(p1, p2)
            assert at.act_on_bundle(e, p2) == p1


def test_orbits_of_full_action_cover_fibre_classes(three_point_bundle, at):
    # acting with every element reaches every point with the same moment
    bundle = three_point_bundle
    p0 = bundle.points[0]
    reached = {at.act_on_bundle(e, p0) for e in at.elements
               if at.source(e) == bundle.sitting_duck(p0)}
    expected = {p for p in bundle.points
                if bundle.moment(p) == bundle.moment(p0)}
    assert reached == expected


def test_projectable_bisections(three_point_bundle, at):
    projectable, vertical = enumerate_projectable_bisections(
        three_point_bundle, at)
    # every projectable bisection covers one of the 3! base bijections
    assert len(projectable) == 48
    assert len(vertical) == 8
    for b in vertical:
        for k, fp in enumerate(three_point_bundle.shadow_points):
            assert at.elements[b(k)].sigma1 == fp.sigma


@pytest.mark.parametrize("fibre", ["z2_groupoid", "pair3"])
def test_batteries_that_never_read_mul_leave_it_unfilled(request, chain_bundle, fibre):
    bundle = chain_bundle(request.getfixturevalue(fibre), 3, seed=3)
    at = AtiyahGroupoid(bundle)
    fg = at.as_finite_groupoid()
    gauge = enumerate_gauge_group(bundle)
    assert validate_groupoid(fg).ok
    assert verify_atiyah_sequence(bundle, at).ok
    assert verify_principal_axioms(bundle).ok
    assert verify_trident(bundle, at).ok
    assert all(verify_bisection_correspondence(bundle, at, aut).ok for aut in gauge[::7])
    assert verify_gauge_group(bundle, gauge, at=at).ok
    projectable, vertical = enumerate_projectable_bisections(bundle, at)
    assert len(projectable) == 6 * len(gauge) and len(vertical) == len(gauge)
    assert list(fg.mul.items()) == list(all_pairs_table(at).mul.items())


def stores_pair_dict(fg):
    """Whether a table holds a dict keyed by pairs of arrows."""
    return any(isinstance(v, dict) and v and all(type(k) is tuple for k in v)
               for v in vars(fg).values())


@pytest.mark.parametrize("fibre", ["z2_groupoid", "pair3"])
def test_mul_view_builds_nothing(request, chain_bundle, fibre):
    bundle = chain_bundle(request.getfixturevalue(fibre), 4, seed=4)
    fg = AtiyahGroupoid(bundle).as_finite_groupoid()
    before = set(vars(fg))
    # the count of composable pairs, read off the fibres: no rows, no dict
    assert len(fg.mul) == sum(len(s) * len(t) for s, t in zip(fg.source_fibres,
                                                               fg.target_fibres))
    assert set(vars(fg)) == before and "_table" not in before
    assert len(fg.mul) == sum(map(len, fg.rows())) == len(list(fg.mul))
    key = next(iter(fg.mul))
    with pytest.raises(TypeError):
        fg.mul[key] = 0
    with pytest.raises(AttributeError):
        fg.mul = {}
    assert not stores_pair_dict(fg)
    assert not stores_pair_dict(all_pairs_table(AtiyahGroupoid(bundle)))


@pytest.mark.parametrize("fibre,k", [("z2_groupoid", 9), ("pair3", 6)])
def test_rows_share_one_int_per_id(request, chain_bundle, fibre, k):
    # past id 256, so the ints are not CPython's small-int singletons
    fg = AtiyahGroupoid(chain_bundle(request.getfixturevalue(fibre), k,
                                     seed=k)).as_finite_groupoid()
    assert fg.n_arrows > 257
    assert len({id(c) for row in fg.rows() for c in row}) <= fg.n_arrows


@pytest.mark.parametrize("fibre", ["z2_groupoid", "pair3"])
def test_unfilled_table_acts_as_filled(request, chain_bundle, fibre):
    bundle = chain_bundle(request.getfixturevalue(fibre), 3, seed=3)
    oracle = all_pairs_table(AtiyahGroupoid(bundle))

    def fresh():
        return AtiyahGroupoid(bundle).as_finite_groupoid()
    assert fresh() == oracle and oracle == fresh() and fresh() != pair_groupoid(3)
    assert fresh().to_json() == oracle.to_json()
    pairs = [(a, b) for a in (0, 5, oracle.n_arrows - 1) for b in oracle.arrows]
    for a, b in pairs:
        if oracle.composable(a, b):
            assert fresh().compose(a, b) == oracle.compose(a, b)
    a, b = next(p for p in pairs if not oracle.composable(*p))
    with pytest.raises(CompositionError) as got:
        fresh().compose(a, b)
    with pytest.raises(CompositionError) as want:
        oracle.compose(a, b)
    assert str(got.value) == str(want.value)


def eager_atiyah(bundle):
    """The element list and table labels as the symmetry groupoid once built
    them, all at construction: canonical charts at both ends, base pairs in
    base order, then fibre arrows."""
    base = bundle.base
    charts = [(s, base.canonical_chart(s)) for s in base.base]
    elements = [AtElement(s1, i, a, s2, j) for (s1, i), (s2, j)
                in iproduct(charts, repeat=2) for a in bundle.groupoid.arrows]
    return elements, tuple(elements), tuple(bundle.shadow_points)


def built_on_read(at):
    """The parts of at and its table that are built on first read, and are built."""
    return ({"elements"} & set(vars(at))
            | {"arrow_labels", "object_labels", "_arrow_ids"} & set(vars(at.as_finite_groupoid())))


@pytest.mark.parametrize("fibre", ["z2_groupoid", "pair3"])
@pytest.mark.parametrize("k", range(3, 9))
def test_lazy_parts_match_eager_construction(request, chain_bundle, fibre, k):
    bundle = chain_bundle(request.getfixturevalue(fibre), k, seed=k)
    elements, arrow_labels, object_labels = eager_atiyah(bundle)
    at = AtiyahGroupoid(bundle)
    fg = at.as_finite_groupoid()
    # ids by arithmetic, as the label lookup gave them, with nothing built
    assert [at.index(e) for e in elements] == list(range(len(elements)))
    assert not built_on_read(at)
    assert fg.arrow_labels == arrow_labels and fg.object_labels == object_labels
    assert at.elements == elements and at.elements is at.elements
    assert [fg.label(c) for c in fg.arrows] == elements
    assert fg.arrow_labels is fg.arrow_labels and fg.object_labels is fg.object_labels
    assert [fg.arrow_index(e) for e in elements] == list(range(len(elements)))
    # Pair(k) rows are shared per target, so one row per (target, fibre arrow)
    assert len({id(row) for row in fg.rows()}) == k * bundle.groupoid.n_arrows


@pytest.mark.parametrize("fibre", ["z2_groupoid", "pair3"])
def test_batteries_that_read_no_element_build_none(request, chain_bundle, fibre):
    g = request.getfixturevalue(fibre)
    bundle = chain_bundle(g, 4, seed=4)
    at = AtiyahGroupoid(bundle)
    fg = at.as_finite_groupoid()
    assert not built_on_read(at)
    assert validate_groupoid(fg).ok and verify_trident(bundle, at).ok
    assert len(fg.mul) == sum(map(len, fg.rows()))
    assert verify_atiyah_sequence(bundle, at).ok
    gauge = enumerate_gauge_group(bundle)
    assert all(verify_bisection_correspondence(bundle, at, aut).ok for aut in gauge[::5])
    projectable, vertical = enumerate_projectable_bisections(bundle, at)
    assert len(projectable) == 24 * len(gauge) and len(vertical) == len(gauge)
    # closure costs |gauge|^2 products, so the gauge group is checked over 3 points
    small = chain_bundle(g, 3, seed=3)
    small_at = AtiyahGroupoid(small)
    assert verify_gauge_group(small, at=small_at).ok
    assert not built_on_read(at) and not built_on_read(small_at)
    # a product decodes its one label from its id
    e = at.unit(bundle.shadow_points[5])
    assert at.multiply(e, e) == e
    assert not built_on_read(at)


@pytest.mark.parametrize("fibre", ["z2_groupoid", "pair3"])
def test_fresh_symmetry_groupoid_builds_no_pair_labels(request, chain_bundle,
                                                       monkeypatch, fibre):
    made = []

    def pair(k):
        made.append(pair_groupoid(k))
        return made[-1]
    monkeypatch.setattr(atiyah_module, "pair_groupoid", pair)
    bundle = chain_bundle(request.getfixturevalue(fibre), 5, seed=5)
    at = AtiyahGroupoid(bundle)
    fg = at.as_finite_groupoid()
    assert validate_groupoid(fg).ok and verify_trident(bundle, at).ok
    assert verify_atiyah_sequence(bundle, at).ok
    assert len(made) == 1 and made[0].n_objects == 5
    assert not {"arrow_labels", "_arrow_ids"} & set(vars(made[0]))


def test_elements_off_canonical_charts_are_structural_errors(at):
    # c lies only in chart 1; arrow 4 is past the fibre's four arrows
    for bad in (AtElement("c", 0, 0, "a", 0), AtElement("a", 0, 0, "c", 0),
                AtElement("a", 0, 4, "a", 0), AtElement("d", 0, 0, "a", 0),
                AtElement("a", 0, True, "a", 0)):
        with pytest.raises(StructuralError, match=re.escape(repr(bad))):
            at.index(bad)
    bad = AtElement("c", 0, 0, "a", 0)
    with pytest.raises(StructuralError, match=re.escape(repr(bad))):
        at.multiply(at.elements[0], bad)
