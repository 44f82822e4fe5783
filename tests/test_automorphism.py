"""Bundle automorphisms, the gauge group, and the bisection correspondence."""

import time

import pytest

from groupoidal import (AtiyahGroupoid, Bisection, BundleAutomorphism, EnumerationBound,
                        StructuralError, automorphism_to_bisection,
                        bisection_to_automorphism,
                        enumerate_bisections, enumerate_gauge_group,
                        identity_automorphism, unit_bisection,
                        validate_automorphism, verify_bisection_correspondence,
                        verify_gauge_group)
from groupoidal.atiyah import enumerate_projectable_bisections
from groupoidal.bisection import bisection_product


@pytest.fixture(scope="module")
def gauge(three_point_bundle):
    return enumerate_gauge_group(three_point_bundle)


@pytest.fixture(scope="module")
def at(three_point_bundle):
    return AtiyahGroupoid(three_point_bundle)


def test_identity_automorphism(three_point_bundle):
    ident = identity_automorphism(three_point_bundle)
    assert validate_automorphism(three_point_bundle, ident).ok
    for p in three_point_bundle.points:
        assert ident.apply(p) == p


def test_gauge_group_order(gauge):
    # one free fibre bisection per base point: 2^3 choices, all distinct
    assert len(gauge) == 8


def test_gauge_maps_validate(three_point_bundle, gauge):
    for aut in gauge:
        assert aut.is_vertical()
        assert validate_automorphism(three_point_bundle, aut).ok


def test_gauge_group_structure(three_point_bundle, gauge):
    assert verify_gauge_group(three_point_bundle, gauge).ok


def test_gauge_group_reads_a_given_atiyah_groupoid(three_point_bundle, gauge):
    at = AtiyahGroupoid(three_point_bundle)
    assert verify_gauge_group(three_point_bundle, gauge, at=at).to_dict() == \
        verify_gauge_group(three_point_bundle, gauge).to_dict()


def test_inverse_and_compose(three_point_bundle, gauge):
    ident_key = identity_automorphism(three_point_bundle).action_key()
    for aut in gauge:
        assert aut.compose(aut.inverse()).action_key() == ident_key
        assert aut.inverse().compose(aut).action_key() == ident_key


def test_nonvertical_automorphism(three_point_bundle):
    # reflect the base a<->c; charts swap, so the chart data must glue
    bundle = three_point_bundle
    g = bundle.groupoid
    f = {"a": "c", "b": "b", "c": "a"}
    e = unit_bisection(g)
    gamma = {(1, 0, "a"): e, (0, 0, "b"): e, (0, 1, "c"): e}
    aut = BundleAutomorphism(bundle, f, gamma)
    assert validate_automorphism(bundle, aut).ok
    assert not aut.is_vertical()
    with pytest.raises(StructuralError):
        aut.apply_adjoint(None)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("fibre", ["z2_groupoid", "pair3"])
def test_broken_gamma_entry_on_triple_overlap(request, triple_overlap_bundle,
                                              fibre, n):
    bundle = triple_overlap_bundle(request.getfixturevalue(fibre), n, seed=n)
    gauge = enumerate_gauge_group(bundle)
    aut = gauge[n % len(gauge)]
    # chart data stored for every pair of charts at the hub, so that each
    # entry is tied to the others by the gluing relations
    gamma = dict(aut.gamma)
    gamma.update({(j, i, "s0"): aut.gamma_at(j, i, "s0")
                  for i in range(3) for j in range(3)})
    assert validate_automorphism(bundle, BundleAutomorphism(bundle, aut.f,
                                                            gamma)).ok
    good = gamma[(2, 1, "s0")]
    gamma[(2, 1, "s0")] = next(b for b in enumerate_bisections(bundle.groupoid)
                               if b != good)
    report = validate_automorphism(bundle, BundleAutomorphism(bundle, aut.f, gamma))
    assert {v.check for v in report.violations} == {"aut:gluing"}
    for v in report.violations:
        i, j, k, l, sigma = v.witness
        assert sigma == "s0" and ((j, i) == (2, 1)) != ((l, k) == (2, 1))


def test_broken_f_entry_on_triple_overlap(triple_overlap_bundle, z2_groupoid):
    bundle = triple_overlap_bundle(z2_groupoid, 4, seed=1)
    ident = identity_automorphism(bundle)
    f = dict(ident.f, s1="s9")  # injective, but leaves the base
    report = validate_automorphism(bundle, BundleAutomorphism(bundle, f,
                                                              ident.gamma))
    assert [v.check for v in report.violations] == ["aut:f-bijection"]
    assert report.violations[0].witness == "s1"


def test_base_map_must_be_bijection(three_point_bundle):
    with pytest.raises(StructuralError):
        BundleAutomorphism(three_point_bundle,
                           {"a": "b", "b": "b", "c": "c"}, {})
    # an unhashable value is no base point
    with pytest.raises(StructuralError, match="^base map is not a bijection$"):
        BundleAutomorphism(three_point_bundle, {"a": ["a"], "b": "b", "c": "c"}, {})


def test_bisection_over_a_map_that_is_not_one_to_one(three_point_bundle, at):
    # every shadow point sent to element 0, which sits over the pair (a, a)
    b = Bisection(at.as_finite_groupoid(), [0] * len(three_point_bundle.shadow_points))
    with pytest.raises(StructuralError, match="^base map is not a bijection$"):
        bisection_to_automorphism(three_point_bundle, b)


def test_gamma_at_needs_an_entry_at_sigma(three_point_bundle):
    ident = identity_automorphism(three_point_bundle)
    aut = BundleAutomorphism(three_point_bundle, ident.f,
                             {k: g for k, g in ident.gamma.items() if k[2] != "b"})
    assert aut.gamma_at(0, 0, "a") == ident.gamma_at(0, 0, "a")
    with pytest.raises(StructuralError, match="^no chart data at b$"):
        aut.gamma_at(1, 0, "b")


def test_gauge_enumeration_refuses_past_its_cap(three_point_bundle):
    # two fibre bisections at each of three points: 8 candidate maps
    assert len(enumerate_gauge_group(three_point_bundle, cap=8)) == 8
    with pytest.raises(EnumerationBound, match=r"^2\^3 candidate gauge maps exceed cap 7$"):
        enumerate_gauge_group(three_point_bundle, cap=7)


def test_bisection_correspondence(three_point_bundle, at, gauge):
    for aut in gauge:
        assert verify_bisection_correspondence(three_point_bundle, at, aut).ok


def test_correspondence_is_group_homomorphism(three_point_bundle, at, gauge):
    images = {aut.action_key(): automorphism_to_bisection(at, aut)
              for aut in gauge}
    for a1 in gauge:
        for a2 in gauge:
            prod = a1.compose(a2)
            expected = bisection_product(images[a1.action_key()],
                                         images[a2.action_key()])
            assert images[prod.action_key()] == expected


def test_correspondence_onto_vertical_bisections(three_point_bundle, at, gauge):
    _, vertical = enumerate_projectable_bisections(three_point_bundle, at)
    images = {automorphism_to_bisection(at, aut).assign for aut in gauge}
    assert images == {b.assign for b in vertical}


def test_round_trip_both_ways(three_point_bundle, at, gauge):
    for aut in gauge:
        b = automorphism_to_bisection(at, aut)
        back = bisection_to_automorphism(three_point_bundle, b)
        assert back.action_key() == aut.action_key()
        assert automorphism_to_bisection(at, back) == b


def test_adjoint_pushforward_is_conjugation(three_point_bundle, at, gauge):
    # embedding the adjoint push-forward equals conjugating the embedded
    # element by the automorphism's bisection avatar
    from groupoidal import AdjointBundle, conjugate
    adj = AdjointBundle(three_point_bundle)
    for aut in gauge:
        b = automorphism_to_bisection(at, aut)
        for e in adj.elements:
            lhs = adj.embed(aut.apply_adjoint(e))
            rhs = at.elements[conjugate(b, at.index(adj.embed(e)))]
            assert lhs == rhs


def test_gauge_count_scales_with_base(z2_groupoid):
    # a 2-point base with the same fibre gives 2^2 gauge maps
    from groupoidal import CechBase, Cocycle, build_bundle
    base = CechBase(["a", "b"], [["a", "b"]])
    bundle = build_bundle(base, Cocycle(z2_groupoid, {}), z2_groupoid)
    assert len(enumerate_gauge_group(bundle)) == 4


@pytest.mark.parametrize("fibre,k", [("z2_groupoid", 3), ("z2_groupoid", 5), ("pair3", 3)])
def test_gauge_maps_act_distinctly(request, chain_bundle, fibre, k):
    # one free fibre bisection per base point, and no two choices act alike
    g = request.getfixturevalue(fibre)
    gauge = enumerate_gauge_group(chain_bundle(g, k, seed=k))
    keys = [aut.action_key() for aut in gauge]
    assert len(gauge) == len(enumerate_bisections(g)) ** k
    assert len(set(keys)) == len(keys)


def test_gauge_verification_within_cap(chain_bundle, z2_groupoid):
    # the vertical search examines 90 candidates and the closure forms 256
    # products, both under the cap
    bundle = chain_bundle(z2_groupoid, 4)
    gauge = enumerate_gauge_group(bundle)
    assert verify_gauge_group(bundle, gauge).ok
    _, vertical = enumerate_projectable_bisections(bundle)
    assert len(vertical) == len(gauge) == 16


def test_gauge_verification_refuses_before_closure(chain_bundle, pair3):
    # 6^4 gauge maps would take 1.68M products to close, more than the
    # cap, so the closure count refuses before the first product
    bundle = chain_bundle(pair3, 4)
    gauge = enumerate_gauge_group(bundle)
    start = time.perf_counter()
    with pytest.raises(EnumerationBound):
        verify_gauge_group(bundle, gauge)
    assert time.perf_counter() - start < 10


def test_empty_gauge_list_fails(three_point_bundle):
    # [] is a gauge list like any other, not a request to enumerate one
    report = verify_gauge_group(three_point_bundle, [])
    assert [v.check for v in report.violations] == [
        "gauge:has-identity", "gauge:matches-vertical-bisections"]
    assert report.violations[1].detail == "8 bisections vs 0 gauge maps"


@pytest.mark.parametrize("k,bound", [(2, 18), (3, 64), (4, 256), (5, 1024)])
def test_gauge_verification_cap_boundary(chain_bundle, z2_groupoid, k, bound):
    # the closure forms |gauge|^2 products; over 2 points the vertical
    # search examines 18 candidates, more than the 16 products, and sets
    # the bound instead
    bundle = chain_bundle(z2_groupoid, k)
    gauge = enumerate_gauge_group(bundle)
    assert bound == (18 if k == 2 else len(gauge) ** 2)
    assert verify_gauge_group(bundle, gauge, cap=bound).ok
    with pytest.raises(EnumerationBound, match="cap {}$".format(bound - 1)):
        verify_gauge_group(bundle, gauge, cap=bound - 1)


@pytest.mark.parametrize("fibre,k", [("z2_groupoid", 5), ("z2_groupoid", 6),
                                     ("pair3", 3)])
def test_gauge_verification_answers_at_default_cap(request, chain_bundle,
                                                   fibre, k):
    # |Bis|^k gauge maps, as many vertical bisections, |Bis|^2k products
    g = request.getfixturevalue(fibre)
    bundle = chain_bundle(g, k, seed=k)
    gauge = enumerate_gauge_group(bundle)
    n = len(enumerate_bisections(g)) ** k
    report = verify_gauge_group(bundle, gauge)
    assert len(gauge) == n
    assert report.ok
    assert report.checks_run == 2 + n + n * n
