"""The principal, Atiyah-sequence and trident batteries walk int tables,
and the bisection correspondence reads element ids; their reports must
equal those of the per-check loops in battery_oracles, check counts,
violations and witnesses included, in order, and they must raise what the
oracles raise.

Chain, triple-overlap and running-example bundles pass every check.
Single-chart bundles over typed magmas (tables that are typed but need not
associate, have units or inverses) fail many, so the witness path is
compared too; so do automorphisms with corrupted chart data."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from groupoidal import (AtiyahGroupoid, Bisection, BundleAutomorphism, CechBase,
                        Cocycle, FiniteGroupoid, MomentMismatch, PrincipaloidBundle,
                        ValidationReport, automorphism_to_bisection,
                        bisection_to_automorphism, enumerate_bisections,
                        enumerate_gauge_group, verify_atiyah_sequence,
                        verify_bisection_correspondence,
                        verify_principal_axioms, verify_trident)

from battery_oracles import (oracle_atiyah_sequence,
                             oracle_bisection_correspondence,
                             oracle_bisection_to_automorphism,
                             oracle_principal_axioms, oracle_trident)
from test_bisection_tables import chain_bundles, typed_magmas


def assert_batteries_match_oracle(bundle):
    """Every battery's report equals the oracle's, given the symmetry
    groupoid or building its own; returns the three."""
    reports = []
    for battery, oracle, takes_at in (
            (verify_principal_axioms, oracle_principal_axioms, False),
            (verify_atiyah_sequence, oracle_atiyah_sequence, True),
            (verify_trident, oracle_trident, True)):
        at = AtiyahGroupoid(bundle)
        got = battery(bundle, *[at][:takes_at]).to_dict()
        assert got == oracle(bundle, *[at][:takes_at]).to_dict()
        assert battery(bundle).to_dict() == got
        reports.append(got)
    return reports


def single_chart_bundle(g, k):
    """g over the points s0..s(k-1), all in one chart: no cocycle entries."""
    base = ["s{}".format(i) for i in range(k)]
    return PrincipaloidBundle(CechBase(base, [base]), Cocycle(g, {}), g)


@given(chain_bundles())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_generated_chain_batteries_match_oracle(bundle):
    assert all(r["ok"] for r in assert_batteries_match_oracle(bundle))


@pytest.mark.parametrize("fibre", ["z2_groupoid", "pair3"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_triple_overlap_batteries_match_oracle(request, triple_overlap_bundle,
                                               fibre, n):
    bundle = triple_overlap_bundle(request.getfixturevalue(fibre), n, seed=n)
    assert all(r["ok"] for r in assert_batteries_match_oracle(bundle))


def test_running_example_batteries_match_oracle(three_point_bundle):
    assert all(r["ok"] for r in assert_batteries_match_oracle(three_point_bundle))


@given(typed_magmas(), st.integers(1, 3))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_typed_magma_batteries_match_oracle(g, k):
    assert_batteries_match_oracle(single_chart_bundle(g, k))


def test_magma_failures_carry_witnesses_in_order():
    # one object, arrows 0 (unit) and 1 with 1.1 = 1: a monoid, not a group,
    # so inverses, division and the principal bijection fail
    g = FiniteGroupoid(1, [0, 0], [0, 0], [0], [0, 0],
                       {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    principal, sequence, trident = assert_batteries_match_oracle(
        single_chart_bundle(g, 2))
    assert sequence["ok"]
    assert {v["check"] for v in principal["violations"]} == {
        "PGr3:div-act", "PGr3:act-div"}
    assert "trident:division-inverts" in {v["check"] for v in trident["violations"]}


def test_corrupted_product_fails_sequence_as_oracle(three_point_bundle):
    # one product moved to the arrow over the next pair of base points
    at = AtiyahGroupoid(three_point_bundle)
    fg = at.as_finite_groupoid()
    mul = dict(fg.mul.items())
    key = list(mul)[5]
    mul[key] = (mul[key] + three_point_bundle.groupoid.n_arrows) % len(at.elements)
    at._table = FiniteGroupoid(fg.n_objects, fg.src, fg.tgt, fg.unit, fg.inv, mul,
                               fg.arrow_labels, fg.object_labels)
    got = verify_atiyah_sequence(three_point_bundle, at).to_dict()
    assert got == oracle_atiyah_sequence(three_point_bundle, at).to_dict()
    assert [v["check"] for v in got["violations"]] == ["sequence:morphism"]


def outcome(fn, *args):
    """fn's report as a dict, or its automorphism's base map and chart data,
    or the type and message of what it raised."""
    try:
        got = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return got.to_dict() if isinstance(got, ValidationReport) else (got.f, got.gamma)


def swapped(aut, i):
    """aut with the first and last values of its i-th gamma entry swapped."""
    gamma = dict(aut.gamma)
    key = list(gamma)[i % len(gamma)]
    assign = list(gamma[key].assign)
    assign[0], assign[-1] = assign[-1], assign[0]
    gamma[key] = Bisection(gamma[key].groupoid, assign)
    return BundleAutomorphism(aut.bundle, aut.f, gamma)


def mixed(aut, other, i):
    """aut with its i-th gamma entry taken from another map."""
    key = list(aut.gamma)[i % len(aut.gamma)]
    return BundleAutomorphism(aut.bundle, aut.f, {**aut.gamma, key: other.gamma[key]})


def assert_correspondence_matches_oracle(bundle, auts, bisections=()):
    """The correspondence on each automorphism, and the recovery of an
    automorphism from each bisection, give what the label-reading oracles
    give, reports or exceptions alike; returns the reports."""
    at = AtiyahGroupoid(bundle)
    got = [outcome(verify_bisection_correspondence, bundle, at, aut) for aut in auts]
    assert got == [outcome(oracle_bisection_correspondence, bundle, at, aut) for aut in auts]
    for b in bisections:
        assert (outcome(bisection_to_automorphism, bundle, b)
                == outcome(oracle_bisection_to_automorphism, bundle, at, b))
    return got


@pytest.mark.parametrize("fibre,k", [("z2_groupoid", k) for k in range(3, 7)]
                         + [("pair3", 3), ("pair3", 4)])
def test_correspondence_matches_oracle_on_every_gauge_map(request, chain_bundle,
                                                          fibre, k):
    bundle = chain_bundle(request.getfixturevalue(fibre), k, seed=k)
    gauge = enumerate_gauge_group(bundle)
    at = AtiyahGroupoid(bundle)
    others = [automorphism_to_bisection(at, aut) for aut in gauge[::-37]]
    reports = assert_correspondence_matches_oracle(bundle, gauge, others)
    assert all(r["ok"] for r in reports)


def test_running_example_correspondence_matches_oracle(three_point_bundle):
    bundle = three_point_bundle
    gauge = enumerate_gauge_group(bundle)
    fg = AtiyahGroupoid(bundle).as_finite_groupoid()
    # every bisection of the symmetry groupoid: 48 project to a base map
    bisections = enumerate_bisections(fg)
    assert len(bisections) == 720
    assert all(r["ok"] for r in assert_correspondence_matches_oracle(
        bundle, gauge, bisections[::7]))


@pytest.mark.parametrize("fibre,k", [("z2_groupoid", 3), ("z2_groupoid", 5), ("pair3", 3)])
def test_corrupted_chart_data_fails_correspondence_as_oracle(request, chain_bundle,
                                                             three_point_bundle, fibre, k):
    bundles = [three_point_bundle, chain_bundle(request.getfixturevalue(fibre), k, seed=k)]
    for bundle in bundles:
        gauge = enumerate_gauge_group(bundle)
        auts = [swapped(aut, i) for i, aut in enumerate(gauge[::3])]
        auts += [mixed(aut, gauge[-1 - i], i) for i, aut in enumerate(gauge[::5])]
        got = assert_correspondence_matches_oracle(bundle, auts)
        # a swapped entry is no section, so the left action meets a point it
        # cannot act on
        assert got[0] == (MomentMismatch, "element source differs from the duck of the point")


def test_record_columns_reads_witnesses_only_at_failures():
    built = []

    def witness(key):
        built.append(key)
        return key

    def keys():
        built.append("keys")
        return [(0, 1), (0, 2), (1, 0)]
    report = ValidationReport()
    report.record_columns([("a", [1, 2], [1, 2], [(0,), (1,)], witness),
                           ("b", [0, 0, 0], [0, 0, 0], keys, witness)])
    assert report.checks_run == 5 and report.ok and built == []
    report.record_columns([("a", [1, 2], [1, 3], [(0,), (1,)], witness),
                           ("b", [0, 5, 0], [0, 6, 0], keys, witness),
                           ("c", [4], [4], lambda: built.append("c keys"), witness)])
    assert report.checks_run == 11
    # keys of differing columns only, witnesses at failing indices only
    assert built == [(1,), "keys", (0, 2)]
    # violations in the per-check loops' order: by key, then column
    assert [(v.check, v.witness) for v in report.violations] == [("b", (0, 2)),
                                                                 ("a", (1,))]


def test_record_columns_builds_one_witness_for_one_failure():
    n, built = 10 ** 5, []
    lhs = list(range(n))
    rhs = lhs[:77_777] + [-1] + lhs[77_778:]
    report = ValidationReport()
    report.record_columns([("x", lhs, rhs)], range(n),
                          lambda key: built.append(key) or ("at", key))
    assert built == [77_777] and report.checks_run == n
    assert [(v.check, v.witness) for v in report.violations] == [("x", ("at", 77_777))]


def test_record_all_adds_failures_in_key_order():
    report = ValidationReport()
    report.record_all(5, [((2, 0), "b", "w2"), ((1, 1), "a", "w1"), ((1, 0), "c", "w0")])
    assert report.checks_run == 5
    assert [(v.check, v.witness) for v in report.violations] == [
        ("c", "w0"), ("a", "w1"), ("b", "w2")]
    report.record_all(3)
    assert report.checks_run == 8 and len(report.violations) == 3
