"""Automorphisms held in canonical charts, checked against the chart-pair
code they replaced.

The oracle is the earlier BundleAutomorphism, kept here unchanged except
that it works on its own copy of the chart data: gamma_at derives any
chart pair from the first entry stored at sigma (and caches it), apply
reads the pair (chart of f(sigma), chart of the point), compose and inverse
key their chart data by hand, and the action key is the image of every
bundle point.  The library must act as the oracle does on every point,
give equal action keys exactly when the oracle's keys are equal, and never
write into the chart data it was given.

Every automorphism the library makes is also checked against the way such
maps were first built (battery_oracles.oracle_canonical): a full
BundleAutomorphism with its chart data written at once and read back
through gamma_at.  The library's must equal it in f, f_inv, gamma and
action key, and hold no chart data until it is read.
"""

import itertools
import math
import random
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings

from battery_oracles import (oracle_bisection_to_automorphism, oracle_compose,
                             oracle_gauge_group, oracle_identity, oracle_inverse)
from groupoidal import (AtiyahGroupoid, BundleAutomorphism, FPoint, PPoint,
                        StructuralError, automorphism_to_bisection,
                        bisection_inverse, bisection_product,
                        bisection_to_automorphism, enumerate_bisections,
                        enumerate_gauge_group,
                        enumerate_projectable_bisections,
                        identity_automorphism, left_mult, unit_bisection,
                        validate_automorphism, verify_bisection_correspondence,
                        verify_gauge_group)
from test_bisection_tables import chain_bundles


class Oracle:
    """The automorphism as it was kept before: chart data keyed by any
    chart pair, canonical entries derived and cached on use."""

    def __init__(self, bundle, f, gamma):
        self.bundle = bundle
        self.f = dict(f)
        self.f_inv = {v: k for k, v in self.f.items()}
        self.gamma = dict(gamma)

    def gamma_at(self, j, i, sigma):
        if (j, i, sigma) in self.gamma:
            return self.gamma[(j, i, sigma)]
        fs = self.f[sigma]
        for (j0, i0, s0), g0 in self.gamma.items():
            if s0 != sigma:
                continue
            c = self.bundle.cocycle
            val = bisection_product(
                c.beta(j, j0, fs), bisection_product(g0, c.beta(i0, i, sigma)))
            self.gamma[(j, i, sigma)] = val
            return val
        raise StructuralError("no chart data at {}".format(sigma))

    def apply(self, p):
        fs = self.f[p.sigma]
        j = self.bundle.base.canonical_chart(fs)
        g = self.gamma_at(j, p.chart, p.sigma)
        return PPoint(fs, j, left_mult(g, p.arrow))

    def apply_shadow(self, fp):
        fs = self.f[fp.sigma]
        j = self.bundle.base.canonical_chart(fs)
        g = self.gamma_at(j, fp.chart, fp.sigma)
        return FPoint(fs, j, g.shadow()[fp.obj])

    def compose(self, other):
        bundle = self.bundle
        f = {s: self.f[other.f[s]] for s in other.f}
        gamma = {}
        for sigma in bundle.base.base:
            i = bundle.base.canonical_chart(sigma)
            mid = other.f[sigma]
            k = bundle.base.canonical_chart(mid)
            j = bundle.base.canonical_chart(self.f[mid])
            gamma[(j, i, sigma)] = bisection_product(
                self.gamma_at(j, k, mid), other.gamma_at(k, i, sigma))
        return Oracle(bundle, f, gamma)

    def inverse(self):
        bundle = self.bundle
        gamma = {}
        for sigma in bundle.base.base:
            i = bundle.base.canonical_chart(sigma)
            tau = self.f[sigma]
            j = bundle.base.canonical_chart(tau)
            gamma[(i, j, tau)] = bisection_inverse(self.gamma_at(j, i, sigma))
        return Oracle(bundle, self.f_inv, gamma)

    def action_key(self):
        return tuple(self.apply(p) for p in self.bundle.points)


def oracle(aut):
    return Oracle(aut.bundle, aut.f, aut.gamma)


def rechart(aut, sigma, pairs):
    """The same automorphism with its chart data at sigma stored at the
    chart pairs (j, i) instead, in that order."""
    gamma = {key: g for key, g in aut.gamma.items() if key[2] != sigma}
    gamma.update({(j, i, sigma): oracle(aut).gamma_at(j, i, sigma)
                  for j, i in pairs})
    return BundleAutomorphism(aut.bundle, aut.f, gamma)


def every_pair(aut, sigma):
    """Every chart pair at sigma, the canonical one last."""
    base = aut.bundle.base
    return sorted(itertools.product(base.charts_containing(aut.f[sigma]),
                                    base.charts_containing(sigma)),
                  reverse=True)


def acts(aut):
    return [aut.apply(p) for p in aut.bundle.points]


def nonvertical(bundle, limit=24):
    """Up to limit automorphisms recovered from projectable bisections, spread
    over the list."""
    at = AtiyahGroupoid(bundle)
    projectable, _ = enumerate_projectable_bisections(bundle, at)
    step = max(1, len(projectable) // limit)
    return [bisection_to_automorphism(bundle, b)
            for b in projectable[::step]]


def assert_matches_oracle(bundle, auts, sample=6):
    """apply and apply_shadow agree with the oracle on every point; compose
    and inverse act as the oracle's do on a sample; action keys are equal
    exactly when the oracle's keys are equal."""
    for aut in auts:
        o = oracle(aut)
        assert acts(aut) == [o.apply(p) for p in bundle.points]
        assert ([aut.apply_shadow(fp) for fp in bundle.shadow_points]
                == [o.apply_shadow(fp) for fp in bundle.shadow_points])
    picked = auts[:sample] + auts[-sample:]
    products = []
    for a in picked:
        assert acts(a.inverse()) == list(oracle(a).inverse().action_key())
        for b in picked:
            prod = a.compose(b)
            assert acts(prod) == list(oracle(a).compose(oracle(b)).action_key())
            products.append(prod)
    everything = auts + products + [a.inverse() for a in picked]
    keys = [a.action_key() for a in everything]
    oracle_keys = [oracle(a).action_key() for a in everything]
    assert len(set(zip(keys, oracle_keys))) == len(set(keys)) \
        == len(set(oracle_keys))
    assert len(set(keys)) < len(keys)  # some actions coincide


@given(chain_bundles())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_generated_automorphisms_match_oracle(bundle):
    gauge = enumerate_gauge_group(bundle)
    assert_matches_oracle(bundle, gauge + nonvertical(bundle))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("fibre", ["z2_groupoid", "pair3"])
def test_triple_overlap_automorphisms_match_oracle(request, triple_overlap_bundle,
                                                   fibre, n):
    # chart data stored at every chart pair of the hub, the canonical pair
    # last, and at one pair only, so that the canonical entry is derived
    bundle = triple_overlap_bundle(request.getfixturevalue(fibre), n, seed=n)
    auts = enumerate_gauge_group(bundle)[:12] + nonvertical(bundle, 12)
    recharted = []
    for aut in auts:
        pairs = every_pair(aut, "s0")
        recharted += [rechart(aut, "s0", pairs), rechart(aut, "s0", pairs[:1])]
    for aut in recharted:
        assert validate_automorphism(bundle, aut).ok
    assert_matches_oracle(bundle, auts + recharted)


def reflections(bundle):
    """The running example's base reflection a <-> c, with its chart data at
    b stored at each chart pair in turn, and at all four."""
    e = unit_bisection(bundle.groupoid)
    refl = BundleAutomorphism(bundle, {"a": "c", "b": "b", "c": "a"},
                              {(1, 0, "a"): e, (0, 0, "b"): e, (0, 1, "c"): e})
    pairs = every_pair(refl, "b")
    return [refl] + [rechart(refl, "b", [p]) for p in pairs] \
        + [rechart(refl, "b", pairs)]


def test_running_example_reflection_matches_oracle(three_point_bundle):
    bundle = three_point_bundle
    gauge = enumerate_gauge_group(bundle)
    refls = reflections(bundle)
    for aut in refls:
        assert validate_automorphism(bundle, aut).ok
    mixed = [r.compose(g) for r in refls for g in gauge[:3]] \
        + [g.compose(r) for r in refls for g in gauge[-3:]]
    assert_matches_oracle(bundle, refls + gauge + mixed)


def unconventional(bundle, triple_overlap_bundle, z2_groupoid):
    """Automorphisms read at chart pairs they do not store: the running
    example's identity (validation reads every pair at b), its reflection
    recharted at b, and triple-overlap gauge maps stored at one pair of the
    hub that is not canonical."""
    tri = triple_overlap_bundle(z2_groupoid, 4, seed=4)
    gauge = enumerate_gauge_group(tri)
    return ([identity_automorphism(bundle)] + reflections(bundle)[1:]
            + [rechart(a, "s0", every_pair(a, "s0")[:1]) for a in gauge[:4]])


def test_validation_repeats_its_report(three_point_bundle,
                                       triple_overlap_bundle, z2_groupoid):
    for aut in unconventional(three_point_bundle, triple_overlap_bundle,
                              z2_groupoid):
        first = validate_automorphism(aut.bundle, aut).to_dict()
        assert validate_automorphism(aut.bundle, aut).to_dict() == first


def test_chart_data_is_never_written(three_point_bundle,
                                     triple_overlap_bundle, z2_groupoid):
    for aut in unconventional(three_point_bundle, triple_overlap_bundle,
                              z2_groupoid):
        bundle = aut.bundle
        before = dict(aut.gamma)
        validate_automorphism(bundle, aut)
        acts(aut)
        aut.compose(aut)
        aut.inverse()
        aut.action_key()
        verify_bisection_correspondence(bundle, AtiyahGroupoid(bundle), aut)
        if aut.is_vertical():
            verify_gauge_group(bundle, [aut, identity_automorphism(bundle)])
        assert aut.gamma == before


@pytest.mark.parametrize("example", ["running", "pair3-k3"])
def test_gauge_maps_share_one_read_only_base_map(example, three_point_bundle,
                                                 chain_bundle, pair3):
    bundle = (three_point_bundle if example == "running"
              else chain_bundle(pair3, 3, seed=3))
    gauge = enumerate_gauge_group(bundle)
    base, chart = bundle.base.base, bundle.base.canonical_chart
    f = gauge[0].f
    assert f == {s: s for s in base}
    assert all(aut.f is f and aut.f_inv is gauge[0].f_inv for aut in gauge)
    # each map holds one fibre bisection per base point, and builds its
    # chart data and local table only when read
    assert not any({"gamma", "_local"} & set(vars(aut)) for aut in gauge)
    built = [BundleAutomorphism(bundle, f, {(chart(s), chart(s), s): b
                                            for s, b in zip(base, choice)})
             for choice in itertools.product(enumerate_bisections(bundle.groupoid),
                                             repeat=len(base))]
    assert len(built) == len(gauge)
    # every map now reads one read-only view, so a write into it would raise
    frozen = MappingProxyType(f)
    for aut in gauge:
        aut.f = aut.f_inv = frozen
    others = list(zip(gauge, built))[::23]
    for aut, ref in zip(gauge, built):
        assert list(aut.gamma.items()) == list(ref.gamma.items())
        assert list(aut._local.items()) == list(ref._local.items())
        assert aut.gamma is aut.gamma and aut._local is aut._local
        assert aut.action_key() == ref.action_key()
        assert aut.inverse().action_key() == ref.inverse().action_key()
        assert (validate_automorphism(bundle, aut).to_dict()
                == validate_automorphism(bundle, ref).to_dict())
        for other, other_ref in others:
            assert (aut.compose(other).action_key()
                    == ref.compose(other_ref).action_key())


def fresh(aut):
    """A map the library has just made holds no chart data yet."""
    assert not {"gamma", "_local"} & set(vars(aut))
    return aut


def assert_equals_reference(aut, ref):
    assert (aut.f, aut.f_inv) == (ref.f, ref.f_inv)
    assert dict(aut.gamma) == ref.gamma  # gamma read first: it builds _local
    assert aut.action_key() == ref.action_key()


def projectable_sample(bundle, at, limit, seed=0):
    """Projectable bisections of at: up to limit of them spread over the
    whole list when it has at most 5,000 members, and limit more attached
    to automorphisms over seeded random base permutations, their bisections
    in canonical charts seeded random choices."""
    base, chart = bundle.base.base, bundle.base.canonical_chart
    bis = enumerate_bisections(bundle.groupoid)
    spread = []
    if math.factorial(len(base)) * len(bis) ** len(base) <= 5000:
        projectable, _ = enumerate_projectable_bisections(bundle, at)
        spread = projectable[::max(1, len(projectable) // limit)]
    rng = random.Random(seed)
    for _ in range(limit):
        f = dict(zip(base, rng.sample(base, len(base))))
        spread.append(automorphism_to_bisection(at, BundleAutomorphism(
            bundle, f, {(chart(f[s]), chart(s), s): rng.choice(bis) for s in base})))
    return spread


def assert_library_maps_match_reference(bundle, documents=(), limit=6, seed=0):
    """Every gauge map, the identity, maps read off projectable bisections,
    and the products and inverses of a sample of these and of the given
    documents equal the automorphisms built as they were first built, and
    hold no chart data until it is read."""
    gauge = enumerate_gauge_group(bundle)
    n = len(gauge)
    picked, operands = {0, 1, n // 2, n - 1}, []
    for k, ref in enumerate(oracle_gauge_group(bundle)):
        aut, gauge[k] = fresh(gauge[k]), None  # dropped once compared
        assert_equals_reference(aut, ref)
        if k in picked:
            operands.append((aut, ref))
    assert k == n - 1
    ident = fresh(identity_automorphism(bundle))
    assert_equals_reference(ident, oracle_identity(bundle))
    at = AtiyahGroupoid(bundle)
    for b in projectable_sample(bundle, at, limit, seed):
        aut = fresh(bisection_to_automorphism(bundle, b))
        ref = oracle_bisection_to_automorphism(bundle, at, b)
        assert_equals_reference(aut, ref)
        operands.append((aut, ref))
    operands += [(ident, oracle_identity(bundle))] + [(d, d) for d in documents]
    for a, ra in operands:
        assert_equals_reference(fresh(a.inverse()), oracle_inverse(ra))
        for b, rb in operands:
            assert_equals_reference(fresh(a.compose(b)), oracle_compose(ra, rb))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("fibre", ["z2_groupoid", "pair3"])
def test_chain_bundle_maps_match_reference(request, chain_bundle, fibre, k):
    bundle = chain_bundle(request.getfixturevalue(fibre), k, seed=k)
    assert_library_maps_match_reference(bundle, seed=k)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("fibre", ["z2_groupoid", "pair3"])
def test_triple_overlap_maps_match_reference(request, triple_overlap_bundle,
                                             fibre, n):
    # maps over base permutations again, their chart data at the hub s0
    # stored at one chart pair, not always the canonical one
    bundle = triple_overlap_bundle(request.getfixturevalue(fibre), n, seed=n)
    at = AtiyahGroupoid(bundle)
    documents = [rechart(a, "s0", every_pair(a, "s0")[:1]) for a in (
        bisection_to_automorphism(bundle, b)
        for b in projectable_sample(bundle, at, 4, seed=n + 10))]
    assert_library_maps_match_reference(bundle, documents, seed=n)


def test_running_example_maps_match_reference(three_point_bundle):
    assert_library_maps_match_reference(three_point_bundle,
                                        reflections(three_point_bundle))
