"""The table-driven identity suite, the pruned bisection enumeration, the
iterative commutant search, the fibre-walking groupoid validation, the
closed-form bisection through an arrow and the direct projectable and
vertical bisection searches, checked against the code they replaced.

The oracles below are the per-check loops: every action is recomputed
through left_mult, right_mult and conjugate, fibres are found by scanning
all arrows, every section is tried before the filter, and validation tries
every pair and triple of arrows.  The commutant oracle is the recursive
search with its original predicates; the id-reducibility oracle completes
each section by bipartite matching; projectable bisections are filtered out
of all bisections of the symmetry groupoid.  The fast paths must give the
same report (check names, checks_run, violations with their witnesses, in
order), the same bisections and commutants in the same order, and the same
exception class where the oracle raises.
"""

import itertools
import math
import random
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from groupoidal import (AtiyahGroupoid, Bisection, CechBase, Cocycle,
                        CompositionError, EnumerationBound,
                        FiniteGroupAction, FiniteGroupoid, ValidationReport,
                        action_groupoid, bisection_inverse, build_bundle,
                        check_structure_identities, conjugate,
                        enumerate_bisections, enumerate_gauge_group,
                        enumerate_projectable_bisections,
                        fibred_pair_groupoid, group_groupoid,
                        identity_automorphism, is_id_reducible, left_mult,
                        pair_groupoid, product_groupoid,
                        r_equivariant_commutant, right_mult,
                        validate_bisection, validate_groupoid,
                        verify_gauge_group, z2_swap_action)
import groupoidal.bisection as bisection_module
import groupoidal.groupoid as groupoid_module
import groupoidal.report as report_module
from groupoidal.bisection import _Columns


def source_fibre(g, m):
    return [a for a in g.arrows if g.src[a] == m]


def target_fibre(g, m):
    return [a for a in g.arrows if g.tgt[a] == m]


def oracle_enumerate(g, cap=100000):
    """Every choice of one arrow per source fibre, kept when its shadow is a
    bijection."""
    fibres = [source_fibre(g, m) for m in g.objects]
    total = math.prod(len(f) for f in fibres)
    if total > cap:
        raise EnumerationBound(
            "{} candidate sections exceed cap {}".format(total, cap))
    return [Bisection(g, assign) for assign in itertools.product(*fibres)
            if sorted(g.tgt[a] for a in assign) == list(g.objects)]


def oracle_identities(g, cap=100000):
    """The identity suite, one check at a time."""
    bis = oracle_enumerate(g, cap=cap)
    report = ValidationReport()
    for b in bis:
        binv = bisection_inverse(b)
        sh = b.shadow()
        shinv = b.shadow_inverse
        for h in g.arrows:
            lh = left_mult(b, h)
            rh = right_mult(h, b)
            ch = conjugate(b, h)
            report.record("i:s-left", g.src[lh] == g.src[h], (b.assign, h))
            report.record("i:s-right", g.src[rh] == shinv[g.src[h]], (b.assign, h))
            report.record("ii:t-left", g.tgt[lh] == sh[g.tgt[h]], (b.assign, h))
            report.record("ii:t-right", g.tgt[rh] == g.tgt[h], (b.assign, h))
            report.record("iv:inv-left", g.inv[lh] == right_mult(g.inv[h], binv),
                          (b.assign, h))
            report.record("iv:inv-right", g.inv[rh] == left_mult(binv, g.inv[h]),
                          (b.assign, h))
            report.record("c-i:s", g.src[ch] == sh[g.src[h]], (b.assign, h))
            report.record("c-ii:t", g.tgt[ch] == sh[g.tgt[h]], (b.assign, h))
            report.record("c-iv:inv", g.inv[ch] == conjugate(b, g.inv[h]),
                          (b.assign, h))
        for m in g.objects:
            e = g.unit[m]
            report.record("iii:unit-left", left_mult(b, e) == b(m), (b.assign, m))
            report.record("iii:unit-right", right_mult(e, b) == b(shinv[m]),
                          (b.assign, m))
            report.record("c-iii:unit", conjugate(b, e) == g.unit[sh[m]],
                          (b.assign, m))
        for (u, h), prod in g.mul.items():
            report.record("v:left-vs-mul",
                          left_mult(b, prod) == g.compose(left_mult(b, u), h),
                          (b.assign, u, h))
            report.record("v:right-vs-mul",
                          right_mult(prod, b) == g.compose(u, right_mult(h, b)),
                          (b.assign, u, h))
            report.record("c-v:conj-vs-mul",
                          conjugate(b, prod) == g.compose(conjugate(b, u),
                                                          conjugate(b, h)),
                          (b.assign, u, h))
        for h in g.arrows:
            for w in source_fibre(g, sh[g.tgt[h]]):
                report.record("vi:right-then-mul",
                              g.compose(right_mult(w, b), h)
                              == g.compose(w, left_mult(b, h)),
                              (b.assign, w, h))
            for y in target_fibre(g, shinv[g.src[h]]):
                report.record("vi:mul-then-left",
                              g.compose(h, left_mult(b, y))
                              == g.compose(right_mult(h, b), y),
                              (b.assign, h, y))
    for a in g.arrows:
        for b in bis:
            if b(g.src[a]) != a:
                continue
            shinv = b.shadow_inverse
            report.record("e3-i:through-target", b(shinv[g.tgt[a]]) == a,
                          (b.assign, a))
            for h in source_fibre(g, g.tgt[a]):
                report.record("e3-ii:r-vs-R",
                              g.compose(h, a) == right_mult(h, b),
                              (b.assign, a, h))
    return report


def oracle_validate(g):
    """The groupoid axioms over every pair and triple of arrows."""
    report = ValidationReport()
    for a in g.arrows:
        for b in g.arrows:
            if g.composable(a, b):
                if (a, b) not in g.mul:
                    report.add("i:mul-total", (a, b), "composable pair missing from mul")
                    continue
                c = g.mul[(a, b)]
                report.record("i:src", g.src[c] == g.src[b], (a, b),
                              "s(a.b) != s(b)")
                report.record("i:tgt", g.tgt[c] == g.tgt[a], (a, b),
                              "t(a.b) != t(a)")
            elif (a, b) in g.mul:
                report.add("i:mul-domain", (a, b), "mul defined on non-composable pair")
    for a in g.arrows:
        for b in g.arrows:
            if not g.composable(a, b) or (a, b) not in g.mul:
                continue
            for c in g.arrows:
                if not g.composable(b, c) or (b, c) not in g.mul:
                    continue
                left = g.mul.get((g.mul[(a, b)], c))
                right = g.mul.get((a, g.mul[(b, c)]))
                report.record("ii:assoc", left is not None and left == right,
                              (a, b, c))
    for m in g.objects:
        e = g.unit[m]
        report.record("iii:unit-src", g.src[e] == m, m)
        report.record("iii:unit-tgt", g.tgt[e] == m, m)
    for a in g.arrows:
        e_t = g.unit[g.tgt[a]]
        e_s = g.unit[g.src[a]]
        report.record("iii:unit-left", g.mul.get((e_t, a)) == a, a)
        report.record("iii:unit-right", g.mul.get((a, e_s)) == a, a)
    for a in g.arrows:
        b = g.inv[a]
        report.record("iv:inv-src", g.src[b] == g.tgt[a], a)
        report.record("iv:inv-tgt", g.tgt[b] == g.src[a], a)
        report.record("iv:inv-right", g.mul.get((a, b)) == g.unit[g.tgt[a]], a)
        report.record("iv:inv-left", g.mul.get((b, a)) == g.unit[g.src[a]], a)
    return report


def _equivariant_bijections(g, consistent, cap):
    """Backtracking search for arrow bijections satisfying a local predicate.

    consistent(phi, a) is called right after phi[a] is set and may inspect
    any already-assigned entries; it must be monotone (a failure never turns
    into a success after more assignments).
    """
    n = g.n_arrows
    if math.factorial(n) > cap and n > 12:
        raise EnumerationBound("arrow bijection search beyond cap")
    phi = [None] * n
    used = [False] * n
    found = []

    def rec(a):
        if a == n:
            found.append(tuple(phi))
            return
        for b in g.arrows:
            if used[b]:
                continue
            phi[a] = b
            if consistent(phi, a):
                used[b] = True
                rec(a + 1)
                used[b] = False
            phi[a] = None

    rec(0)
    return sorted(found)


def oracle_commutants(g, cap=10_000_000):
    """The r-equivariant and R(B) commutants, by the recursive search."""
    tables = [([left_mult(b, a) for a in g.arrows], [right_mult(a, b) for a in g.arrows])
              for b in oracle_enumerate(g)]
    pairs_by_arrow = [[] for _ in g.arrows]
    for (x, h), prod in g.mul.items():
        pairs_by_arrow[max(x, prod)].append((x, h, prod))

    def r_consistent(phi, a):
        for x, h, prod in pairs_by_arrow[a]:
            fx, fp = phi[x], phi[prod]
            if fx is None or fp is None:
                continue
            if not g.composable(fx, h) or g.mul[(fx, h)] != fp:
                return False
        return True

    triples_by_arrow = [[] for _ in g.arrows]
    for _, perm in tables:
        for x in g.arrows:
            triples_by_arrow[max(x, perm[x])].append((x, perm))

    def rb_consistent(phi, a):
        for x, perm in triples_by_arrow[a]:
            fx, fr = phi[x], phi[perm[x]]
            if fx is None or fr is None:
                continue
            if perm[fx] != fr:
                return False
        return True

    return (_equivariant_bijections(g, r_consistent, cap),
            _equivariant_bijections(g, rb_consistent, cap))


def outcome(fn, g):
    """fn(g), or the class of the exception it raised."""
    try:
        return fn(g)
    except Exception as exc:  # the class is what is compared
        return type(exc)


def bisection_count(g):
    """The number of bisections: the permanent of the hom-set sizes, summed
    over the target sets the first objects can take."""
    homs = Counter(zip(g.src, g.tgt))
    ways = {0: 1}
    for m in g.objects:
        grown = Counter()
        for used, w in ways.items():
            for t in g.objects:
                if not used >> t & 1 and homs[m, t]:
                    grown[used | 1 << t] += w * homs[m, t]
        ways = grown
    return sum(ways.values())


def identity_check_count(g, bis):
    """checks_run of the identity suite over bis, counted off oracle_identities'
    loops: per bisection b and arrow h, nine checks and the vi fibres; per
    object three; per mul entry three; per value a of b, 1 + |s^-1(t(a))|."""
    out_of = Counter(g.src)
    into = Counter(g.tgt)
    count = 0
    for b in bis:
        sh, shinv = b.shadow(), b.shadow_inverse
        count += 9 * g.n_arrows + 3 * g.n_objects + 3 * len(g.mul)
        count += sum(out_of[sh[g.tgt[h]]] + into[shinv[g.src[h]]] for h in g.arrows)
        count += sum(1 + out_of[g.tgt[a]] for a in b.assign)
    return count


# The identity suite's column encodings: as built, bytes below 255 arrows with
# pairs packed into one byte while their codes fit (byte); bytes with every
# pair looked up in mul (per_pair); tuples whatever the number of arrows (wide).
BUILT = {"BYTE_ARROWS": bisection_module.BYTE_ARROWS,
         "PACKED_CODES": bisection_module.PACKED_CODES}
ENCODINGS = {"byte": BUILT, "per_pair": {**BUILT, "PACKED_CODES": 0},
             "wide": {**BUILT, "BYTE_ARROWS": 0}}


@contextmanager
def encoded(name):
    """The identity suite on the encoding name, within the block."""
    with pytest.MonkeyPatch.context() as mp:
        for attr, value in ENCODINGS[name].items():
            mp.setattr(bisection_module, attr, value)
        yield


@pytest.fixture(params=list(ENCODINGS))
def encoding(request):
    """The identity suite on each encoding in turn."""
    with encoded(request.param):
        yield request.param


def suite_outcome(g):
    """The identity report as a dict, or the class and message of what the
    suite raised."""
    try:
        return check_structure_identities(g).to_dict()
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def encoded_outcome(g):
    """check_structure_identities(g), or the class of what it raised, once
    every encoding gives the same report, or the same class and message."""
    seen = []
    for name in ENCODINGS:
        with encoded(name):
            seen.append(suite_outcome(g))
    assert seen == seen[:1] * len(seen)
    return outcome(check_structure_identities, g)


def assert_matches_oracle(g):
    """Same bisections in the same order, and the same identity report, in
    every encoding.

    Where only the oracle refuses, by its product-of-fibres cap, the fast
    path's answers are checked on their own: the list is strictly increasing,
    every entry is a section of s with a bijective shadow, and it is as long
    as the number of bisections; the report counts every check of the
    oracle's loops, and passes them all when g is a groupoid.
    """
    expected = outcome(oracle_enumerate, g)
    got = outcome(enumerate_bisections, g)
    if expected is EnumerationBound and not isinstance(got, type):
        assigns = [b.assign for b in got]
        assert assigns == sorted(set(assigns))
        for a in assigns:
            assert [g.src[x] for x in a] == list(g.objects)
            assert sorted(g.tgt[x] for x in a) == list(g.objects)
        assert len(assigns) == bisection_count(g)
        report = encoded_outcome(g)
        if isinstance(report, type):
            assert report is CompositionError and not validate_groupoid(g).ok
        else:
            assert report.checks_run == identity_check_count(g, got)
            assert report.ok or not validate_groupoid(g).ok
        return report
    if isinstance(expected, type):
        assert got is expected
    else:
        assert [b.assign for b in got] == [b.assign for b in expected]
        # the counts that stand in where only the oracle refuses, checked here
        assert len(got) == bisection_count(g)
    bis = got
    expected = outcome(oracle_identities, g)
    got = encoded_outcome(g)
    if isinstance(expected, type):
        assert got is expected
    else:
        assert got.to_dict() == expected.to_dict()
        assert got.checks_run == identity_check_count(g, bis)
    return expected


def permutation_group(gens, d):
    """The group generated by permutations of range(d), as group tables."""
    identity = tuple(range(d))
    elements, frontier = [identity], [identity]
    while frontier:
        fresh = []
        for a in frontier:
            for s in gens:
                c = tuple(a[s[i]] for i in range(d))
                if c not in elements:
                    elements.append(c)
                    fresh.append(c)
        frontier = fresh
    mult = {(a, b): tuple(a[b[i]] for i in range(d))
            for a in elements for b in elements}
    inverse = {a: tuple(sorted(range(d), key=a.__getitem__)) for a in elements}
    return elements, mult, identity, inverse


CORRUPTIONS = ("mul", "inv", "unit", "drop", "stray")
# faults the identity suite reads past on its own paths: an inv that does not
# swap s and t, and a product a.h with t(a.h) != t(a) or h.x with s(h.x) != s(x)
SHORTCUTS = ("inv-twist", "off-target", "off-source")


def corrupt(g, kind, i, j):
    """g with one structure entry wrong: two mul values swapped, one inv or
    unit entry moved to another arrow, one composable pair dropped from mul,
    or one stray mul entry on a non-composable pair; or one inv entry moved
    to an arrow not from t(a) to s(a), or one product a.b moved to an arrow
    whose target is not t(a) or whose source is not s(b).  g is left whole
    when it has no such pair or arrow."""
    mul, inv, unit = dict(g.mul), list(g.inv), list(g.unit)
    if kind == "inv-twist":
        a = i % g.n_arrows
        off = [x for x in g.arrows if (g.src[x], g.tgt[x]) != (g.tgt[a], g.src[a])]
        if off:
            inv[a] = off[j % len(off)]
    elif kind in ("off-target", "off-source"):
        a, b = list(mul)[i % len(mul)]
        off = [x for x in g.arrows if (g.tgt[x] != g.tgt[a] if kind == "off-target"
                                       else g.src[x] != g.src[b])]
        if off:
            mul[a, b] = off[j % len(off)]
    elif kind == "mul":
        keys = list(mul)
        k1, k2 = keys[i % len(keys)], keys[j % len(keys)]
        mul[k1], mul[k2] = mul[k2], mul[k1]
    elif kind == "drop":
        del mul[list(mul)[i % len(mul)]]
    elif kind == "stray":
        off = [(a, b) for a in g.arrows for b in g.arrows
               if not g.composable(a, b)]
        if off:
            mul[off[i % len(off)]] = j % g.n_arrows
    elif kind == "inv":
        a = i % g.n_arrows
        inv[a] = (inv[a] + 1 + j % (g.n_arrows - 1)) % g.n_arrows
    elif kind == "unit":
        m = i % g.n_objects
        unit[m] = (unit[m] + 1 + j % (g.n_arrows - 1)) % g.n_arrows
    return FiniteGroupoid(g.n_objects, g.src, g.tgt, unit, inv, mul)


perms = st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(
        st.permutations(range(d)).map(tuple), max_size=2)))


@st.composite
def fibred(draw, max_points=5):
    points = draw(st.permutations(range(draw(st.integers(1, max_points)))))
    cuts = draw(st.sets(st.integers(1, max(1, len(points) - 1))))
    bounds = [0] + sorted(c for c in cuts if c < len(points)) + [len(points)]
    return fibred_pair_groupoid([sorted(points[lo:hi])
                                 for lo, hi in zip(bounds, bounds[1:])])


@st.composite
def action(draw):
    d, gens = draw(perms)
    elements, mult, identity, inverse = permutation_group(gens, d)
    act = {(p, m): p[m] for p in elements for m in range(d)}
    return action_groupoid(FiniteGroupAction(elements, mult, identity, inverse,
                                             d, act))


groups = perms.map(lambda dg: group_groupoid(*permutation_group(dg[1], dg[0])))
small = st.one_of(st.integers(1, 2).map(pair_groupoid), fibred(max_points=3),
                  groups.filter(lambda g: g.n_arrows <= 3))
products = st.tuples(small, small).map(lambda gs: product_groupoid(*gs))
groupoids = st.one_of(
    st.integers(1, 4).map(pair_groupoid), fibred(), groups, action(), products)


@given(groupoids.filter(lambda g: g.n_arrows <= 12),
       st.sampled_from((None,) + CORRUPTIONS),
       st.integers(0, 1000), st.integers(0, 1000))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_generated_commutants_match_oracle(g, kind, i, j):
    if kind is not None and g.n_arrows > 1:
        g = corrupt(g, kind, i, j)
    expected = outcome(oracle_commutants, g)
    got = outcome(r_equivariant_commutant, g)
    if isinstance(expected, type):
        assert got is expected
    else:
        assert (got["r_commutant"], got["rb_commutant"]) == expected


def relabel(g, arrows, objects):
    """g with arrow a renamed arrows[a] and object m renamed objects[m]."""
    src, tgt, inv = ([None] * g.n_arrows for _ in range(3))
    for a in g.arrows:
        src[arrows[a]], tgt[arrows[a]] = objects[g.src[a]], objects[g.tgt[a]]
        inv[arrows[a]] = arrows[g.inv[a]]
    unit = [None] * g.n_objects
    for m in g.objects:
        unit[objects[m]] = arrows[g.unit[m]]
    return FiniteGroupoid(g.n_objects, src, tgt, unit, inv, {
        (arrows[a], arrows[b]): arrows[c] for (a, b), c in g.mul.items()})


def relabelled_maps(maps, arrows):
    """Arrow maps phi carried along the renaming: a -> phi(a) becomes
    arrows[a] -> arrows[phi(a)]; sorted, as the commutant lists are."""
    out = []
    for phi in maps:
        moved = [None] * len(phi)
        for a, b in enumerate(phi):
            moved[arrows[a]] = arrows[b]
        out.append(tuple(moved))
    return sorted(out)


def counted_commutant(g):
    """r_equivariant_commutant(g), and the consistency calls of its searches."""
    calls, search = [0], bisection_module._search

    def counting(choices, key, cap, consistent=None):
        def counted(prefix):
            calls[0] += 1
            return consistent(prefix)
        return search(choices, key, cap, consistent and counted)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bisection_module, "_search", counting)
        return r_equivariant_commutant(g), calls[0]


@given(groupoids.filter(lambda g: g.n_arrows <= 12), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_commutants_follow_a_relabelling(g, seed):
    # the commutants of a renamed table are the renamed commutants; with the
    # objects kept, the searches make as many consistency calls
    rng = random.Random(seed)
    arrows = rng.sample(range(g.n_arrows), g.n_arrows)
    objects = rng.sample(range(g.n_objects), g.n_objects)
    comm, calls = counted_commutant(g)
    for objects_kept, names in ((True, list(g.objects)), (False, objects)):
        got, got_calls = counted_commutant(relabel(g, arrows, names))
        for key in ("r_commutant", "rb_commutant", "left_translations"):
            assert got[key] == relabelled_maps(comm[key], arrows)
        for key in ("r_equals_left_translations", "rb_equals_left_translations"):
            assert got[key] == comm[key]
        if objects_kept:
            assert got_calls == calls


def test_commutant_work_does_not_follow_the_numbering():
    # z2 x pair(3) is pair(6) renumbered: each search examines pair(6)'s
    # 396,612 candidates, so the cap one below refuses
    g = product_groupoid(action_groupoid(z2_swap_action()), pair_groupoid(3))
    assert len(r_equivariant_commutant(g, cap=396_612)["r_commutant"]) == 720
    with pytest.raises(EnumerationBound):
        r_equivariant_commutant(g, cap=396_611)


@given(groupoids, st.sampled_from((None, "mul", "inv", "unit") + SHORTCUTS),
       st.integers(0, 1000), st.integers(0, 1000))
# 6^6 * 3^3 candidate sections exceed the oracle's cap; the search answers
@example(product_groupoid(pair_groupoid(3), fibred_pair_groupoid([[0], [1, 2]])),
         None, 0, 0)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_groupoids_match_oracle(g, kind, i, j):
    if kind is not None and g.n_arrows > 1:
        g = corrupt(g, kind, i, j)
    assert_matches_oracle(g)


def chain_category(f, k, kf=5):
    """The chain 0 -> 1 -> 2 as a category, not a groupoid: units 0, 1, 2, f:
    0 -> 1 and k: 1 -> 2 at ids f and k (3 and 4 in some order), k.f = kf at
    5, or missing from mul when kf is None, and inv the identity map.  Only
    the unit bisection exists, so L, R and C read products with a unit, and
    vi reads w.a and then (w.a).h, reaching k.f at h = f on its first side
    and at h = k on its second, whichever comes first in arrow order."""
    src, tgt = [0, 1, 2, None, None, 0], [0, 1, 2, None, None, 2]
    src[f], tgt[f], src[k], tgt[k] = 0, 1, 1, 2
    mul = {(0, 0): 0, (f, 0): f, (5, 0): 5, (1, 1): 1, (1, f): f, (k, 1): k,
           (2, 2): 2, (2, k): k, (2, 5): 5, (k, f): kf}
    return FiniteGroupoid(3, src, tgt, [0, 1, 2], range(6),
                          {xy: c for xy, c in mul.items() if c is not None})


# Tables whose first missing product the identity suite meets past L, R and
# C, with the error the per-check loops raise: in block 1, where the inverse
# bisection's L and R both miss one at the same arrow; in block 3, where
# v:left-vs-mul and v:right-vs-mul both miss one at the same entry of mul;
# and in vi, on either side.
FIRST_MISSING = [
    (FiniteGroupoid(2, [0, 1, 0], [0, 1, 1], [0, 1], [0, 0, 1],
                    {(0, 0): 0, (1, 1): 0, (1, 2): 2, (2, 0): 0, (2, 1): 1}),
     "non-composable pair: src=1 tgt=0"),
    (FiniteGroupoid(2, [0, 1], [0, 1], [0, 1], [0, 0], {(0, 0): 0, (1, 1): 0}),
     "non-composable pair: src=0 tgt=1"),
    (chain_category(3, 4, None), "non-composable pair: src=1 tgt=1"),
    (chain_category(4, 3, None), "non-composable pair: src=1 tgt=1")]


def test_fixtures_match_oracle(z2_groupoid, pair3):
    elements = list(range(4))
    z4 = group_groupoid(elements, {(a, b): (a + b) % 4 for a in elements
                                   for b in elements},
                        0, {a: (-a) % 4 for a in elements})
    for g in (z2_groupoid, pair3, z4, fibred_pair_groupoid([[0], [1, 2]])):
        assert assert_matches_oracle(g).ok
        for kind in ("mul", "inv", "unit") + SHORTCUTS:
            # each corruption is caught, so the failure path is compared too
            bad = corrupt(g, kind, 1, 2)
            report = assert_matches_oracle(bad)
            # a group has no arrow off its one hom-set, and is left whole
            assert report is CompositionError or not report.ok or bad == g, (g, kind)
    for g, message in FIRST_MISSING:
        assert assert_matches_oracle(g) is CompositionError
        assert suite_outcome(g) == (CompositionError, message)
    # the unit bisection of a category passes, and vi counts fibres s^-1(m)
    # and t^-1(m) of different sizes
    assert assert_matches_oracle(chain_category(3, 4)).ok


@pytest.fixture
def wide():
    """The identity suite on tuple columns, whatever the number of arrows, as
    the encoding whose report is compared with the oracle's."""
    with encoded("wide"):
        assert not _Columns(1).byte
        yield


def test_generated_groupoids_match_oracle_wide(wide):
    test_generated_groupoids_match_oracle()


def test_fixtures_match_oracle_wide(wide, z2_groupoid, pair3):
    test_fixtures_match_oracle(z2_groupoid, pair3)


@pytest.fixture
def per_pair():
    """The identity suite on byte columns, its C and c-v products looked up
    pair by pair, whatever the size of the table, as the encoding whose
    report is compared with the oracle's."""
    with encoded("per_pair"):
        assert _Columns(1).byte
        yield


def test_generated_groupoids_match_oracle_per_pair(per_pair):
    test_generated_groupoids_match_oracle()


def test_fixtures_match_oracle_per_pair(per_pair, z2_groupoid, pair3):
    test_fixtures_match_oracle(z2_groupoid, pair3)


def cyclic_group(n):
    elements = list(range(n))
    return group_groupoid(elements, {(a, b): (a + b) % n for a in elements
                                     for b in elements},
                          0, {a: (-a) % n for a in elements})


@pytest.mark.parametrize("g, packed", [
    (cyclic_group(15), True), (cyclic_group(16), True), (cyclic_group(17), False),
    (product_groupoid(pair_groupoid(2), cyclic_group(5)), True),
    (product_groupoid(pair_groupoid(2), cyclic_group(6)), False)],
    ids=["z15", "z16", "z17", "pair2xz5", "pair2xz6"])
def test_packing_limit_matches_oracle(monkeypatch, g, packed):
    # n_arrows * K on either side of one byte; at 256 (z16) the last code,
    # 255, is also the mark of a missing product
    K = max(map(len, g.target_fibres))
    assert (g.n_arrows * K <= bisection_module.PACKED_CODES) == packed
    tables = [g] + [corrupt(g, kind, i, 2 * i + 1) for kind in ("mul", "drop", "stray")
                    for i in (0, len(g.mul) // 2, len(g.mul) - 1)]
    for t in tables:
        assert_matches_oracle(t)
    packed_outcomes = [suite_outcome(t) for t in tables]
    monkeypatch.setattr(bisection_module, "PACKED_CODES", 0)
    assert [suite_outcome(t) for t in tables] == packed_outcomes


def test_columns_leaving_their_hom_set_fall_back_to_mul(monkeypatch, pair3):
    # mul holds every composable product of pair(3) and no other, but one is
    # moved out of its hom-set, so some L(h) column does not compose with the
    # inverse values it meets in C(h), and the lookup in mul raises
    K = max(map(len, pair3.target_fibres))
    assert pair3.n_arrows * K <= bisection_module.PACKED_CODES
    mul = dict(pair3.mul)
    key = next(iter(mul))
    mul[key] = next(x for x in pair3.arrows if pair3.src[x] != pair3.src[key[1]])
    g = FiniteGroupoid(pair3.n_objects, pair3.src, pair3.tgt, pair3.unit, pair3.inv, mul)
    assert set(g.mul) == set(pair3.mul)
    assert any(g.src[left_mult(b, h)] != g.tgt[g.inv[b(g.src[h])]]
               for b in enumerate_bisections(g) for h in g.arrows)
    assert outcome(oracle_identities, g) is CompositionError
    got = suite_outcome(g)
    assert got[0] is CompositionError and got[1].startswith("non-composable pair: src=")
    monkeypatch.setattr(bisection_module, "PACKED_CODES", 0)
    assert suite_outcome(g) == got


def test_identity_witnesses_follow_the_document_pair_order():
    # a four-element group with two products swapped, as a document and as
    # a copy with its mul rows reversed: each bisection's v and c-v
    # witnesses (u, h) come in the order of that document's rows
    z4 = group_groupoid(list(range(4)), {(a, b): (a + b) % 4 for a in range(4)
                                         for b in range(4)},
                        0, {a: (-a) % 4 for a in range(4)})
    doc = corrupt(z4, "mul", 1, 6).to_json()
    seen = []
    for d in (doc, {**doc, "mul": doc["mul"][::-1]}):
        report = check_structure_identities(FiniteGroupoid.from_json(d))
        place = {(a, b): k for k, (a, b, _) in enumerate(d["mul"])}
        by_bisection = {}
        for v in report.violations:
            if v.check.startswith(("v:", "c-v:")):
                by_bisection.setdefault(v.witness[0], []).append(place[v.witness[1:]])
        assert by_bisection
        assert all(ks == sorted(ks) for ks in by_bisection.values())
        seen.append([(v.check, v.witness) for v in report.violations])
    assert seen[0] != seen[1] and sorted(seen[0]) == sorted(seen[1])


def boundary_groupoid(n_arrows):
    """A fibred pair groupoid with n_arrows arrows: singletons, then one
    2-point block, whose four arrows take the largest ids.  It has 2
    bisections."""
    k = n_arrows - 2
    return fibred_pair_groupoid([[m] for m in range(k - 2)] + [[k - 2, k - 1]])


@pytest.mark.parametrize("n", [254, 255, 256])
def test_boundary_tables_match_oracle(n):
    # bytes below 255 arrows, where the mark 255 is not an arrow id; tuples
    # from 255 arrows on, where it would be
    g = boundary_groupoid(n)
    assert g.n_arrows == n and _Columns(n).byte == (n < 255)
    assert assert_matches_oracle(g).ok
    last = len(g.mul) - 1
    # the swap of the two last products breaks the block's hom-sets; moving
    # the block's first unit to arrow n - 1, its second unit, breaks the
    # unit checks
    assert assert_matches_oracle(corrupt(g, "mul", last, last - 1)) is CompositionError
    report = assert_matches_oracle(corrupt(g, "unit", n - 4, 2))
    assert {v.check for v in report.violations} == {
        "iii:unit-left", "iii:unit-right", "c-iii:unit"}


def missing_products(g):
    """g with one composable pair dropped from mul, at the first, the middle
    and the last entry, and with one product moved to an arrow with another
    source, outside its hom-set."""
    keys = list(g.mul)
    for k in (keys[0], keys[len(keys) // 2], keys[-1]):
        yield FiniteGroupoid(g.n_objects, g.src, g.tgt, g.unit, g.inv,
                             {key: p for key, p in g.mul.items() if key != k})
        mul = dict(g.mul)
        mul[k] = next(a for a in g.arrows if g.src[a] != g.src[k[1]])
        yield FiniteGroupoid(g.n_objects, g.src, g.tgt, g.unit, g.inv, mul)


@pytest.mark.parametrize("encoding", ["byte", "wide", "per_pair"], indirect=True)
@pytest.mark.parametrize("n", [3, 254, 255])
def test_missing_products_raise_composition_error(encoding, n):
    # pair(3), and the boundary tables on either side of the bytes' limit
    for g in missing_products(pair_groupoid(n) if n == 3 else boundary_groupoid(n)):
        if n == 3:
            assert outcome(oracle_identities, g) is CompositionError
        # never KeyError or IndexError, and never a report read off a mark
        with pytest.raises(CompositionError, match="non-composable pair"):
            check_structure_identities(g)


@pytest.mark.parametrize("name", ["pair6", "s4-group", "z2xpair3"])
def test_passing_tables_are_checked_on_whole_columns(monkeypatch, encoding, name):
    # no product is composed pair by pair, no column is walked place by
    # place and no Bisection is built (the suite reads the assignments of
    # enumerate_bisections' search) while every check passes; z2 x pair(3)
    # is pair(6) renumbered
    g = {"pair6": lambda: pair_groupoid(6),
         "s4-group": lambda: group_groupoid(*permutation_group([(1, 2, 3, 0), (1, 0, 2, 3)], 4)),
         "z2xpair3": lambda: product_groupoid(Z2, pair_groupoid(3))}[name]()

    def refuse(*args):
        raise AssertionError("the suite read a passing table pair by pair")
    monkeypatch.setattr(FiniteGroupoid, "compose", refuse)
    monkeypatch.setattr(bisection_module, "differ", refuse)
    monkeypatch.setattr(report_module, "differ", refuse)
    monkeypatch.setattr(bisection_module.Bisection, "__init__", refuse)
    report = check_structure_identities(g)
    assert report.ok
    assert report.checks_run == {"pair6": 1_054_080, "s4-group": 74_976,
                                 "z2xpair3": 1_054_080}[name]


def test_packed_product_missing_from_mul_raises():
    # three objects and two arrows, 3: 0 -> 1 and 4: 2 -> 0, with no way
    # back, so no bisection takes them and no L or R column holds the pair
    # (3, 4); its product, missing, is first met in a packed C column, and
    # raises as the lookup would
    g = FiniteGroupoid(3, [0, 1, 2, 0, 2], [0, 1, 2, 1, 0], [0, 1, 2], [4, 1, 1, 2, 3],
                       {(0, 0): 3, (0, 4): 1, (1, 1): 4, (1, 3): 1, (2, 2): 0,
                        (3, 0): 2, (4, 2): 4})
    assert g.n_arrows * 2 <= bisection_module.PACKED_CODES
    with pytest.raises(CompositionError, match="src=0 tgt=0"):
        check_structure_identities(g)
    assert g.composable(3, 4) and (3, 4) not in g.mul
    assert outcome(oracle_identities, g) is CompositionError


@st.composite
def total_tables(draw):
    """A groupoid whose mul is then defined on every pair of arrows, the
    non-composable ones by drawn stray entries, with one or two products
    moved to drawn arrows, and maybe one fault of SHORTCUTS.  No product is
    ever missing, so the suite reads on past products that leave their
    hom-set, and past an inv that swaps no s and t, and reports what fails."""
    g = draw(st.sampled_from([pair_groupoid(3), fibred_pair_groupoid([[0], [1, 2]]),
                              fibred_pair_groupoid([[0, 1, 2], [3, 4]])]))
    arrows = st.sampled_from(g.arrows)
    mul = {(a, b): g.mul[a, b] if (a, b) in g.mul else draw(arrows)
           for a in g.arrows for b in g.arrows}
    for key in draw(st.lists(st.sampled_from(list(g.mul)), min_size=1, max_size=2)):
        mul[key] = draw(arrows)
    g = FiniteGroupoid(g.n_objects, g.src, g.tgt, g.unit, g.inv, mul)
    kind = draw(st.sampled_from((None,) + SHORTCUTS))
    return g if kind is None else corrupt(g, kind, draw(st.integers(0, 1000)),
                                          draw(st.integers(0, 1000)))


def total_pair3():
    """pair(3) made total by 0 on every non-composable pair, with 0.0 moved to
    3: its vi failures hold values that several bisections take."""
    g = pair_groupoid(3)
    mul = {(a, b): g.mul.get((a, b), 0) for a in g.arrows for b in g.arrows}
    mul[0, 0] = 3
    return FiniteGroupoid(g.n_objects, g.src, g.tgt, g.unit, g.inv, mul)


@given(total_tables())
@example(total_pair3())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_total_tables_match_oracle(g):
    assert_matches_oracle(g)


def test_total_tables_match_oracle_wide(wide):
    test_total_tables_match_oracle()


def test_total_tables_match_oracle_per_pair(per_pair):
    test_total_tables_match_oracle()


def test_enumeration_matches_oracle_on_atiyah(three_point_bundle):
    from groupoidal import AtiyahGroupoid
    g = AtiyahGroupoid(three_point_bundle).as_finite_groupoid()
    assert [b.assign for b in enumerate_bisections(g)] == \
        [b.assign for b in oracle_enumerate(g)]


def test_enumeration_of_many_objects():
    # one bisection, found without recursing once per object
    n = 3000
    g = FiniteGroupoid(n, range(n), range(n), range(n), range(n),
                       {(a, a): a for a in range(n)})
    (b,) = enumerate_bisections(g)
    assert b.assign == g.unit
    assert check_structure_identities(g).ok


def test_empty_groupoid_matches_oracle():
    # no objects: one empty bisection, and nothing to check
    assert assert_matches_oracle(FiniteGroupoid(0, [], [], [], [], {})).ok


def test_cap_bounds_candidates_examined(pair3):
    # 3 arrows at the root, 3 under each of its 3 children and 3 under each
    # of the 6 two-arrow prefixes: 30 candidates for 6 bisections
    assert len(enumerate_bisections(pair3, cap=30)) == 6
    with pytest.raises(EnumerationBound, match="cap 29"):
        enumerate_bisections(pair3, cap=29)


def assert_validation_matches_oracle(g):
    report = validate_groupoid(g)
    assert report.to_dict() == oracle_validate(g).to_dict()
    return report


@given(groupoids, st.lists(st.tuples(st.sampled_from(CORRUPTIONS),
                                      st.integers(0, 1000), st.integers(0, 1000)),
                            max_size=3))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_validation_matches_oracle(g, corruptions):
    # several faults can share a row of mul, so their order is compared too
    for kind, i, j in corruptions:
        if g.n_arrows > 1 and g.mul:  # drops can empty a small table
            g = corrupt(g, kind, i, j)
    assert_validation_matches_oracle(g)


def test_fixture_validation_matches_oracle(z2_groupoid, pair3):
    z3 = group_groupoid([0, 1, 2], {(a, b): (a + b) % 3 for a in range(3)
                                    for b in range(3)},
                        0, {a: (-a) % 3 for a in range(3)})
    caught_as = {"drop": "i:mul-total", "stray": "i:mul-domain"}
    for g in (z2_groupoid, pair3, z3, fibred_pair_groupoid([[0], [1, 2]])):
        assert assert_validation_matches_oracle(g).ok
        for kind in CORRUPTIONS:
            if kind == "stray" and g.n_objects == 1:
                continue  # every pair of a group composes
            report = assert_validation_matches_oracle(corrupt(g, kind, 1, 2))
            assert not report.ok, (g, kind)
            if kind in caught_as:
                assert caught_as[kind] in {v.check for v in report.violations}
    # two strays in the first row of mul, stored in reverse order
    report = assert_validation_matches_oracle(
        corrupt(corrupt(z2_groupoid, "stray", 1, 0), "stray", 0, 0))
    assert [v.check for v in report.violations][:2] == ["i:mul-domain"] * 2


@st.composite
def typed_magmas(draw):
    """Tables that pass axiom (i) but are mostly not associative: 1-3
    objects, every hom-set of 1-3 arrows, and each composable pair's product
    drawn from the hom-set it must land in.  unit and inv take the first
    arrow of the right hom-set."""
    n = draw(st.integers(1, 3))
    src, tgt, hom = [], [], {}
    for m in range(n):
        for m2 in range(n):
            size = draw(st.integers(1, 3))
            hom[m, m2] = range(len(src), len(src) + size)
            src += [m] * size
            tgt += [m2] * size
    arrows = range(len(src))
    mul = {(a, b): draw(st.sampled_from(hom[src[b], tgt[a]]))
           for a in arrows for b in arrows if src[a] == tgt[b]}
    return FiniteGroupoid(n, src, tgt, [hom[m, m][0] for m in range(n)],
                          [hom[tgt[a], src[a]][0] for a in arrows], mul)


@given(typed_magmas(), st.lists(st.tuples(st.sampled_from(CORRUPTIONS),
                                          st.integers(0, 1000),
                                          st.integers(0, 1000)),
                                max_size=2))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_typed_magma_validation_matches_oracle(g, corruptions):
    for kind, i, j in corruptions:
        if g.n_arrows > 1 and g.mul:
            g = corrupt(g, kind, i, j)
    assert_validation_matches_oracle(g)


def test_uncovered_generators_are_not_trusted():
    # arrows 4, 5: 1 -> 1 lie outside S = {0, 1, 2, 3} (root 0); every triple
    # with its middle in S associates, but no product is 5, and (3, 5, 5)
    # does not associate
    src, tgt = [0, 0, 1, 1, 1, 1], [0, 1, 0, 0, 1, 1]
    mul = {(0, 0): 0, (0, 2): 2, (0, 3): 2, (1, 0): 1, (1, 2): 4, (1, 3): 4,
           (2, 1): 0, (2, 4): 2, (2, 5): 2, (3, 1): 0, (3, 4): 2, (3, 5): 3,
           (4, 1): 1, (4, 4): 4, (4, 5): 4, (5, 1): 1, (5, 4): 4, (5, 5): 4}
    g = FiniteGroupoid(2, src, tgt, [0, 4], [0, 2, 1, 1, 4, 4], mul)
    report = assert_validation_matches_oracle(g)
    assert any(v.check == "ii:assoc" for v in report.violations)


def test_generators_not_trusted_when_axiom_i_fails():
    # arrows 0: 0 -> 0, 1: 0 -> 1, 2: 1 -> 0 and 3, 4: 1 -> 1, so S = {0, 1,
    # 2} (root 0); 2.1 = 4 lands in the wrong hom-set, so products over S
    # reach every arrow, and stray entries define every product the
    # generators look up.  They would vouch for the table, which (3, 3, 1)
    # and seven more triples break.
    mul = {(0, 0): 0, (0, 2): 2, (0, 4): 4, (1, 0): 1, (1, 2): 3, (1, 4): 2,
           (2, 0): 2, (2, 1): 4, (2, 2): 3, (2, 3): 2, (2, 4): 2, (3, 1): 2,
           (3, 3): 3, (3, 4): 3, (4, 0): 4, (4, 1): 2, (4, 2): 2, (4, 3): 3,
           (4, 4): 1}
    g = FiniteGroupoid(2, [0, 0, 1, 1, 1], [0, 1, 0, 1, 1], [0, 3],
                       [0, 2, 1, 3, 4], mul)
    report = assert_validation_matches_oracle(g)
    assert [v.witness for v in report.violations if v.check == "ii:assoc"] == [
        (2, 3, 1), (2, 4, 1), (2, 4, 4), (3, 3, 1), (3, 4, 1), (3, 4, 4),
        (4, 4, 1), (4, 4, 3)]


def compensating_faults(g):
    """Tables a certificate of counts alone would pass: a swapped unit (two
    objects' units exchanged, or a group's unit exchanged with another
    element) and, with two objects or more, a product moved into another
    hom-set and a stray product with a dropped one, so that len(mul) still
    equals the number of composable pairs."""
    unit = list(g.unit)
    if g.n_objects == 1:
        unit[0] = next(x for x in g.arrows if x != unit[0])
        return [FiniteGroupoid(1, g.src, g.tgt, unit, g.inv, g.mul)]
    unit[0], unit[1] = unit[1], unit[0]
    mul = dict(g.mul)
    (a, b), c = list(mul.items())[len(mul) // 2]
    mul[a, b] = next(x for x in g.arrows if (g.src[x], g.tgt[x]) != (g.src[c], g.tgt[c]))
    both = corrupt(corrupt(g, "drop", 3, 0), "stray", 5, 1)
    assert len(both.mul) == sum(len(s) * len(t) for s, t in zip(g.source_fibres,
                                                                g.target_fibres))
    return [FiniteGroupoid(g.n_objects, g.src, g.tgt, unit, g.inv, g.mul),
            FiniteGroupoid(g.n_objects, g.src, g.tgt, g.unit, g.inv, mul), both]


def test_compensating_faults_fail_the_certificate(z2_groupoid, pair3,
                                                  three_point_bundle):
    z3 = group_groupoid([0, 1, 2], {(a, b): (a + b) % 3 for a in range(3)
                                    for b in range(3)},
                        0, {a: (-a) % 3 for a in range(3)})
    for g in (z2_groupoid, pair3, z3, product_groupoid(z2_groupoid, pair3),
              AtiyahGroupoid(three_point_bundle).as_finite_groupoid()):
        for bad in compensating_faults(g):
            assert not assert_validation_matches_oracle(bad).ok, bad.to_json()


@pytest.fixture
def walk_forbidden(monkeypatch):
    """validate_groupoid with the triple walk made to fail, and the report
    it gives with the certificate turned off instead."""
    real_walk = groupoid_module._assoc_walk

    def walked(g):
        with monkeypatch.context() as m:
            m.setattr(groupoid_module, "_assoc_on_generators",
                      lambda g, report, rows: False)
            m.setattr(groupoid_module, "_assoc_walk", real_walk)
            return validate_groupoid(g)

    def walk(g, report):
        raise AssertionError("associativity was walked, not certified")
    monkeypatch.setattr(groupoid_module, "_assoc_walk", walk)
    return walked


def test_certificate_taken_on_stock_fixtures(walk_forbidden, z2_groupoid, pair3,
                                             three_point_bundle):
    z4 = group_groupoid(list(range(4)), {(a, b): (a + b) % 4 for a in range(4)
                                         for b in range(4)},
                        0, {a: (-a) % 4 for a in range(4)})
    fixtures = [z2_groupoid, pair3, z4, pair_groupoid(1),
                fibred_pair_groupoid([[0], [1, 2]]),
                fibred_pair_groupoid([[2, 0], [1], [3, 4]]),
                product_groupoid(z2_groupoid, pair3),
                group_groupoid(*permutation_group([(1, 2, 0), (1, 0, 2)], 3)),
                AtiyahGroupoid(three_point_bundle).as_finite_groupoid()]
    for g in fixtures:
        report = validate_groupoid(g)
        assert report.ok, g
        assert report.to_dict() == walk_forbidden(g).to_dict()


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("fibre", ["z2_groupoid", "pair3"])
def test_certificate_taken_on_atiyah_tables(walk_forbidden, request,
                                            chain_bundle, fibre, k):
    g = AtiyahGroupoid(chain_bundle(request.getfixturevalue(fibre), k,
                                    seed=k)).as_finite_groupoid()
    report = validate_groupoid(g)
    assert report.ok
    assert report.to_dict() == walk_forbidden(g).to_dict()


@pytest.mark.parametrize("fibre,k", [("z2_groupoid", 3), ("z2_groupoid", 4),
                                     ("pair3", 3)])
def test_atiyah_validation_matches_oracle(request, chain_bundle, fibre, k):
    from groupoidal import AtiyahGroupoid
    g = AtiyahGroupoid(chain_bundle(request.getfixturevalue(fibre), k,
                                    seed=k)).as_finite_groupoid()
    assert assert_validation_matches_oracle(g).ok
    for n, kind in enumerate(CORRUPTIONS):
        assert not assert_validation_matches_oracle(corrupt(g, kind, 7 * n + 1, 11 * n + 2))


def oracle_bisection_through(g, a):
    """A bisection through a: m0 -> t0 by maximum bipartite matching of
    objects to shadow targets, with m0 pinned to t0; None if none exists."""
    m0, t0 = g.src[a], g.tgt[a]
    adjacency = {m: sorted({g.tgt[x] for x in source_fibre(g, m)} - {t0})
                 for m in g.objects}
    adjacency[m0] = [t0]
    match_right = {}

    def augment(u, seen):
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                if v not in match_right or augment(match_right[v], seen):
                    match_right[v] = u
                    return True
        return False

    if not all(augment(m, set()) for m in g.objects):
        return None
    match = {u: v for v, u in match_right.items()}
    return Bisection(g, [a if m == m0 else
                         min(x for x in source_fibre(g, m) if g.tgt[x] == match[m])
                         for m in g.objects])


def assert_id_reducible_matches_oracle(g):
    flag, witness = is_id_reducible(g)
    assert flag == all(oracle_bisection_through(g, a) is not None
                       for a in g.arrows)
    if flag:
        assert sorted(witness) == list(g.arrows)
        for a, b in witness.items():
            assert validate_bisection(g, b) and b(g.src[a]) == a
    return flag


@given(groupoids)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_id_reducible_matches_oracle(g):
    assume(validate_groupoid(g).ok)
    assert assert_id_reducible_matches_oracle(g)


def test_fixture_id_reducible_matches_oracle(z2_groupoid, pair3,
                                             three_point_bundle):
    from groupoidal import AtiyahGroupoid
    for g in (z2_groupoid, pair3, fibred_pair_groupoid([[0], [1, 2]]),
              AtiyahGroupoid(three_point_bundle).as_finite_groupoid()):
        assert assert_id_reducible_matches_oracle(g)
    # not a groupoid: arrow 2 runs 0 -> 1 and nothing runs back
    one_way = FiniteGroupoid(2, [0, 1, 0], [0, 1, 1], [0, 1], [0, 1, 2],
                             {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2})
    assert not assert_id_reducible_matches_oracle(one_way)
    assert is_id_reducible(one_way) == (False, 2)


def oracle_projectable(bundle, at=None, cap=1_000_000):
    """Every bisection of the symmetry groupoid, kept when it sends all the
    shadow points over each sigma over one f(sigma) and f is injective;
    vertical when f is the identity."""
    at = at or AtiyahGroupoid(bundle)
    projectable, vertical = [], []
    for b in enumerate_bisections(at.as_finite_groupoid(), cap=cap):
        base_map = {}
        ok = True
        for k, f in enumerate(bundle.shadow_points):
            e = at.elements[b(k)]
            if base_map.setdefault(f.sigma, e.sigma1) != e.sigma1:
                ok = False
                break
        if not ok or len(set(base_map.values())) != len(base_map):
            continue
        projectable.append(b)
        if all(s1 == s for s, s1 in base_map.items()):
            vertical.append(b)
    return projectable, vertical


def oracle_gauge_report(bundle, gauge, cap=1_000_000):
    """The gauge battery with the vertical count read off oracle_projectable
    and an uncounted closure loop."""
    _, vertical = oracle_projectable(bundle, cap=cap)
    report = ValidationReport()
    keys = {aut.action_key() for aut in gauge}
    report.record("gauge:has-identity",
                  identity_automorphism(bundle).action_key() in keys)
    for a in gauge:
        report.record("gauge:inverse-closed",
                      a.inverse().action_key() in keys, a.f)
        for b in gauge:
            report.record("gauge:product-closed",
                          a.compose(b).action_key() in keys)
    report.record("gauge:matches-vertical-bisections",
                  len(vertical) == len(gauge),
                  detail="{} bisections vs {} gauge maps".format(
                      len(vertical), len(gauge)))
    return report


Z2 = action_groupoid(z2_swap_action())


@st.composite
def chain_bundles(draw):
    """A bundle over the points s0..s(k-1), k = 2..4, covered by the charts
    {s_i, s_(i+1)}, each overlap glued by a drawn fibre bisection.  The fibre
    is z2, pair(3), a fibred pair groupoid or a group groupoid; the Atiyah
    table has at most 8 objects, and at most 64 gauge maps keep the closure
    oracle quick."""
    g = draw(st.one_of(st.just(Z2), st.just(pair_groupoid(3)),
                       fibred(max_points=3), groups))
    k = draw(st.integers(2, 4))
    bis = enumerate_bisections(g)
    assume(k * g.n_objects <= 8 and len(bis) ** k <= 64)
    base = ["s{}".format(i) for i in range(k)]
    cover = [[base[i], base[i + 1]] for i in range(k - 1)]
    entries = {(i, i + 1, base[i + 1]): draw(st.sampled_from(bis))
               for i in range(k - 2)}
    return build_bundle(CechBase(base, cover), Cocycle(g, entries), g)


def assert_projectable_matches_oracle(bundle):
    """Both lists equal the oracle's in order, their sizes are k!.|Bis|^k
    and |Bis|^k, and the gauge battery reports what it reported before."""
    at = AtiyahGroupoid(bundle)
    got = enumerate_projectable_bisections(bundle, at)
    expected = oracle_projectable(bundle, at)
    for g_list, e_list in zip(got, expected):
        assert [b.assign for b in g_list] == [b.assign for b in e_list]
    k = len(bundle.base.base)
    n_bis = len(enumerate_bisections(bundle.groupoid))
    assert [len(x) for x in got] == [math.factorial(k) * n_bis ** k, n_bis ** k]
    gauge = enumerate_gauge_group(bundle)
    report = verify_gauge_group(bundle, gauge)
    assert report.ok
    assert report.to_dict() == oracle_gauge_report(bundle, gauge).to_dict()
    assert verify_gauge_group(bundle).to_dict() == report.to_dict()


@given(chain_bundles())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_generated_projectable_match_oracle(bundle):
    assert_projectable_matches_oracle(bundle)


@pytest.mark.parametrize("fibre,k", [("z2_groupoid", 2), ("z2_groupoid", 3),
                                     ("z2_groupoid", 4), ("pair3", 2)])
def test_chain_projectable_match_oracle(request, chain_bundle, fibre, k):
    assert_projectable_matches_oracle(
        chain_bundle(request.getfixturevalue(fibre), k, seed=k))


def test_running_example_projectable_match_oracle(three_point_bundle):
    assert_projectable_matches_oracle(three_point_bundle)


@given(st.one_of(products, chain_bundles().map(
    lambda bundle: AtiyahGroupoid(bundle).as_finite_groupoid())))
@example(product_groupoid(product_groupoid(pair_groupoid(2), Z2),
                          fibred_pair_groupoid([[0], [1, 2]])))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_product_rows_match_mul_view(g):
    # the rows come by arithmetic; mul walks them pair by pair, and a table
    # built from those pairs has the same rows
    rows = g.rows()
    pairs = [((a, b), c) for a, row in enumerate(rows) for b, c in zip(
        g.target_fibres[g.src[a]], row)]
    assert list(g.mul.items()) == pairs and len(g.mul) == len(pairs)
    assert all(g.mul[ab] == g.compose(*ab) == c for ab, c in pairs)
    rebuilt = FiniteGroupoid(g.n_objects, g.src, g.tgt, g.unit, g.inv, dict(pairs))
    assert groupoid_module._rows(g) == rows == rebuilt.rows() and rebuilt == g
