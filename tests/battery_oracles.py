"""The per-check loops of the principal, Atiyah-sequence and trident
batteries, and the label-reading bisection correspondence, kept as test
oracles.  Each walks namedtuple points and elements through the public
structure maps and records every check one at a time, so its report fixes
the check names, the witnesses and their order, and the exception it raises
fixes the one the battery must raise.

The automorphisms the library makes (gauge maps, products, inverses, the
identity and maps read off bisections) are kept here as they were first
built: a full BundleAutomorphism whose chart data is written at once and
whose bisections in canonical charts are read back through gamma_at.  The
gauge list is kept as it was first enumerated, one map built per choice,
and the gauge battery as it was first closed, one map built per product."""

from collections import Counter
from itertools import product

from groupoidal import (AdjointBundle, AtiyahGroupoid, Bisection,
                        BundleAutomorphism, StructuralError, ValidationReport,
                        automorphism_to_bisection, bisection_inverse,
                        bisection_product, enumerate_bisections,
                        identity_automorphism, unit_bisection,
                        validate_bisection)
from groupoidal.automorphism import _Canonical
from groupoidal.bisection import _search
from groupoidal.report import EnumerationBound


def oracle_principal_axioms(bundle):
    g = bundle.groupoid
    report = ValidationReport()
    for p in bundle.points:
        mu = bundle.moment(p)
        report.record("GrM2:unit", bundle.right_action(p, g.unit[mu]) == p, p)
        for h in g.target_fibres[mu]:
            q = bundle.right_action(p, h)
            report.record("GrM1:moment", bundle.moment(q) == g.src[h], (p, h))
            report.record("PGr2:duck-invariant",
                          bundle.sitting_duck(q) == bundle.sitting_duck(p), (p, h))
            for k in g.target_fibres[g.src[h]]:
                report.record(
                    "GrM3:assoc",
                    bundle.right_action(q, k)
                    == bundle.right_action(p, g.compose(h, k)),
                    (p, h, k))
    for f in bundle.shadow_points:
        fibre = bundle.duck_fibre(f)
        for p1 in fibre:
            for p2 in fibre:
                d = bundle.division(p1, p2)
                report.record("PGr3:div-target",
                              g.tgt[d] == bundle.moment(p1), (p1, p2))
                report.record("PGr3:div-act",
                              bundle.right_action(p1, d) == p2, (p1, p2))
            for h in g.target_fibres[bundle.moment(p1)]:
                report.record("PGr3:act-div",
                              bundle.division(p1, bundle.right_action(p1, h)) == h,
                              (p1, h))
    return report


def oracle_atiyah_sequence(bundle, at=None, adjoint=None):
    at = at or AtiyahGroupoid(bundle)
    adjoint = adjoint or AdjointBundle(bundle)
    report = ValidationReport()
    pairs = list(product(bundle.base.base, repeat=2))
    report.record("sequence:surjective",
                  {at.project(e) for e in at.elements} == set(pairs))
    for (k1, k2), k in at.as_finite_groupoid().mul.items():
        e1, e2 = at.elements[k1], at.elements[k2]
        report.record("sequence:morphism",
                      at.project(at.elements[k]) == (e1.sigma1, e2.sigma2),
                      (e1, e2))
    kernel = {e for e in at.elements if e.sigma1 == e.sigma2}
    image = {adjoint.embed(e) for e in adjoint.elements}
    report.record("sequence:kernel", kernel == image)
    report.record("sequence:embedding-injective",
                  len(image) == len(adjoint.elements))
    fibre_sizes = Counter(at.project(e) for e in at.elements)
    for pair in pairs:
        report.record("sequence:fibre-size",
                      fibre_sizes[pair] == bundle.groupoid.n_arrows, pair)
    return report


def oracle_trident(bundle, at=None):
    at = at or AtiyahGroupoid(bundle)
    g = bundle.groupoid
    report = ValidationReport()
    fg = at.as_finite_groupoid()
    duck_fibres = [bundle.duck_fibre(f) for f in bundle.shadow_points]
    for k, e in enumerate(at.elements):
        for p in duck_fibres[fg.src[k]]:
            q = at.act_on_bundle(e, p)
            report.record("trident:covers-pair",
                          (q.sigma, p.sigma) == at.project(e), (e, p))
            report.record("trident:duck-of-action",
                          bundle.sitting_duck(q) == at.target(e), (e, p))
            report.record("trident:moment-invariant",
                          bundle.moment(q) == bundle.moment(p), (e, p))
            report.record("trident:shadow-intertwines",
                          at.act_on_shadow(e, bundle.sitting_duck(p))
                          == bundle.sitting_duck(q), (e, p))
            for h in g.target_fibres[bundle.moment(p)]:
                lhs = at.act_on_bundle(e, bundle.right_action(p, h))
                rhs = bundle.right_action(q, h)
                report.record("trident:actions-commute", lhs == rhs, (e, p, h))
            report.record("trident:division-inverts",
                          at.division(q, p) == e, (e, p))
    points_by_moment = [[] for _ in g.objects]
    for p in bundle.points:
        points_by_moment[bundle.moment(p)].append(p)
    for p1 in bundle.points:
        for p2 in points_by_moment[bundle.moment(p1)]:
            e = at.division(p1, p2)
            report.record("trident:act-after-division",
                          at.act_on_bundle(e, p2) == p1, (p1, p2))
    for p in bundle.points:
        f = bundle.sitting_duck(p)
        report.record("trident:unit-acts-trivially",
                      at.act_on_bundle(at.unit(f), p) == p, p)
    return report


def oracle_canonical(bundle, f, local):
    """The automorphism over f with local[sigma] between canonical charts:
    its gamma written at once, its _local read back through gamma_at."""
    chart = bundle.base.canonical_chart
    return BundleAutomorphism(bundle, f, {(chart(f[s]), chart(s), s): g
                                          for s, g in local.items()})


def oracle_compose(a, b):
    """a after b; at sigma, a(b.f(sigma)) . b(sigma)."""
    mid = b.f
    return oracle_canonical(a.bundle, {s: a.f[mid[s]] for s in mid}, {
        s: bisection_product(a._local[mid[s]], g) for s, g in b._local.items()})


def oracle_inverse(a):
    """At f(sigma), the inverse of the bisection at sigma."""
    return oracle_canonical(a.bundle, a.f_inv, {
        a.f[s]: bisection_inverse(g) for s, g in a._local.items()})


def oracle_identity(bundle):
    return oracle_canonical(bundle, {s: s for s in bundle.base.base}, dict.fromkeys(
        bundle.base.base, unit_bisection(bundle.groupoid)))


def oracle_gauge_group(bundle):
    """The gauge maps one at a time, in the library's order: one bisection
    per base point, the last base point's varying fastest."""
    base = bundle.base.base
    for choice in product(enumerate_bisections(bundle.groupoid), repeat=len(base)):
        yield oracle_canonical(bundle, {s: s for s in base}, dict(zip(base, choice)))


def oracle_gauge_list(bundle):
    """The gauge maps as a list, every one built at once, in the library's order."""
    f = {s: s for s in bundle.base.base}
    return [_Canonical(bundle, f, f, choice) for choice in
            product(enumerate_bisections(bundle.groupoid), repeat=len(f))]


def oracle_gauge_closure(bundle, gauge, cap=1_000_000, at=None):
    """The gauge battery with one composed map and one inverse map built per
    check, read through action_key."""
    if len(gauge) ** 2 > cap:
        raise EnumerationBound(
            "{}^2 gauge products exceed cap {}".format(len(gauge), cap))
    at = at or AtiyahGroupoid(bundle)
    fg, n, k = at.as_finite_groupoid(), bundle.groupoid.n_arrows, len(bundle.base.base)
    n_vertical = len(_search([[a for a in fibre if a // n // k == a // n % k]
                              for fibre in fg.source_fibres], fg.tgt, cap))
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
                  n_vertical == len(gauge),
                  detail="{} bisections vs {} gauge maps".format(
                      n_vertical, len(gauge)))
    return report


def oracle_bisection_to_automorphism(bundle, at, b):
    """The automorphism read off the labels of the elements b places."""
    g = bundle.groupoid
    f, local = {}, {}
    for k, fp in enumerate(bundle.shadow_points):
        e = at.elements[b(k)]
        if f.setdefault(fp.sigma, e.sigma1) != e.sigma1:
            raise StructuralError(
                "bisection does not project over {}".format(fp.sigma))
        local.setdefault(fp.sigma, [None] * g.n_objects)[fp.obj] = e.arrow
    return oracle_canonical(bundle, f, {s: Bisection(g, assign)
                                        for s, assign in local.items()})


def oracle_bisection_correspondence(bundle, at, aut):
    report = ValidationReport()
    b = automorphism_to_bisection(at, aut)
    report.record("corr:is-bisection",
                  validate_bisection(at.as_finite_groupoid(), b))
    for k, fp in enumerate(bundle.shadow_points):
        e = at.elements[b(k)]
        report.record("corr:section-of-S", at.source(e) == fp, fp)
        report.record("corr:T-is-shadow-map",
                      at.target(e) == aut.apply_shadow(fp), fp)
    shadow_index = {f: k for k, f in enumerate(bundle.shadow_points)}
    for p in bundle.points:
        fp = bundle.sitting_duck(p)
        e = at.elements[b(shadow_index[fp])]
        report.record("corr:implements",
                      at.act_on_bundle(e, p) == aut.apply(p), p)
    back = oracle_bisection_to_automorphism(bundle, at, b)
    report.record("corr:round-trip", back.action_key() == aut.action_key())
    return report
