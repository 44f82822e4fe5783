"""Automorphisms of a glued bundle and their global-bisection avatars.

An automorphism is a base bijection f together with chart transition data
gamma_(j,i)(sigma), a bisection for each sigma in O_i with f(sigma) in O_j,
compatible with the cocycle.  Locally it acts by left multiplication, so it
commutes with the right groupoid action by construction; the interesting
checks are the gluing relations and the correspondence with bisections of
the symmetry groupoid.
"""

from collections.abc import Sequence
from contextlib import suppress
from functools import cache, cached_property
from itertools import product as iproduct

from .atiyah import AtElement, AtiyahGroupoid
from .bisection import (Bisection, _search, bisection_inverse,
                        bisection_product, conjugate, enumerate_bisections,
                        left_mult, unit_bisection, validate_bisection)
from .bundle import FPoint, MomentMismatch, PPoint, bundle_from_json
from .report import EnumerationBound, StructuralError, ValidationReport


def _inverse_of(f):
    """The inverse of the base map f; raises unless f is one to one."""
    with suppress(TypeError):  # an unhashable value is no base point
        f_inv = {v: k for k, v in f.items()}
        if len(f_inv) == len(f):
            return f_inv
    raise StructuralError("base map is not a bijection")


class BundleAutomorphism:
    """A base map with chart data, kept as given, read in canonical charts."""

    def __init__(self, bundle, f, gamma):
        self.bundle = bundle
        self.f = dict(f)
        self.f_inv = _inverse_of(self.f)
        self.gamma = dict(gamma)

    def gamma_at(self, j, i, sigma):
        """gamma_(j,i)(sigma): the stored entry, or one derived, and not
        stored, from the first entry stored at sigma by the gluing rule
        gamma_(l,k) = beta_lj(f(sigma)) . gamma_(j,i) . beta_ik(sigma)."""
        if (j, i, sigma) in self.gamma:
            return self.gamma[(j, i, sigma)]
        fs = self.f[sigma]
        for (j0, i0, s0), g0 in self.gamma.items():
            if s0 == sigma:
                c = self.bundle.cocycle
                return bisection_product(
                    c.beta(j, j0, fs), bisection_product(g0, c.beta(i0, i, sigma)))
        raise StructuralError("no chart data at {}".format(sigma))

    @cached_property
    def _local(self):
        """sigma -> its bisection between canonical charts, in base order."""
        chart = self.bundle.base.canonical_chart
        return {s: self.gamma_at(chart(self.f[s]), chart(s), s)
                for s in self.bundle.base.base}

    def apply(self, p):
        """The image of a canonical point, again in canonical form."""
        fs = self.f[p.sigma]
        return PPoint(fs, self.bundle.base.canonical_chart(fs),
                      left_mult(self._local[p.sigma], p.arrow))

    def apply_shadow(self, fp):
        fs = self.f[fp.sigma]
        return FPoint(fs, self.bundle.base.canonical_chart(fs),
                      self._local[fp.sigma].shadow()[fp.obj])

    def apply_adjoint(self, e):
        """Conjugation on the adjoint bundle; only defined when f = id."""
        if not self.is_vertical():
            raise StructuralError("adjoint push-forward needs a vertical map")
        g = self._local[e.sigma]
        return type(e)(e.sigma, e.chart, conjugate(g, e.arrow))

    def is_vertical(self):
        return all(v == k for k, v in self.f.items())

    def compose(self, other):
        """self after other; at sigma, self(other.f(sigma)) . other(sigma)."""
        f = {s: self.f[t] for s, t in other.f.items()}
        return _Canonical(self.bundle, f, _inverse_of(f), [
            bisection_product(self._local[other.f[s]], g) for s, g in other._local.items()])

    def inverse(self):
        """At sigma, the inverse of the bisection at f^-1(sigma)."""
        return _Canonical(self.bundle, self.f_inv, self.f, [
            bisection_inverse(self._local[self.f_inv[s]]) for s in self.bundle.base.base])

    def action_key(self):
        """f and the bisections in base order.  They fix the action (sigma, a)
        -> (f(sigma), gamma_sigma(t(a)).a), which fixes them at unit arrows."""
        return (tuple(self.f[s] for s in self._local),
                tuple(g.assign for g in self._local.values()))


class _Canonical(BundleAutomorphism):
    """Made by the library: f, f_inv and the bisections in canonical charts, in base order."""

    def __init__(self, bundle, f, f_inv, bisections):
        self.bundle, self.f, self.f_inv, self._bisections = bundle, f, f_inv, bisections

    _local = cached_property(lambda self: dict(zip(self.bundle.base.base, self._bisections)))

    @cached_property
    def gamma(self):
        chart = self.bundle.base.canonical_chart
        return {(chart(self.f[s]), chart(s), s): g for s, g in self._local.items()}


def automorphism_from_json(doc, bundle=None):
    """The automorphism a document gives: its bundle, unless one already built
    from it is passed, the base map f (an object) and gamma, a list of {j, i,
    sigma, bisection}.  A document of another shape raises StructuralError;
    gamma values are checked later, by validate_automorphism."""
    try:
        bundle, f = bundle or bundle_from_json(doc["bundle"]), {**doc["f"]}
        gamma = {(e["j"], e["i"], e["sigma"]): Bisection.from_json(
            bundle.groupoid, e["bisection"]) for e in doc["gamma"]}
    except (KeyError, TypeError) as exc:
        raise StructuralError("malformed automorphism document: {}".format(exc))
    return BundleAutomorphism(bundle, f, gamma)


def identity_automorphism(bundle):
    f = {s: s for s in bundle.base.base}
    return _Canonical(bundle, f, f, [unit_bisection(bundle.groupoid)] * len(f))


def validate_automorphism(bundle, aut):
    """Bijectivity, bisection values, gluing relations, equivariance."""
    report = ValidationReport()
    base = bundle.base
    points = set(base.base)  # f is injective: check it maps base onto base
    bad = ([s for s in base.base if s not in aut.f or aut.f[s] not in points]
           or [s for s in aut.f if s not in points])
    report.record("aut:f-bijection", not bad, bad[0] if bad else None)
    for key, g in aut.gamma.items():
        report.record("aut:gamma-bisection",
                      validate_bisection(bundle.groupoid, g), key)
    held = {key[2] for key in aut.gamma}
    for sigma in (s for s in base.base if s not in held):
        report.add("aut:chart-data", sigma, "no gamma entry at this base point")
    charts = range(base.n_charts)
    for j, i, sigma in aut.gamma:  # off its charts an entry is ignored or misread
        fs = aut.f.get(sigma)  # f off the base fails aut:f-bijection instead
        if not (i in charts and j in charts and sigma in base.cover[i]
                and (fs not in points or fs in base.cover[j])):
            report.add("aut:chart-domain", (j, i, sigma), "sigma or f(sigma) off its chart")
    if not report.ok:  # the checks below read f and gamma at every point
        return report
    for sigma in base.base:
        fs = aut.f[sigma]
        pairs = list(iproduct(base.charts_containing(sigma),
                              base.charts_containing(fs)))
        for i, j in pairs:
            g_ji = aut.gamma_at(j, i, sigma)
            for k, l in pairs:
                lhs = aut.gamma_at(l, k, sigma)
                rhs = bisection_product(
                    bundle.cocycle.beta(l, j, fs),
                    bisection_product(g_ji, bundle.cocycle.beta(i, k, sigma)))
                report.record("aut:gluing", lhs == rhs, (i, j, k, l, sigma))
    for p in bundle.points:
        q = aut.apply(p)
        for h in bundle.groupoid.target_fibres[bundle.moment(p)]:
            report.record("aut:equivariance",
                          aut.apply(bundle.right_action(p, h))
                          == bundle.right_action(q, h), (p, h))
        report.record("aut:shadow-compatible",
                      aut.apply_shadow(bundle.sitting_duck(p))
                      == bundle.sitting_duck(q), p)
    return report


def automorphism_to_bisection(at, aut):
    """The global bisection of the symmetry groupoid attached to an
    automorphism: over (sigma, m) it places the class of the arrow
    gamma_(j,i)(sigma)(m) from (sigma, m) to its image shadow point."""
    chart = at.bundle.base.canonical_chart
    return Bisection(at.as_finite_groupoid(), [at.index(AtElement(
        aut.f[fp.sigma], chart(aut.f[fp.sigma]), aut._local[fp.sigma](fp.obj), fp.sigma,
        fp.chart)) for fp in at.bundle.shadow_points])


def bisection_to_automorphism(bundle, b):
    """Recover the automorphism from a projectable bisection of the symmetry
    groupoid, read off its ids.  Raises if it does not cover a base map."""
    g, base = bundle.groupoid, bundle.base.base
    f, local, nk = {}, {}, g.n_arrows * len(base)
    for k, fp in enumerate(bundle.shadow_points):
        if f.setdefault(fp.sigma, base[b(k) // nk]) != base[b(k) // nk]:
            raise StructuralError("bisection does not project over {}".format(fp.sigma))
        local.setdefault(fp.sigma, [None] * g.n_objects)[fp.obj] = b(k) % g.n_arrows
    return _Canonical(bundle, f, _inverse_of(f), [Bisection(g, a) for a in local.values()])


def verify_bisection_correspondence(bundle, at, aut):
    """The attached bisection is a section of S, covers the shadow map
    through T, implements the automorphism through the left action, and
    survives the round trip back to automorphism data.  Read on ids c, whose
    source is the table's and arrow c % n; sigma1 is f(sigma) by construction."""
    report = ValidationReport()
    b, fg, g = automorphism_to_bisection(at, aut), at.as_finite_groupoid(), bundle.groupoid
    report.record("corr:is-bisection", validate_bisection(fg, b))
    for j, fp in enumerate(bundle.shadow_points):
        report.record("corr:section-of-S", fg.src[b(j)] == j, fp)
        report.record("corr:T-is-shadow-map",
                      g.tgt[b(j) % g.n_arrows] == aut.apply_shadow(fp).obj, fp)
    for q, p in enumerate(bundle.points):  # q = s * n + a sits over s * |Ob G| + t(a)
        c = b(duck := q // g.n_arrows * g.n_objects + g.tgt[p.arrow])
        if fg.src[c] != duck:
            raise MomentMismatch("element source differs from the duck of the point")
        report.record("corr:implements",
                      g.compose(c % g.n_arrows, p.arrow) == aut.apply(p).arrow, p)
    back = bisection_to_automorphism(bundle, b)
    report.record("corr:round-trip", back.action_key() == aut.action_key())
    return report


class _GaugeMaps(Sequence):
    """Bis^k as a read-only sequence in iproduct order, the last base point's
    bisection varying fastest: map i reads the base-|Bis| digits of i.  Its
    length is arithmetic, and each map is made when it is read."""

    def __init__(self, bundle, bis):
        self.bundle, self.bis, self.f = bundle, bis, {s: s for s in bundle.base.base}

    def __len__(self):
        return len(self.bis) ** len(self.f)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i, n = range(len(self))[i], len(self.bis)
        return _Canonical(self.bundle, self.f, self.f, tuple(
            self.bis[i // n ** p % n] for p in reversed(range(len(self.f)))))

    def __iter__(self):
        return (_Canonical(self.bundle, self.f, self.f, choice)
                for choice in iproduct(self.bis, repeat=len(self.f)))


def enumerate_gauge_group(bundle, cap=1_000_000):
    """All vertical automorphisms, by brute force over the free chart data.

    The gluing relations leave one free bisection per base point, read in
    its canonical chart.  The map sends the point (sigma, e_m) to the
    arrow gamma(m) of the bisection chosen at sigma, so distinct choices
    act differently and the list needs no deduplication.  It is a read-only
    sequence over Bis^k whose maps, made when read, share one identity map
    as f and f_inv, which nothing writes.
    """
    bis = enumerate_bisections(bundle.groupoid, cap=cap)
    k = len(bundle.base.base)
    if len(bis) ** k > cap:
        raise EnumerationBound(
            "{}^{} candidate gauge maps exceed cap {}".format(len(bis), k, cap))
    return _GaugeMaps(bundle, bis)


def verify_gauge_group(bundle, gauge=None, cap=1_000_000, at=None):
    """Closure, identity, inverses, and agreement with the vertical
    bisections of at, the Atiyah groupoid; closure costs |gauge|^2 products.
    Their action keys, and the inverses', are read off the composed base maps
    and memos of bisection_product and bisection_inverse on assignments."""
    if gauge is None:
        gauge = enumerate_gauge_group(bundle, cap=cap)
    if len(gauge) ** 2 > cap:
        raise EnumerationBound(
            "{}^2 gauge products exceed cap {}".format(len(gauge), cap))
    # the bisections of at covering the identity: those of the kernel over the diagonal
    at = at or AtiyahGroupoid(bundle)
    fg, n, k = at.as_finite_groupoid(), bundle.groupoid.n_arrows, len(bundle.base.base)
    n_vertical = len(_search([[a for a in fibre if a // n // k == a // n % k]
                              for fibre in fg.source_fibres], fg.tgt, cap))
    report, base, g = ValidationReport(), bundle.base.base, bundle.groupoid
    product = cache(lambda x, y: bisection_product(Bisection(g, x), Bisection(g, y)).assign)
    inverse = cache(lambda x: bisection_inverse(Bisection(g, x)).assign)
    rows = [(a, {s: x.assign for s, x in a._local.items()}, a.action_key()) for a in gauge]
    keys = {key for _, _, key in rows}
    ident = identity_automorphism(bundle)
    report.record("gauge:has-identity", ident.action_key() in keys)
    for a, la, _ in rows:
        key = (tuple([a.f_inv[s] for s in base]), tuple([inverse(la[a.f_inv[s]]) for s in base]))
        report.record("gauge:inverse-closed", key in keys, a.f)
        for _, _, (fb, xb) in rows:  # at sigma: a at b.f(sigma) after b at sigma
            key = (tuple([a.f[t] for t in fb]), tuple([product(la[t], x) for t, x in zip(fb, xb)]))
            report.record("gauge:product-closed", key in keys)
    report.record("gauge:matches-vertical-bisections",
                  n_vertical == len(gauge),
                  detail="{} bisections vs {} gauge maps".format(
                      n_vertical, len(gauge)))
    return report
