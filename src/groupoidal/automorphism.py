"""Automorphisms of a glued bundle and their global-bisection avatars.

An automorphism is a base bijection f together with chart transition data
gamma_(j,i)(sigma), a bisection for each sigma in O_i with f(sigma) in O_j,
compatible with the cocycle.  Locally it acts by left multiplication, so it
commutes with the right groupoid action by construction; the interesting
checks are the gluing relations and the correspondence with bisections of
the symmetry groupoid.
"""

from itertools import product as iproduct

from .atiyah import AtElement, AtiyahGroupoid, _vertical_bisections
from .bisection import (Bisection, bisection_inverse, bisection_product,
                        conjugate, enumerate_bisections, left_mult,
                        unit_bisection, validate_bisection)
from .bundle import FPoint, PPoint
from .report import EnumerationBound, StructuralError, ValidationReport


class BundleAutomorphism:
    """A base bijection with bisection-valued chart data."""

    def __init__(self, bundle, f, gamma):
        self.bundle = bundle
        self.f = dict(f)
        try:
            self.f_inv = {v: k for k, v in self.f.items()}
        except TypeError:  # an unhashable value is no base point
            raise StructuralError("base map is not a bijection") from None
        if len(self.f_inv) != len(self.f):
            raise StructuralError("base map is not a bijection")
        self.gamma = dict(gamma)

    def gamma_at(self, j, i, sigma):
        """gamma_(j,i)(sigma), derived from a stored entry by the gluing rule
        gamma_(l,k) = beta_lj(f(sigma)) . gamma_(j,i) . beta_ik(sigma)."""
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
        """The image of a canonical point, again in canonical form."""
        fs = self.f[p.sigma]
        j = self.bundle.base.canonical_chart(fs)
        g = self.gamma_at(j, p.chart, p.sigma)
        return PPoint(fs, j, left_mult(g, p.arrow))

    def apply_shadow(self, fp):
        fs = self.f[fp.sigma]
        j = self.bundle.base.canonical_chart(fs)
        g = self.gamma_at(j, fp.chart, fp.sigma)
        return FPoint(fs, j, g.shadow()[fp.obj])

    def apply_adjoint(self, e):
        """Conjugation on the adjoint bundle; only defined when f = id."""
        if not self.is_vertical():
            raise StructuralError("adjoint push-forward needs a vertical map")
        g = self.gamma_at(e.chart, e.chart, e.sigma)
        return type(e)(e.sigma, e.chart, conjugate(g, e.arrow))

    def is_vertical(self):
        return all(v == k for k, v in self.f.items())

    def compose(self, other):
        """self after other."""
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
        return BundleAutomorphism(bundle, f, gamma)

    def inverse(self):
        bundle = self.bundle
        gamma = {}
        for sigma in bundle.base.base:
            i = bundle.base.canonical_chart(sigma)
            tau = self.f[sigma]
            j = bundle.base.canonical_chart(tau)
            gamma[(i, j, tau)] = bisection_inverse(self.gamma_at(j, i, sigma))
        return BundleAutomorphism(bundle, self.f_inv, gamma)

    def action_key(self):
        """A hashable fingerprint of the action on all points."""
        return tuple(self.apply(p) for p in self.bundle.points)


def identity_automorphism(bundle):
    gamma = {}
    for sigma in bundle.base.base:
        i = bundle.base.canonical_chart(sigma)
        gamma[(i, i, sigma)] = unit_bisection(bundle.groupoid)
    return BundleAutomorphism(bundle, {s: s for s in bundle.base.base}, gamma)


def validate_automorphism(bundle, aut):
    """Bijectivity, bisection values, gluing relations, equivariance."""
    report = ValidationReport()
    base = bundle.base
    f_ok = set(aut.f) == set(aut.f.values()) == set(base.base)
    report.record("aut:f-bijection", f_ok)
    gamma_ok = True
    for key, g in list(aut.gamma.items()):
        ok = validate_bisection(bundle.groupoid, g)
        report.record("aut:gamma-bisection", ok, key)
        gamma_ok &= ok
    if not (f_ok and gamma_ok):  # the checks below read f and apply gamma
        return report
    for sigma in base.base:
        fs = aut.f[sigma]
        charts_in = base.charts_containing(sigma)
        charts_out = base.charts_containing(fs)
        for i in charts_in:
            for j in charts_out:
                g_ji = aut.gamma_at(j, i, sigma)
                for k in charts_in:
                    for l in charts_out:
                        lhs = aut.gamma_at(l, k, sigma)
                        rhs = bisection_product(
                            bundle.cocycle.beta(l, j, fs),
                            bisection_product(g_ji, bundle.cocycle.beta(i, k, sigma)))
                        report.record("aut:gluing", lhs == rhs, (i, j, k, l, sigma))
    for p in bundle.points:
        q = aut.apply(p)
        for h in bundle.groupoid.target_fibre(bundle.moment(p)):
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
    bundle = at.bundle
    assign = []
    for fp in bundle.shadow_points:
        fs = aut.f[fp.sigma]
        j = bundle.base.canonical_chart(fs)
        g = aut.gamma_at(j, fp.chart, fp.sigma)
        e = AtElement(fs, j, g(fp.obj), fp.sigma, fp.chart)
        assign.append(at.index(e))
    return Bisection(at.as_finite_groupoid(), assign)


def bisection_to_automorphism(bundle, at, b):
    """Recover the automorphism from a projectable bisection of the
    symmetry groupoid.  Raises if the bisection does not cover a base map."""
    f, gamma = {}, {}
    for sigma in bundle.base.base:
        i = bundle.base.canonical_chart(sigma)
        assign = [None] * bundle.groupoid.n_objects
        fs = None
        for m in bundle.groupoid.objects:
            e = at.elements[b(at.shadow_index[FPoint(sigma, i, m)])]
            if fs is None:
                fs = e.sigma1
            elif e.sigma1 != fs:
                raise StructuralError(
                    "bisection does not project over {}".format(sigma))
            assign[m] = e.arrow
        f[sigma] = fs
        j = bundle.base.canonical_chart(fs)
        gamma[(j, i, sigma)] = Bisection(bundle.groupoid, assign)
    return BundleAutomorphism(bundle, f, gamma)


def verify_bisection_correspondence(bundle, at, aut):
    """The attached bisection is a section of S, covers the shadow map
    through T, implements the automorphism through the left action, and
    survives the round trip back to automorphism data."""
    report = ValidationReport()
    b = automorphism_to_bisection(at, aut)
    report.record("corr:is-bisection",
                  validate_bisection(at.as_finite_groupoid(), b))
    for k, fp in enumerate(bundle.shadow_points):
        e = at.elements[b(k)]
        report.record("corr:section-of-S", at.source(e) == fp, fp)
        report.record("corr:T-is-shadow-map",
                      at.target(e) == aut.apply_shadow(fp), fp)
    for p in bundle.points:
        fp = bundle.sitting_duck(p)
        e = at.elements[b(at.shadow_index[fp])]
        report.record("corr:implements",
                      at.act_on_bundle(e, p) == aut.apply(p), p)
    back = bisection_to_automorphism(bundle, at, b)
    report.record("corr:round-trip", back.action_key() == aut.action_key())
    return report


def enumerate_gauge_group(bundle, cap=1_000_000):
    """All vertical automorphisms, by brute force over the free chart data.

    The gluing relations leave one free bisection per base point, read in
    its canonical chart.  The map sends the point (sigma, e_m) to the
    arrow gamma(m) of the bisection chosen at sigma, so distinct choices
    act differently and the list needs no deduplication.
    """
    bis = enumerate_bisections(bundle.groupoid, cap=cap)
    n = len(bundle.base.base)
    if len(bis) ** n > cap:
        raise EnumerationBound(
            "{}^{} candidate gauge maps exceed cap {}".format(len(bis), n, cap))
    ident = {s: s for s in bundle.base.base}
    charts = [(bundle.base.canonical_chart(sigma), sigma)
              for sigma in bundle.base.base]
    out = []
    for choice in iproduct(bis, repeat=n):
        gamma = {(i, i, sigma): g for (i, sigma), g in zip(charts, choice)}
        out.append(BundleAutomorphism(bundle, ident, gamma))
    return out


def verify_gauge_group(bundle, gauge=None, cap=1_000_000, at=None):
    """Closure, identity, inverses, and agreement with the vertical
    bisections of at, the Atiyah groupoid; closure costs |gauge|^2 products."""
    if gauge is None:
        gauge = enumerate_gauge_group(bundle, cap=cap)
    if len(gauge) ** 2 > cap:
        raise EnumerationBound(
            "{}^2 gauge products exceed cap {}".format(len(gauge), cap))
    vertical = _vertical_bisections(at or AtiyahGroupoid(bundle), cap)
    report = ValidationReport()
    keys = {aut.action_key(): aut for aut in gauge}
    ident = identity_automorphism(bundle)
    report.record("gauge:has-identity", ident.action_key() in keys)
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
