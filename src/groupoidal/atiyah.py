"""The symmetry groupoid of a glued bundle, over its shadow bundle.

Elements are classes of (sigma1, g, sigma2) resolved in a pair of charts;
canonical form uses the least chart at both ends, transporting the arrow by
left multiplication at the source-1 end and right multiplication at the
sigma2 end.  A single helper owns that transport formula.

The kernel of the projection onto the pair groupoid of the base is the
conjugation-glued bundle of fibres, and the whole structure acts on the
bundle and its shadow from the left.

The finite groupoid table over the shadow points is built once, when the
groupoid is constructed, by the builder every finite groupoid shares;
multiplication, element lookup and every battery here read that table.
"""

from collections import Counter, namedtuple
from itertools import product

from .bisection import Bisection, _search, conjugate, left_mult, right_mult
from .bundle import FPoint, PPoint, MomentMismatch
from .groupoid import _from_labels
from .report import ValidationReport

AtElement = namedtuple("AtElement", ["sigma1", "chart_i", "arrow", "sigma2", "chart_j"])
AdElement = namedtuple("AdElement", ["sigma", "chart", "arrow"])


class AtiyahGroupoid:
    """All canonical elements, with the structure maps over shadow points."""

    def __init__(self, bundle):
        self.bundle = bundle
        g = bundle.groupoid
        self.elements = [
            AtElement(s1, bundle.base.canonical_chart(s1), a,
                      s2, bundle.base.canonical_chart(s2))
            for s1 in bundle.base.base for s2 in bundle.base.base for a in g.arrows]
        self.shadow_index = {f: k for k, f in enumerate(bundle.shadow_points)}
        self._table = _from_labels(
            self.elements,
            lambda e: self.shadow_index[self.source(e)],
            lambda e: self.shadow_index[self.target(e)],
            [self.unit(f) for f in bundle.shadow_points], self.invert,
            lambda e1, e2: AtElement(e1.sigma1, e1.chart_i,
                                     g.compose(e1.arrow, e2.arrow),
                                     e2.sigma2, e2.chart_j),
            object_labels=bundle.shadow_points)

    def canonical(self, sigma1, chart_k, arrow, sigma2, chart_l):
        """Transport (sigma1, arrow, sigma2) from charts (k, l) to canonical.

        The class representative in charts (i, j) carries the arrow
        beta_ik(sigma1) |> arrow <| beta_lj(sigma2).
        """
        base = self.bundle.base
        i = base.canonical_chart(sigma1)
        j = base.canonical_chart(sigma2)
        c = self.bundle.cocycle
        a = right_mult(left_mult(c.beta(i, chart_k, sigma1), arrow),
                       c.beta(chart_l, j, sigma2))
        return AtElement(sigma1, i, a, sigma2, j)

    def index(self, e):
        return self._table.arrow_index(e)

    def source(self, e):
        return FPoint(e.sigma2, e.chart_j, self.bundle.groupoid.src[e.arrow])

    def target(self, e):
        return FPoint(e.sigma1, e.chart_i, self.bundle.groupoid.tgt[e.arrow])

    def unit(self, f):
        return AtElement(f.sigma, f.chart, self.bundle.groupoid.unit[f.obj],
                         f.sigma, f.chart)

    def invert(self, e):
        return AtElement(e.sigma2, e.chart_j, self.bundle.groupoid.inv[e.arrow],
                         e.sigma1, e.chart_i)

    def multiply(self, e1, e2):
        """The product read from the table; CompositionError off its domain."""
        return self.elements[self._table.compose(self.index(e1), self.index(e2))]

    def project(self, e):
        """The arrow (sigma1, sigma2) of the pair groupoid of the base."""
        return (e.sigma1, e.sigma2)

    def act_on_bundle(self, e, p):
        """Left action on bundle points: [(s1,g,s2)] . [(s2,h)] = [(s1,g.h)]."""
        if self.source(e) != self.bundle.sitting_duck(p):
            raise MomentMismatch("element source differs from the duck of the point")
        return PPoint(e.sigma1, e.chart_i,
                      self.bundle.groupoid.compose(e.arrow, p.arrow))

    def act_on_shadow(self, e, f):
        if self.source(e) != f:
            raise MomentMismatch("element source differs from the shadow point")
        return self.target(e)

    def division(self, p1, p2):
        """The element carrying p2 to p1: locally g1 . g2^{-1}."""
        g = self.bundle.groupoid
        if self.bundle.moment(p1) != self.bundle.moment(p2):
            raise MomentMismatch("moments differ")
        return AtElement(p1.sigma, p1.chart,
                         g.compose(p1.arrow, g.inv[p2.arrow]),
                         p2.sigma, p2.chart)

    def as_finite_groupoid(self):
        """The element set as a plain finite groupoid over shadow points."""
        return self._table


class AdjointBundle:
    """The conjugation-glued bundle of groupoid fibres."""

    def __init__(self, bundle):
        self.bundle = bundle
        self.elements = [AdElement(sigma, bundle.base.canonical_chart(sigma), a)
                         for sigma in bundle.base.base
                         for a in bundle.groupoid.arrows]

    def canonical(self, sigma, chart, arrow):
        """(sigma, arrow, chart) glued by conjugation into the least chart."""
        i = self.bundle.base.canonical_chart(sigma)
        b = self.bundle.cocycle.beta(i, chart, sigma)
        return AdElement(sigma, i, conjugate(b, arrow))

    def embed(self, e):
        """The injection into the symmetry groupoid over the unit pair."""
        return AtElement(e.sigma, e.chart, e.arrow, e.sigma, e.chart)


def verify_atiyah_sequence(bundle, at=None, adjoint=None):
    """Exactness over the pair groupoid of the base, checked element by element."""
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


def verify_trident(bundle, at=None):
    """The commuting pair of actions on the bundle, both of them principal."""
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


def enumerate_projectable_bisections(bundle, at=None, cap=1_000_000):
    """Bisections of the symmetry groupoid that cover a base bijection.

    Returns (projectable, vertical): bisections whose projection sends every
    shadow point over sigma to a fixed f(sigma), and the subset with f = id.
    """
    at = at or AtiyahGroupoid(bundle)
    fg = at.as_finite_groupoid()
    n = bundle.groupoid.n_objects
    sigma1 = [e.sigma1 for e in at.elements]

    def covers_base_map(prefix):
        # shadow points come n to a sigma; k - k % n is the first over k's sigma
        k = len(prefix) - 1
        return sigma1[prefix[k]] == sigma1[prefix[k - k % n]]

    # f is injective: the n points over sigma fill the n points over f(sigma)
    projectable = [Bisection(fg, assign) for assign in
                   _search(fg.source_fibres, fg.tgt, cap, covers_base_map)]
    return projectable, _vertical_bisections(at, cap)


def _vertical_bisections(at, cap):
    """The bisections covering the identity: those of the kernel over the diagonal."""
    fg = at.as_finite_groupoid()
    choices = [[a for a in fibre if at.elements[a].sigma1 == at.elements[a].sigma2]
               for fibre in fg.source_fibres]
    return [Bisection(fg, assign) for assign in _search(choices, fg.tgt, cap)]
