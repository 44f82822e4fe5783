"""The symmetry groupoid of a glued bundle, over its shadow bundle.

Elements are classes of (sigma1, g, sigma2) resolved in a pair of charts;
canonical form uses the least chart at both ends, transporting the arrow by
left multiplication at the source-1 end and right multiplication at the
sigma2 end.  A single helper owns that transport formula.

The kernel of the projection onto the pair groupoid of the base is the
conjugation-glued bundle of fibres, and the whole structure acts on the
bundle and its shadow from the left.

In canonical charts the table over the shadow points is Pair(B) x G, element
(s1 * k + s2) * |Ar G| + a lying over the base pair (s1, s2); its maps are
built at once, its rows on first read.  The batteries read rows, int tables
and ids, and build labels only for the witnesses of a failure.
"""

from collections import Counter, namedtuple
from functools import cached_property
from itertools import chain, product

from .bisection import Bisection, _search, conjugate, left_mult, right_mult
from .bundle import FPoint, PPoint, MomentMismatch, _tables
from .groupoid import _is_id, _ProductGroupoid, pair_groupoid
from .report import StructuralError, ValidationReport

AtElement = namedtuple("AtElement", ["sigma1", "chart_i", "arrow", "sigma2", "chart_j"])
AdElement = namedtuple("AdElement", ["sigma", "chart", "arrow"])


class AtiyahGroupoid:
    """All canonical elements, with the structure maps over shadow points."""

    def __init__(self, bundle):
        self.bundle, base = bundle, bundle.base
        self._pos = {(s, base.canonical_chart(s)): k for k, s in enumerate(base.base)}
        self._table = _Table(pair_groupoid(len(base.base)), bundle.groupoid)
        self._table._ends, self._table._bundle = list(self._pos), bundle

    elements = cached_property(lambda at: list(at._table.arrow_labels))

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
        """(pos(sigma1) * |B| + pos(sigma2)) * |Ar G| + arrow, pos the place in the base."""
        p1, p2, n = self._pos.get(e[:2]), self._pos.get(e[3:]), self.bundle.groupoid.n_arrows
        if p1 is None or p2 is None or not _is_id(e[2], n):
            raise StructuralError("not an element in canonical charts: {!r}".format(e))
        return (p1 * len(self._pos) + p2) * n + e[2]

    def source(self, e):
        return FPoint(e.sigma2, e.chart_j, self.bundle.groupoid.src[e.arrow])

    def target(self, e):
        return FPoint(e.sigma1, e.chart_i, self.bundle.groupoid.tgt[e.arrow])

    def unit(self, f):
        return AtElement(f.sigma, f.chart, self.bundle.groupoid.unit[f.obj], f.sigma, f.chart)

    def invert(self, e):
        return AtElement(e.sigma2, e.chart_j, self.bundle.groupoid.inv[e.arrow],
                         e.sigma1, e.chart_i)

    def multiply(self, e1, e2):
        """The product read from the table; CompositionError off its domain."""
        return self._table.label(self._table.compose(self.index(e1), self.index(e2)))

    def project(self, e):
        """The arrow (sigma1, sigma2) of the pair groupoid of the base."""
        return (e.sigma1, e.sigma2)

    def act_on_bundle(self, e, p):
        """Left action on bundle points: [(s1,g,s2)] . [(s2,h)] = [(s1,g.h)]."""
        if self.source(e) != self.bundle.sitting_duck(p):
            raise MomentMismatch("element source differs from the duck of the point")
        return PPoint(e.sigma1, e.chart_i, self.bundle.groupoid.compose(e.arrow, p.arrow))

    def act_on_shadow(self, e, f):
        if self.source(e) != f:
            raise MomentMismatch("element source differs from the shadow point")
        return self.target(e)

    def division(self, p1, p2):
        """The element carrying p2 to p1: locally g1 . g2^{-1}."""
        g = self.bundle.groupoid
        if self.bundle.moment(p1) != self.bundle.moment(p2):
            raise MomentMismatch("moments differ")
        return AtElement(p1.sigma, p1.chart, g.compose(p1.arrow, g.inv[p2.arrow]),
                         p2.sigma, p2.chart)

    def as_finite_groupoid(self):
        """The element set as a plain finite groupoid over shadow points."""
        return self._table


class _Table(_ProductGroupoid):
    """Pair(B) x G over the shadow points of _bundle, labelled on first read;
    _ends lists each base point with its canonical chart, in base order."""

    object_labels = cached_property(lambda self: tuple(self._bundle.shadow_points))
    arrow_labels = cached_property(lambda self: tuple(map(self.label, self.arrows)))

    def label(self, c):
        """The element with id c = (s1 * k + s2) * n + a, n = |Ar G|."""
        (p, a), k = divmod(c, self._bundle.groupoid.n_arrows), len(self._ends)
        return AtElement(*self._ends[p // k], a, *self._ends[p % k])


class AdjointBundle:
    """The conjugation-glued bundle of groupoid fibres."""

    def __init__(self, bundle):
        self.bundle = bundle
        self.elements = [AdElement(sigma, bundle.base.canonical_chart(sigma), a)
                         for sigma in bundle.base.base for a in bundle.groupoid.arrows]

    def canonical(self, sigma, chart, arrow):
        """(sigma, arrow, chart) glued by conjugation into the least chart."""
        i = self.bundle.base.canonical_chart(sigma)
        b = self.bundle.cocycle.beta(i, chart, sigma)
        return AdElement(sigma, i, conjugate(b, arrow))

    def embed(self, e):
        """The injection into the symmetry groupoid over the unit pair."""
        return AtElement(e.sigma, e.chart, e.arrow, e.sigma, e.chart)


def verify_atiyah_sequence(bundle, at=None, adjoint=None):
    """Exactness over the pair groupoid of the base, on ids: element c lies over
    pair p = c // |Ar G| = pos(sigma1) * k + pos(sigma2), the kernel over p // k == p % k.
    The projection of the rows is checked as one column of pair ids, keyed at failures."""
    at = at or AtiyahGroupoid(bundle)
    adjoint = adjoint or AdjointBundle(bundle)
    report = ValidationReport()
    fg, k, n = at.as_finite_groupoid(), len(bundle.base.base), bundle.groupoid.n_arrows
    pair = [c // n for c in fg.arrows]
    report.record("sequence:surjective", set(pair) == set(range(k * k)))
    first = [p - p % k for p in pair]
    seconds = [[pair[b] % k for b in fibre] for fibre in fg.target_fibres]
    report.record_columns([(
        "sequence:morphism", [pair[c] for c in chain.from_iterable(fg.rows())],
        [i + j for i, m in zip(first, fg.src) for j in seconds[m]],
        lambda: list(enumerate((a, b) for a, m in enumerate(fg.src) for b in fg.target_fibres[m])),
        lambda key: (at.elements[key[1][0]], at.elements[key[1][1]]))])
    image = {at.index(adjoint.embed(e)) for e in adjoint.elements}
    report.record("sequence:kernel", {c for c, p in enumerate(pair) if p // k == p % k} == image)
    report.record("sequence:embedding-injective", len(image) == len(adjoint.elements))
    sizes = Counter(pair)
    for p, ends in enumerate(product(bundle.base.base, repeat=2)):
        report.record("sequence:fibre-size", sizes[p] == n, ends)
    return report


def verify_trident(bundle, at=None):
    """The commuting pair of actions on the bundle, both principal, checked on
    the rows of _tables by two routes each: act then right, right then act.
    Element (s1 * k + s2) * n + a acts as point s1 * n + a does on the right,
    and (p1 // n * k + p2 // n) * n + (p1 % n).inv(p2 % n) carries p2 to p1."""
    at = at or AtiyahGroupoid(bundle)
    g, points, fg = bundle.groupoid, bundle.points, at.as_finite_groupoid()
    moment, duck, fibres, rows, right = _tables(bundle)
    n, k, pos = g.n_arrows, len(bundle.base.base), g.row_index
    act = [right[e // n // k * n + e % n] for e in fg.arrows]
    at_inv = [pos[i] for i in g.inv]
    # per (e, p), in loop order: e, p and e.p
    es = [e for e, f in enumerate(fg.src) for _ in fibres[f]]
    ps = list(chain.from_iterable(map(fibres.__getitem__, fg.src)))
    qs = list(chain.from_iterable(act))
    # e acts only on points sitting over src(e), so the shadow of e.p is tgt(e)
    ducks, tgts = [duck[q] for q in qs], [fg.tgt[e] for e in es]
    p1p2 = [(p1, s * n + a) for p1, m in enumerate(moment) for s in range(k)
            for a in g.source_fibres[m]]  # the points with moment m, in order
    report = ValidationReport()
    report.record_columns([
        ("trident:covers-pair", [q // n * k + p // n for q, p in zip(qs, ps)],
         [e // n for e in es]),
        ("trident:duck-of-action", ducks, tgts),
        ("trident:moment-invariant", [moment[q] for q in qs], [moment[p] for p in ps]),
        ("trident:shadow-intertwines", tgts, ducks),
        ("trident:actions-commute",
         [act[e][pos[r % n]] for e, p in zip(es, ps) for r in right[p]],
         list(chain.from_iterable(map(right.__getitem__, qs))),
         lambda: [(e, p, h) for e, p in zip(es, ps) for h in g.target_fibres[moment[p]]],
         lambda key: (at.elements[key[0]], points[key[1]], key[2])),
        ("trident:division-inverts",
         [(q // n * k + p // n) * n + rows[q % n][at_inv[p % n]] for q, p in zip(qs, ps)], es,
         lambda: [(e, p, n) for e, p in zip(es, ps)])],
        lambda: list(zip(es, ps)), lambda key: (at.elements[key[0]], points[key[1]]))
    report.record_columns([(
        "trident:act-after-division",
        [act[(p1 // n * k + p2 // n) * n + rows[p1 % n][at_inv[p2 % n]]][pos[p2 % n]]
         for p1, p2 in p1p2],
        [p1 for p1, _ in p1p2], p1p2, lambda key: (points[key[0]], points[key[1]]))])
    report.record_columns([(
        "trident:unit-acts-trivially", [act[fg.unit[f]][pos[p % n]] for p, f in enumerate(duck)],
        list(range(len(points))), range(len(points)), points.__getitem__)])
    return report


def enumerate_projectable_bisections(bundle, at=None, cap=1_000_000):
    """Bisections of the symmetry groupoid that cover a base bijection.

    Returns (projectable, vertical): bisections whose projection sends every
    shadow point over sigma to a fixed f(sigma), and the subset with f = id.
    """
    at = at or AtiyahGroupoid(bundle)
    fg = at.as_finite_groupoid()
    n, na, nb = bundle.groupoid.n_objects, bundle.groupoid.n_arrows, len(bundle.base.base)
    sigma1 = [c // na // nb for c in fg.arrows]  # pos(sigma1) of element c

    def covers_base_map(prefix):
        # shadow points come n to a sigma; k - k % n is the first over k's sigma
        k = len(prefix) - 1
        return sigma1[prefix[k]] == sigma1[prefix[k - k % n]]

    # f is injective: the n points over sigma fill the n points over f(sigma)
    projectable = [Bisection(fg, assign) for assign in
                   _search(fg.source_fibres, fg.tgt, cap, covers_base_map)]
    diagonal = {c for c in fg.arrows if sigma1[c] == c // na % nb}
    return projectable, [b for b in projectable if diagonal.issuperset(b.assign)]
