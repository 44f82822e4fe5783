"""Clutching construction of a bundle of groupoid fibres over a finite base.

Given a finite base with a cover and a bisection-valued 1-cocycle on the
overlaps, the total space is the disjoint union of chart products glued by
left multiplication; the shadow bundle is glued by the shadow action.  All
points are stored in canonical form, with the chart equal to the least
cover index containing the base point, so equality is plain tuple equality.
"""

from collections import namedtuple
from itertools import chain, permutations

from .bisection import (Bisection, bisection_inverse, bisection_product,
                        left_mult, right_mult, unit_bisection, validate_bisection)
from .report import StructuralError, ValidationReport

PPoint = namedtuple("PPoint", ["sigma", "chart", "arrow"])
FPoint = namedtuple("FPoint", ["sigma", "chart", "obj"])


class MomentMismatch(ValueError):
    """The acting arrow's target differs from the point's moment value."""


class DivisionError(ValueError):
    """Division requested across distinct sitting-duck fibres."""


class CechBase:
    """A finite base set with an indexed open cover."""

    def __init__(self, base, cover):
        self.base = list(base)
        twice = [(t, s) for k, s in enumerate(self.base) for t in self.base[:k] if t == s]
        if twice:
            raise StructuralError("base lists a point twice: {!r} and {!r}".format(*twice[0]))
        self.cover = [frozenset(chart) for chart in cover]
        if not self.cover or any(not chart for chart in self.cover):
            raise StructuralError("every chart must be nonempty")
        covered = set().union(*self.cover)
        if covered != set(self.base):
            raise StructuralError("cover does not exhaust the base")
        self._chart = {sigma: min(self.charts_containing(sigma))
                       for sigma in self.base}

    @property
    def n_charts(self):
        return len(self.cover)

    def charts_containing(self, sigma):
        return [i for i, chart in enumerate(self.cover) if sigma in chart]

    def canonical_chart(self, sigma):
        return self._chart[sigma]

    def overlap(self, i, j):
        return sorted(self.cover[i] & self.cover[j], key=self.base.index)


class Cocycle:
    """Bisection values beta_ij(sigma) on the overlaps of a cover."""

    def __init__(self, groupoid, entries):
        self.groupoid = groupoid
        self.entries, self._beta = dict(entries), dict(entries)
        for (i, j, sigma), b in self.entries.items():
            if not isinstance(b, Bisection) or not validate_bisection(groupoid, b):
                raise StructuralError(
                    "cocycle value at {} is not a valid bisection".format((i, j, sigma)))

    def beta(self, i, j, sigma):
        """beta_ij(sigma), else Id on the diagonal, else the inverse of the
        transposed entry when only one direction was given, built once."""
        key = (i, j, sigma)
        if key not in self._beta:
            if i != j and (j, i, sigma) not in self.entries:
                raise StructuralError("no cocycle entry for {}".format(key))
            self._beta[key] = (unit_bisection(self.groupoid) if i == j
                               else bisection_inverse(self.entries[j, i, sigma]))
        return self._beta[key]


def validate_cocycle(base, c):
    """All 1-cocycle conditions, with (i, j, k, sigma) witnesses."""
    report = ValidationReport()
    unit = unit_bisection(c.groupoid)
    charts = range(base.n_charts)
    for key in c.entries:  # an entry off the overlap of its charts is never read
        i, j, sigma = key
        if i in charts and j in charts and sigma not in base.cover[i] & base.cover[j]:
            report.add("cocycle:domain", key, "sigma off chart i or chart j")
    for key in ((i, i, sigma) for i in charts for sigma in base.cover[i]):
        if key in c.entries:
            report.record("cocycle:diag", c.entries[key] == unit, key)
    near = [base.charts_containing(sigma) for sigma in base.base]  # only charts that meet
    for i, j in sorted({pair for cs in near for pair in permutations(cs, 2)}):
        for sigma in base.overlap(i, j):
            prod = bisection_product(c.beta(i, j, sigma), c.beta(j, i, sigma))
            report.record("cocycle:inverse", prod == unit, (i, j, sigma))
    for i, j, k in sorted({triple for cs in near for triple in permutations(cs, 3)}):
        for sigma in base.cover[i] & base.cover[j] & base.cover[k]:
            lhs = bisection_product(c.beta(i, j, sigma), c.beta(j, k, sigma))
            report.record("cocycle:triple", lhs == c.beta(i, k, sigma),
                          (i, j, k, sigma))
    return report


class PrincipaloidBundle:
    """The glued bundle with groupoid fibres, its shadow, and the actions."""

    def __init__(self, base, cocycle, groupoid, report=None):
        if not groupoid.n_objects:
            raise StructuralError("the fibre groupoid has no objects")
        report = validate_cocycle(base, cocycle) if report is None else report
        if not report.ok:
            raise StructuralError("invalid cocycle: {}".format(report.violations))
        self.base = base
        self.cocycle = cocycle
        self.groupoid = groupoid
        self.points = [PPoint(sigma, base.canonical_chart(sigma), a)
                       for sigma in base.base for a in groupoid.arrows]
        self.shadow_points = [FPoint(sigma, base.canonical_chart(sigma), m)
                              for sigma in base.base for m in groupoid.objects]

    def canonical_point(self, sigma, chart, arrow):
        """Canonical representative of the class of (sigma, arrow, chart)."""
        i = self.base.canonical_chart(sigma)
        b = self.cocycle.beta(i, chart, sigma)
        return PPoint(sigma, i, left_mult(b, arrow))

    def moment(self, p):
        return self.groupoid.src[p.arrow]

    def right_action(self, p, h):
        if self.groupoid.tgt[h] != self.moment(p):
            raise MomentMismatch(
                "t(h)={} but moment={}".format(self.groupoid.tgt[h], self.moment(p)))
        return PPoint(p.sigma, p.chart, self.groupoid.compose(p.arrow, h))

    def sitting_duck(self, p):
        return FPoint(p.sigma, p.chart, self.groupoid.tgt[p.arrow])

    def duck_fibre(self, f):
        """The canonical points over sigma with target f.obj, in arrow order."""
        i = self.base.canonical_chart(f.sigma)
        return [PPoint(f.sigma, i, a) for a in self.groupoid.target_fibres[f.obj]]

    def division(self, p1, p2):
        """The unique arrow with right_action(p1, .) == p2; locally g1^{-1}.g2."""
        if self.sitting_duck(p1) != self.sitting_duck(p2):
            raise DivisionError("points lie in distinct sitting-duck fibres")
        return self.groupoid.compose(self.groupoid.inv[p1.arrow], p2.arrow)

    def b_action(self, p, b):
        """The fibrewise right action of a bisection, locally R_beta."""
        return PPoint(p.sigma, p.chart, right_mult(p.arrow, b))

    def induced_b_action(self, p, b):
        """The action induced from the groupoid action: p <| Inv(b^{-1}(mu(p)))."""
        binv = bisection_inverse(b)
        h = self.groupoid.inv[binv(self.moment(p))]
        return self.right_action(p, h)

    def orbit(self, p):
        """The right-action orbit of a point."""
        out = {p}
        for h in self.groupoid.target_fibres[self.moment(p)]:
            out.add(self.right_action(p, h))
        return out


build_bundle = PrincipaloidBundle


def bundle_to_json(bundle):
    return {
        "base": list(bundle.base.base),
        "cover": [sorted(chart, key=bundle.base.base.index)
                  for chart in bundle.base.cover],
        "groupoid": bundle.groupoid.to_json(),
        "cocycle": [{"i": i, "j": j, "sigma": sigma, "bisection": b.to_json()}
                    for (i, j, sigma), b in sorted(bundle.cocycle.entries.items(),
                                                   key=lambda kv: repr(kv[0]))],
    }


def bundle_parts(doc):
    """The base, cocycle and fibre groupoid of a bundle document, read but
    not checked: nothing here composes in the fibre."""
    from .groupoid import FiniteGroupoid
    try:
        base = CechBase(doc["base"], doc["cover"])
        groupoid = FiniteGroupoid.from_json(doc["groupoid"])
        entries = {(e["i"], e["j"], e["sigma"]):
                   Bisection.from_json(groupoid, e["bisection"])
                   for e in doc["cocycle"]}
    except (KeyError, TypeError) as exc:
        raise StructuralError("malformed bundle document: {}".format(exc))
    return base, Cocycle(groupoid, entries), groupoid


def bundle_from_json(doc):
    return PrincipaloidBundle(*bundle_parts(doc))


def _tables(bundle):
    """The points s * |Ar G| + a as int tables: moment, sitting duck s * |Ob G|
    + t(a), each duck fibre's points, G.rows() and the right action's rows."""
    g = bundle.groupoid
    n, ks, rows = g.n_arrows, range(len(bundle.base.base)), g.rows()
    moment = [g.src[a] for _ in ks for a in g.arrows]
    duck = [s * g.n_objects + g.tgt[a] for s in ks for a in g.arrows]
    fibres = [[s * n + a for a in fibre] for s in ks for fibre in g.target_fibres]
    right = [[s * n + c for c in row] for s in ks for row in rows]
    return moment, duck, fibres, rows, right


def verify_principal_axioms(bundle):
    """The module axioms and the principality bijection on the rows of
    _tables, keyed in the loops over p, h, k, then duck fibres f, p1, p2 or h;
    each witness names the points and arrows of its key; p1 \\ p2 is inv(p1).p2."""
    g, points = bundle.groupoid, bundle.points
    moment, duck, fibres, rows, right = _tables(bundle)
    n, at, targets, pts = g.n_arrows, g.row_index, g.target_fibres, range(len(points))
    ph = [(p, h) for p, m in enumerate(moment) for h in targets[m]]
    qs = list(chain.from_iterable(right))
    fp = [(f, p1) for f, fibre in enumerate(fibres) for p1 in fibre]
    div = [rows[g.inv[p1 % n]] for _, p1 in fp]
    report = ValidationReport()
    report.record_columns([
        ("GrM2:unit", [right[p][at[g.unit[m]]] for p, m in enumerate(moment)], list(pts),
         [(p,) for p in pts]),
        ("GrM1:moment", [moment[q] for q in qs], [g.src[h] for _, h in ph]),
        ("PGr2:duck-invariant", [duck[q] for q in qs], [duck[p] for p, _ in ph]),
        ("GrM3:assoc", list(chain.from_iterable(map(right.__getitem__, qs))),
         [right[p][at[c]] for p, h in ph for c in rows[h]],
         lambda: [(p, h, k) for p, h in ph for k in targets[g.src[h]]])],
        ph, lambda key: (points[key[0]],) + key[1:] if key[1:] else points[key[0]])
    report.record_columns([
        ("PGr3:div-target", [g.tgt[d] for row in div for d in row],
         [moment[p1] for (_, p1), row in zip(fp, div) for _ in row]),
        ("PGr3:div-act", [right[p1][at[d]] for (_, p1), row in zip(fp, div) for d in row],
         [p2 for f, _ in fp for p2 in fibres[f]]),
        ("PGr3:act-div", [row[at[q % n]] for (_, p1), row in zip(fp, div) for q in right[p1]],
         [h for _, p1 in fp for h in targets[moment[p1]]],
         lambda: [(f, p1, 1, h) for f, p1 in fp for h in targets[moment[p1]]])],
        lambda: [(f, p1, 0, p2) for f, p1 in fp for p2 in fibres[f]],
        lambda key: (points[key[1]], points[key[3]] if key[2] == 0 else key[3]))
    return report
