"""Finite groupoids: arrows over objects with a partial multiplication table.

Objects and arrows are dense integer ids.  Structure maps are array-backed;
the multiplication table is rows of products on composable pairs, which are
sparse in the square of the arrow set, and mul a read-only view of it.
Action and group tables are filled from their labels fibre by fibre; pair
and product tables come by arithmetic and are labelled on first read.
Validation compares the rows as columns, walking fibres after a failure.
"""

from collections.abc import Mapping
from functools import cached_property
from itertools import chain, product

from .report import CompositionError, StructuralError, ValidationReport


def _is_id(x, n):
    """Whether x is a dense id below n: an int, not a bool or a float."""
    return type(x) is int and 0 <= x < n


class _Pairs(Mapping):
    """mul: the rows as a read-only mapping (a, b) -> a.b; len builds nothing."""

    def __init__(self, g):
        self._g = g

    def __getitem__(self, key):
        c = self._g._product(*key) if type(key) is tuple and len(key) == 2 else None
        if c is None:
            raise KeyError(key)
        return c

    def __len__(self):
        g = self._g
        return (sum(len(s) * len(t) for s, t in zip(g.source_fibres, g.target_fibres))
                - len(g._missing) + len(g._strays))

    def __iter__(self):
        return (ab for ab, _ in self.items())

    def items(self):
        """((a, b), a.b) walked off the rows once, in the table's pair order."""
        g = self._g
        if g._order is not None:
            return ((ab, g._product(*ab)) for ab in g._order)
        return (((a, b), c) for a, row in enumerate(g._table)
                for b, c in zip(g.target_fibres[g.src[a]], row))


class FiniteGroupoid:
    """A small category with all morphisms invertible, on finite data.

    Fields follow the usual structure maps: src/tgt per arrow, unit per
    object, inv per arrow, and rows of products on exactly the pairs (a, b)
    with src(a) == tgt(b).  source_fibres[m] and target_fibres[m] hold the
    arrows with source and target m, in arrow order.  Rows made from a
    mapping mul keep its defects: the pairs it lacks, its strays (products
    on other pairs) and its pair order, which the view mul follows.
    Instances are immutable after construction.
    """

    _missing, _strays, _order = (), {}, None  # a built table has no defects
    arrow_labels = object_labels = None
    mul = property(_Pairs)

    def __init__(self, n_objects, src, tgt, unit, inv, mul, arrow_labels=None,
                 object_labels=None):
        mul = dict(mul)
        self._set_maps(n_objects, src, tgt, unit, inv)
        self.arrow_labels = tuple(arrow_labels) if arrow_labels is not None else None
        self.object_labels = tuple(object_labels) if object_labels is not None else None
        n, at, targets = self.n_arrows, self.row_index, self.target_fibres
        self._table = [[None] * len(targets[m]) for m in self.src]
        self._strays, self._order = {}, tuple(mul)
        for (a, b), c in mul.items():
            if not (_is_id(a, n) and _is_id(b, n) and _is_id(c, n)):
                raise StructuralError("mul entry not ints in range: {!r}".format((a, b, c)))
            if self.src[a] == self.tgt[b]:
                self._table[a][at[b]] = c
            else:
                self._strays[a, b] = c
        self._missing = tuple((a, b) for a in self.arrows for b in targets[self.src[a]]
                              if (a, b) not in mul)

    def _set_maps(self, n_objects, src, tgt, unit, inv, fibres=None):
        """Set every field but the table and the labels, and the fibres: given as
        (sources, targets) by factors that checked their ids, else checked and found."""
        self.n_objects, self.src, self.tgt, self.unit, self.inv = (
            n_objects, tuple(src), tuple(tgt), tuple(unit), tuple(inv))
        if fibres is None:
            n = self.n_arrows
            if type(self.n_objects) is not int:
                raise StructuralError("object count is not an int: {!r}".format(
                    self.n_objects))
            if len(self.tgt) != n or len(self.inv) != n:
                raise StructuralError("src/tgt/inv tables disagree in length")
            if len(self.unit) != self.n_objects:
                raise StructuralError("unit table length differs from object count")
            for ids, bound, kind in ((self.inv + self.unit, n, "arrow"),
                                     (self.src + self.tgt, self.n_objects, "object")):
                if ids and not (set(map(type, ids)) == {int}
                                and 0 <= min(ids) and max(ids) < bound):
                    raise StructuralError("{} id not an int in range: {!r}".format(
                        kind, next(x for x in ids if not _is_id(x, bound))))
            fibres = [[] for _ in self.objects], [[] for _ in self.objects]
            for a in self.arrows:
                fibres[0][self.src[a]].append(a)
                fibres[1][self.tgt[a]].append(a)
            fibres = [tuple(map(tuple, f)) for f in fibres]
        self.source_fibres, self.target_fibres = fibres

    @property
    def n_arrows(self):
        return len(self.src)

    @property
    def objects(self):
        return range(self.n_objects)

    @property
    def arrows(self):
        return range(self.n_arrows)

    def composable(self, a, b):
        return self.src[a] == self.tgt[b]

    def compose(self, a, b):
        """The product a.b, defined when src(a) == tgt(b)."""
        c = self._product(a, b)
        if c is None:
            raise self.composition_error(a, b)
        return c

    def _product(self, a, b):
        """a.b, or None where the table holds no product."""
        n = len(self.src)
        if type(a) is type(b) is int and 0 <= a < n and 0 <= b < n and self.src[a] == self.tgt[b]:
            return self._table[a][self.row_index[b]]
        return self._strays.get((a, b))

    def rows(self):
        """The table, read only: rows[a] lists a.b for b in target_fibres[src(a)],
        so a.b is rows[a][row_index[b]]; a missing product raises, the first in row order."""
        if self._missing:
            raise self.composition_error(*self._missing[0])
        return self._table

    @cached_property
    def row_index(self):
        """row_index[b]: b's place in target_fibres[tgt(b)], and so in rows."""
        return {b: k for fibre in self.target_fibres for k, b in enumerate(fibre)}

    def composition_error(self, a, b):
        """The error for a product a.b that mul does not define."""
        n = self.n_arrows
        return CompositionError("non-composable pair: " + (
            "src={} tgt={}".format(self.src[a], self.tgt[b]) if _is_id(a, n) and _is_id(b, n)
            else "{!r} is off the table".format((a, b))))

    def arrow_index(self, label):
        """Look an arrow up by its label, when labels were supplied."""
        return self._arrow_ids[label]

    @cached_property
    def _arrow_ids(self):
        return {x: k for k, x in enumerate(self.arrow_labels)}

    def __eq__(self, other):
        if not isinstance(other, FiniteGroupoid):
            return False
        return (self.n_objects == other.n_objects and self.src == other.src
                and self.tgt == other.tgt and self.unit == other.unit
                and self.inv == other.inv and self.mul == other.mul)

    def __repr__(self):
        return "FiniteGroupoid(objects={}, arrows={})".format(
            self.n_objects, self.n_arrows)

    def to_json(self):
        return {
            "objects": self.n_objects,
            "arrows": [{"id": a, "src": self.src[a], "tgt": self.tgt[a]}
                       for a in self.arrows],
            "units": list(self.unit),
            "inv": list(self.inv),
            "mul": sorted([a, b, c] for (a, b), c in self.mul.items()),
        }

    @classmethod
    def from_json(cls, doc):
        try:
            n_objects = doc["objects"]
            arrows = sorted(doc["arrows"], key=lambda e: e["id"])
            if [e["id"] for e in arrows] != list(range(len(arrows))):
                raise StructuralError("arrow ids are not dense")
            src = [e["src"] for e in arrows]
            tgt = [e["tgt"] for e in arrows]
            mul = {}
            for row in doc["mul"]:
                if len(row) != 3:
                    raise StructuralError("malformed groupoid document: mul row {!r} "
                                          "is not [a, b, a.b]".format(row))
                a, b, c = row
                if (a, b) in mul:
                    raise StructuralError("mul repeats the pair {!r}".format((a, b)))
                mul[a, b] = c
            return cls(n_objects, src, tgt, doc["units"], doc["inv"], mul)
        except (KeyError, TypeError) as exc:
            raise StructuralError("malformed groupoid document: {}".format(exc))


def validate_groupoid(g):
    """Check every groupoid axiom, collecting all violations with witnesses.

    Axiom (i): src/tgt compatibility of the product and totality of mul on
    composable pairs.  (ii): associativity.  (iii): units.  (iv): inverses.
    (i) and (ii) are certified on the table's rows, by _rows and Light's
    test, else walked in (a, b) order pair by pair and triple by triple, with
    witnesses.  (iii) and (iv) are compared as columns, through
    record_columns, their products read from the rows once (i) holds.
    """
    report = ValidationReport()
    rows = _rows(g)
    if rows is not None:  # every check of (i) passes
        report.record_all(2 * sum(map(len, rows)))
    else:
        _mul_walk(g, report)
    if rows is None or not _assoc_on_generators(g, report, rows):
        _assoc_walk(g, report)
    src, tgt, unit, inv, at, table = g.src, g.tgt, g.unit, g.inv, g.row_index, g._table
    get = lambda xy: table[xy[0]][at[xy[1]]] if src[xy[0]] == tgt[xy[1]] else g._strays.get(xy)
    objects, arrows = list(g.objects), list(g.arrows)
    e_t, e_s = [unit[m] for m in tgt], [unit[m] for m in src]
    for columns, keys in (
            ([("iii:unit-src", [src[e] for e in unit], objects),
              ("iii:unit-tgt", [tgt[e] for e in unit], objects)], objects),
            ([("iii:unit-left", list(map(get, zip(e_t, arrows))), arrows),
              ("iii:unit-right", list(map(get, zip(arrows, e_s))), arrows)], arrows),
            ([("iv:inv-src", [src[b] for b in inv], list(tgt)),
              ("iv:inv-tgt", [tgt[b] for b in inv], list(src)),
              ("iv:inv-right", list(map(get, zip(arrows, inv))), e_t),
              ("iv:inv-left", list(map(get, zip(inv, arrows))), e_s)], arrows)):
        report.record_columns(columns, keys, lambda key: key)
    return report


def _mul_walk(g, report):
    """Record axiom (i) on the pairs the table holds or lacks, in (a, b)
    order, with witnesses."""
    src, tgt = g.src, g.tgt
    for a, b in sorted(chain(g.mul, g._missing)):
        c = g._product(a, b)
        if src[a] != tgt[b]:
            report.add("i:mul-domain", (a, b), "mul defined on non-composable pair")
        elif c is None:
            report.add("i:mul-total", (a, b), "composable pair missing from mul")
        else:
            report.record("i:src", src[c] == src[b], (a, b), "s(a.b) != s(b)")
            report.record("i:tgt", tgt[c] == tgt[a], (a, b), "t(a.b) != t(a)")


def _rows(g):
    """g.rows() if axiom (i) holds, else None: the table holds a product on
    every composable pair and on no other, each typed, s(a.b) = s(b) and
    t(a.b) = t(a).  A row object shared by several arrows is read once."""
    if g._missing or g._strays:
        return None
    src, tgt, srcs = g.src, g.tgt, [[g.src[b] for b in fibre] for fibre in g.target_fibres]
    typed = {id(row): ([src[c] for c in row], [tgt[c] for c in row])
             for row in {id(r): r for r in g.rows()}.values()}
    for a, row in enumerate(g.rows()):
        if typed[id(row)] != (srcs[src[a]], [tgt[a]] * len(row)):
            return None
    return g.rows()


def _assoc_walk(g, report):
    """Record ii:assoc on every composable triple, with its witness."""
    src, mul, fibres = g.src, g._product, g.target_fibres
    for a in g.arrows:
        for b in fibres[src[a]]:
            ab = mul(a, b)
            if ab is None:
                continue
            for c in fibres[src[b]]:
                bc = mul(b, c)
                if bc is None:
                    continue
                left = mul(ab, c)
                report.record("ii:assoc", left is not None and left == mul(a, bc),
                              (a, b, c))


def _assoc_on_generators(g, report, rows):
    """Light's test, sound once (i) holds: the arrows b with (a.b).c ==
    a.(b.c) for all composable a and c are closed under mul, so b need only
    run over a generating set S, the arrows out of or into a root (the least
    object one arrow from some object); in a groupoid a: m -> m' is
    (a.y^-1).y with y: m -> root.  When S covers every arrow and passes,
    ii:assoc is credited with every composable triple and True returned.
    Rows are _rows(g)'s: rows[a.b] lists (a.b).c by c; a.(b.c) is rows[a][at[b.c]]."""
    src, tgt, at = g.src, g.tgt, g.row_index
    sources, targets = g.source_fibres, g.target_fibres
    roots = {min(tgt[a] for a in fibre) for fibre in sources if fibre}
    gens = {b for b in g.arrows if src[b] in roots or tgt[b] in roots}
    covered = {c for x in gens for c, y in zip(rows[x], targets[src[x]]) if y in gens}
    if len(covered) != g.n_arrows:
        return False
    for b in gens:
        k, at_bc = at[b], list(map(at.__getitem__, rows[b]))
        for row in map(rows.__getitem__, sources[tgt[b]]):
            if rows[row[k]] != list(map(row.__getitem__, at_bc)):
                return False
    report.record_all(sum(len(sources[tgt[b]]) * len(targets[src[b]])
                          for b in g.arrows))
    return True


class FiniteGroupAction:
    """A finite group together with an action table on a finite carrier."""

    def __init__(self, elements, mult, identity, inverse, carrier_size, act):
        self.elements = list(elements)
        self.mult = dict(mult)
        self.identity = identity
        self.inverse = dict(inverse)
        self.carrier_size = carrier_size
        self.act = dict(act)
        self._validate()

    def _validate(self):
        try:
            for m in range(self.carrier_size):
                if self.act[(self.identity, m)] != m:
                    raise StructuralError("act(e, m) != m at m={}".format(m))
            for h in self.elements:
                for gg in self.elements:
                    for m in range(self.carrier_size):
                        if (self.act[(h, self.act[(gg, m)])]
                                != self.act[(self.mult[(h, gg)], m)]):
                            raise StructuralError(
                                "action not homomorphic at {}".format((h, gg, m)))
        except KeyError as exc:
            raise StructuralError("act or mult table has no entry for {!r}".format(
                exc.args[0])) from None
        for h in self.elements:
            if h not in self.inverse:
                raise StructuralError("inverse table has no entry for {!r}".format(h))
            if self.mult.get((h, self.inverse[h])) != self.identity:
                raise StructuralError("inverse of {!r} is wrong: {!r}".format(
                    h, self.inverse[h]))


def _from_labels(labels, source, target, units, inverse, compose):
    """The finite groupoid whose arrows are labels, its structure given on them.

    source and target send a label to an object id, units lists each
    object's unit label, and inverse and compose act on labels.  The rows
    are filled by walking target fibres, each a with every b whose target is
    src(a), so only composable pairs are formed.  The label index built here
    is the one arrow_index reads.
    """
    labels = tuple(labels)
    ids = {x: k for k, x in enumerate(labels)}
    g = FiniteGroupoid.__new__(FiniteGroupoid)
    g._set_maps(len(units), map(source, labels), map(target, labels),
                [ids[u] for u in units], [ids[inverse(x)] for x in labels])
    g._table = [[ids[compose(x, labels[b])] for b in g.target_fibres[g.src[a]]]
                for a, x in enumerate(labels)]
    g.arrow_labels, g._arrow_ids = labels, ids
    return g


def pair_groupoid(n):
    """The pair groupoid of an n-point set: one arrow (m2, m1) per ordered pair."""
    return _PairGroupoid([range(n)])


def action_groupoid(action):
    """The action groupoid of a FiniteGroupAction: arrows (g, m), s=m, t=g.m."""
    act = action.act
    return _from_labels(
        [(gg, m) for gg in action.elements for m in range(action.carrier_size)],
        lambda x: x[1], act.__getitem__,
        [(action.identity, m) for m in range(action.carrier_size)],
        lambda x: (action.inverse[x[0]], act[x]),
        # (h, g.m).(g, m) = (h*g, m)
        lambda x, y: (action.mult[(x[0], y[0])], y[1]))


def group_groupoid(elements, mult, identity, inverse):
    """A group as a one-object groupoid."""
    return _from_labels(elements, lambda x: 0, lambda x: 0, [identity],
                        inverse.__getitem__, lambda x, y: mult[(x, y)])


class _PairGroupoid(FiniteGroupoid):
    """The pair groupoid fibred over a partition, arrows only within blocks:
    (block[i2], block[i1]) is o + i2 * b + i1 for a block of b points after
    o arrows.  Its maps come by arithmetic, its labels on first read."""

    def __init__(self, blocks):
        blocks = self._blocks = [list(block) for block in blocks]
        points = sorted(p for block in blocks for p in block)
        if points != list(range(len(points))):
            raise StructuralError("blocks must partition a dense range of object ids")
        unit, inv, o = {}, [], 0
        for block in blocks:
            for i, m in enumerate(block):
                inv += range(o + i, o + len(block) ** 2, len(block))
                unit[m] = o + i * len(block) + i
            o += len(block) ** 2
        self._set_maps(len(points), [m1 for b in blocks for _ in b for m1 in b],
                       [m2 for b in blocks for m2 in b for _ in b], map(unit.get, points), inv)
        # (m2, m1).(m1, y) = (m2, y): a's row is the target fibre of t(a), one list per target
        rows = [list(fibre) for fibre in self.target_fibres]
        self._table = [rows[m] for m in self.tgt]

    arrow_labels = cached_property(lambda self: tuple(
        (m2, m1) for block in self._blocks for m2 in block for m1 in block))


fibred_pair_groupoid = _PairGroupoid


class _ProductGroupoid(FiniteGroupoid):
    """The product groupoid: arrows a1 * |Ar g2| + a2, labelled (a1, a2), over
    objects m1 * |Ob g2| + m2.  Its maps and fibres come by arithmetic from the
    factors' (in arrow order as a1 and a2 are), its rows so on first read."""

    def __init__(self, g1, g2):
        self._factor_rows = g1.rows(), g2.rows()  # so a factor missing a product raises here
        n2, k2 = g2.n_objects, g2.n_arrows
        cross = lambda xs, ys, m: [x * m + y for x in xs for y in ys]
        self._set_maps(g1.n_objects * n2, cross(g1.src, g2.src, n2), cross(g1.tgt, g2.tgt, n2),
                       cross(g1.unit, g2.unit, k2), cross(g1.inv, g2.inv, k2), [
                           tuple([tuple(cross(f1, f2, k2)) for f1 in fs1 for f2 in fs2])
                           for fs1, fs2 in zip((g1.source_fibres, g1.target_fibres),
                                               (g2.source_fibres, g2.target_fibres))])

    arrow_labels = property(lambda self: tuple(product(*map(range, map(len, self._factor_rows)))))

    @cached_property
    def _table(self):
        # (a1 * k2 + a2).(b1 * k2 + b2) = c1 * k2 + c2, b1 and b2 in fibre order: a
        # row depends on a1's row and on a2, so one is built per distinct row of g1
        ids, (rows1, rows2) = sorted(chain.from_iterable(self.target_fibres)), self._factor_rows
        k2, c1s = len(rows2), range(len(rows1))
        blocks = [[[ids[c1 * k2 + c2] for c2 in row2] for c1 in c1s] for row2 in rows2]
        made = {id(row1): [list(chain.from_iterable(map(block.__getitem__, row1)))
                           for block in blocks] for row1 in {id(r): r for r in rows1}.values()}
        return list(chain.from_iterable(made[id(row1)] for row1 in rows1))


product_groupoid = _ProductGroupoid


def z2_swap_action():
    """Z_2 acting on {0, 1} by the swap; the running two-object example."""
    elements = ["e", "r"]
    mult = {("e", "e"): "e", ("e", "r"): "r", ("r", "e"): "r", ("r", "r"): "e"}
    inverse = {"e": "e", "r": "r"}
    act = {("e", 0): 0, ("e", 1): 1, ("r", 0): 1, ("r", 1): 0}
    return FiniteGroupAction(elements, mult, "e", inverse, 2, act)
