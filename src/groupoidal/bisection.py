"""The group of bisections of a finite groupoid and its actions on arrows.

A bisection assigns to every object m an arrow with source m, such that the
shadow m -> t(beta(m)) is a bijection of objects.  Bisections act on arrows
by left multiplication, right multiplication and conjugation; the structure
identities relating these actions to the groupoid maps are checked here by
brute force.
"""

from functools import cached_property

from .report import (EnumerationBound, InternalError, StructuralError,
                     ValidationReport, differ)


class Bisection:
    """A section of the source map with bijective shadow."""

    def __init__(self, groupoid, assign):
        self.groupoid = groupoid
        self.assign = tuple(assign)
        if len(self.assign) != groupoid.n_objects:
            raise StructuralError("bisection assigns {} arrows to {} objects".format(
                len(self.assign), groupoid.n_objects))

    def __call__(self, m):
        return self.assign[m]

    def shadow(self):
        """The object bijection m -> t(beta(m))."""
        g = self.groupoid
        return tuple(g.tgt[a] for a in self.assign)

    @cached_property
    def shadow_inverse(self):
        """The inverse of the shadow bijection, as a tuple indexed by objects."""
        out = [0] * len(self.assign)
        for m, n in enumerate(self.shadow()):
            out[n] = m
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Bisection) and self.assign == other.assign

    def __hash__(self):
        return hash(self.assign)

    def __repr__(self):
        return "Bisection({})".format(list(self.assign))

    def to_json(self):
        return list(self.assign)

    @classmethod
    def from_json(cls, groupoid, doc):
        return cls(groupoid, doc)


def validate_bisection(g, b):
    """True iff b is a section of s and its shadow is a bijection."""
    if len(b.assign) != g.n_objects:
        return False
    if any(type(a) is not int or not 0 <= a < g.n_arrows for a in b.assign):
        return False
    if any(g.src[b(m)] != m for m in g.objects):
        return False
    return sorted(b.shadow()) == list(g.objects)


def unit_bisection(g):
    return Bisection(g, g.unit)


def bisection_product(b2, b1):
    """(b2 . b1)(m) = b2(t(b1(m))) . b1(m)."""
    g = b1.groupoid
    return Bisection(g, [g.compose(b2(g.tgt[b1(m)]), b1(m)) for m in g.objects])


def bisection_inverse(b):
    """Inv o beta o (shadow)^{-1}."""
    g = b.groupoid
    shinv = b.shadow_inverse
    return Bisection(g, [g.inv[b(shinv[m])] for m in g.objects])


def left_mult(b, a):
    """L_beta(a) = beta(t(a)) . a."""
    g = b.groupoid
    return g.compose(b(g.tgt[a]), a)


def right_mult(a, b):
    """a <| beta = a . beta(shadow(beta)^{-1}(s(a)))."""
    g = b.groupoid
    return g.compose(a, b(b.shadow_inverse[g.src[a]]))


def conjugate(b, a):
    """C_beta(a) = beta(t(a)) . a . beta(s(a))^{-1}."""
    g = b.groupoid
    return g.compose(g.compose(b(g.tgt[a]), a), g.inv[b(g.src[a])])


def _search(choices, key, cap, consistent=None):
    """Depth-first backtracking over one value per slot.

    Slot i takes its values from choices[i], in order; key[v] lies in
    range(len(choices)), and the keys of the chosen values are pairwise
    distinct.  consistent(prefix), if given, is called on each prefix that
    ends in a newly chosen value and must be monotone: a rejected prefix
    has no accepted extension.  Returns the complete assignments as tuples,
    in lexicographic order of the choice lists.

    Every value of a slot that the search opens is examined, so opening
    slot i counts len(choices[i]) candidates, and EnumerationBound is
    raised as soon as the count passes cap.
    """
    n = len(choices)
    used = [False] * n
    prefix, levels, out = [], [], []
    examined = 0
    while True:
        if len(prefix) == n:
            out.append(tuple(prefix))
        else:  # open the next slot
            values = choices[len(prefix)]
            examined += len(values)
            if examined > cap:
                raise EnumerationBound(
                    "search examined more candidates than the cap {}".format(cap))
            levels.append(iter(values))
        # move the deepest open slot to its next value, stepping back out of
        # exhausted slots
        while levels:
            if len(prefix) == len(levels):
                used[key[prefix.pop()]] = False
            for v in levels[-1]:
                if used[key[v]]:
                    continue
                prefix.append(v)
                if consistent is None or consistent(prefix):
                    break
                prefix.pop()
            else:
                levels.pop()
                continue
            used[key[v]] = True
            break
        else:
            return out


def enumerate_bisections(g, cap=100000):
    """All valid bisections, in lexicographic order of their assignments.

    Backtracks over the objects in index order, taking the arrows of each
    source fibre in order and skipping those whose target is already used.
    The cap bounds the arrows examined.
    """
    return [Bisection(g, assign)
            for assign in _search(g.source_fibres, g.tgt, cap)]


def bisection_through(g, a):
    """A global bisection beta with beta(s(a)) = a, or None.

    For a: m0 -> t0 it takes a on m0, the least arrow t0 -> m0 on t0 and the
    least loop on every other object, so its shadow is the transposition
    (m0 t0).  None means a hom-set it needs is empty, which cannot happen in
    a groupoid.
    """
    m0, t0 = g.src[a], g.tgt[a]
    assign = []
    for m in g.objects:
        if m == m0:
            assign.append(a)
            continue
        want = m0 if m == t0 else m
        x = next((x for x in g.source_fibres[m] if g.tgt[x] == want), None)
        if x is None:
            return None
        assign.append(x)
    b = Bisection(g, assign)
    if not validate_bisection(g, b):
        raise InternalError("{!r} is not a bisection through {}".format(b, a))
    return b


def is_id_reducible(g):
    """Whether every arrow admits a global bisection through it.

    Returns (flag, witness): a map arrow -> bisection when True, else the
    first arrow with no bisection through it.
    """
    witness = {}
    for a in g.arrows:
        b = bisection_through(g, a)
        if b is None:
            return False, a
        witness[a] = b
    return True, witness


# Below this many arrows the identity suite keeps its columns as bytes.
BYTE_ARROWS = 255
# Byte columns pack x.y as x.K + row_index[y], K the longest row, while n_arrows.K <= this.
PACKED_CODES = 256


class _Columns:
    """Columns of ids, one entry per bisection, and the tables applied to them.

    Below BYTE_ARROWS arrows a column is a bytes object and a table a
    256-byte string applied with bytes.translate; from there on they are a
    tuple and a dict.  The id none, past every arrow and object, marks a
    missing product: a table sends an id it lacks, and none, to none.
    """

    def __init__(self, n_arrows):
        self.byte = n_arrows < BYTE_ARROWS
        self.none = 255 if self.byte else n_arrows
        self.column = bytes if self.byte else tuple
        self.apply = bytes.translate if self.byte else self._lookup

    def table(self, entries):
        """The table of an iterable of (id, value) pairs."""
        t = bytearray(b"\xff" * 256) if self.byte else {}
        t[self.none] = self.none
        for k, v in entries:
            t[k] = v
        return bytes(t) if self.byte else t

    def _lookup(self, col, table):
        """apply for tuple columns: the column of table[x] for x in col."""
        return tuple(table.get(x, self.none) for x in col)

    def checked(self, col, explain):
        """col, a column of products.  Where it holds none, explain(i)
        raises the CompositionError of the product mul lacks."""
        if self.none in col:
            explain(col.index(self.none))
            raise InternalError("a product table disagrees with mul")
        return col


def check_structure_identities(g, cap=100000):
    """Exhaustive check of the action-vs-structure-map identity suite.

    Covers both halves of the six left/right multiplication identities, the
    five conjugation identities, and the two identities tying the right
    action along a bisection through g to right translation by g.

    Each check family runs column-wise over all bisections at once (see
    _Columns).  A column holds one id per bisection: per object, the
    bisection's value there and the value landing there; per arrow h, L(h),
    R(h) and C(h).  A product with one side fixed is a table applied to a
    whole column: x -> x.h and y -> u.y.  C and c-v, whose factors both
    vary, translate one byte per pair, its code x.K + row_index[y], while
    codes fit a byte (PACKED_CODES), else look pairs up in mul.  The vi
    checks read a bisection through one arrow only, so they run once per
    value that arrow takes, with its whole fibre as the column.
    A product mul lacks raises CompositionError.

    Checks are recorded with record_all, failures keyed by (bisection,
    block, key, column), so witnesses come in the order of the per-check
    loops: bisection, then arrow, object, mul entry or vi fibre slot, then
    check.  The e3 checks cannot fail and are counted (see below).
    """
    bis = enumerate_bisections(g, cap=cap)
    report = ValidationReport()
    if not bis:
        return report
    cols = _Columns(g.n_arrows)
    column, table, apply, checked = cols.column, cols.table, cols.apply, cols.checked
    src, tgt, inv, unit, mul = g.src, g.tgt, g.inv, g.unit, dict(g.mul.items())
    sources, targets = g.source_fibres, g.target_fibres
    compose = g.compose
    assigns = [b.assign for b in bis]
    nb = len(assigns)

    SRC, TGT, INV, UNIT = (table(enumerate(m)) for m in (src, tgt, inv, unit))
    by_left, by_right = ([[] for _ in g.arrows] for _ in range(2))
    for (x, y), p in mul.items():
        by_left[x].append((y, p))
        by_right[y].append((x, p))
    LEFT = [table(r) for r in by_left]  # LEFT[u]: y -> u.y
    RIGHT = [table(r) for r in by_right]  # RIGHT[h]: x -> x.h
    K, at = max(map(len, targets), default=0), g.row_index
    packed = cols.byte and g.n_arrows * K <= PACKED_CODES
    if packed:  # AT: y -> row_index[y]; FLAT: x.K + row_index[y] -> x.y
        AT, FLAT = table(at.items()), table(
            (x * K + at[y], p) for (x, y), p in mul.items() if src[x] == tgt[y])

    def left(u, col):
        return checked(apply(col, LEFT[u]), lambda i: compose(u, col[i]))

    def right(col, h):
        return checked(apply(col, RIGHT[h]), lambda i: compose(col[i], h))

    def pairwise(xs, ys):
        """The column of x.y for x, y in zip(xs, ys): packed when the columns
        compose (no code carries, x.K + row_index[y] < n_arrows.K), else by mul."""
        if packed and apply(xs, SRC) == apply(ys, TGT):
            code = int.from_bytes(xs, "little") * K + int.from_bytes(apply(ys, AT), "little")
            return checked(code.to_bytes(nb, "little").translate(FLAT),
                           lambda i: compose(xs[i], ys[i]))
        try:
            return column(map(mul.__getitem__, zip(xs, ys)))
        except KeyError as exc:
            raise g.composition_error(*exc.args[0]) from None

    # per bisection: the value landing on each object, and the inverse
    # bisection at the preimage of each object under its own shadow (read
    # as Bisection.shadow_inverse reads it)
    rows = []
    for A in assigns:
        AS = sorted(A, key=tgt.__getitem__)
        binv = [inv[x] for x in AS]
        pre = [0] * len(A)
        for m, x in enumerate(binv):
            pre[tgt[x]] = m
        rows.append((AS, [binv[m] for m in pre]))
    value = [column(c) for c in zip(*assigns)]
    landing, back = ([column(c) for c in zip(*side)] for side in zip(*rows))
    sh = [apply(c, TGT) for c in value]
    shinv = [apply(c, SRC) for c in landing]
    inv_value = [apply(c, INV) for c in value]
    inv_landing = [apply(c, INV) for c in landing]
    const = [column([m]) * nb for m in g.objects]

    checks, fails = 0, []

    def record(block, key, witness, columns):
        nonlocal checks
        for c, (check, lhs, rhs) in enumerate(columns):
            checks += nb
            if lhs != rhs:
                fails.extend(((i, block, key, c), check, (assigns[i],) + witness(i))
                             for i in differ(lhs, rhs))

    L = [right(value[tgt[h]], h) for h in g.arrows]
    R = [left(h, landing[src[h]]) for h in g.arrows]
    C = [pairwise(L[h], inv_value[src[h]]) for h in g.arrows]
    for h in g.arrows:
        s, t, ih = src[h], tgt[h], inv[h]
        record(1, h, lambda i: (h,), (
            ("i:s-left", apply(L[h], SRC), const[s]),
            ("i:s-right", apply(R[h], SRC), shinv[s]),
            ("ii:t-left", apply(L[h], TGT), sh[t]),
            ("ii:t-right", apply(R[h], TGT), const[t]),
            # the inverse bisection's actions at the inverse of h
            ("iv:inv-left", apply(L[h], INV), left(ih, back[src[ih]])),
            ("iv:inv-right", apply(R[h], INV), right(inv_landing[tgt[ih]], ih)),
            ("c-i:s", apply(C[h], SRC), sh[s]),
            ("c-ii:t", apply(C[h], TGT), sh[t]),
            ("c-iv:inv", apply(C[h], INV), C[ih])))
    for m in g.objects:
        e = unit[m]
        record(2, m, lambda i: (m,), (
            ("iii:unit-left", L[e], value[m]),
            ("iii:unit-right", R[e], landing[m]),
            ("c-iii:unit", C[e], apply(sh[m], UNIT))))
    for k, ((u, h), p) in enumerate(mul.items()):
        record(3, k, lambda i: (u, h), (
            ("v:left-vs-mul", L[p], right(L[u], h)),
            ("v:right-vs-mul", R[p], left(u, R[h])),
            ("c-v:conj-vs-mul", C[p], pairwise(C[u], C[h]))))

    # vi reads a bisection through one arrow: a = beta(t(h)) in
    # (w.a).h = w.(a.h) for w in s^-1(t(a)), and x, the value landing on
    # s(h), in h.(x.y) = (h.x).y for y in t^-1(s(x)).  Each value in the
    # column is checked once along its fibre, and its checks and failures
    # are charged to every bisection taking it.
    def record_vi(h, side, col, check, fibres, sides, witness):
        nonlocal checks
        for a in dict.fromkeys(col):
            W = fibres[a]
            lhs, rhs = sides(a, W)
            checks += col.count(a) * len(W)
            if lhs != rhs:
                at = [i for i, v in enumerate(col) if v == a]
                fails.extend(((i, 4, (h, side, j), 0), check,
                              (assigns[i],) + witness(W[j]))
                             for j in differ(lhs, rhs) for i in at)

    out_of = [column(sources[t]) for t in tgt]  # by a: the w with s(w) = t(a)
    into = [column(targets[s]) for s in src]  # by x: the y with t(y) = s(x)
    for h in g.arrows:
        record_vi(h, 0, value[tgt[h]], "vi:right-then-mul", out_of,
                  lambda a, W: (right(right(W, a), h), right(W, compose(a, h))),
                  lambda w: (w, h))
        record_vi(h, 1, landing[src[h]], "vi:mul-then-left", into,
                  lambda x, Y: (left(h, left(x, Y)), left(compose(h, x), Y)),
                  lambda y: (h, y))

    # e3 (r_g = R_beta) cannot fail: shadows are bijective, e3-ii is R[h]'s column
    checks += nb * (g.n_objects + g.n_arrows)
    report.record_all(checks, fails)
    return report


def _commutant(g, checks, cap):
    """Arrow bijections phi, sorted, with p[phi(x)] == phi(y) for each check
    (x, y, p), p a list, None off its domain.  Slots run target fibre by fibre
    in object order, unit first, and a check at the later of its two slots:
    the callers' checks force a fibre once its unit is chosen, in any numbering."""
    order = [a for m in g.objects
             for a in sorted(g.target_fibres[m], key=lambda a: a != g.unit[m])]
    slot, at = {a: i for i, a in enumerate(order)}, [[] for _ in order]
    for x, y, p in checks:
        at[max(slot[x], slot[y])].append((slot[x], slot[y], p))

    def consistent(phi):
        for i, j, p in at[len(phi) - 1]:
            if p[phi[i]] != phi[j]:
                return False
        return True

    found = _search([g.arrows] * g.n_arrows, g.arrows, cap, consistent)
    return sorted(tuple(t[slot[a]] for a in g.arrows) for t in found)


def r_equivariant_commutant(g, cap=10_000_000):
    """Arrow bijections commuting with all right translations, and with R(B).

    Returns a dict with the r-equivariant commutant, whether it equals
    L(B) exactly, the R(B)-commutant found by the same search, and whether
    that one equals L(B).  The latter equality is reported, not asserted.
    Each is one _commutant, under its own cap: phi(x.h) == phi(x).h for each
    entry (x, h) of mul, x.h read on composable pairs only, or phi(R(x)) ==
    R(phi(x)) for each R in R(B) and arrow x.
    """
    bis = enumerate_bisections(g, cap=cap)
    # L(B) and R(B) are both built before either search, so a missing
    # product raises CompositionError before any cap is reached
    left_maps = sorted({tuple(left_mult(b, a) for a in g.arrows) for b in bis})
    right_maps = [[right_mult(a, b) for a in g.arrows] for b in bis]
    mul = dict(g.mul.items())
    by_h = [[mul.get((x, h)) if g.src[x] == g.tgt[h] else None for x in g.arrows]
            for h in g.arrows]  # by_h[h][x] = x.h
    r_comm = _commutant(g, [(x, prod, by_h[h]) for (x, h), prod in mul.items()], cap)
    rb_comm = _commutant(g, [(x, p[x], p) for p in right_maps for x in g.arrows], cap)
    return {
        "r_commutant": r_comm,
        "r_equals_left_translations": r_comm == left_maps,
        "rb_commutant": rb_comm,
        "rb_equals_left_translations": rb_comm == left_maps,
        "left_translations": left_maps,
    }
