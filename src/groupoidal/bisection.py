"""The group of bisections of a finite groupoid and its actions on arrows.

A bisection assigns to every object m an arrow with source m, such that the
shadow m -> t(beta(m)) is a bijection of objects.  Bisections act on arrows
by left multiplication, right multiplication and conjugation; the structure
identities relating these actions to the groupoid maps are checked here by
brute force.
"""

from functools import cached_property
from itertools import chain, repeat

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
    """Columns of ids, one per bisection or fibre slot, and the tables applied to them.

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
        self.join = b"".join if self.byte else lambda cols: tuple(chain.from_iterable(cols))

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

    def pick(self, cols):
        """The entry other than none at each place of cols (bytes: as numbers)."""
        if not self.byte:
            return tuple(map(min, zip(*cols)))
        n = len(cols[0])
        total = sum(int.from_bytes(c, "little") for c in cols)
        return (total - (len(cols) - 1) * (256 ** n - 1)).to_bytes(n, "little")

    def checked(self, col, explain):
        """col; where it holds none, explain(i) raises the product's CompositionError."""
        if self.none in col:
            explain(col.index(self.none))
            raise InternalError("a product table disagrees with mul")
        return col


def check_structure_identities(g, cap=100000):
    """Exhaustive check of the action-vs-structure-map identity suite.

    Covers both halves of the six left/right multiplication identities, the
    five conjugation identities, and the two identities tying the right
    action along a bisection through g to right translation by g.

    Columns (see _Columns) run over all bisections: per object, the value
    there and the one landing there; per arrow h, L(h), R(h) and C(h).  x ->
    x.h and y -> u.y are tables; C and c-v code each pair x, y as one byte
    x.K + row_index[y] while codes fit (PACKED_CODES), else look it up in
    mul.  A family compares joins of columns, one per arrow, object or entry
    of a row of mul, so place p is bisection p % nb of key p // nb; vi joins
    over the values its column takes.  Failures are keyed (bisection, block,
    key, column) for record_all, in the order of per-check loops; a product
    mul lacks raises CompositionError, the first those loops meet.
    """
    assigns = _search(g.source_fibres, g.tgt, cap)  # enumerate_bisections' search
    report = ValidationReport()
    if not assigns or not g.n_arrows:
        return report
    cols = _Columns(g.n_arrows)
    column, table, apply, join, none = cols.column, cols.table, cols.apply, cols.join, cols.none
    src, tgt, inv, unit, compose, checked = g.src, g.tgt, g.inv, g.unit, g.compose, cols.checked
    sources, targets, arrows, nb = g.source_fibres, g.target_fibres, g.arrows, len(assigns)

    SRC, TGT, INV, UNIT = (table(enumerate(m)) for m in (src, tgt, inv, unit))
    items = list(g.mul.items())
    mul, by_left, by_right = dict(items), [[] for _ in arrows], [[] for _ in arrows]
    for k, ((x, y), p) in enumerate(items):
        by_left[x].append((k, y, p))
        by_right[y].append((k, x, p))
    LEFT = [table((y, p) for _, y, p in r) for r in by_left]  # LEFT[u]: y -> u.y
    RIGHT = [table((x, p) for _, x, p in r) for r in by_right]  # RIGHT[h]: x -> x.h
    K, at = max(map(len, targets)), g.row_index
    packed = cols.byte and g.n_arrows * K <= PACKED_CODES
    if packed:  # AT: y -> row_index[y]; FLAT: x.K + row_index[y] -> x.y
        AT, FLAT = table(at.items()), table(
            (x * K + at[y], p) for (x, y), p in items if src[x] == tgt[y])

    def left(u, col):
        return checked(apply(col, LEFT[u]), lambda i: compose(u, col[i]))

    def right(col, h):
        return checked(apply(col, RIGHT[h]), lambda i: compose(col[i], h))

    def pairwise(xs, ys):
        """The column of x.y for x, y in zip(xs, ys), none where mul lacks it: packed
        when the columns compose (no code carries: x.K + row_index[y] < n_arrows.K)."""
        if packed and apply(xs, SRC) == apply(ys, TGT):
            code = int.from_bytes(xs, "little") * K + int.from_bytes(apply(ys, AT), "little")
            return code.to_bytes(len(xs), "little").translate(FLAT)
        return column(map(mul.get, zip(xs, ys), repeat(none)))

    # per object m: the values at m, and those landing on m, from the sources of its arrows
    value = [column(c) for c in zip(*assigns)]
    landing = [cols.pick([apply(value[m], table(zip(into, into)))
                          for m in dict.fromkeys(map(src.__getitem__, into))]) for into in targets]
    sh, shinv = [apply(c, TGT) for c in value], [apply(c, SRC) for c in landing]
    inv_value, inv_landing = [apply(c, INV) for c in value], [apply(c, INV) for c in landing]
    # the inverse bisection at its shadow's preimage of m (inv of beta(m) if inv swaps s, t)
    back = inv_value if all(apply(c, TGT) == s for c, s in zip(inv_landing, shinv)) else [
        column(c) for c in zip(*(map(b, b.shadow_inverse) for b in (
            bisection_inverse(Bisection(g, A)) for A in assigns)))]
    const = [column([m]) * nb for m in g.objects]
    checks, fails, missing = 0, [], []

    def record(block, key, columns, c=0):
        """Record columns (check, lhs, rhs) joined over keys, key(q) the q-th key and
        witness; a product missing from rhs is noted, to raise in the loops' order."""
        nonlocal checks
        for c, (check, lhs, rhs) in enumerate(columns, c):
            checks += len(lhs)
            if none in rhs:
                missing.append((key(rhs.index(none) // nb)[0], c, rhs.index(none) % nb))
            for p in differ(lhs, rhs) if lhs != rhs else ():
                k, witness = key(p // nb)
                fails.append(((p % nb, block, k, c), check, (assigns[p % nb],) + witness))

    L = [right(value[tgt[h]], h) for h in arrows]
    R = [left(h, landing[src[h]]) for h in arrows]
    IV = join(inv_value[src[h]] for h in arrows)
    C = checked(pairwise(join(L), IV), lambda p: compose(L[p // nb][p % nb], IV[p]))
    C = [C[h * nb:(h + 1) * nb] for h in arrows]
    # the inverse bisection's actions at the inverse of h
    IL, IR = zip(*[(left(ih, back[src[ih]]), right(inv_landing[tgt[ih]], ih)) for ih in inv])
    record(1, lambda h: (h, (h,)), ((check, apply(join(cs), T), join(map(rs.__getitem__, at)))
                                     for check, cs, T, rs, at in (
        ("i:s-left", L, SRC, const, src), ("i:s-right", R, SRC, shinv, src),
        ("ii:t-left", L, TGT, sh, tgt), ("ii:t-right", R, TGT, const, tgt),
        ("iv:inv-left", L, INV, IL, arrows), ("iv:inv-right", R, INV, IR, arrows),
        ("c-i:s", C, SRC, sh, src), ("c-ii:t", C, TGT, sh, tgt), ("c-iv:inv", C, INV, C, inv))))
    record(2, lambda m: (m, (m,)), [
        ("iii:unit-left", join(map(L.__getitem__, unit)), join(value)),
        ("iii:unit-right", join(map(R.__getitem__, unit)), join(landing)),
        ("c-iii:unit", join(map(C.__getitem__, unit)), apply(join(sh), UNIT))])
    # block 3 by rows (k, factor, product) of mul, both factors of c-v varying
    for h, row in enumerate(by_right):
        record(3, lambda q: (row[q][0], (row[q][1], h)), [(
            "v:left-vs-mul", join(L[p] for _, _, p in row),
            apply(join(L[x] for _, x, _ in row), RIGHT[h]))])
    for u, row in enumerate(by_left):
        record(3, lambda q: (row[q][0], (u, row[q][1])), [
            ("v:right-vs-mul", join(R[p] for _, _, p in row),
             apply(join(R[y] for _, y, _ in row), LEFT[u])),
            ("c-v:conj-vs-mul", join(C[p] for _, _, p in row),
             pairwise(C[u] * len(row), join(C[y] for _, y, _ in row)))], 1)
    if missing:  # the first by mul entry, then check, then bisection
        k, c, i = min(missing)
        (u, h), _ = items[k]
        compose(*((L[u][i], h), (u, R[h][i]), (C[u][i], C[h][i]))[c])
        raise InternalError("a product table disagrees with mul")
    # vi reads a = beta(t(h)) in (w.a).h = w.(a.h) for w in s^-1(t(a)), and x
    # landing on s(h) in h.(x.y) = (h.x).y for y in t^-1(s(x)), joined over the
    # values taken: w.a read off P, w.(a.h) too where t(a.h) = t(a); x likewise.
    out_of, into = [column(sources[m]) for m in tgt], [column(targets[m]) for m in src]
    sides = (("vi:right-then-mul", tgt, value, RIGHT, out_of, TGT, lambda u, w: (w, u)),
             ("vi:mul-then-left", src, landing, LEFT, into, SRC, lambda u, w: (u, w)))
    Ds = [[column(dict.fromkeys(c)) for c in cs] for _, _, cs, *_ in sides]
    Ps = [[apply(W, T[a]) for a, W in enumerate(fibres)] for _, _, _, T, fibres, *_ in sides]
    for h in arrows:
        for side, (check, on, cs, TABLES, fibres, ends, pair) in enumerate(sides):
            col, D, T, P = cs[on[h]], Ds[side][on[h]], TABLES[h], Ps[side]
            AH = apply(D, T)  # a.h or h.x, in L[h] or R[h]
            lhs, rhs = apply(join(map(P.__getitem__, D)), T), (
                join(map(P.__getitem__, AH)) if apply(AH, ends) == apply(D, ends)
                else join(apply(fibres[a], TABLES[x]) for a, x in zip(D, AH)))
            for a, x in zip(D, AH) if none in lhs + rhs else ():  # raise as per value
                W, wa = fibres[a], P[a]
                for u, ws, got in ((a, W, wa), (h, wa, apply(wa, T)), (x, W, apply(W, TABLES[x]))):
                    checked(got, lambda j: compose(*pair(u, ws[j])))
            if lhs != rhs:
                place = [(a, j) for a in D for j in range(len(fibres[a]))]
                fails.extend(((i, 4, (h, side, j), 0), check,
                              (assigns[i],) + pair(h, fibres[a][j]))
                             for a, j in map(place.__getitem__, differ(lhs, rhs))
                             for i, v in enumerate(col) if v == a)
    # a vi check per bisection and fibre slot: |s^-1(t(beta(t(h))))| and |t^-1(s(x))|
    NS, NT = (table(enumerate(map(len, f))) for f in (sources, targets))
    checks += sum(len(targets[m]) * sum(apply(sh[m], NS))
                  + len(sources[m]) * sum(apply(shinv[m], NT)) for m in g.objects)
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
