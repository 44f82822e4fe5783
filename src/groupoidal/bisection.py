"""The group of bisections of a finite groupoid and its actions on arrows.

A bisection assigns to every object m an arrow with source m, such that the
shadow m -> t(beta(m)) is a bijection of objects.  Bisections act on arrows
by left multiplication, right multiplication and conjugation; the structure
identities relating these actions to the groupoid maps are checked here by
brute force.
"""

from .report import (EnumerationBound, InternalError, StructuralError,
                     ValidationReport)


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


def shadow_inverse(b):
    """The inverse of the shadow bijection, as a tuple indexed by objects."""
    sh = b.shadow()
    out = [0] * len(sh)
    for m, n in enumerate(sh):
        out[n] = m
    return tuple(out)


def bisection_product(b2, b1):
    """(b2 . b1)(m) = b2(t(b1(m))) . b1(m)."""
    g = b1.groupoid
    return Bisection(g, [g.compose(b2(g.tgt[b1(m)]), b1(m)) for m in g.objects])


def bisection_inverse(b):
    """Inv o beta o (shadow)^{-1}."""
    g = b.groupoid
    shinv = shadow_inverse(b)
    return Bisection(g, [g.inv[b(shinv[m])] for m in g.objects])


def left_mult(b, a):
    """L_beta(a) = beta(t(a)) . a."""
    g = b.groupoid
    return g.compose(b(g.tgt[a]), a)


def right_mult(a, b):
    """a <| beta = a . beta(shadow(beta)^{-1}(s(a)))."""
    g = b.groupoid
    shinv = shadow_inverse(b)
    return g.compose(a, b(shinv[g.src[a]]))


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


def _translations(g, b, arrows):
    """L_b and R_b of each arrow in arrows, as two lists in that order.

    Raises CompositionError where a product is undefined, as left_mult and
    right_mult do.
    """
    mul, src, tgt, assign = g.mul, g.src, g.tgt, b.assign
    shinv = shadow_inverse(b)
    try:
        return ([mul[assign[tgt[a]], a] for a in arrows],
                [mul[a, assign[shinv[src[a]]]] for a in arrows])
    except KeyError as exc:
        raise g.composition_error(*exc.args[0]) from None


def check_structure_identities(g, cap=100000):
    """Exhaustive check of the action-vs-structure-map identity suite.

    Covers both halves of the six left/right multiplication identities, the
    five conjugation identities, and the two identities tying the right
    action along a bisection through g to right translation by g.  Each
    bisection's actions are built once as tables indexed by arrow, and each
    check family compares two tables.  Passing checks are counted in bulk;
    witnesses are built only for failures, in the order of the per-check
    loops (bisection, then arrow, object or mul entry, then check name).
    """
    bis = enumerate_bisections(g, cap=cap)
    report = ValidationReport()
    src, tgt, inv, unit, mul = g.src, g.tgt, g.inv, g.unit, g.mul
    sources, targets = g.source_fibres, g.target_fibres
    src_list, tgt_list = list(src), list(tgt)
    pairs, prods = list(mul), list(mul.values())
    tables = []
    try:
        for b in bis:
            A = b.assign
            sh, shinv = b.shadow(), shadow_inverse(b)
            L, R = _translations(g, b, g.arrows)
            C = [mul[x, inv[A[m]]] for x, m in zip(L, src)]
            # the inverse bisection's actions, at the inverse of each arrow
            Linv, Rinv = _translations(g, bisection_inverse(b), inv)
            tables.append((A, shinv, R))
            sh_tgt = [sh[m] for m in tgt]
            report.record_columns((
                ("i:s-left", [src[x] for x in L], src_list),
                ("i:s-right", [src[x] for x in R], [shinv[m] for m in src]),
                ("ii:t-left", [tgt[x] for x in L], sh_tgt),
                ("ii:t-right", [tgt[x] for x in R], tgt_list),
                ("iv:inv-left", [inv[x] for x in L], Rinv),
                ("iv:inv-right", [inv[x] for x in R], Linv),
                ("c-i:s", [src[x] for x in C], [sh[m] for m in src]),
                ("c-ii:t", [tgt[x] for x in C], sh_tgt),
                ("c-iv:inv", [inv[x] for x in C], [C[x] for x in inv])),
                g.arrows, lambda h: (A, h))
            report.record_columns((
                ("iii:unit-left", [L[e] for e in unit], list(A)),
                ("iii:unit-right", [R[e] for e in unit], [A[m] for m in shinv]),
                ("c-iii:unit", [C[e] for e in unit], [unit[m] for m in sh])),
                g.objects, lambda m: (A, m))
            report.record_columns((
                ("v:left-vs-mul", [L[p] for p in prods],
                 [mul[L[u], h] for u, h in pairs]),
                ("v:right-vs-mul", [R[p] for p in prods],
                 [mul[u, R[h]] for u, h in pairs]),
                ("c-v:conj-vs-mul", [C[p] for p in prods],
                 [mul[C[u], C[h]] for u, h in pairs])),
                range(len(pairs)), lambda i: (A,) + pairs[i])
            # (w <| beta) . h = w . (beta |> h) for w in s^{-1}(shadow(t(h)))
            # h . (beta |> y) = (h <| beta) . y for y in t^{-1}(shadow^{-1}(s(h)))
            ws = [sources[m] for m in sh_tgt]
            ys = [targets[shinv[m]] for m in src]
            report.record_columns([
                ("vi:right-then-mul",
                 [mul[R[w], h] for h, fw in enumerate(ws) for w in fw],
                 [mul[w, L[h]] for h, fw in enumerate(ws) for w in fw],
                 lambda: [(h, 0, w) for h, fw in enumerate(ws) for w in fw],
                 lambda key: (A, key[2], key[0])),
                ("vi:mul-then-left",
                 [mul[h, L[y]] for h, fy in enumerate(ys) for y in fy],
                 [mul[R[h], y] for h, fy in enumerate(ys) for y in fy],
                 lambda: [(h, 1, y) for h, fy in enumerate(ys) for y in fy],
                 lambda key: (A, key[0], key[2]))])
        # r_g = R_{beta_g} on s^{-1}(t(g)) for every bisection through g;
        # beta(s(a)) = a exactly when a is one of beta's values
        through = {}
        for entry in tables:
            for a in entry[0]:
                through.setdefault(a, []).append(entry)
        for a, entries in sorted(through.items()):
            fibre = sources[tgt[a]]
            report.record_columns([
                ("e3-i:through-target", [A[shinv[tgt[a]]] for A, shinv, _ in entries],
                 [a] * len(entries), lambda: [(j,) for j in range(len(entries))]),
                ("e3-ii:r-vs-R", [R[h] for _, _, R in entries for h in fibre],
                 [mul[h, a] for h in fibre] * len(entries),
                 lambda: [(j, h) for j in range(len(entries)) for h in fibre])],
                witness=lambda key: (entries[key[0]][0], a) + key[1:])
    except KeyError as exc:
        raise g.composition_error(*exc.args[0]) from None
    return report


def r_equivariant_commutant(g, cap=10_000_000):
    """Arrow bijections commuting with all right translations, and with R(B).

    Returns a dict with the r-equivariant commutant, whether it equals
    L(B) exactly, the R(B)-commutant found by the same search, and whether
    that one equals L(B).  The latter equality is reported, not asserted.
    """
    bis = enumerate_bisections(g, cap=cap)
    tables = [_translations(g, b, g.arrows) for b in bis]
    left_maps = sorted({tuple(left) for left, _ in tables})
    # each check is filed under the larger of the two arrows it reads, so it
    # runs once, as soon as both are assigned
    pairs_by_arrow = [[] for _ in g.arrows]
    for (x, h), prod in g.mul.items():
        pairs_by_arrow[max(x, prod)].append((x, h, prod))
    src, tgt, mul = g.src, g.tgt, g.mul
    arrows = [g.arrows] * g.n_arrows

    def r_consistent(phi):
        for x, h, prod in pairs_by_arrow[len(phi) - 1]:
            fx = phi[x]
            if src[fx] != tgt[h] or mul[fx, h] != phi[prod]:
                return False
        return True

    r_comm = _search(arrows, g.arrows, cap, r_consistent)

    triples_by_arrow = [[] for _ in g.arrows]
    for _, perm in tables:
        for x in g.arrows:
            triples_by_arrow[max(x, perm[x])].append((x, perm))

    def rb_consistent(phi):
        for x, perm in triples_by_arrow[len(phi) - 1]:
            if perm[phi[x]] != phi[perm[x]]:
                return False
        return True

    rb_comm = _search(arrows, g.arrows, cap, rb_consistent)
    return {
        "r_commutant": r_comm,
        "r_equals_left_translations": r_comm == left_maps,
        "rb_commutant": rb_comm,
        "rb_equals_left_translations": rb_comm == left_maps,
        "left_translations": left_maps,
    }
