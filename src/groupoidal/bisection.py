"""The group of bisections of a finite groupoid and its actions on arrows.

A bisection assigns to every object m an arrow with source m, such that the
shadow m -> t(beta(m)) is a bijection of objects.  Bisections act on arrows
by left multiplication, right multiplication and conjugation; the structure
identities relating these actions to the groupoid maps are checked here by
brute force.
"""

import itertools
import math

from .report import EnumerationBound, StructuralError, ValidationReport


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


class BisectionGroup:
    """All bisections of a groupoid, closed under product and inverse."""

    def __init__(self, groupoid, elements):
        self.groupoid = groupoid
        self.elements = list(elements)
        self._index = {b.assign: k for k, b in enumerate(self.elements)}
        self.identity = unit_bisection(groupoid)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, b):
        return b.assign in self._index

    def index(self, b):
        return self._index[b.assign]


def enumerate_bisections(g, cap=100000):
    """All valid bisections, by exhaustive choice of one arrow per source fibre."""
    fibres = [g.source_fibre(m) for m in g.objects]
    total = math.prod(len(f) for f in fibres) if fibres else 1
    if total > cap:
        raise EnumerationBound(
            "{} candidate sections exceed cap {}".format(total, cap))
    out = []
    for assign in itertools.product(*fibres):
        if sorted(g.tgt[a] for a in assign) == list(g.objects):
            out.append(Bisection(g, assign))
    return BisectionGroup(g, out)


def _match(adjacency, forced=None):
    """Maximum bipartite matching by augmenting paths; forced pins one edge.

    adjacency maps each left vertex to a list of right vertices.  Returns a
    dict left -> right covering all left vertices, or None.
    """
    match_right = {}
    if forced is not None:
        left0, right0 = forced
        match_right[right0] = left0

    def augment(u, seen):
        for v in adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            w = match_right.get(v)
            if w is None or (w != forced_left and augment(w, seen)):
                match_right[v] = u
                return True
        return False

    forced_left = forced[0] if forced is not None else None
    for u in adjacency:
        if u == forced_left:
            continue
        if not augment(u, set()):
            return None
    return {u: v for v, u in match_right.items()}


def bisection_through(g, a, restrict=None):
    """A global bisection beta with beta(s(a)) = a, or None.

    With restrict given (an explicit list of bisections), the search is a
    scan of that list.  Unrestricted, the section is completed by bipartite
    matching between objects and shadow targets, with the edge through a
    pinned.
    """
    if restrict is not None:
        for b in restrict:
            if b(g.src[a]) == a:
                return b
        return None
    m0, t0 = g.src[a], g.tgt[a]
    adjacency = {}
    for m in g.objects:
        targets = sorted({g.tgt[x] for x in g.source_fibre(m)})
        if m != m0:
            targets = [t for t in targets if t != t0]
        adjacency[m] = targets
    matching = _match(adjacency, forced=(m0, t0))
    if matching is None:
        return None
    matching[m0] = t0
    assign = []
    for m in g.objects:
        if m == m0:
            assign.append(a)
            continue
        assign.append(min(x for x in g.source_fibre(m) if g.tgt[x] == matching[m]))
    b = Bisection(g, assign)
    assert validate_bisection(g, b)
    return b


def is_id_reducible(g, restrict=None):
    """Whether every arrow admits a global bisection through it.

    Returns (flag, witness): a map arrow -> bisection when True, else the
    first arrow with no bisection through it.
    """
    witness = {}
    for a in g.arrows:
        b = bisection_through(g, a, restrict=restrict)
        if b is None:
            return False, a
        witness[a] = b
    return True, witness


def check_structure_identities(g, cap=100000):
    """Exhaustive check of the action-vs-structure-map identity suite.

    Covers both halves of the six left/right multiplication identities, the
    five conjugation identities, and the two identities tying the right
    action along a bisection through g to right translation by g.
    """
    bis = enumerate_bisections(g, cap=cap)
    report = ValidationReport()
    for b in bis:
        binv = bisection_inverse(b)
        sh = b.shadow()
        shinv = shadow_inverse(b)
        for h in g.arrows:
            lh = left_mult(b, h)
            rh = right_mult(h, b)
            ch = conjugate(b, h)
            report.record("i:s-left", g.src[lh] == g.src[h], (b.assign, h))
            report.record("i:s-right", g.src[rh] == shinv[g.src[h]], (b.assign, h))
            report.record("ii:t-left", g.tgt[lh] == sh[g.tgt[h]], (b.assign, h))
            report.record("ii:t-right", g.tgt[rh] == g.tgt[h], (b.assign, h))
            report.record("iv:inv-left", g.inv[lh] == right_mult(g.inv[h], binv),
                          (b.assign, h))
            report.record("iv:inv-right", g.inv[rh] == left_mult(binv, g.inv[h]),
                          (b.assign, h))
            report.record("c-i:s", g.src[ch] == sh[g.src[h]], (b.assign, h))
            report.record("c-ii:t", g.tgt[ch] == sh[g.tgt[h]], (b.assign, h))
            report.record("c-iv:inv", g.inv[ch] == conjugate(b, g.inv[h]),
                          (b.assign, h))
        for m in g.objects:
            e = g.unit[m]
            report.record("iii:unit-left", left_mult(b, e) == b(m), (b.assign, m))
            report.record("iii:unit-right", right_mult(e, b) == b(shinv[m]),
                          (b.assign, m))
            report.record("c-iii:unit", conjugate(b, e) == g.unit[sh[m]],
                          (b.assign, m))
        for (u, h), prod in g.mul.items():
            report.record("v:left-vs-mul",
                          left_mult(b, prod) == g.compose(left_mult(b, u), h),
                          (b.assign, u, h))
            report.record("v:right-vs-mul",
                          right_mult(prod, b) == g.compose(u, right_mult(h, b)),
                          (b.assign, u, h))
            report.record("c-v:conj-vs-mul",
                          conjugate(b, prod) == g.compose(conjugate(b, u),
                                                          conjugate(b, h)),
                          (b.assign, u, h))
        for h in g.arrows:
            # (w <| beta) . h = w . (beta |> h) for w in s^{-1}(shadow(t(h)))
            for w in g.source_fibre(sh[g.tgt[h]]):
                report.record("vi:right-then-mul",
                              g.compose(right_mult(w, b), h)
                              == g.compose(w, left_mult(b, h)),
                              (b.assign, w, h))
            # h . (beta |> y) = (h <| beta) . y for y in t^{-1}(shadow^{-1}(s(h)))
            for y in g.target_fibre(shinv[g.src[h]]):
                report.record("vi:mul-then-left",
                              g.compose(h, left_mult(b, y))
                              == g.compose(right_mult(h, b), y),
                              (b.assign, h, y))
    # r_g = R_{beta_g} on s^{-1}(t(g)) for every bisection through g
    for a in g.arrows:
        for b in bis:
            if b(g.src[a]) != a:
                continue
            shinv = shadow_inverse(b)
            report.record("e3-i:through-target", b(shinv[g.tgt[a]]) == a,
                          (b.assign, a))
            for h in g.source_fibre(g.tgt[a]):
                report.record("e3-ii:r-vs-R",
                              g.compose(h, a) == right_mult(h, b),
                              (b.assign, a, h))
    return report


def _equivariant_bijections(g, consistent, cap):
    """Backtracking search for arrow bijections satisfying a local predicate.

    consistent(phi, a) is called right after phi[a] is set and may inspect
    any already-assigned entries; it must be monotone (a failure never turns
    into a success after more assignments).
    """
    n = g.n_arrows
    if math.factorial(n) > cap and n > 12:
        raise EnumerationBound("arrow bijection search beyond cap")
    phi = [None] * n
    used = [False] * n
    found = []

    def rec(a):
        if a == n:
            found.append(tuple(phi))
            return
        for b in g.arrows:
            if used[b]:
                continue
            phi[a] = b
            if consistent(phi, a):
                used[b] = True
                rec(a + 1)
                used[b] = False
            phi[a] = None

    rec(0)
    return sorted(found)


def r_equivariant_commutant(g, cap=10_000_000):
    """Arrow bijections commuting with all right translations, and with R(B).

    Returns a dict with the r-equivariant commutant, whether it equals
    L(B) exactly, the R(B)-commutant found by the same search, and whether
    that one equals L(B).  The latter equality is reported, not asserted.
    """
    bis = enumerate_bisections(g, cap=cap)
    left_maps = sorted({tuple(left_mult(b, a) for a in g.arrows) for b in bis})
    pairs_by_arrow = [[] for _ in g.arrows]
    for (x, h), prod in g.mul.items():
        pairs_by_arrow[max(x, prod)].append((x, h, prod))

    def r_consistent(phi, a):
        for x, h, prod in pairs_by_arrow[a]:
            fx, fp = phi[x], phi[prod]
            if fx is None or fp is None:
                continue
            if not g.composable(fx, h) or g.mul[(fx, h)] != fp:
                return False
        return True

    r_comm = _equivariant_bijections(g, r_consistent, cap)

    r_beta_maps = [tuple(right_mult(a, b) for a in g.arrows) for b in bis]
    triples_by_arrow = [[] for _ in g.arrows]
    for perm in r_beta_maps:
        for x in g.arrows:
            triples_by_arrow[max(x, perm[x])].append((x, perm))

    def rb_consistent(phi, a):
        for x, perm in triples_by_arrow[a]:
            fx, fr = phi[x], phi[perm[x]]
            if fx is None or fr is None:
                continue
            if perm[fx] != fr:
                return False
        return True

    rb_comm = _equivariant_bijections(g, rb_consistent, cap)
    return {
        "r_commutant": r_comm,
        "r_equals_left_translations": r_comm == left_maps,
        "rb_commutant": rb_comm,
        "rb_equals_left_translations": rb_comm == left_maps,
        "left_translations": left_maps,
    }
