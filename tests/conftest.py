import random

import pytest

from groupoidal import (Bisection, CechBase, Cocycle, action_groupoid,
                        bisection_inverse, bisection_product, build_bundle,
                        enumerate_bisections, pair_groupoid, z2_swap_action)


@pytest.fixture(scope="session")
def z2_groupoid():
    return action_groupoid(z2_swap_action())


@pytest.fixture(scope="session")
def pair3():
    return pair_groupoid(3)


@pytest.fixture(scope="session")
def three_point_bundle(z2_groupoid):
    """The running example: base {a,b,c}, two charts overlapping in b,
    glued by the swap bisection."""
    g = z2_groupoid
    base = CechBase(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    beta_r = Bisection(g, [g.arrow_index(("r", 0)), g.arrow_index(("r", 1))])
    cocycle = Cocycle(g, {(0, 1, "b"): beta_r})
    return build_bundle(base, cocycle, g)


@pytest.fixture(scope="session")
def chain_bundle():
    """A factory for chain bundles: base s0..s(k-1) covered by the k - 1
    charts {s_i, s_(i+1)}, the overlap {s_(i+1)} of charts i and i + 1
    glued by a seeded choice of fibre bisection.  No three charts meet, so
    any choice glues."""
    def build(g, k, seed=0):
        rng = random.Random(seed)
        bis = list(enumerate_bisections(g))
        base = ["s{}".format(i) for i in range(k)]
        cover = [[base[i], base[i + 1]] for i in range(k - 1)]
        entries = {(i, i + 1, base[i + 1]): rng.choice(bis)
                   for i in range(k - 2)}
        return build_bundle(CechBase(base, cover), Cocycle(g, entries), g)
    return build


@pytest.fixture(scope="session")
def triple_overlap_bundle():
    """A factory for bundles over n = 3..5 points whose three charts all
    contain the hub s0 and share nothing else; the other points are dealt
    to the charts at random.  beta_01 and beta_02 at the hub are seeded
    choices and beta_12 = beta_01^-1 . beta_02, so the triple condition
    holds where all three charts meet."""
    def build(g, n, seed=0):
        rng = random.Random(seed)
        bis = list(enumerate_bisections(g))
        base = ["s{}".format(i) for i in range(n)]
        cover = [["s0"], ["s0"], ["s0"]]
        for sigma in base[1:]:
            cover[rng.randrange(3)].append(sigma)
        b01, b02 = rng.choice(bis), rng.choice(bis)
        entries = {(0, 1, "s0"): b01, (0, 2, "s0"): b02,
                   (1, 2, "s0"): bisection_product(bisection_inverse(b01), b02)}
        return build_bundle(CechBase(base, cover), Cocycle(g, entries), g)
    return build
