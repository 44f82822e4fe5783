import random

import pytest

from groupoidal import (Bisection, CechBase, Cocycle, action_groupoid,
                        build_bundle, enumerate_bisections, pair_groupoid,
                        z2_swap_action)


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
    """A factory for chain bundles: base s0..s(k-1) covered by the charts
    {s_i, s_(i+1)}, each overlap glued by a seeded choice of fibre
    bisection.  No three charts meet, so any choice glues."""
    def build(g, k, seed=0):
        rng = random.Random(seed)
        bis = list(enumerate_bisections(g))
        base = ["s{}".format(i) for i in range(k)]
        cover = [[base[i], base[i + 1]] for i in range(k - 1)]
        entries = {(i, i + 1, base[i + 1]): rng.choice(bis)
                   for i in range(k - 1)}
        return build_bundle(CechBase(base, cover), Cocycle(g, entries), g)
    return build
