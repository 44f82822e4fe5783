"""Acceptance battery: nine exhaustive or oracle-backed criteria.

Each test prints a single pass/fail line; run with -s to see them live.
"""

import time

import numpy as np
from scipy.linalg import expm

from groupoidal import (AtiyahGroupoid, AdjointBundle,
                        automorphism_to_bisection, bisection_to_automorphism,
                        check_structure_identities, conjugate,
                        enumerate_bisections, enumerate_gauge_group,
                        enumerate_projectable_bisections,
                        r_equivariant_commutant, validate_groupoid,
                        verify_atiyah_sequence, verify_bisection_correspondence,
                        verify_principal_axioms, verify_trident)
from groupoidal.bisection import bisection_product
from groupoidal.connection import (BasePath, LocalConnectionData, apply_theta,
                                   construct_connection, covariant_derivative,
                                   gauge_transform_connection, gluing_residual,
                                   inverse_gauge, mc_right, parallel_transport,
                                   shadow_theta, tangent_conjugation, anchor)
from groupoidal.scenario import (BisectionFamily, J2, L_X, L_Y, L_Z, rot2,
                                 so2_single_chart_scenario,
                                 so2_two_chart_scenario,
                                 so3_two_chart_scenario)

from arrow_formulas import left_mult_arrow


def report(num, description, ok, budget, elapsed):
    """elapsed is this process's CPU time, so the budget measures the
    criterion's own work, not the load of whatever else runs on the host."""
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print("[{}] criterion {}: {} ({:.2f}s, budget {:.0f}s)".format(
        status, num, description, elapsed, budget))
    assert ok, "criterion {} failed: {}".format(num, description)
    assert elapsed < budget, "criterion {} over time budget".format(num)


def overlap_samples(rng, count, n):
    for _ in range(count):
        yield (np.array([rng.uniform(0.35, 0.65), rng.uniform(-0.8, 0.8)]),
               rng.normal(size=n), rng.normal(size=2))


def test_criterion_1_identity_suite(z2_groupoid, pair3):
    t0 = time.process_time()
    ok = True
    for g, n_bis in ((z2_groupoid, 2), (pair3, 6)):
        ok &= validate_groupoid(g).ok
        ok &= len(enumerate_bisections(g)) == n_bis
        ok &= check_structure_identities(g).ok
    ok &= z2_groupoid.n_arrows == 4 and pair3.n_arrows == 9
    report(1, "axioms and structure identities, exhaustive on both models",
           ok, 1.0, time.process_time() - t0)


def test_criterion_2_commutant(z2_groupoid, pair3):
    t0 = time.process_time()
    ok = True
    for g, size in ((z2_groupoid, 2), (pair3, 6)):
        comm = r_equivariant_commutant(g)
        ok &= comm["r_equals_left_translations"]
        ok &= len(comm["r_commutant"]) == size
    report(2, "right-translation commutant equals the left bisection action",
           ok, 1.0, time.process_time() - t0)


def test_criterion_3_bundle_battery(three_point_bundle):
    t0 = time.process_time()
    bundle = three_point_bundle
    ok = len(bundle.points) == 12 and len(bundle.shadow_points) == 6
    ok &= verify_principal_axioms(bundle).ok
    for f in bundle.shadow_points:
        fibre = set(bundle.duck_fibre(f))
        ok &= all(bundle.orbit(p) == fibre for p in fibre)
    for b in enumerate_bisections(bundle.groupoid):
        for p in bundle.points:
            ok &= bundle.b_action(p, b) == bundle.induced_b_action(p, b)
    report(3, "module and principality axioms on the three-point bundle",
           ok, 1.0, time.process_time() - t0)


def test_criterion_4_atiyah_battery(three_point_bundle):
    t0 = time.process_time()
    bundle = three_point_bundle
    at = AtiyahGroupoid(bundle)
    ok = len(at.elements) == 36
    ok &= validate_groupoid(at.as_finite_groupoid()).ok
    ok &= verify_atiyah_sequence(bundle, at, AdjointBundle(bundle)).ok
    ok &= verify_trident(bundle, at).ok
    report(4, "symmetry groupoid, exact sequence, and trident checks",
           ok, 2.0, time.process_time() - t0)


def test_criterion_5_gauge_correspondence(three_point_bundle):
    t0 = time.process_time()
    bundle = three_point_bundle
    at = AtiyahGroupoid(bundle)
    gauge = enumerate_gauge_group(bundle)
    ok = len(gauge) == 8
    images = {}
    for aut in gauge:
        ok &= verify_bisection_correspondence(bundle, at, aut).ok
        b = automorphism_to_bisection(at, aut)
        back = bisection_to_automorphism(bundle, b)
        ok &= back.action_key() == aut.action_key()
        images[aut.action_key()] = b
    # homomorphism property and surjectivity onto the vertical bisections
    for a1 in gauge:
        for a2 in gauge:
            prod = a1.compose(a2)
            ok &= images[prod.action_key()] == bisection_product(
                images[a1.action_key()], images[a2.action_key()])
    _, vertical = enumerate_projectable_bisections(bundle, at)
    ok &= {b.assign for b in images.values()} == {b.assign for b in vertical}
    # induced maps: shadow compatibility and adjoint conjugation, exhaustively
    adj = AdjointBundle(bundle)
    for aut in gauge:
        for p in bundle.points:
            ok &= aut.apply_shadow(bundle.sitting_duck(p)) \
                == bundle.sitting_duck(aut.apply(p))
        b = images[aut.action_key()]
        for e in adj.elements:
            ok &= adj.embed(aut.apply_adjoint(e)) \
                == at.elements[conjugate(b, at.index(adj.embed(e)))]
    report(5, "gauge group of order 8 isomorphic to the vertical bisections",
           ok, 5.0, time.process_time() - t0)


def test_criterion_6_connection_suite():
    t0 = time.process_time()
    rng = np.random.default_rng(0)
    sc = so2_two_chart_scenario()
    A = construct_connection(sc)
    ok = True
    for s, m, u in overlap_samples(rng, 100, 2):
        ok &= gluing_residual(sc, A, 0, 1, s, m, u) < 1e-7
    # coherence: applying the law 0 -> 1 -> 0 returns the chart-0 value
    fam01, fam10 = sc.cocycle[(0, 1)], sc.cocycle[(1, 0)]
    for s, m, u in overlap_samples(rng, 20, 2):
        m1 = fam10.shadow(s, m)
        to1 = tangent_conjugation(sc, fam10.at(s), m, A(0, s, m, u)) \
            - mc_right(sc, fam10, m, s, u)
        ok &= np.linalg.norm(to1 - A(1, s, m1, u)) < 1e-6
        back = tangent_conjugation(sc, fam01.at(s), m1, to1) \
            - mc_right(sc, fam01, m1, s, u)
        ok &= np.linalg.norm(back - A(0, s, m, u)) < 1e-6
    for s, m, u in overlap_samples(rng, 100, 2):
        a = rot2(rng.normal())
        tang = (u, rng.normal(size=(2, 2)), rng.normal(size=2))
        t1 = apply_theta(sc, A, 0, s, (a, m), tang)
        t2 = apply_theta(sc, A, 0, s, (a, m), t1)
        ok &= max(np.linalg.norm(t1[k] - t2[k]) for k in range(3)) < 1e-9
    h = 1e-5
    for s, m, u in overlap_samples(rng, 50, 2):
        a = rot2(rng.normal())
        adot, mdot = rng.normal(size=(2, 2)), rng.normal(size=2)

        def td(t):
            return ((a + h * t[1]) @ (m + h * t[2])
                    - (a - h * t[1]) @ (m - h * t[2])) / (2 * h)

        lhs = shadow_theta(sc, A, 0, s, a @ m, (u, td((u, adot, mdot))))[1]
        rhs = td(apply_theta(sc, A, 0, s, (a, m), (u, adot, mdot)))
        ok &= np.linalg.norm(lhs - rhs) < 1e-6
    report(6, "constructed connection glues; projectors behave",
           ok, 5.0, time.process_time() - t0)


def test_criterion_7_parallel_transport():
    t0 = time.process_time()
    sc = so2_single_chart_scenario()
    A = LocalConnectionData(sc, [lambda s, m, u: u[0] * J2])
    path = BasePath.polyline([[0.0, 0.0], [1.0, 0.0]], [0])
    a0, m0 = np.eye(2), np.array([1.0, 0.0])
    want = expm(-J2)
    (a1, m1), sh = parallel_transport(sc, A, path, (a0, m0), step=1e-3)
    ok = np.linalg.norm(a1 - want) < 1e-8
    errs = [np.linalg.norm(parallel_transport(sc, A, path, (a0, m0),
                                              step=h)[0][0] - want)
            for h in (0.05, 0.025)]
    order = np.log2(errs[0] / errs[1])
    ok &= 3.7 < order < 4.3
    g0 = rot2(0.37)
    (a1h, _), _ = parallel_transport(sc, A, path,
                                     (a0 @ g0, np.linalg.solve(g0, m0)),
                                     step=1e-3)
    ok &= np.linalg.norm(a1h - a1 @ g0) < 1e-6
    # shadow of the lift against the directly integrated shadow equation
    n = a0 @ m0
    steps, h = 1000, 1e-3
    t = 0.0
    for _ in range(steps):
        def rhs(t, n):
            return -A(0, np.array([t, 0.0]), n, np.array([1.0, 0.0])) @ n
        k1 = rhs(t, n)
        k2 = rhs(t + h / 2, n + h / 2 * k1)
        k3 = rhs(t + h / 2, n + h / 2 * k2)
        k4 = rhs(t + h, n + h * k3)
        n = n + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    ok &= np.linalg.norm(n - sh) < 1e-6
    report(7, "transport matches the closed form at fourth order",
           ok, 5.0, time.process_time() - t0)


def test_criterion_8_gauge_covariance():
    t0 = time.process_time()
    rng = np.random.default_rng(1)
    ok = True
    h = 1e-5
    for build, make_gauge in (
            (so2_two_chart_scenario,
             lambda sc: {i: BisectionFamily(
                 lambda s, m: rot2(0.4 * s[0] + 0.1 * s[1]))
                 for i in range(2)}),
            (so3_two_chart_scenario, None)):
        sc = build()
        if make_gauge is None:
            def g0(s, m):
                return expm(0.3 * s[0] * L_X + 0.1 * s[1] * L_Y)
            g01, g10 = sc.cocycle[(0, 1)].g, sc.cocycle[(1, 0)].g
            gauge = {0: BisectionFamily(g0),
                     1: BisectionFamily(
                         lambda s, m: g10(s, m) @ g0(s, m) @ g01(s, m))}
        else:
            gauge = make_gauge(sc)
        A = construct_connection(sc)
        Ap = gauge_transform_connection(sc, A, gauge)
        back = gauge_transform_connection(sc, Ap, inverse_gauge(sc, gauge))
        for s, m, u in overlap_samples(rng, 20, sc.n):
            ok &= np.linalg.norm(back(0, s, m, u) - A(0, s, m, u)) < 1e-7

        def phi(s, n=sc.n):
            out = 0.3 + 0.1 * np.arange(n) + 0.05 * s[0] * np.ones(n)
            out[0] += 0.2 * s[1]
            return out

        def phi_g(s):
            return gauge[0].shadow(s, phi(s))

        for s, _, u in overlap_samples(rng, 100, sc.n):
            nab = covariant_derivative(sc, A, phi, 0, s, u)
            nabg = covariant_derivative(sc, Ap, phi_g, 0, s, u)
            push = (gauge[0].shadow(s, phi(s) + h * nab)
                    - gauge[0].shadow(s, phi(s) - h * nab)) / (2 * h)
            ok &= np.linalg.norm(nabg - push) < 1e-6
    # left multiplication closed form for an m-dependent rotation field
    def Mt(m):
        return expm(0.3 * m[0] * L_X + 0.2 * m[1] * L_Y + 0.1 * m[2] * L_Z)
    R = expm(0.5 * L_Z + 0.2 * L_X)
    r = np.array([0.4, -0.1, 0.8])
    got = left_mult_arrow(Mt, (R, r))
    ok &= np.linalg.norm(got[0] - Mt(R @ r) @ R) < 1e-9
    ok &= np.allclose(got[1], r)
    report(8, "gauge round trips and covariant-derivative covariance",
           ok, 10.0, time.process_time() - t0)


def test_criterion_9_fd_oracles():
    t0 = time.process_time()
    ok = True
    for sc in (so2_two_chart_scenario(), so3_two_chart_scenario()):
        rng = np.random.default_rng(2)
        fam = sc.cocycle[(0, 1)]
        h = 1e-5
        for s, m, u in overlap_samples(rng, 1000, sc.n):
            # mc_right against the difference quotient of the translated curve
            got = mc_right(sc, fam, m, s, u)
            ginv = np.linalg.inv(fam(s, m))
            fd = (fam(s + h * u, m) @ ginv - fam(s - h * u, m) @ ginv) / (2 * h)
            scale = max(1.0, np.linalg.norm(got))
            ok &= np.linalg.norm(got - fd) / scale < 1e-7
            # tangent conjugation against the conjugated curve
            # t -> b(exp(tX).m) exp(tX) b(m)^{-1}
            X = sum(rng.normal() * t for t in sc.algebra)
            b = fam.at(s)

            def curve(t):
                e = sc.exp(t * X)
                return b(e @ m) @ e @ ginv

            d = np.linalg.norm(tangent_conjugation(sc, b, m, X)
                               - (curve(h) - curve(-h)) / (2 * h))
            ok &= d / max(1.0, np.linalg.norm(X)) < 1e-7
            # anchor against the exponential curve
            fd_a = (sc.exp(h * X) @ m - sc.exp(-h * X) @ m) / (2 * h)
            ok &= np.linalg.norm(anchor(sc, m, X) - fd_a) \
                / max(1.0, np.linalg.norm(m)) < 1e-7
    report(9, "pointwise operators agree with independent finite differences",
           ok, 10.0, time.process_time() - t0)
