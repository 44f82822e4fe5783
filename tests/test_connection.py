"""Numeric connection engine against closed forms and independent oracles."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from groupoidal.connection import (BasePath, LocalConnectionData,
                                   algebroid_bracket, anchor, apply_theta,
                                   christoffel, construct_connection,
                                   covariant_derivative,
                                   gauge_transform_connection, gluing_residual,
                                   inverse_gauge, mc_right, parallel_transport,
                                   shadow_theta, tangent_conjugation,
                                   zero_connection)
from groupoidal.report import StructuralError
from groupoidal.scenario import (BisectionFamily, J2, L_X, L_Y, L_Z, rot2,
                                 smoothstep, so2_angle, so2_angle_grad,
                                 so2_single_chart_scenario,
                                 so2_two_chart_scenario,
                                 so3_two_chart_scenario)

from arrow_formulas import (compose_arrow, conjugate_arrow, inv_arrow,
                            left_mult_arrow)

RNG = np.random.default_rng(7)


@pytest.fixture(scope="module")
def so2():
    return so2_two_chart_scenario()


@pytest.fixture(scope="module")
def so3():
    return so3_two_chart_scenario()


def overlap_sample(rng):
    return np.array([rng.uniform(0.35, 0.65), rng.uniform(-0.8, 0.8)])


def random_algebra(scenario, rng):
    return sum(rng.normal() * t for t in scenario.algebra)


def curve_tangent_conjugation(scenario, b, m, X, h=1e-5):
    """Oracle for tangent_conjugation: the central difference of the
    conjugated curve t -> b(exp(tX).m) exp(tX) b(m)^{-1} at t = 0."""
    gminv = np.linalg.inv(b(m))

    def curve(t):
        e = scenario.exp(t * X)
        return b(e @ m) @ e @ gminv

    return (curve(h) - curve(-h)) / (2 * h)


def tc_mc_connection(scenario):
    """Oracle for construct_connection: each chart k's flat datum as the
    tangent-conjugation transport TC_{beta_jk}(mc(beta_kj)), by the curve."""
    def field(j):
        def A_j(sigma, m, u):
            out = np.zeros((scenario.n, scenario.n))
            for k, chart in enumerate(scenario.charts):
                if k == j or not chart.contains(sigma):
                    continue
                fam_kj = scenario.beta(k, j)
                X = mc_right(scenario, fam_kj, m, sigma, u)
                out += scenario.partition[k](sigma) * curve_tangent_conjugation(
                    scenario, scenario.beta(j, k).at(sigma),
                    fam_kj.shadow(sigma, m), X)
            return out
        return A_j
    return LocalConnectionData(scenario,
                               [field(j) for j in range(len(scenario.charts))])


def oracle_constructed_field(scenario):
    """Oracle for construct_connection: the gluing-law field evaluated in
    full at every call, shadow point included."""
    def field(j):
        def A_j(sigma, m, u):
            out = np.zeros((scenario.n, scenario.n))
            for k in range(len(scenario.charts)):
                if k == j or not scenario.charts[k].contains(sigma):
                    continue
                w = scenario.partition[k](sigma)
                if w == 0.0:
                    continue
                m_k = scenario.beta(k, j).shadow(sigma, m)
                out -= w * mc_right(scenario, scenario.beta(j, k), m_k, sigma, u)
            return out
        return A_j
    return LocalConnectionData(scenario,
                               [field(j) for j in range(len(scenario.charts))])


def oracle_transport(scenario, A, path, start, step=1e-3):
    """Oracle for parallel_transport: classical RK4 on the right side
    -A(sigma(t), a.m)(dsigma(t)) a, with the path evaluated at every stage."""
    a, m = start
    a = np.asarray(a, dtype=float)
    m = np.asarray(m, dtype=float)
    chart = path.segments[0][0]
    for (i, sig, dsig, t0, t1) in path.segments:
        if i != chart:
            a = scenario.beta(i, chart)(sig(t0), a @ m) @ a
            chart = i

        def rhs(t, a):
            return -A(i, sig(t), a @ m, dsig(t)) @ a

        n_steps = max(1, int(round((t1 - t0) / step)))
        h = (t1 - t0) / n_steps
        t = t0
        for _ in range(n_steps):
            k1 = rhs(t, a)
            k2 = rhs(t + h / 2, a + h / 2 * k1)
            k3 = rhs(t + h / 2, a + h / 2 * k2)
            k4 = rhs(t + h, a + h * k3)
            a = a + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
    return (a, m), a @ m


def so2_m_dependent_scenario():
    """so2-two-chart with a cocycle that depends on m through |m|, which the
    rotations preserve: beta_01 = rot(angle(sigma) (1 + 0.3 |m|^2)), and
    beta_10 its pointwise inverse at the shadow point."""
    sc = so2_two_chart_scenario()

    def angle(s, m):
        return so2_angle(s) * (1.0 + 0.3 * float(m @ m))

    sc.cocycle = {
        (0, 1): BisectionFamily(lambda s, m: rot2(angle(s, m)), constant_in_m=False),
        (1, 0): BisectionFamily(lambda s, m: rot2(-angle(s, m)), constant_in_m=False),
    }
    return sc


# --- closed-form exp ---------------------------------------------------------

@pytest.mark.parametrize("scenario", [so2_single_chart_scenario(),
                                      so3_two_chart_scenario()],
                         ids=lambda sc: sc.name)
def test_closed_form_exp_matches_expm(scenario):
    rng = np.random.default_rng(11)
    angles = [0.0, 1e-9, np.pi] + list(rng.uniform(0.0, 10.0, size=20))
    for theta in angles:
        w = rng.normal(size=len(scenario.algebra))
        w *= theta / np.linalg.norm(w)
        X = sum(c * t for c, t in zip(w, scenario.algebra))
        R = scenario.exp(X)
        assert np.abs(R - expm(X)).max() < 1e-12, theta
        assert np.abs(R.T @ R - np.eye(scenario.n)).max() < 1e-12, theta
        assert abs(np.linalg.det(R) - 1.0) < 1e-12, theta


def test_closed_form_exp_rejects_other_shapes():
    with pytest.raises(StructuralError):
        so3_two_chart_scenario().exp(np.zeros((4, 4)))


# --- arrow operations -------------------------------------------------------

def test_arrow_ops():
    R1, R2 = rot2(0.4), rot2(-0.9)
    m = np.array([0.3, 0.7])
    a2 = (R2, m)
    a1 = (R1, R2 @ m)
    prod = compose_arrow(a1, a2)
    assert np.allclose(prod[0], R1 @ R2) and np.allclose(prod[1], m)
    inv = inv_arrow(a2)
    assert np.allclose(compose_arrow(a2, inv)[0], np.eye(2))
    with pytest.raises(StructuralError):
        compose_arrow(a2, a2)


def test_left_mult_closed_form_so3():
    # for b(m) = (Mt(m), m) the left action on (R, r) is (Mt(R r) R, r)
    def Mt(m):
        return expm(0.3 * m[0] * L_X + 0.2 * m[1] * L_Y + 0.1 * m[2] * L_Z)
    R = expm(0.5 * L_Z + 0.2 * L_X)
    r = np.array([0.4, -0.1, 0.8])
    got = left_mult_arrow(Mt, (R, r))
    assert np.linalg.norm(got[0] - Mt(R @ r) @ R) < 1e-9
    assert np.allclose(got[1], r)
    conj = conjugate_arrow(Mt, (R, r))
    assert np.linalg.norm(conj[0] - Mt(R @ r) @ R @ np.linalg.inv(Mt(r))) < 1e-12


def test_smoothstep_partition(so2):
    assert smoothstep(0.0) == 0.0 and smoothstep(1.0) == 1.0
    for s in ([0.0, 0.1], [0.5, -0.3], [0.69, 0.9]):
        total = sum(h(np.array(s)) for h in so2.partition)
        assert abs(total - 1.0) < 1e-15


# --- pointwise algebroid operations -----------------------------------------

def test_mc_right_constant_family(so2):
    fam = BisectionFamily(lambda s, m: rot2(0.4))
    val = mc_right(so2, fam, np.array([1.0, 0.0]), overlap_sample(RNG),
                   np.array([1.0, 0.0]))
    assert np.linalg.norm(val) < 1e-10


def test_mc_right_so2_closed_form(so2):
    fam = so2.cocycle[(0, 1)]
    for _ in range(20):
        s, m = overlap_sample(RNG), RNG.normal(size=2)
        u = RNG.normal(size=2)
        got = mc_right(so2, fam, m, s, u)
        assert np.linalg.norm(got - so2_angle_grad(u) * J2) < 1e-8


def test_mc_right_so3_one_parameter():
    so3 = so3_two_chart_scenario()
    fam = BisectionFamily(lambda s, m: expm(s[0] * L_Z))
    for _ in range(10):
        s, u = overlap_sample(RNG), RNG.normal(size=2)
        got = mc_right(so3, fam, RNG.normal(size=3), s, u)
        assert np.linalg.norm(got - u[0] * L_Z) < 1e-8


def test_tangent_conjugation_identity(so2):
    b = lambda m: np.eye(2)
    X = 0.8 * J2
    got = tangent_conjugation(so2, b, np.array([0.2, 0.5]), X)
    assert np.linalg.norm(got - X) < 1e-9


def test_tangent_conjugation_constant_is_ad(so3):
    g0 = expm(0.7 * L_X + 0.1 * L_Y)
    b = lambda m: g0
    for _ in range(10):
        X = random_algebra(so3, RNG)
        got = tangent_conjugation(so3, b, RNG.normal(size=3), X)
        # the fibre-derivative term vanishes exactly for a constant family
        assert np.linalg.norm(got - g0 @ X @ np.linalg.inv(g0)) < 1e-12


def test_tangent_conjugation_vs_curve(so2, so3):
    for sc in (so2, so3):
        fam = sc.cocycle[(0, 1)]
        for _ in range(20):
            s = overlap_sample(RNG)
            m = RNG.normal(size=sc.n)
            X = random_algebra(sc, RNG)
            d = np.linalg.norm(tangent_conjugation(sc, fam.at(s), m, X)
                               - curve_tangent_conjugation(sc, fam.at(s), m, X))
            assert d < 1e-7


def test_tangent_conjugation_constant_family_called_once(so2, so3):
    # a family declared constant in m skips the fibre difference, whose
    # value is exactly zero: the result equals the bare callable's
    for sc in (so2, so3):
        for constant, want_calls in ((True, 1), (False, 3)):
            calls = []

            def g(s, m, g01=sc.cocycle[(0, 1)].g):
                calls.append(1)
                return g01(s, m)
            fam = BisectionFamily(g, constant_in_m=constant)
            for _ in range(5):
                s, m = overlap_sample(RNG), RNG.normal(size=sc.n)
                X = random_algebra(sc, RNG)
                b = fam.at(s)
                assert b.constant_in_m is constant
                del calls[:]
                got = tangent_conjugation(sc, b, m, X)
                assert len(calls) == want_calls
                assert np.array_equal(got, tangent_conjugation(
                    sc, lambda m: b(m), m, X))


def test_tangent_conjugation_m_dependent(so3):
    # the family of test_newton_shadow_inverse: the fibre derivative counts
    def b(m):
        return expm(0.2 * np.tanh(m[0]) * L_Z)
    fibre_terms = []
    for _ in range(20):
        m = RNG.normal(size=3)
        X = random_algebra(so3, RNG)
        got = tangent_conjugation(so3, b, m, X)
        assert np.linalg.norm(got - curve_tangent_conjugation(so3, b, m, X)) < 1e-7
        fibre_terms.append(np.linalg.norm(got - b(m) @ X @ b(m).T))
    assert max(fibre_terms) > 1e-3


def test_anchor(so2, so3):
    assert np.linalg.norm(anchor(so2, np.array([1.0, 0.0]), 0 * J2)) == 0.0
    got = anchor(so2, np.array([1.0, 0.0]), 0.3 * J2)
    assert np.allclose(got, [0.0, 0.3])
    assert np.allclose(anchor(so3, np.array([1.0, 0.0, 0.0]), L_Z), [0, 1, 0])
    # finite-difference oracle
    for sc in (so2, so3):
        for _ in range(10):
            m = RNG.normal(size=sc.n)
            X = random_algebra(sc, RNG)
            h = 1e-6
            fd = (sc.exp(h * X) @ m - sc.exp(-h * X) @ m) / (2 * h)
            assert np.linalg.norm(anchor(sc, m, X) - fd) < 1e-8


def test_bracket_constants(so3):
    br = algebroid_bracket(so3, lambda m: L_X, lambda m: L_Y)
    assert np.linalg.norm(br(np.array([0.2, -0.1, 0.4])) - L_Z) < 1e-12


def test_bracket_antisymmetric(so3):
    s1 = lambda m: m[0] * L_X + 0.3 * L_Z
    s2 = lambda m: np.sin(m[1]) * L_Y - m[2] * L_X
    m0 = np.array([0.3, -0.2, 0.7])
    b12 = algebroid_bracket(so3, s1, s2)(m0)
    b21 = algebroid_bracket(so3, s2, s1)(m0)
    assert np.linalg.norm(b12 + b21) < 1e-9
    assert np.linalg.norm(algebroid_bracket(so3, s1, s1)(m0)) < 1e-9


def test_bracket_leibniz(so3):
    s1 = lambda m: m[0] * L_X + 0.3 * L_Z
    s2 = lambda m: np.sin(m[1]) * L_Y
    f = lambda m: 1.0 + 0.5 * m[2]
    m0 = np.array([0.3, -0.2, 0.7])
    lhs = algebroid_bracket(so3, s1, lambda m: f(m) * s2(m))(m0)
    v1 = s1(m0) @ m0
    h = 1e-5
    df = (f(m0 + h * v1) - f(m0 - h * v1)) / (2 * h)
    rhs = f(m0) * algebroid_bracket(so3, s1, s2)(m0) + df * s2(m0)
    assert np.linalg.norm(lhs - rhs) < 1e-6


# --- connection construction and gluing -------------------------------------

def test_single_chart_connection_is_flat():
    sc = so2_single_chart_scenario()
    A = construct_connection(sc)
    s = np.array([0.2, -0.5])
    assert np.linalg.norm(A(0, s, RNG.normal(size=2), RNG.normal(size=2))) == 0


def test_bad_partition_rejected(so2):
    with pytest.raises(StructuralError):
        construct_connection(so2, partition=[lambda s: 0.4, lambda s: 0.4])
    with pytest.raises(StructuralError):
        construct_connection(so2, partition=[lambda s: 1.0])


def test_constructed_connection_glues(so2, so3):
    for sc in (so2, so3):
        A = construct_connection(sc)
        for _ in range(25):
            s, u = overlap_sample(RNG), RNG.normal(size=2)
            m = RNG.normal(size=sc.n)
            assert gluing_residual(sc, A, 0, 1, s, m, u) < 1e-7
            assert gluing_residual(sc, A, 1, 0, s, m, u) < 1e-7


def test_constructed_connection_matches_tc_of_mc(so3):
    A, oracle = construct_connection(so3), tc_mc_connection(so3)
    for _ in range(25):
        s, u = overlap_sample(RNG), RNG.normal(size=2)
        m = RNG.normal(size=3)
        for j in (0, 1):
            assert np.linalg.norm(A(j, s, m, u) - oracle(j, s, m, u)) < 1e-8


@pytest.mark.parametrize("build", [so2_two_chart_scenario, so3_two_chart_scenario,
                                   so2_single_chart_scenario,
                                   so2_m_dependent_scenario],
                         ids=lambda b: b.__name__)
def test_constructed_field_matches_oracle(build):
    # the calls walk through every kind of change, so a value that does not
    # follow one of the arguments shows
    sc = build()
    A, oracle = construct_connection(sc), oracle_constructed_field(sc)
    rng = np.random.default_rng(3)
    s, u, m = overlap_sample(rng), rng.normal(size=2), rng.normal(size=sc.n)
    for change in ["none", "m", "m", "sigma", "u", "none", "m", "u", "sigma",
                   "sigma-and-u", "none"] * 3:
        if change == "m":
            m = rng.normal(size=sc.n)
        if change in ("sigma", "sigma-and-u"):
            s = overlap_sample(rng)
        if change in ("u", "sigma-and-u"):
            u = rng.normal(size=2)
        for j in range(len(sc.charts)):
            assert np.array_equal(A(j, s, m, u), oracle(j, s, m, u)), change


def test_m_dependent_field_reads_m():
    sc = so2_m_dependent_scenario()
    A = construct_connection(sc)
    s, u = np.array([0.5, 0.1]), np.array([1.0, 0.0])
    m = np.array([1.0, 0.0])
    assert not np.array_equal(A(0, s, m, u), A(0, s, 2 * m, u))
    assert gluing_residual(sc, A, 0, 1, s, m, u) < 1e-7


def test_so2_closed_form(so2):
    A = construct_connection(so2)
    for _ in range(20):
        s, u = overlap_sample(RNG), RNG.normal(size=2)
        m = RNG.normal(size=2)
        h1 = so2.partition[1](s)
        da = so2_angle_grad(u)
        assert np.linalg.norm(A(1, s, m, u) - (1 - h1) * da * J2) < 1e-9
        assert np.linalg.norm(A(0, s, m, u) + h1 * da * J2) < 1e-9


def test_residual_detects_perturbation(so2):
    A = construct_connection(so2)
    eps = 1e-3
    pert = LocalConnectionData(
        so2, [lambda s, m, u, f=A.fields[0]: f(s, m, u) + eps * J2,
              A.fields[1]])
    s, m, u = overlap_sample(RNG), RNG.normal(size=2), np.array([1.0, 0.0])
    r = gluing_residual(so2, pert, 0, 1, s, m, u)
    assert abs(r - eps * np.linalg.norm(J2)) < 1e-6


def test_residual_outside_overlap(so2):
    A = zero_connection(so2)
    with pytest.raises(StructuralError):
        gluing_residual(so2, A, 0, 1, np.array([0.1, 0.0]),
                        np.zeros(2), np.array([1.0, 0.0]))


# --- projectors and Christoffel forms ---------------------------------------

def test_theta_projector(so2):
    A = construct_connection(so2)
    for _ in range(20):
        s = overlap_sample(RNG)
        a, m = rot2(RNG.normal()), RNG.normal(size=2)
        tang = (RNG.normal(size=2), RNG.normal(size=(2, 2)), RNG.normal(size=2))
        t1 = apply_theta(so2, A, 0, s, (a, m), tang)
        t2 = apply_theta(so2, A, 0, s, (a, m), t1)
        assert max(np.linalg.norm(t1[k] - t2[k]) for k in range(3)) < 1e-9
        assert np.allclose(t1[2], tang[2])  # moment component untouched
    # horizontal vectors are killed
    u = np.array([0.3, -0.2])
    adot = -A(0, s, a @ m, u) @ a
    th = apply_theta(so2, A, 0, s, (a, m), (u, adot, np.zeros(2)))
    assert max(np.linalg.norm(x) for x in th) < 1e-12


def test_theta_flat(so2):
    A = zero_connection(so2)
    tang = (np.array([1.0, 2.0]), np.eye(2), np.array([0.5, 0.5]))
    out = apply_theta(so2, A, 0, np.array([0.1, 0.0]),
                      (np.eye(2), np.ones(2)), tang)
    assert np.allclose(out[0], 0) and np.allclose(out[1], tang[1])
    assert np.allclose(out[2], tang[2])


def test_christoffel(so2):
    sc = so2_single_chart_scenario()
    A = LocalConnectionData(sc, [lambda s, m, u: u[0] * J2])
    phi = 0.8
    point = (rot2(phi), np.array([1.0, 0.0]))
    vel, mdot = christoffel(sc, A, 0, np.zeros(2), point, np.array([1.0, 0.0]))
    assert np.linalg.norm(vel - J2 @ rot2(phi)) < 1e-12
    assert np.allclose(mdot, 0)


def test_christoffel_right_invariance(so2):
    A = construct_connection(so2)
    for _ in range(10):
        s = overlap_sample(RNG)
        a, m = rot2(RNG.normal()), RNG.normal(size=2)
        u = RNG.normal(size=2)
        g0 = rot2(RNG.normal())
        v1, _ = christoffel(so2, A, 0, s, (a, m), u)
        v2, _ = christoffel(so2, A, 0, s, (a @ g0, np.linalg.solve(g0, m)), u)
        assert np.linalg.norm(v1 @ g0 - v2) < 1e-9


def test_shadow_theta(so2):
    A = construct_connection(so2)
    s = overlap_sample(RNG)
    m, u, w = RNG.normal(size=2), RNG.normal(size=2), RNG.normal(size=2)
    z, v = shadow_theta(so2, A, 0, s, m, (u, w))
    assert np.allclose(z, 0)
    assert np.allclose(v, w + A(0, s, m, u) @ m)
    zf, vf = shadow_theta(so2, zero_connection(so2), 0, s, m, (u, w))
    assert np.allclose(vf, w)


def test_shadow_theta_intertwines(so2):
    # finite differences of the local quotient model (sigma,(a,m)) -> (sigma, a.m)
    A = construct_connection(so2)
    h = 1e-5
    for _ in range(10):
        s = overlap_sample(RNG)
        a, m = rot2(RNG.normal()), RNG.normal(size=2)
        u = RNG.normal(size=2)
        adot, mdot = RNG.normal(size=(2, 2)), RNG.normal(size=2)

        def td(t):
            return ((a + h * t[1]) @ (m + h * t[2])
                    - (a - h * t[1]) @ (m - h * t[2])) / (2 * h)

        lhs = shadow_theta(so2, A, 0, s, a @ m, (u, td((u, adot, mdot))))[1]
        rhs = td(apply_theta(so2, A, 0, s, (a, m), (u, adot, mdot)))
        assert np.linalg.norm(lhs - rhs) < 1e-6


# --- parallel transport ------------------------------------------------------

def test_transport_flat(so2):
    sc = so2_single_chart_scenario()
    A = zero_connection(sc)
    path = BasePath.polyline([[0.0, 0.0], [1.0, 0.5]], [0])
    a0 = rot2(0.3)
    (a1, m1), sh = parallel_transport(sc, A, path, (a0, np.array([1.0, 0.0])))
    assert np.allclose(a1, a0)
    assert np.allclose(sh, a0 @ np.array([1.0, 0.0]))


def test_transport_closed_form():
    sc = so2_single_chart_scenario()
    A = LocalConnectionData(sc, [lambda s, m, u: u[0] * J2])
    path = BasePath.polyline([[0.0, 0.0], [1.0, 0.0]], [0])
    a0, m0 = np.eye(2), np.array([1.0, 0.0])
    (a1, m1), sh = parallel_transport(sc, A, path, (a0, m0), step=1e-3)
    assert np.allclose(m1, m0)
    assert np.linalg.norm(a1 - expm(-J2)) < 1e-8


def test_transport_order_and_equivariance():
    sc = so2_single_chart_scenario()
    A = LocalConnectionData(sc, [lambda s, m, u: u[0] * J2])
    path = BasePath.polyline([[0.0, 0.0], [1.0, 0.0]], [0])
    a0, m0 = np.eye(2), np.array([1.0, 0.0])
    want = expm(-J2)
    errs = []
    for h in (0.05, 0.025):
        (ah, _), _ = parallel_transport(sc, A, path, (a0, m0), step=h)
        errs.append(np.linalg.norm(ah - want))
    order = np.log2(errs[0] / errs[1])
    assert 3.7 < order < 4.3
    # right action by a group arrow commutes with transport
    (a1, _), _ = parallel_transport(sc, A, path, (a0, m0), step=1e-3)
    g0 = rot2(0.37)
    (a1h, _), _ = parallel_transport(sc, A, path,
                                     (a0 @ g0, np.linalg.solve(g0, m0)),
                                     step=1e-3)
    assert np.linalg.norm(a1h - a1 @ g0) < 1e-6


def transport_connections(sc):
    field = J2 if sc.n == 2 else L_Z
    return {"constructed": construct_connection(sc),
            "rotation": LocalConnectionData(sc, [lambda s, m, u: u[0] * field] * 2),
            "flat": zero_connection(sc),
            "m-dependent": LocalConnectionData(
                sc, [lambda s, m, u: u[0] * m[0] * field] * 2)}


@pytest.mark.parametrize("build", [so2_two_chart_scenario, so3_two_chart_scenario],
                         ids=lambda b: b.__name__)
def test_transport_matches_oracle(build):
    sc = build()
    n = sc.n
    path = BasePath.polyline([[-0.5, -0.7], [0.5, 0.1], [1.5, 0.8]], [0, 1])
    h_rot = rot2(0.37) if n == 2 else expm(0.37 * L_X)
    starts = [(np.eye(n), np.eye(n)[0]), (h_rot, np.linalg.solve(h_rot, np.eye(n)[0]))]
    for kind, A in transport_connections(sc).items():
        for step in (8e-3, 4e-3, 2e-3, 1e-3):
            for start in starts[:2 if step == 1e-3 else 1]:  # as cmd_transport
                (a, m), shadow = parallel_transport(sc, A, path, start, step=step)
                (a_o, m_o), shadow_o = oracle_transport(sc, A, path, start, step=step)
                if kind == "constructed":  # the propagator reassociates RK4
                    assert np.abs(a - a_o).max() <= 1e-13, (kind, step)
                    assert np.abs(shadow - shadow_o).max() <= 1e-13
                else:
                    assert np.array_equal(a, a_o), (kind, step)
                    assert np.array_equal(shadow, shadow_o)
                assert np.array_equal(m, m_o)


def test_polyline_velocity_is_read_only(so2):
    path = BasePath.polyline([[0.0, 0.0], [1.0, 0.5]], [0])
    _, sig, dsig, _, _ = path.segments[0]
    assert np.array_equal(sig(0.25), [0.25, 0.125]) and np.array_equal(dsig(0.5), [1.0, 0.5])

    def bends(s, m, u):
        u *= 2.0
        return u[0] * J2
    with pytest.raises(ValueError):
        parallel_transport(so2, LocalConnectionData(so2, [bends] * 2), path,
                           (np.eye(2), np.array([1.0, 0.0])))


def random_polyline(rng):
    """Three straight segments in charts 0, 1, 0: both switches sit in the
    overlap, and every segment stays inside its chart."""
    xs = [rng.uniform(0.0, 0.65), rng.uniform(0.35, 0.65),
          rng.uniform(0.35, 1.3), rng.uniform(0.35, 0.65)]
    return BasePath.polyline([[x, rng.uniform(-0.9, 0.9)] for x in xs], [0, 1, 0])


def declared_fields(sc):
    """The constructed field and a field that reads sigma and u in two
    generators, both declaring constant_in_m."""
    X, Y = sc.algebra[0], sc.algebra[-1]

    def varying(s, m, u):
        return np.sin(3.0 * s[0]) * u[0] * X + (0.5 + s[1]) * u[1] * Y
    varying.constant_in_m = True
    return {"constructed": construct_connection(sc),
            "varying": LocalConnectionData(sc, [varying] * 2)}


@pytest.mark.parametrize("build", [so2_two_chart_scenario, so3_two_chart_scenario],
                         ids=lambda b: b.__name__)
@pytest.mark.parametrize("n_steps", [1, 511, 512, 513, 1100])
def test_propagator_matches_oracle(build, n_steps):
    # the step counts straddle the propagator's block of 512 steps
    sc = build()
    rng = np.random.default_rng(n_steps)
    path = random_polyline(rng)
    a0 = sc.exp(random_algebra(sc, rng))
    start = (a0, np.linalg.solve(a0, np.eye(sc.n)[0]))
    for kind, A in declared_fields(sc).items():
        assert all(f.constant_in_m for f in A.fields)
        (a, m), shadow = parallel_transport(sc, A, path, start, step=1.0 / n_steps)
        (a_o, m_o), shadow_o = oracle_transport(sc, A, path, start, step=1.0 / n_steps)
        assert np.abs(a - a_o).max() <= 1e-13, kind
        assert np.array_equal(m, m_o) and np.abs(shadow - shadow_o).max() <= 1e-13


def declared_and_undeclared(A):
    """A and the same fields behind bare lambdas, which take the RK4 loop."""
    return [A, LocalConnectionData(A.scenario, [lambda s, m, u, f=f: f(s, m, u)
                                                for f in A.fields])]


@pytest.mark.parametrize("x1, waypoints, charts", [
    (0.6, [[0.2, -0.5], [0.6, -0.5], [0.6, 0.5], [0.2, 0.5], [0.2, -0.5]], [0, 0, 0, 0]),
    (1.0, [[0.2, -0.5], [0.5, -0.5], [1.0, -0.5], [1.0, 0.5], [0.5, 0.5], [0.2, 0.5],
           [0.2, -0.5]], [0, 1, 1, 1, 0, 0])], ids=["chart-0", "two-chart"])
def test_so2_holonomy_closed_form(so2, x1, waypoints, charts):
    # A_0 = -h1 dtheta J with theta = s0 + s1/2, so by Stokes the loop
    # around [0.2, x1] x [-0.5, 0.5], counterclockwise, is the rotation by
    # 1/2 (h1(x1) - h1(0.2)) (0.5 - (-0.5)); it is 1/2 for x1 = 1.0
    h1 = so2.partition[1]
    want = rot2(0.5 * (h1([x1, 0.0]) - h1([0.2, 0.0])))
    path = BasePath.polyline(waypoints, charts)
    for A in declared_and_undeclared(construct_connection(so2)):
        (a, _), _ = parallel_transport(so2, A, path, (np.eye(2), np.array([1.0, 0.0])))
        assert np.abs(a - want).max() < 1e-11


def test_so3_retrace_is_identity(so3):
    out = [[0.2, -0.5], [0.5, -0.5], [1.0, 0.3]]
    path = BasePath.polyline(out + out[-2::-1], [0, 1, 1, 0])
    for A in declared_and_undeclared(construct_connection(so3)):
        (a, _), _ = parallel_transport(so3, A, path, (np.eye(3), np.eye(3)[0]))
        assert np.abs(a - np.eye(3)).max() < 1e-12


def test_propagator_memory_is_bounded(so3):
    # 20,000 flat steps: the batched arrays stay one block long
    path = BasePath.polyline([[-0.9, 0.0], [-0.2, 0.0], [0.5, 0.0]], [0, 0])
    tracemalloc.start()
    try:
        (a, _), _ = parallel_transport(so3, zero_connection(so3), path,
                                       (np.eye(3), np.eye(3)[0]), step=1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(a, np.eye(3))
    assert peak < 1e6


def test_transport_across_charts(so2):
    A = construct_connection(so2)
    a0, m0 = np.eye(2), np.array([1.0, 0.0])
    p1 = BasePath.polyline([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], [0, 1])
    p2 = BasePath.polyline([[0.0, 0.0], [0.4, 0.0], [0.6, 0.0], [1.0, 0.0]],
                           [0, 1, 1])
    (a1, _), _ = parallel_transport(so2, A, p1, (a0, m0), step=2e-3)
    (a2, _), _ = parallel_transport(so2, A, p2, (a0, m0), step=2e-3)
    assert np.linalg.norm(a1 - a2) < 1e-8


def test_shadow_of_lift_matches_shadow_ode(so2):
    A = construct_connection(so2)
    a0, m0 = rot2(0.2), np.array([0.8, -0.3])
    path = BasePath.polyline([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], [0, 1])
    (_, _), sh = parallel_transport(so2, A, path, (a0, m0), step=1e-3)
    # integrate the induced shadow equation ndot = -A(sigma, n)(sigmadot).n
    n = a0 @ m0
    chart = 0
    for (i, sig, dsig, t0, t1) in path.segments:
        if i != chart:
            n = so2.beta(i, chart).shadow(sig(t0), n)
            chart = i
        steps = 1000
        h = (t1 - t0) / steps
        t = t0
        for _ in range(steps):
            def rhs(t, n):
                return -A(i, sig(t), n, dsig(t)) @ n
            k1 = rhs(t, n)
            k2 = rhs(t + h / 2, n + h / 2 * k1)
            k3 = rhs(t + h / 2, n + h / 2 * k2)
            k4 = rhs(t + h, n + h * k3)
            n = n + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
    assert np.linalg.norm(n - sh) < 1e-6


# --- gauge transformations ---------------------------------------------------

def so2_gauge(sc):
    fam = BisectionFamily(lambda s, m: rot2(0.4 * s[0] + 0.1 * s[1]))
    return {i: fam for i in range(len(sc.charts))}


def so3_gauge(sc):
    def g0(s, m):
        return expm(0.3 * s[0] * L_X + 0.1 * s[1] * L_Y)
    g01 = sc.cocycle[(0, 1)].g
    g10 = sc.cocycle[(1, 0)].g

    def g1(s, m):
        return g10(s, m) @ g0(s, m) @ g01(s, m)
    return {0: BisectionFamily(g0), 1: BisectionFamily(g1)}


def test_identity_gauge(so2):
    A = construct_connection(so2)
    gauge = {i: BisectionFamily(lambda s, m: np.eye(2)) for i in range(2)}
    Ap = gauge_transform_connection(so2, A, gauge)
    for _ in range(10):
        s, m, u = overlap_sample(RNG), RNG.normal(size=2), RNG.normal(size=2)
        assert np.linalg.norm(Ap(0, s, m, u) - A(0, s, m, u)) < 1e-9


def test_gauge_abelian_closed_form(so2):
    A = construct_connection(so2)
    gauge = so2_gauge(so2)
    Ap = gauge_transform_connection(so2, A, gauge)
    for _ in range(10):
        s, m, u = overlap_sample(RNG), RNG.normal(size=2), RNG.normal(size=2)
        phi = 0.4 * s[0] + 0.1 * s[1]
        dphi = 0.4 * u[0] + 0.1 * u[1]
        want = A(0, s, rot2(-phi) @ m, u) - dphi * J2
        assert np.linalg.norm(Ap(0, s, m, u) - want) < 1e-8


def test_gauge_round_trip(so2, so3):
    for sc, gauge in ((so2, so2_gauge(so2)), (so3, so3_gauge(so3))):
        A = construct_connection(sc)
        Ap = gauge_transform_connection(sc, A, gauge)
        back = gauge_transform_connection(sc, Ap, inverse_gauge(sc, gauge))
        for _ in range(10):
            s, u = overlap_sample(RNG), RNG.normal(size=2)
            m = RNG.normal(size=sc.n)
            assert np.linalg.norm(back(0, s, m, u) - A(0, s, m, u)) < 1e-7


def test_gauge_output_glues(so2, so3):
    for sc, gauge in ((so2, so2_gauge(so2)), (so3, so3_gauge(so3))):
        Ap = gauge_transform_connection(sc, construct_connection(sc), gauge)
        for _ in range(10):
            s, u = overlap_sample(RNG), RNG.normal(size=2)
            m = RNG.normal(size=sc.n)
            assert gluing_residual(sc, Ap, 0, 1, s, m, u) < 1e-7


def test_gauge_with_base_map(so2):
    # compose with the base reflection sigma -> -sigma around 0.5 in the
    # first coordinate, supplied as an explicit (f, f_inv, Tf_inv) triple
    sc = so2_single_chart_scenario()
    A = LocalConnectionData(sc, [lambda s, m, u: u[0] * J2])
    gauge = {0: BisectionFamily(lambda s, m: np.eye(2))}
    f = lambda s: np.array([1.0 - s[0], s[1]])
    tf_inv = lambda tau, u: np.array([-u[0], u[1]])
    Ap = gauge_transform_connection(sc, A, gauge, base_map=(f, f, tf_inv))
    s, m, u = np.array([0.3, 0.1]), np.array([1.0, 0.0]), np.array([1.0, 0.0])
    # the pullback flips the first base direction
    assert np.linalg.norm(Ap(0, s, m, u) + u[0] * J2) < 1e-9


def test_newton_shadow_inverse(so3):
    # an m-dependent bisection family exercises the iterative inverse
    def g(s, m):
        return expm(0.2 * np.tanh(m[0]) * L_Z)
    fam = BisectionFamily(g, constant_in_m=False)
    s = overlap_sample(RNG)
    m = np.array([0.4, -0.2, 0.7])
    mp = fam.shadow(s, m)
    assert np.linalg.norm(fam.shadow_inv(s, mp) - m) < 1e-10


# --- covariant derivatives ---------------------------------------------------

def test_covariant_derivative_constant_flat(so2):
    sc = so2_single_chart_scenario()
    A = zero_connection(sc)
    m0 = np.array([0.3, 0.4])
    val = covariant_derivative(sc, A, lambda s: m0, 0, np.array([0.1, 0.2]),
                               np.array([1.0, 0.0]))
    assert np.linalg.norm(val) < 1e-9


def test_covariant_derivative_formula():
    sc = so2_single_chart_scenario()
    A = LocalConnectionData(sc, [lambda s, m, u: u[0] * J2])
    m0 = np.array([0.3, 0.4])
    val = covariant_derivative(sc, A, lambda s: m0, 0, np.array([0.1, 0.2]),
                               np.array([1.0, 0.0]))
    assert np.linalg.norm(val - J2 @ m0) < 1e-9


def test_covariance(so2, so3):
    h = 1e-5
    for sc, gauge in ((so2, so2_gauge(so2)), (so3, so3_gauge(so3))):
        A = construct_connection(sc)
        Ap = gauge_transform_connection(sc, A, gauge)

        def phi(s, n=sc.n):
            out = 0.3 + 0.1 * np.arange(n) + 0.05 * s[0] * np.ones(n)
            out[0] += 0.2 * s[1]
            return out

        def phi_g(s):
            return gauge[0].shadow(s, phi(s))

        for _ in range(10):
            s, u = overlap_sample(RNG), RNG.normal(size=2)
            nab = covariant_derivative(sc, A, phi, 0, s, u)
            nabg = covariant_derivative(sc, Ap, phi_g, 0, s, u)
            shmap = lambda m: gauge[0].shadow(s, m)
            push = (shmap(phi(s) + h * nab) - shmap(phi(s) - h * nab)) / (2 * h)
            assert np.linalg.norm(nabg - push) < 1e-6
