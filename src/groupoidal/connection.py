"""Local connection data on action-groupoid scenarios, and everything that
hangs off it: the gluing law, the vertical projectors, Christoffel forms,
parallel transport, gauge transformations, and covariant derivatives.

All Lie-algebra values are plain matrices, identified across fibres by right
translation at the unit.  Chart changes and gauge transformations act on the
local data by one affine law, X -> TC_b(X) - mc(b).  The adjoint part of TC,
the anchor and the Christoffel forms are closed-form.  Derivatives of the
user's callables, which have no closed form here, are central differences
with FD_STEP, the step scenario also uses: the base derivative in mc_right,
the fibre derivative in tangent_conjugation (exactly zero, and skipped, for a
bisection that declares constant_in_m), the anchor derivatives in
algebroid_bracket, and d_u phi in covariant_derivative.
"""

import numpy as np

from .report import NumericFailure, StructuralError
from .scenario import FD_STEP, BisectionFamily


def mc_right(scenario, fam, m, sigma, u):
    """Right-logarithmic base derivative (d_u g(sigma, m)) g(sigma, m)^{-1}."""
    sigma = np.asarray(sigma, dtype=float)
    u = np.asarray(u, dtype=float)
    h = FD_STEP
    dg = (fam(sigma + h * u, m) - fam(sigma - h * u, m)) / (2 * h)
    return dg @ np.linalg.inv(fam(sigma, m))


def tangent_conjugation(scenario, b, m, X):
    """The derivative of conjugation by the bisection b at the unit over m,
    (b(m) X + d_{X.m} b) b(m)^{-1}: Ad_{b(m)} X plus the derivative of b
    along the anchor X.m, skipped as exactly zero when b carries a true
    constant_in_m.  The result is attached at the shadow point b(m).m.
    """
    m = np.asarray(m, dtype=float)
    g = b(m)
    if getattr(b, "constant_in_m", False):
        return g @ X @ np.linalg.inv(g)
    h = FD_STEP
    v = X @ m
    db = (b(m + h * v) - b(m - h * v)) / (2 * h)
    return (g @ X + db) @ np.linalg.inv(g)


def anchor(scenario, m, X):
    """The infinitesimal action: rho(X)(m) = X.m."""
    return np.asarray(X) @ np.asarray(m, dtype=float)


def algebroid_bracket(scenario, s1, s2):
    """The bracket of sections m -> g, for the right-translation framing.

    Pointwise matrix commutator plus the anchor-directional derivatives of
    the coefficient fields.
    """
    h = FD_STEP

    def out(m):
        m = np.asarray(m, dtype=float)
        a, b = s1(m), s2(m)
        v1, v2 = a @ m, b @ m
        d2 = (s2(m + h * v1) - s2(m - h * v1)) / (2 * h)
        d1 = (s1(m + h * v2) - s1(m - h * v2)) / (2 * h)
        return a @ b - b @ a + d2 - d1

    return out


class LocalConnectionData:
    """Per-chart fields A_i(sigma, m)(u), linear in u, each returning a fresh
    or unchanging array.  A field that never reads m may declare
    constant_in_m = True, and transport then takes its propagator path."""

    def __init__(self, scenario, fields):
        self.scenario = scenario
        self.fields = list(fields)

    def __call__(self, i, sigma, m, u):
        return self.fields[i](np.asarray(sigma, dtype=float),
                              np.asarray(m, dtype=float),
                              np.asarray(u, dtype=float))


def zero_connection(scenario):
    z = np.zeros((scenario.n, scenario.n))

    def field(s, m, u):
        return z
    field.constant_in_m = True
    return LocalConnectionData(scenario, [field for _ in scenario.charts])


def gluing_residual(scenario, A, i, j, sigma, m, u):
    """Norm of A_i(sigma, b|>m)(u) - TC_b(A_j(sigma, m)(u)) + mc(b; m, sigma, u)
    for b = beta_ij(sigma); zero exactly when the data glue."""
    sigma = np.asarray(sigma, dtype=float)
    if not (scenario.charts[i].contains(sigma)
            and scenario.charts[j].contains(sigma)):
        raise StructuralError("sigma outside the (i, j) overlap")
    fam = scenario.beta(i, j)
    b = fam.at(sigma)
    lhs = A(i, sigma, fam.shadow(sigma, m), u)
    mid = tangent_conjugation(scenario, b, m, A(j, sigma, m, u))
    return np.linalg.norm(lhs - mid + mc_right(scenario, fam, m, sigma, u))


def construct_connection(scenario, partition=None):
    """Glue the flat chart data through a partition of unity.

    Chart k's zero datum, carried into chart j by the gluing law, is
    -mc(beta_jk) at the point beta_kj|>m; the convex combination
    A_j(sigma, m)(u) = -sum_k w_k(sigma) mc_right(beta_jk; beta_kj|>m, sigma, u)
    glues because the law is affine with a shared inhomogeneous term.  The
    cocycle identity beta_jk beta_kj = 1 makes this the tangent-conjugation
    transport TC_{beta_jk}(mc(beta_kj)) of the Maurer-Cartan derivative.
    When every beta_jk (k != j) is constant_in_m, A_j skips the shadow and
    carries constant_in_m itself, so transport takes the propagator path.
    """
    partition = partition if partition is not None else scenario.partition
    if partition is None or len(partition) != len(scenario.charts):
        raise StructuralError("need one partition function per chart")
    rng = np.random.default_rng(0)
    for c in scenario.charts:
        s = c.sample(rng)
        total = sum(h(s) for k, h in enumerate(partition)
                    if scenario.charts[k].contains(s))
        if abs(total - 1.0) > 1e-9:
            raise StructuralError("partition does not sum to 1")

    def field(j):
        constant = all(f.constant_in_m for (a, _), f in scenario.cocycle.items() if a == j)

        def A_j(sigma, m, u):
            out = np.zeros((scenario.n, scenario.n))
            for k in range(len(scenario.charts)):
                if k == j or not scenario.charts[k].contains(sigma):
                    continue
                w = partition[k](sigma)
                if w == 0.0:
                    continue
                m_k = m if constant else scenario.beta(k, j).shadow(sigma, m)
                out -= w * mc_right(scenario, scenario.beta(j, k), m_k, sigma, u)
            return out
        A_j.constant_in_m = constant
        return A_j

    return LocalConnectionData(scenario, [field(j) for j in
                                          range(len(scenario.charts))])


def apply_theta(scenario, A, i, sigma, point, tangent):
    """The vertical projector on chart tangents (u, adot, mdot)."""
    a, m = point
    u, adot, mdot = tangent
    corr = A(i, sigma, np.asarray(a) @ np.asarray(m, dtype=float), u) @ a
    return (np.zeros_like(np.asarray(u, dtype=float)), adot + corr, mdot)


def christoffel(scenario, A, i, sigma, point, u):
    """Right-translated connection value: the horizontal-lift ODE right side
    is minus this."""
    a, m = point
    return (A(i, sigma, np.asarray(a) @ np.asarray(m, dtype=float), u) @ a,
            np.zeros(scenario.n))


class BasePath:
    """A piecewise-smooth base path with a chart itinerary.

    Segments are (chart, sigma(t), dsigma(t), t0, t1) with matching
    endpoints; each segment stays inside its chart.  sigma and dsigma must be
    pure functions of t: transport evaluates them once per RK4 node.
    """

    def __init__(self, segments):
        self.segments = list(segments)

    @classmethod
    def polyline(cls, waypoints, charts):
        """Straight segments between consecutive waypoints, one chart each; a
        field that writes into the read-only velocity u fails loudly."""
        segs = []
        for k, chart in enumerate(charts):
            p = np.asarray(waypoints[k], dtype=float)
            d = np.asarray(waypoints[k + 1], dtype=float) - p
            d.flags.writeable = False
            segs.append((chart,
                         (lambda p, d: lambda t: p + t * d)(p, d),
                         (lambda d: lambda t: d)(d),
                         0.0, 1.0))
        return cls(segs)


# steps per batch of the propagator path; its arrays never grow past this
BLOCK = 512


def parallel_transport(scenario, A, path, start, step=1e-3):
    """Horizontal lift along the path by classical Runge-Kutta.

    The fibre label m never moves; the group part solves
    da/dt = -A_i(sigma(t), a.m)(dsigma) a, with chart switches by left
    multiplication with the cocycle value.  A segment whose field declares
    a true constant_in_m takes the propagator path (see _propagate), whose
    endpoints agree with the step-by-step loop at roundoff, not bitwise.
    The step must be finite and positive.  Returns ((a, m), shadow endpoint).
    """
    if not (np.isfinite(step) and step > 0):
        raise StructuralError("transport step must be finite and > 0, not {}"
                              .format(step))
    a, m = start
    a = np.asarray(a, dtype=float)
    m = np.asarray(m, dtype=float)
    chart = path.segments[0][0]
    for (i, sig, dsig, t0, t1) in path.segments:
        s0, d0 = sig(t0), dsig(t0)
        if i != chart:
            a = scenario.beta(i, chart)(s0, a @ m) @ a
            chart = i
        n_steps = max(1, int(round((t1 - t0) / step)))
        h = (t1 - t0) / n_steps
        t = t0
        if getattr(A.fields[i], "constant_in_m", False):
            a = _propagate(A, i, sig, dsig, m, a, t, h, n_steps)
        else:
            # the slopes k are A a; the ODE's minus sign sits in the updates
            for _ in range(n_steps):
                sh, dh = sig(t + h / 2), dsig(t + h / 2)
                s1, d1 = sig(t + h), dsig(t + h)
                k1 = A(i, s0, a @ m, d0) @ a
                b = a - h / 2 * k1
                k2 = A(i, sh, b @ m, dh) @ b
                b = a - h / 2 * k2
                k3 = A(i, sh, b @ m, dh) @ b
                b = a - h * k3
                k4 = A(i, s1, b @ m, d1) @ b
                a = a - h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                t += h
                s0, d0 = s1, d1
        if not np.all(np.isfinite(a)):
            raise NumericFailure("transport diverged")
    return (a, m), a @ m


def _propagate(A, i, sig, dsig, m, a, t, h, n_steps):
    """RK4 steps a <- P a for a field X(t) that does not read m.  With X1,
    X2 = X3, X4 the field at the loop's nodes t, t + h/2, t + h:
    P = I - h/6 (X1 + 2 X2 B1 + 2 X2 B2 + X4 B3), B1 = I - h/2 X1,
    B2 = I - h/2 X2 B1, B3 = I - h X2 B2; batched over BLOCK steps, each
    block starting from the last one's end node."""
    eye = np.eye(len(a))
    ends = [A(i, sig(t), m, dsig(t))]
    for done in range(0, n_steps, BLOCK):
        ends, mids = ends[-1:], []
        for _ in range(min(BLOCK, n_steps - done)):
            mids.append(A(i, sig(t + h / 2), m, dsig(t + h / 2)))
            ends.append(A(i, sig(t + h), m, dsig(t + h)))
            t += h
        X, X2 = np.array(ends), np.array(mids)
        X2B1 = X2 @ (eye - h / 2 * X[:-1])
        X2B2 = X2 @ (eye - h / 2 * X2B1)
        X4B3 = X[1:] @ (eye - h * X2B2)
        for p in eye - h / 6 * (X[:-1] + 2 * X2B1 + 2 * X2B2 + X4B3):
            a = p @ a
    return a


def shadow_theta(scenario, A, i, sigma, m, tangent):
    """The induced vertical projector on shadow tangents (u, w)."""
    u, w = tangent
    return (np.zeros_like(np.asarray(u, dtype=float)),
            np.asarray(w, dtype=float) + A(i, sigma, m, u) @ np.asarray(m, dtype=float))


def gauge_transform_connection(scenario, A, gauge, base_map=None):
    """Transform the local data by per-chart bisection families gamma_i.

    The new field at the displaced fibre label is the tangent-conjugation
    image of the old one minus the Maurer-Cartan derivative of gamma_i; an
    optional (f, f_inv, Tf_inv) triple composes a base diffeomorphism.
    """
    def field(i):
        fam = gauge[i]

        def A_phi(tau, mp, u):
            if base_map is None:
                sigma = tau
            else:
                f, f_inv, tf_inv = base_map
                sigma = np.asarray(f_inv(tau), dtype=float)
                u = np.asarray(tf_inv(tau, u), dtype=float)
            m = fam.shadow_inv(sigma, mp)
            val = tangent_conjugation(scenario, fam.at(sigma), m,
                                      A(i, sigma, m, u))
            return val - mc_right(scenario, fam, m, sigma, u)
        return A_phi

    return LocalConnectionData(scenario,
                               [field(i) for i in range(len(scenario.charts))])


def inverse_gauge(scenario, gauge):
    """The pointwise inverse families gamma_i(sigma)^{-1}."""
    out = {}
    for i, fam in gauge.items():
        def g(sigma, mp, fam=fam):
            m = fam.shadow_inv(sigma, mp)
            return np.linalg.inv(fam(sigma, m))
        out[i] = BisectionFamily(g, constant_in_m=fam.constant_in_m)
    return out


def covariant_derivative(scenario, A, phi, i, sigma, u):
    """d_u phi + rho(A_i(sigma, phi(sigma))(u)) at phi(sigma)."""
    sigma = np.asarray(sigma, dtype=float)
    u = np.asarray(u, dtype=float)
    h = FD_STEP
    m = np.asarray(phi(sigma), dtype=float)
    dphi = (np.asarray(phi(sigma + h * u), dtype=float)
            - np.asarray(phi(sigma - h * u), dtype=float)) / (2 * h)
    return dphi + A(i, sigma, m, u) @ m
