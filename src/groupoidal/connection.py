"""Local connection data on action-groupoid scenarios, and everything that
hangs off it: the gluing law, the vertical projectors, Christoffel forms,
parallel transport, gauge transformations, and covariant derivatives.

All Lie-algebra values are plain matrices, identified across fibres by right
translation at the unit.  Chart changes and gauge transformations act on the
local data by one affine law, X -> TC_b(X) - mc(b).  The adjoint part of TC,
the anchor, the Christoffel forms and mc of an exp_of family (one dexp) are
closed-form.  Other derivatives of the user's callables are the scenario
module's one central_difference: the base derivative in mc_right, the fibre
derivative in tangent_conjugation (exactly zero, and skipped, for a
bisection that declares constant_in_m), the anchor derivatives in
algebroid_bracket, and d_u phi in covariant_derivative.
"""

import random

import numpy as np

from .report import EnumerationBound, NumericFailure, StructuralError
from .scenario import BisectionFamily, central_difference


def mc_right(scenario, fam, m, sigma, u):
    """Right-logarithmic base derivative (d_u g(sigma, m)) g(sigma, m)^{-1},
    exact for a family that carries mc and a central difference otherwise."""
    sigma = np.asarray(sigma, dtype=float)
    u = np.asarray(u, dtype=float)
    if getattr(fam, "mc", None) is not None:
        return fam.mc(sigma, u)
    dg = central_difference(lambda s: fam(s, m), sigma, u)
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
    return (g @ X + central_difference(b, m, X @ m)) @ np.linalg.inv(g)


def anchor(scenario, m, X):
    """The infinitesimal action: rho(X)(m) = X.m."""
    return np.asarray(X) @ np.asarray(m, dtype=float)


def algebroid_bracket(scenario, s1, s2):
    """The bracket of sections m -> g, for the right-translation framing.

    Pointwise matrix commutator plus the anchor-directional derivatives of
    the coefficient fields.
    """
    def out(m):
        m = np.asarray(m, dtype=float)
        a, b = s1(m), s2(m)
        d2, d1 = central_difference(s2, m, a @ m), central_difference(s1, m, b @ m)
        return a @ b - b @ a + d2 - d1

    return out


class LocalConnectionData:
    """Per-chart fields A_i(sigma, m)(u), linear in u, each returning a fresh
    or unchanging array.  A field that never reads m may carry
    stack(S, U) -> (N, n, n): its values at N stacked base points S and
    velocities U, each (N, d), equal at roundoff to the field called at
    each of them.  stack takes no m, and transport then takes the
    propagator path, which evaluates a block of nodes in one call; the RK4
    loop calls the other fields directly, not through __call__, with
    float64 arguments as __call__ gives them."""

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
    field.stack = lambda S, U: np.zeros((len(S), scenario.n, scenario.n))
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


def construct_connection(scenario):
    """Glue the flat chart data through the scenario's partition of unity.

    Chart k's zero datum, carried into chart j by the gluing law, is
    -mc(beta_jk) at the point beta_kj|>m; the convex combination
    A_j(sigma, m)(u) = -sum_k w_k(sigma) mc_right(beta_jk; beta_kj|>m, sigma, u)
    glues because the law is affine with a shared inhomogeneous term.  The
    cocycle identity beta_jk beta_kj = 1 makes this the tangent-conjugation
    transport TC_{beta_jk}(mc(beta_kj)) of the Maurer-Cartan derivative.
    When every beta_jk (k != j) is constant_in_m, A_j skips the shadow;
    when every beta_jk also carries mc, A_j carries stack, so transport
    takes the propagator path, and the weights there are the partition
    functions called on the stack, masked by the open charts.
    """
    partition = scenario.partition
    if partition is None or len(partition) != len(scenario.charts):
        raise StructuralError("need one partition function per chart")
    rng = random.Random(0)  # not numpy.random, whose import costs more than this check
    for c in scenario.charts:
        s = c.sample(rng)
        total = sum(h(s) for k, h in enumerate(partition)
                    if scenario.charts[k].contains(s))
        if abs(total - 1.0) > 1e-9:
            raise StructuralError("partition does not sum to 1")

    def field(j):
        families = [f for (a, _), f in scenario.cocycle.items() if a == j]
        constant = all(f.constant_in_m for f in families)

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

        def stack(S, U):
            out = np.zeros((len(S), scenario.n, scenario.n))
            for k in range(len(scenario.charts)):
                if k == j:
                    continue
                w = np.where(scenario.charts[k].contains(S), partition[k](S), 0.0)
                out -= w[:, None, None] * scenario.beta(j, k).mc(S, U)
            return out

        if constant and all(f.mc is not None for f in families):
            A_j.stack = stack
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
    endpoints; each segment must stay inside its chart's open box, which
    transport checks at every RK4 node.  sigma and dsigma must be pure
    functions of t.  Transport, on either path, calls them once per
    block of RK4 nodes on a column of times (N, 1), and each must return
    (N, d), or a constant (d,) that is broadcast; at a chart switch sigma
    is also called at the segment's t0, a float.
    """

    def __init__(self, segments):
        self.segments = list(segments)

    @classmethod
    def polyline(cls, waypoints, charts):
        """Straight segments between consecutive waypoints, one chart each; a
        field that writes into the read-only velocity u fails loudly."""
        if not (len(charts) >= 1 and len(waypoints) == len(charts) + 1):
            raise StructuralError("a polyline needs at least one chart and one "
                                  "waypoint more than charts, not {} and {}"
                                  .format(len(charts), len(waypoints)))
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
MAX_STEPS = 10**7  # RK4 steps of one parallel_transport call, all segments


def step_counts(path, step):
    """The RK4 steps of each segment at this step, as floats, so that a
    step too small to count gives inf rather than an overflow."""
    return [max(1.0, round((t1 - t0) / step, 0)) for *_, t0, t1 in path.segments]


def segment_routes(A, path):
    """The way parallel_transport takes each segment of path: 'propagator'
    when the field of the segment's chart carries stack, 'loop' otherwise."""
    return ["loop" if getattr(A.fields[i], "stack", None) is None else "propagator"
            for i, *_ in path.segments]


@np.errstate(over="ignore", invalid="ignore")
def parallel_transport(scenario, A, path, start, step=1e-3):
    """Horizontal lift along the path by classical Runge-Kutta.

    The fibre label m never moves; the group part solves
    da/dt = -A_i(sigma(t), a.m)(dsigma) a, with chart switches by left
    multiplication with the cocycle value.  Both paths read the path at the
    RK4 nodes a block at a time (see _path_blocks), which raises
    StructuralError where a node leaves its segment's chart.  segment_routes
    picks the path: a segment whose field carries stack takes the propagator
    path (see _propagate), whose endpoints agree with the loop at roundoff,
    not bitwise.  Every other segment takes the step-by-step loop (see
    _rk4_loop), which calls the chart's field directly four times a step
    and gives plain RK4's endpoints bit for bit.
    The step must be finite and positive, and MAX_STEPS bounds the steps; overflow
    raises NumericFailure without numpy warnings.  Returns ((a, m), shadow endpoint).
    """
    if not (np.isfinite(step) and step > 0):
        raise StructuralError("transport step must be finite and > 0, not {}"
                              .format(step))
    if not path.segments:
        raise StructuralError("a transport path needs at least one segment")
    counts = step_counts(path, step)
    if sum(counts) > MAX_STEPS:
        raise EnumerationBound("{:.3g} RK4 steps > {}".format(sum(counts), MAX_STEPS))
    a, m = start
    a = np.asarray(a, dtype=float)
    m = np.asarray(m, dtype=float)
    chart = path.segments[0][0]
    for k, (segment, n_steps, route) in enumerate(zip(
            path.segments, map(int, counts), segment_routes(A, path))):
        i, sig, _, t0, t1 = segment
        if i != chart:
            a = scenario.beta(i, chart)(sig(t0), a @ m) @ a
            chart = i
        h = (t1 - t0) / n_steps
        blocks = _path_blocks(scenario, k, segment, h, n_steps)
        if route == "loop":
            a = _rk4_loop(A.fields[i], blocks, m, a, h)
        else:
            a = _propagate(A.fields[i].stack, blocks, a, h)
        if not np.all(np.isfinite(a)):
            raise NumericFailure("transport diverged")
    return (a, m), a @ m


def _path_blocks(scenario, k, segment, h, n_steps):
    """Segment k's path at the RK4 nodes of n_steps steps of h from its t0,
    BLOCK steps at a time: for each block of N steps, sigma and dsigma at
    its N + 1 end times (S, U) and at its N midpoints (Sh, Uh), each
    (rows, d).  The end times are the step-by-step t += h, which np.cumsum
    adds in order, and the midpoints each end time but the last plus h/2.
    sigma and dsigma are called once per column of times (rows, 1); a
    constant result (d,) is broadcast, read-only, to one row per time.  The
    nodes S and Sh must lie in the segment's chart box, or StructuralError
    names the segment and the first t outside it."""
    i, sig, dsig, t, _ = segment
    box = scenario.charts[i]
    for done in range(0, n_steps, BLOCK):
        T = np.cumsum(np.r_[t, np.full(min(BLOCK, n_steps - done), h)])[:, None]
        t = T[-1, 0]
        Th = T[:-1] + h / 2
        S, U = np.broadcast_arrays(sig(T), dsig(T), T)[:2]
        Sh, Uh = np.broadcast_arrays(sig(Th), dsig(Th), Th)[:2]
        outside = np.r_[T[~box.contains(S), 0], Th[~box.contains(Sh), 0]]
        if len(outside):
            raise StructuralError("segment {} leaves chart {} at t = {!r}".format(
                k, i, float(outside.min())))
        yield S, U, Sh, Uh


def _rk4_loop(f, blocks, m, a, h):
    """RK4 steps one by one for a chart field f that may read m, called
    directly four times a step at the nodes of blocks (see _path_blocks).
    Each block's node columns are converted to float64 once, so f gets the
    float64 rows LocalConnectionData.__call__ would give it; a and m are
    float64 already, and a step's end row starts the next step.  The slopes
    k are f a; the ODE's minus sign sits in the updates.  Products of the
    small matrices are ndarray.dot, which gives matmul's bits on them at
    less cost per call; h, h/2 and h/6 are 0-d float64 arrays, computed
    once, which multiply to a float's bits at less cost per call; 2 k is
    k + k, and the sum k1 + 2 k2 + 2 k3 + k4 keeps its order, so the
    endpoints are plain RK4's bit for bit."""
    h1, h2, h6 = np.array(h), np.array(h / 2), np.array(h / 6)
    for block in blocks:
        S, U, Sh, Uh = (np.asarray(x, dtype=float) for x in block)
        s0, d0 = S[0], U[0]
        for sh, dh, s1, d1 in zip(Sh, Uh, S[1:], U[1:]):
            k1 = f(s0, a.dot(m), d0).dot(a)
            b = a - k1 * h2
            k2 = f(sh, b.dot(m), dh).dot(b)
            b = a - k2 * h2
            k3 = f(sh, b.dot(m), dh).dot(b)
            b = a - k3 * h1
            k4 = f(s1, b.dot(m), d1).dot(b)
            a = a - (k1 + (k2 + k2) + (k3 + k3) + k4) * h6
            s0, d0 = s1, d1
    return a


def _propagate(stack, blocks, a, h):
    """RK4 steps a <- P a for the field X(t) = stack(sigma(t), dsigma(t)),
    which does not read m.  With X1, X2 = X3, X4 the field at the loop's
    nodes t, t + h/2, t + h of a step:
    P = I - h/6 (X1 + 2 X2 B1 + 2 X2 B2 + X4 B3), B1 = I - h/2 X1,
    B2 = I - h/2 X2 B1, B3 = I - h X2 B2.  Each of the blocks asks
    stack once for each kind of node, forms its P by batched matmul and
    multiplies them as a balanced tree, P_N ... P_1 in log2(BLOCK) rounds."""
    eye = np.eye(len(a))
    for S, U, Sh, Uh in blocks:
        X, X2 = stack(S, U), stack(Sh, Uh)
        X2B1 = X2 @ (eye - h / 2 * X[:-1])
        X2B2 = X2 @ (eye - h / 2 * X2B1)
        X4B3 = X[1:] @ (eye - h * X2B2)
        P = eye - h / 6 * (X[:-1] + 2 * X2B1 + 2 * X2B2 + X4B3)
        while len(P) > 1:  # P_N ... P_1, pairwise; an odd last P joins the last pair
            Q = P[1::2] @ P[:-1:2]
            if len(P) % 2:
                Q[-1] = P[-1] @ Q[-1]
            P = Q
        a = P[0] @ a
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
    optional (f, f_inv, Tf_inv) triple composes a base diffeomorphism.  The
    new fields carry no stack, so transport takes the RK4 loop on them.
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
    m = np.asarray(phi(sigma), dtype=float)
    dphi = central_difference(lambda s: np.asarray(phi(s), dtype=float), sigma, u)
    return dphi + A(i, sigma, m, u) @ m
