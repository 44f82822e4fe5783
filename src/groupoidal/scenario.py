"""Matrix-group action scenarios for the numeric connection engine.

A scenario is a matrix Lie group acting linearly on R^n, a base covered by
open boxes, and a cocycle of smooth bisection families on the overlaps.  A
bisection of the action structure is a map m -> g(m); its arrows are pairs
(a, m) with source m and target a.m.
"""

import math
from contextlib import suppress

import numpy as np

from .report import NumericFailure, StructuralError


_EYE = {(2, 2): np.eye(2), (3, 3): np.eye(3)}

# the one central-difference step of the numeric engine, read only below
FD_STEP = 1e-5


def central_difference(f, x, v):
    """The derivative of f at x along v, (f(x + hv) - f(x - hv)) / 2h, h = FD_STEP."""
    return (f(x + FD_STEP * v) - f(x - FD_STEP * v)) / (2 * FD_STEP)


def rotation_exp(X):
    """exp(X) for X in so(2) or so(3), in closed form:
    I + (sin t / t) X + ((1 - cos t) / t^2) X^2 with t = |X|_F / sqrt(2).

    The first-order term is X itself, so d/ds exp(sX) at s = 0 is X even
    for an X that is skew only approximately.
    """
    X = np.asarray(X, dtype=float)
    eye = _EYE.get(X.shape)
    if eye is None:
        raise StructuralError("no closed-form exp for shape {}".format(X.shape))
    t2 = 0.5 * float(np.vdot(X, X))
    if t2 < 1e-8:  # series: the next terms are below 1e-18
        a, b = 1.0 - t2 / 6.0, 0.5 - t2 / 24.0
    else:
        t = math.sqrt(t2)
        a, b = math.sin(t) / t, 2.0 * (math.sin(0.5 * t) / t) ** 2
    return eye + a * X + b * (X @ X)


def rotation_dexp(X, Y):
    """The right-trivialised dexp, (d/ds exp(X + sY) at s = 0) exp(-X), for X,
    Y in so(2) or so(3): Y + ((1 - cos t)/t^2) [X, Y] + ((t - sin t)/t^3)
    [X, [X, Y]] with t = |X|_F / sqrt(2), which is Y on so(2).  X and Y may
    be single matrices (n, n) or stacks (..., n, n)."""
    if X.shape[-2:] == (2, 2):
        return Y
    t2 = 0.5 * (X * X).sum(axis=(-2, -1))
    # 2 (sin(t/2)/t)^2 is exact to rounding for every t > 0, and t below
    # 1e-50 changes neither coefficient; (t - sin t)/t^3 cancels for small t,
    # so below t^2 = 1e-8 it is the series, whose next term is below 1e-18
    t = np.sqrt(np.fmax(t2, 1e-100))
    a = 2.0 * (np.sin(0.5 * t) / t) ** 2
    b = np.where(t2 < 1e-8, 1.0 / 6.0 - t2 / 120.0, (t - np.sin(t)) / (t * t * t))
    XY = X @ Y - Y @ X
    return Y + a[..., None, None] * XY + b[..., None, None] * (X @ XY - XY @ X)


class Box:
    """An open axis-aligned box in the base."""

    def __init__(self, intervals):
        self.intervals = [(float(a), float(b)) for a, b in intervals]
        self._lo, self._hi = np.array(self.intervals).T

    def contains(self, sigma):
        """Whether sigma lies inside; for a stack (N, d), one bool per point."""
        return ((self._lo < sigma) & (sigma < self._hi)).all(axis=-1)

    def sample(self, rng):
        """A point drawn by rng.uniform(a, b) per interval."""
        return np.array([rng.uniform(a, b) for a, b in self.intervals])


class BisectionFamily:
    """A base-parametrized bisection sigma -> (m -> g(sigma, m)).

    The shadow is m -> g(sigma, m).m; its inverse is exact when g does not
    depend on m, and otherwise found by Newton iteration on central differences.
    mc(sigma, u) is the exact Maurer-Cartan derivative, None unless exp_of.
    """

    def __init__(self, g, constant_in_m=True):
        self.g = g
        self.constant_in_m = constant_in_m
        self.mc = None

    @classmethod
    def exp_of(cls, phi):
        """sigma -> exp(phi(sigma)) for phi linear into so(2) or so(3), with
        mc(sigma, u) = dexp_{phi(sigma)}(phi(u)).  phi is evaluated as
        sum_k s_k phi(e_k) from its basis images, so mc also takes stacks
        of base points and velocities (N, d) and returns (N, n, n)."""
        images = {}

        def lin(s):
            d = s.shape[-1]
            if d not in images:
                images[d] = np.array([phi(e) for e in np.eye(d)])
            return (s[..., None, None] * images[d]).sum(axis=-3)

        fam = cls(lambda s, m: rotation_exp(lin(s)))
        fam.mc = lambda s, u: rotation_dexp(lin(s), lin(u))
        return fam

    def __call__(self, sigma, m):
        return self.g(np.asarray(sigma, dtype=float), np.asarray(m, dtype=float))

    def at(self, sigma):
        sigma = np.asarray(sigma, dtype=float)

        def b(m):  # the bisection at sigma, carrying the family's flag
            return self.g(sigma, np.asarray(m, dtype=float))
        b.constant_in_m = self.constant_in_m
        return b

    def shadow(self, sigma, m):
        m = np.asarray(m, dtype=float)
        return self(sigma, m) @ m

    def shadow_inv(self, sigma, mp):
        mp = np.asarray(mp, dtype=float)
        if self.constant_in_m:
            return np.linalg.solve(self(sigma, mp), mp)
        m = np.linalg.solve(self(sigma, mp), mp)
        for _ in range(50):
            r = self.shadow(sigma, m) - mp
            if np.linalg.norm(r) < 1e-12:
                return m
            jac = np.column_stack([central_difference(lambda x: self.shadow(sigma, x), m, e)
                                   for e in np.eye(len(m))])
            with suppress(np.linalg.LinAlgError):  # singular: m stays, so the steps run out
                m = m - np.linalg.solve(jac, r)
        raise NumericFailure("shadow inversion did not converge")


class MatrixGroupScenario:
    """Group data, carrier, covered base, and the overlap cocycle."""

    def __init__(self, name, algebra, n, charts, cocycle, partition=None):
        self.name = name
        self.algebra = [np.asarray(t, dtype=float) for t in algebra]
        self.n = n
        self.charts = charts
        self.cocycle = dict(cocycle)
        self.partition = partition

    def exp(self, X):
        return rotation_exp(X)

    def beta(self, i, j):
        """The family beta_ij; identity on the diagonal."""
        if i == j:
            eye = np.eye(self.n)
            return BisectionFamily(lambda sigma, m: eye)
        if (i, j) in self.cocycle:
            return self.cocycle[(i, j)]
        raise StructuralError("no cocycle family for ({}, {})".format(i, j))


_TINY = np.finfo(float).tiny


def smoothstep(x):
    """A smooth 0-to-1 transition on [0, 1], flat at both ends; x may be an
    array."""
    x = np.asarray(x, dtype=float)
    # exp(-1/y) for y > 0, and exactly 0 for y <= 0, where exp(-1/tiny) underflows
    f0, f1 = (np.exp(-1.0 / np.fmax(y, _TINY)) for y in (x, 1.0 - x))
    return f0 / (f0 + f1)


J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
L_X = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
L_Y = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
L_Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def rot2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def so2_angle(sigma):
    return sigma[0] + 0.5 * sigma[1]


def so2_angle_grad(u):
    return u[0] + 0.5 * u[1]


def _two_chart_scenario(name, algebra, phi):
    """Two charts overlapping in 0.3 < sigma_0 < 0.7, the cocycle
    exp(+-phi(sigma)), constant in m, and a smoothstep partition."""
    charts = [Box([(-1.0, 0.7), (-1.0, 1.0)]),
              Box([(0.3, 2.0), (-1.0, 1.0)])]
    cocycle = {
        (0, 1): BisectionFamily.exp_of(phi),
        (1, 0): BisectionFamily.exp_of(lambda s: -phi(s)),
    }

    def h1(sigma):  # one weight per point of a stack (N, d)
        return smoothstep((np.asarray(sigma)[..., 0] - 0.3) / 0.4)

    return MatrixGroupScenario(name, algebra, len(algebra[0]), charts, cocycle,
                               [lambda s: 1.0 - h1(s), h1])


def so2_two_chart_scenario():
    """Rotations of the plane by a base-dependent angle."""
    return _two_chart_scenario("so2-two-chart", [J2],
                               lambda s: so2_angle(s) * J2)


def so2_single_chart_scenario():
    charts = [Box([(-2.0, 2.0), (-2.0, 2.0)])]
    return MatrixGroupScenario("so2-single-chart", [J2], 2, charts, {},
                               [lambda s: 1.0])


def so3_two_chart_scenario():
    """Rotations of R^3; the cocycle mixes two generators so the adjoint and
    Maurer-Cartan terms are nontrivial."""
    return _two_chart_scenario("so3-two-chart", [L_X, L_Y, L_Z],
                               lambda s: s[0] * L_Z + 0.4 * s[1] * L_X)
