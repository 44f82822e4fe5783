"""The fibrewise arrow formulas of a matrix-group action structure, kept as
test oracles.  An arrow is a pair (a, m) with source m and target a.m; a
bisection is a map m -> b(m)."""

import numpy as np

from groupoidal import StructuralError


def compose_arrow(arrow1, arrow2):
    """(a1, a2.m).(a2, m) = (a1 a2, m); source of arrow1 must be a2.m."""
    a1, m1 = arrow1
    a2, m2 = arrow2
    if not np.allclose(m1, a2 @ m2):
        raise StructuralError("arrows not composable")
    return (a1 @ a2, m2)


def inv_arrow(arrow):
    a, m = arrow
    ai = np.linalg.inv(a)
    return (ai, a @ m)


def left_mult_arrow(b, arrow):
    """L_b(a, m) = (b(a.m) a, m): the bisection value at the target, composed."""
    a, m = arrow
    return (b(a @ m) @ a, m)


def conjugate_arrow(b, arrow):
    """C_b(a, m) = b(a.m) . (a, m) . b(m)^{-1}."""
    a, m = arrow
    return (b(a @ m) @ a @ np.linalg.inv(b(m)), b(m) @ m)
