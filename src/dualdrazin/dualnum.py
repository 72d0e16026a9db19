"""The dual Drazin inverse of a 1x1 dual matrix.

A 1x1 dual matrix is a dual number ``a + eps*b`` with complex ``a``
(standard part), complex ``b`` (infinitesimal part) and ``eps**2 == 0``.
It is *appreciable* when ``a`` is nonzero at the working precision, and
only appreciable numbers are invertible.  The double star's core inverts
through one such number, theta = x^T y + ab (digraphs); every other dual
value of the package is a DualMatrix of any shape, and no separate dual
number type exists.
"""

from __future__ import annotations

from .dualmat import DualMatrix
from .errors import NotDualDrazinInvertible, ShapeMismatch
from .tolerances import APPRECIABLE_TOL

__all__ = ["scalar_dual_drazin"]


def _appreciable(part: complex, other: complex) -> bool:
    """The one appreciability rule: |part| > APPRECIABLE_TOL * (1 + |part| + |other|).

    a + eps*b is appreciable when _appreciable(a, b); scalar_dual_drazin
    inverts exactly those numbers, and a double star's hub weights must be.
    """
    return abs(part) > APPRECIABLE_TOL * (1.0 + abs(part) + abs(other))


def scalar_dual_drazin(z: DualMatrix) -> DualMatrix:
    """Dual Drazin inverse of a 1x1 dual matrix, as a 1x1 dual matrix.

    An appreciable number a + eps*b is invertible, with inverse
    1/a - eps*b/a**2.  The zero dual number maps to zero.  A nonzero
    pure-infinitesimal number has no dual Drazin inverse: with standard
    part 0 the only candidate solution is 0, and the defining equations
    then force the infinitesimal part to vanish as well.
    """
    if z.shape != (1, 1):
        raise ShapeMismatch(f"expected a 1x1 dual matrix, got {z.shape[0]}x{z.shape[1]}")
    a, b = z.std.item(), z.inf.item()
    if _appreciable(a, b):
        return DualMatrix([[1.0 / a]], [[-b / (a * a)]])
    if abs(b) <= APPRECIABLE_TOL * (1.0 + abs(a) + abs(b)):
        return DualMatrix.zeros(1)
    raise NotDualDrazinInvertible(
        "nonzero pure-infinitesimal dual number has no dual Drazin inverse"
    )
