"""Scalar arithmetic over the dual complex numbers.

A dual complex number is ``a + eps*b`` with complex ``a`` (standard part),
complex ``b`` (infinitesimal part) and ``eps**2 == 0``.  A dual number is
*appreciable* when its standard part is nonzero; only appreciable numbers
are invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAppreciable, NotDualDrazinInvertible
from .tolerances import APPRECIABLE_TOL

__all__ = ["DualScalar", "scalar_dual_drazin"]


@dataclass(frozen=True)
class DualScalar:
    std: complex = 0j
    inf: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "std", complex(self.std))
        object.__setattr__(self, "inf", complex(self.inf))

    def __add__(self, other: "DualScalar") -> "DualScalar":
        other = _coerce(other)
        return DualScalar(self.std + other.std, self.inf + other.inf)

    __radd__ = __add__

    def __sub__(self, other: "DualScalar") -> "DualScalar":
        other = _coerce(other)
        return DualScalar(self.std - other.std, self.inf - other.inf)

    def __rsub__(self, other) -> "DualScalar":
        return _coerce(other) - self

    def __mul__(self, other) -> "DualScalar":
        other = _coerce(other)
        # eps**2 vanishes, so only the cross terms survive in the inf part
        return DualScalar(
            self.std * other.std,
            self.std * other.inf + self.inf * other.std,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "DualScalar":
        return DualScalar(-self.std, -self.inf)

    def __truediv__(self, other) -> "DualScalar":
        return self * _coerce(other).inverse()

    def is_appreciable(self, tol: float = APPRECIABLE_TOL, scale: float = 1.0) -> bool:
        """True when the standard part is nonzero at the working precision."""
        return abs(self.std) > tol * scale

    def inverse(self) -> "DualScalar":
        """Multiplicative inverse ``1/a - eps*b/a**2``; needs ``a != 0``."""
        if self.std == 0:
            raise NotAppreciable("dual number with zero standard part has no inverse")
        a, b = self.std, self.inf
        return DualScalar(1.0 / a, -b / (a * a))

    def __abs__(self) -> float:
        return max(abs(self.std), abs(self.inf))

    def __repr__(self) -> str:
        return f"DualScalar({self.std!r}, {self.inf!r})"


def _coerce(value) -> DualScalar:
    if isinstance(value, DualScalar):
        return value
    if isinstance(value, (int, float, complex)):
        return DualScalar(value, 0j)
    raise TypeError(f"cannot interpret {type(value).__name__} as DualScalar")


def scalar_dual_drazin(z: DualScalar, tol: float = APPRECIABLE_TOL) -> DualScalar:
    """Dual Drazin inverse of a 1x1 dual matrix.

    Appreciable numbers are invertible and the result is the dual inverse.
    The zero dual number maps to zero.  A nonzero pure-infinitesimal number
    has no dual Drazin inverse: with standard part 0 the only candidate
    solution is 0, and the defining equations then force the infinitesimal
    part to vanish as well.
    """
    scale = 1.0 + abs(z.std) + abs(z.inf)
    if z.is_appreciable(tol, scale):
        return z.inverse()
    if abs(z.inf) <= tol * scale:
        return DualScalar(0j, 0j)
    raise NotDualDrazinInvertible(
        "nonzero pure-infinitesimal dual number has no dual Drazin inverse"
    )
