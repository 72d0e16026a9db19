"""Dense dual complex matrices and their basic operations.

A dual matrix is ``A + eps*A0`` with complex ``A`` (standard part) and
``A0`` (infinitesimal part), ``eps**2 == 0``.  The embedding

    phi(A + eps*A0) = [[A, A0], [0, A]]

is a ring homomorphism into ordinary complex matrices and drives the rank
and index notions used everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEntries, ShapeMismatch
from .tolerances import rank_tol

__all__ = [
    "DualMatrix",
    "IndexReport",
    "dblock",
    "dmul",
    "dpow",
    "phi_embed",
    "numerical_rank",
    "rank_std",
    "rank_dual",
    "indices",
]


class DualMatrix:
    """A pair of equally shaped complex arrays, standard and infinitesimal."""

    __slots__ = ("std", "inf")

    def __init__(self, std, inf=None):
        std = np.ascontiguousarray(std, dtype=complex)
        if std.ndim != 2:
            raise ShapeMismatch(f"expected a 2-d array, got shape {std.shape}")
        if inf is None:
            inf = np.zeros_like(std)
        else:
            inf = np.ascontiguousarray(inf, dtype=complex)
        if inf.shape != std.shape:
            raise ShapeMismatch(
                f"standard part {std.shape} and infinitesimal part {inf.shape} differ"
            )
        if not (np.all(np.isfinite(std.view(float))) and np.all(np.isfinite(inf.view(float)))):
            raise NonFiniteEntries("dual matrix entries must be finite")
        self.std = std
        self.inf = inf

    # ---- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "DualMatrix":
        return cls(np.eye(n, dtype=complex))

    @classmethod
    def zeros(cls, m: int, n: int | None = None) -> "DualMatrix":
        n = m if n is None else n
        return cls(np.zeros((m, n), dtype=complex))

    @classmethod
    def column(cls, std, inf=None) -> "DualMatrix":
        """Column vector from 1-d data."""
        std = np.asarray(std, dtype=complex).reshape(-1, 1)
        inf = None if inf is None else np.asarray(inf, dtype=complex).reshape(-1, 1)
        return cls(std, inf)

    # ---- shape ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.std.shape

    def require_square(self) -> int:
        m, n = self.shape
        if m != n:
            raise ShapeMismatch(f"square matrix required, got {m}x{n}")
        return n

    # ---- algebra -------------------------------------------------------

    def __add__(self, other: "DualMatrix") -> "DualMatrix":
        return DualMatrix(self.std + other.std, self.inf + other.inf)

    def __sub__(self, other: "DualMatrix") -> "DualMatrix":
        return DualMatrix(self.std - other.std, self.inf - other.inf)

    def __neg__(self) -> "DualMatrix":
        return DualMatrix(-self.std, -self.inf)

    def __matmul__(self, other: "DualMatrix") -> "DualMatrix":
        return dmul(self, other)

    def scaled(self, factor: complex) -> "DualMatrix":
        return DualMatrix(self.std * factor, self.inf * factor)

    @property
    def T(self) -> "DualMatrix":
        return DualMatrix(self.std.T, self.inf.T)

    def norm(self) -> float:
        """Frobenius norm of the stacked (std, inf) pair."""
        return float(np.sqrt(np.linalg.norm(self.std) ** 2 + np.linalg.norm(self.inf) ** 2))

    def copy(self) -> "DualMatrix":
        return DualMatrix(self.std.copy(), self.inf.copy())

    def block(self, rows: slice, cols: slice) -> "DualMatrix":
        return DualMatrix(self.std[rows, cols], self.inf[rows, cols])

    def __repr__(self) -> str:
        m, n = self.shape
        return f"DualMatrix({m}x{n}, |std|={np.linalg.norm(self.std):.3g}, |inf|={np.linalg.norm(self.inf):.3g})"


def dmul(x: DualMatrix, y: DualMatrix) -> DualMatrix:
    """Dual matrix product: std X*Y, inf X*Y0 + X0*Y."""
    if x.shape[1] != y.shape[0]:
        raise ShapeMismatch(f"cannot multiply {x.shape} by {y.shape}")
    return DualMatrix(x.std @ y.std, x.std @ y.inf + x.inf @ y.std)


def dblock(rows: list[list[DualMatrix]]) -> DualMatrix:
    """Assemble a dual matrix from a grid of conforming dual blocks."""
    return DualMatrix(
        np.block([[b.std for b in row] for row in rows]),
        np.block([[b.inf for b in row] for row in rows]),
    )


def dpow(x: DualMatrix, k: int) -> DualMatrix:
    """k-th dual power of a square matrix, k >= 0."""
    n = x.require_square()
    if k < 0:
        raise ValueError("negative powers are not defined for dual matrices")
    result = DualMatrix.identity(n)
    base = x
    while k:
        if k & 1:
            result = dmul(result, base)
        k >>= 1
        if k:
            base = dmul(base, base)
    return result


def phi_embed(x: DualMatrix) -> np.ndarray:
    """The 2m x 2n complex matrix [[std, inf], [0, std]]."""
    m, n = x.shape
    out = np.zeros((2 * m, 2 * n), dtype=complex)
    out[:m, :n] = x.std
    out[:m, n:] = x.inf
    out[m:, n:] = x.std
    return out


def numerical_rank(a: np.ndarray, tol: float | None = None) -> int:
    """Rank via SVD with threshold max(m, n) * tol * sigma_max."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > max(a.shape) * rank_tol(tol) * sv[0]))


def _index_and_core(a: np.ndarray, tol: float | None = None) -> tuple[int, int]:
    """(k, rank(a**k)) for the smallest k >= 0 with rank(a**k) == rank(a**(k+1))."""
    n = a.shape[0]
    power = np.eye(n, dtype=complex)
    prev = n
    for k in range(n + 1):
        nxt = power @ a
        r = numerical_rank(nxt, tol)
        if r == prev:
            return k, prev
        power = nxt
        prev = r
    return n, prev


def rank_std(x: DualMatrix, tol: float | None = None) -> int:
    return numerical_rank(x.std, tol)


def rank_dual(x: DualMatrix, tol: float | None = None) -> int:
    """rank(phi(X)) - rank(std X).

    This counts unit pivots plus eps pivots of the dual Smith form, which
    the exact elimination oracle in the harness reproduces independently.
    """
    return numerical_rank(phi_embed(x), tol) - numerical_rank(x.std, tol)


@dataclass(frozen=True)
class IndexReport:
    ind_std: int
    ind_dual: int | None
    ind_phi: int


def indices(x: DualMatrix, tol: float | None = None) -> IndexReport:
    """Standard index, dual index and index of the phi embedding.

    The dual index is the smallest t in [ind_std, 2*ind_std] at which the
    dual rank of X**t collapses onto its standard rank; when no such t
    exists the matrix has no dual Drazin inverse and None is reported.
    """
    n = x.require_square()
    k = _index_and_core(x.std, tol)[0]
    k_phi = _index_and_core(phi_embed(x), tol)[0]
    ind_dual: int | None = None
    for t in range(k, 2 * k + 1):
        xt = dpow(x, t)
        if rank_dual(xt, tol) == rank_std(xt, tol):
            ind_dual = t
            break
    return IndexReport(ind_std=k, ind_dual=ind_dual, ind_phi=k_phi)
