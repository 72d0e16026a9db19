"""Dense dual complex matrices and their basic operations.

A dual matrix is ``A + eps*A0`` with complex ``A`` (standard part) and
``A0`` (infinitesimal part), ``eps**2 == 0``.  The embedding

    phi(A + eps*A0) = [[A, A0], [0, A]]

is a ring homomorphism into ordinary complex matrices and drives the index
notions used everywhere else; rank_dual reads rank phi(X) from the two
parts, each at its own scale.

Two constructors.  DualMatrix(std, inf) validates: it copies its input
into contiguous complex arrays if need be, checks that both parts are 2-d
and equally shaped, and rejects NaN and inf.  identity, zeros, column, T
and every serialize reader go through it, so every matrix that enters
from outside is well formed.  DualMatrix._of(std, inf) checks nothing and
is for results of arithmetic on parts that are already valid, which are
complex128 and equally shaped by construction: the sums, differences,
products, copies and block grids below, and the internal results of
drazin and digraphs.  At dims 1-5 the checks cost more
than the arithmetic.  Such a result can still overflow to inf or NaN; the
steps that read one check it instead: the staircase, the mixed series M,
the hypothesis and defining residuals and the JSON writer each raise
NonFiniteEntries.  Once built, a DualMatrix's parts cannot be rebound or
deleted: its __setattr__ and __delattr__ raise AttributeError, and both
constructors set the slots through object.__setattr__.
"""

from __future__ import annotations

import math
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
        # the float view checks real and imaginary parts at half the cost
        # of isfinite on the complex array; zeros_like needs no check
        finite = np.isfinite(std.view(float)).all()
        if inf is None:
            inf = np.zeros_like(std)
        else:
            inf = np.ascontiguousarray(inf, dtype=complex)
            if inf.shape != std.shape:
                raise ShapeMismatch(
                    f"standard part {std.shape} and infinitesimal part {inf.shape} differ"
                )
            finite = finite and np.isfinite(inf.view(float)).all()
        if not finite:
            raise NonFiniteEntries("dual matrix entries must be finite")
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "inf", inf)

    @classmethod
    def _of(cls, std: np.ndarray, inf: np.ndarray) -> "DualMatrix":
        """Unvalidated: std and inf must be equally shaped 2-d complex128 arrays."""
        x = object.__new__(cls)
        object.__setattr__(x, "std", std)
        object.__setattr__(x, "inf", inf)
        return x

    def __setattr__(self, name, value):
        raise AttributeError(f"a DualMatrix's parts cannot be rebound ({name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"a DualMatrix's parts cannot be deleted ({name!r})")

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
        _require_same_shape(self, other)
        return DualMatrix._of(self.std + other.std, self.inf + other.inf)

    def __sub__(self, other: "DualMatrix") -> "DualMatrix":
        _require_same_shape(self, other)
        return DualMatrix._of(self.std - other.std, self.inf - other.inf)

    def __neg__(self) -> "DualMatrix":
        return DualMatrix._of(-self.std, -self.inf)

    def __matmul__(self, other: "DualMatrix") -> "DualMatrix":
        return dmul(self, other)

    @property
    def T(self) -> "DualMatrix":
        return DualMatrix(self.std.T, self.inf.T)

    def norm(self) -> float:
        """Frobenius norm of the stacked (std, inf) pair."""
        return _norm(self.std, self.inf)

    def copy(self) -> "DualMatrix":
        return DualMatrix._of(self.std.copy(), self.inf.copy())

    def __repr__(self) -> str:
        m, n = self.shape
        with np.errstate(over="ignore"):  # a norm past the float range prints as inf
            std, inf = np.linalg.norm(self.std), np.linalg.norm(self.inf)
        return f"DualMatrix({m}x{n}, |std|={std:.3g}, |inf|={inf:.3g})"


def _norm(std: np.ndarray, inf: np.ndarray) -> float:
    """DualMatrix.norm of a pair of parts; views of a block give the norm of its copy."""
    return float(np.sqrt(np.linalg.norm(std) ** 2 + np.linalg.norm(inf) ** 2))


def _require_same_shape(x: DualMatrix, y: DualMatrix) -> None:
    """Sums and differences need equal shapes; numpy would broadcast instead."""
    if x.shape != y.shape:
        raise ShapeMismatch(f"cannot add or subtract {x.shape} and {y.shape}")


def dmul(x: DualMatrix, y: DualMatrix) -> DualMatrix:
    """Dual matrix product: std X*Y, inf X*Y0 + X0*Y."""
    if x.shape[1] != y.shape[0]:
        raise ShapeMismatch(f"cannot multiply {x.shape} by {y.shape}")
    inf = x.std @ y.inf
    inf += x.inf @ y.std
    return DualMatrix._of(x.std @ y.std, inf)


def dblock(rows: list[list[DualMatrix]]) -> DualMatrix:
    """Assemble a dual matrix from a grid of conforming dual blocks."""
    def grid(part: str) -> np.ndarray:  # np.block's result, without its argument checks
        return np.concatenate([np.concatenate([getattr(b, part) for b in row], axis=1) for row in rows])

    return DualMatrix._of(grid("std"), grid("inf"))


def dpow(x: DualMatrix, k: int) -> DualMatrix:
    """k-th dual power of a square matrix, k >= 0, by binary powering.

    The product starts from the lowest power x^(2^j) the binary expansion
    of k uses, not from the identity, so only k = 0 builds one.  The result
    never shares memory with x: at k = 1 it is a copy.
    """
    n = x.require_square()
    if k < 0:
        raise ValueError("negative powers are not defined for dual matrices")
    if k == 0:
        return DualMatrix.identity(n)
    base = x
    while not k & 1:
        base, k = dmul(base, base), k >> 1
    result = base.copy() if base is x else base
    while k := k >> 1:
        base = dmul(base, base)
        if k & 1:
            result = dmul(result, base)
    return result


def phi_embed(x: DualMatrix) -> np.ndarray:
    """The 2m x 2n complex matrix [[std, inf], [0, std]]."""
    m, n = x.shape
    out = np.zeros((2 * m, 2 * n), dtype=complex)
    out[:m, :n] = x.std
    out[:m, n:] = x.inf
    out[m:, n:] = x.std
    return out


def _svd_floor(a: np.ndarray, tol: float | None, compute_uv: bool):
    """np.linalg.svd(a, compute_uv=compute_uv) and the rank floor max(m, n) * tol * sigma_max.

    Singular values at or below the floor count as zero.  Raises
    NonFiniteEntries on NaN or inf entries, which the SVD cannot take, and
    when sigma_max overflows, since every rank would then read 0.
    """
    if not np.isfinite(a).all():
        raise NonFiniteEntries("matrix entries must be finite")
    svd = np.linalg.svd(a, compute_uv=compute_uv)
    sigma_max = (svd[1] if compute_uv else svd)[0]
    if not math.isfinite(sigma_max):
        raise NonFiniteEntries("the largest singular value overflows")
    return svd, max(a.shape) * rank_tol(tol) * sigma_max


def numerical_rank(a: np.ndarray, tol: float | None = None) -> int:
    """Rank via SVD with threshold max(m, n) * tol * sigma_max (_svd_floor)."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0
    sv, floor = _svd_floor(a, tol, compute_uv=False)
    return int(np.count_nonzero(sv > floor))


def _staircase(a: np.ndarray, tol: float | None = None) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Core-nilpotent split of a square complex array by SVD null-space deflation.

    Returns (k, s, q, h) with q unitary and h = q* a q = [[N, X], [0, C]]:
    N is nilpotent and strictly block upper triangular, C is s x s and
    invertible.  Each step takes the SVD of the trailing block and moves its
    null vectors to the front (Kublanovskaya's staircase); singular values
    at or below n * tol * sigma_max(a) count as zero, so the first step
    decides rank(a) as numerical_rank does.  k, the number of deflating
    steps, is the index, and s = rank(a**k) the core dimension.  a is not
    copied: h is a new array from the first deflating step on, but at k = 0
    it is a itself (and q = I), so callers must not write into h.  Raises
    NonFiniteEntries on NaN or inf entries and when sigma_max overflows.
    """
    # the C layout a copy would have: the first step's a @ w reads it
    a = np.ascontiguousarray(a, dtype=complex)
    n = a.shape[0]
    h, q = a, None
    k = p = 0
    while p < n:
        if p:
            _, sv, vh = np.linalg.svd(h[p:, p:])
        else:
            (_, sv, vh), floor = _svd_floor(h, tol, compute_uv=True)
        del _  # U is never read
        d = int(np.count_nonzero(sv <= floor))
        if d == 0:
            break
        w = np.concatenate((vh[-d:], vh[:-d])).conj().T  # null vectors first
        if p:
            h[:, p:] = h[:, p:] @ w
            q[:, p:] = q[:, p:] @ w
        else:
            h = a @ w
            # the Newton steps' QR reads q's layout and its signed zeros: C order, and +0.0 for w's -0.0
            q = np.ascontiguousarray(w) + 0.0
        h[p:, p:] = w.conj().T @ h[p:, p:]
        h[p:, p:p + d] = 0.0
        p += d
        k += 1
    if q is None:
        q = np.eye(n, dtype=complex)
    return k, n - p, q, h


def rank_std(x: DualMatrix, tol: float | None = None) -> int:
    return numerical_rank(x.std, tol)


def rank_dual(x: DualMatrix, tol: float | None = None) -> int:
    """rank(phi(X)) - rank(A) = rank(A) + rank(U2* A0 V2), U2 and V2 spanning A's null spaces.

    This counts the unit plus eps pivots of the dual Smith form (Meyer 1973;
    exact.smith_rank_oracle).  Each rank is counted against its own part's
    floor (_svd_floor), so a large A0 cannot swamp A's singular values as it
    does in one SVD of phi(X).
    """
    if x.std.size == 0:
        return 0
    (u, sv, vh), floor = _svd_floor(x.std, tol, compute_uv=True)
    r = int(np.count_nonzero(sv > floor))
    floor0 = _svd_floor(x.inf, tol, compute_uv=False)[1]
    proj = u[:, r:].conj().T @ x.inf @ vh[r:].conj().T
    return r + int(np.count_nonzero(np.linalg.svd(proj, compute_uv=False) > floor0))


@dataclass(frozen=True)
class IndexReport:
    ind_std: int
    ind_dual: int
    ind_phi: int


def indices(x: DualMatrix, tol: float | None = None) -> IndexReport:
    """Standard index, dual index and index of the phi embedding.

    The dual index is the smallest t >= ind_std at which the dual rank of
    X**t collapses onto its standard rank, and that is ind_phi: phi(X**t) =
    [[A**t, M_t], [0, A**t]] has rank at least 2 rank(A**t), and for
    t >= ind_std equality holds exactly when t >= ind phi(X), which lies
    between ind_std and 2 ind_std.  So it is never missing, and in exact
    arithmetic it equals ind_std exactly when a dual Drazin inverse exists
    (drazin.dual_exists); the float staircase of phi(X) can miss that when
    the infinitesimal part is much larger than the standard part.
    """
    x.require_square()
    k = _staircase(x.std, tol)[0]
    k_phi = _staircase(phi_embed(x), tol)[0]
    return IndexReport(ind_std=k, ind_dual=k_phi, ind_phi=k_phi)
