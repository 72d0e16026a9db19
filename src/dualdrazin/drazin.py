"""Drazin inverses: complex matrices and their dual extensions.

The complex Drazin inverse is computed from one SVD staircase (Kublanovskaya
1966; Golub & Wilkinson 1976): repeated null-space deflation gives a unitary
Q = [Q1, Q2] with Q* A Q = [[N, X], [0, C]], N nilpotent and C invertible.
The number of deflating steps is the index k and dim C the core dimension,
so index, core and inverse come from the same rank decisions.  Eigenvalues
are never thresholded: computed eigenvalues of a defective nilpotent block
scatter to magnitude roughly eps**(1/k), while its singular values at each
step stay near zero.  When k > 1 and C is not empty, Newton steps correct
Q1 and the core subspace for the errors the deflation steps build up.  With
Z = sum_{i<k} N^i X C^-(i+1), the basis

    T = [Q1, Q1 Z + Q2],   T^-1 = [Q1* - Z Q2*; Q2*],   T^-1 A T = diag(N, C)

splits A into its nilpotent and core parts, and A^D = T diag(0, C^-1) T^-1.
At index 0 no step deflates, so Q = T = I and C = A: A^D is C^-1 itself,
A A^D = I and I - A A^D = 0, and no product with T or T^-1 is formed.

From order _CERTIFY_ORDER on, drazin_complex first forms inv(A) by LU and
skips the staircase when that inverse certifies index 0:

    1 / |A^-1|_F  >  c * n * tol * |A|_F,   c = _CERTIFY_MARGIN = 4.

Since sigma_min(A) >= 1 / |A^-1|_F and sigma_max(A) <= |A|_F, every singular
value of A then lies above c times the staircase's floor n * tol * sigma_max,
so its first step would deflate nothing: index 0, C = A, and A^D the same
inv(A) bit for bit.  The factor c keeps the decision clear of the rounding
in the computed inverse and singular values.  When LU fails, the inequality
fails or an entry is not finite, the staircase decides as it always has.

A dual matrix A + eps*A0 has a dual Drazin inverse exactly when

    (I - A A^D) M (I - A A^D) == 0,   M = sum_{i=1..k} A^(k-i) A0 A^(i-1),

the eps-part of (A + eps*A0)^k with k = Ind(A), built as M_1 = A0,
M_(i+1) = A^i A0 + M_i A (_mixed_series), which forms no power of A past
A^(k-1); at index 0, M = 0.  The inverse is then A^D + eps*R, and R is
two sums over k terms in N and C^-1 of the blocks of F = T^-1 A0 T
(dual_drazin_series), which forms no power of A or A^D; at index 0 it is
R = -C^-1 A0 C^-1, and the existence test holds trivially.

Inside a _memo() scope, _factorise builds one DualDrazinData per distinct
dual matrix and tolerance pair (staircase, mixed series M, certificate and
inverse series) and hands every later caller, an accept filter or a
hypothesis report alike, the same record.  Its arrays are then read-only,
so a caller that writes to a shared array fails loudly.  Only fuzz opens
that scope, one trial at a time; everywhere else each call computes afresh
and returns writable arrays.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dualmat import DualMatrix, _norm, _staircase, dmul, dpow
from .errors import NonFiniteEntries, NotDualDrazinInvertible, ShapeMismatch, UncertainRank
from .tolerances import rank_tol, residual_tol

__all__ = [
    "DrazinData",
    "DualDrazinData",
    "drazin_complex",
    "drazin_oracle",
    "matrix_index",
    "dual_exists",
    "dual_drazin",
    "dual_drazin_series",
    "defining_residuals",
]


@dataclass(frozen=True)
class DrazinData:
    """Drazin inverse of a complex matrix with its spectral projectors."""

    ad: np.ndarray
    index: int
    proj_e: np.ndarray   # A A^D, projects onto the invertible core
    proj_pi: np.ndarray  # complement, projects onto the nilpotent part
    # the staircase basis T, its inverse, and N and C^-1 of T^-1 A T = diag(N, C)
    _basis: np.ndarray = field(repr=False, compare=False)
    _basis_inv: np.ndarray = field(repr=False, compare=False)
    _nil: np.ndarray = field(repr=False, compare=False)
    _core_inv: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class DualDrazinData:
    """Dual Drazin inverse of ``source`` together with the existence certificate.

    ``drazin`` is the factorisation of the standard part the inverse was
    built from.  ``residuals`` reports the three defining equations,
    evaluated in dual arithmetic with the computed inverse; it is computed
    on first access and cached, so callers that only need the inverse do
    not pay for it.  ``exists`` is False only in the factorisations a
    hypothesis report or a generator's accept filter keeps; ``inverse`` is
    then the ungated series value.
    """

    inverse: DualMatrix
    m_matrix: np.ndarray
    exists: bool
    source: DualMatrix
    drazin: DrazinData
    tol: float | None
    # the norm of Pi M Pi that the existence test compared
    _certificate: float = field(repr=False, compare=False)

    @property
    def index(self) -> int:
        """Standard index Ind(A) of the source matrix."""
        return self.drazin.index

    @cached_property
    def residuals(self) -> tuple[float, float, float]:
        return defining_residuals(self.source, self.inverse, self.index, self.tol)


# drazin_complex tries the LU route to index 0 from this order on
_CERTIFY_ORDER = 64
# the margin c of that route's certificate over the staircase's rank floor
_CERTIFY_MARGIN = 4.0

# None, or the dict of DualDrazinData of the open _memo() scope, read by _factorise
_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("drazin_memo", default=None)


@contextlib.contextmanager
def _memo():
    """Scope in which _factorise factorises each distinct dual matrix once."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def drazin_complex(a, tol: float | None = None) -> DrazinData:
    """Drazin inverse and spectral projectors from the SVD staircase of ``a``.

    A singular value the staircase counts as nonzero although it belongs to
    a null vector leaves a zero eigenvalue in the core block C, whose
    inversion then fails; that raises UncertainRank, not numpy's LinAlgError.

    From order _CERTIFY_ORDER on, an LU inverse that certifies index 0
    (_certified_inverse, the module docstring) stands in for the staircase.
    The gate is a measured trade-off.  An LU that fails still costs about a
    quarter of the staircase's first SVD (about 0.2 of 0.7 ms at n = 64,
    one core), and small inputs are mostly singular; at n = 256 an
    invertible input saves most of the SVD's 20 ms for an LU of 5.7 ms.
    """
    a = np.ascontiguousarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"square matrix required, got shape {a.shape}")
    n = a.shape[0]
    if n >= _CERTIFY_ORDER:
        inv = _certified_inverse(a, tol)
        if inv is not None:
            return _index_zero(inv)
    try:
        k, s, q, h = _staircase(a, tol)
        p = n - s
        refine = k > 1 and s > 0
        if refine:
            q, h = _newton_nilpotent_basis(a, k, p, q)
        core_inv = np.linalg.inv(h[p:, p:])
        # Z = sum_{i<k} N^i X C^-(i+1); in the staircase basis A A^D = [[0, Z], [0, I]]
        z = _power_series(h[:p, p:] @ core_inv, h[:p, :p], core_inv, k)
        if refine:
            z, core_inv = _newton_core_basis(h, k, p, z)
    except np.linalg.LinAlgError as exc:
        raise UncertainRank(f"the staircase split is unusable in floating point ({exc})") from exc
    if k == 0:
        return _index_zero(core_inv)
    basis = q[:, :p] @ z + q[:, p:]
    q_core = q[:, p:].conj().T
    t = np.concatenate((q[:, :p], basis), axis=1)
    t_inv = np.concatenate((q[:, :p].conj().T - z @ q_core, q_core))
    proj_e = basis @ q_core
    ad = basis @ core_inv @ q_core
    return DrazinData(ad=ad, index=k, proj_e=proj_e, proj_pi=np.eye(n, dtype=complex) - proj_e,
                      _basis=t, _basis_inv=t_inv, _nil=h[:p, :p].copy(), _core_inv=core_inv)


def _certified_inverse(a: np.ndarray, tol: float | None) -> np.ndarray | None:
    """inv(a) when _CERTIFY_MARGIN * n * tol * |a|_F * |inv(a)|_F < 1, else None.

    An LU that fails, a norm that overflows, and NaN or inf entries all
    leave the inequality false (inf * 0 and NaN compare false), so the
    staircase then decides, and raises NonFiniteEntries where it does.  A
    norm of inv(a) that underflows passes no matrix it should not: it needs
    every entry of inv(a) below about 1e-154, so every singular value of a
    above about 1e152 / n, and then either |a|_F overflows (the product is
    inf or NaN) or kappa(a) is below about 100 n.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            return None
        kappa_bound = _CERTIFY_MARGIN * a.shape[0] * rank_tol(tol) * np.linalg.norm(a) * np.linalg.norm(inv)
    return inv if kappa_bound < 1.0 else None


def _index_zero(core_inv: np.ndarray) -> DrazinData:
    """The index-0 result: q = I and h = a, so T = T^-1 = I, A^D = C^-1 and Pi = 0."""
    ident = np.eye(len(core_inv), dtype=complex)
    return DrazinData(ad=core_inv.copy(), index=0, proj_e=ident.copy(), proj_pi=np.zeros_like(ident),
                      _basis=ident, _basis_inv=ident, _nil=np.zeros((0, 0), dtype=complex), _core_inv=core_inv)


def _newton_nilpotent_basis(a: np.ndarray, k: int, p: int, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two Newton steps towards the invariant subspace of the first p columns of q.

    Each deflation step solves for its null vectors in a basis that carries
    the earlier steps' errors, so over k > 1 steps the discarded singular
    values grow (on an order-20, index-9 chain from 1e-16 to 3e-12 of
    sigma_max) and A^D loses digits.  With Q* A Q = [[N, X], [E, C]], the
    step for span(Q1 - Q2 P) solves C P - P N = E by the finite series
    P = sum_{i<k} C^-(i+1) E N^i and re-orthonormalises; the dual inverse
    series, which reaches C^-(k+1), needs the second step.
    Returns the new q and the full q* a q.  At k = 1 the null space of one
    SVD is already as accurate as the data allows, and a Newton step, whose
    target is conditioned by the spectral separation of N and C rather than
    by the singular-value gap, can only lose digits, so none is taken.
    """
    for _ in range(2):
        h = q.conj().T @ a @ q
        core_inv = np.linalg.inv(h[p:, p:])
        corr = _power_series(core_inv @ h[p:, :p], core_inv, h[:p, :p], k)
        q = np.linalg.qr(np.concatenate((q[:, :p] - q[:, p:] @ corr, q[:, p:]), axis=1))[0]
    return q, q.conj().T @ a @ q


def _newton_core_basis(h: np.ndarray, k: int, p: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Newton step for the core subspace span([Z; I]) of h = [[N, X], [E, C]].

    Z from the series solves N Z + X = Z C, which drops the small block E;
    the invariant subspace solves N Z + X = Z M with M = C + E Z.  The step
    solves (N - Z E) dZ - dZ M = -(N Z + X - Z M) by the same kind of
    series.  Returns Z + dZ and the inverse of the core block M it gives.
    """
    nil, x, e, c = h[:p, :p], h[:p, p:], h[p:, :p], h[p:, p:]
    m = c + e @ z
    m_inv = np.linalg.inv(m)
    z = z + _power_series((nil @ z + x - z @ m) @ m_inv, nil - z @ e, m_inv, k)
    return z, np.linalg.inv(c + e @ z)


def _power_series(first, left, right, k: int):
    """sum_{i<k} left^i first right^i, each term formed from the one before.

    The operands are ndarrays or DualMatrix alike, since both spell the
    product @ and the sum +.  At k = 0 the sum is empty: a zero of the
    shape and type of first.
    """
    if k == 0:
        return first - first
    term = total = first
    for _ in range(k - 1):
        term = left @ term @ right
        total = total + term
    return total


def drazin_oracle(a, tol: float | None = None) -> np.ndarray:
    """Independent route: A^k pinv(A^(2k+1)) A^k, with k from the staircase."""
    a = np.ascontiguousarray(a, dtype=complex)
    n = a.shape[0]
    k = _staircase(a, tol)[0]
    ak = np.linalg.matrix_power(a, k)
    mid = np.linalg.pinv(np.linalg.matrix_power(a, 2 * k + 1), rcond=max(rank_tol(tol) * n, 1e-15))
    return ak @ mid @ ak


def matrix_index(a, tol: float | None = None) -> int:
    """Index of a complex matrix: the number of staircase deflation steps."""
    a = np.ascontiguousarray(a, dtype=complex)
    return _staircase(a, tol)[0]


def _mixed_series(x: DualMatrix, k: int) -> np.ndarray:
    """The eps-part M of x^k, by the running dual product (P, M) <- (P A, P A0 + M A).

    It starts from x itself, (P, M) = (A, A0), so k - 1 passes follow, and
    P = A^i is formed only while a later pass reads it.  M is a new array
    even at k = 1, never a view of x.inf.
    """
    a, a0 = x.std, x.inf
    if k == 0:
        return np.zeros_like(a)
    p, m = a, a0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, k):
            m = p @ a0 + m @ a
            if i < k - 1:
                p = p @ a
    if not np.isfinite(m).all():
        raise NonFiniteEntries("the mixed series M of the existence test overflows")
    return m


def dual_exists(
    x: DualMatrix,
    tol: float | None = None,
    res_tol: float | None = None,
    data: DrazinData | None = None,
    *, _certified: bool = False,
) -> tuple:
    """Existence test for the dual Drazin inverse.

    Returns (exists, M) where M is the mixed series whose projection onto
    the nilpotent part must vanish.  Inside the package, _certified also
    returns the norm of that projection, the certificate the test compared.
    """
    x.require_square()
    if data is None:
        data = drazin_complex(x.std, tol)
    m = _mixed_series(x, data.index)
    certificate = _sandwich(data, m)
    ok = bool(certificate <= residual_tol(res_tol) * (1.0 + np.linalg.norm(m)))
    return (ok, m, certificate) if _certified else (ok, m)


def _sandwich(data: DrazinData, m: np.ndarray) -> float:
    """Norm of Pi M Pi, the projection dual_exists compares with zero.

    A norm past the float range decides nothing, so it raises, as an
    overflowing M does in _mixed_series.
    """
    if data.index == 0:
        return 0.0  # Pi = 0
    with np.errstate(over="ignore", invalid="ignore"):
        certificate = float(np.linalg.norm(data.proj_pi @ m @ data.proj_pi))
    if not math.isfinite(certificate):
        raise NonFiniteEntries("the existence certificate |Pi M Pi| overflows")
    return certificate


def dual_drazin_series(
    x: DualMatrix,
    tol: float | None = None,
    data: DrazinData | None = None,
) -> DualMatrix:
    """Evaluate the inverse series A^D + eps*R without the existence gate.

    In the staircase basis, T^-1 A T = diag(N, C) and F = T^-1 A0 T, the
    Meyer-Rose series for R becomes

        R = T [[0, sum_{i<k} N^i F12 C^-(i+2)],
               [sum_{i<k} C^-(i+2) F21 N^i, -C^-1 F22 C^-1]] T^-1.

    The result is the dual Drazin inverse exactly when dual_exists passes;
    hypothesis checks use the ungated value to form projector residuals for
    matrices that may sit outside the invertible class.
    """
    n = x.require_square()
    if data is None:
        data = drazin_complex(x.std, tol)
    nil, core_inv, k = data._nil, data._core_inv, data.index
    if k == 0:  # T = I, so R = -C^-1 A0 C^-1
        return DualMatrix._of(data.ad, -core_inv @ x.inf @ core_inv)
    p = nil.shape[0]
    f = data._basis_inv @ x.inf @ data._basis
    core_inv2 = core_inv @ core_inv
    r = np.zeros((n, n), dtype=complex)
    r[:p, p:] = _power_series(f[:p, p:] @ core_inv2, nil, core_inv, k)
    r[p:, :p] = _power_series(core_inv2 @ f[p:, :p], core_inv, nil, k)
    r[p:, p:] = -core_inv @ f[p:, p:] @ core_inv
    return DualMatrix._of(data.ad, data._basis @ r @ data._basis_inv)


def defining_residuals(
    x: DualMatrix,
    candidate: DualMatrix,
    k: int | None = None,
    tol: float | None = None,
) -> tuple[float, float, float]:
    """Relative residuals of the three defining equations for a candidate X:

    A^k X A = A^k,    X A X = X,    A X = X A
    """
    if k is None:
        k = matrix_index(x.std, tol)
    with np.errstate(over="ignore", invalid="ignore"):
        xa = dmul(candidate, x)
        if k == 0:
            # X A - I with no identity matrix: only the diagonal of the
            # standard part changes, and |I| = sqrt(n) rounds as _norm rounds it
            n = x.shape[0]
            diff = xa.std.copy()
            diff.flat[:: n + 1] -= 1
            r1 = _norm(diff, xa.inf) / (1.0 + math.sqrt(math.sqrt(n) ** 2))
            del diff
        else:
            # (A^k X) A, not A^k (X A): the other association rounds differently
            xk = dpow(x, k)
            r1 = _residual(dmul(dmul(xk, candidate), x), xk, xk.norm())
            del xk
        r2 = _residual(dmul(xa, candidate), candidate, candidate.norm())
        ax = dmul(x, candidate)
        r3 = _residual(ax, xa, ax.norm())
    if not (math.isfinite(r1) and math.isfinite(r2) and math.isfinite(r3)):
        raise NonFiniteEntries("a defining residual overflows")
    return r1, r2, r3


def _residual(lhs: DualMatrix, rhs: DualMatrix, scale: float) -> float:
    """|lhs - rhs| / (1 + scale), subtracting rhs in lhs's own arrays.

    lhs must be a product no one else holds; scale is taken before the
    subtraction, so it may be lhs's own norm.
    """
    np.subtract(lhs.std, rhs.std, out=lhs.std)
    np.subtract(lhs.inf, rhs.inf, out=lhs.inf)
    return lhs.norm() / (1.0 + scale)


def dual_drazin(
    x: DualMatrix,
    tol: float | None = None,
    res_tol: float | None = None,
) -> DualDrazinData:
    """Dual Drazin inverse A^D + eps*R, raising when none exists.

    The result's residuals are evaluated only when first read.
    """
    dd = _factorise(x, tol, res_tol)
    if not dd.exists:
        raise NotDualDrazinInvertible("projection of the mixed series onto the nilpotent part is nonzero")
    return dd


def _factorise(x: DualMatrix, tol, res_tol) -> DualDrazinData:
    """One staircase factorisation, the existence test and the inverse series.

    The series is evaluated even when ``exists`` is False: hypothesis checks
    build projectors from it for matrices that may sit outside the class,
    and only dual_drazin and the closed-form gate (blocks._require) raise
    for such a matrix.  Inside a _memo() scope one read-only result is
    shared per (x, tol, res_tol).
    """
    x.require_square()
    memo = _MEMO.get()
    if memo is not None:
        key = (len(x.std), x.std.tobytes(), x.inf.tobytes(), tol, res_tol)
        dd = memo.get(key)
        if dd is not None:
            return dd
    data = drazin_complex(x.std, tol)
    exists, m, certificate = dual_exists(x, tol, res_tol, data, _certified=True)
    inverse = dual_drazin_series(x, tol, data)
    dd = DualDrazinData(inverse=inverse, m_matrix=m, exists=exists, source=x, drazin=data, tol=tol,
                        _certificate=certificate)
    if memo is not None:
        for arr in (inverse.std, inverse.inf, m, data.ad, data.proj_e, data.proj_pi,
                    data._basis, data._basis_inv, data._nil, data._core_inv):
            arr.flags.writeable = False
        memo[key] = dd
    return dd
