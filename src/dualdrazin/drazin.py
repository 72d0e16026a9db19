"""Drazin inverses: complex matrices and their dual extensions.

The complex Drazin inverse is computed from a sorted complex Schur form.
The split between the invertible core and the nilpotent part is decided by
rank stabilisation of matrix powers rather than by a fixed eigenvalue
cutoff: computed eigenvalues of a defective nilpotent block scatter to
magnitude roughly eps**(1/k), so thresholding |lambda| directly would
misclassify them.  Rank stabilisation fixes the core dimension s; the
Schur reordering threshold is then placed inside the spectral gap.

A dual matrix A + eps*A0 has a dual Drazin inverse exactly when

    (I - A A^D) M (I - A A^D) == 0,   M = sum_{i=1..k} A^(k-i) A0 A^(i-1)

with k = Ind(A), and the inverse is then A^D + eps*R with R given by a
finite series in A, A0 and A^D.  All series run over exactly Ind terms;
higher terms vanish identically in the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .dualmat import DualMatrix, _index_and_core, dmul, dpow
from .errors import CrossCheckFailed, IndexTooLarge, NotDualDrazinInvertible, ShapeMismatch
from .tolerances import CLUSTER_TOL, rank_tol, residual_tol

__all__ = [
    "DrazinData",
    "DualDrazinData",
    "drazin_complex",
    "drazin_oracle",
    "group_inverse",
    "matrix_index",
    "dual_exists",
    "dual_drazin",
    "dual_drazin_series",
    "dual_drazin_power",
    "defining_residuals",
]


@dataclass(frozen=True)
class DrazinData:
    """Drazin inverse of a complex matrix with its spectral projectors."""

    ad: np.ndarray
    index: int
    proj_e: np.ndarray   # A @ ad, projects onto the invertible core
    proj_pi: np.ndarray  # complement, projects onto the nilpotent part


@dataclass(frozen=True)
class DualDrazinData:
    """Dual Drazin inverse of ``source`` together with the existence certificate.

    ``drazin`` is the factorisation of the standard part the inverse was
    built from.  ``residuals`` reports the three defining equations,
    evaluated in dual arithmetic with the computed inverse; it is computed
    on first access and cached, so callers that only need the inverse do
    not pay for it.
    """

    inverse: DualMatrix
    m_matrix: np.ndarray
    exists: bool
    source: DualMatrix
    drazin: DrazinData
    tol: float | None

    @property
    def index(self) -> int:
        """Standard index Ind(A) of the source matrix."""
        return self.drazin.index

    @cached_property
    def residuals(self) -> tuple[float, float, float]:
        return defining_residuals(self.source, self.inverse, self.index, self.tol)


def drazin_complex(a, tol: float | None = None) -> DrazinData:
    """Drazin inverse via a sorted complex Schur decomposition."""
    a = np.ascontiguousarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"square matrix required, got shape {a.shape}")
    n = a.shape[0]
    k, s = _index_and_core(a, tol)
    eye = np.eye(n, dtype=complex)
    if s == 0:
        ad = np.zeros((n, n), dtype=complex)
        return DrazinData(ad=ad, index=k, proj_e=ad.copy(), proj_pi=eye)

    floor = CLUSTER_TOL * (1.0 + np.linalg.norm(a))
    mags = np.sort(np.abs(np.linalg.eigvals(a)))[::-1]
    if s == n:
        tau = 0.5 * mags[-1] if mags[-1] > floor else floor
    else:
        hi, lo = mags[s - 1], mags[s]
        tau = 0.5 * (hi + lo) if hi > lo else floor
    t, z, sdim = scipy.linalg.schur(a, output="complex", sort=lambda lam: abs(lam) > tau)
    if sdim != s:
        # Fall back to the plain magnitude cutoff; reachable only for
        # spectra with no usable gap, where both answers are unstable.
        t, z, sdim = scipy.linalg.schur(a, output="complex", sort=lambda lam: abs(lam) > floor)
        s = sdim

    t11 = t[:s, :s]
    core_inv = scipy.linalg.solve_triangular(t11, np.eye(s, dtype=complex))
    x = np.zeros((n, n), dtype=complex)
    x[:s, :s] = core_inv
    if s < n:
        t12 = t[:s, s:]
        t22 = t[s:, s:]
        # corner series: sum_{i<k} T11^-(i+2) T12 T22^i; T22^k is negligible
        term = core_inv @ core_inv @ t12
        corner = np.zeros_like(t12)
        for _ in range(k):
            corner += term
            term = core_inv @ term @ t22
        x[:s, s:] = corner
    ad = z @ x @ z.conj().T
    proj_e = a @ ad
    return DrazinData(ad=ad, index=k, proj_e=proj_e, proj_pi=eye - proj_e)


def drazin_oracle(a, tol: float | None = None) -> np.ndarray:
    """Independent route: A^k pinv(A^(2k+1)) A^k with k from rank stabilisation."""
    a = np.ascontiguousarray(a, dtype=complex)
    n = a.shape[0]
    k, _ = _index_and_core(a, tol)
    ak = np.linalg.matrix_power(a, k)
    mid = np.linalg.pinv(np.linalg.matrix_power(a, 2 * k + 1), rcond=max(rank_tol(tol) * n, 1e-15))
    return ak @ mid @ ak


def group_inverse(a, tol: float | None = None) -> np.ndarray:
    """Drazin inverse restricted to Ind(A) <= 1."""
    data = drazin_complex(a, tol)
    if data.index > 1:
        raise IndexTooLarge(f"group inverse needs index <= 1, got {data.index}")
    return data.ad


def matrix_index(a, tol: float | None = None) -> int:
    """Index of a complex matrix by rank stabilisation of its powers."""
    a = np.ascontiguousarray(a, dtype=complex)
    return _index_and_core(a, tol)[0]


def _dual_m_matrix(x: DualMatrix, k: int) -> np.ndarray:
    a, a0 = x.std, x.inf
    n = a.shape[0]
    m = np.zeros((n, n), dtype=complex)
    powers = [np.eye(n, dtype=complex)]
    for _ in range(k):
        powers.append(powers[-1] @ a)
    for i in range(1, k + 1):
        m += powers[k - i] @ a0 @ powers[i - 1]
    return m


def dual_exists(
    x: DualMatrix,
    tol: float | None = None,
    res_tol: float | None = None,
    data: DrazinData | None = None,
) -> tuple[bool, np.ndarray]:
    """Existence test for the dual Drazin inverse.

    Returns (exists, M) where M is the mixed series whose projection onto
    the nilpotent part must vanish.
    """
    ok, m, _ = _existence_test(x, tol, res_tol, data)
    return ok, m


def _existence_test(
    x: DualMatrix,
    tol: float | None = None,
    res_tol: float | None = None,
    data: DrazinData | None = None,
) -> tuple[bool, np.ndarray, float]:
    """dual_exists plus the norm of the sandwich Pi M Pi it compared."""
    x.require_square()
    if data is None:
        data = drazin_complex(x.std, tol)
    m = _dual_m_matrix(x, data.index)
    sandwich = float(np.linalg.norm(data.proj_pi @ m @ data.proj_pi))
    ok = sandwich <= residual_tol(res_tol) * (1.0 + np.linalg.norm(m))
    return bool(ok), m, sandwich


def dual_drazin_series(
    x: DualMatrix,
    tol: float | None = None,
    data: DrazinData | None = None,
) -> DualMatrix:
    """Evaluate the inverse series A^D + eps*R without the existence gate.

    The result is the dual Drazin inverse exactly when dual_exists passes;
    hypothesis checks use the ungated value to form projector residuals for
    matrices that may sit outside the invertible class.
    """
    n = x.require_square()
    if data is None:
        data = drazin_complex(x.std, tol)
    a, a0, ad, k = x.std, x.inf, data.ad, data.index
    r = -ad @ a0 @ ad
    if k > 0:
        powers = [np.eye(n, dtype=complex)]
        dpowers = [np.eye(n, dtype=complex)]
        for _ in range(k + 2):
            powers.append(powers[-1] @ a)
            dpowers.append(dpowers[-1] @ ad)
        pi = data.proj_pi
        for i in range(k):
            r += dpowers[i + 2] @ a0 @ powers[i] @ pi
            r += pi @ powers[i] @ a0 @ dpowers[i + 2]
    return DualMatrix(ad, r)


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
    xk = dpow(x, k)
    r1 = (dmul(dmul(xk, candidate), x) - xk).norm() / (1.0 + xk.norm())
    r2 = (dmul(dmul(candidate, x), candidate) - candidate).norm() / (1.0 + candidate.norm())
    ax = dmul(x, candidate)
    r3 = (ax - dmul(candidate, x)).norm() / (1.0 + ax.norm())
    return r1, r2, r3


def dual_drazin(
    x: DualMatrix,
    tol: float | None = None,
    res_tol: float | None = None,
) -> DualDrazinData:
    """Dual Drazin inverse A^D + eps*R, raising when none exists.

    The result's residuals are evaluated only when first read.
    """
    x.require_square()
    data = drazin_complex(x.std, tol)
    exists, m = dual_exists(x, tol, res_tol, data)
    if not exists:
        raise NotDualDrazinInvertible(
            "projection of the mixed series onto the nilpotent part is nonzero"
        )
    inverse = dual_drazin_series(x, tol, data)
    return DualDrazinData(inverse=inverse, m_matrix=m, exists=True, source=x, drazin=data, tol=tol)


def dual_drazin_power(
    x: DualMatrix,
    k: int,
    tol: float | None = None,
    res_tol: float | None = None,
) -> DualMatrix:
    """k-th dual power of the dual Drazin inverse, k >= 1.

    Computed twice: directly as dpow of the inverse and through the series

        (A^D)^k + eps * sum_{i=0..k-1} (A^D)^i R (A^D)^(k-1-i)

    and cross-checked before returning.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    dd = dual_drazin(x, tol, res_tol)
    direct = dpow(dd.inverse, k)

    ad, r = dd.inverse.std, dd.inverse.inf
    n = ad.shape[0]
    dpowers = [np.eye(n, dtype=complex)]
    for _ in range(k):
        dpowers.append(dpowers[-1] @ ad)
    series_inf = np.zeros_like(ad)
    for i in range(k):
        series_inf += dpowers[i] @ r @ dpowers[k - 1 - i]
    series = DualMatrix(dpowers[k], series_inf)

    gap = (direct - series).norm() / (1.0 + direct.norm())
    if gap > residual_tol(res_tol) * 10:
        raise CrossCheckFailed(f"power series disagrees with repeated product: {gap:.3e}")
    return direct
