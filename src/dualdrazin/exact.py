"""Exact arithmetic over the Gaussian rationals Q(i) and the dual ring over it.

A complex number is a pair of Fractions (real, imaginary) and a dual number
a pair of such pairs (standard, infinitesimal).  smith_rank_oracle counts
the pivots of a Gaussian-integer dual matrix exactly; it cross-checks the
numerical ranks of dualmat, and ddz rank reports it for small integral
documents.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InexactInput

__all__ = ["smith_rank_oracle"]


def _gauss_int(value: float, what: str) -> Fraction:
    if value != int(value):
        raise InexactInput(f"{what} is not exactly a Gaussian integer: {value!r}")
    return Fraction(int(value))


_CZERO = (Fraction(0), Fraction(0))


def _cadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def _csub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def _cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _cinv(u):
    den = u[0] * u[0] + u[1] * u[1]
    return (u[0] / den, -u[1] / den)


def _dmul_exact(x, y):
    return (_cmul(x[0], y[0]), _cadd(_cmul(x[0], y[1]), _cmul(x[1], y[0])))


def _dsub_exact(x, y):
    return (_csub(x[0], y[0]), _csub(x[1], y[1]))


def smith_rank_oracle(x: DualMatrix) -> tuple[int, int]:
    """Exact pivot counts (appreciable, infinitesimal) over the dual ring.

    Gaussian elimination with unit pivots runs until no entry has a
    nonzero standard part; what remains is epsilon times a complex matrix
    whose exact rank gives the infinitesimal pivot count.  Requires
    Gaussian integer entries so every step stays in exact fractions.
    """
    rows, cols = x.shape
    work = [
        [
            (
                (_gauss_int(x.std[i, j].real, f"std[{i},{j}].re"),
                 _gauss_int(x.std[i, j].imag, f"std[{i},{j}].im")),
                (_gauss_int(x.inf[i, j].real, f"inf[{i},{j}].re"),
                 _gauss_int(x.inf[i, j].imag, f"inf[{i},{j}].im")),
            )
            for j in range(cols)
        ]
        for i in range(rows)
    ]
    r = 0
    while True:
        pivot = next(
            ((i, j) for i in range(len(work)) for j in range(len(work[0]) if work else 0)
             if work[i][j][0] != _CZERO),
            None,
        )
        if pivot is None:
            break
        pi, pj = pivot
        pval = work[pi][pj]
        pinv_std = _cinv(pval[0])
        pinv = (pinv_std, _cmul((Fraction(-1), Fraction(0)), _cmul(pinv_std, _cmul(pval[1], pinv_std))))
        for i in range(len(work)):
            if i == pi:
                continue
            factor = _dmul_exact(work[i][pj], pinv)
            work[i] = [
                _dsub_exact(work[i][j], _dmul_exact(factor, work[pi][j]))
                for j in range(len(work[0]))
            ]
        work = [
            [work[i][j] for j in range(len(work[0])) if j != pj]
            for i in range(len(work)) if i != pi
        ]
        r += 1
        if not work or not work[0]:
            break
    # remaining entries are pure infinitesimals; their rank over the
    # complex rationals is the epsilon pivot count
    resid = [[entry[1] for entry in row] for row in work]
    s = _exact_rank(resid)
    return r, s


def _exact_rank(rows_in) -> int:
    rows = [list(row) for row in rows_in if any(v != _CZERO for v in row)]
    rank = 0
    col = 0
    width = len(rows_in[0]) if rows_in else 0
    while rows and col < width:
        pivot_row = next((i for i, row in enumerate(rows) if row[col] != _CZERO), None)
        if pivot_row is None:
            col += 1
            continue
        rows[0], rows[pivot_row] = rows[pivot_row], rows[0]
        inv = _cinv(rows[0][col])
        for i in range(1, len(rows)):
            if rows[i][col] == _CZERO:
                continue
            factor = _cmul(rows[i][col], inv)
            rows[i] = [_csub(rows[i][j], _cmul(factor, rows[0][j])) for j in range(width)]
        rows = rows[1:]
        rows = [row for row in rows if any(v != _CZERO for v in row)]
        rank += 1
        col += 1
    return rank
