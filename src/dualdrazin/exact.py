"""Exact arithmetic over the Gaussian rationals Q(i) and the dual ring over it.

A complex number is a pair of Fractions (real, imaginary) and a dual number
a pair of such pairs (standard, infinitesimal).  smith_rank_oracle counts
the pivots of a Gaussian-integer dual matrix's Smith form exactly, in one
elimination loop: unit pivots in dual arithmetic while any standard part is
nonzero, then pivots on the infinitesimal parts in complex arithmetic.  It
cross-checks the numerical ranks of dualmat, and ddz rank reports it for
small integral documents.
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

    The loop is the dual Smith form.  While any entry has a nonzero
    standard part it pivots on one, a unit, and clears the pivot's column
    in dual arithmetic; each such pivot counts towards the appreciable
    rank.  Once none is left every entry is pure epsilon, so it pivots on
    a nonzero infinitesimal part and clears the column on the infinitesimal
    parts alone; each such pivot counts towards the infinitesimal rank.
    Either way the pivot's row and column are then deleted.  Requires
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
    counts = [0, 0]  # pivots taken on the standard parts, then on the infinitesimal parts
    while work and work[0]:
        found = next(
            ((part, i, j) for part in (0, 1) for i, row in enumerate(work)
             for j, entry in enumerate(row) if entry[part] != _CZERO),
            None,
        )
        if found is None:
            break
        part, pi, pj = found
        counts[part] += 1
        pivot_row = work.pop(pi)
        pivot = pivot_row[pj]
        if part == 0:
            u = _cinv(pivot[0])
            inv = (u, _csub(_CZERO, _cmul(u, _cmul(pivot[1], u))))  # 1/a - eps*b/a**2
        else:
            inv = _cinv(pivot[1])
        for i, row in enumerate(work):
            if row[pj] == (_CZERO, _CZERO):
                del row[pj]
            elif part == 0:
                factor = _dmul_exact(row[pj], inv)
                work[i] = [_dsub_exact(entry, _dmul_exact(factor, top))
                           for j, (entry, top) in enumerate(zip(row, pivot_row)) if j != pj]
            else:
                factor = _cmul(row[pj][1], inv)
                work[i] = [(_CZERO, _csub(entry[1], _cmul(factor, top[1])))
                           for j, (entry, top) in enumerate(zip(row, pivot_row)) if j != pj]
    return counts[0], counts[1]
