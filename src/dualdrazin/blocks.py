"""Closed-form dual Drazin inverses of structured block matrices.

Each theorem family pairs a finite series formula with the hypotheses that
make it valid.  Callers can evaluate the hypotheses separately through
check_hypotheses; the formula functions re-check them and raise
HypothesisViolated rather than return a value the identity does not cover.

Series limits follow the standard indices of the governing blocks, with an
empty sum whenever the limit is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .drazin import _existence_test, dual_drazin, dual_drazin_series
from .dualmat import DualMatrix, dblock, dmul, dpow
from .errors import HypothesisViolated, ShapeMismatch
from .serialize import matrix_from_doc, matrix_to_doc
from .tolerances import residual_tol

__all__ = [
    "THEOREMS",
    "BlockInstance",
    "Condition",
    "HypothesisReport",
    "cline",
    "tri_drazin",
    "sum_pq_zero",
    "abio_drazin",
    "abco_drazin",
    "abco_series",
    "bipartite_drazin",
    "check_hypotheses",
    "closed_form",
]

THEOREMS = (
    "CLINE",
    "TRI_UPPER",
    "TRI_LOWER",
    "SUM_PQ0",
    "ABIO_RIGHT",
    "ABIO_LEFT",
    "ABCO_RIGHT",
    "ABCO_LEFT",
    "BIPARTITE",
)

_BLOCK_KEYS = {
    "CLINE": ("A", "B"),
    "TRI_UPPER": ("A", "B", "D"),
    "TRI_LOWER": ("A", "B", "D"),
    "SUM_PQ0": ("P", "Q"),
    "ABIO_RIGHT": ("A", "B"),
    "ABIO_LEFT": ("A", "B"),
    "ABCO_RIGHT": ("A", "B", "C"),
    "ABCO_LEFT": ("A", "B", "C"),
    "BIPARTITE": ("B", "C"),
}

# conditions that integer-built instances satisfy identically, so strict
# checking may demand an exact zero instead of a tolerance
_EXACT_CONDITIONS = {"product_zero"}


@dataclass(frozen=True)
class Condition:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class HypothesisReport:
    theorem: str
    conditions: tuple[Condition, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def residual(self, name: str) -> float:
        for c in self.conditions:
            if c.name == name:
                return c.residual
        raise KeyError(name)


class BlockInstance:
    """A theorem tag plus the named dual blocks it applies to."""

    def __init__(self, theorem: str, blocks: dict[str, DualMatrix]):
        if theorem not in _BLOCK_KEYS:
            raise ValueError(f"unknown theorem {theorem!r}")
        needed = _BLOCK_KEYS[theorem]
        missing = [k for k in needed if k not in blocks]
        if missing:
            raise ShapeMismatch(f"{theorem} needs blocks {needed}, missing {missing}")
        self.theorem = theorem
        self.blocks = {k: blocks[k] for k in needed}

    def __getitem__(self, key: str) -> DualMatrix:
        return self.blocks[key]

    def assembled(self) -> DualMatrix:
        """The matrix whose dual Drazin inverse the theorem describes."""
        t, b = self.theorem, self.blocks
        if t == "CLINE":
            return dmul(b["A"], b["B"])
        if t == "SUM_PQ0":
            return b["P"] + b["Q"]
        if t in ("TRI_UPPER", "TRI_LOWER"):
            a, bb, d = b["A"], b["B"], b["D"]
            m, dd = a.require_square(), d.require_square()
            if bb.shape != (m, dd):
                raise ShapeMismatch(f"off-diagonal block must be {m}x{dd}, got {bb.shape}")
            if t == "TRI_UPPER":
                return dblock([[a, bb], [DualMatrix.zeros(dd, m), d]])
            return dblock([[d, DualMatrix.zeros(dd, m)], [bb, a]])
        if t in ("ABIO_RIGHT", "ABIO_LEFT"):
            a, bb = b["A"], b["B"]
            n = a.require_square()
            if bb.shape != (n, n):
                raise ShapeMismatch(f"blocks must both be {n}x{n}, got {bb.shape}")
            return dblock([[a, bb], [DualMatrix.identity(n), DualMatrix.zeros(n)]])
        if t in ("ABCO_RIGHT", "ABCO_LEFT"):
            a, bb, c = b["A"], b["B"], b["C"]
            n = a.require_square()
            p = bb.shape[1]
            if bb.shape[0] != n or c.shape != (p, n):
                raise ShapeMismatch(
                    f"blocks {bb.shape} and {c.shape} do not border a {n}x{n} corner"
                )
            return dblock([[a, bb], [c, DualMatrix.zeros(p)]])
        bb, c = b["B"], b["C"]
        n, p = bb.shape
        if c.shape != (p, n):
            raise ShapeMismatch(f"expected {p}x{n} lower block, got {c.shape}")
        return dblock([[DualMatrix.zeros(n), bb], [c, DualMatrix.zeros(p)]])

    def to_doc(self) -> dict:
        return {
            "theorem": self.theorem,
            "blocks": {k: matrix_to_doc(v) for k, v in self.blocks.items()},
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "BlockInstance":
        theorem = doc.get("theorem")
        raw = doc.get("blocks")
        if theorem not in _BLOCK_KEYS or not isinstance(raw, dict):
            raise ShapeMismatch("block instance document needs 'theorem' and 'blocks'")
        return cls(theorem, {k: matrix_from_doc(v) for k, v in raw.items()})


def _projectors(x: DualMatrix, tol: float | None) -> tuple[DualMatrix, DualMatrix, DualMatrix]:
    """(inverse series, e-projector, pi-projector), ungated."""
    n = x.require_square()
    inv = dual_drazin_series(x, tol)
    e = dmul(x, inv)
    return inv, e, DualMatrix.identity(n) - e


def _dual_powers(x: DualMatrix, count: int) -> list[DualMatrix]:
    out = [DualMatrix.identity(x.shape[0])]
    for _ in range(count):
        out.append(dmul(out[-1], x))
    return out


def _membership_condition(name: str, x: DualMatrix, tol, res_tol) -> Condition:
    passed, _, residual = _existence_test(x, tol, res_tol)
    return Condition(name, residual, passed)


def _residual_condition(name, defect: DualMatrix, operands, res_tol, strict) -> Condition:
    residual = defect.norm()
    scale = 1.0 + sum(op.norm() for op in operands)
    if strict and name in _EXACT_CONDITIONS:
        passed = residual == 0.0
    else:
        passed = residual <= residual_tol(res_tol) * scale
    return Condition(name, residual, passed)


def check_hypotheses(
    inst: BlockInstance,
    tol: float | None = None,
    res_tol: float | None = None,
    strict: bool = False,
) -> HypothesisReport:
    """Evaluate every named hypothesis of the instance's theorem.

    Total: matrices outside the invertible class yield failed membership
    conditions instead of an exception.
    """
    t, b = inst.theorem, inst.blocks
    conds: list[Condition] = []
    if t == "CLINE":
        a, bb = b["A"], b["B"]
        if a.shape[1] != bb.shape[0] or a.shape[0] != bb.shape[1]:
            raise ShapeMismatch(f"need m x n and n x m factors, got {a.shape} and {bb.shape}")
        conds.append(_membership_condition("membership_BA", dmul(bb, a), tol, res_tol))
    elif t in ("TRI_UPPER", "TRI_LOWER"):
        inst.assembled()  # shape conformance only
        conds.append(_membership_condition("membership_A", b["A"], tol, res_tol))
        conds.append(_membership_condition("membership_D", b["D"], tol, res_tol))
    elif t == "SUM_PQ0":
        p, q = b["P"], b["Q"]
        if p.shape != q.shape:
            raise ShapeMismatch(f"summands must agree in shape, got {p.shape} and {q.shape}")
        conds.append(_residual_condition("product_zero", dmul(p, q), (p, q), res_tol, strict))
        conds.append(_membership_condition("membership_P", p, tol, res_tol))
        conds.append(_membership_condition("membership_Q", q, tol, res_tol))
    elif t in ("ABIO_RIGHT", "ABIO_LEFT"):
        inst.assembled()
        a, bb = b["A"], b["B"]
        _, ae, api = _projectors(a, tol)
        aapi = dmul(a, api)
        aae = dmul(a, ae)
        conds.append(_residual_condition(
            "commutation", dmul(aapi, bb) - dmul(bb, aapi), (a, bb), res_tol, strict))
        annihil = dmul(aae, bb) if t == "ABIO_RIGHT" else dmul(bb, aae)
        conds.append(_residual_condition("annihilation", annihil, (a, bb), res_tol, strict))
        conds.append(_membership_condition("membership_A", a, tol, res_tol))
        conds.append(_membership_condition("membership_B", bb, tol, res_tol))
    elif t in ("ABCO_RIGHT", "ABCO_LEFT"):
        inst.assembled()
        a, bb, c = b["A"], b["B"], b["C"]
        w = dmul(bb, c)
        _, ae, api = _projectors(a, tol)
        aapi = dmul(a, api)
        aae = dmul(a, ae)
        conds.append(_residual_condition(
            "commutation", dmul(aapi, w) - dmul(w, aapi), (a, w), res_tol, strict))
        annihil = dmul(aae, w) if t == "ABCO_RIGHT" else dmul(w, aae)
        conds.append(_residual_condition("annihilation", annihil, (a, w), res_tol, strict))
        conds.append(_membership_condition("membership_A", a, tol, res_tol))
        conds.append(_membership_condition("membership_BC", w, tol, res_tol))
    else:  # BIPARTITE
        inst.assembled()
        conds.append(_membership_condition("membership_BC", dmul(b["B"], b["C"]), tol, res_tol))
    return HypothesisReport(theorem=t, conditions=tuple(conds))


def _require(inst: BlockInstance, tol, res_tol, strict=False) -> None:
    report = check_hypotheses(inst, tol, res_tol, strict)
    if not report.passed:
        failed = ", ".join(f"{c.name}={c.residual:.3e}" for c in report.conditions if not c.passed)
        raise HypothesisViolated(f"{inst.theorem}: {failed}")


def cline(a: DualMatrix, b: DualMatrix, tol=None, res_tol=None) -> DualMatrix:
    """(AB)^D as A (BA)^2D B, valid whenever BA has a dual Drazin inverse."""
    if a.shape[1] != b.shape[0] or a.shape[0] != b.shape[1]:
        raise ShapeMismatch(f"need m x n and n x m factors, got {a.shape} and {b.shape}")
    ba = dmul(b, a)
    inv = dual_drazin(ba, tol, res_tol).inverse
    return dmul(dmul(a, dpow(inv, 2)), b)


def tri_drazin(a: DualMatrix, b: DualMatrix, d: DualMatrix,
               orientation: str = "upper", tol=None, res_tol=None) -> DualMatrix:
    """Dual Drazin inverse of [[A,B],[0,D]] (upper) or [[D,0],[B,A]] (lower)."""
    if orientation not in ("upper", "lower"):
        raise ValueError(f"orientation must be 'upper' or 'lower', got {orientation!r}")
    theorem = "TRI_UPPER" if orientation == "upper" else "TRI_LOWER"
    inst = BlockInstance(theorem, {"A": a, "B": b, "D": d})
    inst.assembled()
    m = a.require_square()
    n = d.require_square()
    da = dual_drazin(a, tol, res_tol)
    dd = dual_drazin(d, tol, res_tol)
    xa, p = da.inverse, da.index
    xd, q = dd.inverse, dd.index
    d_pi = DualMatrix.identity(n) - dmul(d, xd)
    a_pi = DualMatrix.identity(m) - dmul(a, xa)

    xa_pow = _dual_powers(xa, q + 2)
    d_pow = _dual_powers(d, max(q, 1))
    a_pow = _dual_powers(a, max(p, 1))
    xd_pow = _dual_powers(xd, p + 2)
    s = DualMatrix.zeros(m, n)
    for i in range(q):
        s = s + dmul(dmul(xa_pow[i + 2], b), dmul(d_pow[i], d_pi))
    for i in range(p):
        s = s + dmul(a_pi, dmul(dmul(a_pow[i], b), xd_pow[i + 2]))
    s = s - dmul(dmul(xa, b), xd)
    if orientation == "upper":
        return dblock([[xa, s], [DualMatrix.zeros(n, m), xd]])
    return dblock([[xd, DualMatrix.zeros(n, m)], [s, xa]])


def sum_pq_zero(p: DualMatrix, q: DualMatrix, tol=None, res_tol=None) -> DualMatrix:
    """(P+Q)^D under PQ = 0."""
    inst = BlockInstance("SUM_PQ0", {"P": p, "Q": q})
    _require(inst, tol, res_tol)
    dp = dual_drazin(p, tol, res_tol)
    dq = dual_drazin(q, tol, res_tol)
    xp, r = dp.inverse, dp.index
    xq, t = dq.inverse, dq.index
    n = p.require_square()
    eye = DualMatrix.identity(n)
    q_pi = eye - dmul(q, xq)
    p_pi = eye - dmul(p, xp)
    q_pow = _dual_powers(q, max(t, 1))
    xp_pow = _dual_powers(xp, t + 1)
    xq_pow = _dual_powers(xq, r + 1)
    p_pow = _dual_powers(p, max(r, 1))
    out = DualMatrix.zeros(n)
    for i in range(t):
        out = out + dmul(dmul(q_pi, q_pow[i]), xp_pow[i + 1])
    for i in range(r):
        out = out + dmul(xq_pow[i + 1], dmul(p_pow[i], p_pi))
    return out


def abio_drazin(a: DualMatrix, b: DualMatrix, side: str = "right",
                tol=None, res_tol=None) -> DualMatrix:
    """Dual Drazin inverse of [[A,B],[I,0]] under the one-sided conditions.

    side selects which product must vanish: 'right' demands A A^e B = 0,
    'left' demands B A A^e = 0; both demand A A^pi to commute with B.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    theorem = "ABIO_RIGHT" if side == "right" else "ABIO_LEFT"
    inst = BlockInstance(theorem, {"A": a, "B": b})
    _require(inst, tol, res_tol)
    xa = dual_drazin(a, tol, res_tol).inverse
    db = dual_drazin(b, tol, res_tol)
    xb = db.inverse
    n = a.require_square()
    eye = DualMatrix.identity(n)
    b_e = dmul(b, xb)
    b_pi = eye - b_e
    a_pi = eye - dmul(a, xa)
    aapi = dmul(a, a_pi)
    limit = db.index
    xa_pow = _dual_powers(xa, 2 * limit + 2)
    b_pow = _dual_powers(b, max(limit, 1))
    tl = DualMatrix.zeros(n)
    tr = DualMatrix.zeros(n)
    bl = DualMatrix.zeros(n)
    br = DualMatrix.zeros(n)
    for i in range(limit):
        bpbi = dmul(b_pi, b_pow[i])
        if side == "right":
            tl = tl + dmul(bpbi, xa_pow[2 * i + 1])
            bl = bl + dmul(bpbi, xa_pow[2 * i + 2])
        else:
            bpbi1 = dmul(bpbi, b)
            tl = tl + dmul(xa_pow[2 * i + 1], bpbi)
            tr = tr + dmul(xa_pow[2 * i + 2], bpbi1)
            bl = bl + dmul(xa_pow[2 * i + 2], bpbi)
            br = br + dmul(xa_pow[2 * i + 3], bpbi1)
    if side == "right":
        tr = b_e
        bl = bl + dmul(xb, a_pi)
        br = -dmul(aapi, xb)
    else:
        tr = tr + dmul(a_pi, b_e)
        bl = bl + dmul(a_pi, xb)
        br = br - dmul(aapi, xb) - dmul(xa, b_e)
    return dblock([[tl, tr], [bl, br]])


def abco_drazin(a: DualMatrix, b: DualMatrix, c: DualMatrix, side: str = "right",
                tol=None, res_tol=None) -> DualMatrix:
    """Dual Drazin inverse of [[A,B],[C,0]] under the one-sided conditions.

    side selects which product with W = BC must vanish: 'right' demands
    A A^e W = 0, 'left' demands W A A^e = 0; both demand A A^pi to commute
    with W.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    theorem = "ABCO_RIGHT" if side == "right" else "ABCO_LEFT"
    inst = BlockInstance(theorem, {"A": a, "B": b, "C": c})
    _require(inst, tol, res_tol)
    return abco_series(a, b, c, side, tol, res_tol)


def abco_series(a: DualMatrix, b: DualMatrix, c: DualMatrix, side: str = "right",
                tol=None, res_tol=None) -> DualMatrix:
    """The [[A,B],[C,0]] formula without its hypothesis gate.

    Membership of A and BC is still enforced through dual_drazin; callers
    that have verified the commutation and annihilation conditions in an
    equivalent blockwise form use this to avoid a redundant global check.
    """
    w = dmul(b, c)
    xa = dual_drazin(a, tol, res_tol).inverse
    dw = dual_drazin(w, tol, res_tol)
    xw = dw.inverse
    n = a.require_square()
    p = b.shape[1]
    eye = DualMatrix.identity(n)
    w_e = dmul(w, xw)
    w_pi = eye - w_e
    a_pi = eye - dmul(a, xa)
    aapi = dmul(a, a_pi)
    limit = dw.index
    xa_pow = _dual_powers(xa, 2 * limit + 3)
    w_pow = _dual_powers(w, max(limit, 1))
    tl = DualMatrix.zeros(n)
    tr = DualMatrix.zeros(n, p)
    bl = DualMatrix.zeros(p, n)
    br = DualMatrix.zeros(p)
    if side == "right":
        for i in range(limit):
            wpwi = dmul(w_pi, w_pow[i])
            tl = tl + dmul(wpwi, xa_pow[2 * i + 1])
            tr = tr + dmul(dmul(wpwi, xa_pow[2 * i + 2]), b)
            bl = bl + dmul(c, dmul(wpwi, xa_pow[2 * i + 2]))
            br = br + dmul(c, dmul(dmul(wpwi, xa_pow[2 * i + 3]), b))
        tr = tr + dmul(dmul(xw, a_pi), b)
        bl = bl + dmul(c, dmul(xw, a_pi))
        br = br - dmul(c, dmul(dmul(dpow(xw, 2), aapi), b))
        br = br - dmul(c, dmul(dmul(xw, xa), b))
    else:
        for i in range(limit):
            wpwi = dmul(w_pi, w_pow[i])
            wpwi1 = dmul(wpwi, w)
            tl = tl + dmul(xa_pow[2 * i + 2], dmul(wpwi, a))
            tl = tl + dmul(xa_pow[2 * i + 3], wpwi1)
            tr = tr + dmul(xa_pow[2 * i + 2], dmul(wpwi, b))
            bl = bl + dmul(c, dmul(xa_pow[2 * i + 3], dmul(wpwi, a)))
            bl = bl + dmul(c, dmul(xa_pow[2 * i + 4], wpwi1))
            br = br + dmul(c, dmul(xa_pow[2 * i + 3], dmul(wpwi, b)))
        tl = tl - dmul(xa, w_e)
        tr = tr + dmul(a_pi, dmul(xw, b))
        bl = bl - dmul(c, dmul(dpow(xa, 2), w_e))
        bl = bl + dmul(c, dmul(a_pi, xw))
        br = br - dmul(c, dmul(aapi, dmul(dpow(xw, 2), b)))
        br = br - dmul(c, dmul(xa, dmul(xw, b)))
    return dblock([[tl, tr], [bl, br]])


def bipartite_drazin(b: DualMatrix, c: DualMatrix, tol=None, res_tol=None) -> DualMatrix:
    """Dual Drazin inverse of [[0,B],[C,0]]: [[0,(BC)^D B],[C (BC)^D,0]]."""
    inst = BlockInstance("BIPARTITE", {"B": b, "C": c})
    inst.assembled()
    n, p = b.shape
    xw = dual_drazin(dmul(b, c), tol, res_tol).inverse
    return dblock([
        [DualMatrix.zeros(n), dmul(xw, b)],
        [dmul(c, xw), DualMatrix.zeros(p)],
    ])


def closed_form(inst: BlockInstance, tol=None, res_tol=None) -> DualMatrix:
    """Dispatch an instance to its theorem's formula."""
    t, b = inst.theorem, inst.blocks
    if t == "CLINE":
        return cline(b["A"], b["B"], tol, res_tol)
    if t in ("TRI_UPPER", "TRI_LOWER"):
        orientation = "upper" if t == "TRI_UPPER" else "lower"
        return tri_drazin(b["A"], b["B"], b["D"], orientation, tol, res_tol)
    if t == "SUM_PQ0":
        return sum_pq_zero(b["P"], b["Q"], tol, res_tol)
    if t in ("ABIO_RIGHT", "ABIO_LEFT"):
        return abio_drazin(b["A"], b["B"], t.rsplit("_", 1)[1].lower(), tol, res_tol)
    if t in ("ABCO_RIGHT", "ABCO_LEFT"):
        return abco_drazin(b["A"], b["B"], b["C"], t.rsplit("_", 1)[1].lower(), tol, res_tol)
    return bipartite_drazin(b["B"], b["C"], tol, res_tol)
