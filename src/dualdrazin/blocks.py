"""Closed-form dual Drazin inverses of structured block matrices.

Each theorem family pairs a finite series formula with the hypotheses that
make it valid.  A BlockInstance checks its blocks against the theorem's
entry in _SHAPES when it is built and raises ShapeMismatch there, so later
stages take the shapes as given.  check_hypotheses evaluates the
hypotheses and keeps the factorisation of every block it tests for
membership; the formula bodies take their inverses from that report, so
each block is factorised once.  closed_form, behind every formula
function, passes the report through one gate (_require), which decides
what a failed hypothesis raises; the formula bodies only evaluate.

Each series is one drazin._power_series call, sum_{i<k} L^i F R^i with k
the standard index of the governing block: D and A for the two TRI sums,
Q and P for SUM_PQ0, B for ABIO and W for ABCO.  At k = 0 the sum is
empty.  The paper's terms are regrouped so that each one is the one before
times a fixed left and right factor; the ABCO right sum, for instance, is
W^pi sum_{i<k} W^i A^D ((A^D)^2)^i, and the blocks that carry higher powers
of A^D or a trailing B or C multiply that one sum.

Every [[A,B],[C,0]] closed form runs the right series of _abco_formula,
from A^D, W = BC, W^D and k = Ind(W): BIPARTITE at A = A^D = 0, the BC = 0
digraph bodies at W = W^D = 0, k = 1 (each zero passed as None, so its
products are skipped), and ABCO_LEFT on (A^T, C^T, B^T),
transposed, since (X^T)^D = (X^D)^T.  The left report stays native: it
factorises BC, as the fuzz accept filter does, and so shares its record.

ABIO, the C = I case, keeps its own series: its conditions also give
A^D B = 0 (right) or B A^D = 0 (left), which drops terms.  Through the ABCO
series the 1e-8 gate sweep (300 trials, seed 0, dims 6-10) fails one trial
a side against none, its worst defining residual going 1.8e-9 -> 1.0e-7
(right) and 3.9e-10 -> 5.3e-8 (left).  TRI_LOWER lays the TRI_UPPER sum
out as a block permutation, which the transpose route cannot improve on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .drazin import DualDrazinData, _factorise, _power_series, dual_drazin
from .dualmat import DualMatrix, dblock, dmul, dpow
from .errors import HypothesisViolated, IndexTooLarge, NonFiniteEntries, NotDualDrazinInvertible, ShapeMismatch
from .families import _SHAPES, THEOREMS
from .serialize import _listed, _matrix_doc, matrix_from_doc
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


@dataclass(frozen=True)
class Condition:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class HypothesisReport:
    theorem: str
    conditions: tuple[Condition, ...]
    # name -> factorisation of each matrix the formula inverts, kept by the check
    factorisations: dict[str, DualDrazinData] = field(default_factory=dict, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def residual(self, name: str) -> float:
        for c in self.conditions:
            if c.name == name:
                return c.residual
        raise KeyError(name)


class BlockInstance:
    """A theorem tag plus the named dual blocks it applies to, checked to conform."""

    def __init__(self, theorem: str, blocks: dict[str, DualMatrix]):
        if theorem not in _SHAPES:
            raise ValueError(f"unknown theorem {theorem!r}")
        shapes = _SHAPES[theorem]
        missing = [k for k in shapes if k not in blocks]
        if missing:
            raise ShapeMismatch(f"{theorem} needs blocks {tuple(shapes)}, missing {missing}")
        self.theorem = theorem
        self.blocks = {k: blocks[k] for k in shapes}
        sizes: dict[str, int] = {}
        for key, letters in shapes.items():
            for letter, size in zip(letters, self.blocks[key].shape):
                if sizes.setdefault(letter, size) != size:
                    want = ", ".join(f"{k} {r}x{c}" for k, (r, c) in shapes.items())
                    got = ", ".join(f"{k} {v.shape[0]}x{v.shape[1]}" for k, v in self.blocks.items())
                    raise ShapeMismatch(f"{theorem} needs {want}, got {got}")

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
            zero = DualMatrix.zeros(d.shape[0], a.shape[0])
            if t == "TRI_UPPER":
                return dblock([[a, bb], [zero, d]])
            return dblock([[d, zero], [bb, a]])
        if t in ("ABIO_RIGHT", "ABIO_LEFT"):
            n = b["A"].shape[0]
            return dblock([[b["A"], b["B"]], [DualMatrix.identity(n), DualMatrix.zeros(n)]])
        if t in ("ABCO_RIGHT", "ABCO_LEFT"):
            p = b["B"].shape[1]
            return dblock([[b["A"], b["B"]], [b["C"], DualMatrix.zeros(p)]])
        bb, c = b["B"], b["C"]
        n, p = bb.shape
        return dblock([[DualMatrix.zeros(n), bb], [c, DualMatrix.zeros(p)]])

    def _doc(self) -> dict:
        """The instance document with complex array parts; to_doc lists them."""
        return {"theorem": self.theorem, "blocks": {k: _matrix_doc(v) for k, v in self.blocks.items()}}

    def to_doc(self) -> dict:
        return _listed(self._doc())

    @classmethod
    def from_doc(cls, doc: dict) -> "BlockInstance":
        theorem = doc.get("theorem")
        raw = doc.get("blocks")
        if theorem not in _SHAPES or not isinstance(raw, dict):
            raise ShapeMismatch("block instance document needs 'theorem' and 'blocks'")
        return cls(theorem, {k: matrix_from_doc(v) for k, v in raw.items()})


def _condition(name: str, residual: float, scale: float, res_tol) -> Condition:
    """The acceptance rule of every residual hypothesis: residual <= tol * scale.

    A residual that is inf or NaN comes from products that overflowed, and
    says nothing about the hypothesis, so it raises NonFiniteEntries.
    """
    if not math.isfinite(residual):
        raise NonFiniteEntries(f"the {name} residual overflows")
    return Condition(name, residual, residual <= residual_tol(res_tol) * scale)


def _residual_condition(name, defect: DualMatrix, operands, res_tol) -> Condition:
    return _condition(name, defect.norm(), 1.0 + sum(op.norm() for op in operands), res_tol)


def _membership(factors: dict[str, DualDrazinData], tol, res_tol):
    """A membership test that keeps each factorisation in factors under its key."""

    def test(key: str, x: DualMatrix, name: str | None = None) -> Condition:
        dd = factors[key] = _factorise(x, tol, res_tol)
        return Condition(name or f"membership_{key}", dd._certificate, dd.exists)

    return test


def _abco_conditions(a: DualMatrix, w: DualMatrix, a_inverse: DualMatrix, side: str,
                     res_tol) -> list[Condition]:
    """commutation and annihilation of [[A, B], [C, 0]] with W = BC, from A's ungated inverse.

    The report of every anti-triangular form: ABIO (W = B), ABCO, and the
    windmill, which is [[D, B], [C, 0]] once its hub is moved last.
    """
    ae = dmul(a, a_inverse)
    aapi = dmul(a, DualMatrix.identity(a.shape[0]) - ae)
    aae = dmul(a, ae)
    annihil = dmul(aae, w) if side == "right" else dmul(w, aae)
    return [
        _residual_condition("commutation", dmul(aapi, w) - dmul(w, aapi), (a, w), res_tol),
        _residual_condition("annihilation", annihil, (a, w), res_tol),
    ]


def _require(report: HypothesisReport) -> None:
    """The gate of every closed form: raise for a failed report, naming each failed condition.

    A failed *_index condition raises IndexTooLarge, any other failed
    condition that is not a membership HypothesisViolated, and failed
    *membership* conditions alone NotDualDrazinInvertible.
    """
    failed = [c for c in report.conditions if not c.passed]
    if not failed:
        return
    detail = f"{report.theorem}: " + ", ".join(f"{c.name}={c.residual:.3e}" for c in failed)
    if any(c.name.endswith("_index") for c in failed):
        raise IndexTooLarge(detail)
    if any("membership" not in c.name for c in failed):
        raise HypothesisViolated(detail)
    raise NotDualDrazinInvertible(detail)


def check_hypotheses(
    inst: BlockInstance,
    tol: float | None = None,
    res_tol: float | None = None,
) -> HypothesisReport:
    """Evaluate every named hypothesis of the instance's theorem.

    Total: matrices outside the invertible class yield failed membership
    conditions instead of an exception.  Each matrix tested for membership
    is factorised once, and the report keeps that factorisation for the
    formula body.
    """
    t, b = inst.theorem, inst.blocks
    conds: list[Condition] = []
    factors: dict[str, DualDrazinData] = {}
    membership = _membership(factors, tol, res_tol)
    if t == "CLINE":
        conds.append(membership("BA", dmul(b["B"], b["A"])))
    elif t in ("TRI_UPPER", "TRI_LOWER"):
        conds.append(membership("A", b["A"]))
        conds.append(membership("D", b["D"]))
    elif t == "SUM_PQ0":
        p, q = b["P"], b["Q"]
        conds.append(_residual_condition("product_zero", dmul(p, q), (p, q), res_tol))
        conds.append(membership("P", p))
        conds.append(membership("Q", q))
    elif t in ("ABIO_RIGHT", "ABIO_LEFT", "ABCO_RIGHT", "ABCO_LEFT"):
        a = b["A"]
        # ABIO couples A with W = B itself, ABCO with the product W = BC
        key, w = ("B", b["B"]) if t.startswith("ABIO") else ("BC", dmul(b["B"], b["C"]))
        membership_a = membership("A", a)
        side = "right" if t.endswith("RIGHT") else "left"
        conds += _abco_conditions(a, w, factors["A"].inverse, side, res_tol)
        conds.append(membership_a)
        conds.append(membership(key, w))
    else:  # BIPARTITE
        conds.append(membership("BC", dmul(b["B"], b["C"])))
    return HypothesisReport(theorem=t, conditions=tuple(conds), factorisations=factors)


# Formula bodies: (instance, its passed report) -> the dual Drazin inverse.
# A body only evaluates: closed_form gates the report first (_require), and
# every inverse comes from the report's factorisations.


def _cline(inst: BlockInstance, report: HypothesisReport) -> DualMatrix:
    inv = report.factorisations["BA"].inverse
    return dmul(dmul(inst["A"], dpow(inv, 2)), inst["B"])


def _tri(inst: BlockInstance, report: HypothesisReport) -> DualMatrix:
    a, b, d = inst["A"], inst["B"], inst["D"]
    da, dd = report.factorisations["A"], report.factorisations["D"]
    xa, xd = da.inverse, dd.inverse
    m, n = a.shape[0], d.shape[0]
    d_pi = DualMatrix.identity(n) - dmul(d, xd)
    a_pi = DualMatrix.identity(m) - dmul(a, xa)
    s = dmul(_power_series(dmul(dmul(xa, xa), b), xa, d, dd.index), d_pi)
    s = s + dmul(a_pi, _power_series(dmul(b, dmul(xd, xd)), a, xd, da.index))
    s = s - dmul(dmul(xa, b), xd)
    if inst.theorem == "TRI_UPPER":
        return dblock([[xa, s], [DualMatrix.zeros(n, m), xd]])
    return dblock([[xd, DualMatrix.zeros(n, m)], [s, xa]])


def _sum_pq0(inst: BlockInstance, report: HypothesisReport) -> DualMatrix:
    p, q = inst["P"], inst["Q"]
    dp, dq = report.factorisations["P"], report.factorisations["Q"]
    xp, xq = dp.inverse, dq.inverse
    eye = DualMatrix.identity(p.shape[0])
    q_pi = eye - dmul(q, xq)
    p_pi = eye - dmul(p, xp)
    return (dmul(q_pi, _power_series(xp, q, xp, dq.index))
            + dmul(_power_series(xq, xq, p, dp.index), p_pi))


def _abio(inst: BlockInstance, report: HypothesisReport) -> DualMatrix:
    a, b = inst["A"], inst["B"]
    db = report.factorisations["B"]
    xa, xb = report.factorisations["A"].inverse, db.inverse
    eye = DualMatrix.identity(a.shape[0])
    b_e = dmul(b, xb)
    b_pi = eye - b_e
    a_pi = eye - dmul(a, xa)
    aapi = dmul(a, a_pi)
    xa2 = dmul(xa, xa)
    if inst.theorem == "ABIO_RIGHT":
        tl = dmul(b_pi, _power_series(xa, b, xa2, db.index))
        bl = dmul(tl, xa) + dmul(xb, a_pi)
        return dblock([[tl, b_e], [bl, -dmul(aapi, xb)]])
    s = _power_series(dmul(xa, b_pi), xa2, b, db.index)
    xas = dmul(xa, s)
    xasb = dmul(xas, b)
    tr = xasb + dmul(a_pi, b_e)
    bl = xas + dmul(a_pi, xb)
    br = dmul(xa, xasb) - dmul(aapi, xb) - dmul(xa, b_e)
    return dblock([[s, tr], [bl, br]])


def _abco(inst: BlockInstance, report: HypothesisReport) -> DualMatrix:
    f = report.factorisations
    return _abco_sided(inst.theorem, inst["A"], inst["B"], inst["C"], f["A"], f["BC"])


def _abco_sided(theorem: str, a: DualMatrix, b: DualMatrix, c: DualMatrix,
                da: DualDrazinData, dw: DualDrazinData) -> DualMatrix:
    """[[A,B],[C,0]] from the factorisations of A and W = BC; the left form is the transposed right one."""
    xa, w, xw = da.inverse, dw.source, dw.inverse
    if theorem == "ABCO_RIGHT":
        return _abco_formula(a, b, c, xa, w, xw, dw.index)
    return _abco_formula(a.T, c.T, b.T, xa.T, w.T, xw.T, dw.index).T


def _abco_formula(a: DualMatrix | None, b: DualMatrix, c: DualMatrix, xa: DualMatrix | None,
                  w: DualMatrix | None, xw: DualMatrix | None, k: int) -> DualMatrix:
    """The right [[A,B],[C,0]] series from A^D, W = BC, W^D and k = Ind(W).

        s   = W^pi sum_{i<k} W^i A^D (A^2D)^i
        mid = s A^D + W^D A^pi
        br  = s A^2D - (W^D)^2 A A^pi - W^D A^D
        X^D = [[s, mid B], [C mid, C br B]]

    A structural zero comes as None: A = A^D = None (BIPARTITE), or W = W^D
    = None with k = 1 (the BC = 0 digraph bodies).  The series is then
    evaluated with no product by that zero, or by the identity it leaves as
    A^pi or W^pi.
    """
    n, m = b.shape
    if a is None:  # A^pi = I: s = 0, mid = W^D, br = 0
        s, mid, br = None, xw, None
    elif w is None:  # W^pi = I, k = 1: s = A^D, mid = A^2D, br = A^3D
        mid = dmul(xa, xa)
        s, br = xa, dmul(xa, mid)
    else:
        eye = DualMatrix.identity(n)
        a_pi = eye - dmul(a, xa)
        xa2 = dmul(xa, xa)
        s = dmul(eye - dmul(w, xw), _power_series(xa, w, xa2, k))
        mid = dmul(s, xa) + dmul(xw, a_pi)
        br = dmul(s, xa2) - dmul(dmul(xw, xw), dmul(a, a_pi)) - dmul(xw, xa)
    return dblock([[DualMatrix.zeros(n) if s is None else s, dmul(mid, b)],
                   [dmul(c, mid), DualMatrix.zeros(m) if br is None else dmul(dmul(c, br), b)]])


def _bipartite(inst: BlockInstance, report: HypothesisReport) -> DualMatrix:
    dw = report.factorisations["BC"]
    return _abco_formula(None, inst["B"], inst["C"], None, dw.source, dw.inverse, dw.index)


_FORMULAS = {
    "CLINE": _cline,
    "TRI_UPPER": _tri,
    "TRI_LOWER": _tri,
    "SUM_PQ0": _sum_pq0,
    "ABIO_RIGHT": _abio,
    "ABIO_LEFT": _abio,
    "ABCO_RIGHT": _abco,
    "ABCO_LEFT": _abco,
    "BIPARTITE": _bipartite,
}


def cline(a: DualMatrix, b: DualMatrix, tol=None, res_tol=None) -> DualMatrix:
    """(AB)^D as A (BA)^2D B, valid whenever BA has a dual Drazin inverse."""
    return closed_form(BlockInstance("CLINE", {"A": a, "B": b}), tol, res_tol)


def tri_drazin(a: DualMatrix, b: DualMatrix, d: DualMatrix,
               orientation: str = "upper", tol=None, res_tol=None) -> DualMatrix:
    """Dual Drazin inverse of [[A,B],[0,D]] (upper) or [[D,0],[B,A]] (lower)."""
    if orientation not in ("upper", "lower"):
        raise ValueError(f"orientation must be 'upper' or 'lower', got {orientation!r}")
    theorem = "TRI_UPPER" if orientation == "upper" else "TRI_LOWER"
    return closed_form(BlockInstance(theorem, {"A": a, "B": b, "D": d}), tol, res_tol)


def sum_pq_zero(p: DualMatrix, q: DualMatrix, tol=None, res_tol=None) -> DualMatrix:
    """(P+Q)^D under PQ = 0."""
    return closed_form(BlockInstance("SUM_PQ0", {"P": p, "Q": q}), tol, res_tol)


def _sided(family: str, side: str) -> str:
    """The theorem of family on side, which must be 'right' or 'left'."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    return f"{family}_{side.upper()}"


def abio_drazin(a: DualMatrix, b: DualMatrix, side: str = "right",
                tol=None, res_tol=None) -> DualMatrix:
    """Dual Drazin inverse of [[A,B],[I,0]] under the one-sided conditions.

    side selects which product must vanish: 'right' demands A A^e B = 0,
    'left' demands B A A^e = 0; both demand A A^pi to commute with B.
    """
    return closed_form(BlockInstance(_sided("ABIO", side), {"A": a, "B": b}), tol, res_tol)


def abco_drazin(a: DualMatrix, b: DualMatrix, c: DualMatrix, side: str = "right",
                tol=None, res_tol=None) -> DualMatrix:
    """Dual Drazin inverse of [[A,B],[C,0]] under the one-sided conditions.

    side selects which product with W = BC must vanish: 'right' demands
    A A^e W = 0, 'left' demands W A A^e = 0; both demand A A^pi to commute
    with W.
    """
    return closed_form(BlockInstance(_sided("ABCO", side), {"A": a, "B": b, "C": c}), tol, res_tol)


def abco_series(a: DualMatrix, b: DualMatrix, c: DualMatrix, side: str = "right",
                tol=None, res_tol=None) -> DualMatrix:
    """The [[A,B],[C,0]] formula without its hypothesis gate.

    A and W = BC are factorised here, through dual_drazin, so either one
    outside the class raises NotDualDrazinInvertible; the commutation and
    annihilation conditions are left to the caller.
    """
    theorem = _sided("ABCO", side)
    w = dmul(b, c)
    return _abco_sided(theorem, a, b, c, dual_drazin(a, tol, res_tol), dual_drazin(w, tol, res_tol))


def bipartite_drazin(b: DualMatrix, c: DualMatrix, tol=None, res_tol=None) -> DualMatrix:
    """Dual Drazin inverse of [[0,B],[C,0]]: [[0,(BC)^D B],[C (BC)^D,0]]."""
    return closed_form(BlockInstance("BIPARTITE", {"B": b, "C": c}), tol, res_tol)


def closed_form(inst: BlockInstance, tol=None, res_tol=None) -> DualMatrix:
    """Check an instance's hypotheses, gate the report and evaluate its theorem's formula."""
    report = check_hypotheses(inst, tol, res_tol)
    _require(report)
    return _FORMULAS[inst.theorem](inst, report)
