"""Dual-weighted digraph families and their adjacency-level inverse formulas.

Three families are supported: double stars (two adjacent hubs with leaf
fans), linked stars (a core digraph whose vertices each carry a leaf fan),
and windmills (even cycles joined at a common hub).  Each family has a
canonical vertex ordering, so its adjacency matrix is reproducible
bit-for-bit, and a closed-form dual Drazin inverse built from the blocks
of that layout.  The layout is written once per family (_layout), for the
standard and the infinitesimal parts alike; graph_hypotheses builds the
matrix once, its report keeps it, and the formula blocks are slices of it
(_parts).

Weights are dual complex numbers.  Arc weights may be pure infinitesimals;
a weight that is zero in both parts means the arc is missing, which the
builders reject.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .blocks import Condition, HypothesisReport, _abco_formula, _condition, _membership
from .blocks import _require_conditions, bipartite_drazin
from .drazin import _gated
from .dualmat import DualMatrix, _norm, dblock, dmul
from .dualnum import DualScalar, scalar_dual_drazin
from .errors import IndexTooLarge, NonFiniteEntries, NotDualDrazinInvertible, SchemaError, SpecInvalid
from .families import _WINDMILL_FORMS
from .serialize import (
    _listed,
    _matrix_doc,
    _vector_doc,
    matrix_from_doc,
    scalar_from_doc,
    scalar_to_doc,
    vector_from_doc,
)

__all__ = [
    "DoubleStar",
    "DLinkedStars",
    "DutchWindmill",
    "AdjacencyBuild",
    "build_adjacency",
    "windmill_pattern",
    "graph_hypotheses",
    "ds_dual_drazin",
    "dls_dual_drazin",
    "dw_dual_drazin",
    "dw_bc_zero",
    "dw_group",
    "bipartite_dual",
    "graph_spec_from_doc",
    "graph_spec_to_doc",
]


@dataclass(frozen=True)
class DoubleStar:
    """Two bidirectionally joined hubs with m and n weighted leaf pairs.

    x and y weigh the arcs hub1->leaf and leaf->hub1, w and v the same
    around hub2, and a and b the two arcs between the hubs.
    """

    m: int
    n: int
    x: DualMatrix
    y: DualMatrix
    w: DualMatrix
    v: DualMatrix
    a: DualScalar
    b: DualScalar


@dataclass(frozen=True)
class DLinkedStars:
    """A core digraph whose i-th vertex carries r[i] weighted leaf pairs."""

    base: DualMatrix
    r: tuple[int, ...]
    x: tuple[DualMatrix, ...]
    y: tuple[DualMatrix, ...]


@dataclass(frozen=True)
class DutchWindmill:
    """m cycles of length 2n sharing one hub.

    Blade s owns 2n-1 non-hub vertices; blades[s] is the weighted adjacency
    among them, x[s] the hub->blade weights and y[s] the blade->hub weights.
    Blade matrices are arbitrary dual matrices; the unweighted cycle pattern
    is available through windmill_pattern.
    """

    m: int
    n: int
    blades: tuple[DualMatrix, ...]
    x: tuple[DualMatrix, ...]
    y: tuple[DualMatrix, ...]


GraphSpec = DoubleStar | DLinkedStars | DutchWindmill


@dataclass(frozen=True, eq=False)
class AdjacencyBuild:
    matrix: DualMatrix
    vertex_order: tuple[str, ...]
    permutation_to_bipartite: tuple[int, ...] | None = None
    metadata: dict = field(default_factory=dict)


def _check_vector(vec, length: int, name: str, entries_nonzero: bool) -> None:
    if not isinstance(vec, DualMatrix) or vec.shape != (length, 1):
        raise SpecInvalid(f"{name} must be a {length}-entry dual column vector")
    std_zero = vec.std == 0
    if entries_nonzero:
        if np.any(std_zero & (vec.inf == 0)):
            raise SpecInvalid(f"{name} has a zero weight; every arc needs a nonzero dual weight")
    elif np.all(std_zero) and np.all(vec.inf == 0):
        raise SpecInvalid(f"{name} must not be the zero vector")


def _validate(spec: GraphSpec) -> None:
    if isinstance(spec, DoubleStar):
        if spec.m < 1 or spec.n < 1:
            raise SpecInvalid("double star needs at least one leaf on each hub")
        _check_vector(spec.x, spec.m, "x", entries_nonzero=True)
        _check_vector(spec.y, spec.m, "y", entries_nonzero=True)
        _check_vector(spec.w, spec.n, "w", entries_nonzero=True)
        _check_vector(spec.v, spec.n, "v", entries_nonzero=True)
        for name, s in (("a", spec.a), ("b", spec.b)):
            if not isinstance(s, DualScalar) or not s.is_appreciable(scale=1.0 + abs(s)):
                raise SpecInvalid(f"hub-to-hub weight {name} must be appreciable")
        # the layout takes every weight unchecked; only these scalars can hold
        # a NaN, in the infinitesimal part, which the appreciability test lets by
        if not (cmath.isfinite(spec.a.inf) and cmath.isfinite(spec.b.inf)):
            raise NonFiniteEntries("dual matrix entries must be finite")
    elif isinstance(spec, DLinkedStars):
        if not isinstance(spec.base, DualMatrix) or spec.base.shape[0] != spec.base.shape[1]:
            raise SpecInvalid("core adjacency must be a square dual matrix")
        n = spec.base.shape[0]
        if len(spec.r) != n or len(spec.x) != n or len(spec.y) != n:
            raise SpecInvalid(f"need leaf counts and weight vectors for all {n} core vertices")
        for i, (ri, xi, yi) in enumerate(zip(spec.r, spec.x, spec.y)):
            if ri < 1:
                raise SpecInvalid(f"core vertex {i + 1} needs a positive leaf count")
            _check_vector(xi, ri, f"x[{i + 1}]", entries_nonzero=True)
            _check_vector(yi, ri, f"y[{i + 1}]", entries_nonzero=True)
    elif isinstance(spec, DutchWindmill):
        if spec.m < 1 or spec.n < 1:
            raise SpecInvalid("windmill needs at least one blade and cycle length at least 2")
        size = 2 * spec.n - 1
        if len(spec.blades) != spec.m or len(spec.x) != spec.m or len(spec.y) != spec.m:
            raise SpecInvalid(f"need {spec.m} blade matrices and weight vectors")
        for s, (d, xs, ys) in enumerate(zip(spec.blades, spec.x, spec.y)):
            if not isinstance(d, DualMatrix) or d.shape != (size, size):
                raise SpecInvalid(f"blade {s + 1} must be a {size}x{size} dual matrix")
            _check_vector(xs, size, f"x[{s + 1}]", entries_nonzero=False)
            _check_vector(ys, size, f"y[{s + 1}]", entries_nonzero=False)
    else:
        raise SpecInvalid(f"unknown graph spec {type(spec).__name__}")


def _layout(spec: GraphSpec, part: str) -> np.ndarray:
    """One part ("std" or "inf") of every weight, placed in the adjacency matrix.

    Double star: [[A, B], [C, 0]] with A the hub1 star plus hub2, B hub2's
    leaf row and C hub2's leaf column.  Linked stars: the same with A the
    core.  Windmill: [[0, B], [C, D]] with the hub first, B its fan row, C
    its fan column and D the block-diagonal blade matrix.
    """
    if isinstance(spec, DoubleStar):
        m = spec.m
        out = np.zeros((m + spec.n + 2,) * 2, dtype=complex)
        out[0, 1 : m + 1] = getattr(spec.x, part)[:, 0]
        out[1 : m + 1, 0] = getattr(spec.y, part)[:, 0]
        out[0, m + 1] = getattr(spec.a, part)
        out[m + 1, 0] = getattr(spec.b, part)
        out[m + 1, m + 2 :] = getattr(spec.w, part)[:, 0]
        out[m + 2 :, m + 1] = getattr(spec.v, part)[:, 0]
        return out
    if isinstance(spec, DLinkedStars):
        n = spec.base.shape[0]
        offset = n
        out = np.zeros((n + sum(spec.r),) * 2, dtype=complex)
        out[:n, :n] = getattr(spec.base, part)
        for i, ri in enumerate(spec.r):
            out[i, offset : offset + ri] = getattr(spec.x[i], part)[:, 0]
            out[offset : offset + ri, i] = getattr(spec.y[i], part)[:, 0]
            offset += ri
        return out
    size = 2 * spec.n - 1
    out = np.zeros((1 + spec.m * size,) * 2, dtype=complex)
    for s in range(spec.m):
        blade = slice(1 + s * size, 1 + (s + 1) * size)
        out[0, blade] = getattr(spec.x[s], part)[:, 0]
        out[blade, 0] = getattr(spec.y[s], part)[:, 0]
        out[blade, blade] = getattr(spec.blades[s], part)
    return out


def _adjacency(spec: GraphSpec) -> DualMatrix:
    """The adjacency matrix of a validated spec."""
    return DualMatrix._of(_layout(spec, "std"), _layout(spec, "inf"))


def _parts(spec: GraphSpec, matrix: DualMatrix) -> tuple[DualMatrix, DualMatrix, DualMatrix]:
    """(A, B, C) of [[A, B], [C, 0]], sliced from the spec's adjacency matrix.

    The windmill's hub-first [[0, B], [C, D]] gives (D, C, B): its blocks
    in the [[A, B], [C, 0]] order once the hub is moved last.
    """
    if isinstance(spec, DutchWindmill):
        hub, rest = slice(0, 1), slice(1, None)
        return matrix.block(rest, rest), matrix.block(rest, hub), matrix.block(hub, rest)
    k = spec.m + 2 if isinstance(spec, DoubleStar) else spec.base.shape[0]
    core, leaves = slice(0, k), slice(k, None)
    return matrix.block(core, core), matrix.block(core, leaves), matrix.block(leaves, core)


def build_adjacency(spec: GraphSpec) -> AdjacencyBuild:
    """Canonical adjacency matrix, vertex labels and family metadata."""
    _validate(spec)
    matrix = _adjacency(spec)
    if isinstance(spec, DoubleStar):
        labels = (
            ["hub1"]
            + [f"hub1_leaf{j + 1}" for j in range(spec.m)]
            + ["hub2"]
            + [f"hub2_leaf{j + 1}" for j in range(spec.n)]
        )
        return AdjacencyBuild(matrix, tuple(labels))
    if isinstance(spec, DLinkedStars):
        labels = [f"core{i + 1}" for i in range(len(spec.r))]
        for i, ri in enumerate(spec.r):
            labels += [f"core{i + 1}_leaf{j + 1}" for j in range(ri)]
        return AdjacencyBuild(matrix, tuple(labels))
    size = 2 * spec.n - 1
    labels = ["hub"]
    for s in range(spec.m):
        labels += [f"blade{s + 1}_v{j + 1}" for j in range(size)]
    # walking the cycle hub -> v1 -> ... -> v(2n-1) -> hub alternates the two
    # colour classes, so even positions join the hub's class
    part_hub = [0] + [1 + s * size + j for s in range(spec.m) for j in range(1, size, 2)]
    part_other = [1 + s * size + j for s in range(spec.m) for j in range(0, size, 2)]
    perm = tuple(part_hub + part_other)
    kappa = 2 * spec.m * spec.n - spec.m + 1
    return AdjacencyBuild(matrix, tuple(labels), perm, {"kappa": kappa})


def windmill_pattern(m: int, n: int) -> DutchWindmill:
    """Unit-weight windmill: each blade a bidirected path tied to the hub."""
    if m < 1 or n < 1:
        raise SpecInvalid("windmill needs at least one blade and cycle length at least 2")
    size = 2 * n - 1
    path = np.zeros((size, size), dtype=complex)
    for i in range(size - 1):
        path[i, i + 1] = 1.0
        path[i + 1, i] = 1.0
    ends = np.zeros((size, 1), dtype=complex)
    ends[0, 0] = 1.0
    ends[size - 1, 0] = 1.0
    blade = DualMatrix(path)
    hub_weights = DualMatrix(ends)
    return DutchWindmill(
        m=m,
        n=n,
        blades=(blade,) * m,
        x=(hub_weights,) * m,
        y=(hub_weights,) * m,
    )


def _dual_dot(u: DualMatrix, v: DualMatrix) -> DualScalar:
    prod = dmul(u.T, v)
    return DualScalar(prod.std[0, 0], prod.inf[0, 0])


def _scalar_scale(s: DualScalar, x: DualMatrix) -> DualMatrix:
    return DualMatrix._of(s.std * x.std, s.std * x.inf + s.inf * x.std)


def _corner_formula(ad: DualMatrix, b_blk: DualMatrix, c_blk: DualMatrix) -> DualMatrix:
    """[[A^D, A^2D B],[C A^2D, C A^3D B]], the leaf-bordered inverse layout."""
    ad2 = dmul(ad, ad)
    ad3 = dmul(ad2, ad)
    return dblock([
        [ad, dmul(ad2, b_blk)],
        [dmul(c_blk, ad2), dmul(c_blk, dmul(ad3, b_blk))],
    ])


def _hub_first(inner: DualMatrix) -> DualMatrix:
    """Move the last row and column of a windmill inverse, the hub's, to the front."""
    order = np.roll(np.arange(inner.shape[0]), 1)
    return DualMatrix._of(inner.std[np.ix_(order, order)], inner.inf[np.ix_(order, order)])


def _ortho_condition(name: str, u: DualMatrix, v: DualMatrix, res_tol) -> Condition:
    return _condition(name, float(abs(_dual_dot(u, v))), 1.0 + u.norm() * v.norm(), res_tol)


def _theta(spec: DoubleStar) -> DualScalar:
    """theta = x^T y + ab, the dual number the double star core inverts through."""
    return _dual_dot(spec.x, spec.y) + spec.a * spec.b


def _theta_condition(theta: DualScalar) -> Condition:
    """theta has a dual Drazin inverse; a failure's residual is its infinitesimal part."""
    try:
        scalar_dual_drazin(theta)
    except NotDualDrazinInvertible:
        return Condition("theta_membership", abs(theta.inf), False)
    return Condition("theta_membership", 0.0, True)


def _blade_pairs(spec: DutchWindmill) -> list[tuple[int, int, slice, slice]]:
    """(s, t, rows of blade s, columns of blade t) in D for every blade pair, in report order."""
    size = 2 * spec.n - 1
    blades = [slice(s * size, (s + 1) * size) for s in range(spec.m)]
    return [(s, t, rows, cols) for s, rows in enumerate(blades) for t, cols in enumerate(blades)]


def _dw_conditions(spec: DutchWindmill, d_blk: DualMatrix, w: DualMatrix, inverse: DualMatrix,
                   res_tol) -> list[Condition]:
    """Per-blade-pair annihilation and commutation residuals, read from whole-matrix products.

    The (s, t) block of the hub product W = C B is the fan outer product
    y_s x_t^T.  inverse is the (ungated) inverse of the blade matrix D; its
    diagonal blocks, the blade inverses D_s^D, give E = blockdiag(D_s D_s^D).
    Then [D E W]_st = D_s E_s y_s x_t^T and [D W - W (D - D E)]_st =
    D_s y_s x_t^T - y_s x_t^T D_t Pi_t, so five dual products serve every
    pair, however many blades there are.
    """
    size = 2 * spec.n - 1
    mask = np.kron(np.eye(spec.m), np.ones((size, size)))
    e = dmul(d_blk, DualMatrix._of(inverse.std * mask, inverse.inf * mask))
    de = dmul(d_blk, e)
    annihil = dmul(de, w)
    commute = dmul(d_blk, w) - dmul(w, d_blk - de)
    blade_norms = [d.norm() for d in spec.blades]
    conds = []
    for s, t, rows, cols in _blade_pairs(spec):
        scale = 1.0 + (blade_norms[s] + blade_norms[t]) * (1.0 + _block_norm(w, rows, cols))
        for name, defect in (("annihilation", annihil), ("commutation", commute)):
            residual = _block_norm(defect, rows, cols)
            conds.append(_condition(f"{name}_{s + 1}_{t + 1}", residual, scale, res_tol))
    return conds


def _block_norm(x: DualMatrix, rows: slice, cols: slice) -> float:
    """x.block(rows, cols).norm(), read from views instead of a checked copy."""
    return _norm(x.std[rows, cols], x.inf[rows, cols])


def _bc0_conditions(spec: DutchWindmill, w: DualMatrix, res_tol) -> list[Condition]:
    """outer_zero_s_t: the (s, t) block y_s x_t^T of the hub product W vanishes."""
    return [
        _condition(f"outer_zero_{s + 1}_{t + 1}", _block_norm(w, rows, cols),
                   1.0 + spec.y[s].norm() * spec.x[t].norm(), res_tol)
        for s, t, rows, cols in _blade_pairs(spec)
    ]


def graph_hypotheses(spec: GraphSpec, form: str = "drazin", tol=None, res_tol=None) -> HypothesisReport:
    """Residual report for the conditions the family formulas rely on.

    form selects the windmill variant: "drazin" and "group" check the
    blade-pair annihilation and commutation conditions ("bc_zero" instead
    checks that every outer product of fan weights vanishes), then whether
    the block-diagonal blade matrix D has a dual Drazin inverse
    (membership_D), then, except for "bc_zero", whether the hub product
    W = sum y_s x_t^T has one (hub_membership); "group" adds the two
    index-at-most-one requirements.  Double star and linked stars ignore
    form and report fan orthogonality; the double star also reports whether
    theta = x^T y + ab has a dual Drazin inverse, and linked stars whether
    the core does (membership_base).  The report keeps the adjacency matrix
    and the factorisation of every matrix the family formula inverts.
    """
    _validate(spec)
    if isinstance(spec, DoubleStar):
        conds = (
            _ortho_condition("fan_orthogonality", spec.w, spec.v, res_tol),
            _theta_condition(_theta(spec)),
        )
        return HypothesisReport("DOUBLE_STAR", conds, _matrix=_adjacency(spec))
    factors: dict = {}
    membership = _membership(factors, tol, res_tol)
    if isinstance(spec, DLinkedStars):
        conds = [
            _ortho_condition(f"fan_orthogonality_{i + 1}", xi, yi, res_tol)
            for i, (xi, yi) in enumerate(zip(spec.x, spec.y))
        ]
        conds.append(membership("base", spec.base))
        return HypothesisReport("LINKED_STARS", tuple(conds), factors, _adjacency(spec))
    if form not in _WINDMILL_FORMS:
        raise SpecInvalid(f"unknown windmill form {form!r}")
    matrix = _adjacency(spec)
    d_blk, c_col, b_row = _parts(spec, matrix)
    w = dmul(c_col, b_row)
    membership_d = membership("D", d_blk)
    if form == "bc_zero":
        conds = [*_bc0_conditions(spec, w, res_tol), membership_d]
    else:
        conds = _dw_conditions(spec, d_blk, w, factors["D"].inverse, res_tol)
        conds.append(membership_d)
        conds.append(membership("W", w, "hub_membership"))
    if form == "group":
        for name, dd in (("blade_group_index", factors["D"]), ("hub_group_index", factors["W"])):
            conds.append(Condition(name, float(max(0, dd.index - 1)), dd.index <= 1))
    return HypothesisReport(_WINDMILL_FORMS[form], tuple(conds), factors, matrix)


# Formula bodies: (spec, its report) -> inverse of the adjacency matrix.  A
# body first raises as its public closed form does for a failed report, then
# takes every matrix inverse from the report's factorisations through _gated,
# so a failed membership condition raises NotDualDrazinInvertible, and its
# blocks from the report's adjacency matrix.


def _ds_formula(spec: DoubleStar, report: HypothesisReport) -> DualMatrix:
    _require_conditions(report.conditions[:1], "hub2 fan is not dual-orthogonal")
    core, b_blk, c_blk = _parts(spec, report._matrix)
    ad = _scalar_scale(scalar_dual_drazin(_theta(spec)), core)
    return _corner_formula(ad, b_blk, c_blk)


def _dls_formula(spec: DLinkedStars, report: HypothesisReport) -> DualMatrix:
    *fans, _ = report.conditions
    _require_conditions(fans, "leaf fans are not dual-orthogonal")
    _, b_blk, c_blk = _parts(spec, report._matrix)
    return _corner_formula(_gated(report.factorisations["base"]), b_blk, c_blk)


def _dw_series(spec: DutchWindmill, report: HypothesisReport) -> DualMatrix:
    """The bordered-corner series of [[D, C],[B, 0]], hub moved first."""
    d_blk, c_col, b_row = _parts(spec, report._matrix)
    f = report.factorisations
    return _hub_first(_abco_formula(d_blk, c_col, b_row, "right", f["D"], f["W"]))


def _dw_formula(spec: DutchWindmill, report: HypothesisReport) -> DualMatrix:
    *pairs, _, hub = report.conditions
    _require_conditions(pairs, "blade-pair conditions fail")
    _require_conditions([hub], "hub product is not invertible")
    return _dw_series(spec, report)


def _group_formula(spec: DutchWindmill, report: HypothesisReport) -> DualMatrix:
    *pairs, _, _, blade_index, hub_index = report.conditions
    if not blade_index.passed:
        raise IndexTooLarge("blade matrix is not group invertible")
    if not hub_index.passed:
        raise IndexTooLarge("hub product is not group invertible")
    _require_conditions(pairs, "blade-pair conditions fail")
    return _dw_series(spec, report)


def _bc0_formula(spec: DutchWindmill, report: HypothesisReport) -> DualMatrix:
    *outer, _ = report.conditions
    _require_conditions(outer, "fan outer products are not dual-zero")
    _, c_col, b_row = _parts(spec, report._matrix)
    return _hub_first(_corner_formula(_gated(report.factorisations["D"]), c_col, b_row))


_FORMULAS = {
    "DOUBLE_STAR": _ds_formula,
    "LINKED_STARS": _dls_formula,
    "WINDMILL": _dw_formula,
    "WINDMILL_BC0": _bc0_formula,
    "WINDMILL_GROUP": _group_formula,
}


def ds_dual_drazin(spec: DoubleStar, tol=None, res_tol=None) -> DualMatrix:
    """Closed-form dual Drazin inverse of a double star adjacency matrix.

    Requires the hub2 fan to be dual-orthogonal (w^T v vanishes in both
    parts).  The core inverts through the single dual number
    theta = x^T y + a*b; a pure-infinitesimal theta admits no inverse.
    """
    return _ds_formula(spec, graph_hypotheses(spec, "drazin", tol, res_tol))


def dls_dual_drazin(spec: DLinkedStars, tol=None, res_tol=None) -> DualMatrix:
    """Closed-form dual Drazin inverse of a linked stars adjacency matrix.

    Requires every leaf fan to be dual-orthogonal to its return weights,
    which zeroes the fan-to-fan product and leaves the core's dual Drazin
    inverse as the only nontrivial ingredient.
    """
    return _dls_formula(spec, graph_hypotheses(spec, "drazin", tol, res_tol))


def dw_dual_drazin(spec: DutchWindmill, tol=None, res_tol=None) -> DualMatrix:
    """Closed-form dual Drazin inverse of a windmill adjacency matrix.

    Valid when, for every blade pair (s,t), the outer product y_s x_t^T is
    annihilated by the core-range part of blade s and intertwines the
    blade matrices on their nilpotent parts, and when the blade matrix D
    and the hub product W = sum y_s x_t^T have dual Drazin inverses.
    """
    return _dw_formula(spec, graph_hypotheses(spec, "drazin", tol, res_tol))


def dw_bc_zero(spec: DutchWindmill, tol=None, res_tol=None) -> DualMatrix:
    """Windmill inverse in the fully dual-orthogonal case.

    When every outer product y_s x_t^T vanishes in both parts the series
    collapses to [[B D^3D C, B D^2D],[D^2D C, D^D]].
    """
    return _bc0_formula(spec, graph_hypotheses(spec, "bc_zero", tol, res_tol))


def dw_group(spec: DutchWindmill, tol=None, res_tol=None) -> DualMatrix:
    """Dual group inverse of a windmill adjacency matrix.

    Same conditions as dw_dual_drazin, with the blade matrix and the hub
    product additionally required to have standard index at most one.
    """
    return _group_formula(spec, graph_hypotheses(spec, "group", tol, res_tol))


def bipartite_dual(e: DualMatrix, f: DualMatrix, tol=None, res_tol=None) -> DualMatrix:
    """Dual Drazin inverse of [[0,E],[F,0]]; the bipartite_drazin formula.

    E (FE)^D = (EF)^D E, so this equals [[0, E (FE)^D],[(FE)^D F, 0]].
    """
    n, p = e.shape
    if f.shape != (p, n):
        raise SpecInvalid(f"blocks {e.shape} and {f.shape} do not form a square matrix")
    return bipartite_drazin(e, f, tol, res_tol)


def _vectors_from_doc(doc: dict, key: str, count: int, label: str) -> tuple[DualMatrix, ...]:
    raw = doc.get(key)
    if not isinstance(raw, list) or len(raw) != count:
        raise SchemaError(f"'{key}' must be a list of {count} dual vectors")
    return tuple(vector_from_doc(item, label=f"{label}[{i + 1}]") for i, item in enumerate(raw))


def graph_spec_from_doc(doc: dict) -> GraphSpec:
    """Parse {"family": ..., ...} into a graph spec.

    Windmill blade matrices and hub weights default to the unit cycle
    pattern when omitted.
    """
    if not isinstance(doc, dict):
        raise SchemaError("graph spec must be a JSON object")
    family = doc.get("family")
    if family == "double_star":
        try:
            m, n = int(doc["m"]), int(doc["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError("double_star needs integer fields 'm' and 'n'") from exc
        return DoubleStar(
            m=m,
            n=n,
            x=vector_from_doc(doc.get("x"), label="x"),
            y=vector_from_doc(doc.get("y"), label="y"),
            w=vector_from_doc(doc.get("w"), label="w"),
            v=vector_from_doc(doc.get("v"), label="v"),
            a=scalar_from_doc(doc.get("a"), label="a"),
            b=scalar_from_doc(doc.get("b"), label="b"),
        )
    if family == "linked_stars":
        base = matrix_from_doc(doc.get("base"))
        raw_r = doc.get("r")
        if not isinstance(raw_r, list) or not raw_r:
            raise SchemaError("linked_stars needs a nonempty list 'r' of leaf counts")
        try:
            r = tuple(int(v) for v in raw_r)
        except (TypeError, ValueError) as exc:
            raise SchemaError("leaf counts must be integers") from exc
        return DLinkedStars(
            base=base,
            r=r,
            x=_vectors_from_doc(doc, "x", len(r), "x"),
            y=_vectors_from_doc(doc, "y", len(r), "y"),
        )
    if family == "dutch_windmill":
        try:
            m, n = int(doc["m"]), int(doc["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError("dutch_windmill needs integer fields 'm' and 'n'") from exc
        pattern = windmill_pattern(m, n)
        if "blades" in doc:
            raw = doc["blades"]
            if not isinstance(raw, list) or len(raw) != m:
                raise SchemaError(f"'blades' must be a list of {m} dual matrices")
            blades = tuple(matrix_from_doc(item) for item in raw)
        else:
            blades = pattern.blades
        x = _vectors_from_doc(doc, "x", m, "x") if "x" in doc else pattern.x
        y = _vectors_from_doc(doc, "y", m, "y") if "y" in doc else pattern.y
        return DutchWindmill(m=m, n=n, blades=blades, x=x, y=y)
    raise SchemaError(
        "family must be one of 'double_star', 'linked_stars', 'dutch_windmill'"
    )


def _graph_doc(spec: GraphSpec) -> dict:
    """The spec document with complex array parts (serialize._matrix_doc, _vector_doc).

    graph_spec_to_doc validates the spec and lists the arrays; the fuzz
    record digest renders this document directly.
    """
    if isinstance(spec, DoubleStar):
        return {
            "family": "double_star",
            "m": spec.m,
            "n": spec.n,
            "x": _vector_doc(spec.x),
            "y": _vector_doc(spec.y),
            "w": _vector_doc(spec.w),
            "v": _vector_doc(spec.v),
            "a": scalar_to_doc(spec.a),
            "b": scalar_to_doc(spec.b),
        }
    if isinstance(spec, DLinkedStars):
        return {
            "family": "linked_stars",
            "base": _matrix_doc(spec.base),
            "r": list(spec.r),
            "x": [_vector_doc(v) for v in spec.x],
            "y": [_vector_doc(v) for v in spec.y],
        }
    return {
        "family": "dutch_windmill",
        "m": spec.m,
        "n": spec.n,
        "blades": [_matrix_doc(d) for d in spec.blades],
        "x": [_vector_doc(v) for v in spec.x],
        "y": [_vector_doc(v) for v in spec.y],
    }


def graph_spec_to_doc(spec: GraphSpec) -> dict:
    _validate(spec)
    return _listed(_graph_doc(spec))
