"""Dual-weighted digraph families and their adjacency-level inverse formulas.

Three families are supported: double stars (two adjacent hubs with leaf
fans), linked stars (a core digraph whose vertices each carry a leaf fan),
and windmills (even cycles joined at a common hub).  Each family has a
canonical vertex ordering, so its adjacency matrix is reproducible
bit-for-bit, and a closed-form dual Drazin inverse built from the blocks
of that layout.

Weights are dual complex numbers.  Arc weights may be pure infinitesimals;
a weight that is zero in both parts means the arc is missing, which the
builders reject.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import Condition, HypothesisReport, abco_series, bipartite_drazin
from .drazin import _existence_test, dual_drazin, dual_drazin_series, matrix_index
from .dualmat import DualMatrix, dblock, dmul
from .dualnum import DualScalar, scalar_dual_drazin
from .errors import HypothesisViolated, IndexTooLarge, SchemaError, SpecInvalid
from .serialize import (
    matrix_from_doc,
    matrix_to_doc,
    scalar_from_doc,
    scalar_to_doc,
    vector_from_doc,
    vector_to_doc,
)
from .tolerances import residual_tol

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


def _ds_parts(spec: DoubleStar) -> tuple[DualMatrix, DualMatrix, DualMatrix]:
    """Core [[0,x^T,a],[y,0,0],[b,0,0]], hub2 leaf row block, leaf column block."""
    m, n = spec.m, spec.n
    core_std = np.zeros((m + 2, m + 2), dtype=complex)
    core_inf = np.zeros((m + 2, m + 2), dtype=complex)
    core_std[0, 1 : m + 1] = spec.x.std[:, 0]
    core_inf[0, 1 : m + 1] = spec.x.inf[:, 0]
    core_std[1 : m + 1, 0] = spec.y.std[:, 0]
    core_inf[1 : m + 1, 0] = spec.y.inf[:, 0]
    core_std[0, m + 1] = spec.a.std
    core_inf[0, m + 1] = spec.a.inf
    core_std[m + 1, 0] = spec.b.std
    core_inf[m + 1, 0] = spec.b.inf
    core = DualMatrix(core_std, core_inf)
    b_std = np.zeros((m + 2, n), dtype=complex)
    b_inf = np.zeros((m + 2, n), dtype=complex)
    b_std[m + 1, :] = spec.w.std[:, 0]
    b_inf[m + 1, :] = spec.w.inf[:, 0]
    c_std = np.zeros((n, m + 2), dtype=complex)
    c_inf = np.zeros((n, m + 2), dtype=complex)
    c_std[:, m + 1] = spec.v.std[:, 0]
    c_inf[:, m + 1] = spec.v.inf[:, 0]
    return core, DualMatrix(b_std, b_inf), DualMatrix(c_std, c_inf)


def _dls_parts(spec: DLinkedStars) -> tuple[DualMatrix, DualMatrix, DualMatrix]:
    n = spec.base.shape[0]
    total = sum(spec.r)
    b_std = np.zeros((n, total), dtype=complex)
    b_inf = np.zeros((n, total), dtype=complex)
    c_std = np.zeros((total, n), dtype=complex)
    c_inf = np.zeros((total, n), dtype=complex)
    offset = 0
    for i, ri in enumerate(spec.r):
        b_std[i, offset : offset + ri] = spec.x[i].std[:, 0]
        b_inf[i, offset : offset + ri] = spec.x[i].inf[:, 0]
        c_std[offset : offset + ri, i] = spec.y[i].std[:, 0]
        c_inf[offset : offset + ri, i] = spec.y[i].inf[:, 0]
        offset += ri
    return spec.base, DualMatrix(b_std, b_inf), DualMatrix(c_std, c_inf)


def _dw_parts(spec: DutchWindmill) -> tuple[DualMatrix, DualMatrix, DualMatrix]:
    """Hub row block, hub column block, block-diagonal blade matrix."""
    size = 2 * spec.n - 1
    total = spec.m * size
    b_std = np.zeros((1, total), dtype=complex)
    b_inf = np.zeros((1, total), dtype=complex)
    c_std = np.zeros((total, 1), dtype=complex)
    c_inf = np.zeros((total, 1), dtype=complex)
    d_std = np.zeros((total, total), dtype=complex)
    d_inf = np.zeros((total, total), dtype=complex)
    for s in range(spec.m):
        lo, hi = s * size, (s + 1) * size
        b_std[0, lo:hi] = spec.x[s].std[:, 0]
        b_inf[0, lo:hi] = spec.x[s].inf[:, 0]
        c_std[lo:hi, 0] = spec.y[s].std[:, 0]
        c_inf[lo:hi, 0] = spec.y[s].inf[:, 0]
        d_std[lo:hi, lo:hi] = spec.blades[s].std
        d_inf[lo:hi, lo:hi] = spec.blades[s].inf
    return DualMatrix(b_std, b_inf), DualMatrix(c_std, c_inf), DualMatrix(d_std, d_inf)


def build_adjacency(spec: GraphSpec) -> AdjacencyBuild:
    """Canonical adjacency matrix, vertex labels and family metadata."""
    _validate(spec)
    if isinstance(spec, DoubleStar):
        core, b_blk, c_blk = _ds_parts(spec)
        n = spec.n
        matrix = dblock([[core, b_blk], [c_blk, DualMatrix.zeros(n)]])
        labels = (
            ["hub1"]
            + [f"hub1_leaf{j + 1}" for j in range(spec.m)]
            + ["hub2"]
            + [f"hub2_leaf{j + 1}" for j in range(n)]
        )
        return AdjacencyBuild(matrix, tuple(labels))
    if isinstance(spec, DLinkedStars):
        base, b_blk, c_blk = _dls_parts(spec)
        total = sum(spec.r)
        matrix = dblock([[base, b_blk], [c_blk, DualMatrix.zeros(total)]])
        labels = [f"core{i + 1}" for i in range(len(spec.r))]
        for i, ri in enumerate(spec.r):
            labels += [f"core{i + 1}_leaf{j + 1}" for j in range(ri)]
        return AdjacencyBuild(matrix, tuple(labels))
    b_row, c_col, d_blk = _dw_parts(spec)
    matrix = dblock([[DualMatrix.zeros(1), b_row], [c_col, d_blk]])
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
    return DualMatrix(s.std * x.std, s.std * x.inf + s.inf * x.std)


def _corner_formula(ad: DualMatrix, b_blk: DualMatrix, c_blk: DualMatrix) -> DualMatrix:
    """[[A^D, A^2D B],[C A^2D, C A^3D B]], the leaf-bordered inverse layout."""
    ad2 = dmul(ad, ad)
    ad3 = dmul(ad2, ad)
    return dblock([
        [ad, dmul(ad2, b_blk)],
        [dmul(c_blk, ad2), dmul(c_blk, dmul(ad3, b_blk))],
    ])


def _ortho_condition(name: str, u: DualMatrix, v: DualMatrix, res_tol) -> Condition:
    ortho = abs(_dual_dot(u, v))
    scale = 1.0 + u.norm() * v.norm()
    return Condition(name, float(ortho), ortho <= residual_tol(res_tol) * scale)


def _dw_conditions(spec: DutchWindmill, tol, res_tol) -> list[Condition]:
    """Per-blade-pair commutation and annihilation residuals."""
    projectors = []
    for d in spec.blades:
        size = d.shape[0]
        inv = dual_drazin_series(d, tol)
        e = dmul(d, inv)
        projectors.append((e, DualMatrix.identity(size) - e))
    rtol = residual_tol(res_tol)
    conds = []
    for s in range(spec.m):
        d_s = spec.blades[s]
        e_s = projectors[s][0]
        for t in range(spec.m):
            d_t = spec.blades[t]
            pi_t = projectors[t][1]
            outer = dmul(spec.y[s], spec.x[t].T)
            scale = 1.0 + (d_s.norm() + d_t.norm()) * (1.0 + outer.norm())
            annihil = dmul(dmul(d_s, e_s), outer).norm()
            conds.append(
                Condition(f"annihilation_{s + 1}_{t + 1}", float(annihil), annihil <= rtol * scale)
            )
            commute = (dmul(d_s, outer) - dmul(outer, dmul(d_t, pi_t))).norm()
            conds.append(
                Condition(f"commutation_{s + 1}_{t + 1}", float(commute), commute <= rtol * scale)
            )
    return conds


def _hub_membership(spec: DutchWindmill, tol, res_tol) -> Condition:
    """The hub product W = sum y_s x_t^T, which _dw_hatted inverts, is in the class."""
    b_row, c_col, _ = _dw_parts(spec)
    passed, _, residual = _existence_test(dmul(c_col, b_row), tol, res_tol)
    return Condition("hub_membership", residual, passed)


def _bc0_conditions(spec: DutchWindmill, res_tol) -> list[Condition]:
    rtol = residual_tol(res_tol)
    conds = []
    for s in range(spec.m):
        for t in range(spec.m):
            outer = dmul(spec.y[s], spec.x[t].T).norm()
            scale = 1.0 + spec.y[s].norm() * spec.x[t].norm()
            conds.append(
                Condition(f"outer_zero_{s + 1}_{t + 1}", float(outer), outer <= rtol * scale)
            )
    return conds


def graph_hypotheses(spec: GraphSpec, form: str = "drazin", tol=None, res_tol=None) -> HypothesisReport:
    """Residual report for the conditions the family formulas rely on.

    form selects the windmill variant: "drazin" and "group" check the
    blade-pair annihilation and commutation conditions ("drazin" also
    reports whether the hub product W = sum y_s x_t^T has a dual Drazin
    inverse, "group" the two index-at-most-one requirements), "bc_zero" checks
    that every outer product of fan weights vanishes.  Double star and
    linked stars ignore form and report fan orthogonality.
    """
    _validate(spec)
    if isinstance(spec, DoubleStar):
        return HypothesisReport(
            "DOUBLE_STAR", (_ortho_condition("fan_orthogonality", spec.w, spec.v, res_tol),)
        )
    if isinstance(spec, DLinkedStars):
        conds = tuple(
            _ortho_condition(f"fan_orthogonality_{i + 1}", xi, yi, res_tol)
            for i, (xi, yi) in enumerate(zip(spec.x, spec.y))
        )
        return HypothesisReport("LINKED_STARS", conds)
    if form not in ("drazin", "bc_zero", "group"):
        raise SpecInvalid(f"unknown windmill form {form!r}")
    if form == "bc_zero":
        return HypothesisReport("WINDMILL_BC0", tuple(_bc0_conditions(spec, res_tol)))
    conds = _dw_conditions(spec, tol, res_tol)
    if form == "drazin":
        conds.append(_hub_membership(spec, tol, res_tol))
        return HypothesisReport("WINDMILL", tuple(conds))
    b_row, c_col, d_blk = _dw_parts(spec)
    ind_d = matrix_index(d_blk.std, tol)
    ind_phi = matrix_index(dmul(c_col, b_row).std, tol)
    conds.append(Condition("blade_group_index", float(max(0, ind_d - 1)), ind_d <= 1))
    conds.append(Condition("hub_group_index", float(max(0, ind_phi - 1)), ind_phi <= 1))
    return HypothesisReport("WINDMILL_GROUP", tuple(conds))


def _require_conditions(conds, context: str) -> None:
    failed = [c for c in conds if not c.passed]
    if failed:
        detail = ", ".join(f"{c.name}={c.residual:.3e}" for c in failed)
        raise HypothesisViolated(f"{context}: {detail}")


def ds_dual_drazin(spec: DoubleStar, tol=None, res_tol=None) -> DualMatrix:
    """Closed-form dual Drazin inverse of a double star adjacency matrix.

    Requires the hub2 fan to be dual-orthogonal (w^T v vanishes in both
    parts).  The core inverts through the single dual number
    theta = x^T y + a*b; a pure-infinitesimal theta admits no inverse.
    """
    _validate(spec)
    core, b_blk, c_blk = _ds_parts(spec)
    cond = _ortho_condition("fan_orthogonality", spec.w, spec.v, res_tol)
    _require_conditions([cond], "hub2 fan is not dual-orthogonal")
    theta = _dual_dot(spec.x, spec.y) + spec.a * spec.b
    ad = _scalar_scale(scalar_dual_drazin(theta), core)
    return _corner_formula(ad, b_blk, c_blk)


def dls_dual_drazin(spec: DLinkedStars, tol=None, res_tol=None) -> DualMatrix:
    """Closed-form dual Drazin inverse of a linked stars adjacency matrix.

    Requires every leaf fan to be dual-orthogonal to its return weights,
    which zeroes the fan-to-fan product and leaves the core's dual Drazin
    inverse as the only nontrivial ingredient.
    """
    _validate(spec)
    base, b_blk, c_blk = _dls_parts(spec)
    conds = [
        _ortho_condition(f"fan_orthogonality_{i + 1}", xi, yi, res_tol)
        for i, (xi, yi) in enumerate(zip(spec.x, spec.y))
    ]
    _require_conditions(conds, "leaf fans are not dual-orthogonal")
    ad = dual_drazin(base, tol, res_tol).inverse
    return _corner_formula(ad, b_blk, c_blk)


def _dw_hatted(spec: DutchWindmill, tol, res_tol) -> DualMatrix:
    """Assemble the windmill inverse from the bordered-corner series."""
    b_row, c_col, d_blk = _dw_parts(spec)
    total = d_blk.shape[0]
    inner = abco_series(d_blk, c_col, b_row, "right", tol, res_tol)
    rows = slice(0, total)
    last = slice(total, total + 1)
    return dblock([
        [inner.block(last, last), inner.block(last, rows)],
        [inner.block(rows, last), inner.block(rows, rows)],
    ])


def dw_dual_drazin(spec: DutchWindmill, tol=None, res_tol=None) -> DualMatrix:
    """Closed-form dual Drazin inverse of a windmill adjacency matrix.

    Valid when, for every blade pair (s,t), the outer product y_s x_t^T is
    annihilated by the core-range part of blade s and intertwines the
    blade matrices on their nilpotent parts, and when the hub product
    W = sum y_s x_t^T has a dual Drazin inverse.
    """
    _validate(spec)
    _require_conditions(_dw_conditions(spec, tol, res_tol), "blade-pair conditions fail")
    _require_conditions([_hub_membership(spec, tol, res_tol)], "hub product is not invertible")
    return _dw_hatted(spec, tol, res_tol)


def dw_bc_zero(spec: DutchWindmill, tol=None, res_tol=None) -> DualMatrix:
    """Windmill inverse in the fully dual-orthogonal case.

    When every outer product y_s x_t^T vanishes in both parts the series
    collapses to [[B D^3D C, B D^2D],[D^2D C, D^D]].
    """
    _validate(spec)
    _require_conditions(_bc0_conditions(spec, res_tol), "fan outer products are not dual-zero")
    b_row, c_col, d_blk = _dw_parts(spec)
    dd = dual_drazin(d_blk, tol, res_tol).inverse
    dd2 = dmul(dd, dd)
    dd3 = dmul(dd2, dd)
    return dblock([
        [dmul(b_row, dmul(dd3, c_col)), dmul(b_row, dd2)],
        [dmul(dd2, c_col), dd],
    ])


def dw_group(spec: DutchWindmill, tol=None, res_tol=None) -> DualMatrix:
    """Dual group inverse of a windmill adjacency matrix.

    Same conditions as dw_dual_drazin, with the blade matrix and the hub
    product additionally required to have standard index at most one.
    """
    _validate(spec)
    b_row, c_col, d_blk = _dw_parts(spec)
    phi = dmul(c_col, b_row)
    if matrix_index(d_blk.std, tol) > 1:
        raise IndexTooLarge("blade matrix is not group invertible")
    if matrix_index(phi.std, tol) > 1:
        raise IndexTooLarge("hub product is not group invertible")
    _require_conditions(_dw_conditions(spec, tol, res_tol), "blade-pair conditions fail")
    return _dw_hatted(spec, tol, res_tol)


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


def graph_spec_to_doc(spec: GraphSpec) -> dict:
    _validate(spec)
    if isinstance(spec, DoubleStar):
        return {
            "family": "double_star",
            "m": spec.m,
            "n": spec.n,
            "x": vector_to_doc(spec.x),
            "y": vector_to_doc(spec.y),
            "w": vector_to_doc(spec.w),
            "v": vector_to_doc(spec.v),
            "a": scalar_to_doc(spec.a),
            "b": scalar_to_doc(spec.b),
        }
    if isinstance(spec, DLinkedStars):
        return {
            "family": "linked_stars",
            "base": matrix_to_doc(spec.base),
            "r": list(spec.r),
            "x": [vector_to_doc(v) for v in spec.x],
            "y": [vector_to_doc(v) for v in spec.y],
        }
    return {
        "family": "dutch_windmill",
        "m": spec.m,
        "n": spec.n,
        "blades": [matrix_to_doc(d) for d in spec.blades],
        "x": [vector_to_doc(v) for v in spec.x],
        "y": [vector_to_doc(v) for v in spec.y],
    }
