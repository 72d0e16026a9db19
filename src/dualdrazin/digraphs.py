"""Dual-weighted digraph families and their adjacency-level inverse formulas.

Three families are supported: double stars (two adjacent hubs with leaf
fans), linked stars (a core digraph whose vertices each carry a leaf fan),
and windmills (even cycles joined at a common hub).  Each family has a
canonical vertex ordering, so its adjacency matrix is reproducible
bit-for-bit, and a closed-form dual Drazin inverse built from the blocks
of that layout.  A spec is checked when it is built (_validate), which
also makes its weights read-only, and a double star keeps theta and its
inverse.

Every family is [[A, B], [C, 0]], the windmill once its hub is moved
last: _blocks places every weight straight into A, B and C.  A spec keeps
them (_Spec._parts) and the adjacency built from them (_Spec._adjacency),
read-only and made once.  Each family is checked (graph_hypotheses) and
inverted (blocks._abco_formula) on its blocks.  Every public closed form
runs _graph_closed_form: the report, the gate the block closed forms use
too (blocks._require), then the body.  The double star, linked stars and
the bc_zero windmill share one report, BC = 0 and a membership of A, and
one body, the series at BC = 0 (_bc_zero).

Every weight is a DualMatrix: a fan is a column, a core or blade matrix
square, and the double star's hub arcs a and b are 1x1, so theta and its
inverse are 1x1 too (dualnum.scalar_dual_drazin).  Arc weights may be pure
infinitesimals; a weight that is zero in both parts means the arc is
missing, which the builders reject.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blocks import (Condition, HypothesisReport, _abco_conditions, _abco_formula, _condition, _membership,
                     _require, bipartite_drazin)
from .dualmat import DualMatrix, dblock, dmul
from .dualnum import _appreciable, scalar_dual_drazin
from .errors import NotDualDrazinInvertible, SchemaError, SpecInvalid
from .families import _WINDMILL_FORMS
from .serialize import (
    _is_count,
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


class _Spec:
    """A graph spec, checked when it is built, with read-only weights, blocks and adjacency, each made once."""

    def __post_init__(self):
        _validate(self)
        # the check and the kept blocks read each weight once, so a later
        # write into one would go unseen: freeze the parts of every weight
        for value in vars(self).values():
            for weight in value if isinstance(value, tuple) else (value,):
                if isinstance(weight, DualMatrix):
                    weight.std.flags.writeable = weight.inf.flags.writeable = False

    @cached_property
    def _parts(self) -> tuple[DualMatrix, DualMatrix, DualMatrix]:
        """(A, B, C) of [[A, B], [C, 0]], as _blocks places them."""
        parts = []
        for std, inf in zip(_blocks(self, "std"), _blocks(self, "inf")):
            std.flags.writeable = inf.flags.writeable = False
            parts.append(DualMatrix._of(std, inf))
        return tuple(parts)

    @cached_property
    def _adjacency(self) -> DualMatrix:
        """[[A, B], [C, 0]] of the kept blocks, the windmill's hub moved to the front."""
        a, b, c = self._parts
        matrix = dblock([[a, b], [c, DualMatrix.zeros(c.shape[0])]])
        if isinstance(self, DutchWindmill):
            matrix = _hub_first(matrix)
        matrix.std.flags.writeable = matrix.inf.flags.writeable = False
        return matrix


@dataclass(frozen=True)
class DoubleStar(_Spec):
    """Two bidirectionally joined hubs with m and n weighted leaf pairs.

    x and y weigh the arcs hub1->leaf and leaf->hub1, w and v the same
    around hub2, and the 1x1 dual matrices a and b the two arcs between
    the hubs.
    """

    m: int
    n: int
    x: DualMatrix
    y: DualMatrix
    w: DualMatrix
    v: DualMatrix
    a: DualMatrix
    b: DualMatrix

    @cached_property
    def _theta(self) -> tuple[DualMatrix, DualMatrix | None]:
        """theta = x^T y + ab (1x1), which the core inverts through, and its inverse (None if it has none)."""
        theta = _dual_dot(self.x, self.y) + dmul(self.a, self.b)
        try:
            return theta, scalar_dual_drazin(theta)
        except NotDualDrazinInvertible:
            return theta, None


@dataclass(frozen=True)
class DLinkedStars(_Spec):
    """A core digraph whose i-th vertex carries r[i] weighted leaf pairs."""

    base: DualMatrix
    r: tuple[int, ...]
    x: tuple[DualMatrix, ...]
    y: tuple[DualMatrix, ...]


@dataclass(frozen=True)
class DutchWindmill(_Spec):
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
            if not isinstance(s, DualMatrix) or s.shape != (1, 1):
                raise SpecInvalid(f"hub-to-hub weight {name} must be a 1x1 dual matrix")
            if not _appreciable(s.std.item(), s.inf.item()):
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
    else:
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


def _known(spec) -> None:
    """Refuse anything but a graph spec; a spec was checked when it was built."""
    if not isinstance(spec, _Spec):
        raise SpecInvalid(f"unknown graph spec {type(spec).__name__}")


def _blocks(spec: GraphSpec, part: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One part ("std" or "inf") of every weight, placed in the blocks (A, B, C) of [[A, B], [C, 0]].

    Double star: A is the hub1 star plus hub2 (x, y, a and b), B hub2's
    leaf row w and C hub2's leaf column v.  Linked stars: A is the core,
    row i of B the fan x_i and column i of C the return weights y_i.
    Windmill, its hub last: A is the block-diagonal blade matrix D, B the
    hub's fan column (the blade->hub weights y) and C its fan row (the
    hub->blade weights x).
    """
    if isinstance(spec, DoubleStar):
        k = spec.m + 2
        a, b, c = (np.zeros(shape, dtype=complex) for shape in ((k, k), (k, spec.n), (spec.n, k)))
        a[0, 1 : k - 1] = getattr(spec.x, part)[:, 0]
        a[1 : k - 1, 0] = getattr(spec.y, part)[:, 0]
        a[0, k - 1] = getattr(spec.a, part)[0, 0]
        a[k - 1, 0] = getattr(spec.b, part)[0, 0]
        b[k - 1] = getattr(spec.w, part)[:, 0]
        c[:, k - 1] = getattr(spec.v, part)[:, 0]
        return a, b, c
    if isinstance(spec, DLinkedStars):
        n, leaves = spec.base.shape[0], sum(spec.r)
        b, c = np.zeros((n, leaves), dtype=complex), np.zeros((leaves, n), dtype=complex)
        offset = 0
        for i, ri in enumerate(spec.r):
            b[i, offset : offset + ri] = getattr(spec.x[i], part)[:, 0]
            c[offset : offset + ri, i] = getattr(spec.y[i], part)[:, 0]
            offset += ri
        return getattr(spec.base, part), b, c
    size = 2 * spec.n - 1
    a = np.zeros((spec.m * size,) * 2, dtype=complex)
    for s, blade in enumerate(spec.blades):
        a[s * size : (s + 1) * size, s * size : (s + 1) * size] = getattr(blade, part)
    b = np.concatenate([getattr(ys, part) for ys in spec.y])
    c = np.concatenate([getattr(xs, part) for xs in spec.x]).reshape(1, -1)
    return a, b, c


def build_adjacency(spec: GraphSpec) -> AdjacencyBuild:
    """Canonical adjacency matrix, vertex labels and family metadata."""
    _known(spec)
    if isinstance(spec, DoubleStar):
        labels = (
            ["hub1"]
            + [f"hub1_leaf{j + 1}" for j in range(spec.m)]
            + ["hub2"]
            + [f"hub2_leaf{j + 1}" for j in range(spec.n)]
        )
        return AdjacencyBuild(spec._adjacency, tuple(labels))
    if isinstance(spec, DLinkedStars):
        labels = [f"core{i + 1}" for i in range(len(spec.r))]
        for i, ri in enumerate(spec.r):
            labels += [f"core{i + 1}_leaf{j + 1}" for j in range(ri)]
        return AdjacencyBuild(spec._adjacency, tuple(labels))
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
    return AdjacencyBuild(spec._adjacency, tuple(labels), perm, {"kappa": kappa})


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


def _dual_dot(u: DualMatrix, v: DualMatrix) -> DualMatrix:
    return dmul(u.T, v)


def _scalar_scale(s: DualMatrix, x: DualMatrix) -> DualMatrix:
    """The 1x1 dual matrix s times x, entry by entry (its parts broadcast)."""
    return DualMatrix._of(s.std * x.std, s.std * x.inf + s.inf * x.std)


def _hub_first(x: DualMatrix) -> DualMatrix:
    """Move the last row and column, the hub's, to the front: a windmill's adjacency and inverse are hub first."""
    n = x.shape[0]
    order = np.concatenate(([n - 1], np.arange(n - 1)))
    return DualMatrix._of(x.std[np.ix_(order, order)], x.inf[np.ix_(order, order)])


def graph_hypotheses(spec: GraphSpec, form: str = "drazin", tol=None, res_tol=None) -> HypothesisReport:
    """Residual report of the family formula, on the blocks of [[A, B], [C, 0]].

    The blocks are the spec's _parts (a windmill's, its hub last: A the
    blade matrix D, B the hub's fan column y, C its fan row x), and W = BC.
    form selects the windmill variant; any other form is refused for every
    family.  The double star, linked stars and the "bc_zero" windmill
    report that W vanishes, each entry W_ij against 1 + ||B_i,:|| ||C_:,j||
    (outer_zero; w^T v on a double star, x_i^T y_i on linked stars), and
    that A has a dual Drazin inverse (theta_membership, through
    theta = x^T y + ab; membership_base; membership_D).  The windmill's
    "drazin" and "group" forms give the ABCO right report
    (blocks._abco_conditions), membership_D and W's hub_membership;
    "group" adds the two index-at-most-one requirements.  The
    factorisations of A and W are kept under those keys.
    """
    _known(spec)
    if form not in _WINDMILL_FORMS:
        raise SpecInvalid(f"unknown windmill form {form!r}")
    a, b, c = spec._parts
    w = dmul(b, c)
    factors: dict = {}
    membership = _membership(factors, tol, res_tol)
    if isinstance(spec, DoubleStar):
        theta, inverse = spec._theta
        residual = 0.0 if inverse is not None else abs(theta.inf).item()
        member, theorem = Condition("theta_membership", residual, inverse is not None), "DOUBLE_STAR"
    elif isinstance(spec, DLinkedStars):
        member, theorem = membership("A", a, "membership_base"), "LINKED_STARS"
    else:
        member, theorem = membership("A", a, "membership_D"), _WINDMILL_FORMS[form]
    if theorem not in ("WINDMILL", "WINDMILL_GROUP"):
        # the largest W_ij against 1 + ||B_i,:|| ||C_:,j||: each fan's dot at its own scale
        rows = np.linalg.norm(np.hstack((b.std, b.inf)), axis=1)
        cols = np.linalg.norm(np.vstack((c.std, c.inf)), axis=0)
        ratio = np.hypot(abs(w.std), abs(w.inf)) / (1.0 + np.outer(rows, cols))
        conds = [_condition("outer_zero", float(ratio.max()), 1.0, res_tol), member]
        return HypothesisReport(theorem, tuple(conds), factors)
    conds = _abco_conditions(a, w, factors["A"].inverse, "right", res_tol)
    conds += [member, membership("W", w, "hub_membership")]
    if theorem == "WINDMILL_GROUP":
        for name, dd in (("blade_group_index", factors["A"]), ("hub_group_index", factors["W"])):
            conds.append(Condition(name, float(max(0, dd.index - 1)), dd.index <= 1))
    return HypothesisReport(theorem, tuple(conds), factors)


# Formula bodies: (spec, its passed report) -> inverse of the adjacency
# matrix.  A body only evaluates: _graph_closed_form gates the report first
# (blocks._require), and a body takes every matrix inverse from the report's
# factorisations and its blocks and theta's inverse from the spec.


def _bc_zero(spec: GraphSpec, report: HypothesisReport) -> DualMatrix:
    """The series at W = BC = 0 (W^D = 0, Ind(W) = 1): [[A^D, A^2D B], [C A^2D, C A^3D B]].

    A^D is theta^D A on the double star and the report's otherwise; a
    windmill's hub is moved back to the front.
    """
    a, b, c = spec._parts
    xa = _scalar_scale(spec._theta[1], a) if isinstance(spec, DoubleStar) else report.factorisations["A"].inverse
    inverse = _abco_formula(a, b, c, xa, None, None, 1)
    return _hub_first(inverse) if isinstance(spec, DutchWindmill) else inverse


def _dw_formula(spec: DutchWindmill, report: HypothesisReport) -> DualMatrix:
    """The ABCO right series of the windmill's blocks, hub moved first, for the drazin and group forms."""
    a, b, c = spec._parts
    xa, dw = report.factorisations["A"].inverse, report.factorisations["W"]
    return _hub_first(_abco_formula(a, b, c, xa, dw.source, dw.inverse, dw.index))


_FORMULAS = {
    "DOUBLE_STAR": _bc_zero,
    "LINKED_STARS": _bc_zero,
    "WINDMILL": _dw_formula,
    "WINDMILL_BC0": _bc_zero,
    "WINDMILL_GROUP": _dw_formula,
}


def _graph_closed_form(spec: GraphSpec, form: str, tol, res_tol) -> DualMatrix:
    """Check a spec's hypotheses under form, gate the report and evaluate its family's formula."""
    report = graph_hypotheses(spec, form, tol, res_tol)
    _require(report)
    return _FORMULAS[report.theorem](spec, report)


def ds_dual_drazin(spec: DoubleStar, tol=None, res_tol=None) -> DualMatrix:
    """Closed-form dual Drazin inverse of a double star adjacency matrix.

    The [[A, B], [C, 0]] form at BC = 0: BC has the one entry w^T v, at
    (hub2, hub2), so the hub2 fan must be dual-orthogonal.  The core A
    inverts through the single dual number theta = x^T y + a*b, as
    A^D = theta^D A; a pure-infinitesimal theta admits no inverse.
    """
    return _graph_closed_form(spec, "drazin", tol, res_tol)


def dls_dual_drazin(spec: DLinkedStars, tol=None, res_tol=None) -> DualMatrix:
    """Closed-form dual Drazin inverse of a linked stars adjacency matrix.

    The [[A, B], [C, 0]] form at BC = 0, with A the core: BC is
    diag(x_i^T y_i), so every leaf fan must be dual-orthogonal to its
    return weights, and the core's dual Drazin inverse is the only
    nontrivial ingredient.
    """
    return _graph_closed_form(spec, "drazin", tol, res_tol)


def dw_dual_drazin(spec: DutchWindmill, tol=None, res_tol=None) -> DualMatrix:
    """Closed-form dual Drazin inverse of a windmill adjacency matrix.

    The ABCO right form of [[D, B], [C, 0]], the adjacency with its hub
    moved last (B the hub's fan column y, C its fan row x): valid when
    D D^pi commutes with the hub product W = BC, D D D^D W = 0, and the
    blade matrix D and W have dual Drazin inverses.
    """
    return _graph_closed_form(spec, "drazin", tol, res_tol)


def dw_bc_zero(spec: DutchWindmill, tol=None, res_tol=None) -> DualMatrix:
    """Windmill inverse in the fully dual-orthogonal case.

    When every outer product y_s x_t^T vanishes in both parts, W = BC = 0
    and the series collapses to [[C D^3D B, C D^2D], [D^2D B, D^D]], hub
    first, with B and C as in dw_dual_drazin.
    """
    return _graph_closed_form(spec, "bc_zero", tol, res_tol)


def dw_group(spec: DutchWindmill, tol=None, res_tol=None) -> DualMatrix:
    """Dual group inverse of a windmill adjacency matrix.

    Same conditions as dw_dual_drazin, with the blade matrix and the hub
    product additionally required to have standard index at most one.
    """
    return _graph_closed_form(spec, "group", tol, res_tol)


def bipartite_dual(e: DualMatrix, f: DualMatrix, tol=None, res_tol=None) -> DualMatrix:
    """Dual Drazin inverse of [[0,E],[F,0]]: bipartite_drazin(E, F).

    That is [[0, (EF)^D E],[F (EF)^D, 0]], under bipartite_drazin's shape
    check, hypotheses and gate.
    """
    return bipartite_drazin(e, f, tol, res_tol)


def _vectors_from_doc(doc: dict, key: str, count: int, label: str) -> tuple[DualMatrix, ...]:
    raw = doc.get(key)
    if not isinstance(raw, list) or len(raw) != count:
        raise SchemaError(f"'{key}' must be a list of {count} dual vectors")
    return tuple(vector_from_doc(item, label=f"{label}[{i + 1}]") for i, item in enumerate(raw))


def _counts_from_doc(doc: dict, family: str) -> tuple[int, int]:
    m, n = doc.get("m"), doc.get("n")
    if not (_is_count(m) and _is_count(n)):
        raise SchemaError(f"{family} needs integer fields 'm' and 'n'")
    return m, n


def graph_spec_from_doc(doc: dict) -> GraphSpec:
    """Parse {"family": ..., ...} into a graph spec.

    Windmill blade matrices and hub weights default to the unit cycle
    pattern when omitted.
    """
    if not isinstance(doc, dict):
        raise SchemaError("graph spec must be a JSON object")
    family = doc.get("family")
    if family == "double_star":
        m, n = _counts_from_doc(doc, family)
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
        if not all(_is_count(v) for v in raw_r):
            raise SchemaError("leaf counts must be integers")
        r = tuple(raw_r)
        return DLinkedStars(
            base=base,
            r=r,
            x=_vectors_from_doc(doc, "x", len(r), "x"),
            y=_vectors_from_doc(doc, "y", len(r), "y"),
        )
    if family == "dutch_windmill":
        m, n = _counts_from_doc(doc, family)
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
    """The spec document with complex array parts, which graph_spec_to_doc lists and the fuzz digest renders."""
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
    _known(spec)
    return _listed(_graph_doc(spec))
