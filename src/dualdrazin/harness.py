"""Randomised instance generation and fuzz verification for the closed forms.

Generators build instances whose hypotheses hold exactly, by working in
integer frames: a unimodular shear conjugates a block split into an
invertible triangular part and a shifted nilpotent part, and borders are
supported on exact kernels of that nilpotent part.  Membership in the
invertible class is then either structural or enforced by an exact-filter
and resample loop.

fuzz drives a family of such instances through the one check that ddz
verify also runs (_verify): hypotheses, the closed form, the series inverse
of the assembled matrix as oracle, and the three defining equations.  It
emits a deterministic JSON-lines report.
"""

from __future__ import annotations

import hashlib
import logging
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blocks import _FORMULAS as _BLOCK_FORMULAS
from .blocks import BlockInstance, check_hypotheses
from .digraphs import _FORMULAS as _GRAPH_FORMULAS
from .digraphs import (
    DLinkedStars,
    DoubleStar,
    DutchWindmill,
    _graph_doc,
    _theta,
    _theta_condition,
    build_adjacency,
    graph_hypotheses,
)
from .drazin import _memo, defining_residuals, dual_drazin, dual_exists
from .dualmat import DualMatrix, dmul
from .dualnum import DualScalar
from .errors import (
    DualDrazinError,
    GenerationFailed,
    NonFiniteEntries,
    SpecInvalid,
)
from .families import _WINDMILL_FORMS, FAMILIES, GRAPH_FAMILIES
from .serialize import _listed, dumps_doc

logger = logging.getLogger(__name__)

_MAX_ATTEMPTS = 120

__all__ = [
    "FAMILIES",
    "GRAPH_FAMILIES",
    "GenConfig",
    "VerifyReport",
    "gen_instance",
    "gen_member",
    "gen_existence",
    "fuzz",
]


@dataclass(frozen=True)
class GenConfig:
    """Reproducible description of one fuzzing run.

    family names either a block theorem or a digraph family.  Dimensions
    are sampled uniformly between dim_min and dim_max, except that the
    first two trials pin the two boundary dimensions.  violate flips the
    generator into producing instances that break their own hypotheses,
    for exercising the rejection paths.
    """

    family: str
    trials: int = 100
    seed: int = 0
    dim_min: int = 1
    dim_max: int = 5
    entry_scale: int = 2
    max_rel_error: float = 1e-8
    violate: bool = False
    artifact_dir: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecInvalid(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.trials < 1:
            raise SpecInvalid("trials must be at least 1")
        if not 1 <= self.dim_min <= self.dim_max:
            raise SpecInvalid("need 1 <= dim_min <= dim_max")
        if self.entry_scale < 1:
            raise SpecInvalid("entry_scale must be at least 1")


def _trial_rng(cfg: GenConfig, trial: int) -> np.random.Generator:
    # per-trial stream keyed on (master seed, trial, family) so a single
    # trial can be regenerated without replaying the run
    tag = zlib.crc32(cfg.family.encode())
    return np.random.default_rng([cfg.seed & (2**64 - 1), trial, tag])


def _dim(cfg: GenConfig, trial: int, rng, floor: int = 1) -> int:
    lo = max(cfg.dim_min, floor)
    hi = max(cfg.dim_max, lo)
    if trial == 0:
        return lo
    if trial == 1:
        return hi
    return int(rng.integers(lo, hi + 1))


def _in_class(x: DualMatrix, res_tol=None) -> bool:
    ok, _ = dual_exists(x, res_tol=res_tol)
    return ok


# ---------------------------------------------------------------------------
# integer frame building blocks


def _choice(rng, values: tuple, size=None):
    """rng.choice(values, size), from the same draws at a fraction of its cost.

    Generator.choice takes its indices from integers(0, len(values), size)
    but spends several times that call on checking its arguments.
    """
    if size is None:
        return values[rng.integers(0, len(values))]
    return np.asarray(values)[rng.integers(0, len(values), size)]


def _ints(rng, shape, scale) -> np.ndarray:
    return rng.integers(-scale, scale + 1, shape).astype(complex)


def _nonzero_ints(rng, count, scale) -> np.ndarray:
    vals = rng.integers(1, scale + 1, count) * _choice(rng, (-1, 1), count)
    return vals.astype(complex)


def _int_dual(rng, m, n, scale) -> DualMatrix:
    return DualMatrix(_ints(rng, (m, n), scale), _ints(rng, (m, n), scale))


def _invertible_triu(n, rng, scale) -> np.ndarray:
    """Upper-triangular integers with a +-1/+-2 diagonal, so invertible."""
    t = np.triu(_ints(rng, (n, n), scale))
    if n:
        np.fill_diagonal(t, _choice(rng, (-2, -1, 1, 2), n))
    return t


def _unimodular(n, rng) -> tuple[np.ndarray, np.ndarray]:
    """Integer shear product with exactly known integer inverse."""
    s = np.eye(n)
    sinv = np.eye(n)
    for _ in range(n + 2):
        i, j = rng.integers(0, n, 2)
        if i == j:
            continue
        c = _choice(rng, (-1, 1))
        # s <- s (I + c e_i e_j^T) and sinv <- (I - c e_i e_j^T) sinv
        s[:, j] += c * s[:, i]
        sinv[i, :] -= c * sinv[j, :]
    return s.astype(complex), sinv.astype(complex)


def _superdiag_nilpotent(b, rng) -> tuple[np.ndarray, list[int]]:
    n = np.zeros((b, b), dtype=complex)
    coeffs = []
    for j in range(b - 1):
        c = _choice(rng, (0, 1, 1, 2))
        coeffs.append(c)
        n[j, j + 1] = c
    return n, coeffs


def _poly_of(mat, rng, unit, scale=2) -> np.ndarray:
    b = mat.shape[0]
    out = np.zeros((b, b), dtype=complex)
    if unit:
        out += _choice(rng, (1, -1, 2)) * np.eye(b)
    power = mat.copy()
    for _ in range(min(b, 3)):
        out += int(rng.integers(-scale, scale + 1)) * power
        power = power @ mat
    return out


@dataclass(frozen=True)
class _Frame:
    s: np.ndarray
    sinv: np.ndarray
    a: int
    nil: np.ndarray
    kernel: list[int]
    left_kernel: list[int]
    matrix: DualMatrix

    @property
    def b(self) -> int:
        return self.nil.shape[0]


def _make_frame(n, rng, scale, a=None, nilpotent_inf=True) -> _Frame:
    """Shear-conjugated invertible-plus-nilpotent split, a member by construction.

    The infinitesimal part is block diagonal in the frame: arbitrary on the
    invertible block, a multiple of the nilpotent block on the other, which
    keeps the mixed series supported away from the nilpotent projector.
    """
    if a is None:
        a = int(rng.integers(0, n + 1))
    b = n - a
    s, sinv = _unimodular(n, rng)
    p = _invertible_triu(a, rng, scale)
    p0 = _ints(rng, (a, a), scale)
    nil, coeffs = _superdiag_nilpotent(b, rng)
    g22 = nil @ _poly_of(nil, rng, unit=bool(rng.integers(0, 2))) if nilpotent_inf else np.eye(b, dtype=complex)
    std = np.zeros((n, n), dtype=complex)
    inf = np.zeros((n, n), dtype=complex)
    std[:a, :a] = p
    std[a:, a:] = nil
    inf[:a, :a] = p0
    inf[a:, a:] = g22
    kernel = [0] + [j + 1 for j, c in enumerate(coeffs) if c == 0] if b else []
    left_kernel = [b - 1] + [j for j, c in enumerate(coeffs) if c == 0] if b else []
    matrix = DualMatrix(s @ std @ sinv, s @ inf @ sinv)
    return _Frame(s, sinv, a, nil, kernel, left_kernel, matrix)


def gen_member(dim: int, rng, entry_scale: int = 2, invertible: bool | None = None) -> DualMatrix:
    """Random member of the invertible class with exact integer structure.

    invertible=True forces a nonsingular standard part, False forces a
    nontrivial nilpotent block, None mixes both.
    """
    if dim < 1:
        raise SpecInvalid("dimension must be at least 1")
    if invertible is True:
        a = dim
    elif invertible is False:
        a = int(rng.integers(0, dim))
    else:
        a = None
    return _make_frame(dim, rng, entry_scale, a=a).matrix


def gen_existence(dim: int, rng, positive: bool, entry_scale: int = 2) -> DualMatrix:
    """Exact-arithmetic instance for the existence test, labelled by design.

    Positive instances share the member frame.  Negative ones put the
    identity on the nilpotent block of the infinitesimal part, which makes
    the projected mixed series an integer matrix of norm at least one.
    """
    if positive:
        return gen_member(dim, rng, entry_scale)
    a = int(rng.integers(0, dim))
    return _make_frame(dim, rng, entry_scale, a=a, nilpotent_inf=False).matrix


# ---------------------------------------------------------------------------
# per-family generators


def _orthogonal_pair(r, rng, scale) -> tuple[DualMatrix, DualMatrix]:
    """Fan weight pair with u^T v = 0 in both parts, all standard entries nonzero."""
    if r < 2:
        raise GenerationFailed("dual-orthogonal fans need at least two leaves")
    for _ in range(_MAX_ATTEMPTS):
        v_std = _nonzero_ints(rng, r, scale)
        v_std[-1] = 1.0
        u_std = _nonzero_ints(rng, r, scale)
        u_std[-1] = -(u_std[:-1] @ v_std[:-1])
        if u_std[-1] == 0:
            continue
        v_inf = _ints(rng, r, scale)
        u_inf = _ints(rng, r, scale)
        u_inf[-1] = -(u_std @ v_inf) - (u_inf[:-1] @ v_std[:-1])
        return DualMatrix.column(u_std, u_inf), DualMatrix.column(v_std, v_inf)
    raise GenerationFailed("could not build a dual-orthogonal fan pair")


def _gen_cline(cfg, trial, rng):
    if cfg.violate:
        m = _dim(cfg, trial, rng)
        bad = gen_existence(m, rng, positive=False, entry_scale=cfg.entry_scale)
        return BlockInstance("CLINE", {"A": DualMatrix.identity(m), "B": bad}), True
    m = _dim(cfg, trial, rng)
    n = int(rng.integers(1, m + 1))
    a = _int_dual(rng, m, n, cfg.entry_scale)
    b = _int_dual(rng, n, m, cfg.entry_scale)
    ok = _in_class(dmul(b, a)) and _in_class(dmul(a, b))
    return BlockInstance("CLINE", {"A": a, "B": b}), ok


def _gen_tri(cfg, trial, rng):
    na = _dim(cfg, trial, rng)
    nd = int(rng.integers(max(1, cfg.dim_min), cfg.dim_max + 1))
    if cfg.violate:
        blocks = {
            "A": gen_existence(na, rng, positive=False, entry_scale=cfg.entry_scale),
            "B": _int_dual(rng, na, nd, cfg.entry_scale),
            "D": gen_member(nd, rng, cfg.entry_scale),
        }
        return BlockInstance(cfg.family, blocks), True
    blocks = {
        "A": gen_member(na, rng, cfg.entry_scale),
        "B": _int_dual(rng, na, nd, cfg.entry_scale),
        "D": gen_member(nd, rng, cfg.entry_scale),
    }
    inst = BlockInstance(cfg.family, blocks)
    return inst, _in_class(inst.assembled())


def _gen_sum(cfg, trial, rng):
    n = _dim(cfg, trial, rng)
    a = int(rng.integers(0, n + 1))
    b = n - a
    s, sinv = _unimodular(n, rng)
    h1 = _invertible_triu(a, rng, cfg.entry_scale)
    h1_inf = _ints(rng, (a, a), cfg.entry_scale)
    p_std = np.zeros((n, n), dtype=complex)
    p_inf = np.zeros((n, n), dtype=complex)
    p_std[:a, :a] = h1
    p_inf[:a, :a] = h1_inf
    q_std = np.zeros((n, n), dtype=complex)
    q_std[a:, :a] = _ints(rng, (b, a), cfg.entry_scale)
    if b and rng.integers(0, 2):
        q_std[a:, a:] = _invertible_triu(b, rng, cfg.entry_scale)
        q_inf = np.zeros((n, n), dtype=complex)
        q_inf[a:, :a] = _ints(rng, (b, a), cfg.entry_scale)
        q_inf[a:, a:] = _ints(rng, (b, b), cfg.entry_scale)
    else:
        nil, _ = _superdiag_nilpotent(b, rng)
        q_std[a:, a:] = nil
        # nilpotent stratum: the infinitesimal part is Q*g(Q), which kills
        # every term of the mixed series exactly
        q_inf = q_std @ _poly_of(q_std, rng, unit=True)
    if cfg.violate:
        q_std[:a, :a] = np.eye(a)
    p = DualMatrix(s @ p_std @ sinv, s @ p_inf @ sinv)
    q = DualMatrix(s @ q_std @ sinv, s @ q_inf @ sinv)
    inst = BlockInstance("SUM_PQ0", {"P": p, "Q": q})
    if cfg.violate:
        return inst, a > 0
    ok = _in_class(p) and _in_class(q) and _in_class(p + q)
    return inst, ok


def _kernel_cols(rows, cols, kernel, rng, scale) -> np.ndarray:
    out = np.zeros((rows, cols), dtype=complex)
    for col in range(cols):
        for pos in kernel:
            out[pos, col] = int(rng.integers(-scale, scale + 1))
    return out


def _gen_abio(cfg, trial, rng):
    n = _dim(cfg, trial, rng)
    if cfg.violate:
        # invertible A makes A A^e B = A B, never zero against B = I
        frame = _make_frame(n, rng, cfg.entry_scale, a=n)
        return BlockInstance(cfg.family, {"A": frame.matrix, "B": DualMatrix.identity(n)}), True
    frame = _make_frame(n, rng, cfg.entry_scale)
    a, b = frame.a, frame.b
    nil = frame.nil
    unit = bool(rng.integers(0, 2))
    if unit:
        v2 = _poly_of(nil, rng, unit=True)
        v2t = _poly_of(nil, rng, unit=False)
    else:
        v2 = nil @ _poly_of(nil, rng, unit=True)
        v2t = v2 @ _poly_of(nil, rng, unit=True)
    b_std = np.zeros((n, n), dtype=complex)
    b_inf = np.zeros((n, n), dtype=complex)
    b_std[a:, a:] = v2
    b_inf[a:, a:] = v2t
    if cfg.family == "ABIO_RIGHT":
        b_std[a:, :a] = _kernel_cols(b, a, frame.kernel, rng, cfg.entry_scale)
        b_inf[a:, :a] = _kernel_cols(b, a, frame.kernel, rng, cfg.entry_scale)
    else:
        b_std[:a, a:] = _kernel_cols(b, a, frame.left_kernel, rng, cfg.entry_scale).T
        b_inf[:a, a:] = _kernel_cols(b, a, frame.left_kernel, rng, cfg.entry_scale).T
    bb = DualMatrix(frame.s @ b_std @ frame.sinv, frame.s @ b_inf @ frame.sinv)
    inst = BlockInstance(cfg.family, {"A": frame.matrix, "B": bb})
    ok = _in_class(bb) and _in_class(inst.assembled())
    return inst, ok


def _gen_abco(cfg, trial, rng):
    n = _dim(cfg, trial, rng)
    if cfg.violate:
        frame = _make_frame(n, rng, cfg.entry_scale, a=n)
        blocks = {
            "A": frame.matrix,
            "B": DualMatrix.identity(n),
            "C": DualMatrix.identity(n),
        }
        return BlockInstance(cfg.family, blocks), True
    frame = _make_frame(n, rng, cfg.entry_scale, a=int(rng.integers(0, n)))
    a, b = frame.a, frame.b
    nil = frame.nil
    shear = _poly_of(nil, rng, unit=False)
    w1 = _kernel_cols(b, a, frame.kernel, rng, cfg.entry_scale)
    w1t = _kernel_cols(b, a, frame.kernel, rng, cfg.entry_scale)
    w2 = _poly_of(nil, rng, unit=True)
    w2t = _poly_of(nil, rng, unit=False)
    if cfg.family == "ABCO_RIGHT":
        b_std = np.zeros((n, b), dtype=complex)
        b_inf = np.zeros((n, b), dtype=complex)
        b_std[a:, :] = np.eye(b)
        b_inf[a:, :] = shear
        bb = DualMatrix(frame.s @ b_std, frame.s @ b_inf)
        cc = DualMatrix(np.hstack([w1, w2]) @ frame.sinv, np.hstack([w1t, w2t]) @ frame.sinv)
    else:
        v1 = _kernel_cols(b, a, frame.left_kernel, rng, cfg.entry_scale).T
        v1t = _kernel_cols(b, a, frame.left_kernel, rng, cfg.entry_scale).T
        c_std = np.zeros((b, n), dtype=complex)
        c_inf = np.zeros((b, n), dtype=complex)
        c_std[:, a:] = np.eye(b)
        c_inf[:, a:] = shear
        cc = DualMatrix(c_std @ frame.sinv, c_inf @ frame.sinv)
        bb = DualMatrix(frame.s @ np.vstack([v1, w2]), frame.s @ np.vstack([v1t, w2t]))
    inst = BlockInstance(cfg.family, {"A": frame.matrix, "B": bb, "C": cc})
    ok = _in_class(dmul(bb, cc)) and _in_class(inst.assembled())
    return inst, ok


def _gen_bipartite(cfg, trial, rng):
    n = _dim(cfg, trial, rng)
    if cfg.violate:
        bad = gen_existence(n, rng, positive=False, entry_scale=cfg.entry_scale)
        return BlockInstance("BIPARTITE", {"B": DualMatrix.identity(n), "C": bad}), True
    p = n if rng.integers(0, 2) else int(rng.integers(n, max(cfg.dim_max, n) + 1))
    b = _int_dual(rng, n, p, cfg.entry_scale)
    c = _int_dual(rng, p, n, cfg.entry_scale)
    inst = BlockInstance("BIPARTITE", {"B": b, "C": c})
    ok = _in_class(dmul(b, c)) and _in_class(inst.assembled())
    return inst, ok


def _gen_double_star(cfg, trial, rng):
    m = _dim(cfg, trial, rng)
    n = _dim(cfg, trial, rng, floor=2)
    scale = cfg.entry_scale
    x = DualMatrix.column(_nonzero_ints(rng, m, scale), _ints(rng, m, scale))
    y = DualMatrix.column(_nonzero_ints(rng, m, scale), _ints(rng, m, scale))
    a = DualScalar(_choice(rng, (-2, -1, 1, 2)), int(rng.integers(-scale, scale + 1)))
    b = DualScalar(_choice(rng, (-2, -1, 1, 2)), int(rng.integers(-scale, scale + 1)))
    if cfg.violate:
        ones = DualMatrix.column(np.ones(n))
        spec = DoubleStar(m=m, n=n, x=x, y=y, w=ones, v=ones, a=a, b=b)
        return spec, True
    w, v = _orthogonal_pair(n, rng, scale)
    spec = DoubleStar(m=m, n=n, x=x, y=y, w=w, v=v, a=a, b=b)
    if not _theta_condition(_theta(spec)).passed:
        return spec, False
    return spec, _in_class(build_adjacency(spec).matrix)


def _gen_linked_stars(cfg, trial, rng):
    n = _dim(cfg, trial, rng)
    scale = cfg.entry_scale
    base = gen_member(n, rng, scale)
    r = tuple(int(rng.integers(2, 5)) for _ in range(n))
    pairs = [_orthogonal_pair(ri, rng, scale) for ri in r]
    x = tuple(p[0] for p in pairs)
    y = tuple(p[1] for p in pairs)
    if cfg.violate:
        ones = DualMatrix.column(np.ones(r[0]))
        x = (ones,) + x[1:]
        y = (ones,) + y[1:]
        return DLinkedStars(base=base, r=r, x=x, y=y), True
    spec = DLinkedStars(base=base, r=r, x=x, y=y)
    return spec, _in_class(build_adjacency(spec).matrix)


def _windmill_sizes(cfg, trial, rng) -> tuple[int, int]:
    m = _dim(cfg, trial, rng)
    n = int(rng.integers(1, 4))
    return m, n


def _gen_windmill(cfg, trial, rng):
    m, n = _windmill_sizes(cfg, trial, rng)
    size = 2 * n - 1
    scale = cfg.entry_scale
    if cfg.violate:
        return _ones_fans(m, n, tuple(DualMatrix.identity(size) for _ in range(m))), True
    if rng.integers(0, 2):
        blades, x, y = _eps_fanned_blades(m, size, rng, scale)
    else:
        # nilpotent stratum: weights supported on the exact kernels, so
        # every blade-pair product vanishes identically
        blades = []
        x = []
        y = []
        for _ in range(m):
            nil, coeffs = _superdiag_nilpotent(size, rng)
            inf = nil @ _poly_of(nil, rng, unit=True)
            blades.append(DualMatrix(nil, inf))
            kernel = [0] + [j + 1 for j, c in enumerate(coeffs) if c == 0]
            left = [size - 1] + [j for j, c in enumerate(coeffs) if c == 0]
            y_vec = DualMatrix(
                _kernel_cols(size, 1, kernel, rng, scale),
                _kernel_cols(size, 1, kernel, rng, scale),
            )
            if y_vec.norm() == 0:
                y_vec = DualMatrix.column(np.eye(size)[kernel[0]])
            x_vec = DualMatrix(
                _kernel_cols(size, 1, left, rng, scale),
                _kernel_cols(size, 1, left, rng, scale),
            )
            if x_vec.norm() == 0:
                x_vec = DualMatrix.column(np.eye(size)[left[0]])
            y.append(y_vec)
            x.append(x_vec)
        blades = tuple(blades)
    spec = DutchWindmill(m=m, n=n, blades=blades, x=tuple(x), y=tuple(y))
    # the closed form also inverts the hub product W = sum y_s x_t^T, which
    # can fall outside the class even when the assembled adjacency does not
    matrix = build_adjacency(spec).matrix
    hub, rest = slice(0, 1), slice(1, None)
    return spec, _in_class(matrix) and _in_class(dmul(matrix.block(rest, hub), matrix.block(hub, rest)))


def _ones_fans(m: int, n: int, blades) -> DutchWindmill:
    """Windmill whose every fan weight is one, for the violating draws."""
    ones = DualMatrix.column(np.ones(2 * n - 1))
    return DutchWindmill(m=m, n=n, blades=blades, x=(ones,) * m, y=(ones,) * m)


def _eps_fanned_blades(m, size, rng, scale) -> tuple[tuple[DualMatrix, ...], ...]:
    """m invertible blades and pure-epsilon fans: every y_s x_t^T is eps^2 = 0."""
    blades = tuple(_invertible_dual(size, rng, scale) for _ in range(m))
    x = tuple(DualMatrix.column(np.zeros(size), _nonzero_ints(rng, size, scale)) for _ in range(m))
    y = tuple(DualMatrix.column(np.zeros(size), _nonzero_ints(rng, size, scale)) for _ in range(m))
    return blades, x, y


def _invertible_dual(n, rng, scale) -> DualMatrix:
    s, sinv = _unimodular(n, rng)
    t = _invertible_triu(n, rng, scale)
    return DualMatrix(s @ t @ sinv, _ints(rng, (n, n), scale))


def _gen_windmill_bc0(cfg, trial, rng):
    m, n = _windmill_sizes(cfg, trial, rng)
    size = 2 * n - 1
    scale = cfg.entry_scale
    if cfg.violate:
        return _ones_fans(m, n, tuple(_invertible_dual(size, rng, scale) for _ in range(m))), True
    blades, x, y = _eps_fanned_blades(m, size, rng, scale)
    spec = DutchWindmill(m=m, n=n, blades=blades, x=x, y=y)
    return spec, _in_class(build_adjacency(spec).matrix)


def _gen_windmill_group(cfg, trial, rng):
    """A windmill from one of two strata, each blade of it from the same one.

    Invertible stratum: invertible blades and pure-epsilon fans, so every
    fan outer product y_s x_t^T is zero and so is the hub product W.
    Singular stratum: each blade is a group frame S diag(P, 0) S^-1 with
    epsilon part S diag(P0, 0) S^-1, y_s lies in its kernel span S[:, a:]
    and x_s in its left kernel, the row span of S^-1[a:, :], in both parts.
    Then D_s y_s = 0 and x_t^T D_t = 0, which meets every blade-pair
    condition, and W = u v^T + eps(...) is rank one with standard trace
    sum_s x_s^T y_s; a draw where that trace is zero has a nilpotent W and
    is redrawn.

    Mixing the strata gives no member.  With s invertible and t singular: if
    x_t has a standard part, commutation_s_t needs D_s y_s x_t^T = 0, so
    y_s = 0, which a windmill forbids; if x_t is pure epsilon, W is pure
    epsilon and nonzero, which fails hub_membership.
    """
    m, n = _windmill_sizes(cfg, trial, rng)
    size = 2 * n - 1
    scale = cfg.entry_scale
    if cfg.violate:
        return _ones_fans(m, n, tuple(_invertible_dual(size, rng, scale) for _ in range(m))), True
    if rng.integers(0, 2):
        blades, x, y = _eps_fanned_blades(m, size, rng, scale)
        spec = DutchWindmill(m=m, n=n, blades=blades, x=x, y=y)
        return spec, _in_class(build_adjacency(spec).matrix)
    blades, x, y, traces = zip(*(_kernel_fanned_blade(size, rng, scale) for _ in range(m)))
    spec = DutchWindmill(m=m, n=n, blades=blades, x=x, y=y)
    return spec, sum(traces) != 0 and _in_class(build_adjacency(spec).matrix)


def _kernel_fanned_blade(size, rng, scale) -> tuple[DualMatrix, DualMatrix, DualMatrix, complex]:
    """Group-frame blade with a = dim P in [0, size), its fans (x, y), and x^T y.

    The standard parts are y = S[:, a:] eta and x = S^-1[a:, :]^T xi, so the
    standard x^T y is xi^T eta.
    """
    a = int(rng.integers(0, size))
    s, sinv = _unimodular(size, rng)
    std = np.zeros((size, size), dtype=complex)
    inf = np.zeros((size, size), dtype=complex)
    std[:a, :a] = _invertible_triu(a, rng, scale)
    inf[:a, :a] = _ints(rng, (a, a), scale)
    blade = DualMatrix(s @ std @ sinv, s @ inf @ sinv)
    kernel, left = s[:, a:], sinv[a:, :].T
    eta = _nonzero_ints(rng, size - a, scale)
    xi = _nonzero_ints(rng, size - a, scale)
    y = DualMatrix.column(kernel @ eta, kernel @ _ints(rng, size - a, scale))
    x = DualMatrix.column(left @ xi, left @ _ints(rng, size - a, scale))
    return blade, x, y, xi @ eta


_GENERATORS = {
    "CLINE": _gen_cline,
    "TRI_UPPER": _gen_tri,
    "TRI_LOWER": _gen_tri,
    "SUM_PQ0": _gen_sum,
    "ABIO_RIGHT": _gen_abio,
    "ABIO_LEFT": _gen_abio,
    "ABCO_RIGHT": _gen_abco,
    "ABCO_LEFT": _gen_abco,
    "BIPARTITE": _gen_bipartite,
    "DOUBLE_STAR": _gen_double_star,
    "LINKED_STARS": _gen_linked_stars,
    "WINDMILL": _gen_windmill,
    "WINDMILL_BC0": _gen_windmill_bc0,
    "WINDMILL_GROUP": _gen_windmill_group,
}


def gen_instance(cfg: GenConfig, trial: int):
    """Instance for one trial, resampling until the accept filter passes.

    Returns a BlockInstance for the block theorems and a GraphSpec for the
    digraph families.  Raises GenerationFailed when the filter keeps
    rejecting, which reports the draw rather than looping forever.
    """
    gen = _GENERATORS[cfg.family]
    rng = _trial_rng(cfg, trial)
    rejected = 0
    for _ in range(_MAX_ATTEMPTS):
        inst, ok = gen(cfg, trial, rng)
        if ok:
            if rejected:
                logger.debug(
                    "family %s trial %d: accepted after %d rejected draws",
                    cfg.family, trial, rejected,
                )
            return inst
        rejected += 1
    raise GenerationFailed(
        f"family {cfg.family} trial {trial}: no acceptable instance"
        f" in {_MAX_ATTEMPTS} draws"
    )


# ---------------------------------------------------------------------------
# fuzz driver


# report theorem -> formula body (instance, report) -> closed-form inverse,
# for the nine block theorems and the five digraph families alike
_FORMULAS = {**_BLOCK_FORMULAS, **_GRAPH_FORMULAS}

# graph_hypotheses form of each windmill family; fuzz uses "drazin" for the rest
_FUZZ_FORMS = {theorem: form for form, theorem in _WINDMILL_FORMS.items()}


@dataclass
class VerifyReport:
    """JSON-lines fuzzing record: one dict per trial plus a summary dict."""

    config: GenConfig
    records: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.summary.get("pass_count") == self.config.trials)

    def to_jsonl(self) -> str:
        lines = [dumps_doc(rec) for rec in self.records]
        lines.append(dumps_doc(self.summary))
        return "".join(lines)

    def write(self, path) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")


def _instance_doc(inst) -> dict:
    """The instance document with complex array parts, rendered for the record digest.

    It writes the bytes of inst.to_doc() or graph_spec_to_doc(inst), which
    list it (serialize._listed).  A graph spec is not validated here; the
    accept filter or _verify's graph_hypotheses does that.
    """
    if isinstance(inst, BlockInstance):
        return inst._doc()
    return _graph_doc(inst)


def _verify(inst, form: str, tol, res_tol, max_rel_error: float, record: dict) -> None:
    """Check one instance: hypotheses, closed form, oracle, defining residuals.

    form is the graph_hypotheses form a windmill is checked under; block
    instances, double stars and linked stars ignore it.  The formula body
    is the _FORMULAS entry of the report's theorem.

    Fills record with order, hypotheses_pass and hypothesis_residuals, then,
    when every hypothesis holds, closed_form_error (the relative gap to the
    series inverse of the assembled matrix) and defining_residuals, and
    last pass.  Errors propagate and leave the fields set so far in place.
    """
    if isinstance(inst, BlockInstance):
        hyp = check_hypotheses(inst, tol, res_tol)
        assembled = inst.assembled()
    else:
        hyp = graph_hypotheses(inst, form, tol, res_tol)
        assembled = hyp._matrix
    record["order"] = assembled.shape[0]
    record["hypotheses_pass"] = hyp.passed
    record["hypothesis_residuals"] = {c.name: c.residual for c in hyp.conditions}
    if not hyp.passed:
        record["pass"] = False
        return
    closed = _FORMULAS[hyp.theorem](inst, hyp)
    oracle = dual_drazin(assembled, tol, res_tol)
    rel = float((closed - oracle.inverse).norm() / (1.0 + oracle.inverse.norm()))
    if not math.isfinite(rel):  # an overflowing closed form or oracle; no record can hold it
        raise NonFiniteEntries("the closed-form error overflows")
    defres = [float(v) for v in defining_residuals(assembled, closed, oracle.index, tol)]
    record["closed_form_error"] = rel
    record["defining_residuals"] = defres
    record["pass"] = rel <= max_rel_error and max(defres) <= max_rel_error


def fuzz(cfg: GenConfig, tol=None, res_tol=None) -> VerifyReport:
    """Generate, gate and verify cfg.trials instances of one family.

    Each trial runs the check of ddz verify (_verify).  The closed form is
    only evaluated when every hypothesis holds, so a config built to
    violate them produces a report with zero evaluations.  A DualDrazinError
    while generating, from a generator or its accept filter, fails the trial
    as a generation failure.  Counterexamples are kept on the report and,
    when artifact_dir is set, written to disk.
    """
    report = VerifyReport(config=cfg)
    for trial in range(cfg.trials):
        record: dict = {"record": "trial", "family": cfg.family, "trial": trial}
        report.records.append(record)
        # one staircase factorisation per distinct matrix of the trial: the
        # accept filter's and _verify's factorisations of a matrix are shared
        with _memo():
            try:
                inst = gen_instance(cfg, trial)
            except DualDrazinError as exc:  # GenerationFailed, or an accept filter's error
                note = str(exc) if isinstance(exc, GenerationFailed) else f"{type(exc).__name__}: {exc}"
                record.update({"pass": False, "note": note})
                continue
            doc = _instance_doc(inst)
            record["digest"] = hashlib.sha256(dumps_doc(doc).encode()).hexdigest()[:16]
            try:
                form = _FUZZ_FORMS.get(cfg.family, "drazin")
                _verify(inst, form, tol, res_tol, cfg.max_rel_error, record)
            except DualDrazinError as exc:
                record.update({"pass": False, "note": f"{type(exc).__name__}: {exc}"})
                _persist(report, cfg, trial, doc, record)
                continue
            if not record["hypotheses_pass"]:
                record["pass"] = bool(cfg.violate)
                if not cfg.violate:
                    record["note"] = "hypotheses failed on a non-violating draw"
            else:
                record["pass"] = record["pass"] and not cfg.violate
                if cfg.violate:
                    record["note"] = "closed form evaluated despite violate config"
            if not record["pass"]:
                _persist(report, cfg, trial, doc, record)
    # _verify sets closed_form_error only once the closed form is evaluated
    # and checked, so it marks an evaluated trial; a trial whose generation
    # failed has no digest
    evaluated = [r for r in report.records if "closed_form_error" in r]
    report.summary = {
        "record": "summary",
        "family": cfg.family,
        "seed": cfg.seed,
        "violate": cfg.violate,
        "trials": cfg.trials,
        "evaluated": len(evaluated),
        "hypothesis_failures": sum(r.get("hypotheses_pass") is False for r in report.records),
        "generation_failures": sum("digest" not in r for r in report.records),
        "pass_count": sum(r["pass"] for r in report.records),
        "max_closed_form_error": max([0.0, *(r["closed_form_error"] for r in evaluated)]),
        "max_defining_residual": float(max([0.0, *(max(r["defining_residuals"]) for r in evaluated)])),
    }
    return report


def _persist(report: VerifyReport, cfg: GenConfig, trial: int, doc: dict, record: dict) -> None:
    """Keep a failed trial on the report, with the listed instance document."""
    entry = {"family": cfg.family, "trial": trial, "instance": _listed(doc), "record": dict(record)}
    report.counterexamples.append(entry)
    if cfg.artifact_dir is None:
        return
    directory = Path(cfg.artifact_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{cfg.family.lower()}_{trial:04d}.json"
    path.write_text(dumps_doc(entry), encoding="utf-8")
    record["artifact"] = str(path)
