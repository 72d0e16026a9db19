"""Randomised instance generation and fuzz verification for the closed forms.

Generators build instances whose hypotheses hold exactly, by working in
integer frames: a unimodular shear conjugates a block split into an
invertible triangular part and a shifted nilpotent part, and borders are
supported on exact kernels of that nilpotent part.  Membership in the
invertible class is then either structural or enforced by an exact-filter
and resample loop.

fuzz drives a family of such instances through the one check that ddz
verify also runs (blocks._verify): hypotheses, the closed form, the series
inverse of the assembled matrix as oracle, and the three defining
equations.  It emits a deterministic JSON-lines report.
"""

from __future__ import annotations

import hashlib
import logging
import zlib
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockInstance, _verify
from .digraphs import DLinkedStars, DoubleStar, DutchWindmill
from .drazin import _factorise, _memo
from .dualmat import DualMatrix, dmul
from .errors import DualDrazinError, GenerationFailed, SpecInvalid
from .families import _WINDMILL_FORMS, FAMILIES, GRAPH_FAMILIES
from .serialize import _listed, dumps_doc

logger = logging.getLogger(__name__)

_MAX_ATTEMPTS = 120

# generated integer entries lie in -_SCALE.._SCALE
_SCALE = 2

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
    for exercising the rejection paths.  A run writes nothing: its
    counterexamples stay on the report (fuzz), and ddz fuzz --artifacts
    writes them with the report.
    """

    family: str
    trials: int = 100
    seed: int = 0
    dim_min: int = 1
    dim_max: int = 5
    max_rel_error: float = 1e-8
    violate: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecInvalid(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.trials < 1:
            raise SpecInvalid("trials must be at least 1")
        if not 1 <= self.dim_min <= self.dim_max:
            raise SpecInvalid("need 1 <= dim_min <= dim_max")


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


def _in_class(x: DualMatrix) -> bool:
    # the factorisation a trial's hypothesis report reuses through the memo
    return _factorise(x, None, None).exists


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


def _int(rng) -> int:
    return int(rng.integers(-_SCALE, _SCALE + 1))


def _ints(rng, shape) -> np.ndarray:
    return rng.integers(-_SCALE, _SCALE + 1, shape).astype(complex)


def _nonzero_ints(rng, count) -> np.ndarray:
    vals = rng.integers(1, _SCALE + 1, count) * _choice(rng, (-1, 1), count)
    return vals.astype(complex)


def _int_dual(rng, m, n) -> DualMatrix:
    return DualMatrix(_ints(rng, (m, n)), _ints(rng, (m, n)))


def _invertible_triu(n, rng) -> np.ndarray:
    """Upper-triangular integers with a +-1/+-2 diagonal, so invertible."""
    t = np.triu(_ints(rng, (n, n)))
    if n:
        np.fill_diagonal(t, _choice(rng, (-2, -1, 1, 2), n))
    return t


def _unimodular(n, rng) -> tuple[np.ndarray, np.ndarray]:
    """Integer shear product with exactly known integer inverse.

    Each shear draws i and j as two scalar integers(0, n) calls, not one
    integers(0, n, 2): the size-2 call takes about four times as long
    (4.0 against 1.1 us, numpy 2.4 on one core of a 2 vCPU Linux VM), most
    of it spent handling the size.  Both give the same values from the
    same stream, because for a range below 2**32 numpy takes each bounded
    value from the generator's own buffered 32-bit draws, one value at a
    time.  The shear is applied in place, to a row of S^T (a column of S)
    and a row of S^-1; the entries are small integers, so the sums are
    exact.
    """
    s = np.eye(n)
    sinv = np.eye(n)
    cols = s.T
    for _ in range(n + 2):
        i = rng.integers(0, n)
        j = rng.integers(0, n)
        if i == j:
            continue
        # s <- s (I + c e_i e_j^T) and sinv <- (I - c e_i e_j^T) sinv
        add, sub = (np.add, np.subtract) if _choice(rng, (-1, 1)) > 0 else (np.subtract, np.add)
        add(cols[j], cols[i], out=cols[j])
        sub(sinv[i], sinv[j], out=sinv[i])
    return s.astype(complex), sinv.astype(complex)


def _frame_draws(n, a, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """S and S^-1, then diag(P, 0) and diag(P0, 0) of order n, drawn in that order.

    S is a unimodular shear, P an a x a invertible upper-triangular block
    and P0 its eps-part: the first draws of every frame stratum.
    """
    s, sinv = _unimodular(n, rng)
    std = np.zeros((n, n), dtype=complex)
    inf = np.zeros((n, n), dtype=complex)
    std[:a, :a] = _invertible_triu(a, rng)
    inf[:a, :a] = _ints(rng, (a, a))
    return s, sinv, std, inf


def _conj(s, sinv, *parts) -> tuple[np.ndarray, ...]:
    """S X S^-1 for each part X."""
    return tuple(s @ x @ sinv for x in parts)


def _superdiag_nilpotent(b, rng) -> tuple[np.ndarray, list[int], list[int]]:
    """Nilpotent with 0/1/2 on the superdiagonal, and its kernel and left-kernel positions.

    Column j + 1 and row j are zero exactly when coefficient j is, so these
    unit vectors, with column 0 and row b - 1, span the kernel and left kernel.
    """
    n = np.zeros((b, b), dtype=complex)
    zeros = []
    for j in range(b - 1):
        c = _choice(rng, (0, 1, 1, 2))
        if c == 0:
            zeros.append(j)
        n[j, j + 1] = c
    kernel = [0] + [j + 1 for j in zeros] if b else []
    left_kernel = [b - 1] + zeros if b else []
    return n, kernel, left_kernel


def _poly_of(mat, rng, unit) -> np.ndarray:
    b = mat.shape[0]
    out = np.zeros((b, b), dtype=complex)
    if unit:
        out += _choice(rng, (1, -1, 2)) * np.eye(b)
    power = mat.copy()
    for _ in range(min(b, 3)):
        out += _int(rng) * power
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


def _make_frame(n, rng, a=None, nilpotent_inf=True) -> _Frame:
    """Shear-conjugated invertible-plus-nilpotent split, a member by construction.

    The infinitesimal part is block diagonal in the frame: arbitrary on the
    invertible block, a multiple of the nilpotent block on the other, which
    keeps the mixed series supported away from the nilpotent projector.
    """
    if a is None:
        a = int(rng.integers(0, n + 1))
    s, sinv, std, inf = _frame_draws(n, a, rng)
    nil, kernel, left_kernel = _superdiag_nilpotent(n - a, rng)
    std[a:, a:] = nil
    inf[a:, a:] = nil @ _poly_of(nil, rng, unit=bool(rng.integers(0, 2))) if nilpotent_inf else np.eye(n - a)
    matrix = DualMatrix(*_conj(s, sinv, std, inf))
    return _Frame(s, sinv, a, nil, kernel, left_kernel, matrix)


def gen_member(dim: int, rng, *, invertible: bool | None = None) -> DualMatrix:
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
    return _make_frame(dim, rng, a=a).matrix


def gen_existence(dim: int, rng, positive: bool) -> DualMatrix:
    """Exact-arithmetic instance for the existence test, labelled by design.

    Positive instances share the member frame.  Negative ones put the
    identity on the nilpotent block of the infinitesimal part, which makes
    the projected mixed series an integer matrix of norm at least one.
    """
    if positive:
        return gen_member(dim, rng)
    a = int(rng.integers(0, dim))
    return _make_frame(dim, rng, a=a, nilpotent_inf=False).matrix


# ---------------------------------------------------------------------------
# per-family generators


def _orthogonal_pair(r, rng) -> tuple[DualMatrix, DualMatrix]:
    """Fan weight pair with u^T v = 0 in both parts, all standard entries nonzero."""
    if r < 2:
        raise GenerationFailed("dual-orthogonal fans need at least two leaves")
    for _ in range(_MAX_ATTEMPTS):
        v_std = _nonzero_ints(rng, r)
        v_std[-1] = 1.0
        u_std = _nonzero_ints(rng, r)
        u_std[-1] = -(u_std[:-1] @ v_std[:-1])
        if u_std[-1] == 0:
            continue
        v_inf = _ints(rng, r)
        u_inf = _ints(rng, r)
        u_inf[-1] = -(u_std @ v_inf) - (u_inf[:-1] @ v_std[:-1])
        return DualMatrix.column(u_std, u_inf), DualMatrix.column(v_std, v_inf)
    raise GenerationFailed("could not build a dual-orthogonal fan pair")


def _gen_cline(cfg, trial, rng):
    if cfg.violate:
        m = _dim(cfg, trial, rng)
        bad = gen_existence(m, rng, positive=False)
        return BlockInstance("CLINE", {"A": DualMatrix.identity(m), "B": bad}), True
    m = _dim(cfg, trial, rng)
    n = int(rng.integers(1, m + 1))
    a = _int_dual(rng, m, n)
    b = _int_dual(rng, n, m)
    ok = _in_class(dmul(b, a)) and _in_class(dmul(a, b))
    return BlockInstance("CLINE", {"A": a, "B": b}), ok


def _gen_tri(cfg, trial, rng):
    na = _dim(cfg, trial, rng)
    nd = int(rng.integers(max(1, cfg.dim_min), cfg.dim_max + 1))
    a = gen_existence(na, rng, positive=False) if cfg.violate else gen_member(na, rng)
    inst = BlockInstance(cfg.family, {"A": a, "B": _int_dual(rng, na, nd), "D": gen_member(nd, rng)})
    return inst, cfg.violate or _in_class(inst.assembled())


def _gen_sum(cfg, trial, rng):
    n = _dim(cfg, trial, rng)
    a = int(rng.integers(0, n + 1))
    b = n - a
    s, sinv, p_std, p_inf = _frame_draws(n, a, rng)
    q_std = np.zeros((n, n), dtype=complex)
    q_std[a:, :a] = _ints(rng, (b, a))
    if b and rng.integers(0, 2):
        q_std[a:, a:] = _invertible_triu(b, rng)
        q_inf = np.zeros((n, n), dtype=complex)
        q_inf[a:, :a] = _ints(rng, (b, a))
        q_inf[a:, a:] = _ints(rng, (b, b))
    else:
        nil, _, _ = _superdiag_nilpotent(b, rng)
        q_std[a:, a:] = nil
        # nilpotent stratum: the infinitesimal part is Q*g(Q), which kills
        # every term of the mixed series exactly
        q_inf = q_std @ _poly_of(q_std, rng, unit=True)
    if cfg.violate:
        q_std[:a, :a] = np.eye(a)
    p = DualMatrix(*_conj(s, sinv, p_std, p_inf))
    q = DualMatrix(*_conj(s, sinv, q_std, q_inf))
    inst = BlockInstance("SUM_PQ0", {"P": p, "Q": q})
    if cfg.violate:
        return inst, a > 0
    ok = _in_class(p) and _in_class(q) and _in_class(p + q)
    return inst, ok


def _kernel_cols(rows, cols, kernel, rng) -> tuple[np.ndarray, np.ndarray]:
    """Standard and eps-parts, drawn in that order, of a block nonzero only on the kernel rows."""
    parts = np.zeros((2, rows, cols), dtype=complex)
    for part in parts:
        for col in range(cols):
            for pos in kernel:
                part[pos, col] = _int(rng)
    return parts[0], parts[1]


def _gen_abio(cfg, trial, rng):
    n = _dim(cfg, trial, rng)
    if cfg.violate:
        # invertible A makes A A^e B = A B, never zero against B = I
        frame = _make_frame(n, rng, a=n)
        return BlockInstance(cfg.family, {"A": frame.matrix, "B": DualMatrix.identity(n)}), True
    frame = _make_frame(n, rng)
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
        b_std[a:, :a], b_inf[a:, :a] = _kernel_cols(b, a, frame.kernel, rng)
    else:
        b_std[:a, a:], b_inf[:a, a:] = (w.T for w in _kernel_cols(b, a, frame.left_kernel, rng))
    bb = DualMatrix(*_conj(frame.s, frame.sinv, b_std, b_inf))
    inst = BlockInstance(cfg.family, {"A": frame.matrix, "B": bb})
    ok = _in_class(bb) and _in_class(inst.assembled())
    return inst, ok


def _gen_abco(cfg, trial, rng):
    n = _dim(cfg, trial, rng)
    if cfg.violate:
        frame = _make_frame(n, rng, a=n)
        blocks = {
            "A": frame.matrix,
            "B": DualMatrix.identity(n),
            "C": DualMatrix.identity(n),
        }
        return BlockInstance(cfg.family, blocks), True
    frame = _make_frame(n, rng, a=int(rng.integers(0, n)))
    a, b = frame.a, frame.b
    nil = frame.nil
    shear = _poly_of(nil, rng, unit=False)
    w1, w1t = _kernel_cols(b, a, frame.kernel, rng)
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
        v1, v1t = (w.T for w in _kernel_cols(b, a, frame.left_kernel, rng))
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
        bad = gen_existence(n, rng, positive=False)
        return BlockInstance("BIPARTITE", {"B": DualMatrix.identity(n), "C": bad}), True
    p = n if rng.integers(0, 2) else int(rng.integers(n, max(cfg.dim_max, n) + 1))
    b = _int_dual(rng, n, p)
    c = _int_dual(rng, p, n)
    inst = BlockInstance("BIPARTITE", {"B": b, "C": c})
    ok = _in_class(dmul(b, c)) and _in_class(inst.assembled())
    return inst, ok


def _gen_double_star(cfg, trial, rng):
    m = _dim(cfg, trial, rng)
    n = _dim(cfg, trial, rng, floor=2)
    x = DualMatrix.column(_nonzero_ints(rng, m), _ints(rng, m))
    y = DualMatrix.column(_nonzero_ints(rng, m), _ints(rng, m))
    a, b = (DualMatrix([[_choice(rng, (-2, -1, 1, 2))]], [[_int(rng)]]) for _ in range(2))
    if cfg.violate:
        ones = DualMatrix.column(np.ones(n))
        spec = DoubleStar(m=m, n=n, x=x, y=y, w=ones, v=ones, a=a, b=b)
        return spec, True
    w, v = _orthogonal_pair(n, rng)
    spec = DoubleStar(m=m, n=n, x=x, y=y, w=w, v=v, a=a, b=b)
    return spec, spec._theta[1] is not None and _in_class(spec._adjacency)


def _gen_linked_stars(cfg, trial, rng):
    n = _dim(cfg, trial, rng)
    base = gen_member(n, rng)
    r = tuple(int(rng.integers(2, 5)) for _ in range(n))
    pairs = [_orthogonal_pair(ri, rng) for ri in r]
    x = tuple(p[0] for p in pairs)
    y = tuple(p[1] for p in pairs)
    if cfg.violate:
        ones = DualMatrix.column(np.ones(r[0]))
        x = (ones,) + x[1:]
        y = (ones,) + y[1:]
        return DLinkedStars(base=base, r=r, x=x, y=y), True
    spec = DLinkedStars(base=base, r=r, x=x, y=y)
    return spec, _in_class(spec._adjacency)


def _windmill_sizes(cfg, trial, rng) -> tuple[int, int]:
    m = _dim(cfg, trial, rng)
    n = int(rng.integers(1, 4))
    return m, n


def _gen_windmill(cfg, trial, rng):
    m, n = _windmill_sizes(cfg, trial, rng)
    size = 2 * n - 1
    if cfg.violate:
        return _ones_fans(m, n, tuple(DualMatrix.identity(size) for _ in range(m))), True
    if rng.integers(0, 2):
        blades, x, y = _eps_fanned_blades(m, size, rng)
    else:
        # nilpotent stratum: weights supported on the exact kernels, so
        # D W and W D vanish identically for the hub product W
        blades = []
        x = []
        y = []
        for _ in range(m):
            nil, kernel, left = _superdiag_nilpotent(size, rng)
            inf = nil @ _poly_of(nil, rng, unit=True)
            blades.append(DualMatrix(nil, inf))
            y_vec = DualMatrix(*_kernel_cols(size, 1, kernel, rng))
            if y_vec.norm() == 0:
                y_vec = DualMatrix.column(np.eye(size)[kernel[0]])
            x_vec = DualMatrix(*_kernel_cols(size, 1, left, rng))
            if x_vec.norm() == 0:
                x_vec = DualMatrix.column(np.eye(size)[left[0]])
            y.append(y_vec)
            x.append(x_vec)
        blades = tuple(blades)
    spec = DutchWindmill(m=m, n=n, blades=blades, x=tuple(x), y=tuple(y))
    # the closed form also inverts the hub product W = sum y_s x_t^T, which
    # can fall outside the class even when the assembled adjacency does not
    _, b, c = spec._parts
    return spec, _in_class(spec._adjacency) and _in_class(dmul(b, c))


def _ones_fans(m: int, n: int, blades) -> DutchWindmill:
    """Windmill whose every fan weight is one, for the violating draws."""
    ones = DualMatrix.column(np.ones(2 * n - 1))
    return DutchWindmill(m=m, n=n, blades=blades, x=(ones,) * m, y=(ones,) * m)


def _eps_fanned_blades(m, size, rng) -> tuple[tuple[DualMatrix, ...], ...]:
    """m invertible blades and pure-epsilon fans: every y_s x_t^T is eps^2 = 0."""
    blades = tuple(_invertible_dual(size, rng) for _ in range(m))
    x = tuple(DualMatrix.column(np.zeros(size), _nonzero_ints(rng, size)) for _ in range(m))
    y = tuple(DualMatrix.column(np.zeros(size), _nonzero_ints(rng, size)) for _ in range(m))
    return blades, x, y


def _invertible_dual(n, rng) -> DualMatrix:
    """S P S^-1 with eps-part P0, left unconjugated."""
    s, sinv, std, inf = _frame_draws(n, n, rng)
    return DualMatrix(*_conj(s, sinv, std), inf)


def _gen_windmill_bc0(cfg, trial, rng):
    m, n = _windmill_sizes(cfg, trial, rng)
    size = 2 * n - 1
    if cfg.violate:
        return _ones_fans(m, n, tuple(_invertible_dual(size, rng) for _ in range(m))), True
    blades, x, y = _eps_fanned_blades(m, size, rng)
    spec = DutchWindmill(m=m, n=n, blades=blades, x=x, y=y)
    return spec, _in_class(spec._adjacency)


def _gen_windmill_group(cfg, trial, rng):
    """A windmill from one of two strata, each blade of it from the same one.

    Invertible stratum: invertible blades and pure-epsilon fans, so every
    fan outer product y_s x_t^T is zero and so is the hub product W.
    Singular stratum: each blade is a group frame S diag(P, 0) S^-1 with
    epsilon part S diag(P0, 0) S^-1, y_s lies in its kernel span S[:, a:]
    and x_s in its left kernel, the row span of S^-1[a:, :], in both parts.
    Then D_s y_s = 0 and x_t^T D_t = 0, so the hub product W, whose (s, t)
    block is y_s x_t^T, has D W = W D = 0, which meets commutation and
    annihilation.  W = u v^T + eps(...) is rank one with standard trace
    sum_s x_s^T y_s; a draw where that trace is zero has a nilpotent W and
    is redrawn.

    Mixing the strata gives no member.  With s invertible and t singular: if
    x_t has a standard part, the (s, t) block of the annihilation defect
    D D D^D W is D_s y_s x_t^T, which must vanish, so y_s = 0, which a
    windmill forbids; if x_t is pure epsilon, W is pure epsilon and
    nonzero, which fails hub_membership.
    """
    m, n = _windmill_sizes(cfg, trial, rng)
    size = 2 * n - 1
    if cfg.violate:
        return _ones_fans(m, n, tuple(_invertible_dual(size, rng) for _ in range(m))), True
    if rng.integers(0, 2):
        blades, x, y = _eps_fanned_blades(m, size, rng)
        spec = DutchWindmill(m=m, n=n, blades=blades, x=x, y=y)
        return spec, _in_class(spec._adjacency)
    blades, x, y, traces = zip(*(_kernel_fanned_blade(size, rng) for _ in range(m)))
    spec = DutchWindmill(m=m, n=n, blades=blades, x=x, y=y)
    return spec, sum(traces) != 0 and _in_class(spec._adjacency)


def _kernel_fanned_blade(size, rng) -> tuple[DualMatrix, DualMatrix, DualMatrix, complex]:
    """Group-frame blade with a = dim P in [0, size), its fans (x, y), and x^T y.

    The standard parts are y = S[:, a:] eta and x = S^-1[a:, :]^T xi, so the
    standard x^T y is xi^T eta.
    """
    a = int(rng.integers(0, size))
    s, sinv, std, inf = _frame_draws(size, a, rng)
    blade = DualMatrix(*_conj(s, sinv, std, inf))
    kernel, left = s[:, a:], sinv[a:, :].T
    eta = _nonzero_ints(rng, size - a)
    xi = _nonzero_ints(rng, size - a)
    y = DualMatrix.column(kernel @ eta, kernel @ _ints(rng, size - a))
    x = DualMatrix.column(left @ xi, left @ _ints(rng, size - a))
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


def fuzz(cfg: GenConfig, tol=None, res_tol=None) -> VerifyReport:
    """Generate, gate and verify cfg.trials instances of one family.

    Each trial runs the check of ddz verify (_verify).  The closed form is
    only evaluated when every hypothesis holds, so a config built to
    violate them produces a report with zero evaluations.  A DualDrazinError
    while generating, from a generator or its accept filter, fails the trial
    as a generation failure.  Each failed trial that got an instance is kept
    on the report as a counterexample; fuzz writes no file.
    """
    report = VerifyReport(config=cfg)
    for trial in range(cfg.trials):
        record: dict = {"record": "trial", "family": cfg.family, "trial": trial}
        report.records.append(record)
        # one factorisation record per distinct matrix of the trial: the
        # accept filter's and _verify's factorisations of a matrix are shared
        with _memo():
            try:
                inst = gen_instance(cfg, trial)
            except DualDrazinError as exc:  # GenerationFailed, or an accept filter's error
                note = str(exc) if isinstance(exc, GenerationFailed) else f"{type(exc).__name__}: {exc}"
                record.update({"pass": False, "note": note})
                continue
            doc = inst._doc()  # the public document's bytes, its parts left as arrays
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
    """Keep a failed trial on the report, with the listed instance document.

    The entry holds a copy of the record, so the artifact path ddz fuzz adds
    to the record later stays out of the counterexample document.
    """
    entry = {"family": cfg.family, "trial": trial, "instance": _listed(doc), "record": dict(record)}
    report.counterexamples.append(entry)
