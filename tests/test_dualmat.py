import gc
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dualdrazin import (
    DualMatrix,
    IndexReport,
    dblock,
    dmul,
    dpow,
    drazin_complex,
    dual_exists,
    indices,
    matrix_index,
    rank_dual,
    rank_std,
    smith_rank_oracle,
)
from dualdrazin.dualmat import _staircase, numerical_rank
from dualdrazin.errors import NonFiniteEntries, SchemaError, ShapeMismatch, UncertainRank
from dualdrazin.serialize import (
    _matrix_doc,
    _read_json,
    _vector_doc,
    dump_matrix,
    dumps_doc,
    fmt17,
    load_matrix,
    matrix_from_doc,
    matrix_to_doc,
    scalar_from_doc,
    scalar_to_doc,
    vector_from_doc,
    vector_to_doc,
)

from dualdrazin.harness import FAMILIES, GenConfig, gen_existence, gen_instance, gen_member

from conftest import (
    MISSED_NULL_VECTOR,
    MISSED_NULL_VECTOR_UPPER,
    SINGULAR_CORE,
    phi,
    rand_int_dual,
    wrong_dual_index_draw,
)


def test_shapes_must_agree():
    with pytest.raises(ShapeMismatch):
        DualMatrix(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        dmul(DualMatrix.zeros(2, 3), DualMatrix.zeros(2, 3))


def test_sums_do_not_broadcast():
    # numpy alone would broadcast the 1x1 operand to a 3x3 result
    one, eye = DualMatrix([[2]]), DualMatrix.identity(3)
    with pytest.raises(ShapeMismatch):
        one + eye
    with pytest.raises(ShapeMismatch):
        eye - one
    with pytest.raises(ShapeMismatch):
        DualMatrix.zeros(2, 3) + DualMatrix.zeros(3, 2)


def test_entries_must_be_finite():
    with pytest.raises(ValueError):
        DualMatrix(np.array([[np.inf, 0], [0, 0]]))


def test_the_public_constructor_still_validates():
    # arithmetic builds its results unchecked (DualMatrix._of); every matrix
    # made through the public constructor is still checked
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteEntries):
            DualMatrix([[1.0, bad]])
        with pytest.raises(NonFiniteEntries):
            DualMatrix([[1.0, 0.0]], [[0.0, bad]])
    with pytest.raises(ShapeMismatch):
        DualMatrix(np.zeros((2, 2)), np.zeros((2, 1)))
    with pytest.raises(ShapeMismatch):
        DualMatrix(np.zeros(3))


def test_arithmetic_results_are_complex_and_contiguous(rng):
    x, y = rand_int_dual(rng, 3), rand_int_dual(rng, 3, 2)
    results = [dmul(x, y), x + x, x - x, -x, x.copy(), dblock([[x, y], [y.T, dmul(y.T, y)]])]
    for z in results:
        for part in (z.std, z.inf):
            assert part.dtype == np.complex128 and part.ndim == 2 and part.flags.c_contiguous


def test_overflowing_products_are_left_to_the_readers():
    # the product overflows without raising; the staircase, the existence
    # series and the writer each reject what it holds
    big = DualMatrix(np.full((2, 2), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        prod = dmul(big, big)
    assert np.isinf(prod.std).all()
    with pytest.raises(NonFiniteEntries):
        _staircase(prod.std)
    with pytest.raises(NonFiniteEntries):
        dumps_doc(_matrix_doc(prod))


def _reference_finite(std, inf) -> bool:
    """The constructor's finite check as np.all over both float views."""
    std = np.ascontiguousarray(std, dtype=complex)
    inf = np.zeros_like(std) if inf is None else np.ascontiguousarray(inf, dtype=complex)
    return bool(np.all(np.isfinite(std.view(float))) and np.all(np.isfinite(inf.view(float))))


NONFINITE = [np.nan, np.inf, -np.inf]
ANY_FLOAT = st.one_of(
    st.floats(-4.0, 4.0), st.sampled_from(NONFINITE + [-0.0, 1.7976931348623157e308, -1.7976931348623157e308]),
)


def _complex_array(draw, shape):
    out = np.empty(shape, complex)
    out.real = draw(arrays(np.float64, shape, elements=ANY_FLOAT))
    out.imag = draw(arrays(np.float64, shape, elements=ANY_FLOAT))
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_finite_check_matches_the_reference(data):
    shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)))
    std = _complex_array(data.draw, shape)
    inf = _complex_array(data.draw, shape) if data.draw(st.booleans()) else None
    if _reference_finite(std, inf):
        x = DualMatrix(std, inf)
        assert np.array_equal(x.std, std)
    else:
        with pytest.raises(NonFiniteEntries):
            DualMatrix(std, inf)


def test_every_nonfinite_position_raises():
    for value in NONFINITE:
        for part in ("std", "inf"):
            for component in ("real", "imag"):
                for i, j in np.ndindex(3, 2):
                    arrs = {"std": np.zeros((3, 2), complex), "inf": np.zeros((3, 2), complex)}
                    getattr(arrs[part], component)[i, j] = value
                    with pytest.raises(NonFiniteEntries):
                        DualMatrix(arrs["std"], arrs["inf"])
    big = np.full((2, 2), 1.7976931348623157e308 - 1.7976931348623157e308j)
    big[0, 1] = -0.0 - 0.0j
    for inf in (None, big, -big):
        x = DualMatrix(big, inf)
        assert np.array_equal(x.std, big) and np.signbit(x.std[0, 1].real)


def test_dmul_identity_and_nilpotent_eps():
    y = DualMatrix(np.arange(9.0).reshape(3, 3), np.eye(3))
    assert (dmul(DualMatrix.identity(3), y) - y).norm() == 0
    eps = DualMatrix(np.zeros((3, 3)), np.eye(3))
    assert dmul(eps, eps).norm() == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dmul_matches_phi_embedding(seed):
    rng = np.random.default_rng(seed)
    x = rand_int_dual(rng, 3)
    y = rand_int_dual(rng, 3)
    direct = phi(dmul(x, y))
    via_phi = phi(x) @ phi(y)
    assert np.array_equal(direct, via_phi)


def test_dpow_conventions():
    x = rand_int_dual(np.random.default_rng(5), 4)
    assert (dpow(x, 0) - DualMatrix.identity(4)).norm() == 0
    assert (dpow(x, 1) - x).norm() == 0
    repeated = dmul(dmul(x, x), x)
    assert (dpow(x, 3) - repeated).norm() == 0
    with pytest.raises(ValueError):
        dpow(x, -1)


def test_dpow_infinitesimal_sum():
    # A = [[0,1],[0,0]], A0 = I: square has std 0 and inf A*A0 + A0*A
    x = DualMatrix([[0, 1], [0, 0]], np.eye(2))
    sq = dpow(x, 2)
    assert np.array_equal(sq.std, np.zeros((2, 2)))
    assert np.array_equal(sq.inf, np.array([[0, 2], [0, 0]], dtype=complex))


def test_ranks_on_pure_infinitesimal_identity():
    eps_eye = DualMatrix(np.zeros((3, 3)), np.eye(3))
    assert rank_std(eps_eye) == 0
    assert rank_dual(eps_eye) == 3


def test_rank_dual_counts_eps_pivots():
    x = DualMatrix([[1, 0], [0, 0]], [[0, 0], [0, 1]])
    assert rank_std(x) == 1
    assert rank_dual(x) == 2


def test_rank_dual_reduces_to_rank_without_inf(rng):
    x = DualMatrix(rand_int_dual(rng, 4).std)
    assert rank_dual(x) == rank_std(x)


@pytest.mark.parametrize("scale", [10.0**e for e in range(0, 15, 2)])
def test_rank_dual_keeps_the_standard_rank_under_a_large_eps_part(scale):
    # J + eps*sJ has exact Smith ranks (1, 0) for every s; one SVD of phi(X)
    # counted J's singular value below a floor set by s and read rank 0
    j = np.ones((2, 2))
    x = DualMatrix(j, scale * j)
    assert smith_rank_oracle(x) == (1, 0)
    assert (rank_std(x), rank_dual(x)) == (1, 1)


def test_rank_dual_matches_the_smith_oracle_at_every_eps_scale():
    # Gaussian-integer parts of random rank, the eps-part scaled up to 1e12
    rng = np.random.default_rng([9, 12])
    wrong = []
    for draw in range(400):
        m, n = (int(v) for v in rng.integers(1, 9, 2))
        ranks = rng.integers(0, min(m, n) + 1, 2)
        std, inf = (
            (rng.integers(-2, 3, (m, r)) + 1j * rng.integers(-2, 3, (m, r)))
            @ (rng.integers(-2, 3, (r, n)) + 1j * rng.integers(-2, 3, (r, n)))
            for r in ranks
        )
        x = DualMatrix(std, 10.0 ** (3 * (draw % 5)) * inf)
        if sum(smith_rank_oracle(x)) != rank_dual(x):
            wrong.append(draw)
    assert wrong == []


def test_indices_of_j_plus_eps_sj_at_s_1e10():
    # J + eps*sJ with s = 1e10: phi(X) and phi(X)^2 both have rank 2, so the
    # indices are (1, 1), and the exact Smith ranks are (1, 0)
    j = np.ones((2, 2))
    x = DualMatrix(j, 1e10 * j)
    assert indices(x) == IndexReport(ind_std=1, ind_dual=1)
    assert smith_rank_oracle(x) == (1, 0)


def test_indices_of_j_plus_eps_sj_at_s_1e12():
    # the same X at s = 1e12: the exact indices are still (1, 1).  A
    # staircase of phi(X) read 2, its floor n*tol*sigma_1(phi(X)) growing
    # with s past J's own singular values; the existence rule reads Pi M Pi,
    # where the eps-part's scale sits on both sides of the comparison
    j = np.ones((2, 2))
    assert indices(DualMatrix(j, 1e12 * j)) == IndexReport(ind_std=1, ind_dual=1)


def test_indices_nilpotent_standard_part():
    x = DualMatrix([[0, 1], [0, 0]])
    assert indices(x) == IndexReport(ind_std=2, ind_dual=2)


def test_indices_invertible():
    assert indices(DualMatrix(np.diag([1.0, 2.0]), np.ones((2, 2)))) == IndexReport(ind_std=0, ind_dual=0)


def test_indices_pure_infinitesimal_scalar():
    # eps as a 1x1 matrix: the dual rank only collapses once the power vanishes
    rep = indices(DualMatrix([[0.0]], [[1.0]]))
    assert rep.ind_std == 1
    assert rep.ind_dual == 2


def test_dual_index_of_a_large_member_is_its_phi_index():
    x = wrong_dual_index_draw()
    assert x.shape == (23, 23) and dual_exists(x)[0]
    assert indices(x) == IndexReport(ind_std=9, ind_dual=9)


def test_dual_index_agrees_with_the_labels():
    # the dual index ind phi(X) equals ind_std exactly on members
    for s in range(45):
        rng = np.random.default_rng([s, 77])
        n = int(rng.integers(2, 25))
        x = gen_member(n, rng) if s % 3 == 2 else gen_existence(n, rng, s % 3 == 0)
        rep = indices(x)
        assert (rep.ind_dual == rep.ind_std) == (s % 3 != 1), s


# (family, seed, (dim_min, dim_max), trial, exact index) of the member draws
# gen_instance(GenConfig(family, trials=40, seed, dim_min, dim_max), trial)
# whose dual index a staircase of phi(X) read too high; each is exactly
# Ind(A) = ind phi(X), from ranks of powers modulo three primes p = 1 mod 4
MOVED_MEMBERS = [
    ("TRI_UPPER", 1, (6, 10), 16, 8), ("TRI_UPPER", 1, (11, 16), 16, 11), ("TRI_UPPER", 1, (11, 16), 29, 7),
    ("TRI_UPPER", 2, (6, 10), 27, 14), ("TRI_UPPER", 2, (11, 16), 36, 14), ("TRI_LOWER", 0, (11, 16), 27, 13),
    ("TRI_LOWER", 1, (11, 16), 32, 17), ("TRI_LOWER", 2, (6, 10), 33, 8), ("TRI_LOWER", 2, (11, 16), 6, 10),
    ("TRI_LOWER", 2, (11, 16), 11, 17), ("TRI_LOWER", 2, (11, 16), 38, 12), ("ABIO_RIGHT", 0, (11, 16), 17, 20),
    ("ABIO_RIGHT", 1, (6, 10), 31, 16),
]


def test_members_the_phi_staircase_misread_get_their_exact_dual_index():
    for family, seed, (lo, hi), trial, index in MOVED_MEMBERS:
        x = gen_instance(GenConfig(family, trials=40, seed=seed, dim_min=lo, dim_max=hi), trial)._assembled()
        assert indices(x) == IndexReport(ind_std=index, ind_dual=index), (family, seed, lo, trial)


def _exact_dual_index(x):
    """The smallest t with rank phi(X^t) == rank phi(X^(t+1)), rank phi(Y) = 2r + s from Y's Smith ranks (r, s)."""
    ranks = []
    for t in range(2 * x.shape[0] + 2):  # ind phi(X) <= 2 Ind(A) <= 2n
        y = dpow(x, t)
        # Gaussian-integer entries below 2**53: the float power is the exact one
        assert max(np.abs(y.std.view(float)).max(), np.abs(y.inf.view(float)).max()) < 2.0**53
        r, s = smith_rank_oracle(y)
        ranks.append(2 * r + s)
        if t and ranks[-1] == ranks[-2]:
            return t - 1
    raise AssertionError("rank phi(X^t) did not settle")


def _small_draws():
    """Members and violate draws of every family at dims 1-5, and gen_existence non-members."""
    for family in FAMILIES:
        for violate in (False, True):
            cfg = GenConfig(family, trials=3, seed=5, dim_max=5, violate=violate)
            for trial in range(3):
                yield gen_instance(cfg, trial)._assembled()
    rng = np.random.default_rng(41)
    for n in range(1, 9):
        yield gen_existence(n, rng, False)


def test_the_dual_index_is_the_exact_phi_index_at_small_dims():
    # one rule: ind_dual == ind_std exactly when exists passes
    checked = 0
    for x in _small_draws():
        rep = indices(x)
        assert rep.ind_dual == _exact_dual_index(x), checked
        assert (rep.ind_dual == rep.ind_std) == dual_exists(x)[0], checked
        checked += 1
    assert checked == len(FAMILIES) * 6 + 8


def test_a_zero_eps_part_has_dual_index_ind_std_or_is_flagged():
    # a matrix with no eps-part always has a dual Drazin inverse; a staircase
    # of phi(X) read ind_dual = ind_std + 1 on both of these.  The complex
    # phase reads ind_std 7 against an exact 8 (known defect 2), and index
    # reads the same 7 as exists and drazin
    with pytest.raises(UncertainRank):
        indices(DualMatrix(SINGULAR_CORE))
    rep = indices(DualMatrix((1 + 1j) * MISSED_NULL_VECTOR))
    assert rep.ind_dual == rep.ind_std


def test_index_phi_within_double_bound(rng):
    for _ in range(25):
        x = rand_int_dual(rng, rng.integers(1, 6))
        rep = indices(x)
        assert rep.ind_std <= rep.ind_dual <= 2 * rep.ind_std


def test_indices_agree_with_matrix_index(rng):
    # every index routine decides in the field drazin_complex factorises in;
    # on the two real draws complex arithmetic misses a null vector (known
    # defect 2) and read 7, where the exact index (rank of powers in
    # Fractions) is 8
    turn = np.exp(0.7j)
    examples = [
        DualMatrix([[0, 1], [0, 0]]),
        DualMatrix(np.diag([1.0, 2.0]), np.ones((2, 2))),
        DualMatrix([[0.0]], [[1.0]]),
        DualMatrix(np.eye(3)),
        DualMatrix(np.zeros((2, 2))),
        DualMatrix(turn * np.array([[0, 1, 2], [0, 0, 3], [0, 0, 1j]])),
        DualMatrix([[1j, 1], [0, 0]], [[0, 1], [1, 0]]),
    ]
    examples += [rand_int_dual(rng, int(rng.integers(1, 6))) for _ in range(25)]
    examples += [DualMatrix(turn * x.std, x.inf) for x in examples[-5:]]
    exact = [DualMatrix(MISSED_NULL_VECTOR), DualMatrix(MISSED_NULL_VECTOR_UPPER)]
    for x in examples + exact:
        index = matrix_index(x.std)
        assert indices(x).ind_std == index
        try:
            assert drazin_complex(x.std).index == index
        except UncertainRank:
            pass  # drazin_complex returns nothing to compare with
    assert [matrix_index(x.std) for x in exact] == [8, 8]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_every_rank_route_takes_its_svds_in_the_working_field(field, monkeypatch):
    # the rank primitives choose the field, so a real matrix held in
    # complex128 arrays is decided in float64 whichever routine asks;
    # rank_dual's projection U2* A0 V2 is formed from the working A0
    turn, want = (1.0, np.float64) if field == "real" else (np.exp(0.7j), np.complex128)
    x = DualMatrix(turn * MISSED_NULL_VECTOR, turn * MISSED_NULL_VECTOR.T)
    svd, seen = np.linalg.svd, []

    def recording(a, *args, **kwargs):
        seen.append(a.dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    routes = {"matrix_index": lambda: matrix_index(x.std), "indices": lambda: indices(x),
              "rank_std": lambda: rank_std(x), "rank_dual": lambda: rank_dual(x),
              "drazin_complex": lambda: drazin_complex(x.std)}
    for name, route in routes.items():
        seen.clear()
        try:
            route()
        except UncertainRank:
            assert field == "complex"  # known defect 2: complex arithmetic can miss the null vector
        assert seen and set(seen) == {np.dtype(want)}, name


def _rank_of_powers(a, tol=None):
    """(k, rank(a**k)) for the smallest k >= 0 with rank(a**k) == rank(a**(k+1)).

    The index routine the staircase replaced, kept as its reference.
    """
    n = a.shape[0]
    power = np.eye(n, dtype=complex)
    prev = n
    for k in range(n + 1):
        nxt = power @ a
        r = numerical_rank(nxt, tol)
        if r == prev:
            return k, prev
        power = nxt
        prev = r
    return n, prev


def _staircase_draws():
    rng = np.random.default_rng([12, 5])
    for n in range(1, 13):
        for trial in range(6):
            if trial % 3 == 0:
                yield gen_member(n, rng)
            else:
                yield gen_existence(n, rng, positive=trial % 3 == 1)


def test_staircase_matches_the_rank_of_powers():
    checked = 0
    for x in _staircase_draws():
        for a in (x.std, phi(x)):
            k, s, q, h = _staircase(a)
            assert (k, s) == _rank_of_powers(a), a
            n = a.shape[0]
            assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-13 * n
            lower_left = (q.conj().T @ a @ q)[n - s:, :n - s]
            assert np.linalg.norm(lower_left) <= 1e-12 * n * np.linalg.norm(a)
            assert not h[n - s:, :n - s].any()
            checked += 1
    assert checked == 2 * 12 * 6


def test_staircase_edge_cases():
    assert _staircase(np.zeros((0, 0), dtype=complex))[:2] == (0, 0)
    assert _staircase(np.zeros((3, 3), dtype=complex))[:2] == (1, 0)
    k, s, q, h = _staircase(np.diag([2.0, 3.0]).astype(complex))
    assert (k, s) == (0, 2)
    assert np.array_equal(q, np.eye(2)) and np.array_equal(h, np.diag([2.0, 3.0]))
    with pytest.raises(NonFiniteEntries, match="largest singular value overflows"):
        _staircase(np.full((2, 2), 1.5e308, dtype=complex))


def test_dblock_assembles_in_order():
    a = DualMatrix.identity(2)
    z = DualMatrix.zeros(2)
    m = dblock([[z, a], [a, z]])
    assert m.shape == (4, 4)
    assert np.array_equal(m.std[:2, 2:], np.eye(2))
    assert np.array_equal(m.std[2:, :2], np.eye(2))


def test_doc_round_trip_is_bit_exact(rng):
    x = DualMatrix(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
                   rng.standard_normal((3, 3)))
    doc = matrix_to_doc(x)
    back = matrix_from_doc(doc)
    assert np.array_equal(back.std, x.std)
    assert np.array_equal(back.inf, x.inf)
    # and the serialized text itself is stable
    assert dumps_doc(matrix_to_doc(back)) == dumps_doc(doc)


def test_doc_omits_zero_infinitesimal_part():
    doc = matrix_to_doc(DualMatrix(np.eye(2)))
    assert "inf" not in doc
    assert matrix_from_doc(doc).inf.sum() == 0


# Reference writer: one pair list per entry and one fmt17 call per float.
# Every document must serialise to the same bytes under it and dumps_doc.
def _ref_pair(z):
    return [float(z.real), float(z.imag)]


def _ref_matrix_doc(x):
    doc = {"rows": x.shape[0], "cols": x.shape[1]}
    doc["std"] = [[_ref_pair(z) for z in row] for row in x.std]
    if np.any(x.inf != 0):
        doc["inf"] = [[_ref_pair(z) for z in row] for row in x.inf]
    return doc


def _ref_render(obj):
    if isinstance(obj, float):
        return fmt17(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_ref_render(v) for v in obj) + "]"
    items = (f"{json.dumps(str(k))}: {_ref_render(v)}" for k, v in obj.items())
    return "{" + ", ".join(items) + "}"


EXTREMES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EXTREMES))


@st.composite
def dual_matrices(draw):
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    re, im, inf_re, inf_im = (draw(arrays(np.float64, shape, elements=FINITE)) for _ in range(4))
    std = np.empty(shape, complex)
    std.real, std.imag = re, im
    inf = np.empty(shape, complex)
    inf.real, inf.imag = inf_re, inf_im
    return DualMatrix(std, inf if draw(st.booleans()) else None)


@st.composite
def conforming_pairs(draw):
    """x (m x k) and y (k x n) with entries from FINITE, so dmul(x, y) is defined."""
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))

    def part(shape):
        out = np.empty(shape, complex)
        out.real, out.imag = (draw(arrays(np.float64, shape, elements=FINITE)) for _ in range(2))
        return out

    return DualMatrix(part((m, k)), part((m, k))), DualMatrix(part((k, n)), part((k, n)))


@settings(max_examples=150, deadline=None)
@given(conforming_pairs())
def test_dmul_eps_part_is_the_out_of_place_sum_bit_for_bit(pair):
    # the eps-part accumulates in the first product's array; the bits,
    # signed zeros and overflows included, are those of the plain sum
    x, y = pair
    parts = [part.copy() for part in (x.std, x.inf, y.std, y.inf)]
    with np.errstate(all="ignore"):
        got = dmul(x, y)
        want_std, want_inf = x.std @ y.std, x.std @ y.inf + x.inf @ y.std
    assert got.std.tobytes() == want_std.tobytes()
    assert got.inf.tobytes() == want_inf.tobytes()
    for before, after in zip(parts, (x.std, x.inf, y.std, y.inf)):
        assert before.tobytes() == after.tobytes()


def test_a_dual_matrix_s_parts_cannot_be_rebound():
    x = DualMatrix([[1, 2]], [[3, 4]])
    y = dmul(x.T, x)  # built by _of
    for z in (x, y):
        std, inf = z.std, z.inf
        for name in ("std", "inf", "other"):
            with pytest.raises(AttributeError):
                setattr(z, name, np.zeros((1, 1), complex))
            with pytest.raises(AttributeError):
                delattr(z, name)
        assert z.std is std and z.inf is inf
    x.std[0, 0] = 5  # writes into a part are not refused
    assert x.std[0, 0] == 5


@st.composite
def near_pair_rows(draw):
    """Rows of [float, float] pairs, or the same with one entry made irregular."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[[draw(FINITE), draw(FINITE)] for _ in range(n)] for _ in range(m)]
    i, j, k = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, 1))
    change = draw(st.sampled_from(
        ["none", "int", "bool", "null", "np_float", "tuple_pair", "triple", "ragged", "empty_row"]
    ))
    if change in ("int", "bool", "null", "np_float"):
        value = {"int": 3, "bool": True, "null": None, "np_float": np.float64(-0.0)}[change]
        rows[i][j][k] = value
    elif change == "tuple_pair":
        rows[i][j] = tuple(rows[i][j])
    elif change == "triple":
        rows[i][j].append(1.5)
    elif change == "ragged":
        rows[i].append([0.5, -0.0])
    elif change == "empty_row":
        rows[i] = []
    return rows


LEAVES = st.one_of(
    FINITE, st.integers(), st.booleans(), st.none(), st.text(max_size=3), near_pair_rows()
)
DOCUMENTS = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=3), kids, max_size=3),
), max_leaves=12)


def _extreme_matrix(rows, cols, with_inf):
    """Every entry from EXTREMES, the parts' real and imaginary halves offset."""
    values = np.resize(EXTREMES, 4 * rows * cols).reshape(4, rows, cols)
    inf = values[2] + 1j * values[3] if with_inf else None
    return DualMatrix(values[0] + 1j * values[1], inf)


@settings(max_examples=150, deadline=None)
@given(dual_matrices())
@example(_extreme_matrix(1, 7, True))
@example(_extreme_matrix(7, 1, True))
@example(_extreme_matrix(1, 1, False))
@example(_extreme_matrix(3, 5, False))
def test_matrix_documents_match_the_per_entry_writer(x):
    doc, ref = matrix_to_doc(x), _ref_matrix_doc(x)
    assert doc == ref and repr(doc) == repr(ref)  # repr tells -0.0 from 0.0
    assert dumps_doc(doc) == _ref_render(ref) + "\n"
    # the CLI's array document writes the same bytes, with its extras too
    assert dumps_doc(_matrix_doc(x)) == _ref_render(ref) + "\n"
    extras = {"residuals": [EXTREMES[0], EXTREMES[1], 1e-300], "index": 3}
    assert dumps_doc(_matrix_doc(x, **extras)) == _ref_render({**ref, **extras}) + "\n"
    assert matrix_to_doc(x, **extras) == {**ref, **extras}
    column = DualMatrix(x.std[:, :1], x.inf[:, :1])
    vdoc = vector_to_doc(column)
    ref_column = _ref_matrix_doc(column)
    vref = {k: [row[0] for row in v] for k, v in ref_column.items() if k in ("std", "inf")}
    assert repr(vdoc) == repr(vref)
    assert dumps_doc(vdoc) == _ref_render(vref) + "\n"
    assert dumps_doc(_vector_doc(column)) == _ref_render(vref) + "\n"  # 1-d array parts


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_generic_documents_match_the_per_entry_writer(doc):
    assert dumps_doc({"doc": doc}) == _ref_render({"doc": doc}) + "\n"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_writers_reject_non_finite_numbers(bad):
    # inf and NaN are not JSON; every branch of the writer refuses them
    part = np.array([[1.0, 2.0 + 1j * bad]])
    x = DualMatrix._of(part, np.zeros_like(part))
    column = DualMatrix._of(part.T.copy(), np.zeros((2, 1), complex))
    for doc in ({"residual": bad}, {"residuals": [0.5, bad]}, _matrix_doc(x), _vector_doc(column),
                {"std": [[[1.0, 0.0], [2.0, bad]]]}):
        with pytest.raises(NonFiniteEntries, match="non-finite"):
            dumps_doc(doc)


def test_large_document_bytes_are_pinned(tmp_path):
    # sha256[:16] of the bytes written by the per-entry writer for this matrix
    rng = np.random.default_rng(64)
    parts = rng.standard_normal((4, 64, 64)) * 10.0 ** rng.integers(-8, 9, (4, 64, 64))
    parts[rng.random((4, 64, 64)) < 0.05] = -0.0
    std, inf = np.empty((64, 64), complex), np.empty((64, 64), complex)
    std.real, std.imag, inf.real, inf.imag = parts
    path = tmp_path / "large.json"
    x = DualMatrix(std, inf)
    dump_matrix(x, path)  # renders the arrays themselves
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == "020f96507c7ff54b"
    lists = dumps_doc(matrix_to_doc(x)).encode()
    assert hashlib.sha256(lists).hexdigest()[:16] == "020f96507c7ff54b"


# [re, im] pairs whose signed zeros and integers past 2**53 the reader must
# turn into the bits np.asarray(raw, float) and arr[..., 0] + 1j * arr[..., 1]
# have always given: 1j * -0.0 has a +0.0 imaginary part, for one
READER_PAIRS = [
    [-0.0, 1], [-0.0, -1], [1, -0.0], [-0.0, -0.0], [0, -0.0],
    [2**53 + 1, -(2**53 + 3)], [2**63 + 2**11 + 1, 3], [-(2**64 + 1), 2**70 + 12345], [5e-324, -0.0],
]


def _reference_part(raw):
    arr = np.asarray(raw, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _bits(part):
    return np.atleast_1d(np.asarray(part, dtype=complex)).view(np.uint64).tolist()


def test_readers_give_the_bits_of_the_nested_array_reader():
    n = len(READER_PAIRS)
    rows = [[READER_PAIRS[(i + j) % n] for j in range(n)] for i in range(3)]
    x = matrix_from_doc({"rows": 3, "cols": n, "std": rows, "inf": rows[::-1]})
    assert _bits(x.std) == _bits(_reference_part(rows))
    assert _bits(x.inf) == _bits(_reference_part(rows[::-1]))
    v = vector_from_doc({"std": READER_PAIRS, "inf": READER_PAIRS[::-1]})
    assert _bits(v.std[:, 0]) == _bits(_reference_part(READER_PAIRS))
    assert _bits(v.inf[:, 0]) == _bits(_reference_part(READER_PAIRS[::-1]))
    for pair in READER_PAIRS:
        z = scalar_from_doc({"std": pair, "inf": pair})
        assert _bits(z.std[0, 0]) == _bits(z.inf[0, 0]) == _bits(_reference_part(pair))


def test_a_dual_scalar_document_is_a_1x1_matrix():
    # the scalar format is unchanged; in Python a dual scalar is 1x1
    z = scalar_from_doc({"std": [2, -1], "inf": [0.5, 0]})
    assert z.shape == (1, 1) and (z.std[0, 0], z.inf[0, 0]) == (2 - 1j, 0.5)
    assert scalar_to_doc(z) == {"std": [2.0, -1.0], "inf": [0.5, 0.0]}
    assert scalar_from_doc({"std": [3, 0]}).inf[0, 0] == 0
    with pytest.raises(SchemaError):
        scalar_to_doc(DualMatrix.identity(2))


def test_load_matrix_round_trips_and_rejects_deep_nesting(tmp_path):
    x = DualMatrix([[1.0, 2.0j]], [[0.5, -1.0]])
    path = tmp_path / "x.json"
    dump_matrix(x, path)
    back = load_matrix(path)
    assert np.array_equal(back.std, x.std) and np.array_equal(back.inf, x.inf)
    # past the JSON reader's recursion limit: a schema error, not RecursionError
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(SchemaError, match="nests too deeply"):
        load_matrix(path)


READ_JSON_CASES = [
    (b'{"rows": 1, "cols": 1, "std": [[[1, 0]]]}', None),
    (b'{"note": "\xff"}', "not UTF-8"),
    (b'{"rows": 1,', "not valid JSON"),
    (b"[" * 100_000 + b"]" * 100_000, "nests too deeply"),
]


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize(("data", "message"), READ_JSON_CASES, ids=["good", "non-utf8", "bad-json", "deep-nesting"])
def test_reading_json_pauses_the_collector_and_restores_it(collecting, data, message, monkeypatch):
    parse, during = json.loads, []

    def loads(text):
        during.append(gc.isenabled())
        return parse(text)

    monkeypatch.setattr(json, "loads", loads)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if message is None:
            assert _read_json("doc.json", lambda: data) == parse(data)
        else:
            with pytest.raises(SchemaError, match=message):
                _read_json("doc.json", lambda: data)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is collecting
    # json parses with the collector paused; undecodable bytes never reach it
    assert during == ([] if message == "not UTF-8" else [False])
