"""Complex and dual Drazin inverses against hand values and the SVD oracle."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from dualdrazin import (
    BlockInstance,
    DualMatrix,
    check_hypotheses,
    defining_residuals,
    dmul,
    dpow,
    drazin_complex,
    drazin_oracle,
    dual_drazin,
    dual_exists,
    matrix_index,
)
import dualdrazin.drazin
from dualdrazin.dualmat import numerical_rank
from dualdrazin.errors import (
    NonFiniteEntries,
    NotDualDrazinInvertible,
    ShapeMismatch,
    UncertainRank,
)
from dualdrazin.harness import _make_frame, gen_member

from conftest import MISSED_NULL_VECTOR, rand_int_dual


def random_complex(rng, n, kind):
    if kind == "dense":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "singular":
        r = max(1, n - 1)
        u = rng.standard_normal((n, r))
        v = rng.standard_normal((r, n))
        return (u @ v).astype(complex)
    # nilpotent block coupled to an invertible one
    a = np.triu(rng.integers(-2, 3, (n, n)).astype(complex), 1)
    a[: n // 2, : n // 2] += np.diag(rng.integers(1, 4, n // 2))
    return a


def test_invertible_inverse():
    a = np.array([[2.0, 1.0], [0.0, 1.0]])
    data = drazin_complex(a)
    assert data.index == 0
    assert np.allclose(data.ad, np.linalg.inv(a), atol=1e-12)


def test_nilpotent_is_zero_with_index():
    data = drazin_complex(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert data.index == 2
    assert np.allclose(data.ad, 0)


def test_idempotent_is_its_own_inverse():
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    data = drazin_complex(a)
    assert data.index == 1
    assert np.allclose(data.ad, a, atol=1e-12)
    assert np.allclose(drazin_oracle(a), a, atol=1e-9)


def test_non_square_input_is_a_shape_error():
    with pytest.raises(ShapeMismatch):
        drazin_complex(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        drazin_complex(np.zeros((2, 3)))


def test_projectors_split_the_space():
    a = np.diag([3.0, 0.0, 0.0]) + np.diag([1.0, 1.0], 1)
    data = drazin_complex(a)
    assert np.allclose(data.proj_e + data.proj_pi, np.eye(3), atol=1e-12)
    assert np.allclose(data.proj_e @ data.proj_e, data.proj_e, atol=1e-12)
    assert np.allclose(a @ data.ad, data.proj_e, atol=1e-12)


@pytest.mark.parametrize("kind", ["dense", "singular", "nilpotent"])
def test_matches_svd_oracle(kind, rng):
    for n in range(2, 7):
        a = random_complex(rng, n, kind)
        got = drazin_complex(a).ad
        want = drazin_oracle(a)
        assert np.linalg.norm(got - want) <= 1e-9 * (1 + np.linalg.norm(want))


@pytest.mark.parametrize("diag", [[1.0, 1e-11], [1e-12, 3e-12]])
def test_tiny_invertible_diagonals_keep_their_inverse(diag):
    # an absolute eigenvalue floor would drop 1e-11 from the core, or all of
    # diag(1, 3) * 1e-12; the staircase decides by relative singular values
    data = drazin_complex(np.diag(diag))
    want = np.diag(1.0 / np.asarray(diag))
    assert data.index == 0
    assert np.linalg.norm(data.ad - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "route", [drazin_complex, matrix_index, drazin_oracle, numerical_rank]
)
def test_non_finite_entries_are_rejected(route, bad):
    a = np.array([[1.0, bad], [0.0, 1.0]])
    with pytest.raises(NonFiniteEntries, match="entries must be finite"):
        route(a)


def test_a_missed_null_vector_raises_a_library_error():
    # the singular core block fails to invert; numpy's LinAlgError must not
    # leave drazin_complex, with or without the fuzz memo
    with pytest.raises(UncertainRank, match="Singular matrix"):
        drazin_complex(MISSED_NULL_VECTOR)
    with dualdrazin.drazin._memo(), pytest.raises(UncertainRank):
        dual_exists(DualMatrix(MISSED_NULL_VECTOR))


def test_members_of_order_32_have_their_inverse():
    rng = np.random.default_rng([32, 77])
    for draw in range(150):
        x = gen_member(32, rng)
        assert dual_drazin(x).exists, draw


def test_group_inverse_gate():
    # A has a group inverse exactly when Ind(A) <= 1, and it is then A^D
    idem = np.array([[1.0, 1.0], [0.0, 0.0]])
    data = drazin_complex(idem)
    assert data.index == 1
    assert np.allclose(data.ad, idem, atol=1e-12)
    assert drazin_complex(np.array([[0.0, 1.0], [0.0, 0.0]])).index == 2


def test_matrix_index_examples():
    assert matrix_index(np.eye(3)) == 0
    assert matrix_index(np.array([[0.0, 1.0], [0.0, 0.0]])) == 2
    assert matrix_index(np.zeros((2, 2))) == 1


def test_existence_condition_hand_cases():
    nil = [[0.0, 1.0], [0.0, 0.0]]
    ok, m = dual_exists(DualMatrix(nil, np.eye(2)))
    assert not ok
    assert np.allclose(m, 2 * np.asarray(nil))  # M = A*A0 + A0*A with A0 = I
    ok, m = dual_exists(DualMatrix(nil, [[0.0, 3.0], [0.0, 0.0]]))
    assert ok
    assert np.allclose(m, 0)
    ok, _ = dual_exists(DualMatrix(np.diag([1.0, 2.0]), np.ones((2, 2))))
    assert ok


def test_dual_drazin_invertible_case():
    std = np.array([[2.0, 0.0], [1.0, 1.0]])
    inf = np.array([[1.0, 2.0], [3.0, 4.0]])
    inv = np.linalg.inv(std)
    out = dual_drazin(DualMatrix(std, inf)).inverse
    assert np.allclose(out.std, inv, atol=1e-12)
    assert np.allclose(out.inf, -inv @ inf @ inv, atol=1e-12)


def test_dual_drazin_nilpotent_compatible_inf_is_zero():
    x = DualMatrix([[0.0, 1.0], [0.0, 0.0]], [[0.0, 3.0], [0.0, 0.0]])
    out = dual_drazin(x)
    assert out.inverse.norm() == 0
    assert max(defining_residuals(x, out.inverse)) <= 1e-12


def test_dual_drazin_raises_outside_the_class():
    x = DualMatrix([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    with pytest.raises(NotDualDrazinInvertible):
        dual_drazin(x)


def test_defining_equations_on_random_members(rng):
    # nilpotent std with an inf part that is a polynomial multiple keeps the
    # mixed series inside the range of the standard part
    for _ in range(20):
        n = int(rng.integers(2, 6))
        nil = np.triu(rng.integers(-2, 3, (n, n)).astype(complex), 1)
        inf = nil @ (rng.integers(-2, 3) * np.eye(n) + rng.integers(-2, 3) * nil)
        x = DualMatrix(nil, inf)
        out = dual_drazin(x)
        assert out.exists
        assert max(defining_residuals(x, out.inverse)) <= 1e-8


def test_mixed_series_is_the_eps_part_of_the_kth_power(rng):
    # integer entries keep every product exact, so both routes agree exactly
    for k in range(7):
        for _ in range(5):
            x = rand_int_dual(rng, int(rng.integers(1, 6)))
            assert np.array_equal(dualdrazin.drazin._dual_m_matrix(x, k), dpow(x, k).inf), k


@pytest.mark.parametrize("k", [0, 1, 3])
def test_power_series_is_the_sum_of_its_first_k_terms(k, rng):
    # rectangular first, so a sum that mixed up left and right would not conform
    first, left, right = rand_int_dual(rng, 2, 3), rand_int_dual(rng, 2), rand_int_dual(rng, 3)
    want = DualMatrix.zeros(2, 3)
    for i in range(k):
        want = want + dmul(dmul(dpow(left, i), first), dpow(right, i))
    got = dualdrazin.drazin._power_series(first, left, right, k)
    assert isinstance(got, DualMatrix)
    assert np.array_equal(got.std, want.std) and np.array_equal(got.inf, want.inf)
    got_std = dualdrazin.drazin._power_series(first.std, left.std, right.std, k)
    assert isinstance(got_std, np.ndarray) and np.array_equal(got_std, want.std)


def _frame_eps_truth(frame) -> np.ndarray:
    """S diag(-P^-1 P0 P^-1, 0) S^-1 for a generator frame, the core block exact."""
    a = frame.a

    def exact(m):
        assert np.array_equal(m, np.round(m.real))
        return np.round(m.real).astype(np.int64).astype(object)

    s, sinv = exact(frame.s), exact(frame.sinv)
    p, p0 = (sinv[:a] @ exact(part) @ s[:, :a] for part in (frame.matrix.std, frame.matrix.inf))
    # P is upper triangular: back-substitution gives P^-1 one column at a time
    pinv = np.full((a, a), Fraction(0), dtype=object)
    for j in range(a):
        for i in range(j, -1, -1):
            pinv[i, j] = (Fraction(int(i == j)) - p[i, i + 1:j + 1] @ pinv[i + 1:j + 1, j]) / p[i, i]
    core = (pinv @ p0 @ pinv).astype(float)
    return -(frame.s[:, :a] @ core @ frame.sinv[:a])


def test_eps_part_matches_the_frame_truth():
    # draws 3 and 12 of the order-64 frames, on which a series over powers
    # of A and A^D loses the eps-part to 6.5e-5 and 3.9e-5
    rng = np.random.default_rng([64, 5])
    frames = [_make_frame(64, rng, 2) for _ in range(13)]
    for draw in (3, 12):
        want = _frame_eps_truth(frames[draw])
        got = dual_drazin(frames[draw].matrix).inverse.inf
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want), draw


def test_power_formula_matches_repeated_product(rng):
    # (A^D + eps R)^k = (A^D)^k + eps sum_{i<k} (A^D)^i R (A^D)^(k-1-i)
    for _ in range(10):
        x = rand_int_dual(rng, 4, scale=2)
        if not dual_exists(x)[0]:
            continue
        inv = dual_drazin(x).inverse
        powers = [np.linalg.matrix_power(inv.std, i) for i in range(4)]
        for k in (1, 2, 3):
            inf = sum(powers[i] @ inv.inf @ powers[k - 1 - i] for i in range(k))
            series = DualMatrix(powers[k], inf)
            direct = dpow(inv, k)
            assert (direct - series).norm() <= 1e-10 * (1 + series.norm())


def test_residuals_report_failure_scale():
    x = DualMatrix([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    bad = DualMatrix.identity(2)
    r1, r2, r3 = defining_residuals(x, bad)
    assert max(r1, r2, r3) > 0.1


def _ref_residuals(x, candidate, k):
    """The defining residuals with A^k formed at every k, A^0 = I included."""
    xk = dpow(x, k)
    r1 = (dmul(dmul(xk, candidate), x) - xk).norm() / (1.0 + xk.norm())
    r2 = (dmul(dmul(candidate, x), candidate) - candidate).norm() / (1.0 + candidate.norm())
    ax = dmul(x, candidate)
    r3 = (ax - dmul(candidate, x)).norm() / (1.0 + ax.norm())
    return r1, r2, r3


@pytest.mark.parametrize("invertible", [True, False])
def test_residuals_match_the_power_by_power_reference(invertible, rng):
    # one X A serves r2 and r3, and r1 is X A - I at index 0; the norms are
    # bit-identical because only the signs of zero entries can move
    for n in (1, 3, 8, 16):
        x = gen_member(n, rng, invertible=invertible)
        out = dual_drazin(x)
        assert (out.index == 0) is invertible
        assert out.residuals == _ref_residuals(x, out.inverse, out.index)
        assert defining_residuals(x, x, 0) == _ref_residuals(x, x, 0)


@pytest.mark.parametrize("n", [1, 5, 64])
def test_index_zero_is_the_plain_inverse(n):
    # Q = I at index 0: no product with the staircase basis, and Pi = 0
    rng = np.random.default_rng([n, 0])
    x = DualMatrix(random_complex(rng, n, "dense"), random_complex(rng, n, "dense"))
    inv = np.linalg.inv(x.std)
    out = dual_drazin(x)
    assert out.index == 0
    assert np.array_equal(out.inverse.std, inv)
    assert np.array_equal(out.inverse.inf, -inv @ x.inf @ inv)
    assert max(out.residuals) < 1e-10
    data = out.drazin
    assert np.array_equal(data.proj_e, np.eye(n)) and not data.proj_pi.any()
    assert dualdrazin.drazin._sandwich(data, out.m_matrix) == 0.0
    with dualdrazin.drazin._memo():
        shared = drazin_complex(x.std)
        arrays = [getattr(shared, f.name) for f in dataclasses.fields(shared)]
        arrays = [arr for arr in arrays if isinstance(arr, np.ndarray)]
        assert len(arrays) == 7 and not any(arr.flags.writeable for arr in arrays)
    data.ad[...] = 0.0  # outside a memo the caller owns ad; the series keeps its own C^-1
    assert np.array_equal(dualdrazin.drazin.dual_drazin_series(x, data=data).inf, -inv @ x.inf @ inv)


def test_residuals_are_computed_once_on_first_read(monkeypatch, rng):
    calls = []

    def counted(*args):
        calls.append(args)
        return defining_residuals(*args)

    monkeypatch.setattr(dualdrazin.drazin, "defining_residuals", counted)
    x = rand_int_dual(rng, 4, scale=2)
    while not dual_exists(x)[0]:
        x = rand_int_dual(rng, 4, scale=2)
    out = dual_drazin(x)
    assert calls == []
    first = out.residuals
    assert len(calls) == 1
    assert out.residuals is first
    assert len(calls) == 1
    assert out.index == matrix_index(x.std)
    assert first == defining_residuals(x, out.inverse, out.index)



def test_existence_tests_run_through_dual_exists(monkeypatch):
    # dual_drazin and every membership condition of a hypothesis report call
    # dual_exists by name, so a wrapper installed over it sees each test
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return dual_exists(*args, **kwargs)

    monkeypatch.setattr(dualdrazin.drazin, "dual_exists", counted)
    x = DualMatrix([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    with pytest.raises(NotDualDrazinInvertible):
        dual_drazin(x)
    assert calls == [x]
    report = check_hypotheses(BlockInstance("TRI_UPPER", {"A": x, "B": x, "D": x}))
    assert len(calls) == 3
    assert [c.passed for c in report.conditions] == [False, False]


def _counted_body(monkeypatch):
    """Record the matrices the uncached body of drazin_complex factorises."""
    body = dualdrazin.drazin._drazin_complex
    calls = []

    def counted(a, tol):
        calls.append(a.tobytes())
        return body(a, tol)

    monkeypatch.setattr(dualdrazin.drazin, "_drazin_complex", counted)
    return calls


def test_drazin_complex_computes_every_call_outside_a_memo(monkeypatch):
    calls = _counted_body(monkeypatch)
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    first, second = drazin_complex(a), drazin_complex(a)
    assert len(calls) == 2 and first is not second
    for data in (first, second):
        assert all(arr.flags.writeable for arr in (data.ad, data.proj_e, data.proj_pi))


def test_memo_shares_one_read_only_factorisation(monkeypatch):
    calls = _counted_body(monkeypatch)
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    with dualdrazin.drazin._memo():
        first = drazin_complex(a)
        assert drazin_complex(a.astype(complex)) is first
        assert drazin_complex(a, 1e-10) is not first  # the tolerance is part of the key
        with pytest.raises(ValueError):
            first.ad[0, 0] = 0.0
        shared = (first.proj_e, first.proj_pi, first._basis, first._basis_inv, first._nil, first._core_inv)
        assert not any(arr.flags.writeable for arr in shared)
    assert len(calls) == 2
    assert dualdrazin.drazin._MEMO.get() is None
    drazin_complex(a)
    assert len(calls) == 3


def test_memo_shares_one_read_only_mixed_series():
    x = DualMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 3.0], [0.0, 0.0]]))
    outside = dual_exists(x)[1], dual_exists(x)[1]
    assert outside[0] is not outside[1] and all(m.flags.writeable for m in outside)
    with dualdrazin.drazin._memo():
        m = dual_exists(x)[1]
        assert dualdrazin.drazin._factorise(x, None, None).m_matrix is m
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
        other = DualMatrix(x.std, 2 * x.inf)
        assert dual_exists(other)[1] is not m  # the infinitesimal part is part of the key
    np.testing.assert_array_equal(m, outside[0])


def test_memo_is_closed_when_its_scope_raises():
    with pytest.raises(RuntimeError):
        with dualdrazin.drazin._memo():
            raise RuntimeError("inside the scope")
    assert dualdrazin.drazin._MEMO.get() is None
