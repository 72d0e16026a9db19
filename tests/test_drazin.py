"""Complex and dual Drazin inverses against hand values and the SVD oracle."""

import numpy as np
import pytest

from dualdrazin import (
    DualMatrix,
    defining_residuals,
    dmul,
    dpow,
    drazin_complex,
    drazin_oracle,
    dual_drazin,
    dual_drazin_power,
    dual_exists,
    group_inverse,
    matrix_index,
)
import dualdrazin.drazin
from dualdrazin.errors import (
    CrossCheckFailed,
    DualDrazinError,
    IndexTooLarge,
    NotDualDrazinInvertible,
    ShapeMismatch,
)

from conftest import rand_int_dual


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


def test_group_inverse_gate():
    idem = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert np.allclose(group_inverse(idem), idem, atol=1e-12)
    with pytest.raises(IndexTooLarge):
        group_inverse(np.array([[0.0, 1.0], [0.0, 0.0]]))


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


def test_power_formula_matches_repeated_product(rng):
    for _ in range(10):
        x = rand_int_dual(rng, 4, scale=2)
        if not dual_exists(x)[0]:
            continue
        inv = dual_drazin(x).inverse
        for k in (1, 2, 3):
            direct = dual_drazin_power(x, k)
            assert (direct - dpow(inv, k)).norm() <= 1e-10 * (1 + dpow(inv, k).norm())


def test_residuals_report_failure_scale():
    x = DualMatrix([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    bad = DualMatrix.identity(2)
    r1, r2, r3 = defining_residuals(x, bad)
    assert max(r1, r2, r3) > 0.1


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


def test_power_cross_check_failure_is_a_library_error(monkeypatch):
    x = DualMatrix(np.diag([2.0, 1.0]), [[0.0, 1.0], [0.0, 0.0]])
    monkeypatch.setattr(dualdrazin.drazin, "dpow", lambda y, k: y.scaled(2.0))
    with pytest.raises(CrossCheckFailed) as info:
        dual_drazin_power(x, 1)
    assert isinstance(info.value, DualDrazinError)
    assert isinstance(info.value, ArithmeticError)
