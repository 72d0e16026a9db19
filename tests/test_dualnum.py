"""Scalar dual-number algebra: arithmetic laws, inversion, the 1x1 inverse."""

import pytest
from hypothesis import example, given, strategies as st

from dualdrazin import DualScalar, scalar_dual_drazin
from dualdrazin.errors import NotAppreciable, NotDualDrazinInvertible

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
duals = st.builds(
    DualScalar,
    std=st.builds(complex, finite, finite),
    inf=st.builds(complex, finite, finite),
)


def test_product_drops_square_infinitesimal():
    z = DualScalar(1, 2) * DualScalar(3, 4)
    assert z.std == 3 and z.inf == 10
    eps = DualScalar(0, 1)
    assert eps * eps == DualScalar()


def test_one_is_neutral():
    z = DualScalar(2.5 - 1j, 0.75j)
    assert z * DualScalar(1) == z
    assert DualScalar(1) * z == z


@given(duals, duals)
def test_multiplication_commutes(x, y):
    assert x * y == y * x


@given(duals, duals, duals)
def test_multiplication_distributes(x, y, z):
    left = x * (y + z)
    right = x * y + x * z
    assert abs(left - right) <= 1e-9 * (1 + abs(x)) * (1 + abs(y) + abs(z))


def test_inverse_closed_form():
    z = DualScalar(2, 1)
    w = z.inverse()
    assert w.std == 0.5 and w.inf == -0.25
    assert z * w - DualScalar(1) == DualScalar()
    assert DualScalar(1).inverse() == DualScalar(1)


@given(duals.filter(lambda z: abs(z.std) > 1e-3))
@example(DualScalar(0.046875j, 546523j))
def test_inverse_round_trips(z):
    # the eps-part of z * z^-1 cancels two terms of size |z.inf / z.std|,
    # up to 1e9 under this strategy, so the bound scales with that size
    w = z.inverse()
    assert abs(z * w - DualScalar(1)) <= 1e-12 * (1 + abs(z.inf) / abs(z.std))


def test_inverse_needs_appreciable_part():
    with pytest.raises(NotAppreciable):
        DualScalar(0, 1).inverse()


def test_division_uses_inverse():
    q = DualScalar(1, 0) / DualScalar(2, 1)
    assert q == DualScalar(2, 1).inverse()


@pytest.mark.parametrize(
    "z, expected",
    [
        (DualScalar(0, 0), DualScalar(0, 0)),
        (DualScalar(2, 1), DualScalar(0.5, -0.25)),
        (DualScalar(1, 0), DualScalar(1, 0)),
    ],
)
def test_scalar_drazin_appreciable_and_zero(z, expected):
    assert scalar_dual_drazin(z) == expected


def test_scalar_drazin_rejects_pure_infinitesimal():
    # the only candidate is zero, and zero fails the inner equation
    with pytest.raises(NotDualDrazinInvertible):
        scalar_dual_drazin(DualScalar(0, 1))


def test_appreciable_scale_is_relative():
    tiny = DualScalar(1e-300, 1.0)
    assert not tiny.is_appreciable(scale=1.0 + abs(tiny))
