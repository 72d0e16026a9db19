"""Dual numbers as 1x1 dual matrices: the product theta uses, and the 1x1 inverse."""

import pytest
from hypothesis import example, given, strategies as st

from dualdrazin import DoubleStar, DualMatrix, dmul, scalar_dual_drazin
from dualdrazin.errors import NotDualDrazinInvertible, ShapeMismatch, SpecInvalid

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
complexes = st.builds(complex, finite, finite)
duals = st.builds(lambda std, inf: DualMatrix([[std]], [[inf]]), complexes, complexes)


def dual(std, inf=0):
    return DualMatrix([[std]], [[inf]])


def parts(z):
    return complex(z.std[0, 0]), complex(z.inf[0, 0])


def size(z):
    return max(abs(z.std[0, 0]), abs(z.inf[0, 0]))


def test_product_drops_square_infinitesimal():
    assert parts(dmul(dual(1, 2), dual(3, 4))) == (3, 10)
    assert parts(dmul(dual(0, 1), dual(0, 1))) == (0, 0)


def test_one_is_neutral():
    z = dual(2.5 - 1j, 0.75j)
    assert parts(dmul(z, dual(1))) == parts(z)
    assert parts(dmul(dual(1), z)) == parts(z)


@given(duals, duals)
def test_multiplication_commutes(x, y):
    assert parts(dmul(x, y)) == parts(dmul(y, x))


@given(duals, duals, duals)
def test_multiplication_distributes(x, y, z):
    left = dmul(x, y + z)
    right = dmul(x, y) + dmul(x, z)
    assert size(left - right) <= 1e-9 * (1 + size(x)) * (1 + size(y) + size(z))


def test_inverse_closed_form():
    z = dual(2, 1)
    w = scalar_dual_drazin(z)
    assert parts(w) == (0.5, -0.25)
    assert parts(dmul(z, w)) == (1, 0)
    assert parts(scalar_dual_drazin(dual(1))) == (1, 0)


@given(duals.filter(lambda z: abs(z.std[0, 0]) > 1e-3))
@example(dual(0.046875j, 546523j))
def test_inverse_round_trips(z):
    # the eps-part of z * z^D cancels two terms of size |z.inf / z.std|,
    # up to 1e9 under this strategy, so the bound scales with that size
    w = scalar_dual_drazin(z)
    std, inf = parts(z)
    assert size(dmul(z, w) - dual(1)) <= 1e-12 * (1 + abs(inf) / abs(std))


@pytest.mark.parametrize(
    "z, expected",
    [
        (dual(0, 0), (0, 0)),
        (dual(2, 1), (0.5, -0.25)),
        (dual(1, 0), (1, 0)),
    ],
)
def test_scalar_drazin_appreciable_and_zero(z, expected):
    w = scalar_dual_drazin(z)
    assert w.shape == (1, 1) and parts(w) == expected


def test_scalar_drazin_rejects_pure_infinitesimal():
    # the only candidate is zero, and zero fails the inner equation
    with pytest.raises(NotDualDrazinInvertible):
        scalar_dual_drazin(dual(0, 1))


def test_appreciable_scale_is_relative():
    # the standard part a is weighed against 1 + |a| + |b|: 1e-3 is a unit
    # beside an infinitesimal part of 1, and none beside one of 1e10
    assert scalar_dual_drazin(dual(1e-3, 1.0)).std[0, 0] == 1.0 / 1e-3
    for z in (dual(1e-3, 1e10), dual(1e-300, 1.0)):
        with pytest.raises(NotDualDrazinInvertible):
            scalar_dual_drazin(z)


def test_scalar_drazin_takes_only_a_1x1_matrix():
    with pytest.raises(ShapeMismatch):
        scalar_dual_drazin(DualMatrix.identity(2))


@pytest.mark.parametrize("std", [1 + 0.5e-12, 1 + 1.5e-12, 1 + 2.5e-12, 1 + 3e-12, 2.0])
def test_a_hub_weight_is_valid_exactly_when_it_is_invertible(std):
    # one rule decides both: beside an eps part of 1e12 the threshold on the
    # standard part is 1e-12 * (1 + std + 1e12), about 1 + 2e-12
    hub = dual(std, 1e12)
    try:
        scalar_dual_drazin(hub)
    except NotDualDrazinInvertible:
        invertible = False
    else:
        invertible = True
    try:
        DoubleStar(m=1, n=1, x=dual(1), y=dual(1), w=dual(1), v=dual(1), a=hub, b=dual(1))
    except SpecInvalid:
        valid = False
    else:
        valid = True
    assert valid == invertible == (std > 1 + 2e-12)
