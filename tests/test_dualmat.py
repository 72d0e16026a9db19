import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualdrazin import (
    DualMatrix,
    dblock,
    dmul,
    dpow,
    indices,
    matrix_index,
    phi_embed,
    rank_dual,
    rank_std,
)
from dualdrazin.errors import ShapeMismatch
from dualdrazin.serialize import dumps_doc, matrix_from_doc, matrix_to_doc

from conftest import rand_int_dual


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
    direct = phi_embed(dmul(x, y))
    via_phi = phi_embed(x) @ phi_embed(y)
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


def test_phi_embed_layout():
    x = DualMatrix(np.zeros((2, 2)), np.eye(2))
    expected = np.block(
        [[np.zeros((2, 2)), np.eye(2)], [np.zeros((2, 2)), np.zeros((2, 2))]]
    )
    assert np.array_equal(phi_embed(x), expected)


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


def test_indices_nilpotent_standard_part():
    x = DualMatrix([[0, 1], [0, 0]])
    rep = indices(x)
    assert (rep.ind_std, rep.ind_dual, rep.ind_phi) == (2, 2, 2)


def test_indices_invertible():
    rep = indices(DualMatrix(np.diag([1.0, 2.0]), np.ones((2, 2))))
    assert (rep.ind_std, rep.ind_dual, rep.ind_phi) == (0, 0, 0)


def test_indices_pure_infinitesimal_scalar():
    # eps as a 1x1 matrix: the dual rank only collapses once the power vanishes
    rep = indices(DualMatrix([[0.0]], [[1.0]]))
    assert rep.ind_std == 1
    assert rep.ind_dual == 2
    assert rep.ind_phi == 2


def test_index_phi_within_double_bound(rng):
    for _ in range(25):
        x = rand_int_dual(rng, rng.integers(1, 6))
        rep = indices(x)
        assert rep.ind_std <= rep.ind_phi <= 2 * rep.ind_std


def test_indices_agree_with_matrix_index(rng):
    examples = [
        DualMatrix([[0, 1], [0, 0]]),
        DualMatrix(np.diag([1.0, 2.0]), np.ones((2, 2))),
        DualMatrix([[0.0]], [[1.0]]),
        DualMatrix(np.eye(3)),
        DualMatrix(np.zeros((2, 2))),
    ]
    examples += [rand_int_dual(rng, int(rng.integers(1, 6))) for _ in range(25)]
    for x in examples:
        assert indices(x).ind_std == matrix_index(x.std)


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
