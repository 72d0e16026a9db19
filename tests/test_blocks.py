import json

import numpy as np
import pytest

from dualdrazin import (
    BlockInstance,
    DualMatrix,
    THEOREMS,
    abco_drazin,
    abio_drazin,
    bipartite_drazin,
    blocks,
    check_hypotheses,
    cline,
    closed_form,
    dmul,
    dual_drazin,
    dual_exists,
    matrix_index,
    sum_pq_zero,
    tri_drazin,
)
from dualdrazin.cli import main
from dualdrazin.blocks import Condition, HypothesisReport, _require, abco_series
from dualdrazin.errors import HypothesisViolated, IndexTooLarge, NotDualDrazinInvertible, ShapeMismatch
from dualdrazin.harness import GenConfig, gen_instance
from dualdrazin.serialize import matrix_to_doc

from conftest import rand_int_dual, rel_err, sub


def dual_eye(n):
    return DualMatrix.identity(n)


def test_cline_identity_blocks():
    assert (cline(dual_eye(3), dual_eye(3)) - dual_eye(3)).norm() <= 1e-12


def test_cline_zero_factor():
    a = rand_int_dual(np.random.default_rng(0), 3, 2)
    assert cline(a, DualMatrix.zeros(2, 3)).norm() == 0


def test_cline_rectangular_matches_direct(rng):
    for _ in range(10):
        a = rand_int_dual(rng, 3, 2)
        b = rand_int_dual(rng, 2, 3)
        want = dual_drazin(dmul(a, b)).inverse
        assert rel_err(cline(a, b), want) <= 1e-9


def test_cline_with_identity_reduces_to_dual_drazin(rng):
    a = rand_int_dual(rng, 3)
    want = dual_drazin(a).inverse
    assert rel_err(cline(a, dual_eye(3)), want) <= 1e-9


def test_tri_zero_coupling_is_block_diagonal(rng):
    a = rand_int_dual(rng, 2)
    d = rand_int_dual(rng, 3)
    out = tri_drazin(a, DualMatrix.zeros(2, 3), d)
    assert np.allclose(out.std[:2, 2:], 0) and np.allclose(out.inf[:2, 2:], 0)
    assert rel_err(sub(out, slice(0, 2), slice(0, 2)), dual_drazin(a).inverse) <= 1e-9
    assert rel_err(sub(out, slice(2, 5), slice(2, 5)), dual_drazin(d).inverse) <= 1e-9


def test_tri_invertible_top_nilpotent_bottom(rng):
    # with D = 0 only the i = 0 term of the coupling series survives
    a = rand_int_dual(rng, 2)
    while abs(np.linalg.det(a.std)) < 0.5:
        a = rand_int_dual(rng, 2)
    b = rand_int_dual(rng, 2)
    d = DualMatrix.zeros(2)
    out = tri_drazin(a, b, d)
    ad = dual_drazin(a).inverse
    want = dmul(dmul(ad, ad), b)
    assert rel_err(sub(out, slice(0, 2), slice(2, 4)), want) <= 1e-9


def test_tri_lower_orientation(rng):
    # invertible diagonal blocks keep the assembled matrix invertible too
    def invertible():
        x = rand_int_dual(rng, 2)
        while abs(np.linalg.det(x.std)) < 0.5:
            x = rand_int_dual(rng, 2)
        return x

    a, b, d = invertible(), rand_int_dual(rng, 2), invertible()
    inst = BlockInstance("TRI_LOWER", {"A": a, "B": b, "D": d})
    want = dual_drazin(inst.assembled()).inverse
    assert rel_err(tri_drazin(a, b, d, orientation="lower"), want) <= 1e-8


def test_tri_rejects_unknown_orientation(rng):
    a = rand_int_dual(rng, 2)
    with pytest.raises(ValueError):
        tri_drazin(a, a, a, orientation="diagonal")


def test_sum_block_diagonal_split(rng):
    n1 = np.triu(rng.integers(-2, 3, (2, 2)).astype(complex), 1)
    p = DualMatrix(np.block([[n1, np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))]]))
    q_core = rand_int_dual(rng, 2)
    q = DualMatrix(
        np.block([[np.zeros((2, 2)), np.zeros((2, 2))], [np.zeros((2, 2)), q_core.std]]),
        np.block([[np.zeros((2, 2)), np.zeros((2, 2))], [np.zeros((2, 2)), q_core.inf]]),
    )
    assert dmul(p, q).norm() == 0
    want = dual_drazin(p + q).inverse
    assert rel_err(sum_pq_zero(p, q), want) <= 1e-9


def test_sum_degenerate_operands(rng):
    p = rand_int_dual(rng, 3)
    z = DualMatrix.zeros(3)
    assert rel_err(sum_pq_zero(p, z), dual_drazin(p).inverse) <= 1e-12
    assert rel_err(sum_pq_zero(z, p), dual_drazin(p).inverse) <= 1e-12


def test_sum_rejects_nonzero_product(rng):
    p = dual_eye(2)
    with pytest.raises(HypothesisViolated):
        sum_pq_zero(p, p)


def test_abio_zero_corner_block():
    # A = 0 leaves [[0, B^e],[B^D, 0]]
    rng = np.random.default_rng(11)
    b = rand_int_dual(rng, 3)
    while abs(np.linalg.det(b.std)) < 0.5:
        b = rand_int_dual(rng, 3)
    out = abio_drazin(DualMatrix.zeros(3), b)
    bd = dual_drazin(b).inverse
    be = dmul(b, bd)
    assert rel_err(sub(out, slice(0, 3), slice(3, 6)), be) <= 1e-9
    assert rel_err(sub(out, slice(3, 6), slice(0, 3)), bd) <= 1e-9
    assert np.allclose(out.std[:3, :3], 0) and np.allclose(out.std[3:, 3:], 0)


def test_abio_nilpotent_with_identity_coupling():
    a = DualMatrix([[0.0, 1.0], [0.0, 0.0]])
    out = abio_drazin(a, dual_eye(2))
    expected = np.block(
        [[np.zeros((2, 2)), np.eye(2)], [np.eye(2), -a.std]]
    )
    assert np.allclose(out.std, expected, atol=1e-10)
    assert np.allclose(out.inf, 0, atol=1e-10)


def test_abco_zero_bottom_row(rng):
    a = rand_int_dual(rng, 3)
    b = rand_int_dual(rng, 3, 2)
    c = DualMatrix.zeros(2, 3)
    out = abco_drazin(a, b, c)
    ad = dual_drazin(a).inverse
    want_tr = dmul(dmul(ad, ad), b)
    assert rel_err(sub(out, slice(0, 3), slice(0, 3)), ad) <= 1e-9
    assert rel_err(sub(out, slice(0, 3), slice(3, 5)), want_tr) <= 1e-9
    assert np.allclose(out.std[3:, :], 0) and np.allclose(out.inf[3:, :], 0)


def test_abco_zero_core_is_bipartite(rng):
    b = rand_int_dual(rng, 2, 3)
    c = rand_int_dual(rng, 3, 2)
    out = abco_drazin(DualMatrix.zeros(2), b, c)
    want = bipartite_drazin(b, c)
    assert rel_err(out, want) <= 1e-9


@pytest.mark.parametrize("zero", ["A", "W"])
def test_a_structural_zero_skips_its_products_in_the_abco_series(zero, monkeypatch):
    # None for A = A^D = 0 (BIPARTITE) or W = W^D = 0 (the BC = 0 bodies)
    # gives the values of the zero blocks, from 2 and 6 products against 15;
    # the identities hold for any inverses, so random integer blocks do
    rng = np.random.default_rng(7)
    a, xa, w, xw = (rand_int_dual(rng, 3) for _ in range(4))
    b, c = rand_int_dual(rng, 3, 2), rand_int_dual(rng, 2, 3)
    z = DualMatrix.zeros(3)
    zeros, skipped = {
        "A": ((z, b, c, z, w, xw, 2), (None, b, c, None, w, xw, 2)),
        "W": ((a, b, c, xa, z, z, 1), (a, b, c, xa, None, None, 1)),
    }[zero]
    want = blocks._abco_formula(*zeros)
    products = []

    def counted(x, y):
        products.append((x, y))
        return dmul(x, y)

    monkeypatch.setattr(blocks, "dmul", counted)
    got = blocks._abco_formula(*skipped)
    assert np.array_equal(got.std, want.std) and np.array_equal(got.inf, want.inf)
    assert len(products) == {"A": 2, "W": 6}[zero]


def _abco_chain(side, index):
    """(A, W) with A = diag(P, 0) + eps diag(P0, 0) and W nilpotent of the given index.

    W shifts down the index - 1 coordinates outside the core of A and is
    coupled to the core through its core columns (right side, zero core
    rows) or its core rows (left side, zero core columns), so the ABCO
    series has nonzero terms past its first.  On the left the last term,
    i = index - 1, only ever meets A or W on its right, which annihilate
    it; there only index 3 reaches past the first term.
    """
    z = index - 1
    n = 2 + z
    a_std, a_inf, w = (np.zeros((n, n), dtype=complex) for _ in range(3))
    a_std[:2, :2] = [[2, 1], [1, 1]]
    a_inf[:2, :2] = [[1, -1], [2, 0]]
    for i in range(z - 1):
        w[2 + i, 3 + i] = 1
    coupling = np.array([[1, 2], [-1, 1]])[:z]
    if side == "right":
        w[2:, :2] = coupling
    else:
        w[:2, 2:] = coupling.T
    return DualMatrix(a_std, a_inf), DualMatrix(w)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("index", [2, 3])
def test_abco_series_past_its_first_term(side, index):
    a, w = _abco_chain(side, index)
    assert matrix_index(w.std) == index
    ad = dual_drazin(a).inverse
    cross = dmul(w, ad) if side == "right" else dmul(ad, w)
    assert cross.norm() > 0
    inst = BlockInstance(f"ABCO_{side.upper()}", {"A": a, "B": w, "C": dual_eye(a.shape[0])})
    want = dual_drazin(inst.assembled()).inverse
    got = closed_form(inst)
    assert (got - want).norm() <= 1e-12 * want.norm()
    # the ungated series runs the gated body on the same factorisations
    series = abco_series(a, w, dual_eye(a.shape[0]), side)
    assert series.std.tobytes() == got.std.tobytes() and series.inf.tobytes() == got.inf.tobytes()


def test_abco_series_rejects_an_unknown_side():
    a = dual_eye(2)
    with pytest.raises(ValueError, match="side must be 'right' or 'left'"):
        abco_series(a, a, a, side="up")


@pytest.mark.parametrize("side", ["right", "left"])
def test_abco_series_refuses_an_a_outside_the_class(side):
    # N + eps E with N nilpotent of index 2 and (N + eps E)^2 = eps I: no
    # dual Drazin inverse, which the series meets when it factorises A
    a = DualMatrix([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
    assert not dual_exists(a)[0]
    with pytest.raises(NotDualDrazinInvertible):
        abco_series(a, dual_eye(2), dual_eye(2), side)


@pytest.mark.parametrize("violate", [False, True])
def test_the_left_abco_report_is_the_right_report_of_the_transpose(violate):
    # the left body is the right series of (A^T, C^T, B^T), transposed; the
    # left report, kept native, must give the verdict the right report of
    # that triple gives
    verdicts = set()
    for seed in range(3):
        cfg = GenConfig("ABCO_LEFT", trials=20, seed=seed, violate=violate)
        for trial in range(cfg.trials):
            inst = gen_instance(cfg, trial)
            a, b, c = inst["A"], inst["B"], inst["C"]
            left = check_hypotheses(inst)
            right = check_hypotheses(BlockInstance("ABCO_RIGHT", {"A": a.T, "B": c.T, "C": b.T}))
            flags = [[(x.name, x.passed) for x in rep.conditions] for rep in (left, right)]
            assert flags[0] == flags[1]
            verdicts.add(left.passed)
    assert verdicts == {not violate}


def test_bipartite_identity_is_involution():
    out = bipartite_drazin(dual_eye(2), dual_eye(2))
    want = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    assert np.allclose(out.std, want) and np.allclose(out.inf, 0)


def test_bipartite_zero_block():
    assert bipartite_drazin(DualMatrix.zeros(2, 3), rand_int_dual(np.random.default_rng(1), 3, 2)).norm() == 0


def test_bipartite_random_matches_direct(rng):
    b = rand_int_dual(rng, 3)
    c = rand_int_dual(rng, 3)
    inst = BlockInstance("BIPARTITE", {"B": b, "C": c})
    want = dual_drazin(inst.assembled()).inverse
    assert rel_err(bipartite_drazin(b, c), want) <= 1e-8


def test_hypothesis_report_names_every_condition(rng):
    a = rand_int_dual(rng, 3)
    b = rand_int_dual(rng, 3, 2)
    inst = BlockInstance("ABCO_RIGHT", {"A": a, "B": b, "C": DualMatrix.zeros(2, 3)})
    rep = check_hypotheses(inst)
    assert rep.passed
    assert {c.name for c in rep.conditions} >= {"annihilation", "commutation"}
    assert all(c.residual == 0 for c in rep.conditions)


def test_hypothesis_failure_has_scale():
    rep = check_hypotheses(
        BlockInstance("ABIO_RIGHT", {"A": dual_eye(2), "B": dual_eye(2)})
    )
    assert not rep.passed
    assert rep.residual("annihilation") > 0.1


def test_strict_mode_rejects_tiny_nonzero():
    # PQ has a 1e-13 entry: inside tolerance, but not exactly zero
    p = DualMatrix(np.diag([1.0, 0.0]))
    q = DualMatrix(np.array([[1e-13, 0.0], [0.0, 1.0]]))
    inst = BlockInstance("SUM_PQ0", {"P": p, "Q": q})
    assert check_hypotheses(inst).passed


def test_formula_functions_reject_violations(rng):
    a = dual_eye(2)
    with pytest.raises(HypothesisViolated):
        abio_drazin(a, a)
    with pytest.raises(HypothesisViolated):
        abco_drazin(a, a, a)


EPS = DualMatrix([[0]], [[1]])  # a pure infinitesimal: outside the class
ONE = dual_eye(1)

# theorem -> blocks whose report fails only the membership of EPS; every
# residual hypothesis holds, because A = EPS gives A A^e = 0 and A A^pi = EPS
MEMBERSHIP_ONLY = {
    "SUM_PQ0": ({"P": EPS, "Q": DualMatrix.zeros(1)}, "membership_P"),
    "ABIO_RIGHT": ({"A": EPS, "B": ONE}, "membership_A"),
    "ABIO_LEFT": ({"A": EPS, "B": ONE}, "membership_A"),
    "ABCO_RIGHT": ({"A": EPS, "B": ONE, "C": ONE}, "membership_A"),
    "ABCO_LEFT": ({"A": EPS, "B": ONE, "C": ONE}, "membership_A"),
}


@pytest.mark.parametrize("theorem", sorted(MEMBERSHIP_ONLY))
def test_a_block_outside_the_class_is_not_a_violated_hypothesis(theorem):
    blocks, name = MEMBERSHIP_ONLY[theorem]
    inst = BlockInstance(theorem, blocks)
    assert [c.name for c in check_hypotheses(inst).conditions if not c.passed] == [name]
    with pytest.raises(NotDualDrazinInvertible, match=f"^{theorem}: {name}="):
        closed_form(inst)


def _report(*failed):
    names = ("blade_group_index", "commutation", "membership_A", "hub_membership")
    return HypothesisReport("T", tuple(Condition(n, float(n in failed), n not in failed) for n in names))


def test_the_gate_raises_for_an_index_then_a_residual_then_a_membership():
    assert _require(_report()) is None
    with pytest.raises(IndexTooLarge,
                       match=r"^T: blade_group_index=1\.000e\+00, commutation=1\.000e\+00, membership_A=1\.000e\+00$"):
        _require(_report("blade_group_index", "commutation", "membership_A"))
    with pytest.raises(IndexTooLarge, match=r"^T: blade_group_index=1\.000e\+00, hub_membership="):
        _require(_report("blade_group_index", "hub_membership"))
    with pytest.raises(HypothesisViolated, match=r"^T: commutation=1\.000e\+00, hub_membership=1\.000e\+00$"):
        _require(_report("commutation", "hub_membership"))
    with pytest.raises(NotDualDrazinInvertible, match=r"^T: membership_A=1\.000e\+00, hub_membership="):
        _require(_report("membership_A", "hub_membership"))


def test_instance_doc_round_trip(rng):
    inst = BlockInstance(
        "TRI_UPPER",
        {"A": rand_int_dual(rng, 2), "B": rand_int_dual(rng, 2, 3), "D": rand_int_dual(rng, 3)},
    )
    back = BlockInstance.from_doc(inst.to_doc())
    assert back.theorem == inst.theorem
    for key in inst.blocks:
        assert (back[key] - inst[key]).norm() == 0


def test_instance_validates_blocks():
    with pytest.raises(ValueError):
        BlockInstance("NOPE", {})
    with pytest.raises(ShapeMismatch):
        BlockInstance("CLINE", {"A": DualMatrix.zeros(2)})


# one block-size disagreement per theorem, each of a kind the theorem's
# assembly or formula would otherwise hit later (SUM_PQ0 by broadcasting)
NONCONFORMING = {
    "CLINE": {"A": DualMatrix.zeros(2, 3), "B": DualMatrix.zeros(2, 3)},
    "TRI_UPPER": {"A": dual_eye(2), "B": DualMatrix.zeros(3, 2), "D": dual_eye(2)},
    "TRI_LOWER": {"A": DualMatrix.zeros(2, 3), "B": DualMatrix.zeros(2, 3), "D": dual_eye(3)},
    "SUM_PQ0": {"P": DualMatrix([[1]]), "Q": dual_eye(3)},
    "ABIO_RIGHT": {"A": dual_eye(2), "B": dual_eye(3)},
    "ABIO_LEFT": {"A": dual_eye(2), "B": DualMatrix.zeros(2, 3)},
    "ABCO_RIGHT": {"A": dual_eye(2), "B": DualMatrix.zeros(2, 3), "C": DualMatrix.zeros(2, 2)},
    "ABCO_LEFT": {"A": dual_eye(2), "B": DualMatrix.zeros(3, 1), "C": DualMatrix.zeros(1, 2)},
    "BIPARTITE": {"B": DualMatrix.zeros(2, 3), "C": DualMatrix.zeros(2, 3)},
}


@pytest.mark.parametrize("theorem", THEOREMS)
def test_nonconforming_blocks_are_rejected_where_built(theorem, tmp_path, capsys):
    blocks = NONCONFORMING[theorem]
    with pytest.raises(ShapeMismatch):
        BlockInstance(theorem, blocks)
    doc = {"theorem": theorem, "blocks": {k: matrix_to_doc(v) for k, v in blocks.items()}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "-i", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_closed_form_dispatches_every_theorem(rng):
    # closed_form and the per-theorem functions must agree on easy instances
    eye2 = dual_eye(2)
    z22 = DualMatrix.zeros(2)
    cases = {
        "CLINE": {"A": eye2, "B": eye2},
        "TRI_UPPER": {"A": eye2, "B": z22, "D": eye2},
        "TRI_LOWER": {"A": eye2, "B": z22, "D": eye2},
        "SUM_PQ0": {"P": z22, "Q": eye2},
        "ABIO_RIGHT": {"A": z22, "B": eye2},
        "ABIO_LEFT": {"A": z22, "B": eye2},
        "ABCO_RIGHT": {"A": z22, "B": eye2, "C": eye2},
        "ABCO_LEFT": {"A": z22, "B": eye2, "C": eye2},
        "BIPARTITE": {"B": eye2, "C": eye2},
    }
    assert set(cases) == set(THEOREMS)
    for theorem, blocks in cases.items():
        inst = BlockInstance(theorem, blocks)
        got = closed_form(inst)
        want = dual_drazin(inst.assembled()).inverse
        assert rel_err(got, want) <= 1e-9, theorem
