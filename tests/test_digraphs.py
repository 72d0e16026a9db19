"""Adjacency builders, their zero patterns, and the specialized inverses."""

import dataclasses
import hashlib

import numpy as np
import pytest

import dualdrazin.blocks
import dualdrazin.digraphs
from dualdrazin import (
    BlockInstance,
    DoubleStar,
    DLinkedStars,
    DualMatrix,
    DutchWindmill,
    bipartite_dual,
    build_adjacency,
    check_hypotheses,
    defining_residuals,
    dls_dual_drazin,
    dmul,
    ds_dual_drazin,
    dual_drazin,
    dw_bc_zero,
    dw_dual_drazin,
    dw_group,
    graph_hypotheses,
    graph_spec_from_doc,
    graph_spec_to_doc,
    indices,
    windmill_pattern,
)
from dualdrazin.blocks import _closed
from dualdrazin.errors import HypothesisViolated, IndexTooLarge, ShapeMismatch, SpecInvalid
from dualdrazin.harness import _FUZZ_FORMS, GRAPH_FAMILIES, GenConfig, _verify, gen_instance

from conftest import rand_int_dual, rel_err, sub


def col(std, inf=None):
    return DualMatrix.column(std, inf)


def unit_star(m, n):
    """All-ones star weights with an orthogonal hub-2 fan."""
    w = [1.0] * n
    v = [1.0] * n
    if n > 1:
        w = [1.0] * (n - 1) + [-(n - 1.0)]
    else:
        w, v = [0.0], [0.0]
    return DoubleStar(
        m=m,
        n=n,
        x=col([1.0] * m),
        y=col([1.0] * m),
        w=col(w, None if n > 1 else [1.0]),
        v=col(v, None if n > 1 else [1.0]),
        a=DualMatrix([[1.0]]),
        b=DualMatrix([[1.0]]),
    )


# ---- builders ------------------------------------------------------------


def test_double_star_small_build():
    spec = unit_star(3, 2)
    bld = build_adjacency(spec)
    assert bld.matrix.shape == (7, 7)
    assert len(bld.vertex_order) == 7
    assert bld.vertex_order[0] == "hub1" and bld.vertex_order[4] == "hub2"
    nonzero = (bld.matrix.std != 0) | (bld.matrix.inf != 0)
    # 3 + 2 leaf pairs plus the hub pair, every arc bidirected
    assert int(nonzero.sum()) == 12
    # arcs only between hubs and their own leaves
    assert not nonzero[1:4, 1:4].any()
    assert not nonzero[5:, 5:].any()
    assert not nonzero[1:4, 4:].any()


def test_linked_stars_build_sizes():
    rng = np.random.default_rng(2)
    base = rand_int_dual(rng, 3)
    r = (2, 3, 2)
    spec = DLinkedStars(
        base=base,
        r=r,
        x=tuple(col([1.0] * ri) for ri in r),
        y=tuple(col([1.0] * ri) for ri in r),
    )
    bld = build_adjacency(spec)
    assert bld.matrix.shape == (10, 10)
    assert bld.vertex_order[:3] == ("core1", "core2", "core3")
    # leaves never talk to each other
    assert not (bld.matrix.std[3:, 3:] != 0).any()


def test_windmill_unit_pattern():
    spec = windmill_pattern(4, 2)
    bld = build_adjacency(spec)
    a = bld.matrix.std.real
    assert bld.matrix.shape == (13, 13)
    assert np.array_equal(a, a.T)
    assert bld.matrix.inf.sum() == 0
    assert int((a != 0).sum()) == 32  # 16 bidirected arcs
    assert bld.metadata["kappa"] == 2 * 4 * 2 - 4 + 1
    # each blade is a path of three vertices tied to the hub at both ends
    for s in range(4):
        b1, b2, b3 = 1 + 3 * s, 2 + 3 * s, 3 + 3 * s
        assert a[0, b1] == a[b1, 0] == 1 and a[0, b3] == a[b3, 0] == 1
        assert a[0, b2] == 0
        assert a[b1, b2] == a[b2, b3] == 1 and a[b1, b3] == 0


def test_windmill_bipartition_is_exact():
    bld = build_adjacency(windmill_pattern(4, 2))
    perm = np.asarray(bld.permutation_to_bipartite)
    assert sorted(perm.tolist()) == list(range(13))
    shuffled = bld.matrix.std[np.ix_(perm, perm)]
    k = 1 + 4 * (2 - 1)  # hub plus the odd position of each blade path
    assert np.count_nonzero(shuffled[:k, :k]) == 0
    assert np.count_nonzero(shuffled[k:, k:]) == 0
    assert np.count_nonzero(shuffled) == 32


def test_validation_catches_bad_specs():
    # a spec is checked when it is built, however it is built
    spec = unit_star(2, 2)
    with pytest.raises(SpecInvalid):
        unit_star(0, 2)
    with pytest.raises(SpecInvalid):
        DoubleStar(m=2, n=2, x=col([1.0, 0.0]), y=spec.y, w=spec.w, v=spec.v, a=spec.a, b=spec.b)
    with pytest.raises(SpecInvalid):
        dataclasses.replace(spec, a=DualMatrix([[0]], [[1]]))
    with pytest.raises(SpecInvalid):
        dataclasses.replace(spec, m=3)  # x and y keep two entries
    with pytest.raises(SpecInvalid):
        windmill_pattern(0, 3)
    wm = windmill_pattern(2, 2)
    with pytest.raises(SpecInvalid):
        dataclasses.replace(wm, blades=wm.blades[:1])
    with pytest.raises(SpecInvalid):
        DLinkedStars(base=DualMatrix.identity(2), r=(2,), x=(col([1.0, 1.0]),), y=(col([1.0, 1.0]),))
    doc = graph_spec_to_doc(spec)
    for bad in ({**doc, "m": 3}, {**doc, "x": {"std": [[1, 0], [0, 0]]}}):
        with pytest.raises(SpecInvalid):
            graph_spec_from_doc(bad)
    with pytest.raises(SpecInvalid):
        graph_spec_from_doc({**graph_spec_to_doc(wm), "n": 3})  # 3x3 blades, 5 wanted
    # anything but a spec is refused by every public graph function, and a
    # family's closed form refuses a spec of every other family
    linked = DLinkedStars(base=DualMatrix.identity(2), r=(1, 1), x=(col([1.0]),) * 2, y=(col([1.0]),) * 2)
    forms = [(ds_dual_drazin, spec), (dls_dual_drazin, linked), (dw_dual_drazin, wm), (dw_bc_zero, wm),
             (dw_group, wm)]
    for public in (build_adjacency, graph_hypotheses, graph_spec_to_doc, *(form for form, _ in forms)):
        with pytest.raises(SpecInvalid):
            public(DualMatrix.identity(3))
    for form, own in forms:
        for other in (spec, linked, wm):
            if other is not own:
                with pytest.raises(SpecInvalid, match=f"a {type(own).__name__} closed form got a "):
                    form(other)


@pytest.mark.parametrize("hub", [1.0, DualMatrix([[1.0, 1.0]]), DualMatrix([[1.0], [1.0]]),
                                 DualMatrix([[1e-300]], [[1.0]]), DualMatrix([[0.0]])],
                         ids=["number", "row", "column", "inappreciable", "zero"])
def test_a_double_star_refuses_a_hub_weight_that_is_not_an_appreciable_1x1_matrix(hub):
    # a hub arc is a 1x1 dual matrix whose standard part is a unit at the
    # scale 1 + |std| + |inf| (dualnum._appreciable)
    spec = unit_star(2, 2)
    for name in ("a", "b"):
        with pytest.raises(SpecInvalid, match=f"hub-to-hub weight {name} must be"):
            dataclasses.replace(spec, **{name: hub})


def test_a_built_spec_s_weights_are_read_only():
    # the check and the kept adjacency have read the weights; a write that
    # neither would see raises instead, even before the adjacency is laid out
    spec = windmill_pattern(2, 2)
    with pytest.raises(ValueError):
        spec.x[0].std[0, 0] = 7
    with pytest.raises(ValueError):
        spec.y[1].inf[0, 0] = 1
    with pytest.raises(ValueError):
        spec.blades[0].std[0, 1] = 0
    star = unit_star(2, 2)
    links = DLinkedStars(base=DualMatrix.identity(2), r=(1, 1), x=(col([1.0]), col([2.0])),
                         y=(col([1.0]), col([3.0])))
    weights = [star.x, star.y, star.w, star.v, star.a, star.b, links.base, *links.x, *links.y]
    assert not any(part.flags.writeable for w in weights for part in (w.std, w.inf))
    assert build_adjacency(spec).matrix.std[0, 1] == 1


def test_a_built_spec_s_weights_cannot_be_rebound():
    # the read-only flags stop writes into a part; rebinding the part would
    # leave the kept adjacency reading the old one, so it raises as well
    spec = windmill_pattern(2, 2)
    matrix = build_adjacency(spec).matrix
    before = matrix.std.copy(), matrix.inf.copy()
    with pytest.raises(AttributeError):
        spec.x[0].std = np.full((3, 1), 7 + 0j)
    with pytest.raises(AttributeError):
        del spec.y[0].inf
    assert build_adjacency(spec).matrix is matrix
    assert np.array_equal(matrix.std, before[0]) and np.array_equal(matrix.inf, before[1])
    assert matrix.std[0, 1] == 1


@pytest.mark.parametrize("family", GRAPH_FAMILIES)
def test_the_kept_adjacency_is_read_only_and_shared(family, monkeypatch):
    # build_adjacency and _verify read the one matrix the spec laid out, and
    # the report and the formula body the blocks it was built from; none
    # lays them out again
    spec = gen_instance(GenConfig(family, trials=1, seed=3, dim_max=3), 0)
    matrix = build_adjacency(spec).matrix
    assert not matrix.std.flags.writeable and not matrix.inf.flags.writeable
    with pytest.raises(ValueError):
        matrix.inf[0, 0] = 1.0
    assert build_adjacency(spec).matrix is matrix
    parts = spec._parts
    assert all(not x.std.flags.writeable and not x.inf.flags.writeable for x in parts)
    with pytest.raises(ValueError):
        parts[1].std[0, 0] = 1.0
    assert spec._parts is parts

    def no_layout(spec, part):
        raise AssertionError("laid out again")

    monkeypatch.setattr(dualdrazin.digraphs, "_blocks", no_layout)
    oracle_inputs = []
    oracle = dualdrazin.blocks.dual_drazin
    monkeypatch.setattr(dualdrazin.blocks, "dual_drazin", lambda x, *args: oracle_inputs.append(x) or oracle(x, *args))
    form = _FUZZ_FORMS.get(family, "drazin")
    _closed(spec, graph_hypotheses(spec, form))
    record = {}
    _verify(spec, form, None, None, 1e-8, record)
    assert record["pass"] and len(oracle_inputs) == 1 and oracle_inputs[0] is matrix


# sha256[:16] of build_adjacency (both parts, then the vertex labels) and of
# each family's closed form, for gen_instance(GenConfig(family, trials=3,
# seed=5), trial).  The adjacency entries are integers; the closed forms are
# float output, pinned bit for bit against layout rewrites.  The bytes also
# carry the sign of each zero, so a change that moves only zero signs
# (np.array_equal to the old values, checked before re-pinning) moves them.
PINNED_LAYOUTS = {
    "DOUBLE_STAR": [("89f5000d74fd9851", "cfa6e56114e51c93"), ("db62749ff785a720", "3672abadc49f0656"),
                    ("9b0678bb1dfb0fa2", "182f38220f6da752")],
    "LINKED_STARS": [("abf86d4f1db66c6a", "67042dfda5683aea"), ("34b897497c1bc535", "d3b18f98f425beea"),
                     ("9508e95cc4d777df", "2407d7f0190d3ee4")],
    "WINDMILL": [("dcfb4b453eee68f5", "2e73045bad0b765b"), ("6bdfc08886812545", "6c190262bc64fb52"),
                 ("0af182a93d89bf9c", "69f73988ecce07c5")],
    "WINDMILL_BC0": [("8797db4794f6339d", "97ebf6dde3a9db43"), ("425249e89e2a2319", "1db65d2ff406b650"),
                     ("07e740ac70f89609", "645794f01a067e11")],
    "WINDMILL_GROUP": [("b27068c7db85cd48", "c6055b5461f13a8d"), ("2b0249d53919c64f", "d2d7943e7bf0fd6f"),
                       ("58d61930b986447e", "e6204db387eddd4e")],
}
CLOSED_FORMS = {
    "DOUBLE_STAR": ds_dual_drazin,
    "LINKED_STARS": dls_dual_drazin,
    "WINDMILL": dw_dual_drazin,
    "WINDMILL_BC0": dw_bc_zero,
    "WINDMILL_GROUP": dw_group,
}


def _digest(matrix, labels=()):
    h = hashlib.sha256(matrix.std.tobytes() + matrix.inf.tobytes())
    h.update("\n".join(labels).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("family", sorted(PINNED_LAYOUTS))
def test_layouts_and_closed_forms_are_pinned(family):
    cfg = GenConfig(family, trials=3, seed=5)
    got = []
    for trial in range(cfg.trials):
        spec = gen_instance(cfg, trial)
        build = build_adjacency(spec)
        got.append((_digest(build.matrix, build.vertex_order), _digest(CLOSED_FORMS[family](spec))))
    assert got == PINNED_LAYOUTS[family]


def _float_star_doc(rng):
    """A double star document with uniform float weights, both parts, and pure-infinitesimal hub-2 fans.

    The fans' product w^T v is eps^2 = 0, so the report passes and
    ds_dual_drazin evaluates the body.
    """
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))

    def weight(count):
        std, inf = rng.uniform(-3, 3, (2, count, 2)).tolist()
        return {"std": std, "inf": inf}

    def fan(count):
        return {"std": [[0.0, 0.0]] * count, "inf": weight(count)["inf"]}

    def hub():
        std, inf = rng.uniform(-3, 3, (2, 2)).tolist()
        return {"std": std, "inf": inf}

    return {"family": "double_star", "m": m, "n": n, "x": weight(m), "y": weight(m), "w": fan(n), "v": fan(n),
            "a": hub(), "b": hub()}


def test_theta_and_the_double_star_inverse_are_pinned_on_float_weights():
    # PINNED_LAYOUTS draws Gaussian integers only; theta = x^T y + ab, its
    # inverse 1/theta_s - eps theta_i/theta_s^2 and the closed form are
    # pinned bit for bit on 32 float-weight specs read from documents
    rng = np.random.default_rng(33)
    h = hashlib.sha256()
    for _ in range(32):
        spec = graph_spec_from_doc(_float_star_doc(rng))
        for z in (*spec._theta, ds_dual_drazin(spec)):
            h.update(z.std.tobytes() + z.inf.tobytes())
    assert h.hexdigest()[:16] == "43fd3963f8473806"


# ---- closed forms --------------------------------------------------------


def test_double_star_smallest_instance():
    """Pure-infinitesimal second fan, theta = x.y + a*b = 2."""
    spec = unit_star(1, 1)
    a_hat = build_adjacency(spec).matrix
    x_hat = ds_dual_drazin(spec)
    # the inverse satisfies the inner and commutation equations exactly,
    # and the power equation at the dual index of the adjacency matrix
    assert (dmul(x_hat, dmul(a_hat, x_hat)) - x_hat).norm() <= 1e-14
    assert (dmul(a_hat, x_hat) - dmul(x_hat, a_hat)).norm() <= 1e-14
    rep = indices(a_hat)
    assert (rep.ind_std, rep.ind_dual, rep.ind_phi) == (1, 2, 2)
    assert max(defining_residuals(a_hat, x_hat, k=rep.ind_dual)) <= 1e-12


def test_double_star_matches_direct_inverse():
    # generated specs are filtered for membership of the assembled matrix
    cfg = GenConfig(family="DOUBLE_STAR", trials=1, seed=5, dim_min=2, dim_max=3)
    for trial in range(4):
        spec = gen_instance(cfg, trial)
        a_hat = build_adjacency(spec).matrix
        assert rel_err(ds_dual_drazin(spec), dual_drazin(a_hat).inverse) <= 1e-9


def test_double_star_rejects_skew_fans():
    spec = unit_star(3, 2)
    bad = DoubleStar(m=3, n=2, x=spec.x, y=spec.y,
                     w=col([1.0, 1.0]), v=col([1.0, 1.0]),
                     a=spec.a, b=spec.b)
    with pytest.raises(HypothesisViolated):
        ds_dual_drazin(bad)


def test_linked_stars_zero_core_collapses():
    r = (2, 2)
    spec = DLinkedStars(
        base=DualMatrix.zeros(2),
        r=r,
        x=tuple(col([1.0, -1.0]) for _ in r),
        y=tuple(col([1.0, 1.0]) for _ in r),
    )
    assert dls_dual_drazin(spec).norm() == 0


def test_linked_stars_matches_direct_inverse():
    cfg = GenConfig(family="LINKED_STARS", trials=1, seed=8, dim_min=2, dim_max=3)
    for trial in range(4):
        spec = gen_instance(cfg, trial)
        a_hat = build_adjacency(spec).matrix
        assert rel_err(dls_dual_drazin(spec), dual_drazin(a_hat).inverse) <= 1e-9


def test_linked_stars_rejects_skew_fan():
    spec = DLinkedStars(
        base=DualMatrix.identity(1),
        r=(2,),
        x=(col([1.0, 1.0]),),
        y=(col([1.0, 1.0]),),
    )
    with pytest.raises(HypothesisViolated):
        dls_dual_drazin(spec)


def orthogonal_windmill(m, n, rng):
    """Invertible blades, pure-eps hub fans with vanishing outer products."""
    size = 2 * n - 1
    blades = []
    for _ in range(m):
        d = rand_int_dual(rng, size)
        while abs(np.linalg.det(d.std)) < 0.5:
            d = rand_int_dual(rng, size)
        blades.append(d)
    x = tuple(col(np.zeros(size), rng.integers(1, 3, size).astype(float)) for _ in range(m))
    y = tuple(col(np.zeros(size), rng.integers(1, 3, size).astype(float)) for _ in range(m))
    return DutchWindmill(m=m, n=n, blades=tuple(blades), x=x, y=y)


def test_windmill_matches_direct_inverse():
    rng = np.random.default_rng(9)
    spec = orthogonal_windmill(2, 2, rng)
    a_hat = build_adjacency(spec).matrix
    assert rel_err(dw_dual_drazin(spec), dual_drazin(a_hat).inverse) <= 1e-9


def test_windmill_bc_zero_matches_direct_inverse():
    rng = np.random.default_rng(10)
    spec = orthogonal_windmill(2, 2, rng)
    a_hat = build_adjacency(spec).matrix
    assert rel_err(dw_bc_zero(spec), dual_drazin(a_hat).inverse) <= 1e-9


def test_windmill_group_matches_direct_inverse():
    rng = np.random.default_rng(12)
    spec = orthogonal_windmill(2, 2, rng)
    a_hat = build_adjacency(spec).matrix
    out = dw_group(spec)
    assert rel_err(out, dual_drazin(a_hat).inverse) <= 1e-9
    # a group inverse also satisfies the order-one power equation
    assert max(defining_residuals(a_hat, out, k=1)) <= 1e-9


def test_windmill_group_rejects_higher_index():
    size = 3
    nil = np.zeros((size, size), dtype=complex)
    nil[0, 1] = 1.0
    nil[1, 2] = 1.0
    blades = (DualMatrix(nil),)
    x = (col(np.zeros(size), [1.0, 0.0, 0.0]),)
    spec = DutchWindmill(m=1, n=2, blades=blades, x=x, y=x)
    with pytest.raises(IndexTooLarge):
        dw_group(spec)


@pytest.mark.parametrize("form", ["drazin", "group"])
def test_windmill_report_is_the_abco_report_of_the_whole_matrix(form):
    # blade 1 is invertible with pure-eps fans x_1 = eps v and y_1 = eps u,
    # so y_1 x_1^T = 0; blade 2 is nilpotent with y_2 in its kernel and x_2
    # in its left kernel.  Only the (1, 2) block of D D D^D W, eps D_1 u x_2^T,
    # is nonzero, so annihilation fails.  Commutation, D D^pi W = W D D^pi,
    # holds and leaves that defect out: D D^pi is zero on blade 1, and
    # D_2 y_2 = 0 and x_2^T D_2 = 0 on blade 2.
    nil = np.zeros((3, 3), dtype=complex)
    nil[0, 2] = 1.0
    spec = DutchWindmill(
        m=2, n=2,
        blades=(DualMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]]), DualMatrix(nil)),
        x=(col(np.zeros(3), [1.0, 2.0, 1.0]), col([0.0, 1.0, 1.0])),
        y=(col(np.zeros(3), [1.0, 1.0, 2.0]), col([1.0, 1.0, 0.0])),
    )
    report = graph_hypotheses(spec, form)
    group = ["blade_group_index", "hub_group_index"] if form == "group" else []
    assert [c.name for c in report.conditions] == [
        "commutation", "annihilation", "membership_D", "hub_membership", *group]
    # blade 2 has index 2, which the group form rejects on its own
    assert {c.name for c in report.conditions if not c.passed} == {"annihilation", *group[:1]}
    assert report.residual("commutation") <= 1e-14


@pytest.mark.parametrize("family", ["WINDMILL", "WINDMILL_GROUP"])
@pytest.mark.parametrize("violate", [False, True])
def test_windmill_residuals_are_those_of_the_abco_right_report(family, violate):
    for trial in range(6):
        spec = gen_instance(GenConfig(family, trials=6, seed=1, dim_max=4, violate=violate), trial)
        d_blk, b_col, c_row = spec._parts
        abco = check_hypotheses(BlockInstance("ABCO_RIGHT", {"A": d_blk, "B": b_col, "C": c_row}))
        report = graph_hypotheses(spec)
        for name in ("commutation", "annihilation"):
            assert report.residual(name) == abco.residual(name), (trial, name)


# the one BC = 0 report: outer_zero, then the membership of A of each family
BC_ZERO_MEMBERSHIP = {"DOUBLE_STAR": "theta_membership", "LINKED_STARS": "membership_base",
                      "WINDMILL_BC0": "membership_D"}


@pytest.mark.parametrize("family", sorted(BC_ZERO_MEMBERSHIP))
def test_bc_zero_reports_check_the_whole_product_bc(family):
    # a violating draw has all-ones fans, so BC is nonzero on the blocks;
    # outer_zero is the largest entry of W = BC, both parts, each weighed
    # against 1 + ||B_i,:|| ||C_:,j||
    spec = gen_instance(GenConfig(family, trials=1, seed=0, violate=True), 0)
    report = graph_hypotheses(spec, _FUZZ_FORMS.get(family, "drazin"))
    assert report.theorem == family
    assert [c.name for c in report.conditions] == ["outer_zero", BC_ZERO_MEMBERSHIP[family]]
    _, b, c = spec._parts
    w = dmul(b, c)
    ratios = [sub(w, slice(i, i + 1), slice(j, j + 1)).norm()
              / (1.0 + sub(b, slice(i, i + 1), slice(None)).norm() * sub(c, slice(None), slice(j, j + 1)).norm())
              for i in range(w.shape[0]) for j in range(w.shape[1])]
    assert report.residual("outer_zero") == pytest.approx(max(ratios), rel=1e-14)
    assert max(ratios) > 0


def _fans(*fans):
    cols = [DualMatrix(np.array(v, dtype=float).reshape(-1, 1)) for v in fans]
    return tuple(cols[0::2]), tuple(cols[1::2])


def test_outer_zero_weighs_each_fan_against_its_own_scale():
    # outer_zero weighs each entry of W = BC against 1 + ||B_i,:|| ||C_:,j||;
    # on linked stars W = diag(x_i^T y_i), so each dot is weighed against
    # 1 + ||x_i|| ||y_i||.  Fan 1's dot of 1e-3 therefore fails beside a fan 2
    # of scale 2e6 (a normwise 1 + ||B|| ||C|| of 2e6 would let it pass, and
    # the closed form would be 7e-4 off the oracle) ...
    x, y = _fans([1], [1e-3], [1e3, 1e3], [1e3, -1e3])
    spec = DLinkedStars(base=DualMatrix(np.eye(2)), r=(1, 2), x=x, y=y)
    report = graph_hypotheses(spec)
    assert report.residual("outer_zero") == pytest.approx(1e-3 / (1 + 1e-3), rel=1e-12)
    assert not report.passed
    # ... so verify evaluates no closed form
    record: dict = {}
    _verify(spec, "drazin", None, None, 1e-8, record)
    assert not record["hypotheses_pass"] and not record["pass"] and "closed_form_error" not in record
    # ... just as beside a fan 2 of unit scale
    x, y = _fans([1], [1e-3], [1, 1], [1, -1])
    assert not graph_hypotheses(DLinkedStars(base=DualMatrix(np.eye(2)), r=(1, 2), x=x, y=y)).passed


def test_windmill_rejects_skew_fans():
    spec = windmill_pattern(2, 2)
    with pytest.raises(HypothesisViolated):
        dw_bc_zero(spec)


def test_bipartite_dual_factorization():
    rng = np.random.default_rng(4)
    e = rand_int_dual(rng, 2, 3)
    f = rand_int_dual(rng, 3, 2)
    assembled = DualMatrix(
        np.block([[np.zeros((2, 2)), e.std], [f.std, np.zeros((3, 3))]]),
        np.block([[np.zeros((2, 2)), e.inf], [f.inf, np.zeros((3, 3))]]),
    )
    want = dual_drazin(assembled).inverse
    assert rel_err(bipartite_dual(e, f), want) <= 1e-9


def test_bipartite_dual_refuses_blocks_that_do_not_conform():
    # the BIPARTITE instance checks the shapes, as for bipartite_drazin;
    # ShapeMismatch is an exit-4 error, as SpecInvalid was
    rng = np.random.default_rng(4)
    with pytest.raises(ShapeMismatch, match=r"BIPARTITE needs B nxp, C pxn, got B 2x3, C 2x2"):
        bipartite_dual(rand_int_dual(rng, 2, 3), rand_int_dual(rng, 2, 2))


def test_graph_hypotheses_reports():
    good = unit_star(3, 2)
    rep = graph_hypotheses(good)
    assert rep.passed and rep.theorem == "DOUBLE_STAR"
    skew = DoubleStar(m=3, n=2, x=good.x, y=good.y,
                      w=col([1.0, 1.0]), v=col([1.0, 1.0]),
                      a=good.a, b=good.b)
    assert not graph_hypotheses(skew).passed
    linked = DLinkedStars(base=DualMatrix([[1]]), r=(2,), x=(col([1.0, 1.0]),), y=(col([1.0, -1.0]),))
    for spec in (good, linked, windmill_pattern(2, 2)):
        with pytest.raises(SpecInvalid, match="unknown windmill form 'sideways'"):
            graph_hypotheses(spec, form="sideways")


def test_permutation_similarity_of_inverse():
    # relabeling vertices conjugates the inverse by the same permutation
    rng = np.random.default_rng(6)
    spec = orthogonal_windmill(2, 2, rng)
    a_hat = build_adjacency(spec).matrix
    n = a_hat.shape[0]
    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    shuffled = DualMatrix(p @ a_hat.std @ p.T, p @ a_hat.inf @ p.T)
    direct = dual_drazin(shuffled).inverse
    conjugated = dual_drazin(a_hat).inverse
    conjugated = DualMatrix(p @ conjugated.std @ p.T, p @ conjugated.inf @ p.T)
    assert rel_err(direct, conjugated) <= 1e-9


def test_spec_doc_round_trip():
    spec = unit_star(3, 2)
    doc = graph_spec_to_doc(spec)
    back = graph_spec_from_doc(doc)
    assert isinstance(back, DoubleStar)
    assert (build_adjacency(back).matrix - build_adjacency(spec).matrix).norm() == 0

    wm = windmill_pattern(2, 3)
    back = graph_spec_from_doc(graph_spec_to_doc(wm))
    assert (build_adjacency(back).matrix - build_adjacency(wm).matrix).norm() == 0

    # windmill docs may omit blades and weights entirely
    sparse = graph_spec_from_doc({"family": "dutch_windmill", "m": 2, "n": 3})
    assert (build_adjacency(sparse).matrix - build_adjacency(wm).matrix).norm() == 0
