"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test also prints its measured extremes, which pytest
shows for failing tests (or under -s).
"""

import time

import numpy as np

from dualdrazin import (
    DualMatrix,
    bipartite_dual,
    build_adjacency,
    defining_residuals,
    dmul,
    drazin_complex,
    drazin_oracle,
    dual_drazin,
    dual_exists,
    indices,
    rank_dual,
    smith_rank_oracle,
    windmill_pattern,
)
from dualdrazin.blocks import THEOREMS
from dualdrazin.harness import (
    GRAPH_FAMILIES,
    GenConfig,
    fuzz,
    gen_existence,
    gen_instance,
    gen_member,
)

from conftest import rand_int_dual, rel_err


def test_criterion_1_defining_equations_on_200_members():
    """dual_drazin satisfies its three defining equations, 200 members, <= 60 s."""
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        dim = trial % 8 + 1
        x = gen_member(dim, rng)
        out = dual_drazin(x)
        worst = max(worst, *defining_residuals(x, out.inverse))
    elapsed = time.monotonic() - started
    print(f"criterion 1: max defining residual {worst:.3e} "
          f"(tolerance 1e-8), {elapsed:.1f}s for 200 members")
    assert worst <= 1e-8
    assert elapsed <= 60.0


def _shifted_invertible(rng, n):
    """Shifted gaussian block resampled until no eigenvalue sits near zero.

    The SVD reference inverts A^(2k+1); an eigenvalue of modulus 0.1
    raised to the ninth power already dips below the pseudoinverse
    truncation threshold, so the invertible part of a mixed instance has
    to keep its spectrum away from the origin.
    """
    while True:
        block = 0.5 * rng.standard_normal((n, n)) + np.eye(n) * 3
        if min(abs(np.linalg.eigvals(block))) >= 1.5:
            return block


def _rank_deficient(rng, n):
    """Gaussian product of rank n-1, resampled away from extra degeneracy.

    The structural kernel is wanted; a second near-zero singular value or
    eigenvalue is not, because cubing it puts the SVD reference on the
    wrong side of its truncation threshold.
    """
    r = max(1, n - 1)
    while True:
        a = (rng.standard_normal((n, r)) @ rng.standard_normal((r, n))).astype(complex)
        eigs = np.sort(np.abs(np.linalg.eigvals(a)))
        if min(eigs[n - r:], default=1.0) < 0.3:
            continue
        if np.linalg.svd(a, compute_uv=False)[r - 1] >= 0.3:
            return a


def test_criterion_2_drazin_matches_svd_oracle_on_500_matrices():
    """drazin_complex vs A^k (A^(2k+1))^+ A^k on 500 random matrices <= 8x8."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(500):
        n = trial % 8 + 1
        kind = trial % 4
        if kind == 0:
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        elif kind == 1:
            a = _rank_deficient(rng, n)
        elif kind == 2:
            a = np.triu(rng.integers(-3, 4, (n, n)).astype(complex), 1)
        else:
            half = n // 2
            a = np.zeros((n, n), dtype=complex)
            if half:
                a[:half, :half] = _shifted_invertible(rng, half)
            a[half:, half:] = np.triu(rng.integers(-2, 3, (n - half, n - half)), 1)
        got = drazin_complex(a).ad
        want = drazin_oracle(a)
        worst = max(worst, np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want)))
    print(f"criterion 2: max relative error {worst:.3e} (tolerance 1e-9) over 500")
    assert worst <= 1e-9


def test_criterion_3_block_theorems_100_instances_each():
    """Nine block closed forms match the direct inverse on 100 instances each."""
    failures = []
    worst = 0.0
    for idx, theorem in enumerate(THEOREMS):
        report = fuzz(GenConfig(family=theorem, trials=100, seed=300 + idx,
                                max_rel_error=1e-8))
        worst = max(worst, report.summary["max_closed_form_error"])
        if not report.passed or report.summary["evaluated"] != 100:
            failures.append((theorem, report.summary))
    print(f"criterion 3: 9 theorems x 100 instances, max error {worst:.3e} "
          f"(tolerance 1e-8), failures: {failures}")
    assert not failures


def test_criterion_4_graph_formulas_100_instances_each():
    """Five digraph closed forms plus the even-cycle factorization, 100 each."""
    failures = []
    worst = 0.0
    for idx, family in enumerate(GRAPH_FAMILIES):
        report = fuzz(GenConfig(family=family, trials=100, seed=400 + idx,
                                max_rel_error=1e-8))
        worst = max(worst, report.summary["max_closed_form_error"])
        if not report.passed or report.summary["evaluated"] != 100:
            failures.append((family, report.summary))

    # bipartite_dual is bipartite_drazin under its digraph name; check it
    # against the direct inverse of the assembled matrix as well
    cfg = GenConfig(family="BIPARTITE", trials=100, seed=406)
    for trial in range(100):
        inst = gen_instance(cfg, trial)
        got = bipartite_dual(inst["B"], inst["C"])
        want = dual_drazin(inst.assembled()).inverse
        err = rel_err(got, want)
        worst = max(worst, err)
        if err > 1e-8:
            failures.append(("bipartite_dual", trial, err))
    print(f"criterion 4: 6 graph operations x 100 instances, max error "
          f"{worst:.3e} (tolerance 1e-8), failures: {failures}")
    assert not failures


def test_criterion_5_existence_classification_is_exact():
    """50 members and 50 non-members, zero misclassifications."""
    rng = np.random.default_rng(505)
    wrong = 0
    for trial in range(50):
        dim = trial % 8 + 1
        if dual_exists(gen_existence(dim, rng, positive=True))[0] is not True:
            wrong += 1
        if dual_exists(gen_existence(dim, rng, positive=False))[0] is not False:
            wrong += 1
    print(f"criterion 5: {wrong} misclassifications over 50 + 50 exact instances")
    assert wrong == 0


def test_criterion_6_rank_and_index_suites():
    """rank_dual equals the exact elimination oracle; the embedding index
    stays within [k, 2k] of the standard index."""
    rng = np.random.default_rng(606)
    rank_mismatches = 0
    for trial in range(200):
        dim = trial % 5 + 1
        kind = trial % 3
        if kind == 0:
            x = rand_int_dual(rng, dim, scale=2)
        elif kind == 1:
            x = gen_member(dim, rng)
        else:
            x = gen_existence(dim, rng, positive=bool(trial % 2))
        r, s = smith_rank_oracle(x)
        if r + s != rank_dual(x):
            rank_mismatches += 1
    bound_violations = 0
    for trial in range(200):
        dim = trial % 6 + 1
        x = gen_member(dim, rng) if trial % 2 else rand_int_dual(rng, dim, scale=2)
        rep = indices(x)
        if not rep.ind_std <= rep.ind_dual <= 2 * rep.ind_std:
            bound_violations += 1
    print(f"criterion 6: {rank_mismatches} rank mismatches, "
          f"{bound_violations} index bound violations (200 + 200 instances)")
    assert rank_mismatches == 0
    assert bound_violations == 0


def test_criterion_7_builder_shapes_and_patterns():
    """Published example graphs reproduce their documented sizes and arcs."""
    from dualdrazin import DLinkedStars, DoubleStar

    col = DualMatrix.column
    star = DoubleStar(m=3, n=2,
                      x=col([1.0, 1.0, 1.0]), y=col([1.0, 2.0, 1.0]),
                      w=col([1.0, -1.0]), v=col([1.0, 1.0]),
                      a=col([1.0]), b=col([1.0]))
    ds = build_adjacency(star)
    ds_nonzeros = int(((ds.matrix.std != 0) | (ds.matrix.inf != 0)).sum())

    rng = np.random.default_rng(700)
    r = (2, 3, 2)
    dls_spec = DLinkedStars(
        base=rand_int_dual(rng, 3),
        r=r,
        x=tuple(col([1.0] * ri) for ri in r),
        y=tuple(col([1.0] * ri) for ri in r),
    )
    base_n = dls_spec.base.shape[0]

    wm = build_adjacency(windmill_pattern(4, 2))
    a = wm.matrix.std.real
    perm = np.asarray(wm.permutation_to_bipartite)
    shuffled = a[np.ix_(perm, perm)]
    k = 1 + 4 * (2 - 1)
    off_pattern = np.count_nonzero(shuffled[:k, :k]) + np.count_nonzero(shuffled[k:, k:])
    blade_ok = all(
        a[0, 1 + 3 * s] == a[3 + 3 * s, 0] == 1
        and a[1 + 3 * s, 2 + 3 * s] == a[2 + 3 * s, 3 + 3 * s] == 1
        and a[0, 2 + 3 * s] == 0 and a[1 + 3 * s, 3 + 3 * s] == 0
        for s in range(4)
    )
    dls = build_adjacency(dls_spec)
    print(f"criterion 7: star 7x7 with {ds_nonzeros} arcs, linked stars "
          f"{dls.matrix.shape[0]}x{dls.matrix.shape[1]}, windmill 13x13 "
          f"({int((a != 0).sum())} entries, {off_pattern} off-pattern after permutation)")
    assert ds.matrix.shape == (7, 7) and ds_nonzeros == 12
    assert dls.matrix.shape == (10, 10)
    assert wm.matrix.shape == (13, 13)
    assert blade_ok
    assert off_pattern == 0


def test_criterion_8_product_swap_identities():
    """E (FE)^D = (EF)^D E and (FE)^D F = F (EF)^D on 100 random dual pairs."""
    rng = np.random.default_rng(808)
    worst = 0.0
    done = 0
    while done < 100:
        n = done % 5 + 1
        e = rand_int_dual(rng, n, scale=3)
        f = rand_int_dual(rng, n, scale=3)
        if not (dual_exists(dmul(e, f))[0] and dual_exists(dmul(f, e))[0]):
            continue
        ef = dual_drazin(dmul(e, f)).inverse
        fe = dual_drazin(dmul(f, e)).inverse
        scale = 1.0 + e.norm() * fe.norm()
        left = (dmul(e, fe) - dmul(ef, e)).norm() / scale
        right = (dmul(fe, f) - dmul(f, ef)).norm() / scale
        worst = max(worst, left, right)
        done += 1
    print(f"criterion 8: max identity residual {worst:.3e} (tolerance 1e-9) over 100 pairs")
    assert worst <= 1e-9
