"""Generator determinism, the exact elimination oracle, and fuzz reporting."""

import contextlib
import dataclasses
import hashlib
import json
import sys
from collections import Counter

import numpy as np
import pytest

import dualdrazin.digraphs
import dualdrazin.drazin
from dualdrazin import (
    THEOREMS,
    DualMatrix,
    build_adjacency,
    dmul,
    dual_exists,
    graph_spec_to_doc,
    harness,
    rank_dual,
    rank_std,
    smith_rank_oracle,
)
from dualdrazin.errors import InexactInput, NotDualDrazinInvertible, SpecInvalid
from dualdrazin.harness import (
    FAMILIES,
    GRAPH_FAMILIES,
    GenConfig,
    _FUZZ_FORMS,
    _verify,
    fuzz,
    gen_existence,
    gen_instance,
    gen_member,
)
from dualdrazin.serialize import dumps_doc

from conftest import rand_int_dual


def test_family_roster():
    assert set(GRAPH_FAMILIES) <= set(FAMILIES)
    assert len(FAMILIES) == 14


def test_config_validation():
    with pytest.raises(SpecInvalid):
        GenConfig(family="UNKNOWN")
    with pytest.raises(SpecInvalid):
        GenConfig(family="CLINE", trials=0)
    with pytest.raises(SpecInvalid):
        GenConfig(family="CLINE", dim_min=3, dim_max=2)


def test_gen_member_is_always_in_class(rng):
    for dim in range(1, 7):
        for _ in range(5):
            x = gen_member(dim, rng)
            assert x.shape == (dim, dim)
            assert dual_exists(x)[0]


def test_gen_existence_labels_are_exact(rng):
    for dim in range(1, 7):
        pos = gen_existence(dim, rng, positive=True)
        neg = gen_existence(dim, rng, positive=False)
        assert dual_exists(pos)[0]
        assert not dual_exists(neg)[0]


def test_gen_instance_deterministic():
    cfg = GenConfig(family="ABCO_RIGHT", trials=3, seed=99)
    a = gen_instance(cfg, 2)
    b = gen_instance(cfg, 2)
    for key in a.blocks:
        assert np.array_equal(a[key].std, b[key].std)
        assert np.array_equal(a[key].inf, b[key].inf)


def test_smith_oracle_hand_values():
    eps_eye = DualMatrix(np.zeros((3, 3)), np.eye(3))
    assert smith_rank_oracle(eps_eye) == (0, 3)
    mixed = DualMatrix(np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]))
    assert smith_rank_oracle(mixed) == (1, 1)


def test_smith_oracle_rejects_inexact():
    with pytest.raises(InexactInput):
        smith_rank_oracle(DualMatrix(np.array([[0.5]])))


def test_smith_oracle_matches_numerical_ranks(rng):
    for _ in range(40):
        n = int(rng.integers(1, 5))
        x = rand_int_dual(rng, n, scale=2)
        r, s = smith_rank_oracle(x)
        assert r == rank_std(x)
        assert r + s == rank_dual(x)


def _gaussian(rng, *shape):
    return rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)


def _smith_sweep():
    """Gaussian-integer duals of shapes 1..8 x 1..8: dense, pure-eps, and low-rank parts."""
    rng = np.random.default_rng([34, 8])
    for _ in range(240):
        rows, cols = (int(v) for v in rng.integers(1, 9, 2))
        kind = int(rng.integers(0, 4))
        std, inf = _gaussian(rng, rows, cols), _gaussian(rng, rows, cols)
        if kind == 1:
            std = np.zeros((rows, cols), complex)
        elif kind >= 2:  # a standard part of rank below min(rows, cols), and for 3 an eps part too
            k = int(rng.integers(0, min(rows, cols)))
            std = _gaussian(rng, rows, k) @ _gaussian(rng, k, cols)
            if kind == 3:
                k = int(rng.integers(0, min(rows, cols) + 1))
                inf = _gaussian(rng, rows, k) @ _gaussian(rng, k, cols)
        yield DualMatrix(std, inf)


# digest of the (r, s) pairs of _smith_sweep, taken with the Smith oracle that
# ran a dual elimination and then a separate complex row echelon on the eps block
PINNED_SMITH_SWEEP = "a79284cfcef5e8f1"


def test_the_smith_oracle_is_pinned_on_a_seeded_sweep():
    pairs = [smith_rank_oracle(x) for x in _smith_sweep()]
    # the sweep reaches pure-eps matrices, deficient standard parts with and
    # without eps pivots, and full-rank ones
    assert {(r == 0, s == 0) for r, s in pairs} == {(True, True), (True, False), (False, True), (False, False)}
    assert any(r < min(x.shape) and s > 0 and r > 0 for (r, s), x in zip(pairs, _smith_sweep()))
    digest = hashlib.sha256(";".join(f"{r},{s}" for r, s in pairs).encode()).hexdigest()[:16]
    assert digest == PINNED_SMITH_SWEEP


def test_fuzz_passes_each_family_briefly():
    for family in FAMILIES:
        report = fuzz(GenConfig(family=family, trials=4, seed=1))
        assert report.passed, (family, report.summary)
        assert report.summary["evaluated"] == 4


def test_fuzz_report_is_byte_deterministic():
    cfg = GenConfig(family="TRI_UPPER", trials=6, seed=13)
    assert fuzz(cfg).to_jsonl() == fuzz(cfg).to_jsonl()


def test_fuzz_records_have_the_report_shape():
    report = fuzz(GenConfig(family="CLINE", trials=3, seed=4))
    lines = report.to_jsonl().strip().split("\n")
    assert len(lines) == 4  # three trials plus the summary
    first = json.loads(lines[0])
    for key in ("trial", "digest", "order", "hypotheses_pass",
                "closed_form_error", "defining_residuals", "pass"):
        assert key in first
    summary = json.loads(lines[-1])
    assert summary["record"] == "summary"
    assert summary["pass_count"] == 3


def test_fuzz_violation_mode_never_evaluates():
    for family in ("CLINE", "DOUBLE_STAR", "WINDMILL_GROUP"):
        report = fuzz(GenConfig(family=family, trials=3, seed=2, violate=True))
        assert report.passed
        assert report.summary["evaluated"] == 0
        assert report.summary["hypothesis_failures"] == 3


def test_windmill_draws_have_an_invertible_hub_product():
    # seed 0 trial 3 used to pass the hypothesis report and then have no
    # dual Drazin inverse for the hub product inside the closed form
    report = fuzz(GenConfig("WINDMILL", trials=40, seed=0))
    assert report.passed, [r for r in report.records if not r["pass"]]
    assert all("hub_membership" in r["hypothesis_residuals"] for r in report.records)


def test_fuzz_persists_counterexamples(tmp_path, monkeypatch):
    # a negative error bound fails every evaluated CLINE trial; each failed
    # trial is kept on the report, and fuzz writes no file
    monkeypatch.chdir(tmp_path)
    report = fuzz(GenConfig("CLINE", trials=3, max_rel_error=-1.0))
    failed = [r["trial"] for r in report.records if not r["pass"]]
    assert failed == [0, 1, 2]
    assert [entry["trial"] for entry in report.counterexamples] == failed
    assert not any("artifact" in r for r in report.records)
    # a violating run's failed hypotheses are expected, so it keeps none
    assert fuzz(GenConfig("BIPARTITE", trials=2, seed=3, violate=True)).counterexamples == []
    assert list(tmp_path.iterdir()) == []


def test_boundary_dims_are_pinned():
    cfg = GenConfig(family="CLINE", trials=5, seed=21, dim_min=1, dim_max=4)
    lo = gen_instance(cfg, 0)
    hi = gen_instance(cfg, 1)
    assert lo["A"].shape[0] == 1
    assert hi["A"].shape[0] == 4


def test_abio_fuzz_passes_beyond_the_sweep_dims():
    # the acceptance sweep stops at dimension 5; the series cutoff of the
    # anti-triangular forms must hold at larger sizes without a drift check
    for family in ("ABIO_RIGHT", "ABIO_LEFT"):
        report = fuzz(GenConfig(family, trials=30, seed=60, dim_min=6, dim_max=8))
        assert report.passed, [r for r in report.records if not r["pass"]]
        assert report.summary["evaluated"] == 30


def test_long_nilpotent_chain_passes():
    # order 20, index 9: the staircase alone loses digits over nine
    # deflations (closed_form_error 2.7e-8, one Newton step 9e-10); the
    # refined bases keep it near 2e-11
    cfg = GenConfig("TRI_UPPER", trials=2, seed=5, dim_min=6, dim_max=10)
    assert dualdrazin.drazin.matrix_index(gen_instance(cfg, 1).assembled().std) == 9
    record = fuzz(cfg).records[1]
    assert (record["order"], record["pass"]) == (20, True)
    assert record["closed_form_error"] <= 1e-10


def test_windmill_group_reaches_larger_sizes_with_singular_blades():
    # drawing each blade's kind independently left a member only when every
    # blade came out invertible, about 2^-m of the draws: 26 of these 30
    # trials were generation failures
    cfg = GenConfig("WINDMILL_GROUP", trials=30, seed=1, dim_min=8, dim_max=12)
    report = fuzz(cfg)
    assert report.passed, [r for r in report.records if not r["pass"]]
    assert report.summary["generation_failures"] == 0
    singular = [
        trial for trial in range(cfg.trials)
        if any(rank_std(blade) < blade.shape[0] for blade in gen_instance(cfg, trial).blades)
    ]
    assert singular


# per-trial digests of fuzz(GenConfig(family, trials=3, seed=5, violate=...));
# the instance documents are integer valued, so these hold on any machine
PINNED_DIGESTS = {
    (False, "CLINE"): ["4eb3dfd2d42628f9", "e37b1d2006bddae9", "dcfe339ef574d88c"],
    (False, "TRI_UPPER"): ["fcdba65c7b29a813", "ad686e1320c48a5a", "5efcd0140a7958e9"],
    (False, "TRI_LOWER"): ["0537d8de3a01bf61", "7ad9321cf6f75d2f", "fa84a5a2e89aa8ca"],
    (False, "SUM_PQ0"): ["5e77941035d0d61e", "d132b6e11ce91b6a", "7384f882cba60f9e"],
    (False, "ABIO_RIGHT"): ["4771d1ce4f12a6f6", "337983f47c119972", "fd5a3cb30e038406"],
    (False, "ABIO_LEFT"): ["0f27d004e29ebb68", "45c72de4249621d5", "0e4fffdabd8454d2"],
    (False, "ABCO_RIGHT"): ["4956c9938ac05c76", "a4d49aebd0d0f96f", "7840dc05929bd56f"],
    (False, "ABCO_LEFT"): ["2d1bcdccf219355f", "18f1c069d9e60825", "b04fed6ba25e220d"],
    (False, "BIPARTITE"): ["82679c3aa38d7d2e", "70bc944b7a99491c", "5a993745a8ac6055"],
    (False, "DOUBLE_STAR"): ["43bcdb1b8cdc415a", "1ab6a85dfc67bcc1", "496bd97c769b9fbe"],
    (False, "LINKED_STARS"): ["b3e7d0e0cd958f49", "8445ca50b9fa3156", "c2183fcbd46ba121"],
    (False, "WINDMILL"): ["216c2bfb0aa16c25", "42171925320f69a6", "ed75e5504071dedf"],
    (False, "WINDMILL_BC0"): ["19d5f58eb49d7830", "2232d3329cb6ed2f", "965a5343ce466e03"],
    (False, "WINDMILL_GROUP"): ["368ce3cfd574abcd", "dd702657506f2df0", "fa6d097f9e758dcc"],
    (True, "CLINE"): ["be76604c6814930c", "68e5b504ef7e1973", "f2c905fcce880982"],
    (True, "TRI_UPPER"): ["77880d3fe7d2bcf2", "b6edc7eafc53028a", "c0d81b9b7ded3f96"],
    (True, "TRI_LOWER"): ["1b2bd867d6bb0cda", "492fd2019eca527c", "9dc0fa625652a181"],
    (True, "SUM_PQ0"): ["2fb7d27b5a6e6824", "c7babe3392830555", "8969a0a8d5f08288"],
    (True, "ABIO_RIGHT"): ["060975f5f0baad80", "ddf7eba4ee83e103", "060975f5f0baad80"],
    (True, "ABIO_LEFT"): ["f98cc7047942739f", "e147f34b82c7a5c0", "1798af9d0eb117b2"],
    (True, "ABCO_RIGHT"): ["23ed7ad14d502bf3", "987b36f1de5f5f8b", "155bf438a5f7c65a"],
    (True, "ABCO_LEFT"): ["33af8a5c9a7b9c59", "d932b611e4ba23fb", "871e018d303ef80c"],
    (True, "BIPARTITE"): ["cfe0d3e554a3c1d4", "09ce3047cfcccf2f", "6fd23f4acbf8d937"],
    (True, "DOUBLE_STAR"): ["46fcb804830fd99c", "b2053d35460a4e12", "074b1a1a970ee5e3"],
    (True, "LINKED_STARS"): ["2ed2d06706996978", "087e6cb116e52a7f", "8a37ba0382a2506b"],
    (True, "WINDMILL"): ["1b65566843b0e772", "2b0884a631f1b349", "2af8024011704678"],
    (True, "WINDMILL_BC0"): ["024e1910973313ed", "7cd647a0f72d5602", "84e429c72487aba5"],
    (True, "WINDMILL_GROUP"): ["0183baf04b59bbb8", "60d9bb2f23a03f30", "b0ceb9dacb07fe67"],
}


# sha256[:16] of fuzz(GenConfig(family, trials=3, seed=5, violate=...)).to_jsonl():
# unlike the instance digests these cover closed_form_error and
# defining_residuals, floats that depend on the numpy and LAPACK build, so a
# new build may need them taken again from a known-good commit
PINNED_REPORTS = {
    (False, "CLINE"): "3034e12028b7f51b",
    (False, "TRI_UPPER"): "e6993098415bee65",
    (False, "TRI_LOWER"): "9853a9aa3eb94164",
    (False, "SUM_PQ0"): "94b7d65abd4dd27b",
    (False, "ABIO_RIGHT"): "41b01bfaf5d36eb7",
    (False, "ABIO_LEFT"): "3b1e5d1e6a7b1ad3",
    (False, "ABCO_RIGHT"): "9ba0a63d29ea82ac",
    (False, "ABCO_LEFT"): "2c0f9fe828601eef",
    (False, "BIPARTITE"): "8fc30acc7f405518",
    (False, "DOUBLE_STAR"): "25f0c8fb1803c660",
    (False, "LINKED_STARS"): "ae05ca643557325e",
    (False, "WINDMILL"): "d992649e94fe9698",
    (False, "WINDMILL_BC0"): "1ec47bb10942f64c",
    (False, "WINDMILL_GROUP"): "c22f7148d8cd399d",
    (True, "CLINE"): "42eba7b5f3cff248",
    (True, "TRI_UPPER"): "19dc4a68c6037a8d",
    (True, "TRI_LOWER"): "7e0d9daabf6d6f00",
    (True, "SUM_PQ0"): "a2c1b1944f24b217",
    (True, "ABIO_RIGHT"): "71f2a1591c211eee",
    (True, "ABIO_LEFT"): "64fa7cba8e005cb5",
    (True, "ABCO_RIGHT"): "e3078f9c3629837a",
    (True, "ABCO_LEFT"): "b21906971075fb3f",
    (True, "BIPARTITE"): "5cccb4bfcdc2cb16",
    (True, "DOUBLE_STAR"): "ee92245de8900c96",
    (True, "LINKED_STARS"): "6d6d9703be8ff65b",
    (True, "WINDMILL"): "e46ce8b3238b6efb",
    (True, "WINDMILL_BC0"): "d48fd1e82bb9f069",
    (True, "WINDMILL_GROUP"): "af45effb4c3e9d06",
}


@pytest.mark.parametrize("violate", [False, True])
def test_generated_instances_are_pinned(violate):
    # a generator refactor that reorders or drops an RNG draw changes these
    for family in FAMILIES:
        report = fuzz(GenConfig(family, trials=3, seed=5, violate=violate))
        got = [r.get("digest") for r in report.records]
        assert got == PINNED_DIGESTS[(violate, family)], family
        jsonl = hashlib.sha256(report.to_jsonl().encode()).hexdigest()[:16]
        assert jsonl == PINNED_REPORTS[(violate, family)], family


# sha256[:16] of the parts of gen_member(n, rng), gen_existence(n, rng, True)
# and gen_existence(n, rng, False), drawn in that order from default_rng([n, 2]),
# at the dense_inverse benchmark's pool sizes and the smallest frame; adding
# 0.0 folds signed zeros, so these integer-valued arrays hash alike anywhere
PINNED_FRAMES = {
    1: ["497d0d90f9a77f1d", "66687aadf862bd77", "ee282b9a2a908de5"],
    8: ["ed6a282329cfbdb3", "19693e76ef807cdd", "3e9ccc775d7b84c4"],
    12: ["009d02eb4f316fd6", "38c4d6a56a14bb03", "1e68da389b3ee16d"],
    16: ["3fd9ee478d3f7fcf", "b421a03db3496289", "10a2d2077050b2fd"],
}


@pytest.mark.parametrize("n", sorted(PINNED_FRAMES))
def test_member_and_existence_draws_are_pinned(n):
    rng = np.random.default_rng([n, 2])
    draws = [gen_member(n, rng), gen_existence(n, rng, True), gen_existence(n, rng, False)]
    got = [hashlib.sha256((np.stack([x.std, x.inf]) + 0.0).tobytes()).hexdigest()[:16] for x in draws]
    assert got == PINNED_FRAMES[n]


# sha256[:16] over seeds 0-7 of the parts of three rounds of gen_member(n, rng),
# gen_member(n, rng, invertible=True), gen_member(n, rng, invertible=False),
# gen_existence(n, rng, True) and gen_existence(n, rng, False), drawn in that
# order from default_rng([seed, n, 32]): 120 draws a size, signed zeros folded
PINNED_STREAMS = {
    1: "d39b32b84c0a1dec",
    2: "5d1912c3ce28a588",
    3: "4c0033f7c1fee6b6",
    5: "7da61beed2cf180e",
    8: "2599674917a5d7ba",
    12: "8f1bd142110f419c",
    16: "932a40d65cedff4d",
}


@pytest.mark.parametrize("n", sorted(PINNED_STREAMS))
def test_member_and_existence_streams_are_pinned(n):
    # a rewrite of the frame builders that draws one value more, fewer or in
    # another order, or shears differently, moves one of these
    h = hashlib.sha256()
    for seed in range(8):
        rng = np.random.default_rng([seed, n, 32])
        for _ in range(3):
            for x in (gen_member(n, rng), gen_member(n, rng, invertible=True),
                      gen_member(n, rng, invertible=False),
                      gen_existence(n, rng, True), gen_existence(n, rng, False)):
                h.update((np.stack([x.std, x.inf]) + 0.0).tobytes())
    assert h.hexdigest()[:16] == PINNED_STREAMS[n]


def _reference_shear(n, rng):
    """The shear loop with one size-2 draw of (i, j) a step and column updates through temporaries."""
    s, sinv = np.eye(n), np.eye(n)
    for _ in range(n + 2):
        i, j = rng.integers(0, n, 2)
        if i == j:
            continue
        c = (-1, 1)[rng.integers(0, 2)]
        s[:, j] += c * s[:, i]
        sinv[i, :] -= c * sinv[j, :]
    return s.astype(complex), sinv.astype(complex)


@pytest.mark.parametrize("n", range(1, 65))
def test_the_shear_matches_its_reference_and_inverts_exactly(n):
    for seed in range(3):
        rng, ref_rng = np.random.default_rng([n, seed]), np.random.default_rng([n, seed])
        s, sinv = harness._unimodular(n, rng)
        ref, ref_inv = _reference_shear(n, ref_rng)
        assert s.tobytes() == ref.tobytes() and sinv.tobytes() == ref_inv.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws, no more
        assert s.dtype == sinv.dtype == complex and s.flags.c_contiguous and sinv.flags.c_contiguous
        assert not s.imag.any() and not sinv.imag.any()
        a, b = s.real.astype(np.int64), sinv.real.astype(np.int64)
        assert np.array_equal(a, s.real) and np.array_equal(b, sinv.real)  # integers, stored exactly
        eye = np.eye(n, dtype=np.int64)
        assert np.array_equal(a @ b, eye) and np.array_equal(b @ a, eye)
        assert np.array_equal(s @ sinv, np.eye(n))


def test_fuzz_factorises_each_matrix_once_per_trial(monkeypatch):
    # accept filters and hypothesis reports share one factorisation record per
    # distinct matrix, so the staircase and the certificate run once per entry
    trials = []  # [memo, staircases, certificates] per trial
    scope = harness._memo

    @contextlib.contextmanager
    def recorded():
        with scope():
            trials.append([dualdrazin.drazin._MEMO.get(), 0, 0])
            yield

    monkeypatch.setattr(harness, "_memo", recorded)
    for slot, name in enumerate(("drazin_complex", "_sandwich"), start=1):
        def counted(*args, _body=getattr(dualdrazin.drazin, name), _slot=slot):
            trials[-1][_slot] += 1
            return _body(*args)

        monkeypatch.setattr(dualdrazin.drazin, name, counted)
    public = _count_calls(monkeypatch, "_factorise")
    for family in FAMILIES:
        fuzz(GenConfig(family, trials=3, seed=4))
    assert len(trials) == 3 * len(FAMILIES)
    for memo, staircases, certificates in trials:
        assert staircases == certificates == len(memo) > 0
    assert len(public) > sum(len(memo) for memo, _, _ in trials)
    assert dualdrazin.drazin._MEMO.get() is None


def test_fuzz_forms_each_mixed_series_once_per_trial(monkeypatch):
    # the accept filter's factorisation and the hypothesis report's share M
    body = dualdrazin.drazin._mixed_series
    per_trial = {}  # id(memo) -> [memo, uncached evaluations]

    def counted(x, k):
        memo = dualdrazin.drazin._MEMO.get()
        per_trial.setdefault(id(memo), [memo, 0])[1] += 1
        return body(x, k)

    monkeypatch.setattr(dualdrazin.drazin, "_mixed_series", counted)
    public = _count_calls(monkeypatch, "_factorise")
    for family in FAMILIES:
        fuzz(GenConfig(family, trials=3, seed=4))
    for memo, computed in per_trial.values():
        assert memo is not None
        assert computed == len(memo)  # one M per memoised factorisation
    assert len(public) > sum(computed for _, computed in per_trial.values())


def test_memo_closes_after_failed_trials(monkeypatch):
    seen = []

    def no_draw(cfg, trial, rng):
        seen.append(dualdrazin.drazin._MEMO.get())
        return None, False

    monkeypatch.setitem(harness._GENERATORS, "CLINE", no_draw)
    report = fuzz(GenConfig("CLINE", trials=2, seed=1))
    assert report.summary["generation_failures"] == 2
    assert all(memo is not None for memo in seen)
    assert dualdrazin.drazin._MEMO.get() is None

    def failing_verify(*args):
        seen.append(dualdrazin.drazin._MEMO.get())
        raise NotDualDrazinInvertible("raised inside the trial")

    monkeypatch.setattr(harness, "_verify", failing_verify)
    report = fuzz(GenConfig("TRI_UPPER", trials=2, seed=1))
    assert [r["note"] for r in report.records] == ["NotDualDrazinInvertible: raised inside the trial"] * 2
    assert seen[-1] is not None and seen[-1] is not seen[-2]
    assert dualdrazin.drazin._MEMO.get() is None


def test_summary_counts_a_trial_that_raises_after_its_hypotheses_pass(monkeypatch):
    def passing_then_raising(inst, form, tol, res_tol, max_rel_error, record):
        record["hypotheses_pass"] = True
        raise NotDualDrazinInvertible("raised after the hypotheses passed")

    monkeypatch.setattr(harness, "_verify", passing_then_raising)
    summary = fuzz(GenConfig("CLINE", trials=2, seed=1)).summary
    assert (summary["evaluated"], summary["hypothesis_failures"]) == (0, 0)
    assert (summary["generation_failures"], summary["pass_count"]) == (0, 0)


def test_summary_counts_a_violating_run_whose_hypotheses_pass(monkeypatch):
    # a violating config whose generator draws members: every closed form is
    # evaluated, and every trial fails because none should have been
    def members(cfg, trial, rng):
        return harness._gen_cline(dataclasses.replace(cfg, violate=False), trial, rng)

    monkeypatch.setitem(harness._GENERATORS, "CLINE", members)
    report = fuzz(GenConfig("CLINE", trials=3, seed=1, violate=True))
    assert all(r["hypotheses_pass"] and not r["pass"] for r in report.records)
    summary = report.summary
    assert (summary["evaluated"], summary["hypothesis_failures"]) == (3, 0)
    assert (summary["generation_failures"], summary["pass_count"]) == (0, 0)
    assert summary["max_closed_form_error"] == max(r["closed_form_error"] for r in report.records)
    assert not report.passed


def test_a_non_violating_draw_that_fails_its_hypotheses_is_kept(monkeypatch):
    # a generator that hands a plain run a violating draw: SUM_PQ0 with PQ != 0
    draws = []

    def violating(cfg, trial, rng):
        inst, ok = harness._gen_sum(dataclasses.replace(cfg, violate=True), trial, rng)
        draws.append(inst)
        return inst, ok

    monkeypatch.setitem(harness._GENERATORS, "SUM_PQ0", violating)
    report = fuzz(GenConfig("SUM_PQ0", trials=1, seed=3))
    assert dmul(draws[-1]["P"], draws[-1]["Q"]).norm() > 0
    (record,) = report.records
    assert record["hypotheses_pass"] is False and record["pass"] is False
    assert record["note"] == "hypotheses failed on a non-violating draw"
    (kept,) = report.counterexamples
    assert (kept["family"], kept["trial"], kept["record"]) == ("SUM_PQ0", 0, record)
    assert report.summary["hypothesis_failures"] == 1
    assert not report.passed


def _count_calls(monkeypatch, name):
    """Count the calls of dualdrazin.drazin.<name> through every module binding."""
    original = getattr(dualdrazin.drazin, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name == "dualdrazin" or module_name.startswith("dualdrazin."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


# Staircase factorisations per ddz verify check: one per distinct matrix the
# report tests or the formula inverts, plus the oracle on the assembled
# matrix.  Windmills factorise D, W and the assembled matrix; the blade
# projectors come from D's factorisation.
FACTORISATIONS = {
    "CLINE": 2, "TRI_UPPER": 3, "TRI_LOWER": 3, "SUM_PQ0": 3,
    "ABIO_RIGHT": 3, "ABIO_LEFT": 3, "ABCO_RIGHT": 3, "ABCO_LEFT": 3, "BIPARTITE": 2,
    "DOUBLE_STAR": 1, "LINKED_STARS": 2, "WINDMILL": 3, "WINDMILL_BC0": 2, "WINDMILL_GROUP": 3,
}


# trials of GenConfig("CLINE", trials=300, seed=0, dim_min=6, dim_max=10)
# whose inverse matches the oracle to ~1e-12 but whose worst defining
# residual, 2.2e-8 to 2.1e-7, fails the 1e-8 gate
GATE_FAILURES = (32, 111, 192, 251)


def _gate_failure_record(trial):
    inst = gen_instance(GenConfig("CLINE", trials=300, seed=0, dim_min=6, dim_max=10), trial)
    record = {}
    _verify(inst, "drazin", None, None, 1e-8, record)
    return record


@pytest.mark.parametrize("trial", GATE_FAILURES)
def test_a_gate_failure_is_an_accurate_inverse(trial):
    record = _gate_failure_record(trial)
    assert record["hypotheses_pass"] and record["closed_form_error"] <= 2e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the defining residual's normalisation fails accurate inverses (ROADMAP known defect 4)")
@pytest.mark.parametrize("trial", GATE_FAILURES)
def test_an_accurate_inverse_passes_the_gate(trial):
    assert _gate_failure_record(trial)["pass"]


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_factorises_each_matrix_once(family, monkeypatch):
    cfg = GenConfig(family, trials=3, seed=4, dim_max=4)
    instances = [gen_instance(cfg, trial) for trial in range(cfg.trials)]
    splits = _count_calls(monkeypatch, "drazin_complex")
    index = _count_calls(monkeypatch, "matrix_index")
    for inst in instances:
        record = {}
        splits.clear()
        _verify(inst, _FUZZ_FORMS.get(family, "drazin"), None, None, 1e-8, record)
        assert record["pass"], record
        assert len(splits) == FACTORISATIONS[family], (family, len(splits))
    assert index == []


@pytest.mark.parametrize("family", GRAPH_FAMILIES)
def test_verify_lays_out_each_adjacency_once(family, monkeypatch):
    # a graph trial checks its spec once, when it is built, and lays it out
    # once: the accept filter, the report, the formula and the oracle share it
    blocks_of, validate = dualdrazin.digraphs._blocks, dualdrazin.digraphs._validate
    parts, checked = [], []
    monkeypatch.setattr(dualdrazin.digraphs, "_blocks",
                        lambda spec, part: parts.append((spec, part)) or blocks_of(spec, part))
    monkeypatch.setattr(dualdrazin.digraphs, "_validate", lambda spec: checked.append(spec) or validate(spec))
    for violate in (False, True):
        cfg = GenConfig(family, trials=3, seed=4, dim_max=4, violate=violate)
        for trial in range(cfg.trials):
            record = {}
            parts.clear()
            checked.clear()
            inst = gen_instance(cfg, trial)
            _verify(inst, _FUZZ_FORMS.get(family, "drazin"), None, None, 1e-8, record)
            assert record["pass"] is not violate, record
            assert [part for spec, part in parts if spec is inst] == ["std", "inf"]
            assert sum(spec is inst for spec in checked) == 1
            # a rejected draw is laid out at most once and checked once too
            assert all(n == 2 for n in Counter(id(spec) for spec, _ in parts).values())
            assert all(n == 1 for n in Counter(id(spec) for spec in checked).values())
            assert record["order"] == build_adjacency(inst).matrix.shape[0]


@pytest.mark.parametrize("violate", [False, True])
def test_a_double_star_trial_forms_theta_once(violate, monkeypatch):
    # theta = x^T y + ab and its inverse serve the accept filter, the report
    # and the formula body
    dot, inverse = dualdrazin.digraphs._dual_dot, dualdrazin.digraphs.scalar_dual_drazin
    dots, inverses = [], []
    monkeypatch.setattr(dualdrazin.digraphs, "_dual_dot", lambda u, v: dots.append(u) or dot(u, v))
    monkeypatch.setattr(dualdrazin.digraphs, "scalar_dual_drazin", lambda z: inverses.append(z) or inverse(z))
    cfg = GenConfig("DOUBLE_STAR", trials=4, seed=4, violate=violate)
    for trial in range(cfg.trials):
        record = {}
        dots.clear()
        inverses.clear()
        inst = gen_instance(cfg, trial)
        _verify(inst, "drazin", None, None, 1e-8, record)
        assert ("closed_form_error" in record) is not violate
        assert sum(u is inst.x for u in dots) == 1
        # each theta formed, a rejected draw's too, is inverted once; the
        # report checks BC = 0 on the blocks and forms no dot of its own
        assert len(inverses) == len(dots)


@pytest.mark.parametrize("dims", [(1, 5), (6, 10)])
def test_the_digest_document_writes_the_public_document_bytes(dims):
    # fuzz digests the array document; it must write the bytes of the list one
    for family in FAMILIES:
        for violate in (False, True):
            cfg = GenConfig(family, trials=3, seed=2, dim_min=dims[0], dim_max=dims[1], violate=violate)
            for trial in range(cfg.trials):
                inst = gen_instance(cfg, trial)
                public = inst.to_doc() if family in THEOREMS else graph_spec_to_doc(inst)
                assert dumps_doc(inst._doc()) == dumps_doc(public), (family, trial)


@pytest.mark.parametrize("family", ["ABCO_LEFT", "LINKED_STARS", "WINDMILL_GROUP"])
def test_counterexamples_keep_the_list_document(family):
    # a negative error bound fails every evaluated trial, so each is kept
    cfg = GenConfig(family, trials=2, seed=6, max_rel_error=-1.0)
    report = fuzz(cfg)
    assert len(report.counterexamples) == 2
    for trial, entry in enumerate(report.counterexamples):
        inst = gen_instance(cfg, trial)
        public = inst.to_doc() if family in THEOREMS else graph_spec_to_doc(inst)
        assert entry["instance"] == public and repr(entry["instance"]) == repr(public)
