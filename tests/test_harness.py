"""Generator determinism, the exact elimination oracle, and fuzz reporting."""

import json

import numpy as np
import pytest

from dualdrazin import DualMatrix, dual_exists, rank_dual, rank_std
from dualdrazin.errors import InexactInput, SpecInvalid
from dualdrazin.harness import (
    FAMILIES,
    GRAPH_FAMILIES,
    GenConfig,
    fuzz,
    gen_existence,
    gen_instance,
    gen_member,
    smith_rank_oracle,
)

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
    with pytest.raises(SpecInvalid):
        GenConfig(family="CLINE", entry_scale=0)


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


def test_fuzz_persists_counterexamples(tmp_path):
    cfg = GenConfig(family="BIPARTITE", trials=2, seed=3, violate=True,
                    artifact_dir=tmp_path)
    report = fuzz(cfg)
    # violations with violate=True are expected, hence not persisted
    assert report.counterexamples == []
    report.write(tmp_path / "report.jsonl")
    assert (tmp_path / "report.jsonl").read_text().count("\n") == 3


def test_boundary_dims_are_pinned():
    cfg = GenConfig(family="CLINE", trials=5, seed=21, dim_min=1, dim_max=4)
    lo = gen_instance(cfg, 0)
    hi = gen_instance(cfg, 1)
    assert lo["A"].shape[0] == 1
    assert hi["A"].shape[0] == 4
