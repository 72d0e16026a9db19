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


def test_abio_fuzz_passes_beyond_the_sweep_dims():
    # the acceptance sweep stops at dimension 5; the series cutoff of the
    # anti-triangular forms must hold at larger sizes without a drift check
    for family in ("ABIO_RIGHT", "ABIO_LEFT"):
        report = fuzz(GenConfig(family, trials=30, seed=60, dim_min=6, dim_max=8))
        assert report.passed, [r for r in report.records if not r["pass"]]
        assert report.summary["evaluated"] == 30


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
    (False, "WINDMILL_GROUP"): ["368ce3cfd574abcd", "324763601cf081bf", "e46bae0ea4564663"],
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


@pytest.mark.parametrize("violate", [False, True])
def test_generated_instances_are_pinned(violate):
    # a generator refactor that reorders or drops an RNG draw changes these
    for family in FAMILIES:
        report = fuzz(GenConfig(family, trials=3, seed=5, violate=violate))
        got = [r.get("digest") for r in report.records]
        assert got == PINNED_DIGESTS[(violate, family)], family
