"""Exit codes, output determinism and tolerance plumbing of the ddz front end."""

import json

import numpy as np
import pytest

from dualdrazin.blocks import BlockInstance
from dualdrazin.cli import main
from dualdrazin.digraphs import graph_spec_to_doc
from dualdrazin.harness import FAMILIES, GenConfig, fuzz, gen_instance
from dualdrazin.serialize import dumps_doc

NILPOTENT = {"rows": 2, "cols": 2, "std": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
COMPATIBLE = dict(NILPOTENT, inf=[[[0, 0], [3, 0]], [[0, 0], [0, 0]]])
INCOMPATIBLE = dict(NILPOTENT, inf=[[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
INVERTIBLE = {
    "rows": 2, "cols": 2,
    "std": [[[2, 0], [0, 0]], [[1, 0], [1, 0]]],
    "inf": [[[1, 0], [2, 0]], [[3, 0], [4, 0]]],
}


@pytest.fixture
def write(tmp_path):
    def _write(doc, name):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_drazin_complex_input(write, capsys):
    code, out, _ = run(capsys, "drazin", "-i", write(NILPOTENT, "a.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["index"] == 2
    assert all(v == [0.0, 0.0] for row in doc["std"] for v in row)


def test_drazin_rejects_dual_input(write, capsys):
    code, _, err = run(capsys, "drazin", "-i", write(COMPATIBLE, "a.json"))
    assert code == 4
    assert "dual-drazin" in err


def test_dual_drazin_success_and_residuals(write, capsys):
    code, out, _ = run(capsys, "dual-drazin", "-i", write(INVERTIBLE, "a.json"))
    assert code == 0
    doc = json.loads(out)
    assert max(doc["residuals"]) <= 1e-9
    std = np.array(doc["std"])[:, :, 0] + 1j * np.array(doc["std"])[:, :, 1]
    want = np.linalg.inv(np.array([[2, 0], [1, 1]], dtype=complex))
    assert np.allclose(std, want)


def test_dual_drazin_nonexistence_is_exit_3(write, capsys):
    code, _, err = run(capsys, "dual-drazin", "-i", write(INCOMPATIBLE, "a.json"))
    assert code == 3
    assert "error:" in err


def test_exists_verb_reports_both_ways(write, capsys):
    code, out, _ = run(capsys, "exists", "-i", write(COMPATIBLE, "a.json"))
    assert code == 0 and json.loads(out)["exists"] is True
    code, out, _ = run(capsys, "exists", "-i", write(INCOMPATIBLE, "a.json"))
    assert code == 3 and json.loads(out)["exists"] is False


def test_index_verb(write, capsys):
    code, out, _ = run(capsys, "index", "-i", write(INCOMPATIBLE, "a.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["ind_std"] == 2
    assert doc["ind_phi"] >= doc["ind_std"]


def test_rank_verb_includes_exact_oracle(write, capsys):
    eps_eye = {"rows": 3, "cols": 3,
               "std": [[[0, 0]] * 3 for _ in range(3)],
               "inf": [[[1.0 if i == j else 0.0, 0] for j in range(3)] for i in range(3)]}
    code, out, _ = run(capsys, "rank", "-i", write(eps_eye, "a.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["rank_std"] == 0 and doc["rank_dual"] == 3
    assert doc["smith"] == {"appreciable": 0, "infinitesimal": 3}


def test_rank_skips_oracle_on_inexact_entries(write, capsys):
    inexact = {"rows": 1, "cols": 1, "std": [[[0.5, 0]]]}
    code, out, _ = run(capsys, "rank", "-i", write(inexact, "a.json"))
    assert code == 0
    assert "smith" not in json.loads(out)


def test_schema_errors_are_exit_4(write, capsys, tmp_path):
    code, _, err = run(capsys, "dual-drazin", "-i", str(tmp_path / "missing.json"))
    assert code == 4
    code, _, err = run(capsys, "dual-drazin", "-i", write({"std": "nope"}, "bad.json"))
    assert code == 4


def test_non_finite_entries_are_exit_4(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"rows": 1, "cols": 1, "std": [[[NaN, 0]]]}')
    code, _, err = run(capsys, "dual-drazin", "-i", str(path))
    assert code == 4
    assert err.startswith("error:") and err.count("\n") == 1


def test_non_square_drazin_input_is_exit_4(write, capsys):
    wide = {"rows": 1, "cols": 2, "std": [[[1, 0], [0, 0]]]}
    code, _, err = run(capsys, "drazin", "-i", write(wide, "wide.json"))
    assert code == 4
    assert err.startswith("error:") and err.count("\n") == 1


def test_graph_build_writes_sidecars(write, capsys, tmp_path):
    out_path = tmp_path / "M.json"
    closed = tmp_path / "Md.json"
    spec = {
        "family": "double_star", "m": 3, "n": 2,
        "x": {"std": [[1, 0], [1, 0], [1, 0]]},
        "y": {"std": [[1, 0], [2, 0], [1, 0]]},
        "w": {"std": [[1, 0], [-1, 0]]},
        "v": {"std": [[1, 0], [1, 0]]},
        "a": {"std": [1, 0]},
        "b": {"std": [1, 0]},
    }
    code, _, _ = run(capsys, "graph", "--spec", write(spec, "spec.json"),
                     "-o", str(out_path), "--closed-form", str(closed))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["rows"] == doc["cols"] == 7
    assert doc["vertex_order"][0] == "hub1"
    inverse = json.loads(closed.read_text())
    assert inverse["rows"] == 7


def test_graph_flags_build_windmill(capsys):
    code, out, _ = run(capsys, "graph", "windmill", "--m", "4", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == 13
    assert doc["metadata"]["kappa"] == 13
    assert len(doc["permutation_to_bipartite"]) == 13


def test_graph_needs_some_spec(capsys):
    code, _, err = run(capsys, "graph")
    assert code == 4 and "family" in err


def test_verify_block_instance(write, capsys):
    eye = {"rows": 2, "cols": 2, "std": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    doc = {"theorem": "CLINE", "blocks": {"A": eye, "B": eye}}
    code, out, _ = run(capsys, "verify", "-i", write(doc, "inst.json"))
    assert code == 0
    record = json.loads(out)
    assert record["pass"] is True and record["hypotheses_pass"] is True


def test_verify_reports_violation_as_exit_2(write, capsys):
    spec = {
        "family": "double_star", "m": 2, "n": 2,
        "x": {"std": [[1, 0], [1, 0]]},
        "y": {"std": [[1, 0], [1, 0]]},
        "w": {"std": [[1, 0], [1, 0]]},
        "v": {"std": [[1, 0], [1, 0]]},
        "a": {"std": [1, 0]},
        "b": {"std": [1, 0]},
    }
    code, out, _ = run(capsys, "verify", "-i", write(spec, "spec.json"))
    assert code == 2
    record = json.loads(out)
    assert record["hypotheses_pass"] is False and record["pass"] is False


def test_verify_windmill_hub_outside_class_is_exit_2(write, capsys):
    # fuzz draw WINDMILL seed 0 trial 3 before the generator filtered on the
    # hub product: every blade-pair condition holds, but W = y x^T is a
    # nonzero pure infinitesimal and has no dual Drazin inverse
    zero = [0, 0]
    spec = {
        "family": "dutch_windmill", "m": 1, "n": 2,
        "blades": [{"rows": 3, "cols": 3,
                    "std": [[zero, [1, 0], zero], [zero, zero, [2, 0]], [zero, zero, zero]],
                    "inf": [[zero, [2, 0], zero], [zero, zero, [4, 0]], [zero, zero, zero]]}],
        "x": [{"std": [zero, zero, [2, 0]], "inf": [zero, zero, [-2, 0]]}],
        "y": [{"std": [zero, zero, zero], "inf": [[-2, 0], zero, zero]}],
    }
    code, out, _ = run(capsys, "verify", "-i", write(spec, "spec.json"))
    assert code == 2
    residuals = json.loads(out)["hypothesis_residuals"]
    assert residuals["annihilation_1_1"] == 0 and residuals["commutation_1_1"] == 0
    assert residuals["hub_membership"] > 0


WINDMILL_FORMS = {"WINDMILL": "drazin", "WINDMILL_BC0": "bc-zero", "WINDMILL_GROUP": "group"}
SHARED_FIELDS = ("order", "hypotheses_pass", "hypothesis_residuals",
                 "closed_form_error", "defining_residuals", "pass")


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_matches_the_fuzz_record(family, tmp_path, capsys):
    # ddz verify and each fuzz trial run one check, so on the same instance
    # they must report the same fields, in the same order
    cfg = GenConfig(family, trials=2, seed=9)
    records = fuzz(cfg).records
    form = WINDMILL_FORMS.get(family, "drazin")
    for trial, want in enumerate(records):
        inst = gen_instance(cfg, trial)
        doc = inst.to_doc() if isinstance(inst, BlockInstance) else graph_spec_to_doc(inst)
        path = tmp_path / f"{family}_{trial}.json"
        path.write_text(dumps_doc(doc))
        code, out, _ = run(capsys, "verify", "-i", str(path), "--form", form)
        got = json.loads(out)
        assert code == 0
        assert [k for k in got if k in SHARED_FIELDS] == list(SHARED_FIELDS)
        assert [k for k in want if k in SHARED_FIELDS] == list(SHARED_FIELDS)
        assert {k: got[k] for k in SHARED_FIELDS} == {k: want[k] for k in SHARED_FIELDS}


def test_fuzz_verb_deterministic_output(capsys):
    argv = ["fuzz", "--theorem", "abco-right", "--trials", "5", "--seed", "7"]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    assert len(first.strip().split("\n")) == 6
    code, second, _ = run(capsys, *argv)
    assert first == second


def test_fuzz_violate_exits_clean(capsys):
    code, out, _ = run(capsys, "fuzz", "--theorem", "cline", "--trials", "3",
                       "--seed", "1", "--violate")
    assert code == 0
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["evaluated"] == 0


def test_fuzz_unknown_family(capsys):
    code, _, err = run(capsys, "fuzz", "--theorem", "no-such-thing", "--trials", "1")
    assert code == 4


def test_output_round_trip_is_byte_identical(write, capsys, tmp_path):
    code, first, _ = run(capsys, "dual-drazin", "-i", write(INVERTIBLE, "a.json"))
    assert code == 0
    again = tmp_path / "x.json"
    again.write_text(first)
    code, _, _ = run(capsys, "dual-drazin", "-i", str(again), "-o", str(tmp_path / "y.json"))
    assert code == 0
    code, third, _ = run(capsys, "dual-drazin", "-i", str(tmp_path / "y.json"))
    assert code == 0
    assert first == third


def test_tolerance_flag_beats_environment(write, capsys, monkeypatch):
    monkeypatch.setenv("DDZ_RESIDUAL_TOL", "not-a-float")
    code, _, err = run(capsys, "index", "-i", write(INVERTIBLE, "a.json"))
    assert code == 4 and "DDZ_RESIDUAL_TOL" in err
    code, out, _ = run(capsys, "index", "-i", write(INVERTIBLE, "a.json"),
                       "--residual-tol", "1e-9")
    assert code == 0 and json.loads(out)["ind_std"] == 0


def test_environment_tolerance_is_used(write, capsys, monkeypatch):
    monkeypatch.setenv("DDZ_RANK_TOL", "1e-6")
    code, out, _ = run(capsys, "rank", "-i", write(INVERTIBLE, "a.json"))
    assert code == 0 and json.loads(out)["rank_std"] == 2


def test_block_verbs_round_trip(write, capsys):
    eye = {"rows": 2, "cols": 2, "std": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    p = write(eye, "i.json")
    code, out, _ = run(capsys, "cline", "-a", p, "-b", p)
    assert code == 0 and json.loads(out)["rows"] == 2
    code, out, _ = run(capsys, "bipartite", "-b", p, "-c", p)
    assert code == 0 and json.loads(out)["rows"] == 4
    code, _, _ = run(capsys, "tri", "-a", p, "-b", write(
        {"rows": 2, "cols": 2, "std": [[[0, 0]] * 2] * 2}, "z.json"), "-d", p)
    assert code == 0


def test_block_verb_hypothesis_violation(write, capsys):
    eye = {"rows": 2, "cols": 2, "std": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    p = write(eye, "i.json")
    code, _, err = run(capsys, "abio", "-a", p, "-b", p)
    assert code == 2 and "error:" in err
