"""Exit codes, output determinism and tolerance plumbing of the ddz front end."""

import argparse
import hashlib
import inspect
import io
import json
import sys
import warnings

import numpy as np
import pytest

from dualdrazin import DLinkedStars, DoubleStar, DualMatrix, DualScalar, DutchWindmill, blocks
from dualdrazin.blocks import (
    _SHAPES,
    BlockInstance,
    abco_drazin,
    abio_drazin,
    bipartite_drazin,
    cline,
    tri_drazin,
)
from dualdrazin.cli import _BLOCK_FORMS, _build_parser, main
from dualdrazin.digraphs import (
    dls_dual_drazin,
    ds_dual_drazin,
    dw_bc_zero,
    dw_dual_drazin,
    dw_group,
    graph_spec_to_doc,
)
from dualdrazin.drazin import matrix_index
from dualdrazin.errors import NotDualDrazinInvertible
from dualdrazin.harness import FAMILIES, GenConfig, _FUZZ_FORMS, fuzz, gen_instance, gen_member
from dualdrazin.serialize import dump_matrix, dumps_doc, matrix_to_doc

from conftest import MISSED_NULL_VECTOR, wrong_dual_index_draw

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


def _gaussian_int_doc(n, seed):
    rng = np.random.default_rng(seed)
    std, inf = rng.integers(-2, 3, (2, n, n, 2))
    return {"rows": n, "cols": n, "std": std.tolist(), "inf": inf.tolist()}


def test_rank_bounds_the_exact_oracle_by_order(write, capsys):
    # the Fraction elimination runs up to order 32 and is skipped above it
    code, out, _ = run(capsys, "rank", "-i", write(_gaussian_int_doc(12, 1), "small.json"))
    doc = json.loads(out)
    assert code == 0
    assert doc["smith"]["appreciable"] == doc["rank_std"]
    assert doc["smith"]["appreciable"] + doc["smith"]["infinitesimal"] == doc["rank_dual"]
    code, out, _ = run(capsys, "rank", "-i", write(_gaussian_int_doc(64, 2), "large.json"))
    doc = json.loads(out)
    assert code == 0
    assert sorted(doc) == ["rank_dual", "rank_std"]


def test_schema_errors_are_exit_4(write, capsys, tmp_path):
    code, _, err = run(capsys, "dual-drazin", "-i", str(tmp_path / "missing.json"))
    assert code == 4
    code, _, err = run(capsys, "dual-drazin", "-i", write({"std": "nope"}, "bad.json"))
    assert code == 4


BAD_SCALAR_SPEC = {
    "family": "double_star", "m": 2, "n": 2,
    "x": {"std": [[1, 0], [1, 0]]},
    "y": {"std": [[1, 0], [1, 0]]},
    "w": {"std": [[1, 0], [-1, 0]]},
    "v": {"std": [[1, 0], [1, 0]]},
    "a": {"std": "one"},
    "b": {"std": [1, 0]},
}
UNDECODABLE = [
    # a document with a byte that is not UTF-8, and a scalar with a non-numeric part
    (["dual-drazin", "-i"], b'{"rows": 1, "cols": 1, "std": [[[1, 0]]], "note": "\xff"}', "UTF-8"),
    (["graph", "--spec"], json.dumps(BAD_SCALAR_SPEC).encode(), "a.std"),
]


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize(("argv", "data", "message"), UNDECODABLE, ids=["non-utf8", "bad-scalar"])
def test_undecodable_input_is_one_line_exit_4(argv, data, message, source, tmp_path, capsys, monkeypatch):
    if source == "file":
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        target = str(path)
    else:
        # as in Python's UTF-8 mode, the text layer would pass a bad byte on
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), errors="surrogateescape"))
        target = "-"
    code, out, err = run(capsys, *argv, target)
    assert code == 4 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


def test_non_finite_entries_are_exit_4(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"rows": 1, "cols": 1, "std": [[[NaN, 0]]]}')
    code, _, err = run(capsys, "dual-drazin", "-i", str(path))
    assert code == 4
    assert err.startswith("error:") and err.count("\n") == 1


# Finite entries whose arithmetic overflows.  All 1.5e308 in the standard
# part overflows the largest singular value, which every factorisation reads
# first; 1.5e308 infinitesimal entries over a nilpotent standard part
# overflow the mixed series M of the existence test, and the largest
# singular value of phi(X) that `index` and `rank` read.  All 1e200
# factorises (see below), but its defining residuals overflow, so
# `dual-drazin` exits 4 on it.
OVERFLOWING = {
    "big_std": {"rows": 2, "cols": 2, "std": [[[1e200, 0]] * 2] * 2},
    "huge_std": {"rows": 2, "cols": 2, "std": [[[1.5e308, 0]] * 2] * 2},
    "huge_inf": dict(NILPOTENT, inf=[[[1.5e308, 0]] * 2] * 2),
}
OVERFLOW_CASES = (
    [("huge_inf", verb) for verb in ("dual-drazin", "exists", "index", "rank")]
    + [("huge_std", verb) for verb in ("dual-drazin", "exists", "index", "drazin")]
    + [("big_std", "dual-drazin")]
)
OVERFLOW_MESSAGES = {
    "huge_std": "the largest singular value overflows",
    "big_std": "a defining residual overflows",
}


@pytest.mark.parametrize(
    ("name", "verb"), OVERFLOW_CASES, ids=[f"{name}-{verb}" for name, verb in OVERFLOW_CASES]
)
def test_overflowing_entries_are_exit_4(name, verb, write, capsys):
    code, out, err = run(capsys, verb, "-i", write(OVERFLOWING[name], "big.json"))
    assert (code, out) == (4, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert OVERFLOW_MESSAGES.get(name, "") in err


def test_an_overflowing_block_product_is_one_line_exit_4(write, capsys):
    # every entry 1e200: A B overflows to inf and NaN, which the staircase
    # rejects; numpy's warnings on the way must not reach stderr
    big = OVERFLOWING["big_std"]
    path = write({"theorem": "CLINE", "blocks": {"A": big, "B": big}}, "cline.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "-i", path)
    assert (code, out, caught) == (4, "", [])
    assert err.startswith("error:") and err.count("\n") == 1


def test_an_overflowing_residual_is_not_written(write, capsys):
    # the sandwich norm overflows; "residual": inf is not JSON
    doc = {"rows": 2, "cols": 2, "std": [[[1, 0]] * 2] * 2, "inf": [[[1e305, 0]] * 2] * 2}
    code, out, err = run(capsys, "exists", "-i", write(doc, "a.json"))
    assert (code, out) == (4, "")
    assert err == "error: cannot write a non-finite number as JSON\n"


@pytest.mark.parametrize("verb", ["graph", "verify"])
def test_a_nan_hub_weight_is_exit_4(verb, write, capsys):
    spec = graph_spec_to_doc(DoubleStar(
        m=1, n=2, x=DualMatrix([[1.0]]), y=DualMatrix([[1.0]]),
        w=DualMatrix([[1.0], [1.0]]), v=DualMatrix([[1.0], [-1.0]]),
        a=DualScalar(1.0), b=DualScalar(1.0),
    ))
    spec["a"]["inf"] = [float("nan"), 0.0]
    path = write(spec, "spec.json")
    code, out, err = run(capsys, verb, *(["--spec", path] if verb == "graph" else ["-i", path]))
    assert (code, out) == (4, "")
    assert err == "error: dual matrix entries must be finite\n"


def test_index_reports_the_dual_index_of_a_large_member(write, capsys):
    path = write(matrix_to_doc(wrong_dual_index_draw()), "a.json")
    assert run(capsys, "index", "-i", path)[:2] == (0, '{"ind_std": 9, "ind_dual": 9, "ind_phi": 9}\n')


@pytest.mark.parametrize("verb", ["drazin", "dual-drazin", "exists"])
def test_a_missed_null_vector_is_exit_4(verb, write, capsys):
    code, out, err = run(capsys, verb, "-i", write(matrix_to_doc(DualMatrix(MISSED_NULL_VECTOR)), "a.json"))
    assert (code, out) == (4, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_fuzz_reaching_a_missed_null_vector_keeps_its_report(capsys):
    # trial 27's first draw is MISSED_NULL_VECTOR; the accept filter's error
    # fails that trial and keeps the records of the other 27
    code, out, _ = run(capsys, "fuzz", "--theorem", "tri-lower", "--trials", "28", "--seed", "0",
                       "--dim-min", "6", "--dim-max", "10")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 29 and records[-1]["record"] == "summary"
    assert records[-1]["generation_failures"] == 1
    assert records[27]["trial"] == 27 and records[27]["pass"] is False
    assert records[27]["note"].startswith("UncertainRank: ")


def test_huge_entries_with_a_finite_singular_value_are_answered(write, capsys):
    # A = 1e200 * J has sigma_max 2e200, index 1 and A^D = J / 4e200
    path = write(OVERFLOWING["big_std"], "big.json")
    assert run(capsys, "index", "-i", path)[:2] == (0, '{"ind_std": 1, "ind_dual": 1, "ind_phi": 1}\n')
    assert run(capsys, "exists", "-i", path)[:2] == (0, '{"exists": true, "residual": 0, "ind_std": 1}\n')
    code, out, _ = run(capsys, "drazin", "-i", path)
    got = np.array([[v[0] for v in row] for row in json.loads(out)["std"]])
    want = np.full((2, 2), 0.25e-200)
    assert code == 0
    assert np.abs(got - want).max() <= 1e-15 * want.max()


def test_tiny_invertible_standard_part_gets_its_dual_inverse(write, capsys):
    tiny = {"rows": 2, "cols": 2, "std": [[[1e-12, 0], [0, 0]], [[0, 0], [3e-12, 0]]]}
    code, out, _ = run(capsys, "dual-drazin", "-i", write(tiny, "tiny.json"))
    assert code == 0
    assert max(json.loads(out)["residuals"]) <= 1e-15


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


def _col(*values):
    return DualMatrix(np.array(values, dtype=complex).reshape(-1, 1))


EPS = DualMatrix([[0]], [[1]])
# one blade whose matrix D = eps is outside the class; every fan outer
# product is eps^2 = 0, so the pair, outer-zero, hub and index conditions hold
EPS_WINDMILL = DutchWindmill(m=1, n=1, blades=(EPS,), x=(EPS,), y=(EPS,))


# Each spec passed its hypothesis report before the report checked the one
# inverse it lacks; the public closed form then raised from inside.
REPORT_GAPS = {
    # theta = x^T y + ab = 1e-13 + eps is a pure infinitesimal at working
    # precision, so the double star core has no dual Drazin inverse
    "theta": ("drazin", "theta_membership", ds_dual_drazin, DoubleStar(
        m=1, n=2, x=_col(1), y=_col(-1 + 1e-13), w=_col(1, 1), v=_col(1, -1),
        a=DualScalar(1, 1), b=DualScalar(1, 0))),
    # the hub product W = y x^T = eps is outside the class, while the blade
    # pair and index conditions of the group form all hold
    "group_hub": ("group", "hub_membership", dw_group, DutchWindmill(
        m=1, n=1, blades=(DualMatrix([[0]]),), x=(DualMatrix([[0]], [[1]]),),
        y=(DualMatrix([[1]]),))),
    "windmill_D": ("drazin", "membership_D", dw_dual_drazin, EPS_WINDMILL),
    "bc_zero_D": ("bc-zero", "membership_D", dw_bc_zero, EPS_WINDMILL),
    "group_D": ("group", "membership_D", dw_group, EPS_WINDMILL),
    # the core [[0,1],[0,0]] + eps [[1,0],[2,1]] is outside the class, while
    # both leaf fans are dual-orthogonal
    "linked_base": ("drazin", "membership_base", dls_dual_drazin, DLinkedStars(
        base=DualMatrix([[0, 1], [0, 0]], [[1, 0], [2, 1]]), r=(2, 2),
        x=(_col(1, 1), _col(1, 1)), y=(_col(1, -1), _col(1, -1)))),
}


@pytest.mark.parametrize("gap", sorted(REPORT_GAPS))
def test_report_gaps_are_exit_2_and_closed_forms_stay_exit_3(gap, write, capsys, tmp_path):
    form, condition, closed_form, spec = REPORT_GAPS[gap]
    path = write(graph_spec_to_doc(spec), "spec.json")
    code, out, _ = run(capsys, "verify", "-i", path, "--form", form)
    assert code == 2
    record = json.loads(out)
    assert record["hypotheses_pass"] is False and record["pass"] is False
    failed = [k for k, v in record["hypothesis_residuals"].items() if v > 0]
    assert failed == [condition]
    with pytest.raises(NotDualDrazinInvertible):
        closed_form(spec)
    code, _, err = run(capsys, "graph", "--spec", path, "-o", str(tmp_path / "adj.json"),
                       "--closed-form", str(tmp_path / "inv.json"), "--form", form)
    assert code == 3 and err.startswith("error: ")


SHARED_FIELDS = ("order", "hypotheses_pass", "hypothesis_residuals",
                 "closed_form_error", "defining_residuals", "pass")


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_matches_the_fuzz_record(family, tmp_path, capsys):
    # ddz verify and each fuzz trial run one check, so on the same instance
    # they must report the same fields, in the same order
    cfg = GenConfig(family, trials=2, seed=9)
    records = fuzz(cfg).records
    form = _FUZZ_FORMS.get(family, "drazin").replace("_", "-")
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


# block verb -> the theorems its variants evaluate, and the public form it calls
BLOCK_VERBS = {
    "cline": (("CLINE",), cline),
    "tri": (("TRI_UPPER", "TRI_LOWER"), tri_drazin),
    "abio": (("ABIO_RIGHT", "ABIO_LEFT"), abio_drazin),
    "abco": (("ABCO_RIGHT", "ABCO_LEFT"), abco_drazin),
    "bipartite": (("BIPARTITE",), bipartite_drazin),
}


@pytest.mark.parametrize("verb", sorted(BLOCK_VERBS))
def test_block_verb_options_are_the_theorem_blocks(verb):
    theorems, form = BLOCK_VERBS[verb]
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    required = [action.dest for action in sub.choices[verb]._actions if action.required]
    for theorem in theorems:
        assert required == [key.lower() for key in _SHAPES[theorem]]
    # the verb loads its blocks in that order and hands them to its form,
    # which it looks up on the blocks module when it runs, and whose leading
    # parameters are the same blocks in the same order
    assert getattr(blocks, _BLOCK_FORMS[verb]) is form
    assert list(inspect.signature(form).parameters)[:len(required)] == required


def _gaussian_integers_48():
    parts = np.random.default_rng(48).integers(-2, 3, (4, 48, 48)).astype(float)
    return DualMatrix(parts[0] + 1j * parts[1], parts[2] + 1j * parts[3])


# sha256[:16] of the file `ddz <verb> -i <input> -o <file>` writes; drazin is
# given the standard part alone.  The first input has index 0, the second
# (gen_member(10, default_rng([1, 2]), invertible=False)) index 4.
PINNED_INVERSES = {
    ("gaussian_integers_48", "dual-drazin"): "efb92836daf0ada5",
    ("gaussian_integers_48", "drazin"): "28331e9242230a6c",
    ("member_index_4", "dual-drazin"): "980d828456738a30",
    ("member_index_4", "drazin"): "6065b93fc3de69b3",
}


@pytest.mark.parametrize("name, verb", sorted(PINNED_INVERSES))
def test_inverse_outputs_are_pinned(name, verb, tmp_path):
    if name == "gaussian_integers_48":
        x, index = _gaussian_integers_48(), 0
    else:
        x, index = gen_member(10, np.random.default_rng([1, 2]), invertible=False), 4
    assert matrix_index(x.std) == index
    if verb == "drazin":
        x = DualMatrix(x.std)
    source, target = tmp_path / "in.json", tmp_path / "out.json"
    dump_matrix(x, source)
    assert main([verb, "-i", str(source), "-o", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest()[:16] == PINNED_INVERSES[name, verb]
