"""Exit codes, output determinism and tolerance plumbing of the ddz front end."""

import argparse
import gc
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from dualdrazin import DLinkedStars, DoubleStar, DualMatrix, DutchWindmill, blocks, digraphs
import dualdrazin.drazin
from dualdrazin.blocks import (
    _SHAPES,
    BlockInstance,
    abco_drazin,
    abio_drazin,
    bipartite_drazin,
    cline,
    tri_drazin,
)
from dualdrazin.cli import _BLOCK_VERBS, _build_parser, _emit, main
from dualdrazin.digraphs import (
    dls_dual_drazin,
    ds_dual_drazin,
    dw_bc_zero,
    dw_dual_drazin,
    dw_group,
    graph_spec_to_doc,
)
from dualdrazin.drazin import DualDrazinData, matrix_index
from dualdrazin.errors import NonFiniteEntries, NotDualDrazinInvertible, SchemaError
from dualdrazin.harness import FAMILIES, GRAPH_FAMILIES, GenConfig, _FUZZ_FORMS, fuzz, gen_instance, gen_member
from dualdrazin.serialize import _matrix_doc, dump_matrix, dumps_doc, load_matrix, matrix_to_doc

from conftest import MISSED_NULL_VECTOR, gaussian_integers, wrong_dual_index_draw

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
    code, _, err = run(capsys, "graph", "--spec", write([{"family": "dutch_windmill"}], "list.json"))
    assert code == 4 and "JSON object" in err


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
    # a document with a byte that is not UTF-8, a scalar with a non-numeric
    # part, and arrays nested past the JSON reader's recursion limit
    (["dual-drazin", "-i"], b'{"rows": 1, "cols": 1, "std": [[[1, 0]]], "note": "\xff"}', "UTF-8"),
    (["graph", "--spec"], json.dumps(BAD_SCALAR_SPEC).encode(), "a.std"),
    (["dual-drazin", "-i"], b"[" * 100_000 + b"]" * 100_000, "nests too deeply"),
]


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize(("argv", "data", "message"), UNDECODABLE, ids=["non-utf8", "bad-scalar", "deep-nesting"])
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


@pytest.mark.parametrize("data", [b'{"rows": 1,', b'{"note": "\xff"}', None], ids=["bad-json", "non-utf8", "missing"])
def test_load_matrix_and_the_cli_word_a_bad_file_alike(data, tmp_path, capsys):
    path = tmp_path / "doc.json"
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(SchemaError) as caught:
        load_matrix(str(path))
    code, out, err = run(capsys, "dual-drazin", "-i", str(path))
    assert code == 4 and out == ""
    assert err == f"error: {caught.value}\n"


GOOD_SPEC = {
    "family": "double_star", "m": 3, "n": 2,
    "x": {"std": [[1, 0], [1, 0], [1, 0]]},
    "y": {"std": [[1, 0], [2, 0], [1, 0]]},
    "w": {"std": [[1, 0], [-1, 0]]},
    "v": {"std": [[1, 0], [1, 0]]},
    "a": {"std": [1, 0]},
    "b": {"std": [1, 0]},
}
# (argv, document with one entry replaced by the value, label the error names);
# numpy reads "2" and true as the numbers 2 and 1, which JSON does not
NON_NUMBER_ENTRIES = {
    "matrix": (["dual-drazin", "-i"], lambda value: {"rows": 1, "cols": 1, "std": [[[2, value]]]}, "std"),
    "vector": (["graph", "--spec"], lambda value: dict(GOOD_SPEC, x={"std": [[1, 0], [1, value], [1, 0]]}), "x.std"),
    "scalar": (["graph", "--spec"], lambda value: dict(GOOD_SPEC, a={"std": [1, value]}), "a.std"),
}


@pytest.mark.parametrize("value", ["2", True], ids=["string", "bool"])
@pytest.mark.parametrize("where", sorted(NON_NUMBER_ENTRIES))
def test_non_number_entries_are_exit_4(where, value, write, capsys):
    argv, doc, label = NON_NUMBER_ENTRIES[where]
    assert run(capsys, *argv, write(doc(0), "good.json"))[0] == 0
    code, out, err = run(capsys, *argv, write(doc(value), "bad.json"))
    assert (code, out) == (4, "")
    assert err.startswith("error:") and err.count("\n") == 1 and label in err


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
# `dual-drazin` exits 4 on it.  A JSON integer past the double range
# overflows when it is read.
OVERFLOWING = {
    "big_std": {"rows": 2, "cols": 2, "std": [[[1e200, 0]] * 2] * 2},
    "huge_std": {"rows": 2, "cols": 2, "std": [[[1.5e308, 0]] * 2] * 2},
    "huge_inf": dict(NILPOTENT, inf=[[[1.5e308, 0]] * 2] * 2),
    "huge_int": {"rows": 1, "cols": 1, "std": [[[10**400, 0]]]},
}
OVERFLOW_CASES = (
    [("huge_inf", verb) for verb in ("dual-drazin", "exists", "index", "rank")]
    + [("huge_std", verb) for verb in ("dual-drazin", "exists", "index", "drazin")]
    + [("big_std", "dual-drazin"), ("huge_int", "dual-drazin")]
)
OVERFLOW_MESSAGES = {
    "huge_std": "the largest singular value overflows",
    "big_std": "a defining residual overflows",
    "huge_int": "an entry overflows a double",
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
    # the sandwich norm overflows; an infinite certificate decides nothing,
    # and "residual": inf would not be JSON
    doc = {"rows": 2, "cols": 2, "std": [[[1, 0]] * 2] * 2, "inf": [[[1e305, 0]] * 2] * 2}
    code, out, err = run(capsys, "exists", "-i", write(doc, "a.json"))
    assert (code, out) == (4, "")
    assert err == "error: the existence certificate |Pi M Pi| overflows\n"


def _order_64(bad):
    """An order-64 document, the order from which drazin_complex tries LU first."""
    std = np.eye(64)
    if bad == "overflow":  # invertible, and its largest singular value overflows
        std = 1.5e308 * np.triu(np.ones((64, 64)))
    else:
        std[3, 5] = bad
    return {"rows": 64, "cols": 64, "std": np.stack((std, np.zeros_like(std)), axis=-1).tolist()}


@pytest.mark.parametrize("verb", ["drazin", "dual-drazin", "exists"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "overflow"], ids=["nan", "inf", "overflow"])
def test_order_64_entries_that_are_not_finite_or_overflow_are_exit_4(bad, verb, write, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, verb, "-i", write(_order_64(bad), "big.json"))
    assert (code, out, caught) == (4, "", [])
    assert err.startswith("error:") and err.count("\n") == 1


HUB_STAR = DoubleStar(
    m=1, n=2, x=DualMatrix([[1.0]]), y=DualMatrix([[1.0]]),
    w=DualMatrix([[1.0], [1.0]]), v=DualMatrix([[1.0], [-1.0]]),
    a=DualMatrix([[1.0]]), b=DualMatrix([[1.0]]),
)


@pytest.mark.parametrize("verb", ["graph", "verify"])
def test_a_nan_hub_weight_is_exit_4(verb, write, capsys):
    spec = graph_spec_to_doc(HUB_STAR)
    spec["a"]["inf"] = [float("nan"), 0.0]
    path = write(spec, "spec.json")
    code, out, err = run(capsys, verb, *(["--spec", path] if verb == "graph" else ["-i", path]))
    assert (code, out) == (4, "")
    assert err == "error: dual matrix entries must be finite\n"


@pytest.mark.parametrize("verb", ["graph", "verify"])
def test_an_inappreciable_hub_weight_is_exit_4(verb, write, capsys):
    # the document format is unchanged: a hub weight is a dual scalar, read
    # as a 1x1 dual matrix; 1e-300 is no unit beside an eps part of 1, nor
    # 1 + 1.5e-12 beside one of 1e12 at the scale 1 + |std| + |inf|
    for std, inf in ((1e-300, 1.0), (1 + 1.5e-12, 1e12)):
        spec = graph_spec_to_doc(HUB_STAR)
        spec["b"] = {"std": [std, 0.0], "inf": [inf, 0.0]}
        path = write(spec, "spec.json")
        code, out, err = run(capsys, verb, *(["--spec", path] if verb == "graph" else ["-i", path]))
        assert (code, out, err) == (4, "", "error: hub-to-hub weight b must be appreciable\n")


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


@pytest.mark.parametrize("family", GRAPH_FAMILIES)
def test_graph_closed_form_lays_its_spec_out_once(family, write, capsys, tmp_path, monkeypatch):
    # the adjacency document and the closed form share the spec's one layout
    inst = gen_instance(GenConfig(family, trials=1, seed=3, dim_max=3), 0)
    path = write(graph_spec_to_doc(inst), "spec.json")
    blocks_of, parts = digraphs._blocks, []
    monkeypatch.setattr(digraphs, "_blocks", lambda spec, part: parts.append(part) or blocks_of(spec, part))
    form = _FUZZ_FORMS.get(family, "drazin").replace("_", "-")
    code, _, _ = run(capsys, "graph", "--spec", path, "-o", str(tmp_path / "adj.json"),
                     "--closed-form", str(tmp_path / "inv.json"), "--form", form)
    assert code == 0 and parts == ["std", "inf"]


def test_graph_spec_without_weights_builds_the_windmill_pattern(capsys, monkeypatch):
    # a windmill spec that omits its blades and weights is the unweighted
    # pattern; the digest is that of the adjacency document it has always had
    spec = b'{"family": "dutch_windmill", "m": 4, "n": 2}'
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(spec)))
    code, out, _ = run(capsys, "graph", "--spec", "-")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f9bd83074dd5a462ec286dd2c5e8651875045b3bbd0941ed18b541ce7a904fe1")
    doc = json.loads(out)
    assert doc["rows"] == 13
    assert doc["metadata"]["kappa"] == 13
    assert len(doc["permutation_to_bipartite"]) == 13


def test_graph_needs_some_spec(capsys):
    code, _, err = run(capsys, "graph")
    assert code == 4 and "--spec" in err


@pytest.mark.parametrize("argv", [["dual-drazin"], ["fuzz", "--theorem", "cline", "--trials", "abc"],
                                  ["nosuchverb"], ["graph", "windmill", "--m", "4", "--n", "2"]],
                         ids=["missing-option", "bad-value", "unknown-verb", "graph-family"])
def test_a_command_line_that_does_not_parse_is_exit_4(argv, capsys):
    # exit 2 is kept for violated hypotheses; usage errors are malformed input
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == "" and "error:" in err


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "-h")
    assert code == 0 and out.startswith("usage: ddz")


@pytest.mark.parametrize("where", ["output", "closed-form", "artifacts"])
def test_an_output_that_cannot_be_written_is_one_line_exit_4(where, write, capsys, tmp_path):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    missing = str(tmp_path / "missing_dir" / "out.json")
    if where == "output":
        argv = ["dual-drazin", "-i", write(INVERTIBLE, "a.json"), "-o", missing]
    elif where == "closed-form":
        argv = ["graph", "--spec", write({"family": "dutch_windmill", "m": 1, "n": 1}, "spec.json"),
                "-o", str(tmp_path / "adj.json"), "--closed-form", missing]
    else:
        # a failing campaign keeps its counterexamples in a directory, here a file
        argv = ["fuzz", "--theorem", "cline", "--trials", "2", "--max-rel-error", "-1",
                "--artifacts", str(blocker), "-o", str(tmp_path / "out.jsonl")]
        missing = str(blocker)
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and missing in err


def test_a_fuzz_report_that_cannot_be_written_leaves_no_artifacts(capsys, tmp_path, monkeypatch):
    # both trials fail the negative gate and store a counterexample during
    # the campaign; the report cannot be written, so the run removes them
    monkeypatch.chdir(tmp_path)
    argv = ["fuzz", "--theorem", "cline", "--trials", "2", "--max-rel-error", "-1", "--artifacts", "art"]
    code, out, err = run(capsys, *argv, "-o", "missing_dir/out.jsonl")
    assert (code, out) == (4, "")
    assert err.startswith("error: cannot write missing_dir/out.jsonl") and err.count("\n") == 1
    assert list(Path("art").glob("cline_*.json")) == []
    code, _, _ = run(capsys, *argv, "-o", "out.jsonl")
    assert code == 1
    assert sorted(path.name for path in Path("art").glob("cline_*.json")) == ["cline_0000.json", "cline_0001.json"]


def test_a_counterexample_that_cannot_be_written_leaves_no_output(capsys, tmp_path, monkeypatch):
    # all three trials fail the negative error bound; the second
    # counterexample's path is a directory, so the run removes the first
    # and writes neither the third nor the report
    monkeypatch.chdir(tmp_path)
    Path("art/cline_0001.json").mkdir(parents=True)
    code, out, err = run(capsys, "fuzz", "--theorem", "cline", "--trials", "3", "--max-rel-error", "-1",
                         "--artifacts", "art", "-o", "out.jsonl")
    assert (code, out) == (4, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "art/cline_0001.json" in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["art"]
    assert [path.name for path in Path("art").iterdir()] == ["cline_0001.json"]


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    writelines = write


def test_a_closed_stdout_is_one_line_exit_4(write, capsys, tmp_path, monkeypatch):
    # the closed form goes to a file first, then the adjacency to stdout,
    # which cannot take it: the run removes the closed form
    closed = tmp_path / "inv.json"
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["graph", "--spec", write({"family": "dutch_windmill", "m": 1, "n": 1}, "spec.json"),
                 "--closed-form", str(closed)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: cannot write to standard output:") and err.count("\n") == 1
    assert not closed.exists()


def test_a_pipe_closed_early_is_one_line_exit_4():
    # the reader takes 20 bytes of the adjacency (201 x 201, far more than
    # the pipe holds) and closes the pipe
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "dualdrazin.cli", "graph", "--spec", "-"], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdin.write(b'{"family": "dutch_windmill", "m": 40, "n": 3}')
    proc.stdin.close()
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 4
    assert err.startswith("error: cannot write to standard output:") and err.count("\n") == 1


@pytest.mark.parametrize("with_output", [True, False], ids=["file", "stdout"])
@pytest.mark.parametrize("case", ["violated", "unwritable"])
def test_a_failed_graph_run_leaves_no_output(case, with_output, write, capsys, tmp_path):
    # both documents are rendered before either is written: the m = n = 2
    # windmill pattern violates its hypotheses (exit 2), and a closed form
    # that cannot be written removes the adjacency written before it (exit 4)
    m, code_wanted = (2, 2) if case == "violated" else (1, 4)
    adjacency = tmp_path / "adj.json"
    closed = tmp_path / ("inv.json" if case == "violated" else "missing_dir/inv.json")
    argv = ["graph", "--spec", write({"family": "dutch_windmill", "m": m, "n": m}, "spec.json"),
            "--closed-form", str(closed)]
    code, out, err = run(capsys, *argv, *(["-o", str(adjacency)] if with_output else []))
    assert (code, out) == (code_wanted, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert not adjacency.exists() and not closed.exists()


def test_written_bytes_are_the_text_of_dumps_doc(tmp_path, capsys):
    # dump_matrix and the CLI write the rendered pieces one by one; they
    # must add up to the one string dumps_doc joins.  A 64x64 matrix with
    # -0.0, 1e-300 and +-1e300 entries among random ones
    rng = np.random.default_rng([64, 26])
    parts = rng.standard_normal((4, 64, 64))
    for value in (-0.0, 1e-300, 1e300, -1e300):
        parts[rng.random((4, 64, 64)) < 0.05] = value
    x = DualMatrix(parts[0] + 1j * parts[1], parts[2] + 1j * parts[3])
    doc = _matrix_doc(x, residuals=[0.0, -0.0, 1e-300])
    text = dumps_doc(doc)
    assert "1e+300" in text and "1e-300" in text and "-0," not in text
    dump_matrix(x, tmp_path / "dumped.json", residuals=[0.0, -0.0, 1e-300])
    _emit((doc, str(tmp_path / "emitted.json")), (doc, None))
    assert capsys.readouterr().out == text
    assert (tmp_path / "dumped.json").read_bytes() == text.encode()
    assert (tmp_path / "emitted.json").read_bytes() == text.encode()


@pytest.mark.parametrize("with_output", [True, False], ids=["file", "stdout"])
def test_a_non_finite_last_row_writes_nothing(with_output, write, capsys, tmp_path, monkeypatch):
    # the writer meets the inf only in the last row it renders; every piece
    # is rendered before any is written, so no partial document is left
    std = np.ones((40, 40), complex)
    std[-1, -1] = np.inf
    inverse = DualMatrix._of(std, np.zeros_like(std))
    record = types.SimpleNamespace(inverse=inverse, index=0)
    monkeypatch.setattr(dualdrazin.drazin, "dual_drazin", lambda *args: record)
    monkeypatch.setattr(dualdrazin.drazin, "defining_residuals", lambda *args: (0.0, 0.0, 0.0))
    target = tmp_path / "out.json"
    argv = ["dual-drazin", "-i", write(INVERTIBLE, "a.json"), *(["-o", str(target)] if with_output else [])]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == "error: cannot write a non-finite number as JSON\n"
    assert not target.exists()
    with pytest.raises(NonFiniteEntries):
        dump_matrix(inverse, target)
    assert not target.exists()


def _malformed(part, kind):
    """A 3x2 matrix document whose part has ragged rows, a 3-number entry or a row that is no list."""
    rows = [[[1, 0], [2, 0]], [[3, 0], [4, 0]], [[5, 0], [6, 0]]]
    if kind == "ragged":
        rows[1] = rows[1][:1]
    elif kind == "triple":
        rows[2][1] = [6, 0, 0]
    else:
        rows[0] = {"re": 1, "im": 0}
    doc = {"rows": 3, "cols": 2, "std": [[[1, 0], [0, 0]]] * 3}
    doc[part] = rows
    return doc


@pytest.mark.parametrize("kind", ["ragged", "triple", "non-list-row"])
@pytest.mark.parametrize("part", ["std", "inf"])
def test_a_malformed_part_is_exit_4_and_named(part, kind, write, capsys):
    code, out, err = run(capsys, "dual-drazin", "-i", write(_malformed(part, kind), "bad.json"))
    assert (code, out) == (4, "")
    assert err.startswith(f"error: {part}: expected 3x2 nested lists") and err.count("\n") == 1


def test_dual_drazin_holds_its_documents_once(tmp_path):
    # the traced peak of a 128x128 run stays below 3x the bytes it writes:
    # the input is held as arrays once read, the input and its factorisation
    # are released before the write, and the output is held once, as its
    # pieces.  A whole-document copy of the output, or the input's nested
    # lists kept as a float array too, brings it past the bound.
    source, target = tmp_path / "in.json", tmp_path / "out.json"
    source.write_text(json.dumps(_gaussian_int_doc(128, 26)))
    argv = ["dual-drazin", "-i", str(source), "-o", str(target)]
    assert main(argv) == 0  # imports and caches stay out of the measurement
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * target.stat().st_size, (peak, target.stat().st_size)


def test_dual_drazin_checks_its_residuals_without_the_record(write, capsys, monkeypatch):
    # the factorisation record (M, the projectors, the basis and, at index 0,
    # a second A^D) is dropped before the residual check, which reads only
    # the input and the inverse
    check = dualdrazin.drazin.defining_residuals
    alive = []

    def counted(*args):
        alive.append(sum(isinstance(obj, DualDrazinData) for obj in gc.get_objects()))
        return check(*args)

    monkeypatch.setattr(dualdrazin.drazin, "defining_residuals", counted)
    for doc in (INVERTIBLE, COMPATIBLE):  # index 0 and index 2
        gc.collect()
        before = sum(isinstance(obj, DualDrazinData) for obj in gc.get_objects())
        code, out, _ = run(capsys, "dual-drazin", "-i", write(doc, "a.json"))
        assert code == 0 and len(json.loads(out)["residuals"]) == 3
        assert alive.pop() == before and not alive


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
    # hub product: commutation and annihilation hold, but W = y x^T is a
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
    assert residuals["annihilation"] == 0 and residuals["commutation"] == 0
    assert residuals["hub_membership"] > 0


def _col(*values):
    return DualMatrix(np.array(values, dtype=complex).reshape(-1, 1))


def test_a_small_fan_beside_a_large_one_is_exit_2_and_writes_nothing(write, capsys, tmp_path):
    # fan 1's dot x_1^T y_1 = 1e-3 is far above rounding at fan 1's own
    # scale; weighed against the scale 2e6 of both fans it passed, and
    # --closed-form wrote a matrix 7e-4 off the inverse
    spec = DLinkedStars(base=DualMatrix(np.eye(2)), r=(1, 2), x=(_col(1), _col(1e3, 1e3)),
                        y=(_col(1e-3), _col(1e3, -1e3)))
    path = write(graph_spec_to_doc(spec), "spec.json")
    adj, inv = tmp_path / "adj.json", tmp_path / "inv.json"
    code, out, err = run(capsys, "graph", "--spec", path, "-o", str(adj), "--closed-form", str(inv))
    assert code == 2 and out == "" and "outer_zero=9.990e-04" in err
    assert not adj.exists() and not inv.exists()
    code, out, _ = run(capsys, "verify", "-i", path)
    assert code == 2 and json.loads(out)["hypotheses_pass"] is False


EPS = DualMatrix([[0]], [[1]])
# one blade whose matrix D = eps is outside the class; the hub product
# W = y x^T is eps^2 = 0, so the commutation, annihilation, outer-zero, hub
# and index conditions hold
EPS_WINDMILL = DutchWindmill(m=1, n=1, blades=(EPS,), x=(EPS,), y=(EPS,))
# the hub product W = y x^T = eps is outside the class, while commutation,
# annihilation and (for the group form) the index conditions all hold
EPS_HUB_WINDMILL = DutchWindmill(m=1, n=1, blades=(DualMatrix([[0]]),), x=(EPS,), y=(DualMatrix([[1]]),))


# Each spec fails only the membership condition of the one inverse it
# lacks: verify reports a failed hypothesis (exit 2), and every closed form,
# whatever its windmill form, reports a missing inverse (exit 3).
REPORT_GAPS = {
    # theta = x^T y + ab = 1e-13 + eps is a pure infinitesimal at working
    # precision, so the double star core has no dual Drazin inverse
    "theta": ("drazin", "theta_membership", ds_dual_drazin, DoubleStar(
        m=1, n=2, x=_col(1), y=_col(-1 + 1e-13), w=_col(1, 1), v=_col(1, -1),
        a=DualMatrix([[1]], [[1]]), b=DualMatrix([[1]]))),
    "windmill_hub": ("drazin", "hub_membership", dw_dual_drazin, EPS_HUB_WINDMILL),
    "group_hub": ("group", "hub_membership", dw_group, EPS_HUB_WINDMILL),
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


# The ABCO report gap (ROADMAP, known defects): A = 0 and B = C = eps pass
# every ABCO condition, yet [[0, eps], [eps, 0]] has no dual Drazin
# inverse.  The windmill with D = 0 and eps fans is the same matrix through
# _dw_formula, BIPARTITE is ABCO with A = 0, and the linked-star body is
# ABCO with W = 0.  The double star with eps fans on hub2 has W = eps^2 = 0
# and an invertible theta = 2, yet no inverse: verify's oracle raises
# (exit 3) and the closed form writes a non-inverse whose first defining
# residual is 0.29.  These cases assert what a mended report gives: verify
# reports a failed hypothesis (exit 2) and no closed form exits 0.
ABCO_GAPS = {
    "abco_right": BlockInstance("ABCO_RIGHT", {"A": DualMatrix([[0]]), "B": EPS, "C": EPS}),
    "abco_left": BlockInstance("ABCO_LEFT", {"A": DualMatrix([[0]]), "B": EPS, "C": EPS}),
    "bipartite": BlockInstance("BIPARTITE", {"B": EPS, "C": EPS}),
    **{f"windmill_{form}": DutchWindmill(m=1, n=1, blades=(DualMatrix([[0]]),), x=(EPS,), y=(EPS,))
       for form in ("drazin", "bc-zero", "group")},
    "linked_stars": DLinkedStars(base=DualMatrix([[0]]), r=(1,), x=(EPS,), y=(EPS,)),
    "double_star": DoubleStar(m=1, n=1, x=_col(1), y=_col(1), w=EPS, v=EPS, a=_col(1), b=_col(1)),
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the ABCO report passes on a non-member (ROADMAP known defects)")
@pytest.mark.parametrize("gap", sorted(ABCO_GAPS))
def test_abco_gaps_are_exit_2_and_no_closed_form_exits_0(gap, write, capsys, tmp_path):
    inst = ABCO_GAPS[gap]
    if isinstance(inst, BlockInstance):
        code, _, _ = run(capsys, "verify", "-i", write(inst.to_doc(), "inst.json"))
        assert code == 2
        blocks_argv = [arg for key, block in inst.blocks.items()
                       for arg in ("-" + key.lower(), write(matrix_to_doc(block), f"{key}.json"))]
        verb, *side = inst.theorem.lower().split("_")
        variant = _BLOCK_VERBS[verb][2]  # bipartite takes no --side
        code, _, _ = run(capsys, verb, *blocks_argv, *(["--" + variant[0], *side] if variant else []))
        assert code != 0
    else:
        form = gap.removeprefix("windmill_") if gap.startswith("windmill_") else "drazin"
        path = write(graph_spec_to_doc(inst), "spec.json")
        code, _, _ = run(capsys, "verify", "-i", path, "--form", form)
        assert code == 2
        code, _, _ = run(capsys, "graph", "--spec", path, "-o", str(tmp_path / "adj.json"),
                         "--closed-form", str(tmp_path / "inv.json"), "--form", form)
        assert code != 0


def _identity_doc(k):
    return {"rows": k, "cols": k, "std": [[[float(i == j), 0] for j in range(k)] for i in range(k)]}


# count field -> (verb, a valid document built around a count k, where the
# field holds k)
COUNT_DOCS = {
    "rows": ("dual-drazin", _identity_doc),
    "cols": ("dual-drazin", _identity_doc),
    "m": ("graph", lambda k: {"family": "dutch_windmill", "m": k, "n": 2}),
    "n": ("graph", lambda k: {"family": "dutch_windmill", "m": 2, "n": k}),
    "r": ("graph", lambda k: {"family": "linked_stars", "base": {"rows": 1, "cols": 1, "std": [[[1, 0]]]},
                              "r": [k], "x": [{"std": [[1, 0]] * k}], "y": [{"std": [[1, 0]] * k}]}),
}


@pytest.mark.parametrize("value", [2.7, True, "3"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("field", sorted(COUNT_DOCS))
def test_counts_must_be_json_integers(field, value, write, capsys):
    # int(value) is a count the document fits, so only the check that a
    # count is a JSON integer can refuse it
    verb, make = COUNT_DOCS[field]
    flag = "--spec" if verb == "graph" else "-i"
    code, _, _ = run(capsys, verb, flag, write(make(int(value)), "valid.json"))
    assert code == 0
    doc = make(int(value))
    doc[field] = [value] if field == "r" else value
    code, out, err = run(capsys, verb, flag, write(doc, "count.json"))
    assert code == 4 and out == "" and err.startswith("error: ")
    assert "integer" in err


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


def test_rank_tol_flag_sets_the_rank_threshold(write, capsys):
    # the smallest singular value, 1e-8, lies above the default threshold
    # 2 * 1e-12 and below 2 * 1e-6
    path = write({"rows": 2, "cols": 2, "std": [[[1, 0], [0, 0]], [[0, 0], [1e-8, 0]]]}, "d.json")
    code, out, _ = run(capsys, "rank", "-i", path)
    assert code == 0 and json.loads(out)["rank_std"] == 2
    code, out, _ = run(capsys, "rank", "-i", path, "--rank-tol", "1e-6")
    assert code == 0 and json.loads(out)["rank_std"] == 1


def test_residual_tol_flag_sets_the_hypothesis_gate(write, capsys):
    # P Q has norm 1e-8, above the default gate 1e-9 * (1 + |P| + |Q|) and
    # below the gate at 1e-6
    p = {"rows": 2, "cols": 2, "std": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
    q = {"rows": 2, "cols": 2, "std": [[[0, 0], [1e-8, 0]], [[0, 0], [1, 0]]]}
    path = write({"theorem": "SUM_PQ0", "blocks": {"P": p, "Q": q}}, "inst.json")
    code, out, _ = run(capsys, "verify", "-i", path)
    assert code == 2 and json.loads(out)["hypotheses_pass"] is False
    code, out, _ = run(capsys, "verify", "-i", path, "--residual-tol", "1e-6")
    assert code == 0 and json.loads(out)["hypotheses_pass"] is True


@pytest.mark.parametrize("verb", ["index", "rank"])
def test_tolerances_are_not_read_from_the_environment(verb, write, capsys, monkeypatch):
    path = write(INVERTIBLE, "a.json")
    before = run(capsys, verb, "-i", path)
    monkeypatch.setenv("DDZ_RANK_TOL", "junk")
    monkeypatch.setenv("DDZ_RESIDUAL_TOL", "junk")
    assert run(capsys, verb, "-i", path) == before


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


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("verb", ["abio", "abco"])
def test_block_verb_outside_the_class_is_exit_3(verb, side, write, capsys):
    # A = eps has no dual Drazin inverse, while the commutation and
    # annihilation hypotheses hold: a missing inverse, not a violated hypothesis
    eps = write({"rows": 1, "cols": 1, "std": [[[0, 0]]], "inf": [[[1, 0]]]}, "eps.json")
    one = write({"rows": 1, "cols": 1, "std": [[[1, 0]]]}, "one.json")
    corner = ["-c", one] if verb == "abco" else []
    code, _, err = run(capsys, verb, "-a", eps, "-b", one, *corner, "--side", side)
    assert code == 3 and err.startswith(f"error: {verb.upper()}_{side.upper()}: membership_A=")


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
    assert getattr(blocks, _BLOCK_VERBS[verb][3]) is form
    assert list(inspect.signature(form).parameters)[:len(required)] == required


def test_the_verbs_register_in_order_and_each_matrix_verb_reads_one_input():
    # ddz --help lists the verbs in registration order; a matrix verb takes
    # the common options and one required -i/--input, nothing else
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    matrix_verbs = ["drazin", "dual-drazin", "exists", "index", "rank"]
    assert list(sub.choices) == [*matrix_verbs, *_BLOCK_VERBS, "graph", "verify", "fuzz"]
    for verb in matrix_verbs:
        options = [(action.option_strings, action.required) for action in sub.choices[verb]._actions]
        assert options == [(["-h", "--help"], False), (["--rank-tol"], False), (["--residual-tol"], False),
                           (["-o", "--output"], False), (["-i", "--input"], True)]


# sha256[:16] of the file `ddz <verb> -i <input> -o <file>` writes; drazin is
# given the standard part alone.  The Gaussian-integer inputs have index 0:
# order 48 goes through the staircase, order 96 through the LU inverse that
# certifies index 0 (pinned before that route existed, so the bytes are the
# staircase's).  member_index_4 is gen_member(10, default_rng([1, 2]),
# invertible=False), of index 4.
PINNED_INVERSES = {
    ("gaussian_integers_48", "dual-drazin"): "efb92836daf0ada5",
    ("gaussian_integers_48", "drazin"): "28331e9242230a6c",
    ("gaussian_integers_96", "dual-drazin"): "e0ad2acfe337dd50",
    ("gaussian_integers_96", "drazin"): "f3f0611f348ce0ce",
    ("member_index_4", "dual-drazin"): "980d828456738a30",
    ("member_index_4", "drazin"): "6065b93fc3de69b3",
}


@pytest.mark.parametrize("name, verb", sorted(PINNED_INVERSES))
def test_inverse_outputs_are_pinned(name, verb, tmp_path):
    if name.startswith("gaussian_integers_"):
        x, index = gaussian_integers(int(name.rsplit("_", 1)[1])), 0
    else:
        x, index = gen_member(10, np.random.default_rng([1, 2]), invertible=False), 4
    assert matrix_index(x.std) == index
    if verb == "drazin":
        x = DualMatrix(x.std)
    source, target = tmp_path / "in.json", tmp_path / "out.json"
    dump_matrix(x, source)
    assert main([verb, "-i", str(source), "-o", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest()[:16] == PINNED_INVERSES[name, verb]
