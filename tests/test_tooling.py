"""Checks on the source tree rather than on its behaviour.

The benchmark under perfbench/ names package functions; each must exist.
The tracer wraps every (module, attribute) in tracing.SPANS, and the
workloads call the public closed forms named in workloads.GRAPH_FORMS, so
removing or renaming one of them breaks the benchmark's runs.

Every name a package module imports is used there or re-exported through
its __all__, so a refactor cannot leave a stale import behind.  Every name a
module exports is exported by the package too, or listed with the reason it
is not.  A closed form the benchmark wraps is what its CLI verb calls.  The
package's only runtime dependency is numpy; the front end must start
without loading scipy.  A cold run of each verb loads only the modules it
runs, and the package resolves each public name from its module on first
use.  The modules that read input, serialize and cli,
build dual matrices only through the validating constructor.  The closed
forms' formula bodies never decide on a failed hypothesis, and every
condition name a report gives falls in exactly one class of the one gate
that does (blocks._require).  One function reads the trial memo
(drazin._factorise) and one opens it (harness.fuzz).  One function checks
a graph spec (when it is built) and one lays it out.  One function forms
the commutation and annihilation conditions.  One function gates and
evaluates every closed form (blocks._closed, the one caller of _require),
and a formula table is read only where a report is built, which names its
body.  No module reads the environment, so each setting is given one way:
on the command line.  Only cli and serialize touch files (open, write,
make, move or remove one), so every output of a run leaves through the
CLI's one write path or the public writer serialize.dump_matrix.  Only
dualmat takes an SVD, and only dualmat._working tests whether a matrix is
real, so every rank decision follows the one field rule.  One rule decides
existence (drazin._existence_rule), for exists and index alike.
"""

import ast
import importlib
import importlib.util
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualdrazin

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_functions_exist():
    spans = _load("tracing").SPANS
    missing = [(module, attr) for module, attr, _ in spans
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert spans and missing == []


def test_rejected_draw_messages_match_the_tracer(monkeypatch, caplog):
    # the tracer counts rejected draws from the harness's debug log and
    # failed draws from GenerationFailed's text, by these two patterns
    from dualdrazin import harness
    from dualdrazin.errors import GenerationFailed

    tracing = _load("tracing")
    real = harness._GENERATORS["CLINE"]

    def rejecting(limit):
        draws = []

        def gen(cfg, trial, rng):
            inst, _ = real(cfg, trial, rng)
            draws.append(inst)
            return inst, len(draws) > limit
        return gen

    cfg = harness.GenConfig("CLINE", trials=1)
    monkeypatch.setitem(harness._GENERATORS, "CLINE", rejecting(3))
    with caplog.at_level(logging.DEBUG, logger="dualdrazin.harness"):
        harness.gen_instance(cfg, 0)
    matches = [tracing._ACCEPTED_RE.search(r.getMessage()) for r in caplog.records]
    assert [(m[1], int(m[2])) for m in matches if m] == [("CLINE", 3)]

    monkeypatch.setitem(harness._GENERATORS, "CLINE", rejecting(harness._MAX_ATTEMPTS))
    with pytest.raises(GenerationFailed) as failed:
        harness.gen_instance(cfg, 0)
    assert int(tracing._FAILED_RE.search(str(failed.value))[1]) == harness._MAX_ATTEMPTS


def test_benchmarked_graph_forms_are_public():
    forms = _load("workloads").GRAPH_FORMS
    missing = [name for name, _ in forms.values() if not callable(getattr(dualdrazin, name, None))]
    assert forms and missing == []


def _all_of(path, value):
    """The names an __all__ assignment lists: its literal, or the list the
    module computes (the package's, from its _EXPORTS table)."""
    try:
        return ast.literal_eval(value)
    except ValueError:
        name = "dualdrazin" if path.stem == "__init__" else f"dualdrazin.{path.stem}"
        return importlib.import_module(name).__all__


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(_all_of(path, node.value))
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used)


def test_package_modules_have_no_unused_imports():
    modules = sorted((ROOT / "src" / "dualdrazin").glob("*.py"))
    assert modules
    assert [entry for path in modules for entry in _unused_imports(path)] == []


# Module exports the package __all__ leaves out, each with its reason.  A
# class-only module without __all__ (errors) exports every class it defines.
UNEXPORTED = {
    "dualmat.numerical_rank": "the rank rule behind rank_std, traced by the benchmark",
    "drazin.DrazinData": "what drazin_complex returns; callers read it, never build it",
    "drazin.DualDrazinData": "what dual_drazin returns; callers read it, never build it",
    "drazin.dual_drazin_series": "the ungated inverse series dual_drazin gates",
    "blocks.abco_series": "the ABCO series without its gate; tests hold it to the gated closed form, bit for bit",
    "harness.GRAPH_FAMILIES": "the digraph part of FAMILIES",
    "serialize.dumps_doc": "the writer behind the CLI and dump_matrix",
    "serialize.fmt17": "the float format of dumps_doc",
    "errors.UncertainRank": "raised to users as exit 4, caught as DualDrazinError",
    "errors.NonFiniteEntries": "raised to users as exit 4, caught as DualDrazinError",
}


def _module_exports(module):
    if hasattr(module, "__all__"):
        return module.__all__
    return [name for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__]


def test_every_module_export_is_public_or_accounted_for():
    modules = sorted(path.stem for path in (ROOT / "src" / "dualdrazin").glob("*.py"))
    gap = {f"{name}.{export}"
           for name in modules if name != "__init__"
           for export in _module_exports(importlib.import_module(f"dualdrazin.{name}"))
           if export not in dualdrazin.__all__}
    assert gap == set(UNEXPORTED)


def test_a_wrapped_closed_form_is_what_its_verb_calls(tmp_path, monkeypatch):
    # the benchmark's tracer binds a wrapper wherever the function is bound:
    # as a module attribute and as the value of a module-level dict
    from dualdrazin import DualMatrix, blocks, cli
    from dualdrazin.serialize import dump_matrix

    calls = []

    def wrapper(*args, **kwargs):
        calls.append(len(args))
        return original(*args, **kwargs)

    original = blocks.cline
    for name, module in list(sys.modules.items()):
        if name == "dualdrazin" or name.startswith("dualdrazin."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            monkeypatch.setitem(value, k, wrapper)
    path = tmp_path / "eye.json"
    dump_matrix(DualMatrix.identity(2), path)
    assert cli.main(["cline", "-a", str(path), "-b", str(path), "-o", str(tmp_path / "out.json")]) == 0
    assert calls == [2]


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, dualdrazin.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# verb -> one run of it on 2x2 documents (EYE the identity, ZERO the zero
# matrix, INST a CLINE instance of two identities, SPEC the m = n = 1 windmill
# pattern, OUT an output file), and
# which of the modules in LATE_MODULES the run loads; every run loads the
# EARLY_MODULES and no other package module.  index loads drazin: it reads
# both indices from one factorisation and the existence rule
EARLY_MODULES = ("cli", "dualmat", "errors", "families", "serialize", "tolerances")
LATE_MODULES = ("blocks", "digraphs", "drazin", "dualnum", "exact", "harness")
_BLOCK_LOADS = ("blocks", "drazin")
_GRAPH_LOADS = ("blocks", "digraphs", "drazin", "dualnum")
VERB_RUNS = {
    "drazin": ("drazin -i EYE", ("drazin",)),
    "dual-drazin": ("dual-drazin -i EYE", ("drazin",)),
    "exists": ("exists -i EYE", ("drazin",)),
    "index": ("index -i EYE", ("drazin",)),
    "rank": ("rank -i EYE", ("exact",)),
    "cline": ("cline -a EYE -b EYE", _BLOCK_LOADS),
    "tri": ("tri -a EYE -b EYE -d EYE", _BLOCK_LOADS),
    "abio": ("abio -a ZERO -b EYE", _BLOCK_LOADS),
    "abco": ("abco -a ZERO -b EYE -c EYE", _BLOCK_LOADS),
    "bipartite": ("bipartite -b EYE -c EYE", _BLOCK_LOADS),
    "graph": ("graph --spec SPEC --closed-form OUT", _GRAPH_LOADS),
    "verify": ("verify -i INST", _GRAPH_LOADS),
    "fuzz": ("fuzz --theorem cline --trials 1", (*_GRAPH_LOADS, "harness")),
}


def test_the_load_probe_runs_every_verb():
    from dualdrazin.cli import _build_parser

    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == set(VERB_RUNS)


@pytest.mark.parametrize("verb", sorted(VERB_RUNS))
def test_a_cold_verb_loads_only_the_modules_it_runs(verb, tmp_path):
    from dualdrazin import DualMatrix
    from dualdrazin.serialize import dump_matrix, dumps_doc, matrix_to_doc

    files = {"EYE": tmp_path / "eye.json", "ZERO": tmp_path / "zero.json",
             "INST": tmp_path / "inst.json", "SPEC": tmp_path / "spec.json", "OUT": tmp_path / "closed.json"}
    dump_matrix(DualMatrix.identity(2), files["EYE"])
    dump_matrix(DualMatrix.zeros(2), files["ZERO"])
    eye = matrix_to_doc(DualMatrix.identity(2))
    files["INST"].write_text(dumps_doc({"theorem": "CLINE", "blocks": {"A": eye, "B": eye}}))
    files["SPEC"].write_text(dumps_doc({"family": "dutch_windmill", "m": 1, "n": 1}))
    command, loads = VERB_RUNS[verb]
    argv = [str(files.get(word, word)) for word in command.split()] + ["-o", str(tmp_path / "out.json")]
    probe = ("import json, sys; from dualdrazin.cli import main; code = main(sys.argv[1:]); "
             "print(json.dumps([code, sorted(sys.modules)]))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True,
                         check=True)
    code, modules = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert [name for name in LATE_MODULES if f"dualdrazin.{name}" in modules] == list(loads)
    package = {name.split(".")[1] for name in modules if name.startswith("dualdrazin.")}
    assert package - set(LATE_MODULES) == set(EARLY_MODULES)


def test_the_package_resolves_its_names_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import json, sys, dualdrazin; "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('dualdrazin'))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == ["dualdrazin"]


def test_every_public_name_resolves_and_is_listed():
    listed = dir(dualdrazin)
    for name, module in dualdrazin._EXPORTS.items():
        assert getattr(dualdrazin, name) is getattr(importlib.import_module(f"dualdrazin.{module}"), name)
    assert dualdrazin.__all__ == ["__version__", *dualdrazin._EXPORTS]
    assert set(dualdrazin.__all__) <= set(listed)
    names = {}
    exec("from dualdrazin import *", names)
    assert set(dualdrazin.__all__) <= set(names)
    # the name tables keep their public paths in the modules that use them
    from dualdrazin import blocks, harness

    assert (blocks.THEOREMS, harness.FAMILIES) == (dualdrazin.THEOREMS, dualdrazin.FAMILIES)
    assert harness.GRAPH_FAMILIES == dualdrazin.FAMILIES[len(dualdrazin.THEOREMS):]


def test_submodules_resolve_as_package_attributes():
    # the benchmark reads api.serialize and api.cli off the package
    for name in ("serialize", "cli", "exact", "families"):
        assert getattr(dualdrazin, name) is importlib.import_module(f"dualdrazin.{name}")


@pytest.mark.parametrize("name", ["no_such_name", "_EXPORTS_", "__wrapped__", "harness_", "cli.main"])
def test_an_unknown_package_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(dualdrazin, name)
    assert not hasattr(dualdrazin, name)


def _unchecked_constructions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_of"]


def test_input_modules_use_the_validating_constructor():
    # DualMatrix._of skips the shape and finiteness checks; a document or a
    # command line argument must never reach a matrix through it
    package = ROOT / "src" / "dualdrazin"
    assert _unchecked_constructions(package / "dualmat.py")  # the probe finds uses
    assert [hit for name in ("serialize.py", "cli.py") for hit in _unchecked_constructions(package / name)] == []


def _formula_bodies(path):
    """The functions a module's _FORMULAS table maps to, and the module's functions they call."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_FORMULAS" for t in node.targets))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    bodies = {value.id for value in table.values}
    called = {node.func.id for name in bodies for node in ast.walk(defs[name])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in defs}
    return [defs[name] for name in sorted(bodies | called)]


def _gating(body):
    """Where a formula body decides on a failed hypothesis: a raise, _require, or report.conditions."""
    for node in ast.walk(body):
        if isinstance(node, ast.Raise):
            yield f"{body.name}:{node.lineno} raise"
        elif isinstance(node, ast.Name) and node.id.startswith("_require"):
            yield f"{body.name}:{node.lineno} {node.id}"
        elif (isinstance(node, ast.Attribute) and node.attr == "conditions"
              and isinstance(node.value, ast.Name) and node.value.id == "report"):
            yield f"{body.name}:{node.lineno} report.conditions"


def test_formula_bodies_only_evaluate():
    # one gate, blocks._require, decides what a failed report raises; a
    # body that raised for a hypothesis itself could pick another exit code
    package = ROOT / "src" / "dualdrazin"
    bodies = [body for name in ("blocks.py", "digraphs.py") for body in _formula_bodies(package / name)]
    assert {"_sum_pq0", "_abco_formula", "_dw_formula"} <= {body.name for body in bodies}
    assert [hit for body in bodies for hit in _gating(body)] == []


def _condition_names():
    """Every condition name the reports of the 14 fuzz families give, under every windmill form."""
    from dualdrazin.blocks import BlockInstance, check_hypotheses
    from dualdrazin.digraphs import DutchWindmill, graph_hypotheses
    from dualdrazin.families import _WINDMILL_FORMS
    from dualdrazin.harness import FAMILIES, GenConfig, gen_instance

    names = set()
    for family in FAMILIES:
        for violate in (False, True):
            inst = gen_instance(GenConfig(family, trials=2, seed=0, dim_max=3, violate=violate), 1)
            if isinstance(inst, BlockInstance):
                reports = [check_hypotheses(inst)]
            else:
                forms = _WINDMILL_FORMS if isinstance(inst, DutchWindmill) else ["drazin"]
                reports = [graph_hypotheses(inst, form) for form in forms]
            names.update(c.name for report in reports for c in report.conditions)
    return sorted(names)


def test_every_condition_name_falls_in_one_class_of_the_gate():
    from dualdrazin.blocks import Condition, HypothesisReport, _require
    from dualdrazin.errors import HypothesisViolated, IndexTooLarge, NotDualDrazinInvertible

    names = _condition_names()
    assert {"product_zero", "theta_membership", "hub_membership", "hub_group_index",
            "commutation", "annihilation", "outer_zero", "membership_base"} <= set(names)
    for name in names:
        # the three classes: an index, a membership, or neither (a residual)
        index, membership = name.endswith("_index"), "membership" in name
        assert not (index and membership), name
        raised = IndexTooLarge if index else NotDualDrazinInvertible if membership else HypothesisViolated
        with pytest.raises(raised):
            _require(HypothesisReport("T", (Condition(name, 1.0, False),)))


def _memo_sites(path):
    """The functions of a module that read _MEMO (_MEMO.get) and that call _memo()."""
    reads, opens = [], []

    def named(node, name):
        return getattr(node, "id", None) == name or getattr(node, "attr", None) == name

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{path.stem}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr == "get" and named(node.value, "_MEMO"):
            reads.append(where)
        if isinstance(node, ast.Call) and named(node.func, "_memo"):
            opens.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return reads, opens


def test_one_function_reads_the_trial_memo_and_one_opens_it():
    # a second reader would be a second memo path with its own key and its
    # own read-only rule; a second opener would share results across trials
    sites = [_memo_sites(path) for path in sorted((ROOT / "src" / "dualdrazin").glob("*.py"))]
    assert [where for reads, _ in sites for where in reads] == ["drazin._factorise"]
    assert [where for _, opens in sites for where in opens] == ["harness.fuzz"]


def _sites(match):
    """Where the package holds a node match accepts: module.function, module.Class.function or module."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if match(node):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted((ROOT / "src" / "dualdrazin").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sorted(set(sites))


def _callers(name):
    """The package functions that call name."""
    return _sites(lambda node: isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_one_function_checks_a_graph_spec_and_one_lays_it_out():
    # a spec is checked when it is built and keeps the one layout it makes;
    # a second caller would check or lay out the same spec again, and a
    # slice of a laid-out matrix would be a second copy of its block bounds
    assert _callers("_validate") == ["digraphs._Spec.__post_init__"]
    assert _callers("_blocks") == ["digraphs._Spec._parts"]
    assert _callers("block") == []


def _literal_sites(value):
    """The package functions whose bodies hold the string literal value."""
    return _sites(lambda node: isinstance(node, ast.Constant) and node.value == value)


def test_one_function_forms_the_commutation_and_annihilation_conditions():
    # the ABCO, ABIO and windmill reports share them; a second site would be
    # a second copy of the rule, free to drift in its scale or its form
    assert _literal_sites("commutation") == ["blocks._abco_conditions"]
    assert _literal_sites("annihilation") == ["blocks._abco_conditions"]


def _name_reads(name):
    """The package functions that read or import name."""
    return _sites(lambda node: isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                  or isinstance(node, ast.Attribute) and node.attr == name
                  or isinstance(node, ast.alias) and node.name == name)


def test_one_function_gates_and_evaluates_every_closed_form():
    # the report names its formula body and _closed runs the gate, then that
    # body; a second gate site or a second reader of a formula table would
    # be a second pipeline, which a new check after the body could miss
    assert _callers("_require") == ["blocks._closed"]
    assert _name_reads("_FORMULAS") == ["blocks.check_hypotheses", "digraphs.graph_hypotheses"]


def test_no_module_reads_the_environment():
    # every setting comes from the command line or the caller's arguments;
    # an environment fallback would be a second, untested way to set one
    reads = []
    for path in sorted((ROOT / "src" / "dualdrazin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv")
                    or isinstance(node, ast.alias) and node.name in ("environ", "environb", "getenv")):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


# the calls that create, write, move or remove a file or a directory
_FILE_WRITES = ("open", "write_text", "write_bytes", "mkdir", "unlink", "rename", "replace", "rmdir")


def test_only_the_front_end_and_the_public_writer_touch_files():
    # the CLI writes every output through _emit and makes the --artifacts
    # directory; serialize.dump_matrix is the public writer.  A library
    # module that wrote a file itself would be a second output path with its
    # own failure rule
    touching = _sites(lambda node: isinstance(node, ast.Call)
                      and (getattr(node.func, "id", None) in _FILE_WRITES
                           or getattr(node.func, "attr", None) in _FILE_WRITES))
    assert touching and {site.split(".")[0] for site in touching} <= {"cli", "serialize"}


def test_one_rule_decides_existence_for_exists_and_index():
    # dual_exists tests M_k and _dual_index M_k, M_(k+1), ... by the same
    # rule, so ind_dual == ind_std exactly when exists passes; a second
    # sandwich or a phi embedding would be a second decision, free to disagree
    assert _callers("_sandwich") == ["drazin._existence_rule"]
    assert _callers("_existence_rule") == ["drazin._dual_index", "drazin.dual_exists"]
    assert _sites(lambda node: isinstance(node, ast.FunctionDef) and node.name == "phi_embed") == []


def test_rank_decisions_stay_in_the_field_rule():
    # dualmat takes every SVD of the package, in the working field
    # dualmat._working chooses; an SVD or a field test anywhere else
    # could decide a rank of a real matrix in complex arithmetic, and give
    # one matrix two indices
    svds = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "svd"
                  and getattr(node.value, "attr", None) == "linalg")
    field_tests = _sites(lambda node: isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "any"
                         and getattr(node.func.value, "attr", None) == "imag")
    assert svds and {site.split(".")[0] for site in svds} == {"dualmat"}
    assert field_tests == ["dualmat._working"]
