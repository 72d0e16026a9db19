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
without loading scipy.  The modules that read input, serialize and cli,
build dual matrices only through the validating constructor.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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


def test_benchmarked_graph_forms_are_public():
    forms = _load("workloads").GRAPH_FORMS
    missing = [name for name, _ in forms.values() if not callable(getattr(dualdrazin, name, None))]
    assert forms and missing == []


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
            used.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used)


def test_package_modules_have_no_unused_imports():
    modules = sorted((ROOT / "src" / "dualdrazin").glob("*.py"))
    assert modules
    assert [entry for path in modules for entry in _unused_imports(path)] == []


# Module exports the package __all__ leaves out, each with its reason.  A
# class-only module without __all__ (errors) exports every class it defines.
UNEXPORTED = {
    "dualmat.numerical_rank": "the rank rule behind rank_std and rank_dual, traced by the benchmark",
    "drazin.DrazinData": "what drazin_complex returns; callers read it, never build it",
    "drazin.DualDrazinData": "what dual_drazin returns; callers read it, never build it",
    "drazin.dual_drazin_series": "the ungated inverse series dual_drazin gates",
    "blocks.abco_series": "the ungated ABCO series, for tests that run W past its first term",
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
