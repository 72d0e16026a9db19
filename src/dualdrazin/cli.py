"""Command line front end for the dual Drazin toolkit.

One verb per operation: pointwise inverses (drazin, dual-drazin), class
queries (exists, index, rank), the block closed forms (cline, tri, abio,
abco, bipartite), digraph assembly (graph), and verification drivers
(verify for a single instance file, fuzz for randomised campaigns).

Every verb reads and writes documents through serialize, which loads
dualmat, so this module imports those two and the name tables of families.
A verb's handler imports the rest of what it runs: drazin, dual-drazin and
exists add drazin, rank adds exact, the block verbs add blocks, graph adds
digraphs, and only verify and fuzz load harness.

Matrices travel as JSON documents with 17-significant-digit floats, so a
write-read-write cycle is byte identical.  Exit codes: 0 success, 1
verification failure, 2 violated hypotheses, 3 no dual Drazin inverse,
4 malformed input, including input outside the float routes' reach.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .dualmat import DualMatrix, indices, rank_dual, rank_std
from .errors import (
    DualDrazinError,
    HypothesisViolated,
    IndexTooLarge,
    InexactInput,
    NonFiniteEntries,
    NotAppreciable,
    NotDualDrazinInvertible,
    SchemaError,
    ShapeMismatch,
    SpecInvalid,
    UncertainRank,
)
from .families import _SHAPES, _WINDMILL_FORMS, FAMILIES
from .serialize import _matrix_doc, dumps_doc, matrix_from_doc

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_HYPOTHESIS = 2
EXIT_NOT_INVERTIBLE = 3
EXIT_SCHEMA = 4

# largest row or column count `rank` runs the exact oracle on; its Fraction
# elimination grows faster than cubically, from 0.11 s at order 16 to 0.9 s
# at 32 and 3.2 s at 48 (random entries in -3..3, best of 3, 2-vCPU VM)
_SMITH_MAX_ORDER = 32

_GRAPH_FAMILY_KEYS = {
    "double-star": "double_star",
    "linked-stars": "linked_stars",
    "windmill": "dutch_windmill",
}

# block verb -> the blocks attribute holding its public closed form, which
# takes the verb's blocks in the order of its theorem's _SHAPES keys.  The
# verb looks the form up when it runs, so a wrapper bound in its place on
# the blocks module also wraps the verb.
_BLOCK_FORMS = {
    "cline": "cline",
    "tri": "tri_drazin",
    "abio": "abio_drazin",
    "abco": "abco_drazin",
    "bipartite": "bipartite_drazin",
}

# block verb -> (theorem whose lower-cased _SHAPES keys are the block
# options, help, (variant option, its choices with the default first) or None)
_BLOCK_VERBS = {
    "cline": ("CLINE", "inverse of a product from the swapped product", None),
    "tri": ("TRI_UPPER", "block triangular inverse from the diagonal blocks",
            ("orientation", ("upper", "lower"))),
    "abio": ("ABIO_RIGHT", "anti-triangular inverse with identity corner", ("side", ("right", "left"))),
    "abco": ("ABCO_RIGHT", "bordered block inverse with zero corner", ("side", ("right", "left"))),
    "bipartite": ("BIPARTITE", "inverse of an off-diagonal two-block matrix", None),
}

# --form values: the windmill variant, a graph_hypotheses form with "_" as "-"
_FORM_CHOICES = sorted(form.replace("_", "-") for form in _WINDMILL_FORMS)


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise SchemaError(f"environment variable {name} must be a float, got {raw!r}")


def _tols(args) -> tuple[float | None, float | None]:
    """Tolerance overrides: command line wins over the environment."""
    rank = args.rank_tol if args.rank_tol is not None else _env_float("DDZ_RANK_TOL")
    res = args.residual_tol if args.residual_tol is not None else _env_float("DDZ_RESIDUAL_TOL")
    return rank, res


def _read_doc(path: str):
    # stdin is decoded here, strictly: in Python's UTF-8 mode (a C or POSIX
    # locale) sys.stdin would let undecodable bytes through as surrogates
    try:
        if path == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}")


def _load_matrix(path: str) -> DualMatrix:
    return matrix_from_doc(_read_doc(path))


def _emit(payload, path: str | None) -> None:
    text = payload if isinstance(payload, str) else dumps_doc(payload)
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_drazin(args) -> int:
    from .drazin import drazin_complex

    x = _load_matrix(args.input)
    if np.any(x.inf != 0):
        raise SchemaError(
            "drazin inverts the standard part only; the document carries a"
            " nonzero infinitesimal part, use dual-drazin instead"
        )
    rank, _ = _tols(args)
    data = drazin_complex(x.std, rank)
    out = DualMatrix(data.ad, np.zeros_like(data.ad))
    _emit(_matrix_doc(out, index=data.index), args.output)
    return EXIT_OK


def _cmd_dual_drazin(args) -> int:
    from .drazin import dual_drazin

    x = _load_matrix(args.input)
    rank, res = _tols(args)
    data = dual_drazin(x, rank, res)
    _emit(_matrix_doc(data.inverse, residuals=[float(v) for v in data.residuals]), args.output)
    return EXIT_OK


def _cmd_exists(args) -> int:
    from .drazin import _sandwich, drazin_complex, dual_exists

    x = _load_matrix(args.input)
    rank, res = _tols(args)
    data = drazin_complex(x.std, rank)
    ok, m = dual_exists(x, rank, res, data)
    _emit({"exists": ok, "residual": _sandwich(data, m), "ind_std": data.index}, args.output)
    return EXIT_OK if ok else EXIT_NOT_INVERTIBLE


def _cmd_index(args) -> int:
    x = _load_matrix(args.input)
    rank, _ = _tols(args)
    rep = indices(x, rank)
    _emit({"ind_std": rep.ind_std, "ind_dual": rep.ind_dual, "ind_phi": rep.ind_phi}, args.output)
    return EXIT_OK


def _cmd_rank(args) -> int:
    from .exact import smith_rank_oracle

    x = _load_matrix(args.input)
    rank, _ = _tols(args)
    doc = {"rank_std": rank_std(x, rank), "rank_dual": rank_dual(x, rank)}
    if max(x.shape) <= _SMITH_MAX_ORDER:
        try:
            r, s = smith_rank_oracle(x)
        except InexactInput:
            pass  # numerical ranks still apply; the exact oracle needs integers
        else:
            doc["smith"] = {"appreciable": r, "infinitesimal": s}
    _emit(doc, args.output)
    return EXIT_OK


def _cmd_block(args) -> int:
    from . import blocks

    theorem, _, variant = _BLOCK_VERBS[args.command]
    rank, res = _tols(args)
    operands = [_load_matrix(getattr(args, key.lower())) for key in _SHAPES[theorem]]
    options = {variant[0]: getattr(args, variant[0])} if variant else {}
    form = getattr(blocks, _BLOCK_FORMS[args.command])
    out = form(*operands, tol=rank, res_tol=res, **options)
    _emit(_matrix_doc(out), args.output)
    return EXIT_OK


def _cmd_graph(args) -> int:
    from .digraphs import _FORMULAS, build_adjacency, graph_hypotheses, graph_spec_from_doc

    if args.spec:
        doc = _read_doc(args.spec)
        if not isinstance(doc, dict):
            raise SchemaError("graph spec document must be a JSON object")
    else:
        if args.family is None:
            raise SchemaError("graph needs a family argument or a --spec document")
        doc = {}
        if args.weights:
            weights = _read_doc(args.weights)
            if not isinstance(weights, dict):
                raise SchemaError("weights document must be a JSON object")
            doc.update(weights)
        doc["family"] = _GRAPH_FAMILY_KEYS[args.family]
        if args.m is not None:
            doc["m"] = args.m
        if args.n is not None:
            doc["n"] = args.n
    spec = graph_spec_from_doc(doc)
    build = build_adjacency(spec)
    extras = {"vertex_order": list(build.vertex_order)}
    if build.permutation_to_bipartite is not None:
        extras["permutation_to_bipartite"] = list(build.permutation_to_bipartite)
    if build.metadata:
        extras["metadata"] = build.metadata
    _emit(_matrix_doc(build.matrix, **extras), args.output)
    if args.closed_form:
        rank, res = _tols(args)
        hyp = graph_hypotheses(spec, args.form.replace("-", "_"), rank, res)
        _emit(_matrix_doc(_FORMULAS[hyp.theorem](spec, hyp)), args.closed_form)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .blocks import BlockInstance
    from .digraphs import graph_spec_from_doc
    from .harness import _verify

    doc = _read_doc(args.input)
    if not isinstance(doc, dict):
        raise SchemaError("instance document must be a JSON object")
    rank, res = _tols(args)
    if "theorem" in doc:
        inst = BlockInstance.from_doc(doc)
        label = inst.theorem
    elif "family" in doc:
        inst = graph_spec_from_doc(doc)
        label = type(inst).__name__
    else:
        raise SchemaError("instance document needs a 'theorem' or 'family' field")
    record = {"record": "verify", "instance": label}
    _verify(inst, args.form.replace("-", "_"), rank, res, args.max_rel_error, record)
    _emit(dumps_doc(record), args.output)
    if not record["hypotheses_pass"]:
        return EXIT_HYPOTHESIS
    return EXIT_OK if record["pass"] else EXIT_FAILURE


def _cmd_fuzz(args) -> int:
    from .harness import GenConfig, fuzz

    family = args.theorem.replace("-", "_").upper()
    cfg = GenConfig(
        family=family,
        trials=args.trials,
        seed=args.seed,
        dim_min=args.dim_min,
        dim_max=args.dim_max,
        entry_scale=args.entry_scale,
        max_rel_error=args.max_rel_error,
        violate=args.violate,
        artifact_dir=args.artifacts,
    )
    rank, res = _tols(args)
    report = fuzz(cfg, rank, res)
    _emit(report.to_jsonl(), args.output)
    return EXIT_OK if report.passed else EXIT_FAILURE


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank-tol", type=float, default=None,
                        help="numerical rank threshold (overrides DDZ_RANK_TOL)")
    common.add_argument("--residual-tol", type=float, default=None,
                        help="residual acceptance threshold (overrides DDZ_RESIDUAL_TOL)")
    common.add_argument("-o", "--output", default=None,
                        help="output file (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="ddz",
        description="Dual Drazin inverses, block closed forms and dual-weighted digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("drazin", parents=[common], help="Drazin inverse of a complex matrix")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_drazin)

    p = sub.add_parser("dual-drazin", parents=[common], help="dual Drazin inverse of a dual matrix")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_dual_drazin)

    p = sub.add_parser("exists", parents=[common], help="membership test for the invertible class")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_exists)

    p = sub.add_parser("index", parents=[common], help="standard, dual and embedding indices")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("rank", parents=[common], help="standard and dual ranks, exact when integral")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_rank)

    for verb, (theorem, help_text, variant) in _BLOCK_VERBS.items():
        p = sub.add_parser(verb, parents=[common], help=help_text)
        for key in _SHAPES[theorem]:
            p.add_argument("-" + key.lower(), required=True)
        if variant:
            name, choices = variant
            p.add_argument("--" + name, choices=list(choices), default=choices[0])
        p.set_defaults(func=_cmd_block)

    p = sub.add_parser("graph", parents=[common], help="assemble a dual-weighted digraph family")
    p.add_argument("family", choices=sorted(_GRAPH_FAMILY_KEYS), nargs="?",
                   help="family to build; omit when --spec carries the family")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--weights", default=None, help="JSON file with the weight fields")
    p.add_argument("--spec", default=None, help="complete graph spec document")
    p.add_argument("--closed-form", default=None, metavar="PATH",
                   help="also write the closed-form inverse to PATH")
    p.add_argument("--form", choices=_FORM_CHOICES, default="drazin",
                   help="windmill variant used by --closed-form")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("verify", parents=[common], help="check one instance document end to end")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--form", choices=_FORM_CHOICES, default="drazin")
    p.add_argument("--max-rel-error", type=float, default=1e-8)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fuzz", parents=[common], help="randomised verification campaign")
    p.add_argument("--theorem", required=True,
                   help="family tag, e.g. " + ", ".join(f.lower().replace("_", "-") for f in FAMILIES))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim-min", type=int, default=1)
    p.add_argument("--dim-max", type=int, default=5)
    p.add_argument("--entry-scale", type=int, default=2)
    p.add_argument("--max-rel-error", type=float, default=1e-8)
    p.add_argument("--violate", action="store_true",
                   help="generate hypothesis-breaking instances instead")
    p.add_argument("--artifacts", default=None, metavar="DIR",
                   help="directory for counterexample documents")
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflowing input is reported once, as the error below; numpy's
        # floating-point warnings on the way there would add lines to stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except (HypothesisViolated, IndexTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (NotDualDrazinInvertible, NotAppreciable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_INVERTIBLE
    except (SchemaError, SpecInvalid, ShapeMismatch, NonFiniteEntries, InexactInput, UncertainRank) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except DualDrazinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
