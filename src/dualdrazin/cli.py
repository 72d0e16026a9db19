"""Command line front end for the dual Drazin toolkit.

One verb per operation: pointwise inverses (drazin, dual-drazin), class
queries (exists, index, rank), the block closed forms (cline, tri, abio,
abco, bipartite), digraph assembly (graph), and verification drivers
(verify for a single instance file, fuzz for randomised campaigns).

Matrices travel as JSON documents with 17-significant-digit floats, so a
write-read-write cycle is byte identical.  Exit codes: 0 success, 1
verification failure, 2 violated hypotheses, 3 no dual Drazin inverse,
4 malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .blocks import BlockInstance, abco_drazin, abio_drazin, bipartite_drazin, cline, tri_drazin
from .digraphs import build_adjacency, graph_spec_from_doc
from .drazin import _existence_test, drazin_complex, dual_drazin
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
)
from .harness import (
    FAMILIES,
    GenConfig,
    _FAMILY_TABLE,
    _family_of,
    _verify,
    fuzz,
    smith_rank_oracle,
)
from .serialize import dumps_doc, matrix_from_doc, matrix_to_doc

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_HYPOTHESIS = 2
EXIT_NOT_INVERTIBLE = 3
EXIT_SCHEMA = 4

_GRAPH_FAMILY_KEYS = {
    "double-star": "double_star",
    "linked-stars": "linked_stars",
    "windmill": "dutch_windmill",
}

# --form value -> the FAMILIES name a windmill is checked and inverted as
_WINDMILL_FAMILIES = {"drazin": "WINDMILL", "bc-zero": "WINDMILL_BC0", "group": "WINDMILL_GROUP"}


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
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}")
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
    x = _load_matrix(args.input)
    if np.any(x.inf != 0):
        raise SchemaError(
            "drazin inverts the standard part only; the document carries a"
            " nonzero infinitesimal part, use dual-drazin instead"
        )
    rank, _ = _tols(args)
    data = drazin_complex(x.std, rank)
    out = DualMatrix(data.ad, np.zeros_like(data.ad))
    _emit(matrix_to_doc(out, index=data.index), args.output)
    return EXIT_OK


def _cmd_dual_drazin(args) -> int:
    x = _load_matrix(args.input)
    rank, res = _tols(args)
    data = dual_drazin(x, rank, res)
    _emit(matrix_to_doc(data.inverse, residuals=[float(v) for v in data.residuals]), args.output)
    return EXIT_OK


def _cmd_exists(args) -> int:
    x = _load_matrix(args.input)
    rank, res = _tols(args)
    data = drazin_complex(x.std, rank)
    ok, _, sandwich = _existence_test(x, rank, res, data)
    _emit({"exists": ok, "residual": sandwich, "ind_std": data.index}, args.output)
    return EXIT_OK if ok else EXIT_NOT_INVERTIBLE


def _cmd_index(args) -> int:
    x = _load_matrix(args.input)
    rank, _ = _tols(args)
    rep = indices(x, rank)
    _emit({"ind_std": rep.ind_std, "ind_dual": rep.ind_dual, "ind_phi": rep.ind_phi}, args.output)
    return EXIT_OK


def _cmd_rank(args) -> int:
    x = _load_matrix(args.input)
    rank, _ = _tols(args)
    doc = {"rank_std": rank_std(x, rank), "rank_dual": rank_dual(x, rank)}
    try:
        r, s = smith_rank_oracle(x)
    except InexactInput:
        pass  # numerical ranks still apply; the exact oracle needs integers
    else:
        doc["smith"] = {"appreciable": r, "infinitesimal": s}
    _emit(doc, args.output)
    return EXIT_OK


def _cmd_cline(args) -> int:
    rank, res = _tols(args)
    out = cline(_load_matrix(args.a), _load_matrix(args.b), rank, res)
    _emit(matrix_to_doc(out), args.output)
    return EXIT_OK


def _cmd_tri(args) -> int:
    rank, res = _tols(args)
    out = tri_drazin(
        _load_matrix(args.a),
        _load_matrix(args.b),
        _load_matrix(args.d),
        orientation=args.orientation,
        tol=rank,
        res_tol=res,
    )
    _emit(matrix_to_doc(out), args.output)
    return EXIT_OK


def _cmd_abio(args) -> int:
    rank, res = _tols(args)
    out = abio_drazin(_load_matrix(args.a), _load_matrix(args.b), side=args.side, tol=rank, res_tol=res)
    _emit(matrix_to_doc(out), args.output)
    return EXIT_OK


def _cmd_abco(args) -> int:
    rank, res = _tols(args)
    out = abco_drazin(
        _load_matrix(args.a),
        _load_matrix(args.b),
        _load_matrix(args.c),
        side=args.side,
        tol=rank,
        res_tol=res,
    )
    _emit(matrix_to_doc(out), args.output)
    return EXIT_OK


def _cmd_bipartite(args) -> int:
    rank, res = _tols(args)
    out = bipartite_drazin(_load_matrix(args.b), _load_matrix(args.c), rank, res)
    _emit(matrix_to_doc(out), args.output)
    return EXIT_OK


def _cmd_graph(args) -> int:
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
    _emit(matrix_to_doc(build.matrix, **extras), args.output)
    if args.closed_form:
        rank, res = _tols(args)
        _, closed_form_of = _FAMILY_TABLE[_family_of(spec, _WINDMILL_FAMILIES[args.form])]
        inverse = closed_form_of(spec, rank, res)
        _emit(matrix_to_doc(inverse), args.closed_form)
    return EXIT_OK


def _cmd_verify(args) -> int:
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
    family = _family_of(inst, _WINDMILL_FAMILIES[args.form])
    _verify(inst, family, rank, res, args.max_rel_error, record)
    _emit(dumps_doc(record), args.output)
    if not record["hypotheses_pass"]:
        return EXIT_HYPOTHESIS
    return EXIT_OK if record["pass"] else EXIT_FAILURE


def _cmd_fuzz(args) -> int:
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

    p = sub.add_parser("cline", parents=[common], help="inverse of a product from the swapped product")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.set_defaults(func=_cmd_cline)

    p = sub.add_parser("tri", parents=[common], help="block triangular inverse from the diagonal blocks")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("-d", required=True)
    p.add_argument("--orientation", choices=["upper", "lower"], default="upper")
    p.set_defaults(func=_cmd_tri)

    p = sub.add_parser("abio", parents=[common], help="anti-triangular inverse with identity corner")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("--side", choices=["right", "left"], default="right")
    p.set_defaults(func=_cmd_abio)

    p = sub.add_parser("abco", parents=[common], help="bordered block inverse with zero corner")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("-c", required=True)
    p.add_argument("--side", choices=["right", "left"], default="right")
    p.set_defaults(func=_cmd_abco)

    p = sub.add_parser("bipartite", parents=[common], help="inverse of an off-diagonal two-block matrix")
    p.add_argument("-b", required=True)
    p.add_argument("-c", required=True)
    p.set_defaults(func=_cmd_bipartite)

    p = sub.add_parser("graph", parents=[common], help="assemble a dual-weighted digraph family")
    p.add_argument("family", choices=sorted(_GRAPH_FAMILY_KEYS), nargs="?",
                   help="family to build; omit when --spec carries the family")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--weights", default=None, help="JSON file with the weight fields")
    p.add_argument("--spec", default=None, help="complete graph spec document")
    p.add_argument("--closed-form", default=None, metavar="PATH",
                   help="also write the closed-form inverse to PATH")
    p.add_argument("--form", choices=sorted(_WINDMILL_FAMILIES), default="drazin",
                   help="windmill variant used by --closed-form")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("verify", parents=[common], help="check one instance document end to end")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--form", choices=sorted(_WINDMILL_FAMILIES), default="drazin")
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
        return args.func(args)
    except (HypothesisViolated, IndexTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (NotDualDrazinInvertible, NotAppreciable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_INVERTIBLE
    except (SchemaError, SpecInvalid, ShapeMismatch, NonFiniteEntries, InexactInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except DualDrazinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
