"""Command line front end for the dual Drazin toolkit.

One verb per operation: pointwise inverses (drazin, dual-drazin), class
queries (exists, index, rank), the block closed forms (cline, tri, abio,
abco, bipartite), digraph assembly (graph), and verification drivers
(verify for a single instance file, fuzz for randomised campaigns).

Every verb reads and writes documents through serialize, which loads
dualmat, so this module imports those two and the name tables of families.
A verb's handler imports the rest of what it runs: drazin, dual-drazin and
exists add drazin, index adds nothing, rank adds exact, the block verbs add
blocks and drazin, graph and verify add digraphs and dualnum to those, and
fuzz adds harness to what graph loads.

Matrices travel as JSON documents with 17-significant-digit floats, so a
write-read-write cycle is byte identical.  A verb computes and renders all
its outputs before it writes any (_emit).  dual-drazin drops its
factorisation record once it has the inverse and the index, so the residual
check runs on the input and the inverse alone, and drazin and dual-drazin
drop the input matrix and the inverse before they write, so a large run
holds its input only as arrays and its output only once, as text pieces.
Files are written before stdout, and a run that stops on an error (one
"error:" line on stderr) leaves no output file and nothing on stdout; a
fuzz run whose report cannot be written also removes the counterexamples
--artifacts stored during its campaign (one that stops because an artifact
cannot be written keeps those stored before it).  The verdicts of exists,
verify and fuzz are written whatever their exit code.
graph reads the digraph it builds from one graph spec document (--spec,
"-" for stdin), and the tolerances come only from --rank-tol and
--residual-tol.  Exit codes: 0 success, 1 verification failure, 2 violated
hypotheses, 3 no dual Drazin inverse, 4 malformed input, including input
outside the float routes' reach, a command line that does not parse and an
output that cannot be written.
"""

from __future__ import annotations

import argparse
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
    NotDualDrazinInvertible,
    SchemaError,
    ShapeMismatch,
    SpecInvalid,
    UncertainRank,
)
from .families import _SHAPES, _WINDMILL_FORMS, FAMILIES
from .serialize import _matrix_doc, _pieces, _read_json, matrix_from_doc

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_HYPOTHESIS = 2
EXIT_NOT_INVERTIBLE = 3
EXIT_SCHEMA = 4

# largest row or column count `rank` runs the exact oracle on; its Fraction
# elimination grows a little faster than cubically, from 0.04 s at order 16
# to 0.34 s at 32 and 1.2 s at 48 (random integer entries in -3..3 in both
# parts, best of 3, 2-vCPU VM)
_SMITH_MAX_ORDER = 32

# block verb -> (theorem whose lower-cased _SHAPES keys are the block
# options, help, (variant option, its choices with the default first) or
# None, the blocks attribute holding its public closed form).  The form
# takes the verb's blocks in the order of the theorem's _SHAPES keys.  The
# verb looks the form up when it runs, so a wrapper bound in its place on
# the blocks module also wraps the verb.
_BLOCK_VERBS = {
    "cline": ("CLINE", "inverse of a product from the swapped product", None, "cline"),
    "tri": ("TRI_UPPER", "block triangular inverse from the diagonal blocks",
            ("orientation", ("upper", "lower")), "tri_drazin"),
    "abio": ("ABIO_RIGHT", "anti-triangular inverse with identity corner", ("side", ("right", "left")),
             "abio_drazin"),
    "abco": ("ABCO_RIGHT", "bordered block inverse with zero corner", ("side", ("right", "left")),
             "abco_drazin"),
    "bipartite": ("BIPARTITE", "inverse of an off-diagonal two-block matrix", None, "bipartite_drazin"),
}

# --form values: the windmill variant, a graph_hypotheses form with "_" as "-"
_FORM_CHOICES = sorted(form.replace("_", "-") for form in _WINDMILL_FORMS)


def _read_doc(path: str):
    """The document an input option names, on stdin for "-", read as load_matrix reads a file."""
    return _read_json(path, sys.stdin.buffer.read if path == "-" else Path(path).read_bytes)


def _load_matrix(path: str) -> DualMatrix:
    return matrix_from_doc(_read_doc(path))


def _emit(*outputs: tuple) -> None:
    """Write each (document or text, path) output, stdout for a None path.

    Every output is rendered before any is written, so a document that
    cannot be written as JSON raises with nothing written.  Files go first
    and stdout last; a file that cannot be written removes the files
    written before it, so a run that fails here leaves no output.
    """
    rendered = [([payload] if isinstance(payload, str) else _pieces(payload), path)
                for payload, path in outputs]
    written = []
    try:
        for pieces, path in rendered:
            if path:
                with open(path, "w", encoding="utf-8") as fh:
                    written.append(path)
                    fh.writelines(pieces)
    except OSError as exc:
        for done in written:
            Path(done).unlink(missing_ok=True)
        raise SchemaError(f"cannot write {path}: {exc}") from exc
    for pieces, path in rendered:
        if not path:
            sys.stdout.writelines(pieces)


def _cmd_drazin(args) -> int:
    from .drazin import drazin_complex

    x = _load_matrix(args.input)
    if np.any(x.inf != 0):
        raise SchemaError(
            "drazin inverts the standard part only; the document carries a"
            " nonzero infinitesimal part, use dual-drazin instead"
        )
    data = drazin_complex(x.std, args.rank_tol)
    doc = _matrix_doc(DualMatrix(data.ad), index=data.index)
    del x, data  # the output document is all the write needs
    _emit((doc, args.output))
    return EXIT_OK


def _cmd_dual_drazin(args) -> int:
    from .drazin import defining_residuals, dual_drazin

    x = _load_matrix(args.input)
    data = dual_drazin(x, args.rank_tol, args.residual_tol)
    inverse, index = data.inverse, data.index
    del data  # the residual check reads only the input and the inverse
    residuals = defining_residuals(x, inverse, index, args.rank_tol)
    doc = _matrix_doc(inverse, residuals=[float(v) for v in residuals])
    del x, inverse  # the output document is all the write needs
    _emit((doc, args.output))
    return EXIT_OK


def _cmd_exists(args) -> int:
    from .drazin import drazin_complex, dual_exists

    x = _load_matrix(args.input)
    data = drazin_complex(x.std, args.rank_tol)
    ok, _, certificate = dual_exists(x, args.rank_tol, args.residual_tol, data, _certified=True)
    _emit(({"exists": ok, "residual": certificate, "ind_std": data.index}, args.output))
    return EXIT_OK if ok else EXIT_NOT_INVERTIBLE


def _cmd_index(args) -> int:
    x = _load_matrix(args.input)
    rep = indices(x, args.rank_tol)
    _emit(({"ind_std": rep.ind_std, "ind_dual": rep.ind_dual, "ind_phi": rep.ind_phi}, args.output))
    return EXIT_OK


def _cmd_rank(args) -> int:
    from .exact import smith_rank_oracle

    x = _load_matrix(args.input)
    doc = {"rank_std": rank_std(x, args.rank_tol), "rank_dual": rank_dual(x, args.rank_tol)}
    if max(x.shape) <= _SMITH_MAX_ORDER:
        try:
            r, s = smith_rank_oracle(x)
        except InexactInput:
            pass  # numerical ranks still apply; the exact oracle needs integers
        else:
            doc["smith"] = {"appreciable": r, "infinitesimal": s}
    _emit((doc, args.output))
    return EXIT_OK


def _cmd_block(args) -> int:
    from . import blocks

    theorem, _, variant, form_name = _BLOCK_VERBS[args.command]
    operands = [_load_matrix(getattr(args, key.lower())) for key in _SHAPES[theorem]]
    options = {variant[0]: getattr(args, variant[0])} if variant else {}
    form = getattr(blocks, form_name)
    out = form(*operands, tol=args.rank_tol, res_tol=args.residual_tol, **options)
    _emit((_matrix_doc(out), args.output))
    return EXIT_OK


def _cmd_graph(args) -> int:
    from .blocks import _closed
    from .digraphs import build_adjacency, graph_hypotheses, graph_spec_from_doc

    spec = graph_spec_from_doc(_read_doc(args.spec))
    build = build_adjacency(spec)
    extras = {"vertex_order": list(build.vertex_order)}
    if build.permutation_to_bipartite is not None:
        extras["permutation_to_bipartite"] = list(build.permutation_to_bipartite)
    if build.metadata:
        extras["metadata"] = build.metadata
    outputs = [(_matrix_doc(build.matrix, **extras), args.output)]
    if args.closed_form:
        report = graph_hypotheses(spec, args.form.replace("-", "_"), args.rank_tol, args.residual_tol)
        outputs.append((_matrix_doc(_closed(spec, report)), args.closed_form))
    _emit(*outputs)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .blocks import BlockInstance, _verify
    from .digraphs import graph_spec_from_doc

    doc = _read_doc(args.input)
    if not isinstance(doc, dict):
        raise SchemaError("instance document must be a JSON object")
    if "theorem" in doc:
        inst = BlockInstance.from_doc(doc)
        label = inst.theorem
    elif "family" in doc:
        inst = graph_spec_from_doc(doc)
        label = type(inst).__name__
    else:
        raise SchemaError("instance document needs a 'theorem' or 'family' field")
    record = {"record": "verify", "instance": label}
    _verify(inst, args.form.replace("-", "_"), args.rank_tol, args.residual_tol, args.max_rel_error, record)
    _emit((record, args.output))
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
        max_rel_error=args.max_rel_error,
        violate=args.violate,
        artifact_dir=args.artifacts,
    )
    try:
        report = fuzz(cfg, args.rank_tol, args.residual_tol)
    except OSError as exc:  # a counterexample document --artifacts cannot hold
        raise SchemaError(f"cannot write to {args.artifacts}: {exc}") from exc
    try:
        _emit((report.to_jsonl(), args.output))
    except DualDrazinError:
        # a report that cannot be written leaves no counterexample behind either
        for record in report.records:
            if "artifact" in record:
                Path(record["artifact"]).unlink(missing_ok=True)
        raise
    return EXIT_OK if report.passed else EXIT_FAILURE


# matrix verb -> (handler, help); each reads one matrix document, -i
_MATRIX_VERBS = {
    "drazin": (_cmd_drazin, "Drazin inverse of a complex matrix"),
    "dual-drazin": (_cmd_dual_drazin, "dual Drazin inverse of a dual matrix"),
    "exists": (_cmd_exists, "membership test for the invertible class"),
    "index": (_cmd_index, "standard, dual and embedding indices"),
    "rank": (_cmd_rank, "standard and dual ranks, exact when integral"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank-tol", type=float, default=None,
                        help="numerical rank threshold")
    common.add_argument("--residual-tol", type=float, default=None,
                        help="residual acceptance threshold")
    common.add_argument("-o", "--output", default=None,
                        help="output file (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="ddz",
        description="Dual Drazin inverses, block closed forms and dual-weighted digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for verb, (func, help_text) in _MATRIX_VERBS.items():
        p = sub.add_parser(verb, parents=[common], help=help_text)
        p.add_argument("-i", "--input", required=True)
        p.set_defaults(func=func)

    for verb, (theorem, help_text, variant, _) in _BLOCK_VERBS.items():
        p = sub.add_parser(verb, parents=[common], help=help_text)
        for key in _SHAPES[theorem]:
            p.add_argument("-" + key.lower(), required=True)
        if variant:
            name, choices = variant
            p.add_argument("--" + name, choices=list(choices), default=choices[0])
        p.set_defaults(func=_cmd_block)

    p = sub.add_parser("graph", parents=[common], help="assemble a dual-weighted digraph family")
    p.add_argument("--spec", required=True, metavar="PATH",
                   help="graph spec document, or - for standard input")
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
    p.add_argument("--max-rel-error", type=float, default=1e-8)
    p.add_argument("--violate", action="store_true",
                   help="generate hypothesis-breaking instances instead")
    p.add_argument("--artifacts", default=None, metavar="DIR",
                   help="directory for counterexample documents")
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # -h exits 0; a command line argparse cannot parse is malformed input,
        # and argparse has already written its usage and message to stderr
        return EXIT_SCHEMA if exc.code else EXIT_OK
    try:
        # an overflowing input is reported once, as the error below; numpy's
        # floating-point warnings on the way there would add lines to stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except (HypothesisViolated, IndexTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NotDualDrazinInvertible as exc:
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
