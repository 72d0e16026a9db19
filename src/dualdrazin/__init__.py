"""Drazin-type generalized inverses over the dual complex numbers.

The package splits into dual matrix arithmetic (dualmat), the dual Drazin
inverse of a 1x1 dual matrix (dualnum), the inverse itself with its
existence test (drazin), closed forms for structured block matrices
(blocks), adjacency formulas for dual-weighted digraph families
(digraphs), a randomised verification harness (harness), exact arithmetic
over the Gaussian rationals (exact), JSON serialisation (serialize), the
theorem and family names (families) and the ddz command line tool (cli).
DualMatrix is the one dual value type: a dual number is a 1x1 DualMatrix.

Importing the package loads none of them.  Each public name is resolved
from its module on first access (_EXPORTS), so a program loads only the
modules whose names it uses, and the ddz verbs only the modules they run.
Every verb loads dualmat and serialize; drazin, dual-drazin, exists and
index add drazin, and rank exact; the block verbs add blocks and drazin;
graph and verify add digraphs and dualnum to those; only fuzz loads
harness, with everything graph loads.
"""

import importlib
import importlib.util

__version__ = "0.1.0"

# public name -> the module that defines it; __all__ keeps this order
_EXPORTS = {
    # dual arithmetic
    "DualMatrix": "dualmat",
    "IndexReport": "dualmat",
    "dblock": "dualmat",
    "dmul": "dualmat",
    "dpow": "dualmat",
    "indices": "dualmat",
    "rank_dual": "dualmat",
    "rank_std": "dualmat",
    "scalar_dual_drazin": "dualnum",
    # inverses
    "defining_residuals": "drazin",
    "drazin_complex": "drazin",
    "drazin_oracle": "drazin",
    "dual_drazin": "drazin",
    "dual_exists": "drazin",
    "matrix_index": "drazin",
    # block closed forms
    "THEOREMS": "families",
    "BlockInstance": "blocks",
    "Condition": "blocks",
    "HypothesisReport": "blocks",
    "abco_drazin": "blocks",
    "abio_drazin": "blocks",
    "bipartite_drazin": "blocks",
    "check_hypotheses": "blocks",
    "cline": "blocks",
    "closed_form": "blocks",
    "sum_pq_zero": "blocks",
    "tri_drazin": "blocks",
    # digraphs
    "AdjacencyBuild": "digraphs",
    "DLinkedStars": "digraphs",
    "DoubleStar": "digraphs",
    "DutchWindmill": "digraphs",
    "bipartite_dual": "digraphs",
    "build_adjacency": "digraphs",
    "dls_dual_drazin": "digraphs",
    "ds_dual_drazin": "digraphs",
    "dw_bc_zero": "digraphs",
    "dw_dual_drazin": "digraphs",
    "dw_group": "digraphs",
    "graph_hypotheses": "digraphs",
    "graph_spec_from_doc": "digraphs",
    "graph_spec_to_doc": "digraphs",
    "windmill_pattern": "digraphs",
    # verification: generators, fuzz and the exact rank oracle
    "FAMILIES": "families",
    "GenConfig": "harness",
    "VerifyReport": "harness",
    "fuzz": "harness",
    "gen_existence": "harness",
    "gen_instance": "harness",
    "gen_member": "harness",
    "smith_rank_oracle": "exact",
    # serialisation
    "dump_matrix": "serialize",
    "load_matrix": "serialize",
    "matrix_from_doc": "serialize",
    "matrix_to_doc": "serialize",
    "scalar_from_doc": "serialize",
    "scalar_to_doc": "serialize",
    "vector_from_doc": "serialize",
    "vector_to_doc": "serialize",
    # errors
    "DualDrazinError": "errors",
    "GenerationFailed": "errors",
    "HypothesisViolated": "errors",
    "IndexTooLarge": "errors",
    "InexactInput": "errors",
    "NotDualDrazinInvertible": "errors",
    "SchemaError": "errors",
    "ShapeMismatch": "errors",
    "SpecInvalid": "errors",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        # a submodule not imported yet, e.g. dualdrazin.cli
        if name.isidentifier() and not name.startswith("_") and importlib.util.find_spec(f"{__name__}.{name}"):
            return importlib.import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS.values()})
