"""JSON readers and writers for dual matrices, vectors and scalars.

Writers render every float with 17 significant digits so a write-read cycle
reproduces the double exactly and re-serialising gives identical bytes;
-0.0 is written as 0, so equal matrices serialise identically.  A matrix
part is written with one format call per row, whether it is a complex
ndarray (as the CLI and dump_matrix hand it over, never converted to
lists) or a list of rows of [re, im] float pairs (as matrix_to_doc
returns it); every other value goes through the generic branch, with the
same bytes.  Readers validate shapes and raise SchemaError on malformed
documents.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from typing import Any

import numpy as np

from .dualmat import DualMatrix
from .dualnum import DualScalar
from .errors import SchemaError

__all__ = [
    "fmt17",
    "matrix_to_doc",
    "matrix_from_doc",
    "dumps_doc",
    "load_matrix",
    "dump_matrix",
    "scalar_to_doc",
    "scalar_from_doc",
    "vector_to_doc",
    "vector_from_doc",
]


def fmt17(value: float) -> str:
    """Decimal text with 17 significant digits; lossless for doubles."""
    if value == 0.0:
        value = 0.0  # normalise -0.0 so equal matrices serialise identically
    return format(float(value), ".17g")


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


@functools.cache
def _row_template(pairs: int) -> str:
    return "[" + ", ".join(["[{:.17g}, {:.17g}]"] * pairs) + "]"


def _is_pair_rows(obj: list) -> bool:
    """True for a list of equally long, non-empty rows of [float, float] lists."""
    if not (obj and type(obj[0]) is list and obj[0] and type(obj[0][0]) is list):
        return False
    if set(map(type, obj)) != {list} or len(set(map(len, obj))) != 1:
        return False
    pairs = list(chain.from_iterable(obj))
    return (
        set(map(type, pairs)) == {list}
        and set(map(len, pairs)) == {2}
        and set(map(type, chain.from_iterable(pairs))) == {float}
    )


def _render(obj: Any) -> str:
    """JSON writer that formats bare floats via fmt17."""
    if isinstance(obj, float):
        return fmt17(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if type(obj) is np.ndarray and obj.dtype == np.complex128 and obj.ndim == 2:
        # each float row holds the row's [re, im] pairs in order
        template = _row_template(obj.shape[1])
        rows = (np.ascontiguousarray(obj).view(float) + 0.0).tolist()
        return "[" + ", ".join(template.format(*row) for row in rows) + "]"
    if type(obj) is list and _is_pair_rows(obj):
        # v + 0.0 turns -0.0 into 0.0, as fmt17 does, here and above
        template = _row_template(len(obj[0]))
        rows = (template.format(*map((0.0).__add__, chain.from_iterable(row))) for row in obj)
        return "[" + ", ".join(rows) + "]"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_render(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def dumps_doc(doc: dict) -> str:
    return _render(doc) + "\n"


def _pairs(part: np.ndarray) -> list:
    """Nested lists of [re, im] Python floats, one pair per entry."""
    return np.stack((part.real, part.imag), axis=-1).tolist()


def _matrix_doc(x: DualMatrix, **extra) -> dict:
    """Matrix document whose parts are the complex arrays themselves.

    dumps_doc writes it to the same bytes as matrix_to_doc's list document.
    """
    m, n = x.shape
    doc: dict[str, Any] = {"rows": m, "cols": n, "std": x.std}
    if np.any(x.inf != 0):
        doc["inf"] = x.inf
    doc.update(extra)
    return doc


def matrix_to_doc(x: DualMatrix, **extra) -> dict:
    doc = {key: _pairs(v) if key in ("std", "inf") else v for key, v in _matrix_doc(x).items()}
    doc.update(extra)
    return doc


def _parse_part(raw, rows: int, cols: int, label: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{label}: entries must be [re, im] number pairs") from exc
    if arr.shape != (rows, cols, 2):
        raise SchemaError(
            f"{label}: expected shape {rows}x{cols} of [re, im] pairs, got {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_from_doc(doc: Any) -> DualMatrix:
    if not isinstance(doc, dict):
        raise SchemaError("dual matrix document must be a JSON object")
    try:
        rows, cols = int(doc["rows"]), int(doc["cols"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("dual matrix document needs integer 'rows' and 'cols'") from exc
    if rows < 1 or cols < 1:
        raise SchemaError("matrix dimensions must be positive")
    if "std" not in doc:
        raise SchemaError("dual matrix document needs a 'std' field")
    std = _parse_part(doc["std"], rows, cols, "std")
    inf = _parse_part(doc["inf"], rows, cols, "inf") if "inf" in doc else None
    return DualMatrix(std, inf)


def load_matrix(path) -> DualMatrix:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return matrix_from_doc(doc)


def dump_matrix(x: DualMatrix, path, **extra) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_doc(_matrix_doc(x, **extra)))


def scalar_to_doc(z: DualScalar) -> dict:
    return {"std": _pair(z.std), "inf": _pair(z.inf)}


def scalar_from_doc(doc: Any, label: str = "scalar") -> DualScalar:
    if not isinstance(doc, dict) or "std" not in doc:
        raise SchemaError(f"{label}: dual scalar needs a 'std' [re, im] pair")

    def one(part, name):
        arr = np.asarray(part, dtype=float)
        if arr.shape != (2,):
            raise SchemaError(f"{label}.{name}: expected an [re, im] pair")
        return complex(arr[0], arr[1])

    std = one(doc["std"], "std")
    inf = one(doc["inf"], "inf") if "inf" in doc else 0j
    return DualScalar(std, inf)


def vector_to_doc(v: DualMatrix) -> dict:
    if v.shape[1] != 1:
        raise SchemaError("vectors serialise as column matrices")
    doc = _matrix_doc(v)
    return {key: _pairs(doc[key][:, 0]) for key in ("std", "inf") if key in doc}


def vector_from_doc(doc: Any, label: str = "vector") -> DualMatrix:
    if not isinstance(doc, dict) or "std" not in doc:
        raise SchemaError(f"{label}: dual vector needs a 'std' list of [re, im] pairs")

    def one(part, name):
        try:
            arr = np.asarray(part, dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{label}.{name}: entries must be [re, im] pairs") from exc
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise SchemaError(f"{label}.{name}: expected a list of [re, im] pairs")
        return arr[:, 0] + 1j * arr[:, 1]

    std = one(doc["std"], "std")
    inf = one(doc["inf"], "inf") if "inf" in doc else None
    if inf is not None and inf.shape != std.shape:
        raise SchemaError(f"{label}: std and inf lengths differ")
    return DualMatrix.column(std, inf)
