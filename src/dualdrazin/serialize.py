"""JSON readers and writers for dual matrices, vectors and scalars.

Writers render every float with 17 significant digits so a write-read cycle
reproduces the double exactly and re-serialising gives identical bytes;
-0.0 is written as 0, so equal matrices serialise identically.  The writer
has three branches.  A 2-d complex ndarray, a matrix part as _matrix_doc
keeps it for the CLI, dump_matrix and the fuzz record digest, is written
with one format call per row.  A 1-d complex ndarray, a vector part as
_vector_doc keeps it, is written with one format call.  Every other value,
the nested lists of the public *_to_doc documents (_listed) included, goes
through the generic branch, value by value, to the same bytes.  No writer
emits inf or NaN, which are not JSON: a non-finite number raises
NonFiniteEntries.  Readers validate shapes and raise SchemaError on
malformed documents, counts that are not JSON integers (2.7, true, "3") and
entries that are not JSON numbers ("2", true) among them.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .dualmat import DualMatrix
from .dualnum import DualScalar
from .errors import NonFiniteEntries, SchemaError

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


def _finite(numbers: str) -> str:
    """numbers, formatted by .17g, unless one is inf or nan: no finite one has an n."""
    if "n" in numbers:
        raise NonFiniteEntries("cannot write a non-finite number as JSON")
    return numbers


# JSON text of a string; documents repeat the same keys and names
_string = functools.lru_cache(maxsize=4096)(json.dumps)


def _render(obj: Any) -> str:
    """JSON writer that formats bare floats via fmt17."""
    kind = type(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join([f"{_string(str(k))}: {_render(v)}" for k, v in obj.items()]) + "}"
    if kind is np.ndarray and obj.dtype == np.complex128 and obj.ndim in (1, 2):
        # a float row holds the [re, im] pairs of a vector or a matrix row in
        # order; v + 0.0 turns -0.0 into 0.0, as fmt17 does
        template = _row_template(obj.shape[-1])
        rows = (np.ascontiguousarray(obj).view(float) + 0.0).tolist()
        if obj.ndim == 1:
            return _finite(template.format(*rows))
        return _finite("[" + ", ".join([template.format(*row) for row in rows]) + "]")
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteEntries("cannot write a non-finite number as JSON")
        return fmt17(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_render(v) for v in obj]) + "]"
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def dumps_doc(doc: dict) -> str:
    return _render(doc) + "\n"


def _pairs(part: np.ndarray) -> list:
    """Nested lists of [re, im] Python floats, one pair per entry."""
    return np.stack((part.real, part.imag), axis=-1).tolist()


def _listed(doc: Any) -> Any:
    """A copy of an array document with every complex array part as _pairs lists."""
    if type(doc) is np.ndarray:
        return _pairs(doc)
    if isinstance(doc, dict):
        return {key: _listed(v) for key, v in doc.items()}
    if isinstance(doc, list):
        return [_listed(v) for v in doc]
    return doc


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
    doc = _listed(_matrix_doc(x))
    doc.update(extra)
    return doc


def _number_pairs(raw, ndim: int, label: str) -> np.ndarray:
    """Complex array of the [re, im] pairs nested ndim - 1 lists deep in raw.

    Every entry must be a JSON number: a float, or an int that is not a
    bool.  numpy alone would read "2" and true as numbers.
    """
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{label}: entries must be [re, im] number pairs") from exc
    except OverflowError as exc:  # an integer past the double range
        raise NonFiniteEntries(f"{label}: an entry overflows a double") from exc
    if arr.ndim != ndim or arr.shape[-1] != 2:
        what = "an [re, im] pair" if ndim == 1 else "nested lists of [re, im] pairs"
        raise SchemaError(f"{label}: expected {what}, got shape {arr.shape}")
    entries = raw
    for _ in range(ndim - 1):
        entries = chain.from_iterable(entries)
    if any(t is bool or not issubclass(t, (int, float)) for t in set(map(type, entries))):
        raise SchemaError(f"{label}: entries must be [re, im] number pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _parse_part(raw, rows: int, cols: int, label: str) -> np.ndarray:
    part = _number_pairs(raw, 3, label)
    if part.shape != (rows, cols):
        raise SchemaError(f"{label}: expected shape {rows}x{cols} of [re, im] pairs, got {part.shape}")
    return part


def _is_count(value: Any) -> bool:
    """A JSON integer: an int, and not a bool."""
    return type(value) is int


def matrix_from_doc(doc: Any) -> DualMatrix:
    if not isinstance(doc, dict):
        raise SchemaError("dual matrix document must be a JSON object")
    rows, cols = doc.get("rows"), doc.get("cols")
    if not (_is_count(rows) and _is_count(cols)):
        raise SchemaError("dual matrix document needs integer 'rows' and 'cols'")
    if rows < 1 or cols < 1:
        raise SchemaError("matrix dimensions must be positive")
    if "std" not in doc:
        raise SchemaError("dual matrix document needs a 'std' field")
    std = _parse_part(doc["std"], rows, cols, "std")
    inf = _parse_part(doc["inf"], rows, cols, "inf") if "inf" in doc else None
    return DualMatrix(std, inf)


def _read_json(path, read) -> Any:
    """The JSON document in the bytes read() returns, with path naming them in errors.

    The one reader of JSON input: bytes that cannot be read, are not UTF-8
    text, are not JSON or nest too deeply for the parser raise SchemaError.
    The bytes are decoded here, strictly: in Python's UTF-8 mode (a C or
    POSIX locale) sys.stdin would let undecodable bytes through as surrogates.
    """
    try:
        text = read().decode("utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path} nests too deeply to read") from exc


def load_matrix(path) -> DualMatrix:
    return matrix_from_doc(_read_json(path, Path(path).read_bytes))


def dump_matrix(x: DualMatrix, path, **extra) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_doc(_matrix_doc(x, **extra)))


def scalar_to_doc(z: DualScalar) -> dict:
    return {"std": _pair(z.std), "inf": _pair(z.inf)}


def scalar_from_doc(doc: Any, label: str = "scalar") -> DualScalar:
    if not isinstance(doc, dict) or "std" not in doc:
        raise SchemaError(f"{label}: dual scalar needs a 'std' [re, im] pair")

    std = complex(_number_pairs(doc["std"], 1, f"{label}.std"))
    inf = complex(_number_pairs(doc["inf"], 1, f"{label}.inf")) if "inf" in doc else 0j
    return DualScalar(std, inf)


def _vector_doc(v: DualMatrix) -> dict:
    """Vector document whose parts are 1-d complex arrays, the column of each part."""
    if v.shape[1] != 1:
        raise SchemaError("vectors serialise as column matrices")
    doc = _matrix_doc(v)
    return {key: doc[key][:, 0] for key in ("std", "inf") if key in doc}


def vector_to_doc(v: DualMatrix) -> dict:
    return _listed(_vector_doc(v))


def vector_from_doc(doc: Any, label: str = "vector") -> DualMatrix:
    if not isinstance(doc, dict) or "std" not in doc:
        raise SchemaError(f"{label}: dual vector needs a 'std' list of [re, im] pairs")

    std = _number_pairs(doc["std"], 2, f"{label}.std")
    inf = _number_pairs(doc["inf"], 2, f"{label}.inf") if "inf" in doc else None
    if inf is not None and inf.shape != std.shape:
        raise SchemaError(f"{label}: std and inf lengths differ")
    return DualMatrix.column(std, inf)
