"""JSON readers and writers for dual matrices, vectors and scalars (1x1 matrices).

Writers render every float with 17 significant digits so a write-read cycle
reproduces the double exactly and re-serialising gives identical bytes;
-0.0 is written as 0, so equal matrices serialise identically.  One
renderer, _pieces, turns a document into a list of text pieces: one per
key, scalar and separator, one per row of a 2-d complex ndarray (a matrix
part as _matrix_doc keeps it for the CLI, dump_matrix and the fuzz record
digest) and one per 1-d complex ndarray (a vector part as _vector_doc keeps
it).  The nested lists of the public *_to_doc documents (_listed) render
value by value to the same bytes.  dumps_doc joins the pieces; dump_matrix
and the CLI write them one by one, so a large document is held once, as
its pieces, and never as one string as well.  Every piece is rendered
before any is written, and no writer emits inf or NaN, which are not JSON:
a non-finite number raises NonFiniteEntries with nothing written.

Readers validate shapes and raise SchemaError on malformed documents,
counts that are not JSON integers (2.7, true, "3") and entries that are
not JSON numbers ("2", true) among them.  The [re, im] pairs of a part are
checked level by level with C-level set(map(...)) scans (every container a
list of its length, every entry a number), and their numbers are then
converted in one flat pass (np.fromiter), so a reader lists the pairs once
and the numbers never, and builds no float array of the nested lists.
json parses with the cyclic garbage collector paused (_read_json), which is
then left as it was found: a parse builds no cycles, yet each [re, im] list
it makes counts towards the collector's next pass, and every pass rescans
the lists built so far, 15 of 46 ms for a 256x256 dual document (one core).
"""

from __future__ import annotations

import functools
import gc
import json
import math
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .dualmat import DualMatrix
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
def _row_template(pairs: int, lead: str = "") -> str:
    return lead + "[" + ", ".join(["[{:.17g}, {:.17g}]"] * pairs) + "]"


def _finite(numbers: str) -> str:
    """numbers, formatted by .17g, unless one is inf or nan: no finite one has an n."""
    if "n" in numbers:
        raise NonFiniteEntries("cannot write a non-finite number as JSON")
    return numbers


# JSON text of a string; documents repeat the same keys and names
_string = functools.lru_cache(maxsize=4096)(json.dumps)


def _render(obj: Any, out: list) -> None:
    """Append the JSON text of obj to out, bare floats formatted as fmt17 formats them."""
    kind = type(obj)
    if isinstance(obj, dict):
        out.append("{")
        sep = ""
        for key, value in obj.items():
            out.append(f"{sep}{_string(str(key))}: ")
            _render(value, out)
            sep = ", "
        out.append("}")
    elif kind is np.ndarray and obj.dtype == np.complex128 and obj.ndim in (1, 2):
        # a float row holds the [re, im] pairs of a vector or a matrix row in
        # order; v + 0.0 turns -0.0 into 0.0, as fmt17 does
        floats = np.ascontiguousarray(obj).view(float) + 0.0
        if obj.ndim == 1:
            out.append(_finite(_row_template(obj.shape[0]).format(*floats.tolist())))
        else:
            out.append("[")
            lead = ""
            for row in floats:  # one row's Python floats at a time
                out.append(_finite(_row_template(obj.shape[1], lead).format(*row.tolist())))
                lead = ", "
            out.append("]")
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteEntries("cannot write a non-finite number as JSON")
        out.append(fmt17(obj))
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(_string(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _render(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")


def _pieces(doc: Any) -> list[str]:
    """The text of dumps_doc(doc), as the list of pieces _render gives, newline last."""
    out: list[str] = []
    _render(doc, out)
    out.append("\n")
    return out


def dumps_doc(doc: dict) -> str:
    return "".join(_pieces(doc))


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


def _nesting(lengths: tuple) -> str:
    if len(lengths) == 2:
        return f"{lengths[0]}x{lengths[1]} nested lists of [re, im] pairs"
    return "a list of [re, im] pairs" if lengths else "an [re, im] pair"


def _number_pairs(raw, lengths: tuple, label: str) -> np.ndarray:
    """Complex array of shape lengths from the [re, im] pairs nested in raw.

    Each level of raw must be lists of its length in lengths, a None length
    being the list's own, and the pairs below them lists of two JSON
    numbers: floats, or ints that are not bools (numpy alone would read "2"
    and true as numbers).  The checks scan a level at a time with
    set(map(...)); the numbers are then converted in one flat pass, to the
    bits arr[..., 0] + 1j * arr[..., 1] gives for arr = np.asarray(raw).
    """
    level, shape = [raw], []
    for depth, length in enumerate((*lengths, 2)):
        if depth:
            level = list(chain.from_iterable(level))
        if set(map(type, level)) != {list}:
            raise SchemaError(f"{label}: expected {_nesting(lengths)}")
        if length is None:  # a vector's own length
            length = len(raw)
        if set(map(len, level)) != {length}:
            raise SchemaError(f"{label}: expected {_nesting(lengths)}")
        shape.append(length)
    # level holds the pairs; their numbers are read twice, never listed
    if any(t is bool or not issubclass(t, (int, float)) for t in set(map(type, chain.from_iterable(level)))):
        raise SchemaError(f"{label}: entries must be [re, im] number pairs")
    try:
        pairs = np.fromiter(chain.from_iterable(level), float, 2 * len(level)).reshape(shape)
    except OverflowError as exc:  # an integer past the double range
        raise NonFiniteEntries(f"{label}: an entry overflows a double") from exc
    part = 1j * pairs[..., 1]
    part += pairs[..., 0]  # addition commutes, signed zeros included
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
    std = _number_pairs(doc["std"], (rows, cols), "std")
    inf = _number_pairs(doc["inf"], (rows, cols), "inf") if "inf" in doc else None
    return DualMatrix(std, inf)


def _read_json(path, read) -> Any:
    """The JSON document in the bytes read() returns, with path naming them in errors.

    The one reader of JSON input: bytes that cannot be read, are not UTF-8
    text, are not JSON or nest too deeply for the parser raise SchemaError.
    The bytes are decoded here, strictly: in Python's UTF-8 mode (a C or
    POSIX locale) sys.stdin would let undecodable bytes through as surrogates.
    json parses with the cyclic collector paused (see the module docstring).
    """
    try:
        text = read().decode("utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc
    collecting = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path} nests too deeply to read") from exc
    finally:
        if collecting:
            gc.enable()


def load_matrix(path) -> DualMatrix:
    return matrix_from_doc(_read_json(path, Path(path).read_bytes))


def dump_matrix(x: DualMatrix, path, **extra) -> None:
    pieces = _pieces(_matrix_doc(x, **extra))  # all of them, so a non-finite entry writes nothing
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def scalar_to_doc(z: DualMatrix) -> dict:
    """{"std": [re, im], "inf": [re, im]} of a 1x1 dual matrix."""
    if z.shape != (1, 1):
        raise SchemaError("dual scalars serialise as 1x1 matrices")
    return {"std": _pair(z.std[0, 0]), "inf": _pair(z.inf[0, 0])}


def scalar_from_doc(doc: Any, label: str = "scalar") -> DualMatrix:
    """The 1x1 dual matrix of a scalar document; a missing 'inf' is zero."""
    if not isinstance(doc, dict) or "std" not in doc:
        raise SchemaError(f"{label}: dual scalar needs a 'std' [re, im] pair")

    std = _number_pairs(doc["std"], (), f"{label}.std").reshape(1, 1)
    inf = _number_pairs(doc["inf"], (), f"{label}.inf").reshape(1, 1) if "inf" in doc else None
    return DualMatrix(std, inf)


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

    std = _number_pairs(doc["std"], (None,), f"{label}.std")
    inf = _number_pairs(doc["inf"], (None,), f"{label}.inf") if "inf" in doc else None
    if inf is not None and inf.shape != std.shape:
        raise SchemaError(f"{label}: std and inf lengths differ")
    return DualMatrix.column(std, inf)
