"""JSON encoding for spaces, maps, canonical forms, reports, and certificates.

Matrices travel as {"rows", "cols", "field", "data"} with row-major
[real, imag] entry pairs (a bare number reads as [x, 0]), so the format is
field-agnostic and lossless at double precision. Documents produced by the
command line's `generate` carry "space", "form", and "maps" keys and are
accepted anywhere a tuple of maps is expected. `encode_document` writes a
document as one line of compact, strict JSON (the command line's
`generate`, `dualize` and `extend` have it write each transfer's entries
straight from the array, a block of rows at a time, with orjson), and
`decode_document` is the one reader of that text, with orjson.
"""
from __future__ import annotations

import itertools
import json
import math
import re
import reprlib
import sys
from dataclasses import MISSING, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidParameterError
from .linmaps import FORMS, LinMap, _require_map
from .spaces import Field, SpaceKind, SpaceTag, _check_space, _items, _member, _numeric, span_of

if TYPE_CHECKING:  # annotations only: each encoder of these records imports its class when called
    from .decompose import DecompositionResult
    from .extend import InfeasibilityCertificate, PreservationReport
    from .families import Generated


def encode_matrix(M) -> dict:
    return _matrix(M, stream=False)


def _matrix(M, stream: bool) -> dict:
    """`encode_matrix`'s object; with `stream`, its "data" is M itself, which
    `encode_document` writes a block of rows at a time (`_write_rows`)."""
    M = _numeric(M, "M")
    if M.ndim != 2:
        raise InvalidParameterError(f"can only encode 2-d matrices, got ndim={M.ndim}")
    real = not np.iscomplexobj(M) or float(np.max(np.abs(M.imag), initial=0.0)) == 0.0
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "field": "real" if real else "complex",
        "data": M if stream else _entry_pairs(M),
    }


def _entry_pairs(M) -> list:
    """The row-major [real, imag] pairs of the entries of M, an array or a sequence."""
    return _pair_array(M).tolist()


def _pair_array(M) -> np.ndarray:
    """`_entry_pairs(M)` as a C-contiguous float64 array of shape (k, 2)."""
    Mc = np.asarray(M, dtype=np.complex128)
    return np.stack((Mc.real, Mc.imag), -1).reshape(-1, 2)


# entries per block of rows that `_write_rows` writes
_ROW_ENTRIES = 2**12

# orjson spells a float as repr does but in two ways: it writes fixed point
# down to 1e-5 (0.00001, which repr writes 1e-05), and an exponent without
# its sign or a leading zero (1e16 and 1e-7, which repr writes 1e+16 and 1e-07)
_FIXED = re.compile(r"0\.0000\d*")
_EXPONENT = re.compile(r"e-?\d+")


def _write_rows(M: np.ndarray, fh) -> None:
    """Write the text of `_entry_pairs(M)` a block of rows at a time, so that
    no list of every entry is built. orjson writes each block, respelled
    where it differs from repr, so the text is `json.dumps`'s byte for byte."""
    import orjson  # here, so that a command that writes no transfer never loads it

    step = max(1, _ROW_ENTRIES // max(1, M.shape[1]))
    sep = ""
    fh.write("[")
    for start in range(0, len(M), step):
        pairs = _pair_array(M[start : start + step])
        text = orjson.dumps(pairs, option=orjson.OPT_SERIALIZE_NUMPY)
        if b"n" in text:  # orjson writes NaN and infinities as null; json.dumps raises
            _text(float(pairs[~np.isfinite(pairs)][0]))
        text = _FIXED.sub(_fixed, _EXPONENT.sub(_exponent, text[1:-1].decode()))
        if text:
            fh.write(sep + text)
            sep = ","
    fh.write("]")


def _fixed(digits: re.Match) -> str:
    # a match that a digit precedes lies inside a number of 10 or more
    return digits[0] if digits.string[digits.start() - 1].isdigit() else repr(float(digits[0]))


def _exponent(exponent: re.Match) -> str:
    return f"e{int(exponent[0][1:]):+03d}"


def _integer(obj, key: str) -> int:
    """A size field, which must be a JSON integer: never truncated, and not a boolean."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {reprlib.repr(value)}")
    return value


def _entries(data) -> np.ndarray:
    """The complex entries of a matrix's "data" or a form's scalars, each a
    number or a [real, imag] pair, validated and converted in one pass over
    all of them."""
    pairs = [z if isinstance(z, (list, tuple)) else (z, 0) for z in data]
    # two numbers per pair, read lazily, so no flat list of every number is
    # built; bool is not an int here
    numbers = set(map(type, itertools.chain.from_iterable(pairs)))
    if set(map(len, pairs)) - {2} or not numbers <= {int, float}:
        raise ValueError("every entry must be a number or a [real, imag] pair of numbers")
    try:
        flat = np.fromiter(itertools.chain.from_iterable(pairs), np.float64, 2 * len(pairs))
    except OverflowError as exc:  # an integer beyond double range
        raise ValueError(f"number out of range: {exc}") from exc
    return flat.view(np.complex128)


def decode_matrix(obj) -> np.ndarray:
    try:
        rows, cols = _integer(obj, "rows"), _integer(obj, "cols")
        data = obj["data"]
        if len(data) != rows * cols:
            raise InvalidParameterError(f"matrix data has {len(data)} entries, expected {rows * cols}")
        field = obj["field"]
        if field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {reprlib.repr(field)}")
        M = _entries(data).reshape(rows, cols)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed matrix object: {exc}") from exc
    if field == "complex":
        return M
    if np.any(M.imag != 0):
        raise InvalidParameterError("a real matrix has an entry with a nonzero imaginary part")
    return np.ascontiguousarray(M.real)


def encode_space(space: SpaceTag) -> dict:
    _check_space(space, "space")
    return {"kind": space.kind.value, "field": space.field.value, "n": space.n}


def decode_space(obj) -> SpaceTag:
    try:
        kind, field, n = obj["kind"], obj["field"], _integer(obj, "n")
        kind, field = _member(SpaceKind, kind), _member(Field, field)
    except (KeyError, TypeError, ValueError, InvalidParameterError) as exc:
        raise InvalidParameterError(f"malformed space object: {exc}") from exc
    return SpaceTag(kind, field, n)


def encode_linmap(map_: LinMap) -> dict:
    _require_map(map_, "map_")
    return _linmap(map_, stream=False)


def _linmap(map_: LinMap, stream: bool) -> dict:
    return {
        "domain": encode_space(map_.domain),
        "codomain": encode_space(map_.codomain),
        "transfer": _matrix(map_.transfer, stream),
    }


def decode_linmap(obj) -> LinMap:
    try:
        dom = decode_space(obj["domain"])
        cod = decode_space(obj["codomain"])
        T = decode_matrix(obj["transfer"])
    except (KeyError, TypeError) as exc:
        raise InvalidParameterError(f"malformed map object: {exc}") from exc
    return LinMap(dom, cod, T)


def _real_scalars(z: np.ndarray) -> tuple:
    if np.any(z.imag != 0):
        raise ValueError(f"scalars {z.tolist()} must be real")
    return tuple(z.real.tolist())


# (encode, decode) of a form parameter, keyed by its annotation on the form class
_PARAM_CODECS = {
    "np.ndarray": (encode_matrix, decode_matrix),
    "tuple[np.ndarray, ...]": (
        lambda mats: [encode_matrix(M) for M in mats],
        lambda objs: tuple(decode_matrix(M) for M in objs),
    ),
    "tuple[float, ...]": (_entry_pairs, lambda values: _real_scalars(_entries(values))),
    "tuple[complex, ...]": (_entry_pairs, lambda values: tuple(_entries(values).tolist())),
    "bool": (bool, lambda value: value),  # the form class rejects a non-boolean
}

_FORM_CLASSES = {cls.__name__: cls for cls in FORMS}


def encode_form(form) -> dict:
    if type(form) not in FORMS:
        raise InvalidParameterError(f"cannot encode form of type {type(form).__name__}")
    params = {f.name: _PARAM_CODECS[f.type][0](getattr(form, f.name)) for f in fields(form)}
    return {"form": type(form).__name__, "params": params}


def decode_form(obj):
    try:
        tag = obj["form"]
        params = obj["params"]
        cls = _FORM_CLASSES.get(tag)
    except (KeyError, TypeError) as exc:
        raise InvalidParameterError(f"malformed form object: {exc}") from exc
    if cls is None:
        raise InvalidParameterError(f"unknown form tag {reprlib.repr(tag)}")
    try:
        kwargs = {
            f.name: _PARAM_CODECS[f.type][1](params[f.name])
            for f in fields(cls)
            if f.default is MISSING or f.name in params
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed {tag} parameters: {exc}") from exc
    return cls(**kwargs)


def _residual(x: float) -> float | None:
    """A residual as a JSON value: null when it is NaN or infinite, which
    JSON numbers cannot express."""
    return x if math.isfinite(x) else None


def encode_report(report: PreservationReport) -> dict:
    from .extend import PreservationReport
    _require_map(report, "report", (PreservationReport,))
    return {
        "m": report.m,
        "spaces": [encode_space(s) for s in report.spaces],
        "mode": report.mode.value,
        "trials": report.trials,
        "max_residual": _residual(report.max_residual),
        "worst_tuple": [encode_matrix(A) for A in report.worst_tuple],
        "tol": report.tol,
        "pass": report.passed,
    }


def encode_error(exc: Exception) -> dict:
    """The document a command prints when it fails; a failed precondition
    check adds its residual as context."""
    report = getattr(exc, "report", None)
    context = {} if report is None else {"max_residual": _residual(report.max_residual)}
    return {"error": {"code": type(exc).__name__, "message": str(exc), "context": context}}


def encode_certificate(cert: InfeasibilityCertificate) -> dict:
    from .extend import InfeasibilityCertificate
    _require_map(cert, "cert", (InfeasibilityCertificate,))
    return {
        "n": cert.n,
        "k": cert.k,
        "field": cert.field.value,
        "gram_rhs_rank": cert.gram_rhs_rank,
        "gram_lhs_rank": cert.gram_lhs_rank,
        "rank_bound": cert.rank_bound,
        "singular_values": [float(s) for s in cert.singular_values],
        "cutoff": cert.cutoff,
        "certifies_impossibility": cert.certifies_impossibility,
    }


def encode_decomposition(result: DecompositionResult, space: SpaceTag) -> dict:
    from .decompose import DecompositionResult
    _require_map(result, "result", (DecompositionResult,))
    return {
        "space": encode_space(space),
        "form": encode_form(result.form),
        "reconstruction_residual": result.reconstruction_residual,
        "gauge_note": result.gauge_note,
        "diagnostics": {
            k: _residual(v) if isinstance(v, float) else v for k, v in result.diagnostics.items()
        },
    }


def encode_maps(space: SpaceTag, maps) -> dict:
    """A bare maps document: the space and the encoded maps, of which there may be none."""
    _check_space(space, "space")
    maps = _items(maps, "maps must be an iterable of maps")
    for i, f in enumerate(maps):
        _require_map(f, f"maps[{i}]")
    return _maps_document(space, maps, stream=False)


def _maps_document(space: SpaceTag, maps, stream: bool) -> dict:
    """`encode_maps`'s document; with `stream`, `encode_document` writes each
    transfer's data straight from its array."""
    return {"space": encode_space(space), "m": len(maps), "maps": [_linmap(f, stream) for f in maps]}


def encode_generated(gen: Generated, family: str) -> dict:
    from .families import Generated
    _require_map(gen, "gen", (Generated,))
    return _generated_document(gen, family, stream=False)


def _generated_document(gen: Generated, family: str, stream: bool) -> dict:
    """`encode_generated`'s document; with `stream`, `encode_document` writes
    each transfer's data straight from its array."""
    return {
        "family": family,
        "space": encode_space(gen.space),
        "m": len(gen.maps),
        "form": encode_form(gen.form),
        "maps": [_linmap(f, stream) for f in gen.maps],
    }


# the package builds every document, and none holds a cycle: no circular-reference check
_text = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False).encode


def encode_document(doc: dict, fh) -> None:
    """Write `doc` to the text file `fh` as one line of compact JSON and a newline.

    The text equals `json.dumps(doc, separators=(",", ":"), allow_nan=False)`,
    built one piece at a time: objects, and lists of objects, are written
    item by item, and any other value takes CPython's C encoder whole. The
    documents of `_maps_document` and `_generated_document` with `stream`
    hold each transfer's data as its array, which is written a block of
    rows at a time (`_write_rows`), so no list of its entries is built. A
    NaN or infinite number raises ValueError.
    """
    _write(doc, fh)
    fh.write("\n")


def _write(value, fh) -> None:
    if isinstance(value, dict):
        fh.write("{")
        for i, (key, item) in enumerate(value.items()):
            fh.write(("," if i else "") + _text(key) + ":")
            _write(item, fh)
        fh.write("}")
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        fh.write("[")
        for i, item in enumerate(value):
            if i:
                fh.write(",")
            _write(item, fh)
        fh.write("]")
    elif isinstance(value, np.ndarray):
        _write_rows(value, fh)
    else:
        fh.write(_text(value))


# every byte but the brackets and braces that nest, and the quotes of strings
_NOT_MARKS = bytes(range(256)).translate(None, b'[]{}"')


def decode_document(fh):
    """The JSON value of the text file `fh`, parsed with orjson; the text is
    dropped on return. Text nested deeper than the recursion limit, or that
    orjson refuses ("malformed JSON: ..."), is an `InvalidParameterError`."""
    import orjson  # here, so that a command that reads no document never loads it

    text = fh.read()
    if _nesting(text) > sys.getrecursionlimit():
        raise InvalidParameterError("the maps document is nested too deeply")
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise InvalidParameterError(f"malformed JSON: {exc}") from None


def _nesting(text: str) -> int:
    """How deeply the arrays and objects of the JSON `text` nest outside its
    strings; orjson recurses once per level and overflows the C stack past
    about 10**5. Text that is not JSON may read any depth; orjson refuses it."""
    # drop escaped backslashes, then escaped quotes: each quote left opens or closes a string
    if "\\" in text:
        text = text.replace("\\\\", "").replace('\\"', "")
    marks = text.encode(errors="replace").translate(None, _NOT_MARKS)
    marks = np.frombuffer(b"".join(marks.split(b'"')[::2]), np.uint8)
    steps = np.where((marks == ord("[")) | (marks == ord("{")), np.int8(1), np.int8(-1))
    return int(np.cumsum(steps, dtype=np.int32).max(initial=0))


def decode_maps_document(obj) -> tuple[list, SpaceTag | None]:
    """Read a tuple of maps from a bare list of map objects or any document
    with a "maps" key (for example `generate` output). Returns the maps and
    the document's space tag when it carries one; it must span what every
    map's domain spans. A "form" the document carries is decoded too, so a
    malformed one is an input error.
    """
    space = None
    if isinstance(obj, dict):
        if "maps" not in obj:
            raise InvalidParameterError('document has no "maps" key')
        if "space" in obj:
            space = decode_space(obj["space"])
        if "form" in obj:
            decode_form(obj["form"])
        items = obj["maps"]
    elif isinstance(obj, list):
        items = obj
    else:
        raise InvalidParameterError("expected a list of maps or a document with a maps key")
    if not isinstance(items, list) or not items:
        raise InvalidParameterError("maps must be a nonempty list")
    maps = [decode_linmap(it) for it in items]
    if space is not None:
        # the space is copied into the output beside the maps, so it must be theirs
        want = span_of(space)
        for i, f in enumerate(maps):
            got = span_of(f.domain)
            if got != want:
                raise InvalidParameterError(
                    f'the document\'s "space" spans {want.kind.value} {want.field.value} matrices of size '
                    f"{want.n}, but map {i} acts on {got.kind.value} {got.field.value} matrices of size {got.n}"
                )
    return maps, space
