"""Matrix-file ingestion and result emission.

Matrix carrier formats:

* binary: magic ``MXF1``, then rows and cols as unsigned 64-bit
  little-endian integers, one encoding byte (0x01 = IEEE float64
  little-endian), then the row-major payload.  Round trips are bitwise.
* text: a one-line header ``rows,cols`` followed by one CSV line per row
  with 17-significant-digit decimals.

Result emission writes a fixed-column CSV or a JSON document carrying
the same per-point schema plus run metadata.  All writes go through a
temp file and an atomic rename.  ``decode`` is the package's one JSON
decoder: it reads result points here and sweep documents and preset
overrides in ``presets``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct
import tempfile
import typing
from dataclasses import MISSING
from typing import Mapping

import numpy as np

from .harness import PointSummary, SweepResult, result_digest
from .linalg import _as_matrix

MATRIX_MAGIC = b"MXF1"
_ENCODING_FLOAT64 = 0x01
_HEADER = struct.Struct("<QQB")

RESULT_SCHEMA_VERSION = 2

CSV_COLUMNS = ("axis1", "axis2", "mean_r2x", "std_r2x", "mean_r2y", "std_r2y",
               "mean_stability", "std_stability", "theory_r2x", "theory_r2y",
               "theta_crit", "trials_effective")


class MatrixFormatError(ValueError):
    """A matrix file that does not conform to a supported format."""


def _atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix="-" + os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_matrix(path, matrix, fmt: str = "binary") -> None:
    arr = np.ascontiguousarray(_as_matrix(matrix, "write_matrix"))
    rows, cols = arr.shape
    if fmt == "binary":
        header = MATRIX_MAGIC + _HEADER.pack(rows, cols, _ENCODING_FLOAT64)
        payload = arr.astype("<f8", copy=False).tobytes(order="C")
        _atomic_write_bytes(path, header + payload)
    elif fmt == "csv":
        lines = [f"{rows},{cols}"]
        lines.extend(",".join("%.17g" % v for v in row) for row in arr)
        _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))
    else:
        raise ValueError(f"unknown matrix format {fmt!r}, expected 'binary' or 'csv'")


def _parse_binary(blob: bytes) -> np.ndarray:
    header_len = len(MATRIX_MAGIC) + _HEADER.size
    if len(blob) < header_len:
        raise MatrixFormatError(
            f"truncated header: {len(blob)} bytes, expected at least {header_len}")
    rows, cols, encoding = _HEADER.unpack_from(blob, len(MATRIX_MAGIC))
    if encoding != _ENCODING_FLOAT64:
        raise MatrixFormatError(f"unknown element encoding byte 0x{encoding:02x}")
    if rows == 0 or cols == 0:
        raise MatrixFormatError(f"degenerate shape {rows}x{cols}")
    expected = rows * cols * 8
    actual = len(blob) - header_len
    if actual != expected:
        raise MatrixFormatError(
            f"payload length mismatch: expected {expected} bytes for "
            f"{rows}x{cols}, got {actual}")
    arr = np.frombuffer(blob, dtype="<f8", offset=header_len).reshape(rows, cols)
    arr = arr.astype(np.float64, copy=True)
    if not np.all(np.isfinite(arr)):
        raise MatrixFormatError("non-finite entries in payload")
    return arr


def _parse_csv(text: str) -> np.ndarray:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MatrixFormatError("empty matrix file")
    header = lines[0].split(",")
    if len(header) != 2:
        raise MatrixFormatError(f"header must be 'rows,cols', got {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as err:
        raise MatrixFormatError(f"non-integer header {lines[0]!r}") from err
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"degenerate shape {rows}x{cols}")
    if len(lines) - 1 != rows:
        raise MatrixFormatError(
            f"payload length mismatch: expected {rows} rows, got {len(lines) - 1}")
    out = np.empty((rows, cols))
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != cols:
            raise MatrixFormatError(
                f"row {i} has {len(parts)} values, expected {cols}")
        try:
            out[i] = [float(p) for p in parts]
        except ValueError as err:
            raise MatrixFormatError(f"non-numeric value in row {i}") from err
    if not np.all(np.isfinite(out)):
        raise MatrixFormatError("non-finite entries in payload")
    return out


def ingest_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MATRIX_MAGIC)] == MATRIX_MAGIC:
        return _parse_binary(blob)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as err:
        raise MatrixFormatError(
            "not a recognized matrix file (bad magic, not text)") from err
    return _parse_csv(text)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def results_to_csv(result: SweepResult) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for p in result.points:
        lines.append(",".join(_csv_cell(getattr(p, name)) for name in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return _jsonable(float(value))
    return value


def results_to_json(result: SweepResult,
                    metadata: Mapping[str, object] | None = None) -> str:
    points = [
        {f.name: _jsonable(getattr(p, f.name))
         for f in dataclasses.fields(PointSummary)}
        for p in result.points
    ]
    doc = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "metadata": dict(metadata or {}),
        "correlation": _jsonable(result.correlation),
        "correlation_supercritical": _jsonable(result.correlation_supercritical),
        "total_runtime": result.total_runtime,
        "digest": result.digest,
        "points": points,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit_results(result: SweepResult, path, fmt: str = "csv",
                 metadata: Mapping[str, object] | None = None) -> None:
    if fmt == "csv":
        payload = results_to_csv(result)
    elif fmt == "json":
        payload = results_to_json(result, metadata=metadata)
    else:
        raise ValueError(f"unknown result format {fmt!r}, expected 'csv' or 'json'")
    _atomic_write_bytes(path, payload.encode("utf-8"))


def _check_keys(mapping: Mapping, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {context}: {sorted(unknown)}")


_JSON_KINDS = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string"}


def decode(tp, value, context: str):
    """Strictly decode a JSON value into ``tp``: a dataclass, an optional,
    a homogeneous tuple, or bool/int/float/str.

    Unknown keys are fatal, keys without a dataclass default are
    required, an integer takes only integral numbers (never booleans),
    and a float reads null as NaN, the inverse of how results are
    written; an optional reads null as None.  Errors raise ``ValueError``
    naming ``context``, the value's JSON path.
    """
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{context} must be an object, got {value!r}")
        fields = dataclasses.fields(tp)
        _check_keys(value, {f.name for f in fields}, context)
        hints = typing.get_type_hints(tp)
        kwargs = {}
        for f in fields:
            if f.name in value:
                kwargs[f.name] = decode(hints[f.name], value[f.name],
                                        f"{context}.{f.name}")
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{context} is missing required key {f.name!r}")
        try:
            return tp(**kwargs)
        except ValueError as err:
            raise ValueError(f"{context}: {err}") from err
    args = typing.get_args(tp)
    if type(None) in args:
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
        return decode(tp, value, context)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{context} must be a list, got {value!r}")
        return tuple(decode(args[0], v, f"{context}[{i}]")
                     for i, v in enumerate(value))
    if tp is int:
        integral = (isinstance(value, int) and not isinstance(value, bool)
                    or isinstance(value, float) and value.is_integer())
        decoded = int(value) if integral else None
    elif tp is float and value is None:
        decoded = float("nan")
    elif tp is float and not isinstance(value, bool) and isinstance(value, (int, float)):
        decoded = float(value)
    else:
        decoded = value if type(value) is tp else None
    if decoded is None:
        raise ValueError(f"{context} must be {_JSON_KINDS[tp]}, got {value!r}")
    return decoded


def points_from_json(doc: Mapping) -> list[PointSummary]:
    points = doc.get("points")
    if type(points) is not list:
        raise ValueError(f"result document needs a 'points' list, got {points!r}")
    return [decode(PointSummary, raw, f"points[{i}]")
            for i, raw in enumerate(points)]


def load_results(path) -> dict:
    """Parse an emitted JSON result document and verify its content digest.

    A document of the wrong structure or content raises ``ValueError``.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if type(doc) is not dict:
        raise ValueError(f"result document is not a JSON object: {type(doc).__name__}")
    if doc.get("schema_version") != RESULT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {doc.get('schema_version')!r}")
    if "digest" not in doc:
        raise ValueError("result document has no 'digest'")
    recomputed = result_digest(points_from_json(doc))
    if recomputed != doc["digest"]:
        raise ValueError("result digest mismatch: file content was altered")
    return doc
