"""Matrix-file ingestion and result emission.

Matrix carrier formats:

* binary: magic ``MXF1``, then rows and cols as unsigned 64-bit
  little-endian integers, one encoding byte (0x01 = IEEE float64
  little-endian), then the row-major payload.  Round trips are bitwise.
* text: a one-line header ``rows,cols`` followed by one CSV line per row
  with 17-significant-digit decimals.

Result emission writes a fixed-column CSV or a JSON document carrying
the same per-point schema plus run metadata.  All writes go through a
temp file and an atomic rename.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct
import tempfile
from typing import Mapping, get_type_hints

import numpy as np

from .harness import PointSummary, SweepResult, result_digest

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


def _checked_matrix(matrix) -> np.ndarray:
    arr = np.ascontiguousarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("matrix must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def write_matrix(path, matrix, fmt: str = "binary") -> None:
    arr = _checked_matrix(matrix)
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


def _point_value(tp, value, context: str):
    """A JSON value as a ``PointSummary`` field of type ``tp``; a float
    field reads null as NaN, and a value of any other JSON type raises."""
    if tp == float | None:
        return None if value is None else _point_value(float, value, context)
    if tp is float and value is None:
        return float("nan")
    if tp is float and type(value) in (int, float):
        return float(value)
    if tp == tuple[str, ...] and type(value) is list and all(
            type(v) is str for v in value):
        return tuple(value)
    if tp in (int, bool, str) and type(value) is tp:
        return value
    raise ValueError(f"{context} has the wrong type: {value!r}")


def _point_from_json(raw: Mapping, context: str) -> PointSummary:
    hints = get_type_hints(PointSummary)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ValueError(f"{context} has unknown fields: {', '.join(unknown)}")
    values = {}
    for name, tp in hints.items():
        if name not in raw:
            raise ValueError(f"{context}.{name} is missing")
        values[name] = _point_value(tp, raw[name], f"{context}.{name}")
    return PointSummary(**values)


def points_from_json(doc: Mapping) -> list[PointSummary]:
    return [_point_from_json(raw, f"points[{i}]")
            for i, raw in enumerate(doc["points"])]


def load_results(path) -> dict:
    """Parse an emitted JSON result document and verify its content digest."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != RESULT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {doc.get('schema_version')!r}")
    recomputed = result_digest(points_from_json(doc))
    if recomputed != doc["digest"]:
        raise ValueError("result digest mismatch: file content was altered")
    return doc
