"""Tests for matrix file round trips and result serialization."""

import dataclasses
import json
import math
import os
import struct
import typing

import numpy as np
import pytest

from maskedpls.harness import Axis, PointSummary, SweepSpec, run_sweep
from maskedpls.matio import (
    CSV_COLUMNS,
    MATRIX_MAGIC,
    MatrixFormatError,
    emit_results,
    ingest_matrix,
    load_results,
    points_from_json,
    results_to_csv,
    results_to_json,
    write_matrix,
)
from maskedpls.streams import substream
from maskedpls.synth import MaskSpec, ModelConfig


def _small_sweep(trials=3, split_half=False, two_axes=False):
    base = ModelConfig(n_samples=120, dx=20, dy=12, theta=1.5,
                       mask_x=MaskSpec("mcar", 0.2),
                       mask_y=MaskSpec("mcar", 0.2), seed=0)
    axis2 = Axis("m_joint", (0.1, 0.3)) if two_axes else None
    spec = SweepSpec(base=base, axis=Axis("theta", (0.5, 1.2, 2.0)),
                     axis2=axis2, trials=trials, split_half=split_half)
    return run_sweep(spec)


# ---------------------------------------------------------------------------
# matrix files


def test_binary_matrix_roundtrip_bitwise(tmp_path):
    rng = substream(0, "io-test")
    m = rng.standard_normal((7, 3))
    path = tmp_path / "m.mat"
    write_matrix(path, m, fmt="binary")
    back = ingest_matrix(path)
    np.testing.assert_array_equal(back, m)
    assert back.dtype == np.float64


def test_binary_matrix_header_layout(tmp_path):
    path = tmp_path / "m.mat"
    write_matrix(path, np.ones((2, 5)), fmt="binary")
    blob = path.read_bytes()
    assert blob[:4] == MATRIX_MAGIC
    rows, cols, enc = struct.unpack_from("<QQB", blob, 4)
    assert (rows, cols, enc) == (2, 5, 0x01)
    assert len(blob) == 4 + 17 + 2 * 5 * 8


def test_csv_matrix_roundtrip(tmp_path):
    rng = substream(1, "io-test")
    m = rng.standard_normal((5, 4)) * 1e6
    path = tmp_path / "m.csv"
    write_matrix(path, m, fmt="csv")
    text = path.read_text()
    assert text.splitlines()[0] == "5,4"
    back = ingest_matrix(path)
    # %.17g preserves doubles exactly
    np.testing.assert_array_equal(back, m)


def test_write_matrix_validation(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        write_matrix(tmp_path / "x", np.ones(4))
    with pytest.raises(ValueError, match="finite"):
        write_matrix(tmp_path / "x", np.array([[1.0, float("nan")]]))
    with pytest.raises(ValueError, match="format"):
        write_matrix(tmp_path / "x", np.ones((2, 2)), fmt="parquet")


def test_ingest_truncated_header(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_bytes(MATRIX_MAGIC + b"\x01\x02")
    with pytest.raises(MatrixFormatError, match="truncated header: 6 bytes"):
        ingest_matrix(path)


def test_ingest_unknown_encoding_byte(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_bytes(MATRIX_MAGIC + struct.pack("<QQB", 1, 1, 0x07) + b"\x00" * 8)
    with pytest.raises(MatrixFormatError, match="encoding byte 0x07"):
        ingest_matrix(path)


def test_ingest_payload_length_mismatch(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_bytes(MATRIX_MAGIC + struct.pack("<QQB", 2, 3, 0x01) + b"\x00" * 40)
    with pytest.raises(MatrixFormatError, match="expected 48 bytes for 2x3, got 40"):
        ingest_matrix(path)


def test_ingest_rejects_nonfinite_binary(tmp_path):
    payload = np.array([[1.0, float("inf")]]).tobytes()
    path = tmp_path / "bad.mat"
    path.write_bytes(MATRIX_MAGIC + struct.pack("<QQB", 1, 2, 0x01) + payload)
    with pytest.raises(MatrixFormatError, match="non-finite"):
        ingest_matrix(path)


def test_ingest_csv_header_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2;3\n1,2,3\n4,5,6\n")
    with pytest.raises(MatrixFormatError, match="rows,cols"):
        ingest_matrix(path)
    path.write_text("two,3\n1,2,3\n")
    with pytest.raises(MatrixFormatError, match="non-integer header"):
        ingest_matrix(path)
    path.write_text("2,3\n1,2,3\n")
    with pytest.raises(MatrixFormatError, match="expected 2 rows, got 1"):
        ingest_matrix(path)
    path.write_text("1,3\n1,oops,3\n")
    with pytest.raises(MatrixFormatError, match="non-numeric"):
        ingest_matrix(path)
    path.write_text("1,3\n1,2\n")
    with pytest.raises(MatrixFormatError, match="has 2 values, expected 3"):
        ingest_matrix(path)


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(MatrixFormatError, match="empty"):
        ingest_matrix(path)


def test_write_is_atomic_no_stale_tempfiles(tmp_path):
    path = tmp_path / "m.mat"
    write_matrix(path, np.ones((3, 3)), fmt="binary")
    write_matrix(path, 2.0 * np.ones((3, 3)), fmt="binary")
    assert ingest_matrix(path)[0, 0] == 2.0
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# result tables


def test_results_csv_layout():
    result = _small_sweep()
    text = results_to_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(result.points)
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    # no second axis and no stability diagnostics: those cells are empty
    col = dict(zip(CSV_COLUMNS, first))
    assert col["axis2"] == ""
    assert col["mean_stability"] == ""
    assert float(col["axis1"]) == 0.5


def test_results_csv_two_axis_grid():
    result = _small_sweep(trials=1, two_axes=True)
    lines = results_to_csv(result).strip().split("\n")
    assert len(lines) == 1 + 6
    col = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert col["axis2"] == "0.1"


def test_results_json_roundtrip_and_digest(tmp_path):
    result = _small_sweep(split_half=True)
    path = tmp_path / "out.json"
    emit_results(result, path, fmt="json", metadata={"preset": "demo"})
    doc = load_results(path)
    assert doc["metadata"]["preset"] == "demo"
    assert doc["digest"] == result.digest
    names = [f.name for f in dataclasses.fields(PointSummary)]
    assert all(sorted(raw) == sorted(names) for raw in doc["points"])
    restored = points_from_json(doc)
    assert len(restored) == len(result.points)
    for orig, back in zip(result.points, restored):
        for name in names:
            a, b = getattr(orig, name), getattr(back, name)
            assert a == b or (isinstance(a, float) and math.isnan(a)
                              and math.isnan(b)), name
            assert type(a) is type(b), name


def test_results_json_null_encodes_nan():
    result = _small_sweep()  # no split-half: stability is NaN
    doc = json.loads(results_to_json(result))
    assert doc["points"][0]["mean_stability"] is None
    restored = points_from_json(doc)
    assert math.isnan(restored[0].mean_stability)


def test_result_points_read_null_floats_as_nan_and_integral_integers(tmp_path):
    result = _small_sweep()
    doc = json.loads(results_to_json(result))
    floats = [name for name, tp in typing.get_type_hints(PointSummary).items()
              if tp is float]
    for name in floats:
        doc["points"][0][name] = None
    doc["points"][0]["trials_requested"] = 3.0
    point = points_from_json(doc)[0]
    assert all(math.isnan(getattr(point, name)) for name in floats)
    assert point.axis2 is None  # an optional float reads null as None
    assert point.trials_requested == 3 and type(point.trials_requested) is int
    # fields outside the digest load back as NaN from a written file
    doc = json.loads(results_to_json(result))
    doc["points"][0]["mean_runtime"] = None
    path = tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    assert load_results(path)["digest"] == result.digest
    for value in (True, "3"):
        doc["points"][0]["trials_requested"] = value
        with pytest.raises(ValueError, match=r"points\[0\]\.trials_requested must be an integer"):
            points_from_json(doc)


def test_load_results_detects_tampering(tmp_path):
    result = _small_sweep()
    path = tmp_path / "out.json"
    emit_results(result, path, fmt="json")
    doc = json.loads(path.read_text())
    doc["points"][0]["mean_r2x"] = 0.123456
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="digest mismatch"):
        load_results(path)


@pytest.mark.parametrize("field,value", [
    ("valid", "false"),
    ("trials_requested", 2.9),
    ("errors", "ab"),
    ("axis2", "x"),
])
def test_load_results_rejects_wrong_typed_fields(tmp_path, field, value):
    result = _small_sweep()
    path = tmp_path / "out.json"
    emit_results(result, path, fmt="json")
    doc = json.loads(path.read_text())
    doc["points"][1][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"points\[1\]\.{field}"):
        load_results(path)


def test_load_results_rejects_a_missing_field(tmp_path):
    result = _small_sweep()
    path = tmp_path / "out.json"
    emit_results(result, path, fmt="json")
    doc = json.loads(path.read_text())
    del doc["points"][1]["mean_runtime"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"points\[1\] is missing required key 'mean_runtime'"):
        load_results(path)


def test_load_results_rejects_an_unknown_field(tmp_path):
    result = _small_sweep()
    path = tmp_path / "out.json"
    emit_results(result, path, fmt="json")
    doc = json.loads(path.read_text())
    doc["points"][1]["bogus"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"unknown keys in points\[1\]: \['bogus'\]"):
        load_results(path)


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("edit,message", [
    (lambda doc: dict(doc, points=[1]), r"points\[0\] must be an object"),
    (lambda doc: _without(doc, "points"), "needs a 'points' list"),
    (lambda doc: _without(doc, "digest"), "has no 'digest'"),
    (lambda doc: [doc], "not a JSON object"),
], ids=["point-not-object", "no-points", "no-digest", "top-level-list"])
def test_load_results_rejects_a_malformed_document(tmp_path, edit, message):
    result = _small_sweep()
    path = tmp_path / "out.json"
    emit_results(result, path, fmt="json")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message):
        load_results(path)


def test_results_json_carries_iterations_outside_the_digest(tmp_path):
    result = _small_sweep()
    doc = json.loads(results_to_json(result))
    # pls_svd_zero is one step per trial
    assert all(raw["mean_iterations"] == 1.0 for raw in doc["points"])
    assert "mean_iterations" not in CSV_COLUMNS
    doc["points"][0]["mean_iterations"] = 7.0
    path = tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    assert load_results(path)["digest"] == result.digest


def test_load_results_rejects_unknown_schema(tmp_path):
    result = _small_sweep()
    path = tmp_path / "out.json"
    emit_results(result, path, fmt="json")
    doc = json.loads(path.read_text())
    # version 1 files predate mean_iterations
    for version in (1, 99):
        doc["schema_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema version"):
            load_results(path)


def test_emit_results_rejects_unknown_format(tmp_path):
    result = _small_sweep()
    with pytest.raises(ValueError, match="format"):
        emit_results(result, tmp_path / "x", fmt="xml")
