"""Tests for the command-line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from maskedpls import cli
from maskedpls.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from maskedpls.matio import load_results, write_matrix

SMALL_SWEEP = {
    "sweep": {
        "base": {"n_samples": 120, "dx": 20, "dy": 12, "theta": 1.0,
                 "mask_x": {"mechanism": "mcar", "target_rate": 0.2},
                 "mask_y": {"mechanism": "mcar", "target_rate": 0.2},
                 "seed": 5},
        "axis": {"name": "theta", "values": [0.6, 1.2, 1.8]},
        "trials": 3,
    }
}


def _parse_kv_lines(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# theory


def test_theory_prints_threshold(capsys):
    code = main(["theory", "--alpha-x", "5", "--alpha-y", "20",
                 "--rho", "0.42"])
    assert code == EXIT_OK
    values = _parse_kv_lines(capsys.readouterr().out)
    assert float(values["theta_crit"]) == pytest.approx(0.48795003647426666,
                                                        abs=1e-12)
    assert "r2_x" not in values


def test_theory_with_spike_strength(capsys):
    code = main(["theory", "--alpha-x", "5", "--alpha-y", "20",
                 "--rho", "0.42", "--theta", "0.97590007294853"])
    assert code == EXIT_OK
    values = _parse_kv_lines(capsys.readouterr().out)
    assert values["supercritical"] == "true"
    assert float(values["r2_x"]) == pytest.approx(0.625, abs=1e-10)
    assert float(values["r2_y"]) == pytest.approx(5.0 / 6.0, abs=1e-10)
    assert float(values["theta_eff"]) == pytest.approx(
        np.sqrt(0.42) * 0.97590007294853, abs=1e-10)


def test_theory_rejects_bad_geometry(capsys):
    code = main(["theory", "--alpha-x", "-1", "--alpha-y", "20"])
    assert code == EXIT_RUNTIME


# ---------------------------------------------------------------------------
# null-scale


def test_null_scale_values(capsys):
    code = main(["null-scale", "--dx", "200", "--dy", "50"])
    assert code == EXIT_OK
    values = _parse_kv_lines(capsys.readouterr().out)
    assert float(values["null_scale_x"]) == pytest.approx(0.005)
    assert float(values["null_scale_y"]) == pytest.approx(0.02)
    assert float(values["boundary_threshold"]) == pytest.approx(0.015)


def test_null_scale_rejects_bad_dims(capsys):
    assert main(["null-scale", "--dx", "0"]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# run

def test_run_config_file_writes_results(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SMALL_SWEEP))
    out = tmp_path / "res.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert out.exists()
    echo_text = stdout.split("\n\n")[0]
    echo = json.loads(echo_text)
    assert echo["sweep"]["trials"] == 3
    assert "variant=sweep points=3" in stdout
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4  # header plus three points


def test_run_echo_is_refeedable_with_identical_digest(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SMALL_SWEEP))
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    first_out = capsys.readouterr().out
    echo = first_out.split("\n\n")[0]

    refed = tmp_path / "echo.json"
    refed.write_text(echo)
    assert main(["run", "--config", str(refed)]) == EXIT_OK
    second_out = capsys.readouterr().out

    digest_1 = first_out.split("digest=")[1].split()[0]
    digest_2 = second_out.split("digest=")[1].split()[0]
    assert digest_1 == digest_2


def test_run_seed_override_changes_digest(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SMALL_SWEEP))
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    base = capsys.readouterr().out
    assert main(["run", "--config", str(cfg), "--seed", "99"]) == EXIT_OK
    reseeded = capsys.readouterr().out
    assert base.split("digest=")[1] != reseeded.split("digest=")[1]


def test_run_threads_do_not_change_digest(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SMALL_SWEEP))
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    serial = capsys.readouterr().out
    assert main(["run", "--config", str(cfg), "--threads", "4"]) == EXIT_OK
    threaded = capsys.readouterr().out
    assert serial.split("digest=")[1].split()[0] == \
        threaded.split("digest=")[1].split()[0]


def test_run_metadata_records_numeric_environment_outside_digest(
        tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SMALL_SWEEP))
    first = tmp_path / "first.json"
    assert main(["run", "--config", str(cfg), "--out", str(first),
                 "--format", "json"]) == EXIT_OK
    meta = json.loads(first.read_text())["metadata"]
    assert meta["numpy"] == np.__version__
    assert meta["blas_config"] is None or isinstance(meta["blas_config"], str)
    assert meta["blas_threads"] is None or meta["blas_threads"] >= 1

    monkeypatch.setattr(cli, "_numeric_environment", lambda: {
        "numpy": "0.0", "blas_config": "other BLAS", "blas_threads": 99})
    second = tmp_path / "second.json"
    assert main(["run", "--config", str(cfg), "--out", str(second),
                 "--format", "json"]) == EXIT_OK
    doc_1, doc_2 = load_results(first), load_results(second)
    assert doc_2["metadata"]["blas_threads"] == 99
    assert doc_1["digest"] == doc_2["digest"]


def test_run_preset_with_overrides_json_output(tmp_path, capsys):
    out = tmp_path / "exp1.json"
    code = main(["run", "--preset", "exp1_transition", "--scale", "desk",
                 "--override", "trials=2", "--override", "theta_points=4",
                 "--out", str(out), "--format", "json"])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    echo = json.loads(stdout.split("\n\n")[0])
    assert echo["preset"] == "exp1_transition"
    assert echo["overrides"]["trials"] == 2
    doc = json.loads(out.read_text())
    assert doc["metadata"]["preset"] == "exp1_transition"
    assert doc["metadata"]["variant"] == "transition"
    assert len(doc["points"]) == 4


def test_run_multi_variant_suffixes_outputs(tmp_path, capsys):
    out = tmp_path / "exp4.csv"
    code = main(["run", "--preset", "exp4_missingness_modes",
                 "--scale", "desk", "--override", "trials=1",
                 "--override", "theta_points=2", "--out", str(out)])
    assert code == EXIT_OK
    assert (tmp_path / "exp4-single_view.csv").exists()
    assert (tmp_path / "exp4-joint.csv").exists()
    assert not out.exists()


def test_run_rejects_both_preset_and_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SMALL_SWEEP))
    code = main(["run", "--preset", "exp1_transition", "--config", str(cfg)])
    assert code == EXIT_CONFIG


def test_run_rejects_unknown_preset(capsys):
    assert main(["run", "--preset", "exp99"]) == EXIT_CONFIG


def test_run_rejects_unknown_override(capsys):
    code = main(["run", "--preset", "exp1_transition",
                 "--override", "bogus_key=1"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bogus_key" in err


def test_run_rejects_malformed_override(capsys):
    assert main(["run", "--preset", "exp1_transition",
                 "--override", "trials"]) == EXIT_CONFIG
    assert main(["run", "--preset", "exp1_transition",
                 "--override", "trials=1",
                 "--override", "trials=2"]) == EXIT_CONFIG


def test_run_rejects_missing_config_file(capsys):
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == EXIT_CONFIG


def test_run_rejects_bad_config_document(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    cfg.write_text(json.dumps({"sweep": {"axis": {"name": "theta",
                                                  "values": [1.0]}}}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    cfg.write_text(json.dumps({"mystery": 1}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("sweep", [
    {"base": [], "axis": {"name": "theta", "values": [1.0]}},
    {**SMALL_SWEEP["sweep"], "estimator": ["em_pls"]},
    {**SMALL_SWEEP["sweep"],
     "base": {**SMALL_SWEEP["sweep"]["base"], "mask_x": None}},
    {**SMALL_SWEEP["sweep"], "trials": 2.9},
])
def test_run_rejects_malformed_sweep_as_configuration_error(tmp_path, capsys, sweep):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"sweep": sweep}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: sweep.")


def test_run_rejects_non_integer_override(capsys):
    code = main(["run", "--preset", "exp1_transition", "--override", "trials=2.9"])
    assert code == EXIT_CONFIG
    assert "override 'trials' must be an integer, got 2.9" in capsys.readouterr().err


def test_run_rejects_overrides_on_raw_sweep(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SMALL_SWEEP))
    code = main(["run", "--config", str(cfg), "--override", "trials=5"])
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# ingest-check


def test_ingest_check_reports_per_file(tmp_path, capsys):
    good = tmp_path / "good.mat"
    write_matrix(good, np.ones((3, 2)))
    bad = tmp_path / "bad.mat"
    bad.write_bytes(b"MXF1junk")
    code = main(["ingest-check", str(good), str(bad)])
    assert code == EXIT_RUNTIME
    out = capsys.readouterr().out
    assert f"{good}: OK 3x2" in out
    assert f"{bad}: FAIL" in out


def test_ingest_check_all_good(tmp_path, capsys):
    a = tmp_path / "a.mat"
    b = tmp_path / "b.csv"
    write_matrix(a, np.ones((2, 2)))
    write_matrix(b, np.ones((4, 1)), fmt="csv")
    assert main(["ingest-check", str(a), str(b)]) == EXIT_OK


def test_ingest_check_missing_file(tmp_path, capsys):
    assert main(["ingest-check", str(tmp_path / "none.mat")]) == EXIT_RUNTIME


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_smoke():
    from maskedpls import __version__

    for module in ("maskedpls.cli", "maskedpls"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "--version"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert __version__ in proc.stdout


def test_package_exposes_its_submodules():
    # a fresh interpreter must find the submodules on the package after a
    # bare ``import maskedpls``; the benchmark's tracer looks them up there
    names = ["estimators", "harness", "linalg", "matio", "presets", "synth"]
    code = f"import maskedpls; print([hasattr(maskedpls, n) for n in {names!r}])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == str([True] * len(names))


def test_check_mode_prints_markers_and_exit_code(capsys):
    # an under-powered run prints one marker line per clause; exit code
    # is 0 only if every clause passed, 3 otherwise
    code = main(["run", "--preset", "exp1_transition", "--scale", "desk",
                 "--override", "trials=1", "--override", "theta_points=3",
                 "--check"])
    out = capsys.readouterr().out
    assert code in (EXIT_OK, EXIT_CHECK)
    if code == EXIT_OK:
        assert "[PASS]" in out and "[FAIL]" not in out
    else:
        assert "[FAIL]" in out
