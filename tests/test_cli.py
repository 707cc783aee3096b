"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from maskedpls import blas, cli
from maskedpls.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from maskedpls.matio import load_results, write_matrix
from maskedpls.presets import preset_config

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


def test_theory_prints_the_limit_overlap_for_a_huge_spike(capsys):
    code = main(["theory", "--alpha-x", "5", "--alpha-y", "20",
                 "--theta", "1e77"])
    assert code == EXIT_OK
    values = _parse_kv_lines(capsys.readouterr().out)
    assert values["r2_x"] == values["r2_y"] == "1"


def test_theory_rejects_bad_geometry(capsys):
    code = main(["theory", "--alpha-x", "-1", "--alpha-y", "20"])
    assert code == EXIT_RUNTIME



@pytest.mark.parametrize("args", [
    ["--alpha-x", "5", "--alpha-y", "20", "--theta", "nan"],
    ["--alpha-x", "5", "--alpha-y", "20", "--theta", "inf"],
    ["--alpha-x", "inf", "--alpha-y", "inf"],
    ["--alpha-x", "nan", "--alpha-y", "20"],
])
def test_theory_rejects_non_finite_inputs(capsys, args):
    assert main(["theory", *args]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


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
        "numpy": "0.0", "blas_config": "other BLAS"})
    second = tmp_path / "second.json"
    assert main(["run", "--config", str(cfg), "--out", str(second),
                 "--format", "json"]) == EXIT_OK
    doc_1, doc_2 = load_results(first), load_results(second)
    assert doc_2["metadata"]["blas_config"] == "other BLAS"
    assert doc_1["digest"] == doc_2["digest"]


def test_run_metadata_records_the_blas_threads_the_sweep_ran_at(
        tmp_path, capsys, blas_count):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SMALL_SWEEP))
    for i, threads in enumerate(([], ["--threads", "1"], ["--threads", "2"])):
        out = tmp_path / f"run{i}.json"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--format", "json", *threads]) == EXIT_OK
        # every sweep runs OpenBLAS on one thread, and restores its count
        assert load_results(out)["metadata"]["blas_threads"] == 1
        assert blas.num_threads() == blas_count


def test_run_passes_no_thread_count_unless_given(tmp_path, capsys, monkeypatch):
    # run_sweep picks the default, one worker per OpenBLAS thread
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SMALL_SWEEP))
    seen = []
    real = cli.run_sweep

    def recording_sweep(spec, threads, pair_factory):
        seen.append(threads)
        return real(spec, threads=threads, pair_factory=pair_factory)

    monkeypatch.setattr(cli, "run_sweep", recording_sweep)
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert main(["run", "--config", str(cfg), "--threads", "3"]) == EXIT_OK
    assert seen == [None, 3]


@pytest.mark.parametrize("count", ["0", "-2"])
def test_run_rejects_a_thread_count_below_one(tmp_path, capsys, count):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SMALL_SWEEP))
    assert main(["run", "--config", str(cfg), "--threads", count]) == EXIT_CONFIG
    assert "--threads must be at least 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("scale", ["paper", "desk", "nonsense"])
def test_run_rejects_scale_with_a_config(tmp_path, capsys, scale):
    # a config document carries its own scale, so --scale would be ignored
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(preset_config("exp1_transition", "desk").echo))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(SMALL_SWEEP))
    for cfg in (echo, sweep):
        assert main(["run", "--config", str(cfg), "--scale", scale]) == EXIT_CONFIG
        assert "--scale applies to --preset only" in capsys.readouterr().err


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


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_run_reports_an_unreadable_config_as_configuration_error(tmp_path, capsys,
                                                                 kind):
    cfg = tmp_path / "cfg.json"
    if kind == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(b'{"sweep": "\xff\xfe"}')
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot read --config")
    assert str(cfg) in err


def test_run_rejects_bad_config_document(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    cfg.write_text(json.dumps({"sweep": {"axis": {"name": "theta",
                                                  "values": [1.0]}}}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    cfg.write_text(json.dumps({"mystery": 1}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("edit", ["trials", "bogus"])
def test_run_rejects_an_edited_preset_echo(tmp_path, capsys, edit):
    echo = json.loads(json.dumps(
        preset_config("exp1_transition", "desk", {"theta_points": 3}).echo))
    if edit == "trials":
        echo["resolved"]["transition"]["trials"] = 3
    else:
        echo["resolved"] = {"bogus": 1}
    cfg = tmp_path / "echo.json"
    cfg.write_text(json.dumps(echo))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "resolved section differs" in err and "'transition'" in err
    assert ("'bogus'" in err) == (edit == "bogus")


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


@pytest.mark.parametrize("axis, message", [
    ({"name": "rho", "values": [0.5, 1.5]}, "rho axis value must be in (0, 1], got 1.5"),
    ({"name": "n_samples", "values": [0.2]}, "n_samples must be a positive integer, got 0"),
    ({"name": "theta", "values": [1.0, -1.0]}, "theta must be non-negative, got -1.0"),
])
def test_run_rejects_bad_axis_values_before_running(tmp_path, capsys, axis, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"sweep": {**SMALL_SWEEP["sweep"], "axis": axis}}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"configuration error: sweep: {message}" in capsys.readouterr().err


def test_run_rejects_infinite_theta_in_sweep_document(tmp_path, capsys):
    # Python's json reads the non-standard literal Infinity as a float
    cfg = tmp_path / "inf.json"
    text = json.dumps(SMALL_SWEEP).replace('"theta": 1.0', '"theta": Infinity')
    assert "Infinity" in text
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error: sweep.base: theta must be finite, got inf" in captured.err
    assert "variant=" not in captured.out


def test_run_rejects_estimator_loop_settings(tmp_path, capsys):
    # an echo from before the loop budget became a constant, with the tol
    # that once stopped em_pls after its first check
    cfg = tmp_path / "echo.json"
    estimator = '{"name": "em_pls", "max_iter": 50, "tol": Infinity}'
    cfg.write_text(json.dumps(SMALL_SWEEP)[:-2] + f', "estimator": {estimator}}}}}')
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "unknown keys in sweep.estimator: ['max_iter', 'tol']" in captured.err
    assert "variant=" not in captured.out


def test_run_rejects_missing_out_directory_before_running(tmp_path, capsys):
    missing = tmp_path / "missing"
    code = main(["run", "--preset", "exp1_transition", "--override", "trials=1",
                 "--override", "theta_points=2", "--out", str(missing / "x.csv")])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"--out directory {str(missing)!r} does not exist" in captured.err
    assert "variant=" not in captured.out
    assert not missing.exists()


@pytest.mark.parametrize("preset, taken", [
    ("exp1_transition", "out.csv"),
    ("exp4_missingness_modes", "out-joint.csv"),
])
def test_run_rejects_out_path_naming_a_directory_before_running(
        tmp_path, capsys, preset, taken):
    # a multi-variant run writes out-<variant>.csv, so that is the path
    # checked for exp4, not --out itself
    (tmp_path / taken).mkdir()
    out = tmp_path / "out.csv"
    code = main(["run", "--preset", preset, "--override", "trials=1",
                 "--override", "theta_points=2", "--out", str(out)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"--out path {str(tmp_path / taken)!r} is a directory" in captured.err
    assert "variant=" not in captured.out
    assert sorted(os.listdir(tmp_path)) == [taken]


def test_run_rejects_non_integer_override(capsys):
    code = main(["run", "--preset", "exp1_transition", "--override", "trials=2.9"])
    assert code == EXIT_CONFIG
    assert "override 'trials' must be an integer, got 2.9" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["exp1_transition", "exp3_finite_size"])
@pytest.mark.parametrize("seed", [2 ** 64, -1])
def test_run_rejects_preset_seeds_outside_64_bits(capsys, preset, seed):
    code = main(["run", "--preset", preset, "--override", "trials=1",
                 "--override", "theta_points=3", "--seed", str(seed)])
    assert code == EXIT_CONFIG
    assert "override 'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [2 ** 64, -1])
def test_run_rejects_sweep_seeds_outside_64_bits(tmp_path, capsys, seed):
    cfg = tmp_path / "sweep.json"
    doc = json.loads(json.dumps(SMALL_SWEEP))
    doc["sweep"]["base"]["seed"] = seed
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err
    cfg.write_text(json.dumps(SMALL_SWEEP))
    assert main(["run", "--config", str(cfg), "--seed", str(seed)]) == EXIT_CONFIG
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err


def test_run_accepts_the_largest_64_bit_seed(tmp_path, capsys):
    top = str(2 ** 64 - 1)
    assert main(["run", "--preset", "exp1_transition", "--override", "trials=1",
                 "--override", "theta_points=2", "--seed", top]) == EXIT_OK
    preset_out = capsys.readouterr().out
    assert main(["run", "--preset", "exp1_transition", "--override", "trials=1",
                 "--override", "theta_points=2", "--seed", "0"]) == EXIT_OK
    zero_out = capsys.readouterr().out
    assert preset_out.split("digest=")[1] != zero_out.split("digest=")[1]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SMALL_SWEEP))
    assert main(["run", "--config", str(cfg), "--seed", top]) == EXIT_OK


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


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracing.py replaces each (module, attribute) of WRAPPED on
    # the package at run time; a refactor that renames or moves one of
    # them breaks the traced benchmark, whose tests are outside this suite
    tracing = os.path.join(REPO_ROOT, "perfbench", "tracing.py")
    code = ("import runpy, maskedpls; "
            f"wrapped = runpy.run_path({tracing!r})['WRAPPED']; "
            "print([(m, a) for m, a, _ in wrapped "
            "if not callable(getattr(getattr(maskedpls, m, None), a, None))])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_benchmark_traced_unit_reports_every_layer_metric(tmp_path):
    # the traced benchmark reads EstimatorKind.max_iter,
    # EstimateResult.iterations, emit_results' positional path and the
    # PointSummary trial counts and moments; one traced unit end to end
    # checks that they are all still there
    code = f"""
import json, sys
sys.path.insert(0, {os.path.join(REPO_ROOT, "perfbench")!r})
import run, tracing
pkg = run.load_program()
workload = run.Workload("contract", "exp1_transition",
                        {{"trials": 2, "theta_points": 2}}, threads=1,
                        reference_seeds=1)
tracer = tracing.Tracer()
with tracer.installed(pkg):
    unit = run.run_unit(pkg, workload, 0, {str(tmp_path)!r}, {{}})
reference = {{name: [run.point_reference(p) for p in result.points]
              for name, result, _ in unit.results}}
values = tracing.layer_metrics(tracer.spans, 0.0)
print(json.dumps({{"failed": run.failed_trials(pkg, unit, reference),
                  "missing": [name for name, _, _ in tracing.LAYER_METRICS
                              if name not in values]}}))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"failed": 0, "missing": []}


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
