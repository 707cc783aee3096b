"""Tests for preset resolution, config parsing, and check clauses."""

import copy
import json

import numpy as np
import pytest

from maskedpls import blas, cli, presets
from maskedpls.harness import (
    Axis,
    PointSummary,
    SweepResult,
    SweepSpec,
    run_sweep,
)
from maskedpls.matio import write_matrix
from maskedpls.presets import (
    PRESET_NAMES,
    SCALES,
    ConfigError,
    evaluate_check,
    parse_config,
    preset_config,
)
from maskedpls.streams import substream
from maskedpls.synth import ModelConfig


def _point(**overrides) -> PointSummary:
    fields = dict(axis1=1.0, axis2=None, mean_r2x=0.5, std_r2x=0.05,
                  mean_r2y=0.6, std_r2y=0.05, mean_stability=float("nan"),
                  std_stability=float("nan"), theory_r2x=0.5, theory_r2y=0.6,
                  theta_crit=0.5, trials_requested=25, trials_effective=25,
                  seeds_digest="0" * 16, valid=True, theta=1.0, rho=1.0,
                  n_samples=1000, dx=200, dy=150, mean_runtime=0.01, mean_iterations=1.0,
                  errors=())
    fields.update(overrides)
    return PointSummary(**fields)


def _fake_result(points, correlation=float("nan")) -> SweepResult:
    base = ModelConfig(n_samples=40, dx=4, dy=4, theta=1.0)
    spec = SweepSpec(base=base, axis=Axis("theta", (1.0,)), trials=1)
    return SweepResult(spec=spec, points=tuple(points),
                       correlation=correlation,
                       correlation_supercritical=float("nan"),
                       total_runtime=0.0, digest="", blas_threads=None)


# ---------------------------------------------------------------------------
# preset resolution


def test_all_synthetic_presets_resolve_at_both_scales():
    for name in PRESET_NAMES:
        if name == "exp5_semi_synthetic":
            continue  # needs real matrices, covered below
        for scale in ("paper", "desk"):
            resolved = preset_config(name, scale)
            assert resolved.items, (name, scale)
            assert resolved.echo["preset"] == name
            assert resolved.echo["scale"] == scale
            assert set(resolved.echo["resolved"]) == {
                item.name for item in resolved.items}


def test_exp1_scales_differ_in_grid_and_trials():
    desk = preset_config("exp1_transition", "desk").items[0].spec
    paper = preset_config("exp1_transition", "paper").items[0].spec
    assert len(desk.axis.values) == 15
    assert len(paper.axis.values) == 25
    assert desk.trials == 30
    assert paper.trials == 100
    # dimensions never shrink with scale
    assert desk.base.n_samples == paper.base.n_samples == 1000
    assert desk.base.dx == paper.base.dx == 200


def test_exp1_model_geometry():
    spec = preset_config("exp1_transition", "desk").items[0].spec
    assert spec.base.dy == 50
    assert spec.base.mask_x.target_rate == pytest.approx(0.3)
    assert spec.base.mask_y.target_rate == pytest.approx(0.4)
    assert spec.axis.name == "theta_over_crit"
    assert spec.axis.values[0] == pytest.approx(0.5)
    assert spec.axis.values[-1] == pytest.approx(2.5)


def test_exp3_variants_cover_sample_counts():
    items = preset_config("exp3_finite_size", "desk").items
    assert [item.name for item in items] == ["n100", "n500", "n2000"]
    for item in items:
        assert item.spec.base.n_samples == int(item.name[1:])
        # aspect ratio 2.5 preserved as dimensions scale
        assert item.spec.base.dx == round(item.spec.base.n_samples / 2.5)


def test_exp4_variants_single_and_joint():
    items = preset_config("exp4_missingness_modes", "desk").items
    names = [item.name for item in items]
    assert names == ["single_view", "joint"]
    assert items[0].spec.axis2.name == "m_x"
    assert items[1].spec.axis2.name == "m_joint"


def test_exp6_requests_split_half():
    spec = preset_config("exp6_split_half", "desk").items[0].spec
    assert spec.split_half
    assert spec.base.n_samples == 2000


def test_b1_covers_noise_families():
    items = preset_config("b1_noise", "desk").items
    kinds = {item.name: item.spec.base.noise.kind for item in items}
    assert kinds["gaussian"] == "gaussian"
    assert kinds["laplace"] == "laplace"
    assert kinds["student_t3"] == "student_t"
    assert kinds["heteroskedastic"] == "heteroskedastic"


def test_b3_runs_every_estimator_at_fifty_trials_both_scales():
    for scale in ("paper", "desk"):
        items = preset_config("b3_baselines", scale).items
        assert {item.name for item in items} == {
            "pls_svd_zero", "mean_impute", "em_pls", "iterative_svd", "oracle"}
        for item in items:
            assert item.spec.trials == 50
            assert item.spec.estimator.name == item.name


def test_preset_rejects_unknown_name_scale_and_override():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_config("exp0")
    with pytest.raises(ConfigError, match="unknown scale"):
        preset_config("exp1_transition", "huge")
    with pytest.raises(ConfigError, match="unknown override"):
        preset_config("exp1_transition", "desk", {"verbosity": 3})
    with pytest.raises(ConfigError, match="integer"):
        preset_config("exp1_transition", "desk", {"trials": "lots"})


def test_exp5_requires_matrix_paths():
    with pytest.raises(ConfigError, match="x_matrix"):
        preset_config("exp5_semi_synthetic", "desk")


def test_exp5_resolves_with_real_files(tmp_path):
    rng = substream(3, "exp5-test")
    latent = rng.standard_normal((60, 3))
    x = latent @ rng.standard_normal((3, 15)) + rng.standard_normal((60, 15))
    y = latent @ rng.standard_normal((3, 12)) + rng.standard_normal((60, 12))
    x_path, y_path = tmp_path / "x.mat", tmp_path / "y.mat"
    write_matrix(x_path, x)
    write_matrix(y_path, y)
    resolved = preset_config("exp5_semi_synthetic", "desk", {
        "x_matrix": str(x_path), "y_matrix": str(y_path),
        "target_dims": 5, "trials": 2, "theta_points": 3})
    names = [item.name for item in resolved.items]
    assert names == ["theta_sweep", "mask_sweep", "random_control"]
    for item in resolved.items:
        assert item.pair_factory is not None
        pair = item.pair_factory(item.spec.base)
        assert pair.x_obs.shape == (60, 5)


# ---------------------------------------------------------------------------
# config documents


def test_parse_config_preset_form_merges_overrides():
    doc = {"preset": "exp1_transition", "scale": "desk",
           "overrides": {"trials": 7}}
    resolved = parse_config(json.dumps(doc))
    assert resolved.items[0].spec.trials == 7
    # command-line overrides win over the document's
    merged = parse_config(json.dumps(doc), overrides={"trials": 9})
    assert merged.items[0].spec.trials == 9
    reseeded = parse_config(json.dumps(doc), seed=42)
    assert reseeded.items[0].spec.base.seed == 42


def test_parse_config_echo_roundtrip(tmp_path):
    # every preset's echo at both scales re-parses to the same document,
    # and --seed / --override still apply on top of it
    rng = substream(8, "echo-views")
    write_matrix(tmp_path / "x.mat", rng.standard_normal((40, 12)))
    write_matrix(tmp_path / "y.mat", rng.standard_normal((40, 9)))
    exp5 = {"x_matrix": str(tmp_path / "x.mat"),
            "y_matrix": str(tmp_path / "y.mat"), "target_dims": 6}
    for name in PRESET_NAMES:
        for scale in SCALES:
            overrides = {"trials": 3, **(exp5 if name == "exp5_semi_synthetic" else {})}
            resolved = preset_config(name, scale, overrides)
            text = json.dumps(resolved.echo, indent=2, sort_keys=True)
            again = parse_config(text)
            assert json.dumps(again.echo, indent=2, sort_keys=True) == text
            assert [i.spec for i in again.items] == [i.spec for i in resolved.items]
            rerun = parse_config(text, overrides={"trials": 2}, seed=7)
            assert rerun.echo["overrides"]["seed"] == 7
            assert {item.spec.trials for item in rerun.items} == {2}


def test_parse_config_resolves_an_echo_once_unless_overridden(tmp_path,
                                                              monkeypatch):
    # the resolution that checks an echo's resolved section is the one
    # that runs, so an exp5 echo reads each matrix once
    rng = substream(9, "echo-once")
    paths = {}
    for name, cols in (("x_matrix", 30), ("y_matrix", 25)):
        paths[name] = str(tmp_path / f"{name}.mat")
        write_matrix(paths[name], rng.standard_normal((120, cols)))
    echo = preset_config("exp5_semi_synthetic", "desk", {**paths, "seed": 3}).echo
    text = json.dumps(echo)
    reads = []
    read = presets.ingest_matrix

    def counted(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(presets, "ingest_matrix", counted)
    for kwargs, count in (({}, 2), ({"seed": 3}, 2),
                          ({"overrides": {"seed": 3}}, 2),
                          ({"seed": 4}, 4), ({"overrides": {"trials": 3}}, 4)):
        reads.clear()
        resolved = parse_config(text, **kwargs)
        assert len(reads) == count, kwargs
        if count == 2:
            assert resolved.echo == echo
    # an override equal to the echo's only by Python's == is still decoded
    one = json.dumps(preset_config("exp1_transition", "desk", {"trials": 1}).echo)
    with pytest.raises(ConfigError, match="override 'trials'"):
        parse_config(one, overrides={"trials": True})


def test_parse_config_rejects_an_edited_resolved_section():
    echo = json.loads(json.dumps(preset_config("b1_noise", "desk").echo))
    echo["resolved"]["laplace"]["base"]["dy"] = 7
    with pytest.raises(ConfigError, match=r"\['laplace'\]"):
        parse_config(json.dumps(echo))
    echo["resolved"] = []
    with pytest.raises(ConfigError, match="for variants .*'gaussian'"):
        parse_config(json.dumps(echo))


def test_parse_config_rejects_bad_documents():
    with pytest.raises(ConfigError, match="valid JSON"):
        parse_config("{nope")
    with pytest.raises(ConfigError, match="root"):
        parse_config("[1, 2]")
    with pytest.raises(ConfigError, match="preset.*or.*sweep"):
        parse_config("{}")
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(json.dumps({"preset": "exp1_transition", "extra": 1}))


def test_parse_config_sweep_form():
    doc = {"sweep": {
        "base": {"n_samples": 100, "dx": 10, "dy": 8, "theta": 1.0},
        "axis": {"name": "theta", "values": [0.5, 1.5]},
        "trials": 4,
        "estimator": {"name": "em_pls"},
        "split_half": True,
    }}
    resolved = parse_config(json.dumps(doc), seed=17)
    spec = resolved.items[0].spec
    assert spec.base.seed == 17
    assert spec.trials == 4
    assert spec.estimator.name == "em_pls"
    assert spec.split_half


def test_parse_config_sweep_rejects_unknown_and_overrides():
    doc = {"sweep": {
        "base": {"n_samples": 100, "dx": 10, "dy": 8, "theta": 1.0},
        "axis": {"name": "theta", "values": [1.0]},
        "verbose": True,
    }}
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(json.dumps(doc))
    ok_doc = {"sweep": {
        "base": {"n_samples": 100, "dx": 10, "dy": 8, "theta": 1.0},
        "axis": {"name": "theta", "values": [1.0]},
    }}
    with pytest.raises(ConfigError, match="overrides"):
        parse_config(json.dumps(ok_doc), overrides={"trials": 2})


def test_parse_config_surfaces_model_validation():
    doc = {"sweep": {
        "base": {"n_samples": 5, "dx": 10, "dy": 8, "theta": 1.0},
        "axis": {"name": "theta", "values": [1.0]},
    }}
    with pytest.raises(ConfigError, match="n_samples"):
        parse_config(json.dumps(doc))


_MINIMAL_SWEEP = {"base": {"n_samples": 100, "dx": 10, "dy": 8, "theta": 1.0},
                  "axis": {"name": "theta", "values": [1.0]}}


def _sweep_with(path: tuple, value=None, delete: bool = False) -> str:
    sweep = copy.deepcopy(_MINIMAL_SWEEP)
    node = sweep
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps({"sweep": sweep})


@pytest.mark.parametrize("path, value, message", [
    # a sub-document that is not an object
    (("base",), [], r"sweep\.base must be an object"),
    (("estimator",), ["em_pls"], r"sweep\.estimator must be an object"),
    (("base", "mask_x"), None, r"sweep\.base\.mask_x must be an object"),
    # keys removed from the schema are unknown, so old documents stop loading
    (("diagnostics",), {"split_half": True}, r"unknown keys in sweep:.*diagnostics"),
    # integer fields take integral numbers only, never booleans
    (("trials",), 2.9, r"sweep\.trials must be an integer, got 2\.9"),
    (("trials",), True, r"sweep\.trials must be an integer, got True"),
    (("base", "n_samples"), 100.7, r"sweep\.base\.n_samples must be an integer"),
    (("base", "seed"), "3", r"sweep\.base\.seed must be an integer"),
    # every other JSON type is checked too
    (("base", "theta"), True, r"sweep\.base\.theta must be a number"),
    (("base", "theta"), "1.0", r"sweep\.base\.theta must be a number"),
    (("axis", "values"), 1.0, r"sweep\.axis\.values must be a list"),
    (("axis", "values"), [1.0, False], r"sweep\.axis\.values\[1\] must be a number"),
    (("axis", "name"), 3, r"sweep\.axis\.name must be a string"),
    (("split_half",), 1, r"sweep\.split_half must be true or false"),
    (("axis2",), [], r"sweep\.axis2 must be an object"),
    # unknown keys at a nested level
    (("base", "noise"), {"kind": "gaussian", "scale": 2},
     r"unknown keys in sweep\.base\.noise: \['scale'\]"),
    # dataclass validation surfaces as a configuration error
    (("estimator",), {"name": "ridge"}, r"sweep\.estimator: unknown estimator"),
    (("base", "mask_y"), {"target_rate": 1.5}, r"target_rate must be in"),
    # removed keys are unknown at nested levels too
    (("estimator",), {"name": "iterative_svd", "rank": 2},
     r"unknown keys in sweep\.estimator:.*rank"),
    (("base", "noise"), {"kind": "heteroskedastic", "low": 0.5},
     r"unknown keys in sweep\.base\.noise:.*low"),
    # the estimators' loop budget is a constant, no longer a key
    (("estimator",), {"name": "em_pls", "max_iter": 50},
     r"unknown keys in sweep\.estimator: \['max_iter'\]"),
    (("estimator",), {"name": "em_pls", "tol": float("inf")},
     r"unknown keys in sweep\.estimator: \['tol'\]"),
])
def test_sweep_decoder_rejects(path, value, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(_sweep_with(path, value))


def test_sweep_decoder_requires_keys_without_defaults():
    for path in (("base",), ("axis",), ("base", "theta"), ("axis", "values")):
        with pytest.raises(ConfigError, match=f"missing required key '{path[-1]}'"):
            parse_config(_sweep_with(path, delete=True))


def test_sweep_decoder_fills_defaults_and_accepts_integral_numbers():
    spec = parse_config(json.dumps({"sweep": _MINIMAL_SWEEP})).items[0].spec
    assert spec == SweepSpec(base=ModelConfig(n_samples=100, dx=10, dy=8, theta=1.0),
                             axis=Axis("theta", (1.0,)))
    spec = parse_config(_sweep_with(("trials",), 4.0)).items[0].spec
    assert spec.trials == 4 and isinstance(spec.trials, int)
    spec = parse_config(_sweep_with(("base", "theta"), 2)).items[0].spec
    assert spec.base.theta == 2.0 and isinstance(spec.base.theta, float)
    assert parse_config(_sweep_with(("axis2",), None)).items[0].spec.axis2 is None


def test_every_preset_spec_round_trips_through_the_sweep_form():
    for name in PRESET_NAMES:
        if name == "exp5_semi_synthetic":
            continue  # needs real matrices, and its sweeps need a pair factory
        for scale in ("paper", "desk"):
            resolved = preset_config(name, scale)
            for item in resolved.items:
                doc = json.dumps({"sweep": resolved.echo["resolved"][item.name]})
                again = parse_config(doc)
                assert again.items[0].spec == item.spec, (name, scale, item.name)
                assert again.echo == {"sweep": resolved.echo["resolved"][item.name]}


@pytest.mark.parametrize("path, value, message", [
    (("base", "theta"), None, r"theta must be non-negative, got nan"),
    (("base", "noise"), {"df": None}, r"sweep\.base\.noise: df must be finite, got nan"),
    (("base", "mask_x"), {"target_rate": None}, r"target_rate must be in \[0, 1\), got nan"),
    (("base", "mask_y"), {"strength": None}, r"strength must be in \[0, 1\], got nan"),
    (("axis", "values"), [None], r"axis values must be finite"),
])
def test_sweep_decoder_reads_null_floats_as_nan_and_rejects_them(path, value, message):
    # a float reads null as NaN, which every float a sweep sets rejects
    with pytest.raises(ConfigError, match=message):
        parse_config(_sweep_with(path, value))


@pytest.mark.parametrize("value", [2.9, True, 100.7, "2.5", None, [3], "7"])
def test_integer_overrides_reject_non_integers(value):
    with pytest.raises(ConfigError, match="override 'trials' must be an integer"):
        preset_config("exp1_transition", "desk", {"trials": value})
    doc = {"preset": "exp1_transition", "overrides": {"trials": value}}
    with pytest.raises(ConfigError, match="override 'trials' must be an integer"):
        parse_config(json.dumps(doc))


def test_integer_overrides_accept_integral_values():
    for value in (7, 7.0):
        spec = preset_config("exp1_transition", "desk", {"trials": value}).items[0].spec
        assert spec.trials == 7 and isinstance(spec.trials, int)


# ---------------------------------------------------------------------------
# pinned results

# the build the pinned digests were recorded on; rounding, and with it a
# digest, may differ on another numpy, OpenBLAS or OpenBLAS core type
_PINNED_BUILD = (
    "2.4.6",
    "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
)
_PINNED_EXP1_DIGESTS = {
    "transition": "ab8350e6fed82c5148d78b97cf0905bf",
}
_PINNED_B2_DIGESTS = {
    "mcar": "8dbd794f8ea16d848dd08990012934f1",
    "signal_dependent": "026a7a9a0d6e32df9ac1b91780c14169",
    "magnitude_dependent": "6cc15f586d22306b97cfee2a58c21d26",
    "thresholded": "e0fbf80495c8514fb66acf56e8dc0150",
    "correlated": "4310a117fca89227a66109bb155d65fd",
}
_PINNED_B3_DIGESTS = {
    "pls_svd_zero": "8ed070afd41ba3ab932539e3adc97e1a",
    "mean_impute": "9bf8d57e603be7511319b0609d5ba903",
    "em_pls": "5bc4172082faba9f3eff082df19bf70c",
    "iterative_svd": "1b58411ae03d4b7adb3d531eaedb2276",
    "oracle": "185a8be6aad437b4dbcd84bb164c7d4d",
}


_PINNED_EXP5_DIGESTS = {
    "theta_sweep": "8889d284a854ae188c88b45f5fd51423",
    "mask_sweep": "db87a18224ca822561c8f5b450cc28b8",
    "random_control": "9b2cf92fbc5cc271ed3912287920c249",
}
_PINNED_EXP2_DIGESTS = {
    "phase_diagram": "1cc1c3de6d2cdfa5055f486a561e9622",
}
_PINNED_EXP3_DIGESTS = {
    "n100": "f89ec73d685f72179e11ec6994f92067",
    "n500": "8d295fcd88ab13a2748f6fefe3d64265",
    "n2000": "a2456d5624ae01837c035b8177c66e70",
}
_PINNED_EXP4_DIGESTS = {
    "single_view": "9cb859b792ae1b5ce28f326886e5034d",
    "joint": "cdc8185cf9c5b1ba38ff077eeb0ce8e3",
}
_PINNED_EXP6_DIGESTS = {
    "split_half": "6da0165d05e74a5c47317b275f74d89a",
}
_PINNED_B1_DIGESTS = {
    "gaussian": "8dbd794f8ea16d848dd08990012934f1",
    "laplace": "77e6b7e7b625cdbec570e03ba928ba7a",
    "heteroskedastic": "8336764d22209cfb53496f996615146d",
    "student_t5": "c4a3bd7587cfd32a8f9c06df11742df8",
    "student_t4_5": "59a15252f85e4c87b7af57c60bb814f7",
    "student_t3": "3a828c15a23ba28cabc433d6475850bf",
}


def _skip_off_the_pinned_build():
    build = (np.__version__, blas.config())
    if build != _PINNED_BUILD:
        pytest.skip(f"digests pinned on {_PINNED_BUILD}, running on {build}")


def _desk_digests(preset: str, **overrides) -> dict[str, str]:
    """Each item's digest of the desk preset at seed 0, two trials, two
    theta points and any further overrides, at the default thread count;
    skips off the pinned build."""
    _skip_off_the_pinned_build()
    resolved = preset_config(preset, "desk",
                             {"seed": 0, "trials": 2, "theta_points": 2,
                              **overrides})
    return {item.name: run_sweep(item.spec,
                                 pair_factory=item.pair_factory).digest
            for item in resolved.items}


def test_exp1_transition_digest_is_pinned():
    # whitening, planting and MCAR masks, checked bit for bit
    assert _desk_digests("exp1_transition") == _PINNED_EXP1_DIGESTS


def test_b2_mar_digests_are_pinned():
    # every mask mechanism's link and draw, checked bit for bit
    assert _desk_digests("b2_mar") == _PINNED_B2_DIGESTS


def test_b3_baselines_digests_are_pinned():
    # every estimator's loop at one BLAS thread, checked bit for bit
    assert _desk_digests("b3_baselines") == _PINNED_B3_DIGESTS


def test_exp5_semi_synthetic_digests_are_pinned(tmp_path):
    # the planted-pair factory on a reused design, checked bit for bit
    rng = substream(5, "exp5-pin")
    paths = {}
    for name, cols in (("x_matrix", 40), ("y_matrix", 30)):
        matrix = rng.standard_normal((600, 3)) @ rng.standard_normal((3, cols))
        matrix += rng.standard_normal((600, cols))
        paths[name] = str(tmp_path / f"{name}.mat")
        write_matrix(paths[name], matrix)
    assert (_desk_digests("exp5_semi_synthetic", **paths)
            == _PINNED_EXP5_DIGESTS)


def test_exp2_phase_diagram_digests_are_pinned():
    # the theta-by-rho grid, its rho axis solving both mask rates
    assert (_desk_digests("exp2_phase_diagram")
            == _PINNED_EXP2_DIGESTS)


def test_exp3_finite_size_digests_are_pinned():
    # three sample counts, each at its own derived seed
    assert (_desk_digests("exp3_finite_size", theta_points=3)
            == _PINNED_EXP3_DIGESTS)


def test_exp4_missingness_modes_digests_are_pinned():
    # single-view and joint mask axes crossed with theta
    assert (_desk_digests("exp4_missingness_modes")
            == _PINNED_EXP4_DIGESTS)


def test_exp6_split_half_digests_are_pinned():
    # split-half stability on both views' halves
    assert (_desk_digests("exp6_split_half")
            == _PINNED_EXP6_DIGESTS)


def test_b1_noise_digests_are_pinned():
    # every noise family's draw, checked bit for bit
    assert _desk_digests("b1_noise") == _PINNED_B1_DIGESTS


def test_pinned_digests_do_not_depend_on_the_blas_thread_count(blas_count):
    # exp4 single_view's digest is one that OpenBLAS at 2 threads moves
    assert (_desk_digests("exp4_missingness_modes")
            == _PINNED_EXP4_DIGESTS)
    assert blas.num_threads() == blas_count


def test_default_desk_exp1_run_prints_its_digest_at_any_blas_count(
        blas_count, capsys):
    # full desk scale, four workers on OpenBLAS's four threads
    _skip_off_the_pinned_build()
    assert cli.main(["run", "--preset", "exp1_transition"]) == cli.EXIT_OK
    assert "digest=e2696fade3db9e8bebf9d62ae7fd3dd1" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# check clauses on synthetic results


def test_check_exp1_clauses():
    sub = _point(axis1=0.5, theta=0.25, theta_crit=0.5,
                 mean_r2x=0.01, mean_r2y=0.01, theory_r2x=0.0, theory_r2y=0.0)
    sup = _point(axis1=2.0, theta=1.0, theta_crit=0.5,
                 mean_r2x=0.62, mean_r2y=0.82, theory_r2x=0.625,
                 theory_r2y=0.833)
    good_points = [sub] * 2 + [sup] * 5
    clauses = evaluate_check("exp1_transition",
                             {"transition": _fake_result(good_points, 0.995)})
    assert [ok for _, ok, _ in clauses] == [True, True, True]
    assert clauses[0][2] == "worst deviation 0.0130 over 5 points"

    # too few points on either side of the threshold fail the clauses
    clauses = evaluate_check("exp1_transition",
                             {"transition": _fake_result([sub, sup], 0.995)})
    assert [ok for _, ok, _ in clauses] == [False, False, True]

    bad_points = [
        _point(axis1=2.0, theta=1.0, theta_crit=0.5,
               mean_r2x=0.50, mean_r2y=0.82, theory_r2x=0.625,
               theory_r2y=0.833),
    ]
    clauses = evaluate_check("exp1_transition",
                             {"transition": _fake_result(bad_points, 0.98)})
    oks = [ok for _, ok, _ in clauses]
    assert oks[0] is False  # supercritical deviation 0.125
    assert oks[2] is False  # correlation below 0.99


def test_check_exp3_requires_strict_decrease():
    def ramp(width):
        # linear rise over [1, 1+width] then flat: transition width is
        # proportional to the ramp span
        thetas = [1.0 + width * f for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
        return _fake_result([
            _point(axis1=t, theta=t, mean_r2x=(t - 1.0) / width)
            for t in thetas])

    good = {"n100": ramp(0.4), "n500": ramp(0.2), "n2000": ramp(0.1)}
    clauses = evaluate_check("exp3_finite_size", good)
    assert clauses[0][1] is True
    bad = {"n100": ramp(0.2), "n500": ramp(0.2), "n2000": ramp(0.1)}
    clauses = evaluate_check("exp3_finite_size", bad)
    assert clauses[0][1] is False


def test_check_exp4_boundary_ordering():
    def boundary_points(m, cross_at):
        pts = []
        for theta in (0.5, 1.0, 1.5, 2.0):
            level = 0.3 if theta >= cross_at else 0.0
            pts.append(_point(axis1=theta, axis2=m, theta=theta,
                              mean_r2x=level, dx=100))
        return pts

    single = boundary_points(0.3, 1.0) + boundary_points(0.5, 1.0)
    joint = boundary_points(0.3, 1.5) + boundary_points(0.5, 1.5)
    clauses = evaluate_check("exp4_missingness_modes", {
        "single_view": _fake_result(single), "joint": _fake_result(joint)})
    assert clauses[0][1] is True
    flipped = evaluate_check("exp4_missingness_modes", {
        "single_view": _fake_result(joint), "joint": _fake_result(single)})
    assert flipped[0][1] is False


def test_check_exp6_three_clauses():
    points = [
        _point(axis1=0.5, theta=0.25, theta_crit=0.5, mean_stability=0.1),
        _point(axis1=1.2, theta=0.6, theta_crit=0.5, mean_r2x=0.3,
               mean_stability=0.5),
        _point(axis1=2.5, theta=1.25, theta_crit=0.5, mean_stability=0.9),
    ]
    clauses = evaluate_check("exp6_split_half",
                             {"split_half": _fake_result(points)})
    assert [ok for _, ok, _ in clauses] == [True, True, True]


def test_check_b3_margins():
    def result_with(mean, std):
        return _fake_result([
            _point(axis1=1.5, mean_r2x=mean, std_r2x=std,
                   trials_effective=50)])

    results = {
        "pls_svd_zero": result_with(0.60, 0.05),
        "mean_impute": result_with(0.55, 0.05),
        "em_pls": result_with(0.58, 0.05),
        "iterative_svd": result_with(0.52, 0.05),
        "oracle": result_with(0.80, 0.05),
    }
    clauses = evaluate_check("b3_baselines", results)
    assert clauses[0][1] is True
    assert clauses[0][2] == "largest margin -2.00 SEs (em_pls)"
    assert clauses[1][1] is True

    results["mean_impute"] = result_with(0.75, 0.05)  # beats primary by 7+ SE
    clauses = evaluate_check("b3_baselines", results)
    assert clauses[0][1] is False
    assert clauses[0][2] == "largest margin 15.00 SEs (mean_impute)"


def test_check_generic_for_unknown_presets():
    ok = evaluate_check(None, {"anything": _fake_result([_point()])})
    assert ok[0][1] is True
    bad = evaluate_check("b2_mar", {
        "mcar": _fake_result([_point(valid=False)])})
    assert bad[0][1] is False
