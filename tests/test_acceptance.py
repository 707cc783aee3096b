"""Release gate: one end-to-end test per acceptance criterion.

Each test prints a single ``[PASS] criterion N: ...`` or ``[FAIL]``
line carrying the measured quantities next to their pinned bounds, then
asserts, so a run of this module reads as an eleven-line scoreboard.
Sweeps execute the shipped desk presets through the public API with
their default seeds.  Criteria 2-6, 9 and 10 take their verdicts and
measured values from ``presets.evaluate_check``, the clauses that
``maskedpls run --check`` prints; those tests add only runtime bounds
and facts about the desk layout.
"""

import dataclasses
import subprocess
import sys
import time

import numpy as np

from maskedpls import __version__, theory
from maskedpls.estimators import rescaled_cross_covariance, squared_overlaps
from maskedpls.harness import Axis, SweepSpec, run_sweep
from maskedpls.linalg import top_singular_pair, whiten
from maskedpls.matio import emit_results, ingest_matrix, load_results, write_matrix
from maskedpls.presets import evaluate_check, preset_config
from maskedpls.synth import (MaskSpec, ModelConfig, NoiseSpec, generate_pair,
                             planted_pair, sample_mask, sample_noise)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}", flush=True)
    return ok


def _run_preset(name: str) -> dict:
    cfg = preset_config(name, "desk")
    return {item.name: run_sweep(item.spec, threads=1,
                                 pair_factory=item.pair_factory)
            for item in cfg.items}


def _report_check(num: int, preset: str, results: dict, elapsed: float,
                  budget: float, *layout: tuple[str, bool, str]) -> bool:
    """Report the preset's own check clauses, which hold the single copy of
    each threshold, plus any desk-layout fact the verdict relies on and
    this test's runtime bound."""
    clauses = evaluate_check(preset, results) + list(layout)
    ok = all(good for _, good, _ in clauses) and elapsed < budget
    rows = [f"{name}: {detail} [{'ok' if good else 'missed'}]"
            for name, good, detail in clauses]
    return _report(num, ok, "; ".join(rows) + f"; {elapsed:.1f}s (< {budget:g}s)")


# ---------------------------------------------------------------------------
# criterion 1: closed-form threshold through the CLI


def test_criterion_01_threshold_cli():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "maskedpls.cli", "theory",
         "--alpha-x", "5", "--alpha-y", "20", "--rho", "0.42"],
        capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    values = {}
    for line in proc.stdout.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            values[key.strip()] = val.strip()
    crit = float(values.get("theta_crit", "nan"))
    ok = (proc.returncode == 0 and 0.483 <= crit <= 0.493 and elapsed < 10.0)
    assert _report(1, ok, f"theta_crit {crit:.6f} in [0.483, 0.493], "
                          f"{elapsed:.2f}s (< 10s)")


# ---------------------------------------------------------------------------
# criterion 2: transition sweep tracks the closed forms point by point


def test_criterion_02_transition_matches_theory():
    start = time.perf_counter()
    results = _run_preset("exp1_transition")
    elapsed = time.perf_counter() - start
    assert _report_check(2, "exp1_transition", results, elapsed, 120.0)


# ---------------------------------------------------------------------------
# criterion 3: phase-diagram grid correlation


def test_criterion_03_phase_diagram_correlation():
    start = time.perf_counter()
    results = _run_preset("exp2_phase_diagram")
    elapsed = time.perf_counter() - start
    assert _report_check(3, "exp2_phase_diagram", results, elapsed, 300.0)


# ---------------------------------------------------------------------------
# criterion 4: transition width shrinks as the sample count grows


def test_criterion_04_transition_sharpens_with_n():
    start = time.perf_counter()
    results = _run_preset("exp3_finite_size")
    elapsed = time.perf_counter() - start
    ns = sorted(int(name[1:]) for name in results)
    assert _report_check(4, "exp3_finite_size", results, elapsed, 180.0,
                         ("desk variants N = 100, 500, 2000",
                          ns == [100, 500, 2000], f"N = {ns}"))


# ---------------------------------------------------------------------------
# criterion 5: joint masking needs a stronger spike than single-view masking


def test_criterion_05_joint_masking_boundary_above_single():
    start = time.perf_counter()
    results = _run_preset("exp4_missingness_modes")
    elapsed = time.perf_counter() - start
    levels = {p.axis2 for p in results["single_view"].points
              if 0.2 - 1e-9 <= p.axis2 <= 0.7 + 1e-9}
    assert _report_check(5, "exp4_missingness_modes", results, elapsed, 300.0,
                         ("six desk mask levels in [0.2, 0.7]",
                          len(levels) == 6, f"{len(levels)} levels"))


# ---------------------------------------------------------------------------
# criterion 6: three split-half stability regimes


def test_criterion_06_split_half_regimes():
    start = time.perf_counter()
    results = _run_preset("exp6_split_half")
    elapsed = time.perf_counter() - start
    assert _report_check(6, "exp6_split_half", results, elapsed, 180.0)


# ---------------------------------------------------------------------------
# criterion 7: exhaustive grid maximization agrees with the closed forms


def test_criterion_07_grid_oracle_matches_closed_forms():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_dr = 0.0
    worst_res = 0.0
    for _ in range(20):
        alpha_x = float(rng.uniform(1.5, 12.0))
        alpha_y = float(rng.uniform(1.5, 12.0))
        rho = float(rng.uniform(0.3, 1.0))
        theta = theory.critical_threshold(alpha_x, alpha_y, rho) \
            * float(rng.uniform(1.2, 3.0))
        theta_eff = theory.effective_spike(theta, rho)
        r2x, r2y = theory.asymptotic_overlaps(alpha_x, alpha_y, rho, theta)
        r_u, r_v = float(np.sqrt(r2x)), float(np.sqrt(r2y))
        point = theory.maximize_objective_grid(alpha_x, alpha_y, theta_eff)
        worst_dr = max(worst_dr, abs(point.r_u - r_u), abs(point.r_v - r_v))
        res = theory.stationarity_residual(r_u, r_v, alpha_x, alpha_y, theta_eff)
        worst_res = max(worst_res, abs(res[0]), abs(res[1]))
    elapsed = time.perf_counter() - start
    ok = worst_dr <= 1e-3 and worst_res < 1e-8 and elapsed < 60.0
    assert _report(7, ok, f"20 draws: worst grid gap {worst_dr:.2e} "
                          f"(<= 1e-3), worst stationarity residual "
                          f"{worst_res:.2e} (< 1e-8), {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# criterion 8: mean alignment of the rescaled cross-covariance


def test_criterion_08_cross_covariance_mean_alignment():
    start = time.perf_counter()
    base = preset_config("exp1_transition", "desk").items[0].spec.base
    crit = theory.critical_threshold(base.alpha_x, base.alpha_y, base.rho)
    config = dataclasses.replace(base, theta=2.0 * crit)
    target = np.sqrt(config.rho) * config.theta
    values = []
    for seed in range(100):
        pair = generate_pair(dataclasses.replace(config, seed=seed))
        c = rescaled_cross_covariance(pair.x_obs, pair.y_obs, pair.rho)
        values.append(float(pair.u0 @ c @ pair.v0))
    elapsed = time.perf_counter() - start
    mean = float(np.mean(values))
    dev = abs(mean - target)
    ok = dev < 0.02 and elapsed < 60.0
    assert _report(8, ok, f"mean alignment {mean:.4f} vs sqrt(rho)*theta "
                          f"{target:.4f}, |diff| {dev:.4f} (< 0.02), "
                          f"{elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# criterion 9: estimator ordering at a supercritical operating point


def test_criterion_09_no_masked_estimator_beats_rescaled_zero_fill():
    # the check reads every estimator at 1.5 theta_crit, so only that
    # point of the b3_baselines grid is run
    start = time.perf_counter()
    results = {}
    for item in preset_config("b3_baselines", "desk").items:
        axis = dataclasses.replace(item.spec.axis, values=(1.5,))
        results[item.name] = run_sweep(dataclasses.replace(item.spec, axis=axis),
                                       threads=1)
    elapsed = time.perf_counter() - start
    assert _report_check(9, "b3_baselines", results, elapsed, 180.0)


# ---------------------------------------------------------------------------
# criterion 10: accuracy holds for non-Gaussian noise families


def test_criterion_10_non_gaussian_noise_accuracy():
    # the check reads the gaussian, laplace and student_t5 variants only
    start = time.perf_counter()
    results = {item.name: run_sweep(item.spec, threads=1)
               for item in preset_config("b1_noise", "desk").items
               if item.name in ("gaussian", "laplace", "student_t5")}
    elapsed = time.perf_counter() - start
    assert _report_check(10, "b1_noise", results, elapsed, 180.0)


# ---------------------------------------------------------------------------
# criterion 11: structural property suite


def _property_whitening(rng) -> bool:
    raw = rng.standard_normal((300, 40))
    w = whiten(raw)
    gram_dev = np.max(np.abs(w.T @ w - 300.0 * np.eye(40)))
    return bool(gram_dev < 1e-8)


def _property_svd_oracle(rng) -> bool:
    for rows, cols in ((2, 2), (3, 4), (5, 7), (8, 8), (12, 5), (12, 12)):
        m = rng.standard_normal((rows, cols))
        triple = top_singular_pair(m)
        u_svd, s_svd, vt_svd = np.linalg.svd(m)
        if abs(triple.value - s_svd[0]) > 1e-10 * s_svd[0]:
            return False
        if abs(abs(triple.left @ u_svd[:, 0]) - 1.0) > 1e-9:
            return False
        if abs(abs(triple.right @ vt_svd[0]) - 1.0) > 1e-9:
            return False
    return True


def _property_sign_flip(rng) -> bool:
    config = ModelConfig(n_samples=150, dx=24, dy=16, theta=1.3,
                         mask_x=MaskSpec("mcar", 0.2), mask_y=MaskSpec("mcar", 0.2),
                         noise=NoiseSpec("gaussian"), seed=17)
    u0 = rng.standard_normal(24)
    u0 /= np.linalg.norm(u0)
    v0 = rng.standard_normal(16)
    v0 /= np.linalg.norm(v0)
    design = generate_pair(config).x_latent
    plus = planted_pair(design, u0, v0, config)
    minus = planted_pair(design, -u0, -v0, config)
    if not (np.array_equal(plus.y_latent, minus.y_latent)
            and np.array_equal(plus.mask_x, minus.mask_x)
            and np.array_equal(plus.mask_y, minus.mask_y)):
        return False
    u_hat = rng.standard_normal(24)
    v_hat = rng.standard_normal(16)
    base = squared_overlaps(u_hat, v_hat, u0, v0)
    return (squared_overlaps(-u_hat, v_hat, u0, v0) == base
            and squared_overlaps(u_hat, -v_hat, u0, v0) == base)


def _property_parallel_digest() -> bool:
    spec = SweepSpec(
        base=ModelConfig(n_samples=200, dx=30, dy=20, theta=1.0,
                         mask_x=MaskSpec("mcar", 0.2),
                         mask_y=MaskSpec("mcar", 0.2),
                         noise=NoiseSpec("gaussian"), seed=5),
        axis=Axis("theta", (0.6, 1.2, 1.8)),
        trials=4,
        split_half=True)
    serial = run_sweep(spec, threads=1)
    threaded = run_sweep(spec, threads=3)
    return serial.digest == threaded.digest


def _property_mask_calibration(rng) -> bool:
    mcar = sample_mask(MaskSpec("mcar", 0.25), None, 1200, 60, seed=11)
    if abs((1.0 - mcar.mean()) - 0.25) >= 0.01:
        return False
    context = rng.standard_normal((1500, 80))
    mar = sample_mask(MaskSpec("magnitude_dependent", 0.35, strength=0.8),
                      context, 1500, 80, seed=11)
    return bool(abs((1.0 - mar.mean()) - 0.35) < 0.01)


def _excess_kurtosis(draws: np.ndarray) -> float:
    flat = draws.ravel()
    centered = flat - flat.mean()
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    return m4 / m2**2 - 3.0


def _property_noise_moments() -> bool:
    gauss = sample_noise(NoiseSpec("gaussian"), 500, 400, seed=23)
    if not (abs(gauss.mean()) < 0.01 and 0.98 < gauss.var() < 1.02):
        return False
    laplace = sample_noise(NoiseSpec("laplace"), 500, 400, seed=23)
    if not (0.97 < laplace.var() < 1.03 and 2.2 < _excess_kurtosis(laplace) < 3.8):
        return False
    student = sample_noise(NoiseSpec("student_t", df=5.0), 500, 400, seed=23)
    return _excess_kurtosis(student) > 3.0


def _property_round_trips(rng, tmp_path) -> bool:
    matrix = rng.standard_normal((7, 5)) * np.logspace(-8, 8, 5)
    for fmt, name in (("binary", "m.mat"), ("csv", "m.csv")):
        path = tmp_path / name
        write_matrix(path, matrix, fmt=fmt)
        if not np.array_equal(ingest_matrix(path), matrix):
            return False
    spec = SweepSpec(
        base=ModelConfig(n_samples=120, dx=20, dy=12, theta=1.2,
                         mask_x=MaskSpec("mcar", 0.1),
                         mask_y=MaskSpec("mcar", 0.1),
                         noise=NoiseSpec("gaussian"), seed=9),
        axis=Axis("theta", (0.8, 1.6)),
        trials=2)
    result = run_sweep(spec, threads=1)
    out = tmp_path / "result.json"
    emit_results(result, out, fmt="json", metadata={"preset": None})
    doc = load_results(out)
    return doc["digest"] == result.digest and len(doc["points"]) == 2


def test_criterion_11_property_suite(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    checks = {
        "whitening gram": _property_whitening(rng),
        "svd oracle": _property_svd_oracle(rng),
        "sign flip": _property_sign_flip(rng),
        "parallel digest": _property_parallel_digest(),
        "mask calibration": _property_mask_calibration(rng),
        "noise moments": _property_noise_moments(),
        "round trips": _property_round_trips(rng, tmp_path),
    }
    elapsed = time.perf_counter() - start
    failed = [name for name, good in checks.items() if not good]
    ok = not failed and elapsed < 120.0
    detail = (f"all {len(checks)} properties hold" if not failed
              else "failed: " + ", ".join(failed))
    assert _report(11, ok, f"{detail}, {elapsed:.1f}s (< 120s)")
