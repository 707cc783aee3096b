"""Tests for the sweep harness: axis resolution, aggregation, reproducibility."""

import dataclasses
import math

import numpy as np
import pytest

from maskedpls import blas, harness
from maskedpls.estimators import EstimatorKind
from maskedpls.harness import (
    Axis,
    PointSummary,
    SweepSpec,
    correlation_with_theory,
    empirical_boundary,
    grid_assignments,
    result_digest,
    run_sweep,
    run_trial,
    transition_width,
)
from maskedpls.presets import ConfigError, preset_config
from maskedpls.streams import derive_seed
from maskedpls.synth import MaskSpec, ModelConfig, generate_pair
from maskedpls.theory import critical_threshold


def _base(**overrides) -> ModelConfig:
    fields = dict(n_samples=240, dx=40, dy=24, theta=1.5,
                  mask_x=MaskSpec("mcar", 0.2), mask_y=MaskSpec("mcar", 0.2),
                  seed=0)
    fields.update(overrides)
    return ModelConfig(**fields)


def _point(**overrides) -> PointSummary:
    fields = dict(axis1=1.0, axis2=None, mean_r2x=0.5, std_r2x=0.05,
                  mean_r2y=0.6, std_r2y=0.05, mean_stability=float("nan"),
                  std_stability=float("nan"), theory_r2x=0.5, theory_r2y=0.6,
                  theta_crit=0.5, trials_requested=10, trials_effective=10,
                  seeds_digest="0" * 16, valid=True, theta=1.0, rho=1.0,
                  n_samples=240, dx=40, dy=24, mean_runtime=0.01, mean_iterations=1.0, errors=())
    fields.update(overrides)
    return PointSummary(**fields)


# ---------------------------------------------------------------------------
# spec and axis validation


def test_axis_validation():
    with pytest.raises(ValueError, match="unknown axis"):
        Axis("gamma", (0.1, 0.2))
    with pytest.raises(ValueError, match="at least one"):
        Axis("theta", ())
    with pytest.raises(ValueError, match="finite"):
        Axis("theta", (1.0, float("inf")))


def test_sweep_spec_rejects_duplicate_axes():
    with pytest.raises(ValueError, match="duplicate"):
        SweepSpec(base=_base(), axis=Axis("theta", (1.0,)),
                  axis2=Axis("theta", (2.0,)))


def test_sweep_spec_rejects_conflicting_theta_axes():
    with pytest.raises(ValueError, match="mutually exclusive"):
        SweepSpec(base=_base(), axis=Axis("theta", (1.0,)),
                  axis2=Axis("theta_over_crit", (1.5,)))


def test_sweep_spec_rejects_nonpositive_trials():
    with pytest.raises(ValueError, match="trials"):
        SweepSpec(base=_base(), axis=Axis("theta", (1.0,)), trials=0)


def test_grid_assignments_row_major():
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 2.0)),
                     axis2=Axis("m_joint", (0.1, 0.3, 0.5)), trials=1)
    grid = grid_assignments(spec)
    assert grid == [
        {"theta": 1.0, "m_joint": 0.1}, {"theta": 1.0, "m_joint": 0.3},
        {"theta": 1.0, "m_joint": 0.5}, {"theta": 2.0, "m_joint": 0.1},
        {"theta": 2.0, "m_joint": 0.3}, {"theta": 2.0, "m_joint": 0.5},
    ]


# ---------------------------------------------------------------------------
# axis resolution through sweep results


def _single_point_sweep(base, axis_name, value, trials=2):
    spec = SweepSpec(base=base, axis=Axis(axis_name, (value,)), trials=trials)
    return run_sweep(spec).points[0]


def test_theta_axis_sets_spike_strength():
    p = _single_point_sweep(_base(), "theta", 2.25)
    assert p.theta == 2.25


def test_theta_over_crit_resolves_against_point_masks():
    base = _base()
    p = _single_point_sweep(base, "theta_over_crit", 1.5)
    crit = critical_threshold(base.alpha_x, base.alpha_y, base.rho)
    assert p.theta == pytest.approx(1.5 * crit, rel=1e-12)
    assert p.theta_crit == pytest.approx(crit, rel=1e-12)


def test_mask_axes_set_per_view_rates():
    p = _single_point_sweep(_base(), "m_x", 0.45)
    assert p.rho == pytest.approx(0.55 * 0.8)
    p = _single_point_sweep(_base(), "m_joint", 0.45)
    assert p.rho == pytest.approx(0.55 * 0.55)


def test_rho_axis_back_solves_equal_rates():
    p = _single_point_sweep(_base(), "rho", 0.49)
    assert p.rho == pytest.approx(0.49, rel=1e-12)


def test_rho_axis_combined_with_relative_theta():
    # the critical point must be computed from the point's own masks
    base = _base()
    spec = SweepSpec(base=base, axis=Axis("rho", (0.36,)),
                     axis2=Axis("theta_over_crit", (2.0,)), trials=1)
    p = run_sweep(spec).points[0]
    crit = critical_threshold(base.alpha_x, base.alpha_y, 0.36)
    assert p.theta == pytest.approx(2.0 * crit, rel=1e-10)


def test_rho_axis_rejects_out_of_range():
    with pytest.raises(ValueError, match="rho"):
        _single_point_sweep(_base(), "rho", 1.5)


def test_n_samples_axis_scales_dimensions():
    p = _single_point_sweep(_base(), "n_samples", 480)
    assert p.n_samples == 480
    assert p.dx == 80
    assert p.dy == 48


# ---------------------------------------------------------------------------
# trials and aggregation


def test_single_trial_sweep_matches_run_trial():
    base = _base()
    spec = SweepSpec(base=base, axis=Axis("theta", (1.5,)), trials=1)
    result = run_sweep(spec)
    point_seed = derive_seed(base.seed, "point", 0)
    direct = run_trial(dataclasses.replace(base, seed=point_seed),
                       EstimatorKind(), False, 0)
    p = result.points[0]
    assert p.mean_r2x == direct.r2_x
    assert p.mean_r2y == direct.r2_y
    assert p.std_r2x == 0.0
    assert p.trials_effective == 1


def test_aggregation_matches_reference_loop():
    base = _base()
    spec = SweepSpec(base=base, axis=Axis("theta", (1.2, 1.8)), trials=5)
    result = run_sweep(spec)
    for i, p in enumerate(result.points):
        point_seed = derive_seed(base.seed, "point", i)
        cfg = dataclasses.replace(base, theta=spec.axis.values[i],
                                  seed=point_seed)
        vals = [run_trial(cfg, EstimatorKind(), False, t).r2_x
                for t in range(5)]
        assert p.mean_r2x == pytest.approx(np.mean(vals), abs=1e-12)
        assert p.std_r2x == pytest.approx(np.std(vals, ddof=1), abs=1e-12)


def test_trial_seeds_unique_across_grid():
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 1.5, 2.0)),
                     trials=4)
    result = run_sweep(spec)
    digests = {p.seeds_digest for p in result.points}
    assert len(digests) == 3  # each point hashes a distinct seed list


def test_serial_and_threaded_sweeps_agree():
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 1.6)), trials=4,
                     split_half=True)
    serial = run_sweep(spec, threads=1)
    threaded = run_sweep(spec, threads=4)
    assert serial.digest == threaded.digest
    for a, b in zip(serial.points, threaded.points):
        assert a.mean_r2x == b.mean_r2x
        assert a.mean_stability == b.mean_stability


@pytest.fixture
def blas_count():
    """OpenBLAS's thread count, set to 4 for the test, so that a two-thread
    sweep's share, 2, differs from both 1 and the count itself."""
    before = blas.num_threads()
    if before is None:
        pytest.skip("numpy bundles no OpenBLAS")
    blas.set_num_threads(4)
    yield 4
    blas.set_num_threads(before)


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_runs_on_its_share_of_blas_threads(blas_count, threads):
    seen = []

    def recording_factory(config):
        seen.append(blas.num_threads())
        return generate_pair(config)

    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 1.6)), trials=3)
    result = run_sweep(spec, threads=threads, pair_factory=recording_factory)
    share = max(1, blas_count // threads)
    assert seen == [share] * 6
    assert result.blas_threads == share
    assert blas.num_threads() == blas_count


def test_sweep_restores_blas_threads_when_it_raises(blas_count, monkeypatch):
    def failing_summary(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    # run_trial tags a trial's exception instead of raising it
    monkeypatch.setattr(harness, "_summarize_point", failing_summary)
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.5,)), trials=2)
    with pytest.raises(RuntimeError, match="synthetic failure"):
        run_sweep(spec, threads=2)
    assert blas.num_threads() == blas_count


def test_sweep_without_openblas_runs_unchanged(monkeypatch):
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 1.6)), trials=3)
    with_blas = run_sweep(spec, threads=2)
    monkeypatch.setattr(blas, "_library", lambda: None)
    without = run_sweep(spec, threads=2)
    assert without.blas_threads is None
    assert without.digest == with_blas.digest


def test_stability_only_computed_when_requested():
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.5,)), trials=2)
    p = run_sweep(spec).points[0]
    assert math.isnan(p.mean_stability)
    spec_diag = SweepSpec(base=_base(), axis=Axis("theta", (1.5,)), trials=2,
                          split_half=True)
    p_diag = run_sweep(spec_diag).points[0]
    assert 0.0 <= p_diag.mean_stability <= 1.0


def test_mean_iterations_averages_successful_trials():
    calls = {"n": 0}

    def flaky_factory(config):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("synthetic failure")
        from maskedpls.synth import generate_pair
        return generate_pair(config)

    base = _base()
    kind = EstimatorKind("em_pls")
    spec = SweepSpec(base=base, axis=Axis("theta", (1.5,)), trials=3,
                     estimator=kind)
    p = run_sweep(spec, pair_factory=flaky_factory).points[0]
    cfg = dataclasses.replace(base, seed=derive_seed(base.seed, "point", 0))
    direct = [run_trial(cfg, kind, False, t).iterations for t in (0, 2)]
    assert min(direct) > 1
    assert p.trials_effective == 2
    assert p.mean_iterations == np.mean(direct)
    # telemetry stays outside the digest
    assert result_digest([p]) == result_digest(
        [dataclasses.replace(p, mean_iterations=0.0)])


def test_failing_trials_are_tagged_not_raised():
    calls = {"n": 0}

    def flaky_factory(config):
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            raise RuntimeError("synthetic failure")
        from maskedpls.synth import generate_pair
        return generate_pair(config)

    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.5,)), trials=4)
    result = run_sweep(spec, pair_factory=flaky_factory)
    p = result.points[0]
    assert p.trials_requested == 4
    assert p.trials_effective == 2
    assert p.valid  # exactly half still succeed
    assert any("synthetic failure" in e for e in p.errors)
    assert np.isfinite(p.mean_r2x)


def test_point_with_mostly_failed_trials_marked_invalid():
    def broken_factory(config):
        raise RuntimeError("always down")

    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.5,)), trials=3)
    result = run_sweep(spec, pair_factory=broken_factory)
    p = result.points[0]
    assert p.trials_effective == 0
    assert not p.valid
    assert math.isnan(p.mean_r2x)
    assert math.isnan(result.correlation)


def test_run_trial_reports_seed_derivation():
    base = _base()
    trial = run_trial(base, EstimatorKind(), False, 7)
    assert trial.seed == derive_seed(base.seed, "trial", 7)
    assert trial.error is None


# ---------------------------------------------------------------------------
# correlation with theory


def test_correlation_exact_match_is_one():
    pts = [_point(axis1=i, mean_r2x=v, theory_r2x=v)
           for i, v in enumerate((0.1, 0.4, 0.7, 0.9))]
    assert correlation_with_theory(pts) == pytest.approx(1.0)


def test_correlation_affine_match_is_one():
    theory = np.array([0.1, 0.4, 0.7, 0.9])
    pts = [_point(axis1=i, mean_r2x=0.8 * v + 0.05, theory_r2x=v)
           for i, v in enumerate(theory)]
    assert correlation_with_theory(pts) == pytest.approx(1.0)


def test_correlation_requires_three_finite_points():
    pts = [_point(mean_r2x=0.2), _point(mean_r2x=float("nan")),
           _point(mean_r2x=0.4, valid=False)]
    with pytest.raises(ValueError, match="3 finite"):
        correlation_with_theory(pts)


def test_correlation_rejects_constant_series():
    pts = [_point(axis1=i, mean_r2x=0.5, theory_r2x=0.0) for i in range(4)]
    with pytest.raises(ValueError, match="constant"):
        correlation_with_theory(pts)


def test_sweep_result_stores_nan_correlation_when_undefined():
    # a single point cannot define a correlation; the result carries NaN
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.5,)), trials=2)
    result = run_sweep(spec)
    assert math.isnan(result.correlation)


# ---------------------------------------------------------------------------
# digests


def test_result_digest_ignores_runtime():
    pts_fast = [_point(mean_runtime=0.01)]
    pts_slow = [_point(mean_runtime=9.99)]
    assert result_digest(pts_fast) == result_digest(pts_slow)


def test_result_digest_sensitive_to_values():
    assert result_digest([_point(mean_r2x=0.5)]) != result_digest(
        [_point(mean_r2x=0.5000001)])


# ---------------------------------------------------------------------------
# boundary and width extraction


def test_empirical_boundary_interpolates():
    pts = [
        _point(axis1=0.5, theta=0.5, mean_r2x=0.0),
        _point(axis1=1.0, theta=1.0, mean_r2x=0.01),
        _point(axis1=1.5, theta=1.5, mean_r2x=0.21),
    ]
    # threshold 0.11 sits halfway between the last two grid points
    assert empirical_boundary(pts, threshold=0.11) == pytest.approx(1.25)


def test_empirical_boundary_default_noise_floor():
    pts = [
        _point(axis1=0.5, theta=0.5, mean_r2x=0.001, dx=100),
        _point(axis1=1.0, theta=1.0, mean_r2x=0.002, dx=100),
        _point(axis1=1.5, theta=1.5, mean_r2x=0.058, dx=100),
    ]
    # default threshold is 3 / dx = 0.03, crossed between theta 1.0 and 1.5
    expected = 1.0 + 0.5 * (0.03 - 0.002) / (0.058 - 0.002)
    assert empirical_boundary(pts) == pytest.approx(expected)


def test_empirical_boundary_nan_when_never_crossed():
    pts = [_point(axis1=t, theta=t, mean_r2x=0.001) for t in (0.5, 1.0)]
    assert math.isnan(empirical_boundary(pts, threshold=0.5))


def test_empirical_boundary_skips_invalid_points():
    pts = [
        _point(axis1=0.5, theta=0.5, mean_r2x=0.9, valid=False),
        _point(axis1=1.0, theta=1.0, mean_r2x=0.0),
        _point(axis1=1.5, theta=1.5, mean_r2x=0.4),
    ]
    assert empirical_boundary(pts, threshold=0.2) == pytest.approx(1.25)


def test_transition_width_simple_ramp():
    # linear ramp from 0 to 1 over theta in [1, 2]: quantile crossings
    # of the peak sit at exactly the quantile positions
    thetas = np.linspace(1.0, 2.0, 11)
    pts = [_point(axis1=t, theta=t, mean_r2x=(t - 1.0)) for t in thetas]
    assert transition_width(pts) == pytest.approx(0.5, abs=1e-12)
    assert transition_width(pts, quantiles=(0.1, 0.9)) == pytest.approx(0.8)


def test_transition_width_edge_cases():
    assert math.isnan(transition_width([_point()]))
    flat = [_point(axis1=t, theta=t, mean_r2x=0.0) for t in (1.0, 2.0)]
    assert math.isnan(transition_width(flat))
    with pytest.raises(ValueError, match="quantiles"):
        transition_width([_point(), _point(axis1=2.0)], quantiles=(0.75, 0.25))


def test_finite_size_study_validation():
    # the exp3_finite_size preset needs at least three window points to
    # measure a transition width
    with pytest.raises(ConfigError, match="at least 3"):
        preset_config("exp3_finite_size", "desk", {"theta_points": 2})


def test_finite_size_study_small_run():
    resolved = preset_config("exp3_finite_size", "desk",
                             {"trials": 2, "theta_points": 3, "seed": 1})
    assert [item.name for item in resolved.items] == ["n100", "n500", "n2000"]
    for item in resolved.items:
        n = item.spec.base.n_samples
        assert item.spec.base.seed == derive_seed(1, "finite-size", n)
        assert item.spec.trials == 2 and len(item.spec.axis.values) == 3
    # the two smaller sizes keep the run short; N=2000 sweeps the same way
    for item in resolved.items[:2]:
        sweep = run_sweep(item.spec, threads=2)
        assert sweep.digest == run_sweep(item.spec, threads=1).digest
        assert len(sweep.points) == 3
        assert all(p.n_samples == item.spec.base.n_samples for p in sweep.points)
        assert np.isfinite(transition_width(sweep.points))
