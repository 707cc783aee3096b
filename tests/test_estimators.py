"""Tests for the masked-data estimators and split-half diagnostic."""

import numpy as np
import pytest

from maskedpls.estimators import (
    ESTIMATOR_NAMES,
    EstimateResult,
    EstimatorKind,
    estimate,
    rescaled_cross_covariance,
    split_half_stability,
    squared_overlaps,
)
from maskedpls.synth import MaskedPair, MaskSpec, ModelConfig, generate_pair
from maskedpls.theory import asymptotic_overlaps, critical_threshold


def _manual_pair(x_obs, y_obs, mask_x, mask_y, rho, u0=None, v0=None,
                 latents=True) -> MaskedPair:
    x_obs = np.asarray(x_obs, dtype=np.float64)
    y_obs = np.asarray(y_obs, dtype=np.float64)
    if u0 is None:
        u0 = np.zeros(x_obs.shape[1])
        u0[0] = 1.0
    if v0 is None:
        v0 = np.zeros(y_obs.shape[1])
        v0[0] = 1.0
    return MaskedPair(
        x_obs=x_obs, y_obs=y_obs,
        mask_x=np.asarray(mask_x, dtype=bool),
        mask_y=np.asarray(mask_y, dtype=bool),
        u0=np.asarray(u0, dtype=np.float64),
        v0=np.asarray(v0, dtype=np.float64),
        rho=rho,
        x_latent=x_obs if latents else None,
        y_latent=y_obs if latents else None,
    )


# ---------------------------------------------------------------------------
# rescaled cross-covariance


def test_cross_covariance_hand_example():
    # fully observed 2x2 identity design with diagonal response:
    # X^T Y / (N sqrt(rho)) = diag(2, 4) / 2 = diag(1, 2)
    pair = _manual_pair(np.eye(2), np.diag([2.0, 4.0]),
                        np.ones((2, 2)), np.ones((2, 2)), rho=1.0)
    c = rescaled_cross_covariance(pair)
    np.testing.assert_allclose(c, np.diag([1.0, 2.0]), atol=1e-15)


def test_cross_covariance_retention_rescaling():
    pair_full = _manual_pair(np.eye(2), np.diag([2.0, 4.0]),
                             np.ones((2, 2)), np.ones((2, 2)), rho=1.0)
    pair_kept = _manual_pair(np.eye(2), np.diag([2.0, 4.0]),
                             np.ones((2, 2)), np.ones((2, 2)), rho=0.25)
    np.testing.assert_allclose(rescaled_cross_covariance(pair_kept),
                               2.0 * rescaled_cross_covariance(pair_full))


def test_cross_covariance_estimated_retention():
    mask_x = np.ones((4, 2), dtype=bool)
    mask_x[0, 0] = False  # density 7/8
    mask_y = np.ones((4, 3), dtype=bool)
    mask_y[:2, 0] = False  # density 10/12
    x = np.where(mask_x, 1.0, 0.0)
    y = np.where(mask_y, 2.0, 0.0)
    pair = _manual_pair(x, y, mask_x, mask_y, rho=0.42)
    # the configured retention is used, not the observed mask densities
    np.testing.assert_allclose(
        rescaled_cross_covariance(pair), x.T @ y / (4.0 * np.sqrt(0.42)))


def test_cross_covariance_rejects_zero_retention():
    mask = np.zeros((3, 2), dtype=bool)
    pair = _manual_pair(np.zeros((3, 2)), np.zeros((3, 2)), mask, mask, rho=0.0)
    with pytest.raises(ValueError, match="retention"):
        rescaled_cross_covariance(pair)


# ---------------------------------------------------------------------------
# squared overlaps


def test_squared_overlaps_values():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert squared_overlaps(e1, e1, e1, e1) == pytest.approx((1.0, 1.0))
    assert squared_overlaps(e1, e2, e1, e1) == pytest.approx((1.0, 0.0))
    r2x, r2y = squared_overlaps(diag, diag, e1, e2)
    assert r2x == pytest.approx(0.5)
    assert r2y == pytest.approx(0.5)


def test_squared_overlaps_sign_invariant():
    rng = np.random.default_rng(17)
    u = rng.standard_normal(6)
    v = rng.standard_normal(4)
    u0 = rng.standard_normal(6)
    v0 = rng.standard_normal(4)
    assert squared_overlaps(u, v, u0, v0) == squared_overlaps(-u, -v, u0, v0)
    assert squared_overlaps(u, v, u0, v0) == squared_overlaps(-u, v, u0, v0)


# ---------------------------------------------------------------------------
# estimator kinds


def test_estimator_kind_validation():
    with pytest.raises(ValueError, match="unknown estimator"):
        EstimatorKind("ridge")
    with pytest.raises(ValueError, match="rank"):
        EstimatorKind("iterative_svd", rank=0)
    with pytest.raises(ValueError, match="max_iter"):
        EstimatorKind("em_pls", max_iter=0)
    with pytest.raises(ValueError, match="tol"):
        EstimatorKind("em_pls", tol=0.0)


def test_all_estimators_agree_without_masking():
    cfg = ModelConfig(n_samples=400, dx=60, dy=30, theta=1.5, seed=3)
    pair = generate_pair(cfg)
    reference = estimate(pair, EstimatorKind("oracle"))
    for name in ESTIMATOR_NAMES:
        res = estimate(pair, EstimatorKind(name))
        np.testing.assert_array_equal(res.u_hat, reference.u_hat, err_msg=name)
        np.testing.assert_array_equal(res.v_hat, reference.v_hat, err_msg=name)
        assert res.r2_x == reference.r2_x
        assert res.iterations >= 1


def test_estimate_result_fields():
    cfg = ModelConfig(n_samples=200, dx=30, dy=20, theta=1.2,
                      mask_x=MaskSpec("mcar", 0.2),
                      mask_y=MaskSpec("mcar", 0.2), seed=1)
    res = estimate(generate_pair(cfg), EstimatorKind("em_pls", max_iter=40))
    assert isinstance(res, EstimateResult)
    assert res.u_hat.shape == (30,)
    assert res.v_hat.shape == (20,)
    assert 0.0 <= res.r2_x <= 1.0
    assert 0.0 <= res.r2_y <= 1.0
    assert 1 <= res.iterations <= 40


def test_null_signal_overlaps_at_noise_floor():
    # with no planted signal the overlap of any estimate with a fixed
    # direction concentrates at 1/D; 5/D is a generous ceiling
    for seed in (0, 1, 2):
        cfg = ModelConfig(n_samples=1000, dx=200, dy=150, theta=0.0,
                          mask_x=MaskSpec("mcar", 0.3),
                          mask_y=MaskSpec("mcar", 0.3), seed=seed)
        pair = generate_pair(cfg)
        res = estimate(pair, EstimatorKind("pls_svd_zero"))
        assert res.r2_x < 5.0 / 200.0
        assert res.r2_y < 5.0 / 150.0
        assert split_half_stability(pair, seed=seed) < 0.2


def test_supercritical_recovery_tracks_theory_unmasked():
    tc = critical_threshold(5.0, 20.0, 1.0)
    theta = 2.2 * tc
    cfg = ModelConfig(n_samples=1000, dx=200, dy=50, theta=theta, seed=3)
    res = estimate(generate_pair(cfg), EstimatorKind("pls_svd_zero"))
    r2x_th, r2y_th = asymptotic_overlaps(5.0, 20.0, 1.0, theta)
    assert abs(res.r2_x - r2x_th) < 0.08
    assert abs(res.r2_y - r2y_th) < 0.08


def test_masked_estimation_recovers_signal():
    tc = critical_threshold(5.0, 20.0, 0.49)
    cfg = ModelConfig(n_samples=1000, dx=200, dy=50, theta=2.0 * tc,
                      mask_x=MaskSpec("mcar", 0.3),
                      mask_y=MaskSpec("mcar", 0.3), seed=5)
    pair = generate_pair(cfg)
    for name in ESTIMATOR_NAMES:
        res = estimate(pair, EstimatorKind(name))
        assert res.r2_x > 0.3, name
        assert res.r2_y > 0.5, name


def test_oracle_requires_latents():
    pair = _manual_pair(np.eye(3), np.eye(3), np.ones((3, 3)),
                        np.ones((3, 3)), rho=1.0, latents=False)
    with pytest.raises(ValueError, match="latent"):
        estimate(pair, EstimatorKind("oracle"))


def test_all_missing_view_is_an_error():
    mask_y = np.zeros((6, 3), dtype=bool)
    pair = _manual_pair(np.eye(6), np.zeros((6, 3)), np.ones((6, 6)),
                        mask_y, rho=0.5)
    with pytest.raises(ValueError):
        estimate(pair, EstimatorKind("pls_svd_zero"))


def test_mean_impute_fills_observed_column_means():
    # one masked entry: the imputed matrix used by mean_impute replaces
    # it with the column's observed mean, changing the fit direction
    x = np.array([[2.0, 0.0], [2.0, 1.0], [0.0, -1.0], [2.0, 0.0]])
    mask_x = np.ones((4, 2), dtype=bool)
    mask_x[2, 0] = False
    y = x.copy()
    pair = _manual_pair(np.where(mask_x, x, 0.0), y, mask_x,
                        np.ones((4, 2)), rho=1.0)
    res_zero = estimate(pair, EstimatorKind("pls_svd_zero"))
    res_mean = estimate(pair, EstimatorKind("mean_impute"))
    assert not np.array_equal(res_zero.u_hat, res_mean.u_hat)


def test_em_pls_iterates_beyond_first_step_under_masking():
    cfg = ModelConfig(n_samples=500, dx=80, dy=40, theta=1.8,
                      mask_x=MaskSpec("mcar", 0.3),
                      mask_y=MaskSpec("mcar", 0.3), seed=7)
    res = estimate(generate_pair(cfg), EstimatorKind("em_pls", max_iter=60))
    assert res.iterations >= 2


def test_iterative_svd_reports_summed_iterations():
    cfg = ModelConfig(n_samples=300, dx=50, dy=30, theta=1.5,
                      mask_x=MaskSpec("mcar", 0.2),
                      mask_y=MaskSpec("mcar", 0.2), seed=9)
    res = estimate(generate_pair(cfg), EstimatorKind("iterative_svd",
                                                     max_iter=30))
    assert 2 <= res.iterations <= 60


# ---------------------------------------------------------------------------
# split-half stability


def test_split_half_deterministic_and_bounded():
    cfg = ModelConfig(n_samples=600, dx=80, dy=40, theta=1.5,
                      mask_x=MaskSpec("mcar", 0.2),
                      mask_y=MaskSpec("mcar", 0.2), seed=13)
    pair = generate_pair(cfg)
    s1 = split_half_stability(pair, seed=2)
    s2 = split_half_stability(pair, seed=2)
    assert s1 == s2
    assert 0.0 <= s1 <= 1.0
    s3 = split_half_stability(pair, seed=3)
    assert 0.0 <= s3 <= 1.0


def test_split_half_high_for_strong_signal():
    cfg = ModelConfig(n_samples=2000, dx=100, dy=50, theta=3.0, seed=13)
    pair = generate_pair(cfg)
    assert split_half_stability(pair, seed=0) > 0.8


def test_split_half_rejects_tiny_sample():
    pair = _manual_pair(np.eye(3), np.eye(3), np.ones((3, 3)),
                        np.ones((3, 3)), rho=1.0)
    with pytest.raises(ValueError, match="at least 4"):
        split_half_stability(pair, seed=0)
