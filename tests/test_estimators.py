"""Tests for the masked-data estimators and split-half diagnostic."""

import dataclasses
import threading

import numpy as np
import pytest

from maskedpls import blas, estimators
from maskedpls.estimators import (
    ESTIMATOR_NAMES,
    EstimateResult,
    EstimatorKind,
    _column_mean_impute,
    _em_pls,
    _hard_impute,
    estimate,
    rescaled_cross_covariance,
    split_half_stability,
    squared_overlaps,
)
from maskedpls.linalg import top_singular_pair
from maskedpls.streams import substream
from maskedpls.synth import MaskedPair, MaskSpec, ModelConfig, generate_pair
from maskedpls.theory import asymptotic_overlaps, critical_threshold


def _manual_pair(x_obs, y_obs, mask_x, mask_y, rho, u0=None,
                 v0=None) -> MaskedPair:
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
    )


# ---------------------------------------------------------------------------
# rescaled cross-covariance


def test_cross_covariance_hand_example():
    # fully observed 2x2 identity design with diagonal response:
    # X^T Y / (N sqrt(rho)) = diag(2, 4) / 2 = diag(1, 2)
    pair = _manual_pair(np.eye(2), np.diag([2.0, 4.0]),
                        np.ones((2, 2)), np.ones((2, 2)), rho=1.0)
    c = rescaled_cross_covariance(pair.x_obs, pair.y_obs, pair.rho)
    np.testing.assert_allclose(c, np.diag([1.0, 2.0]), atol=1e-15)


def test_cross_covariance_retention_rescaling():
    pair_full = _manual_pair(np.eye(2), np.diag([2.0, 4.0]),
                             np.ones((2, 2)), np.ones((2, 2)), rho=1.0)
    pair_kept = _manual_pair(np.eye(2), np.diag([2.0, 4.0]),
                             np.ones((2, 2)), np.ones((2, 2)), rho=0.25)
    np.testing.assert_allclose(
        rescaled_cross_covariance(pair_kept.x_obs, pair_kept.y_obs, pair_kept.rho),
        2.0 * rescaled_cross_covariance(pair_full.x_obs, pair_full.y_obs,
                                        pair_full.rho))


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
        rescaled_cross_covariance(pair.x_obs, pair.y_obs, pair.rho),
        x.T @ y / (4.0 * np.sqrt(0.42)))


def test_cross_covariance_rejects_zero_retention():
    mask = np.zeros((3, 2), dtype=bool)
    pair = _manual_pair(np.zeros((3, 2)), np.zeros((3, 2)), mask, mask, rho=0.0)
    with pytest.raises(ValueError, match="retention"):
        rescaled_cross_covariance(pair.x_obs, pair.y_obs, pair.rho)


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


def test_estimator_kind_holds_only_its_name():
    # the loop budget is a class constant, not a setting; the traced
    # benchmark reads it off the instance that estimate receives
    assert [f.name for f in dataclasses.fields(EstimatorKind)] == ["name"]
    assert EstimatorKind("em_pls").max_iter == 50
    assert EstimatorKind("iterative_svd").tol == 1e-6
    with pytest.raises(TypeError):
        EstimatorKind("em_pls", max_iter=10)


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
    res = estimate(generate_pair(cfg), EstimatorKind("em_pls"))
    assert isinstance(res, EstimateResult)
    assert res.u_hat.shape == (30,)
    assert res.v_hat.shape == (20,)
    assert 0.0 <= res.r2_x <= 1.0
    assert 0.0 <= res.r2_y <= 1.0
    assert 1 <= res.iterations <= EstimatorKind.max_iter


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
    res = estimate(generate_pair(cfg), EstimatorKind("em_pls"))
    assert res.iterations >= 2


def test_iterative_svd_reports_summed_iterations():
    cfg = ModelConfig(n_samples=300, dx=50, dy=30, theta=1.5,
                      mask_x=MaskSpec("mcar", 0.2),
                      mask_y=MaskSpec("mcar", 0.2), seed=9)
    res = estimate(generate_pair(cfg), EstimatorKind("iterative_svd"))
    # one budget per view
    assert 2 <= res.iterations <= 2 * EstimatorKind.max_iter


# ---------------------------------------------------------------------------
# iterative loops against their reference implementations


def _hard_impute_by_svd(obs, mask, max_iter, tol):
    """Reference rank-1 hard-impute: a full thin SVD of the completion per step."""
    completed = _column_mean_impute(obs, mask)
    missing = ~mask
    prev = completed[missing]
    iterations = max_iter
    for it in range(1, max_iter + 1):
        u, s, vt = np.linalg.svd(completed, full_matrices=False)
        recon = (u[:, :1] * s[:1]) @ vt[:1]
        completed = np.where(missing, recon, obs)
        cur = completed[missing]
        denom = np.linalg.norm(prev) + np.finfo(float).tiny
        if np.linalg.norm(cur - prev) <= tol * denom:
            iterations = it
            break
        prev = cur
    return completed, iterations


def _em_pls_by_where(pair, kind):
    """Reference EM-PLS: refits the whole response through np.where."""
    n = pair.n_samples
    x_imp = _column_mean_impute(pair.x_obs, pair.mask_x)
    y_imp = _column_mean_impute(pair.y_obs, pair.mask_y)
    y_missing = ~pair.mask_y
    sigma_prev = None
    for it in range(1, kind.max_iter + 1):
        triple = top_singular_pair(x_imp.T @ y_imp / n)
        sigma = triple.value
        if sigma_prev is not None and abs(sigma - sigma_prev) <= kind.tol * max(
                sigma_prev, np.finfo(float).tiny):
            return triple, it
        sigma_prev = sigma
        recon = sigma * np.outer(x_imp @ triple.left, triple.right)
        y_imp = np.where(y_missing, recon, y_imp)
    return triple, kind.max_iter


def _low_rank_masked(rows, cols, strengths, seed):
    rng = substream(seed, "hard-impute-test")
    left = np.linalg.qr(rng.standard_normal((rows, len(strengths))))[0]
    right = np.linalg.qr(rng.standard_normal((cols, len(strengths))))[0]
    full = (left * strengths) @ right.T + 0.1 * rng.standard_normal((rows, cols))
    mask = rng.random((rows, cols)) > 0.25
    return np.where(mask, full, 0.0), mask


@pytest.mark.parametrize("rows,cols", [(120, 30), (30, 80), (400, 150), (150, 400)])
def test_hard_impute_matches_truncated_svd(rows, cols):
    obs, mask = _low_rank_masked(rows, cols, (20.0,), seed=1 + rows)
    want, want_it = _hard_impute_by_svd(obs, mask, 200, 1e-8)
    got, got_it = _hard_impute(obs, mask, 200, 1e-8)
    assert 1 < got_it < 200
    assert got_it == want_it
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())
    np.testing.assert_array_equal(got[mask], obs[mask])


@pytest.mark.parametrize("mechanism", ["mcar", "magnitude_dependent"])
def test_column_mean_impute_is_the_masked_sum_formula(mechanism):
    # observed views hold zeros where they are missing, so the column sums
    # need no masked copy of the view
    def by_masked_copy(obs, mask):
        counts = mask.sum(axis=0)
        sums = np.where(mask, obs, 0.0).sum(axis=0)
        means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
        return np.where(mask, obs, means[None, :])

    cfg = ModelConfig(n_samples=700, dx=90, dy=60, theta=1.5,
                      mask_x=MaskSpec(mechanism, 0.3, 0.8),
                      mask_y=MaskSpec(mechanism, 0.6, 0.8), seed=17)
    pair = generate_pair(cfg)
    for obs, mask in ((pair.x_obs, pair.mask_x), (pair.y_obs, pair.mask_y)):
        want = by_masked_copy(obs, mask)
        assert _column_mean_impute(obs, mask).tobytes() == want.tobytes()
    # a column with no observed entry keeps zeros
    obs = np.array([[1.0, 0.0], [3.0, 0.0]])
    mask = np.array([[True, False], [True, False]])
    assert _column_mean_impute(obs, mask).tobytes() == by_masked_copy(obs, mask).tobytes()


@pytest.mark.parametrize("shape", [(40, 1), (1, 40)])
def test_hard_impute_full_rank_is_a_no_op(shape):
    obs, mask = _low_rank_masked(*shape, (5.0,), seed=3)
    got, got_it = _hard_impute(obs, mask, 50, 1e-6)
    want, want_it = _hard_impute_by_svd(obs, mask, 50, 1e-6)
    assert got_it == want_it == 1
    start = _column_mean_impute(obs, mask)
    np.testing.assert_allclose(got, start, rtol=0, atol=1e-10 * np.abs(start).max())


def test_hard_impute_fills_fortran_ordered_views():
    # the refill writes through a flat view, which must not be a copy
    obs, mask = _low_rank_masked(60, 20, (20.0,), seed=4)
    want, want_it = _hard_impute(obs, mask, 50, 1e-8)
    got, got_it = _hard_impute(np.asfortranarray(obs), np.asfortranarray(mask),
                               50, 1e-8)
    assert got_it == want_it > 1
    # column sums run in another order on Fortran-ordered input
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_em_pls_matches_whole_matrix_refit():
    cfg = ModelConfig(n_samples=300, dx=50, dy=40, theta=1.8,
                      mask_x=MaskSpec("mcar", 0.3),
                      mask_y=MaskSpec("mcar", 0.3), seed=5)
    pair = generate_pair(cfg)
    kind = EstimatorKind("em_pls")
    got, got_it = _em_pls(pair, kind)
    want, want_it = _em_pls_by_where(pair, kind)
    assert got_it == want_it > 1
    np.testing.assert_array_equal(got.left, want.left)
    np.testing.assert_array_equal(got.right, want.right)
    assert got.value == want.value


@pytest.fixture
def blas_restored():
    before = blas.num_threads()
    if before is None:
        pytest.skip("numpy bundles no OpenBLAS")
    yield
    blas.set_num_threads(before)


@pytest.mark.parametrize("threads", [1, 2])
def test_iterative_svd_matches_sequential_views(blas_restored, threads):
    # each view's loop must give what it gives alone, bit for bit, on the
    # calling thread
    blas.set_num_threads(threads)
    cfg = ModelConfig(n_samples=400, dx=150, dy=90, theta=1.5,
                      mask_x=MaskSpec("mcar", 0.3),
                      mask_y=MaskSpec("mcar", 0.3), seed=13)
    pair = generate_pair(cfg)
    kind = EstimatorKind("iterative_svd")
    x_comp, it_x = _hard_impute(pair.x_obs, pair.mask_x, kind.max_iter, kind.tol)
    y_comp, it_y = _hard_impute(pair.y_obs, pair.mask_y, kind.max_iter, kind.tol)
    want = top_singular_pair(x_comp.T @ y_comp / cfg.n_samples)
    before = threading.active_count()
    got = estimate(pair, kind)
    assert threading.active_count() == before
    assert blas.num_threads() == threads
    assert got.iterations == it_x + it_y
    np.testing.assert_array_equal(got.u_hat, want.left)
    np.testing.assert_array_equal(got.v_hat, want.right)


def test_iterative_svd_decomposes_no_data_matrix(monkeypatch):
    # both views wider than linalg.DENSE_FALLBACK_DIM, so the leading
    # cross pair comes from power iteration, not a dense SVD
    cfg = ModelConfig(n_samples=200, dx=40, dy=36, theta=1.5,
                      mask_x=MaskSpec("mcar", 0.2),
                      mask_y=MaskSpec("mcar", 0.2), seed=11)
    pair = generate_pair(cfg)

    def _no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(estimators.np.linalg, "svd", _no_svd)
    res = estimate(pair, EstimatorKind("iterative_svd"))
    assert res.iterations >= 2


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
