"""Tests for the closed-form recovery predictions and their variational oracle."""

import numpy as np
import pytest

from maskedpls.theory import (
    TheoryPrediction,
    VariationalPoint,
    asymptotic_overlaps,
    critical_threshold,
    effective_spike,
    is_supercritical,
    maximize_objective_grid,
    optimal_susceptibilities,
    predict,
    stationarity_residual,
    variational_objective,
)

DESK_ALPHA_X = 5.0   # 1000 samples / 200 features
DESK_ALPHA_Y = 20.0  # 1000 samples / 50 features
DESK_RHO = 0.42      # (1 - 0.3) * (1 - 0.4)


# ---------------------------------------------------------------------------
# critical threshold and effective spike


def test_threshold_square_views_no_masking():
    assert critical_threshold(1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_threshold_masking_raises_it():
    # fourth root of (4 * 4) is 2; retention 0.25 contributes 1/sqrt(0.25) = 2
    assert critical_threshold(4.0, 4.0, 0.25) == pytest.approx(1.0, abs=1e-15)
    assert critical_threshold(4.0, 4.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_threshold_frozen_reference_point():
    got = critical_threshold(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO)
    assert got == pytest.approx(0.48795003647426666, abs=1e-15)


def test_threshold_monotone_decreasing_in_retention():
    rhos = np.linspace(0.05, 1.0, 40)
    vals = [critical_threshold(3.0, 7.0, r) for r in rhos]
    assert np.all(np.diff(vals) < 0)


def test_threshold_monotone_decreasing_in_aspect():
    alphas = np.linspace(0.5, 30.0, 40)
    vals = [critical_threshold(a, 4.0, 0.6) for a in alphas]
    assert np.all(np.diff(vals) < 0)


def test_threshold_rejects_bad_inputs():
    with pytest.raises(ValueError):
        critical_threshold(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        critical_threshold(1.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        critical_threshold(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        critical_threshold(1.0, 1.0, 1.2)


def test_effective_spike_values():
    assert effective_spike(2.0, 0.25) == pytest.approx(1.0, abs=1e-15)
    assert effective_spike(1.0, 0.42) == pytest.approx(0.648074069840786, abs=1e-15)
    assert effective_spike(1.7, 1.0) == pytest.approx(1.7, abs=1e-15)
    assert effective_spike(0.0, 0.5) == 0.0


def test_supercritical_classification():
    tc = critical_threshold(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO)
    assert is_supercritical(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO, 1.001 * tc)
    assert not is_supercritical(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO, 0.999 * tc)
    # exactly at threshold counts as subcritical (overlaps are zero there)
    assert not is_supercritical(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO, tc)


# ---------------------------------------------------------------------------
# asymptotic overlaps


def test_overlaps_zero_at_and_below_threshold():
    tc = critical_threshold(3.0, 6.0, 0.8)
    assert asymptotic_overlaps(3.0, 6.0, 0.8, 0.5 * tc) == (0.0, 0.0)
    assert asymptotic_overlaps(3.0, 6.0, 0.8, tc) == (0.0, 0.0)


def test_overlaps_symmetric_unmasked_point():
    r2x, r2y = asymptotic_overlaps(4.0, 4.0, 1.0, 1.0)
    assert r2x == pytest.approx(0.75, abs=1e-12)
    assert r2y == pytest.approx(0.75, abs=1e-12)


def test_overlaps_frozen_reference_point():
    tc = critical_threshold(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO)
    r2x, r2y = asymptotic_overlaps(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO, 2.0 * tc)
    assert r2x == pytest.approx(0.625, abs=1e-12)
    assert r2y == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_overlaps_continuous_at_threshold():
    tc = critical_threshold(2.0, 9.0, 0.5)
    for eps in (1e-3, 1e-4):
        r2x, r2y = asymptotic_overlaps(2.0, 9.0, 0.5, tc * (1.0 + eps))
        assert 0.0 < r2x < 0.05
        assert 0.0 < r2y < 0.05


def test_overlaps_monotone_in_signal_strength():
    tc = critical_threshold(5.0, 8.0, 0.6)
    thetas = np.linspace(1.01 * tc, 5.0 * tc, 30)
    r2x = [asymptotic_overlaps(5.0, 8.0, 0.6, t)[0] for t in thetas]
    r2y = [asymptotic_overlaps(5.0, 8.0, 0.6, t)[1] for t in thetas]
    assert np.all(np.diff(r2x) > 0)
    assert np.all(np.diff(r2y) > 0)


def test_overlaps_monotone_in_retention():
    theta = 1.5
    rhos = np.linspace(0.3, 1.0, 20)
    r2x = [asymptotic_overlaps(4.0, 4.0, r, theta)[0] for r in rhos]
    assert np.all(np.diff(r2x) > 0)


def test_overlaps_clamped_to_unit_interval():
    r2x, r2y = asymptotic_overlaps(50.0, 50.0, 1.0, 40.0)
    assert 0.0 <= r2x <= 1.0
    assert 0.0 <= r2y <= 1.0


def test_masking_equivalent_to_weaker_spike():
    # retention enters the overlaps only through the effective spike,
    # so (rho, theta) and (1, sqrt(rho) * theta) agree exactly
    for theta in (0.8, 1.2, 2.0):
        masked = asymptotic_overlaps(3.0, 12.0, 0.49, theta)
        reduced = asymptotic_overlaps(3.0, 12.0, 1.0, effective_spike(theta, 0.49))
        np.testing.assert_allclose(masked, reduced, rtol=1e-12)


def test_narrower_view_recovers_better():
    # with alpha_y > alpha_x the y-side direction is easier to estimate
    r2x, r2y = asymptotic_overlaps(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO, 1.5)
    assert r2y > r2x


def test_predict_bundles_fields():
    tc = critical_threshold(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO)
    pred = predict(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO, 2.0 * tc)
    assert isinstance(pred, TheoryPrediction)
    assert pred.theta_crit == pytest.approx(tc)
    assert pred.supercritical
    assert pred.r2_x == pytest.approx(0.625, abs=1e-12)
    assert pred.r2_y == pytest.approx(5.0 / 6.0, abs=1e-12)
    sub = predict(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO, 0.5 * tc)
    assert not sub.supercritical
    assert sub.r2_x == 0.0 and sub.r2_y == 0.0


def test_phase_boundary_grid():
    # the critical threshold as a function of the retention rho is the
    # phase boundary; it falls strictly as more entries are observed
    rhos = np.linspace(0.1, 1.0, 25)
    bound = np.array([critical_threshold(3.0, 5.0, r) for r in rhos])
    assert np.all(np.diff(bound) < 0)
    np.testing.assert_allclose(bound * np.sqrt(rhos), (3.0 * 5.0) ** -0.25,
                               rtol=1e-14)


def test_phase_boundary_mask_rate_parameterization():
    # equal per-view mask rate m gives retention (1 - m)^2
    m = 0.4
    direct = critical_threshold(4.0, 4.0, (1.0 - m) ** 2)
    assert direct == pytest.approx(0.5 / (1.0 - m), abs=1e-12)


# ---------------------------------------------------------------------------
# variational objective oracle


def test_objective_endpoint_values():
    # r = 0: pure entropy term; r = 1: pure coupling term
    assert variational_objective(0.0, 0.0, 2.0, 8.0, 1.3) == pytest.approx(
        1.0 / np.sqrt(2.0) + 1.0 / np.sqrt(8.0), abs=1e-12)
    assert variational_objective(1.0, 1.0, 2.0, 8.0, 1.3) == pytest.approx(
        1.3, abs=1e-12)


def test_objective_rejects_out_of_range():
    with pytest.raises(ValueError):
        variational_objective(1.2, 0.0, 2.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        variational_objective(0.0, -0.1, 2.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        variational_objective(0.0, 0.0, 2.0, 2.0, -1.0)


def test_stationarity_at_origin_subcritical():
    res = stationarity_residual(0.0, 0.0, 3.0, 3.0, 0.2)
    assert res == (0.0, 0.0)


def test_stationarity_vanishes_at_closed_form():
    cases = [
        (4.0, 4.0, 1.0, 1.0),
        (DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO,
         2.0 * critical_threshold(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO)),
        (2.0, 9.0, 0.5, 1.4),
    ]
    for alpha_x, alpha_y, rho, theta in cases:
        r2x, r2y = asymptotic_overlaps(alpha_x, alpha_y, rho, theta)
        assert r2x > 0
        res_u, res_v = stationarity_residual(
            np.sqrt(r2x), np.sqrt(r2y), alpha_x, alpha_y,
            effective_spike(theta, rho))
        assert abs(res_u) < 1e-8
        assert abs(res_v) < 1e-8


def test_stationarity_nonzero_off_optimum():
    r2x, r2y = asymptotic_overlaps(4.0, 4.0, 1.0, 1.0)
    res_u, res_v = stationarity_residual(
        np.sqrt(r2x) + 0.05, np.sqrt(r2y), 4.0, 4.0, 1.0)
    assert abs(res_u) > 1e-3


def test_stationarity_rejects_boundary():
    with pytest.raises(ValueError, match="r = 1"):
        stationarity_residual(1.0, 0.5, 2.0, 2.0, 1.0)


def test_susceptibilities_closed_form():
    chi_u, chi_v = optimal_susceptibilities(0.6, 0.8, 4.0, 4.0)
    assert chi_u == pytest.approx(0.4, abs=1e-12)
    assert chi_v == pytest.approx(0.3, abs=1e-12)


def test_susceptibility_minimizes_quadratic_profile():
    # chi* = sqrt((1 - r^2) / alpha) minimizes chi/2 + (1 - r^2)/(2 alpha chi)
    r, alpha = 0.55, 6.0
    chi_star = optimal_susceptibilities(r, r, alpha, alpha)[0]
    profile = lambda chi: chi / 2.0 + (1.0 - r**2) / (2.0 * alpha * chi)
    grid = np.linspace(0.01, 2.0, 4000)
    best = grid[np.argmin([profile(c) for c in grid])]
    assert abs(best - chi_star) < 1e-3
    assert profile(chi_star) <= profile(chi_star + 1e-4)
    assert profile(chi_star) <= profile(chi_star - 1e-4)


def test_grid_maximizer_matches_closed_form():
    tc = critical_threshold(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO)
    theta_eff = effective_spike(2.0 * tc, DESK_RHO)
    point = maximize_objective_grid(DESK_ALPHA_X, DESK_ALPHA_Y, theta_eff)
    assert isinstance(point, VariationalPoint)
    r2x, r2y = asymptotic_overlaps(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO, 2.0 * tc)
    assert abs(point.r_u - np.sqrt(r2x)) <= 1e-3
    assert abs(point.r_v - np.sqrt(r2y)) <= 1e-3
    expect_chi = optimal_susceptibilities(
        point.r_u, point.r_v, DESK_ALPHA_X, DESK_ALPHA_Y)
    assert (point.chi_u, point.chi_v) == expect_chi
    assert point.psi == pytest.approx(
        variational_objective(point.r_u, point.r_v, DESK_ALPHA_X, DESK_ALPHA_Y,
                              theta_eff), abs=1e-12)


def test_grid_maximizer_subcritical_sits_at_origin():
    tc = critical_threshold(DESK_ALPHA_X, DESK_ALPHA_Y, DESK_RHO)
    point = maximize_objective_grid(
        DESK_ALPHA_X, DESK_ALPHA_Y, effective_spike(0.8 * tc, DESK_RHO))
    assert point.r_u == 0.0
    assert point.r_v == 0.0


def test_grid_maximizer_random_supercritical_draws():
    # the full-resolution sweep of this check lives in the acceptance
    # suite; here a few fixed draws guard the same 1e-3 agreement
    rng = np.random.default_rng(2024)
    for _ in range(5):
        alpha_x = float(rng.uniform(1.5, 12.0))
        alpha_y = float(rng.uniform(1.5, 12.0))
        rho = float(rng.uniform(0.3, 1.0))
        tc = critical_threshold(alpha_x, alpha_y, rho)
        theta = float(rng.uniform(1.3, 3.0)) * tc
        point = maximize_objective_grid(alpha_x, alpha_y,
                                        effective_spike(theta, rho))
        r2x, r2y = asymptotic_overlaps(alpha_x, alpha_y, rho, theta)
        assert abs(point.r_u - np.sqrt(r2x)) <= 1e-3
        assert abs(point.r_v - np.sqrt(r2y)) <= 1e-3
