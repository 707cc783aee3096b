"""Closed-form predictions for two-view spectral recovery under masking.

The model: a whitened N x D_x design, a rank-1 cross-view signal of
strength theta planted in a D_y-column response with unit Gaussian
noise, and independent entrywise observation masks on both views with
joint retention probability rho.  The rescaled cross-covariance then
behaves like a spiked rectangular random matrix whose effective spike
is sqrt(rho) * theta, which yields a sharp recovery threshold and
explicit limiting overlaps for the leading singular pair.

A two-parameter variational objective whose interior maximizer
reproduces those overlaps is included as an independent numerical
oracle (exhaustive grid maximization, no calculus shared with the
closed forms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TheoryPrediction:
    """Threshold, effective spike and limiting overlaps at one parameter point."""

    theta_crit: float
    theta_eff: float
    r2_x: float
    r2_y: float
    supercritical: bool


def _check_aspects(alpha_x: float, alpha_y: float):
    # negated comparisons, so that NaN also fails
    if not (0 < alpha_x < np.inf and 0 < alpha_y < np.inf):
        raise ValueError(
            f"aspect ratios must be positive and finite, got {alpha_x}, {alpha_y}")


def _check_spike(theta: float, name: str = "theta"):
    if not 0 <= theta < np.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {theta}")


def _check_rho(rho: float):
    if not 0 < rho <= 1:
        raise ValueError(f"retention rho must be in (0, 1], got {rho}")


def critical_threshold(alpha_x: float, alpha_y: float, rho: float) -> float:
    """Smallest signal strength with informative leading singular vectors."""
    _check_aspects(alpha_x, alpha_y)
    _check_rho(rho)
    return float(1.0 / ((alpha_x * alpha_y) ** 0.25 * np.sqrt(rho)))


def effective_spike(theta: float, rho: float) -> float:
    """Signal strength after masking attenuation, sqrt(rho) * theta."""
    _check_spike(theta)
    _check_rho(rho)
    return float(np.sqrt(rho) * theta)


def is_supercritical(alpha_x: float, alpha_y: float, rho: float, theta: float) -> bool:
    """True when the planted signal survives in the large-N limit.

    Strict comparison against the critical strength: equality counts as
    subcritical.
    """
    return predict(alpha_x, alpha_y, rho, theta).supercritical


def asymptotic_overlaps(alpha_x: float, alpha_y: float, rho: float,
                        theta: float) -> tuple[float, float]:
    """Limiting squared overlaps (r2_x, r2_y) of the leading singular pair.

    Exactly (0.0, 0.0) at and below the critical signal strength.
    """
    pred = predict(alpha_x, alpha_y, rho, theta)
    return pred.r2_x, pred.r2_y


def predict(alpha_x: float, alpha_y: float, rho: float, theta: float) -> TheoryPrediction:
    """Bundle threshold, effective spike, overlaps and phase at one point,
    checking the aspect ratios, then rho, then theta."""
    theta_crit = critical_threshold(alpha_x, alpha_y, rho)
    theta_eff = effective_spike(theta, rho)
    supercritical = theta > theta_crit
    r2_x = r2_y = 0.0
    if supercritical:
        try:
            t = alpha_x * alpha_y * rho**2 * theta**4
            gx = alpha_x * rho * theta**2
            gy = alpha_y * rho * theta**2
            ratios = ((t - 1.0) / (gy * (gx + 1.0)),
                      (t - 1.0) / (gx * (gy + 1.0)))
        except OverflowError:  # theta**2 or theta**4 past float64's range
            ratios = (np.nan, np.nan)
        # clamp away sub-1e-12 floating-point excursions outside [0, 1]; a
        # NaN is inf / inf past float64's range, where the overlaps have
        # reached their limit 1
        r2_x, r2_y = (1.0 if np.isnan(r) else float(min(max(r, 0.0), 1.0))
                      for r in ratios)
    return TheoryPrediction(theta_crit=theta_crit, theta_eff=theta_eff,
                            r2_x=r2_x, r2_y=r2_y, supercritical=supercritical)


def _check_unit_interval(r: float, name: str):
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {r}")


def variational_objective(r_u: float, r_v: float, alpha_x: float, alpha_y: float,
                          theta_eff: float) -> float:
    """Zero-temperature objective whose maximizer gives the limiting overlaps."""
    _check_aspects(alpha_x, alpha_y)
    _check_unit_interval(r_u, "r_u")
    _check_unit_interval(r_v, "r_v")
    _check_spike(theta_eff, "theta_eff")
    return float(
        np.sqrt(1.0 - r_u**2) / np.sqrt(alpha_x)
        + np.sqrt(1.0 - r_v**2) / np.sqrt(alpha_y)
        + theta_eff * r_u * r_v
    )


def stationarity_residual(r_u: float, r_v: float, alpha_x: float, alpha_y: float,
                          theta_eff: float) -> tuple[float, float]:
    """First-order conditions of the variational objective at (r_u, r_v).

    Both residuals vanish at an interior stationary point.  The boundary
    |r| = 1 is outside the differentiable domain and raises.
    """
    _check_aspects(alpha_x, alpha_y)
    _check_unit_interval(r_u, "r_u")
    _check_unit_interval(r_v, "r_v")
    _check_spike(theta_eff, "theta_eff")
    if r_u == 1.0 or r_v == 1.0:
        raise ValueError("stationarity residual is undefined at r = 1")
    res_u = theta_eff * r_v - r_u / (np.sqrt(alpha_x) * np.sqrt(1.0 - r_u**2))
    res_v = theta_eff * r_u - r_v / (np.sqrt(alpha_y) * np.sqrt(1.0 - r_v**2))
    return float(res_u), float(res_v)


def optimal_susceptibilities(r_u: float, r_v: float, alpha_x: float,
                             alpha_y: float) -> tuple[float, float]:
    """Optimal rescaled-deviation parameters sqrt((1 - r^2) / alpha)."""
    _check_aspects(alpha_x, alpha_y)
    _check_unit_interval(r_u, "r_u")
    _check_unit_interval(r_v, "r_v")
    chi_u = np.sqrt((1.0 - r_u**2) / alpha_x)
    chi_v = np.sqrt((1.0 - r_v**2) / alpha_y)
    return float(chi_u), float(chi_v)


@dataclass(frozen=True)
class VariationalPoint:
    """A point of the variational objective with its susceptibilities."""

    r_u: float
    r_v: float
    chi_u: float
    chi_v: float
    psi: float


def maximize_objective_grid(alpha_x: float, alpha_y: float, theta_eff: float,
                            grid_points: int = 2001) -> VariationalPoint:
    """Exhaustive grid maximization of the variational objective.

    Independent numerical oracle for asymptotic_overlaps: returns the
    grid argmax (r_u, r_v), its susceptibilities, and the objective
    value there.  Resolution is 1 / (grid_points - 1) per coordinate.
    """
    _check_aspects(alpha_x, alpha_y)
    _check_spike(theta_eff, "theta_eff")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    r = np.linspace(0.0, 1.0, grid_points)
    comp = np.sqrt(np.clip(1.0 - r**2, 0.0, None))
    psi = (comp[:, None] / np.sqrt(alpha_x)
           + comp[None, :] / np.sqrt(alpha_y)
           + theta_eff * r[:, None] * r[None, :])
    flat = int(np.argmax(psi))
    iu, iv = np.unravel_index(flat, psi.shape)
    r_u, r_v = float(r[iu]), float(r[iv])
    chi_u, chi_v = optimal_susceptibilities(r_u, r_v, alpha_x, alpha_y)
    return VariationalPoint(r_u=r_u, r_v=r_v, chi_u=chi_u, chi_v=chi_v,
                            psi=float(psi[iu, iv]))
