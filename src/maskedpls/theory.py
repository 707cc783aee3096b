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
    if not (alpha_x > 0 and alpha_y > 0):
        raise ValueError(f"aspect ratios must be positive, got {alpha_x}, {alpha_y}")


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
    if theta < 0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    _check_rho(rho)
    return float(np.sqrt(rho) * theta)


def is_supercritical(alpha_x: float, alpha_y: float, rho: float, theta: float) -> bool:
    """True when the planted signal survives in the large-N limit.

    Strict comparison against the critical strength: equality counts as
    subcritical.
    """
    _check_aspects(alpha_x, alpha_y)
    _check_rho(rho)
    if theta < 0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    return theta > critical_threshold(alpha_x, alpha_y, rho)


def asymptotic_overlaps(alpha_x: float, alpha_y: float, rho: float,
                        theta: float) -> tuple[float, float]:
    """Limiting squared overlaps (r2_x, r2_y) of the leading singular pair.

    Exactly (0.0, 0.0) at and below the critical signal strength.
    """
    if not is_supercritical(alpha_x, alpha_y, rho, theta):
        return 0.0, 0.0
    t = alpha_x * alpha_y * rho**2 * theta**4
    gx = alpha_x * rho * theta**2
    gy = alpha_y * rho * theta**2
    r2_x = (t - 1.0) / (gy * (gx + 1.0))
    r2_y = (t - 1.0) / (gx * (gy + 1.0))
    # clamp away sub-1e-12 floating-point excursions outside [0, 1]
    return (float(min(max(r2_x, 0.0), 1.0)),
            float(min(max(r2_y, 0.0), 1.0)))


def predict(alpha_x: float, alpha_y: float, rho: float, theta: float) -> TheoryPrediction:
    """Bundle threshold, effective spike, overlaps and phase at one point."""
    r2_x, r2_y = asymptotic_overlaps(alpha_x, alpha_y, rho, theta)
    return TheoryPrediction(
        theta_crit=critical_threshold(alpha_x, alpha_y, rho),
        theta_eff=effective_spike(theta, rho),
        r2_x=r2_x,
        r2_y=r2_y,
        supercritical=is_supercritical(alpha_x, alpha_y, rho, theta),
    )


def _check_unit_interval(r: float, name: str):
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {r}")


def variational_objective(r_u: float, r_v: float, alpha_x: float, alpha_y: float,
                          theta_eff: float) -> float:
    """Zero-temperature objective whose maximizer gives the limiting overlaps."""
    _check_aspects(alpha_x, alpha_y)
    _check_unit_interval(r_u, "r_u")
    _check_unit_interval(r_v, "r_v")
    if theta_eff < 0:
        raise ValueError(f"theta_eff must be non-negative, got {theta_eff}")
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
    if theta_eff < 0:
        raise ValueError(f"theta_eff must be non-negative, got {theta_eff}")
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
    if theta_eff < 0:
        raise ValueError(f"theta_eff must be non-negative, got {theta_eff}")
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
