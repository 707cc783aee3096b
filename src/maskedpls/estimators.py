"""Estimators of the planted cross-view directions from masked data.

The primary estimator takes the leading singular pair of the rescaled
missing-as-zero cross-covariance.  Baselines cover column-mean
imputation, an EM-style rank-1 refit loop, per-view iterative SVD
completion, and an oracle that sees the unmasked data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blas import top_eigenvector
from .linalg import top_singular_pair, vector_correlation
from .streams import substream
from .synth import MaskedPair

ESTIMATOR_NAMES = ("pls_svd_zero", "mean_impute", "em_pls", "iterative_svd", "oracle")
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class EstimatorKind:
    """Which estimator to run, with loop controls for the iterative ones."""

    name: str = "pls_svd_zero"
    max_iter: int = 50
    tol: float = 1e-6

    def __post_init__(self):
        if self.name not in ESTIMATOR_NAMES:
            raise ValueError(
                f"unknown estimator {self.name!r}, expected one of {ESTIMATOR_NAMES}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class EstimateResult:
    u_hat: np.ndarray
    v_hat: np.ndarray
    r2_x: float
    r2_y: float
    iterations: int


def rescaled_cross_covariance(x_obs: np.ndarray, y_obs: np.ndarray,
                              rho: float) -> np.ndarray:
    """x_obs.T @ y_obs / (N * sqrt(rho)), the masking-corrected
    cross-covariance of N observed rows, with rho the joint retention
    probability."""
    if not rho > 0:
        raise ValueError(f"joint retention must be positive, got {rho}")
    return x_obs.T @ y_obs / (x_obs.shape[0] * np.sqrt(rho))


def squared_overlaps(u_hat, v_hat, u0, v0) -> tuple[float, float]:
    """Squared cosines of the estimates with the planted directions."""
    return (vector_correlation(u_hat, u0) ** 2,
            vector_correlation(v_hat, v0) ** 2)


def _column_mean_impute(obs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    counts = mask.sum(axis=0)
    sums = np.where(mask, obs, 0.0).sum(axis=0)
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return np.where(mask, obs, means[None, :])


def _em_pls(pair: MaskedPair, kind: EstimatorKind):
    n = pair.n_samples
    x_imp = _column_mean_impute(pair.x_obs, pair.mask_x)
    y_imp = _column_mean_impute(pair.y_obs, pair.mask_y)
    rows, cols = np.nonzero(~pair.mask_y)
    sigma_prev = None
    triple = None
    iterations = kind.max_iter
    for it in range(1, kind.max_iter + 1):
        c = x_imp.T @ y_imp / n
        triple = top_singular_pair(c)
        sigma = triple.value
        if (sigma_prev is not None
                and abs(sigma - sigma_prev) <= kind.tol * max(sigma_prev, _TINY)):
            iterations = it
            break
        sigma_prev = sigma
        # refit the response's missing entries from the rank-1 cross fit;
        # the design is not constrained by the rank-1 model, so its
        # missing entries keep their column means
        scores = x_imp @ triple.left
        y_imp[rows, cols] = sigma * (scores[rows] * triple.right[cols])
    return triple, iterations


def _hard_impute(obs: np.ndarray, mask: np.ndarray, max_iter: int, tol: float):
    """Hard-impute: refill the missing entries from the rank-1 truncated SVD
    of the current completion until the refill stops moving.

    The truncation u s vᵀ equals completed @ v vᵀ (or u uᵀ @ completed), so
    each step needs only the top eigenvector of the smaller Gram matrix,
    and the reconstruction only at the missing entries.
    """
    completed = np.ascontiguousarray(_column_mean_impute(obs, mask))
    flat = completed.reshape(-1)  # a view: writes land in completed
    missing = np.flatnonzero(~mask)
    rows, cols = np.divmod(missing, completed.shape[1])
    tall = completed.shape[0] >= completed.shape[1]
    prev = flat[missing]
    prev_norm = np.linalg.norm(prev)
    iterations = max_iter
    for it in range(1, max_iter + 1):
        if tall:
            v = top_eigenvector(completed.T @ completed)
            cur = (completed @ v)[rows] * v[cols]
        else:
            u = top_eigenvector(completed @ completed.T)
            cur = u[rows] * (completed.T @ u)[cols]
        flat[missing] = cur
        if np.linalg.norm(cur - prev) <= tol * (prev_norm + _TINY):
            iterations = it
            break
        prev, prev_norm = cur, np.linalg.norm(cur)
    return completed, iterations


def estimate(pair: MaskedPair, kind: EstimatorKind) -> EstimateResult:
    """Run one estimator on one masked pair.

    Non-convergence is not raised: the iterative refinements report it
    through the iteration count, and an unconverged leading pair (a
    quasi-degenerate subcritical spectrum) is used as is.  A
    cross-covariance with no leading direction at all (e.g. an
    all-missing view) is an error.
    """
    n = pair.n_samples
    iterations = 1
    if kind.name == "pls_svd_zero":
        triple = top_singular_pair(
            rescaled_cross_covariance(pair.x_obs, pair.y_obs, pair.rho))
    elif kind.name == "mean_impute":
        x_imp = _column_mean_impute(pair.x_obs, pair.mask_x)
        y_imp = _column_mean_impute(pair.y_obs, pair.mask_y)
        triple = top_singular_pair(x_imp.T @ y_imp / n)
    elif kind.name == "em_pls":
        triple, iterations = _em_pls(pair, kind)
    elif kind.name == "iterative_svd":
        x_comp, it_x = _hard_impute(pair.x_obs, pair.mask_x, kind.max_iter, kind.tol)
        y_comp, it_y = _hard_impute(pair.y_obs, pair.mask_y, kind.max_iter, kind.tol)
        triple = top_singular_pair(x_comp.T @ y_comp / n)
        iterations = it_x + it_y
    else:  # oracle
        if pair.x_latent is None or pair.y_latent is None:
            raise ValueError("oracle estimator needs the latent complete matrices")
        triple = top_singular_pair(pair.x_latent.T @ pair.y_latent / n)
    r2_x, r2_y = squared_overlaps(triple.left, triple.right, pair.u0, pair.v0)
    return EstimateResult(u_hat=triple.left, v_hat=triple.right, r2_x=r2_x,
                          r2_y=r2_y, iterations=iterations)


def split_half_stability(pair: MaskedPair, seed: int) -> float:
    """Agreement between singular pairs estimated on two random halves.

    Rows are partitioned uniformly at random; each half is analyzed with
    its own sample count in the normalization.  Returns the mean of the
    absolute correlations of the two u estimates and the two v
    estimates, in [0, 1].
    """
    n = pair.n_samples
    if n < 4:
        raise ValueError(f"split-half needs at least 4 samples, got {n}")
    perm = substream(seed, "split").permutation(n)
    pairs = [top_singular_pair(rescaled_cross_covariance(
                 pair.x_obs[idx], pair.y_obs[idx], pair.rho))
             for idx in (perm[: n // 2], perm[n // 2:])]
    s_u = abs(vector_correlation(pairs[0].left, pairs[1].left))
    s_v = abs(vector_correlation(pairs[0].right, pairs[1].right))
    return 0.5 * (s_u + s_v)
