"""Numerical building blocks: whitening, leading singular pairs, PCA.

All matrices are 2-D float64 numpy arrays (row major).  Operations
validate finiteness on entry and are deterministic: two calls on the
same input return bitwise-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .streams import substream

# Matrices with min(rows, cols) at or below this use a dense SVD instead
# of power iteration, because tiny problems are cheap to solve exactly.
# Power iteration can also stall on larger inputs whose top two singular
# values nearly tie; it then returns converged=False.
DENSE_FALLBACK_DIM = 32
_POWER_TOL = 1e-12
_POWER_MAX_ITER = 1000
_TINY = np.finfo(np.float64).tiny

_RANK_RTOL = 1e-10
# CholeskyQR acceptance: the Frobenius bound ||R||_F ||R^-1||_F caps the
# 2-norm condition number, so an accepted input is far inside the
# _RANK_RTOL test; the orthogonality error of CholeskyQR grows as
# cond^2 * eps, so the measured max|W.T W / rows - I| must also sit at
# float64 rounding level before the fast result is used
_CHOLESKY_COND_BOUND = 1e6
_CHOLESKY_ORTHO_ATOL = 64 * np.finfo(np.float64).eps
# fixed key for the power-iteration start vector; per-shape, not per-call,
# so repeated calls on the same matrix are bitwise identical
_START_KEY = 0x720A11CE


@dataclass(frozen=True)
class SingularTriple:
    """Leading singular pair (left, right) with its singular value;
    converged is False when power iteration ran out of its budget, and the
    vectors are then its last unit-norm iterate."""

    left: np.ndarray
    right: np.ndarray
    value: float
    converged: bool


def _as_matrix(m, op: str) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{op} expects a 2-D matrix, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{op} expects a non-empty matrix")
    if not np.isfinite(a).all():
        raise ValueError(f"{op}: matrix contains non-finite entries")
    return a


def _canonical_signs(left: np.ndarray, right: np.ndarray):
    # sign convention: the largest-magnitude entry of the left vector is
    # positive; np.argmax resolves ties toward the lowest index
    pivot = int(np.argmax(np.abs(left)))
    if left[pivot] < 0:
        return -left, -right
    return left, right


def _whiten_cholesky(a: np.ndarray):
    """CholeskyQR whitening sqrt(rows) * a @ inv(R), R from a.T @ a = R.T R.

    Returns None unless the Cholesky factorization succeeds, the
    condition bound holds and the result is orthogonal to rounding level.
    """
    rows, cols = a.shape
    try:
        r = np.linalg.cholesky(a.T @ a).T
    except np.linalg.LinAlgError:
        return None
    r_inv = np.linalg.inv(r)
    # negated comparisons so that a NaN also rejects
    if not np.linalg.norm(r) * np.linalg.norm(r_inv) < _CHOLESKY_COND_BOUND:
        return None
    w = a @ (np.sqrt(rows) * r_inv)
    if not np.abs(w.T @ w / rows - np.eye(cols)).max() <= _CHOLESKY_ORTHO_ATOL:
        return None
    return w


def whiten(raw) -> np.ndarray:
    """Rescale columns to an exactly whitened design.

    Returns W with W.T @ W == rows * identity: W = sqrt(rows) * Q for the
    thin QR factorization raw = Q R whose R has a positive diagonal, so
    each column keeps a positive projection onto its QR pivot.

    The fast path is CholeskyQR: R is the Cholesky factor of raw.T @ raw.
    Its result is used only when the factorization succeeds,
    ||R||_F ||R^-1||_F < 1e6 and max|W.T @ W / rows - I| <= 64 eps.
    Any other input takes the Householder QR path with the sign fix and
    an SVD rank check, which raises ValueError (naming the condition
    number) when the smallest singular value is at most 1e-10 times the
    largest.
    """
    a = _as_matrix(raw, "whiten")
    rows, cols = a.shape
    if rows < cols:
        raise ValueError(
            f"whiten requires rows >= cols, got {rows} x {cols}")
    fast = _whiten_cholesky(a)
    if fast is not None:
        return fast
    q, r = np.linalg.qr(a, mode="reduced")
    # q has orthonormal columns, so the singular values of r equal those
    # of the input; the rank check is exact but much cheaper on r
    sv = np.linalg.svd(r, compute_uv=False)
    if sv[-1] <= _RANK_RTOL * sv[0]:
        cond = np.inf if sv[-1] == 0 else sv[0] / sv[-1]
        raise ValueError(
            "whiten: input is numerically rank deficient "
            f"(condition number {cond:.3e})")
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    return np.sqrt(rows) * q * signs


def top_singular_pair(m) -> SingularTriple:
    """Leading singular triple of a matrix.

    Power iteration on the smaller Gram matrix, with a dense SVD
    fallback when min(rows, cols) <= DENSE_FALLBACK_DIM.  Convergence is
    declared when the Rayleigh quotient changes by at most _POWER_TOL
    relative to its magnitude; after _POWER_MAX_ITER steps without that,
    the last iterate is returned with converged=False.
    """
    a = _as_matrix(m, "top_singular_pair")
    if not a.any():
        raise ValueError("top_singular_pair: all-zero matrix has no leading direction")

    rows, cols = a.shape
    if min(rows, cols) <= DENSE_FALLBACK_DIM:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        left, right = _canonical_signs(u[:, 0], vt[0])
        return SingularTriple(left=left, right=right, value=float(s[0]),
                              converged=True)

    # iterate on the smaller of the two Gram matrices
    right_side = cols <= rows
    b = a.T @ a if right_side else a @ a.T
    dim = b.shape[0]
    rng = substream(_START_KEY, "power-start", dim)
    x = rng.standard_normal(dim)
    x /= np.linalg.norm(x)

    lam_prev = np.inf
    converged = False
    for _ in range(_POWER_MAX_ITER):
        y = b @ x
        lam = float(x @ y)
        # numpy's own formula for the 2-norm of a real vector, bit for bit
        ny = np.sqrt(y @ y)
        if ny == 0.0:
            # start vector fell in the null space; try a fresh one
            x = rng.standard_normal(dim)
            x /= np.linalg.norm(x)
            lam_prev = np.inf
            continue
        x = y / ny
        if abs(lam - lam_prev) <= _POWER_TOL * max(abs(lam), _TINY):
            converged = True
            break
        lam_prev = lam

    if right_side:
        right = x
        left_raw = a @ right
        value = float(np.linalg.norm(left_raw))
        left = left_raw / value
    else:
        left = x
        right_raw = a.T @ left
        value = float(np.linalg.norm(right_raw))
        right = right_raw / value
    left, right = _canonical_signs(left, right)
    return SingularTriple(left=left, right=right, value=value,
                          converged=converged)


def pca_reduce(m, target_dims: int) -> np.ndarray:
    """Project onto the top principal directions after column centering.

    Returns the score matrix (rows x target_dims) with components
    ordered by decreasing explained variance.  Loading signs follow the
    same largest-entry-positive convention as top_singular_pair so the
    output is deterministic.
    """
    a = _as_matrix(m, "pca_reduce")
    rows, cols = a.shape
    if not 1 <= target_dims <= cols:
        raise ValueError(
            f"target_dims must be in [1, {cols}], got {target_dims}")
    if rows < 2:
        raise ValueError("pca_reduce needs at least 2 rows to center")
    centered = a - a.mean(axis=0)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] <= 1e-12 * max(1.0, np.abs(a).max()):
        raise ValueError("pca_reduce: data has zero variance in every direction")
    loadings = vt[:target_dims]
    pivots = np.argmax(np.abs(loadings), axis=1)
    flips = np.where(loadings[np.arange(target_dims), pivots] < 0.0, -1.0, 1.0)
    return centered @ (loadings * flips[:, None]).T


def vector_correlation(a, b) -> float:
    """Cosine similarity a.b / (|a| |b|) of two 1-D vectors."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or vb.ndim != 1:
        raise ValueError("vector_correlation expects 1-D vectors")
    if va.shape != vb.shape:
        raise ValueError(
            f"length mismatch: {va.shape[0]} vs {vb.shape[0]}")
    if not (np.isfinite(va).all() and np.isfinite(vb).all()):
        raise ValueError("vector_correlation: non-finite entries")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("vector_correlation: zero vector")
    return float(va @ vb / (na * nb))
