"""Numerical building blocks: whitening, leading singular pairs, PCA.

All matrices are 2-D float64 numpy arrays (row major).  Operations
validate finiteness on entry and are deterministic: two calls on the
same input return bitwise-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import blas
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


def _whiten_cholesky(a: np.ndarray, overwrite: bool):
    """CholeskyQR whitening sqrt(rows) * a @ inv(R), R from a.T @ a = R.T R.

    R.T is numpy's lower Cholesky factor L, so inv(R) = inv(L).T: LAPACK
    inverts L in place and BLAS multiplies by it in place, on a copy of
    a or, with overwrite, on a itself, both triangular (see blas.py).
    Returns None unless the Cholesky factorization succeeds, the
    condition bound holds and the result is orthogonal to rounding level.
    """
    rows, cols = a.shape
    try:
        low = np.linalg.cholesky(a.T @ a)
        r_norm = np.linalg.norm(low)
        low_inv = blas.lower_inverse(low)
    except np.linalg.LinAlgError:
        return None
    # negated comparisons so that a NaN also rejects
    if not r_norm * np.linalg.norm(low_inv) < _CHOLESKY_COND_BOUND:
        return None
    # scale the inverse, not the product, as a @ (sqrt(rows) * inv(R)) did
    low_inv *= np.sqrt(rows)
    w = blas.times_lower_transposed(a, low_inv, overwrite_a=overwrite)
    # max|W.T W / rows - I| in one cols x cols buffer
    g = w.T @ w
    g /= rows
    g.flat[::cols + 1] -= 1.0
    if not np.abs(g, out=g).max() <= _CHOLESKY_ORTHO_ATOL:
        return None
    return w


def whiten(raw, redraw: Callable[[], np.ndarray] | None = None) -> np.ndarray:
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

    With ``redraw`` the caller gives raw up: the fast path may write W
    over it, and when the fast path rejects, ``redraw()`` must return
    raw's values again for the QR path, so the result is bitwise the one
    without ``redraw``.
    """
    a = _as_matrix(raw, "whiten")
    rows, cols = a.shape
    if rows < cols:
        raise ValueError(
            f"whiten requires rows >= cols, got {rows} x {cols}")
    fast = _whiten_cholesky(a, overwrite=redraw is not None)
    if fast is not None:
        return fast
    if redraw is not None:
        # the fast path may have written over a
        a = _as_matrix(redraw(), "whiten")
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

    # iterate on the smaller of the two Gram matrices, tᵀt, where t is a
    # or its transpose, whichever is tall, scaled by the power of two that
    # puts its largest magnitude in [0.5, 1), so that the Gram matrix
    # neither under- nor overflows; the scaling is exact, and the value
    # is scaled back at the end
    tall = cols <= rows
    exponent = int(np.frexp(np.abs(a).max())[1])
    t = np.ldexp(a if tall else a.T, -exponent)
    b = t.T @ t
    dim = b.shape[0]
    x = substream(_START_KEY, "power-start", dim).standard_normal(dim)
    x /= np.linalg.norm(x)

    lam_prev = np.inf
    converged = False
    for _ in range(_POWER_MAX_ITER):
        y = b @ x
        lam = float(x @ y)
        # numpy's own formula for the 2-norm of a real vector, bit for bit
        x = y / np.sqrt(y @ y)
        if abs(lam - lam_prev) <= _POWER_TOL * max(abs(lam), _TINY):
            converged = True
            break
        lam_prev = lam

    other_raw = t @ x
    norm = np.linalg.norm(other_raw)
    other = other_raw / norm
    value = math.ldexp(float(norm), exponent)
    left, right = (other, x) if tall else (x, other)
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
