"""Tests for the dense linear-algebra kernels."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from maskedpls import blas, linalg
from maskedpls.blas import top_eigenvector
from maskedpls.linalg import (
    pca_reduce,
    top_singular_pair,
    vector_correlation,
    whiten,
)
from maskedpls.streams import substream


# ---------------------------------------------------------------------------
# whiten


def test_whiten_identity():
    out = whiten(np.eye(3))
    np.testing.assert_allclose(out, np.sqrt(3.0) * np.eye(3), atol=1e-12)


def test_whiten_orthogonal_columns_rescaled():
    raw = np.zeros((4, 2))
    raw[0, 0] = 2.0
    raw[1, 1] = 5.0
    out = whiten(raw)
    gram = out.T @ out
    np.testing.assert_allclose(gram, 4.0 * np.eye(2), atol=1e-8)
    # column space is preserved: each output column stays on its axis
    assert abs(out[0, 0]) == pytest.approx(2.0)
    assert abs(out[1, 1]) == pytest.approx(2.0)


def test_whiten_gaussian_gram():
    rng = substream(5, "whiten-test")
    raw = rng.standard_normal((50, 10))
    out = whiten(raw)
    np.testing.assert_allclose(out.T @ out, 50.0 * np.eye(10), atol=1e-8)


def test_whiten_preserves_column_space():
    rng = substream(6, "whiten-span")
    raw = rng.standard_normal((30, 4))
    out = whiten(raw)
    # every whitened column must be a combination of the raw columns
    proj, *_ = np.linalg.lstsq(raw, out, rcond=None)
    np.testing.assert_allclose(raw @ proj, out, atol=1e-8)


def test_whiten_idempotent_gram():
    rng = substream(7, "whiten-idem")
    raw = rng.standard_normal((40, 6))
    once = whiten(raw)
    twice = whiten(once)
    np.testing.assert_allclose(twice.T @ twice, 40.0 * np.eye(6), atol=1e-8)


def test_whiten_rejects_wide_matrix():
    with pytest.raises(ValueError, match="rows"):
        whiten(np.ones((2, 5)))


def test_whiten_rejects_rank_deficiency():
    raw = np.ones((6, 3))  # rank 1
    with pytest.raises(ValueError, match="condition number"):
        whiten(raw)


def test_whiten_deterministic():
    rng = substream(8, "whiten-det")
    raw = rng.standard_normal((20, 5))
    np.testing.assert_array_equal(whiten(raw), whiten(raw.copy()))


def _qr_reference(raw):
    q, r = np.linalg.qr(raw, mode="reduced")
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    return np.sqrt(raw.shape[0]) * q * signs


def _count_qr_calls(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counting(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    return calls


@pytest.fixture
def without_openblas(monkeypatch):
    """blas as it is where numpy bundles no OpenBLAS: every routine
    answers from numpy."""
    cached = (blas._dtrtri, blas._dtrmm, blas._dsyevr)
    for lookup in cached:
        lookup.cache_clear()
    monkeypatch.setattr(blas, "_library", lambda: None)
    yield
    # looked up again with the real library once the patch is undone
    for lookup in cached:
        lookup.cache_clear()


@pytest.mark.parametrize("shape", [(1000, 200), (2000, 266)])
def test_whiten_cholesky_path_matches_qr_reference(shape, monkeypatch):
    raw = substream(20, "whiten-chol", *shape).standard_normal(shape)
    ref = _qr_reference(raw)
    qr_calls = _count_qr_calls(monkeypatch)
    out = whiten(raw)
    assert not qr_calls  # the Cholesky path was accepted
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)


def _cond_1e3(rows: int, cols: int) -> np.ndarray:
    # inside the 1e6 condition bound, but CholeskyQR's orthogonality error,
    # about cond**2 * eps, is far above 64 eps
    rng = substream(24, "whiten-cond-1e3")
    left, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    right, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    return left @ np.diag(np.logspace(0.0, -3.0, cols)) @ right


@pytest.mark.parametrize("numpy_only", [False, True])
@pytest.mark.parametrize("case", ["gaussian", "cond_1e3"])
def test_whiten_in_place_is_whiten_of_a_copy(case, numpy_only, monkeypatch,
                                             request):
    if numpy_only:
        request.getfixturevalue("without_openblas")
    if case == "gaussian":
        raw = substream(25, "whiten-in-place").standard_normal((1000, 200))
    else:
        raw = _cond_1e3(400, 20)
    want = whiten(raw.copy())
    redraws = []

    def redraw():
        redraws.append(1)
        return raw.copy()

    products = []
    times_lower = blas.times_lower_transposed

    def counting_product(*args, **kwargs):
        products.append(1)
        return times_lower(*args, **kwargs)

    monkeypatch.setattr(blas, "times_lower_transposed", counting_product)
    qr_calls = _count_qr_calls(monkeypatch)
    given = raw.copy()
    got = whiten(given, redraw=redraw)
    assert got.tobytes() == want.tobytes()
    # the fast path formed its product in both cases, so a fallback is the
    # orthogonality check's
    assert len(products) == 1
    fell_back = case == "cond_1e3"
    assert len(qr_calls) == len(redraws) == fell_back
    if not fell_back and not numpy_only:
        assert got is given  # whitened in the caller's memory


@pytest.mark.skipif(blas.config() is None, reason="numpy bundles no OpenBLAS")
def test_bundled_openblas_exports_the_triangular_routines():
    # without them whitening silently falls back to inv and a full product
    assert blas._dtrtri() is not None
    assert blas._dtrmm() is not None


def test_whiten_without_triangular_routines_is_orthogonal(without_openblas,
                                                           monkeypatch):
    raw = substream(23, "whiten-numpy").standard_normal((1000, 200))
    qr_calls = _count_qr_calls(monkeypatch)
    out = whiten(raw)
    assert not qr_calls
    eps = np.finfo(np.float64).eps
    assert np.abs(out.T @ out / 1000 - np.eye(200)).max() <= 64 * eps
    np.testing.assert_allclose(out, _qr_reference(raw), rtol=0, atol=1e-13)


def test_whiten_without_triangular_routines_keeps_the_fallbacks(
        without_openblas, monkeypatch):
    raw = substream(21, "whiten-ill").standard_normal((50, 10))
    raw[:, 3] *= 1e7
    qr_calls = _count_qr_calls(monkeypatch)
    out = whiten(raw)
    assert len(qr_calls) == 1
    np.testing.assert_allclose(out.T @ out, 50.0 * np.eye(10), atol=1e-8)
    with pytest.raises(ValueError, match="condition number"):
        whiten(np.ones((6, 3)))


def _lower(n: int, seed: int) -> np.ndarray:
    low = np.tril(substream(seed, "lower").standard_normal((n, n)))
    low[np.diag_indices(n)] = np.abs(np.diagonal(low)) + 1.0
    return low


@pytest.mark.parametrize("numpy_only", [False, True])
def test_triangular_routines_match_numpy(numpy_only, request):
    if numpy_only:
        request.getfixturevalue("without_openblas")
    low = _lower(40, seed=4)
    a = substream(5, "times-lower").standard_normal((70, 40))
    a_before = a.copy()
    product = blas.times_lower_transposed(a, low)
    np.testing.assert_array_equal(a, a_before)  # a is not modified
    np.testing.assert_allclose(product, a @ low.T, rtol=0, atol=1e-12)
    inverse = blas.lower_inverse(low.copy())
    np.testing.assert_allclose(inverse @ low, np.eye(40), rtol=0, atol=1e-12)
    if not numpy_only:
        # dtrtri leaves the zeros above the diagonal as they are
        assert not np.triu(inverse, 1).any()


@pytest.mark.parametrize("numpy_only", [False, True])
def test_lower_inverse_rejects_a_zero_pivot(numpy_only, request):
    if numpy_only:
        request.getfixturevalue("without_openblas")
    low = _lower(6, seed=6)
    low[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        blas.lower_inverse(low)


def test_triangular_routines_check_their_operands():
    with pytest.raises(ValueError, match="square"):
        blas.lower_inverse(np.ones((3, 2)))
    with pytest.raises(ValueError, match="C-contiguous"):
        blas.lower_inverse(np.asfortranarray(_lower(4, seed=7)))
    with pytest.raises(ValueError, match="multiply"):
        blas.times_lower_transposed(np.ones((5, 3)), _lower(4, seed=7))


def test_whiten_ill_conditioned_falls_back_to_qr(monkeypatch):
    raw = substream(21, "whiten-ill").standard_normal((50, 10))
    raw[:, 3] *= 1e7
    qr_calls = _count_qr_calls(monkeypatch)
    out = whiten(raw)
    assert len(qr_calls) == 1
    np.testing.assert_allclose(out.T @ out, 50.0 * np.eye(10), atol=1e-8)


def test_whiten_rejects_cond_1e12():
    rng = substream(22, "whiten-cond")
    left, _ = np.linalg.qr(rng.standard_normal((60, 8)))
    right, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    raw = left @ np.diag(np.logspace(0.0, -12.0, 8)) @ right
    with pytest.raises(ValueError, match="condition number"):
        whiten(raw)


# ---------------------------------------------------------------------------
# top_singular_pair


def test_top_pair_diagonal():
    triple = top_singular_pair(np.diag([3.0, 1.0]))
    assert triple.value == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(triple.left, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(triple.right, [1.0, 0.0], atol=1e-12)


def test_top_pair_exact_rank_one():
    u = np.array([0.6, -0.8])
    v = np.array([1.0, 0.0, 0.0])
    triple = top_singular_pair(2.5 * np.outer(u, v))
    assert triple.value == pytest.approx(2.5, abs=1e-10)
    # sign convention: largest-magnitude entry of left is positive,
    # so the returned pair is (-u, -v)
    np.testing.assert_allclose(triple.left, -u, atol=1e-10)
    np.testing.assert_allclose(triple.right, -v, atol=1e-10)


def test_top_pair_matches_dense_svd_small():
    rng = substream(9, "svd-oracle")
    m = rng.standard_normal((8, 5))
    triple = top_singular_pair(m)
    u_ref, s_ref, vt_ref = np.linalg.svd(m)
    assert triple.value == pytest.approx(s_ref[0], abs=1e-10)
    assert abs(float(triple.left @ u_ref[:, 0])) > 1 - 1e-10
    assert abs(float(triple.right @ vt_ref[0])) > 1 - 1e-10


def test_top_pair_oracle_corpus_up_to_12():
    rng = substream(10, "svd-corpus")
    for rows in (2, 3, 5, 8, 12):
        for cols in (2, 4, 7, 12):
            m = rng.standard_normal((rows, cols))
            triple = top_singular_pair(m)
            u_ref, s_ref, _ = np.linalg.svd(m)
            assert triple.value == pytest.approx(s_ref[0], abs=1e-10)
            assert abs(float(triple.left @ u_ref[:, 0])) > 1 - 1e-10


@pytest.mark.parametrize("shape", [(120, 40), (40, 120)], ids=["tall", "wide"])
def test_top_pair_power_iteration_path(shape):
    # min dimension above the dense-fallback cutoff exercises power
    # iteration; the dense SVD stays the oracle.
    rng = substream(11, "svd-power")
    m = rng.standard_normal(shape)
    triple = top_singular_pair(m)
    u_ref, s_ref, vt_ref = np.linalg.svd(m, full_matrices=False)
    assert triple.value == pytest.approx(s_ref[0], rel=1e-9)
    assert abs(float(triple.left @ u_ref[:, 0])) > 1 - 1e-8
    assert abs(float(triple.right @ vt_ref[0])) > 1 - 1e-8


@pytest.mark.parametrize("magnitude", [1e-170, 1e-160, 1e160])
def test_top_pair_power_iteration_at_extreme_magnitudes(magnitude):
    # unscaled, the Gram matrix of these inputs under- or overflows
    m = np.full((40, 40), magnitude)
    m[0, 0] *= 2
    triple = top_singular_pair(m)
    u_ref, s_ref, vt_ref = np.linalg.svd(m)
    assert triple.converged
    assert triple.value == pytest.approx(s_ref[0], rel=1e-12, abs=0.0)
    assert abs(float(triple.left @ u_ref[:, 0])) > 1 - 1e-12
    assert abs(float(triple.right @ vt_ref[0])) > 1 - 1e-12


@pytest.mark.parametrize("shape", [(120, 40), (40, 120)], ids=["tall", "wide"])
def test_top_pair_power_iteration_is_exact_under_power_of_two_scaling(shape):
    m = substream(11, "svd-power").standard_normal(shape)
    base = top_singular_pair(m)
    for k in (-600, -3, 5, 600):
        scaled = top_singular_pair(np.ldexp(m, k))
        assert scaled.value == math.ldexp(base.value, k)
        np.testing.assert_array_equal(scaled.left, base.left)
        np.testing.assert_array_equal(scaled.right, base.right)


def test_top_pair_unit_norms():
    rng = substream(12, "svd-norm")
    m = rng.standard_normal((60, 35))
    triple = top_singular_pair(m)
    assert np.linalg.norm(triple.left) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(triple.right) == pytest.approx(1.0, abs=1e-10)
    assert triple.value >= 0


def test_top_pair_sign_determinism():
    rng = substream(13, "svd-sign")
    m = rng.standard_normal((40, 33))
    t1 = top_singular_pair(m)
    t2 = top_singular_pair(m.copy())
    np.testing.assert_array_equal(t1.left, t2.left)
    np.testing.assert_array_equal(t1.right, t2.right)
    assert t1.left[np.argmax(np.abs(t1.left))] > 0


def test_top_pair_rejects_zero_matrix():
    with pytest.raises(ValueError, match="zero"):
        top_singular_pair(np.zeros((4, 4)))


def test_top_pair_nonconvergence_carries_partial(monkeypatch):
    rng = substream(14, "svd-stall")
    m = rng.standard_normal((80, 50))
    assert top_singular_pair(m).converged is True
    monkeypatch.setattr(linalg, "_POWER_MAX_ITER", 2)
    partial = top_singular_pair(m)
    assert partial.converged is False
    assert np.linalg.norm(partial.left) == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.norm(partial.right) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# top_eigenvector (LAPACK dsyevr, one eigenpair)


def _gram(n, seed):
    """A random positive semi-definite n×n Gram matrix with n + 3 rows."""
    a = substream(seed, "top-eigenvector").standard_normal((n + 3, n))
    return a.T @ a


@pytest.mark.parametrize("n", [1, 2, 50, 200])
def test_top_eigenvector_is_the_top_eigenpair(n):
    gram = _gram(n, seed=n)
    before = gram.copy()
    v = top_eigenvector(gram)
    np.testing.assert_array_equal(gram, before)
    assert v.shape == (n,)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    values, vectors = np.linalg.eigh(gram)
    scale = np.linalg.norm(gram)
    assert np.linalg.norm(gram @ v - values[-1] * v) <= 1e-12 * scale
    # the top gap is clear, so the direction itself is well defined
    assert n == 1 or values[-1] - values[-2] > 1e-3 * scale
    assert abs(float(v @ vectors[:, -1])) >= 1 - 1e-12
    np.testing.assert_array_equal(top_eigenvector(gram), v)


def test_top_eigenvector_without_lapack_driver_is_eighs(monkeypatch):
    gram = _gram(50, seed=7)
    monkeypatch.setattr(blas, "_dsyevr", lambda: None)
    np.testing.assert_array_equal(top_eigenvector(gram),
                                  np.linalg.eigh(gram)[1][:, -1])


@pytest.mark.parametrize("shape", [(3, 2), (4,)])
def test_top_eigenvector_rejects_non_square(shape):
    with pytest.raises(ValueError, match="square"):
        top_eigenvector(np.ones(shape))


def test_top_eigenvector_concurrent_calls_match_sequential():
    grams = [_gram(n, seed=20 + n) for n in (50, 120, 200, 150)] * 2
    sequential = [top_eigenvector(g) for g in grams]
    with ThreadPoolExecutor(max_workers=2) as pool:
        concurrent = list(pool.map(top_eigenvector, grams))
    for want, got in zip(sequential, concurrent):
        np.testing.assert_array_equal(got, want)


@pytest.mark.skipif(blas.config() is None, reason="numpy bundles no OpenBLAS")
def test_bundled_openblas_exports_dsyevr():
    # without it top_eigenvector silently falls back to a full eigh
    assert blas._dsyevr() is not None


# ---------------------------------------------------------------------------
# pca_reduce


def test_pca_exact_subspace_reconstruction():
    rng = substream(15, "pca-sub")
    basis = rng.standard_normal((2, 7))
    coords = rng.standard_normal((40, 2))
    data = coords @ basis
    scores = pca_reduce(data, 2)
    assert scores.shape == (40, 2)
    # the scores retain all the variance of the centered data
    centered = data - data.mean(axis=0)
    total = float((centered**2).sum())
    kept = float((scores**2).sum())
    assert kept == pytest.approx(total, rel=1e-10)


def test_pca_full_rank_preserves_variance():
    rng = substream(16, "pca-full")
    data = rng.standard_normal((50, 6))
    scores = pca_reduce(data, 6)
    centered = data - data.mean(axis=0)
    assert float((scores**2).sum()) == pytest.approx(
        float((centered**2).sum()), rel=1e-8)


def test_pca_matches_eigendecomposition_oracle():
    rng = substream(17, "pca-oracle")
    profile = np.sqrt(np.arange(10, 0, -1, dtype=float))
    data = rng.standard_normal((100, 10)) * profile
    scores = pca_reduce(data, 4)
    centered = data - data.mean(axis=0)
    eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
    comp_var = (scores**2).sum(axis=0)
    np.testing.assert_allclose(comp_var, eigvals[:4], rtol=1e-8)


def test_pca_variance_ordering():
    rng = substream(18, "pca-order")
    data = rng.standard_normal((80, 9)) * np.linspace(3.0, 0.5, 9)
    scores = pca_reduce(data, 9)
    comp_var = (scores**2).sum(axis=0)
    assert np.all(np.diff(comp_var) <= 1e-9)


def test_pca_rejects_too_many_dims():
    with pytest.raises(ValueError, match="target_dims"):
        pca_reduce(np.ones((5, 3)) + np.eye(5, 3), 4)


def test_pca_rejects_zero_variance():
    with pytest.raises(ValueError, match="variance"):
        pca_reduce(np.ones((5, 3)), 2)


# ---------------------------------------------------------------------------
# vector_correlation


def test_vector_correlation_basic_values():
    a = np.array([1.0, 1.0]) / np.sqrt(2.0)
    b = np.array([1.0, 0.0])
    assert vector_correlation(a, a) == pytest.approx(1.0)
    assert vector_correlation(b, np.array([0.0, 1.0])) == pytest.approx(0.0)
    assert vector_correlation(a, b) == pytest.approx(1.0 / np.sqrt(2.0))


def test_vector_correlation_scale_invariant_and_bounded():
    rng = substream(19, "corr")
    for _ in range(20):
        a = rng.standard_normal(12)
        b = rng.standard_normal(12)
        c = vector_correlation(a, b)
        assert -1.0 <= c <= 1.0
        assert vector_correlation(3.0 * a, 0.4 * b) == pytest.approx(c)


def test_vector_correlation_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        vector_correlation(np.zeros(3), np.ones(3))


def test_vector_correlation_rejects_length_mismatch():
    with pytest.raises(ValueError):
        vector_correlation(np.ones(3), np.ones(4))
