"""numpy's bundled OpenBLAS: its build configuration, its thread count,
and the LAPACK and BLAS routines numpy does not expose.

The library is located on first use and only once, so importing the
package does no extra work.  When numpy bundles no OpenBLAS, or the
library lacks a function, every helper returns None and changes
nothing, and the routines answer from numpy: ``top_eigenvector`` from
``np.linalg.eigh``, ``lower_inverse`` from ``np.linalg.inv`` and
``times_lower_transposed`` from a matrix product.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np


@functools.cache
def _library() -> ctypes.CDLL | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    if not libs:
        return None
    try:
        return ctypes.CDLL(libs[0])
    except OSError:
        return None


def _function(symbol: str, restype, argtypes: list):
    fn = getattr(_library(), symbol, None)
    if fn is not None:
        fn.argtypes = argtypes
        fn.restype = restype
    return fn


def config() -> str | None:
    """OpenBLAS's build configuration string."""
    fn = _function("scipy_openblas_get_config64_", ctypes.c_char_p, [])
    return None if fn is None else fn().decode()


def num_threads() -> int | None:
    """The number of threads OpenBLAS runs its kernels on."""
    fn = _function("scipy_openblas_get_num_threads64_", ctypes.c_int, [])
    return None if fn is None else fn()


def set_num_threads(count: int) -> None:
    """Run OpenBLAS kernels on ``count`` threads, process-wide."""
    fn = _function("scipy_openblas_set_num_threads64_", None, [ctypes.c_int])
    if fn is not None:
        fn(count)


_COL_MAJOR = 102  # LAPACKE's LAPACK_COL_MAJOR


@functools.cache
def _dsyevr():
    i64, f64 = ctypes.c_int64, ctypes.c_double
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    ints = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    # LAPACKE_dsyevr(layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu,
    #                abstol, m, w, z, ldz, isuppz)
    return _function("scipy_LAPACKE_dsyevr64_", i64,
                     [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,
                      i64, doubles, i64, f64, f64, i64, i64, f64,
                      ints, doubles, doubles, i64, ints])


def top_eigenvector(sym: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue of the symmetric ``sym``.

    LAPACK's MRRR driver ``dsyevr`` computes only that one eigenpair
    (``RANGE='I'``, ``IL = IU = n``), at LAPACK's default accuracy.
    ``sym`` is passed as column-major, which a symmetric C-ordered matrix
    already is, and is not modified.  Without the driver, or if it
    reports failure, the vector is ``np.linalg.eigh``'s last column.
    """
    if sym.ndim != 2 or sym.shape[0] != sym.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {sym.shape}")
    fn = _dsyevr()
    if fn is not None:
        n = sym.shape[0]
        a = np.array(sym, dtype=np.float64, order="C")  # dsyevr overwrites it
        m = np.zeros(1, dtype=np.int64)
        w = np.empty(n)
        z = np.empty(n)
        isuppz = np.empty(2, dtype=np.int64)
        info = fn(_COL_MAJOR, b"V", b"I", b"L", n, a, n, 0.0, 0.0, n, n, 0.0,
                  m, w, z, n, isuppz)
        if info == 0 and m[0] == 1:
            return z
    return np.linalg.eigh(sym)[1][:, -1]


@functools.cache
def _dtrtri():
    i64 = ctypes.c_int64
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    # LAPACKE_dtrtri(layout, uplo, diag, n, a, lda)
    return _function("scipy_LAPACKE_dtrtri64_", i64,
                     [ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, doubles,
                      i64])


_ROW_MAJOR = 101  # CBLAS's CblasRowMajor
_RIGHT = 142      # CblasRight
_LOWER = 122      # CblasLower
_TRANS = 112      # CblasTrans
_NON_UNIT = 131   # CblasNonUnit


@functools.cache
def _dtrmm():
    i64, f64 = ctypes.c_int64, ctypes.c_double
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    # cblas_dtrmm(layout, side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb)
    return _function("scipy_cblas_dtrmm64_", None,
                     [ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int,
                      ctypes.c_int, i64, i64, f64, doubles, i64, doubles, i64])


def _check_triangle(low: np.ndarray) -> None:
    if low.ndim != 2 or low.shape[0] != low.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {low.shape}")
    if low.dtype != np.float64 or not low.flags.c_contiguous:
        raise ValueError("expected a C-contiguous float64 matrix")


def lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular ``low``, written over ``low``.

    LAPACK's ``dtrtri`` reads and writes the lower triangle only, so the
    zeros above the diagonal stay zero.  ``low`` must be a C-contiguous
    float64 array.  Without the routine the inverse is ``np.linalg.inv``'s,
    in a new array.  Raises ``np.linalg.LinAlgError`` when ``low`` has a
    zero on its diagonal.
    """
    _check_triangle(low)
    fn = _dtrtri()
    if fn is None:
        return np.linalg.inv(low)
    n = low.shape[0]
    # a C-ordered lower triangle is the upper triangle of its column-major view
    info = fn(_COL_MAJOR, b"U", b"N", n, low, n)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"triangular inverse failed: LAPACK dtrtri returned {info}")
    return low


def times_lower_transposed(a: np.ndarray, low: np.ndarray,
                           overwrite_a: bool = False) -> np.ndarray:
    """``a @ low.T`` for a lower-triangular ``low``.

    BLAS's ``dtrmm`` forms the product in place, on a copy of ``a``, or
    on ``a`` itself with ``overwrite_a`` when ``a`` is a writeable
    C-contiguous float64 array; it reads only ``low``'s lower triangle,
    which must be C-contiguous float64.  Without the routine the result
    is numpy's ``a @ low.T``, in a new array, and ``a`` is left as it is.
    """
    _check_triangle(low)
    rows, cols = a.shape
    if low.shape[0] != cols:
        raise ValueError(
            f"shapes {a.shape} and {low.shape} do not multiply")
    fn = _dtrmm()
    if fn is None:
        return a @ low.T
    in_place = (overwrite_a and a.dtype == np.float64 and a.flags.c_contiguous
                and a.flags.writeable)
    b = a if in_place else np.array(a, dtype=np.float64, order="C")
    fn(_ROW_MAJOR, _RIGHT, _LOWER, _TRANS, _NON_UNIT, rows, cols, 1.0,
       low, cols, b, cols)
    return b
