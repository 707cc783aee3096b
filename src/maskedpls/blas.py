"""numpy's bundled OpenBLAS: its build configuration, its thread count,
and the one LAPACK driver numpy does not expose.

The library is located on first use and only once, so importing the
package does no extra work.  When numpy bundles no OpenBLAS, or the
library lacks a function, every helper returns None and changes
nothing, and ``top_eigenvector`` answers from ``np.linalg.eigh``.
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
