"""numpy's bundled OpenBLAS: its build configuration and thread count.

The library is located on first use and only once, so importing the
package does no extra work.  When numpy bundles no OpenBLAS, or the
library lacks a function, every helper returns None and changes
nothing.
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
