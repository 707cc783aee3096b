"""Let the interpreters that tests start import this checkout's package,
and share the OpenBLAS thread-count fixture.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's own
path; child processes (``python -m maskedpls ...``) read it from the
environment instead.
"""

import os

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def blas_count():
    """OpenBLAS's thread count, set to 4 for the test: more threads than a
    sweep's one, and than a two-core machine has."""
    from maskedpls import blas

    before = blas.num_threads()
    if before is None:
        pytest.skip("numpy bundles no OpenBLAS")
    blas.set_num_threads(4)
    yield 4
    blas.set_num_threads(before)
