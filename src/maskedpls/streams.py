"""Deterministic random streams for reproducible, order-independent sampling.

Every random draw in this package comes from a Philox counter-based
generator keyed by a (seed, label path) pair.  Distinct paths yield
independent streams, so e.g. changing how many mask entries are drawn
can never perturb the design or noise draws of the same trial, and
trials may run in any order (or concurrently) without changing results.
"""

from __future__ import annotations

import hashlib

import numpy as np

# seeds key 64-bit generators: a seed is an integer in [0, SEED_LIMIT)
SEED_LIMIT = 1 << 64
_MASK64 = SEED_LIMIT - 1


def _path_tag(parts: tuple) -> int:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode())
        h.update(b"/")
    return int.from_bytes(h.digest(), "big")


def substream(seed: int, *path) -> np.random.Generator:
    """Return an independent Generator keyed by ``seed`` and a label path.

    The same (seed, path) always yields the same stream; different paths
    never share state.
    """
    key = np.array([np.uint64(seed & _MASK64), np.uint64(_path_tag(path))],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, *path) -> int:
    """Derive a 64-bit child seed from a parent seed and a label path.

    Used to give every (point, trial) of a sweep its own generation seed.
    Collisions between distinct paths are ruled out in practice by the
    64-bit keyed hash (and scanned for in the test suite).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(np.uint64(seed & _MASK64).tobytes())
    h.update(_path_tag(path).to_bytes(8, "big"))
    return int.from_bytes(h.digest(), "big")
