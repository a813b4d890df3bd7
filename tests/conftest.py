"""Shared helpers for the test suite."""

import struct

import numpy as np
import pytest


def make_cloud(seed, n=32, scale=1.0):
    """Deterministic random cloud used across tests."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(n, 3))


def greedy_fps(pts, first, m):
    """The plain per-cloud farthest-point loop from index `first`: the
    reference for every pick of `farthest_point_sample`."""
    want = [int(first)]
    best = ((pts - pts[first]) ** 2).sum(axis=1)
    for _ in range(m - 1):
        want.append(int(np.argmax(best)))
        best = np.minimum(best, ((pts - pts[want[-1]]) ** 2).sum(axis=1))
    return want


def tens_bytes(items, meta=b"{}"):
    """A `.tens` container of (name, array) pairs in the order given, which
    save_tensors would not write if names repeat or are out of order."""
    parts = [b"TENS", struct.pack("<HII", 1, len(items), len(meta)), meta]
    for name, arr in items:
        arr = np.ascontiguousarray(arr)
        name_b, dtype_b = name.encode(), arr.dtype.str.encode()
        parts += [struct.pack("<H", len(name_b)), name_b, struct.pack("<H", len(dtype_b)), dtype_b]
        parts += [struct.pack(f"<H{arr.ndim}q", arr.ndim, *arr.shape), arr.tobytes()]
    return b"".join(parts)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
