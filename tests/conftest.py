"""Shared helpers for the test suite."""

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


@pytest.fixture
def rng():
    return np.random.default_rng(0)
