"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.geometry.euclidean import EuclideanMetric
from repro.geometry.line import LineMetric
from repro.instances.random_instances import random_uniform_instance


@pytest.fixture
def rng():
    """A deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def dense_backend():
    """Pin the dense gain backend for tests that assert dense-only
    machinery (transpose aliasing, read-only array views) — such tests
    must keep passing when the suite runs under
    ``REPRO_BACKEND=sparse``."""
    from repro.core.gains import config_scope

    with config_scope(backend="dense"):
        yield


@pytest.fixture(params=["cold", "warm"])
def prime_context_cache(request):
    """Run a test once on a cleared context cache ("cold") and once on
    a cache an identical earlier call has already filled ("warm").

    Cached :class:`~repro.core.context.InterferenceContext` objects are
    shared by every later call on the same ``(instance, powers)``, so a
    schedule must not depend on what an earlier call left in them.
    Yields ``prime(fn)``: calls *fn* once in warm mode, nothing in cold.
    """
    from repro.core.context import clear_context_cache

    def prime(fn):
        if request.param == "warm":
            fn()

    clear_context_cache()
    yield prime
    clear_context_cache()


@pytest.fixture
def line_metric():
    """Five points on the line: 0, 1, 3, 6, 10."""
    return LineMetric([0.0, 1.0, 3.0, 6.0, 10.0])


@pytest.fixture
def square_metric():
    """Four corners of the unit square."""
    return EuclideanMetric([[0, 0], [1, 0], [0, 1], [1, 1]])


@pytest.fixture
def two_link_instance():
    """Two well-separated unit links on the line (bidirectional).

    Layout: 0--1   100--101.  Hand-computable interference.
    """
    metric = LineMetric([0.0, 1.0, 100.0, 101.0])
    return Instance.bidirectional(metric, [(0, 1), (2, 3)], alpha=3.0, beta=1.0)


@pytest.fixture
def two_link_directed():
    """Directed version of the two-link layout."""
    metric = LineMetric([0.0, 1.0, 100.0, 101.0])
    return Instance.directed(metric, [(0, 1), (2, 3)], alpha=3.0, beta=1.0)


@pytest.fixture
def small_random_instance(rng):
    """Ten random bidirectional requests in a square."""
    return random_uniform_instance(10, rng=rng)
