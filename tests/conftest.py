"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import gc
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

# Property tests build spatial indexes, which is slow under the default
# deadline; a single relaxed profile keeps hypothesis stable on CI.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

#: Every tree configuration a job key can name: a tree rebuilt from a
#: cached order must be the cold tree under each.
TREE_CONFIGS = {
    "default": {},
    "bits=8": {"bits": 8},
    "high_resolution": {"high_resolution": True},
    "kdtree": {"tree_type": "kdtree"},
}


def _repro_threads():
    return {t for t in threading.enumerate() if t.name.startswith("repro-")}


def _repro_gc_hooks():
    """``gc.callbacks`` entries bound to an object of a ``repro`` module."""
    return [hook for hook in gc.callbacks
            if type(getattr(hook, "__self__", None)).__module__
            .startswith("repro.")]


@pytest.fixture(autouse=True)
def no_leaked_threads_or_hooks():
    """Whatever a test starts, its owner's close() stops: no new
    ``repro-*`` thread, repro-owned gc hook or phase-registry entry
    outlives the test (threads get 2 s to finish exiting)."""
    from repro.timing import phase_registry_size

    threads = _repro_threads()
    hooks = _repro_gc_hooks()
    yield
    deadline = time.monotonic() + 2.0
    while True:
        leaked = sorted(t.name for t in _repro_threads() - threads)
        if not leaked or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    assert not leaked, f"threads outlived the test: {leaked}"
    new_hooks = [hook for hook in _repro_gc_hooks() if hook not in hooks]
    assert not new_hooks, f"gc hooks outlived the test: {new_hooks}"
    assert phase_registry_size() == 0


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def api():
    """A live repro.service HTTP server on a free port; yields its base URL."""
    import threading

    from repro.service import Engine
    from repro.service.server import create_server

    engine = Engine(max_workers=1)
    server = create_server(engine)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        engine.close()


@pytest.fixture
def uniform_2d(rng):
    return rng.random((200, 2))


@pytest.fixture
def uniform_3d(rng):
    return rng.random((200, 3))


@pytest.fixture
def clustered_3d(rng):
    centers = rng.random((5, 3))
    pts = centers[rng.integers(0, 5, 300)] + 0.01 * rng.standard_normal((300, 3))
    return pts


def finite_points(min_n=2, max_n=80, dims=(2, 3)):
    """Hypothesis strategy: well-conditioned (n, d) float point arrays."""
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.sampled_from(list(dims)).flatmap(
            lambda d: arrays(
                dtype=np.float64,
                shape=(n, d),
                elements=st.floats(min_value=-1e3, max_value=1e3,
                                   allow_nan=False, allow_infinity=False,
                                   width=32),
            )))


# Re-exported for test modules.
points_strategy = finite_points
