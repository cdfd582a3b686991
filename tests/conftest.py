import threading

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that ends with a thread alive that it did not start with:
    PPO's worker thread lives only as long as one update."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads still alive after the test: {leaked}"
