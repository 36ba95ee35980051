import signal

import hypothesis
import numpy as np
import pytest

from robust_select import Scenario, UniformMatroid

hypothesis.settings.register_profile("ci", deadline=None, max_examples=100)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def tiny():
    """Two agents on the x axis, three actions; action 2 is the unique
    max-min optimum under a rank-1 constraint."""
    return Scenario.from_coords(
        agents=[(0.0, 0.0), (10.0, 0.0)],
        actions=[(0.0, 0.0), (10.0, 0.0), (5.0, 5.0)],
        matroid=UniformMatroid(3, 1),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240)


@pytest.fixture
def deadline():
    """Fails a test that is still running after 10 s with TimeoutError
    (SIGALRM), so that a hang fails instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError("still running after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
