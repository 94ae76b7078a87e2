"""Shared fixtures."""

import signal

import pytest

from helpers import SWEEP_CACHES


@pytest.fixture
def time_bound():
    """time_bound(seconds) fails the test with a message once it has run that
    long, so a hang cannot stall the suite (pytest-timeout is not required)."""
    previous = signal.getsignal(signal.SIGALRM)

    def arm(seconds: float) -> None:
        def expire(signum, frame):
            pytest.fail(f"test still running after its time bound of {seconds} s")

        signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)

    yield arm
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def cold_caches():
    """Empty every cache in SWEEP_CACHES before and after the test, so that a
    fault injected by the test is neither hidden by a value that an earlier
    sweep cached nor left behind for the next test."""
    for cached in SWEEP_CACHES:
        cached.cache_clear()
    yield
    for cached in SWEEP_CACHES:
        cached.cache_clear()
