"""Shared fixtures."""

import signal

import pytest

from artifact import characters


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
def cold_sp_character():
    """An empty sp_character cache before and after the test, so that a fault
    on the Sp side is neither hidden by a cached value nor left behind."""
    characters.sp_character.cache_clear()
    yield
    characters.sp_character.cache_clear()
