from __future__ import annotations

import signal

import pytest

from lpcoset import (
    Permutation,
    PermutationRep,
    basilica,
    enumerate_cosets,
    grigorchuk,
    parse_subgroup,
)


@pytest.fixture(scope="session")
def bas():
    return basilica()


@pytest.fixture(scope="session")
def grig():
    return grigorchuk()


@pytest.fixture(scope="session")
def bas_u_result(bas):
    """Enumeration of the index-3 subgroup <a^3, b, aba> of the Basilica group."""
    return enumerate_cosets(bas, parse_subgroup(bas.alphabet, "a^3, b, a*b*a"))


@pytest.fixture(scope="session")
def bas_index3_rep(bas):
    """The representation a -> (1,2,3), b -> (2,3) on three points."""
    return PermutationRep(
        bas.alphabet,
        3,
        (
            Permutation.from_cycles(3, [(1, 2, 3)]),
            Permutation.from_cycles(3, [(2, 3)]),
        ),
    )


# seconds; the slowest test bounded by it takes about 2 s on a 2-vCPU host
TIME_BOUND = 60


class TimeBoundExceeded(BaseException):
    """Not an ``Exception``, so that hypothesis does not catch it and run
    the endless example again to shrink it, but fails the test at once."""


@pytest.fixture
def time_bound():
    """Fail the test once it has run ``TIME_BOUND`` seconds: a descent
    that takes its choices in the wrong order, or a coincidence loop that
    never empties its queue, need not fail a comparison, but may never
    end.  The bound is a real-time interval timer, whose SIGALRM raises in
    the test, so no thread or process is started; the previous handler is
    restored."""

    def expire(signum, frame):
        raise TimeBoundExceeded(f"the test ran past {TIME_BOUND} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
