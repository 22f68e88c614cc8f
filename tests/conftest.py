"""Fixtures shared by the test modules: hypothesis strategies for the
property tests of the inversion, each skipping the test that requests it
when hypothesis is missing, a wall-clock limit, and the two sides of the
composition identity.
"""

import contextlib
import math
import signal

import pytest

from moq import distortion, validate_params


@pytest.fixture
def log_uniform_vectors():
    """q <= 6 parameters, each log-uniform in [1e-3, 1e3]."""
    st = pytest.importorskip("hypothesis").strategies
    return st.integers(1, 6).flatmap(
        lambda q: st.lists(st.floats(-3.0, 3.0), min_size=q, max_size=q)
    ).map(lambda e: validate_params(len(e), [10.0**x for x in e]))


@pytest.fixture
def lower_levels():
    """Levels in [1e-300, 1/2], log-uniform or uniform."""
    st = pytest.importorskip("hypothesis").strategies
    return st.lists(
        st.one_of(st.floats(-300.0, math.log10(0.5)).map(lambda e: 10.0**e), st.floats(1e-300, 0.5)),
        min_size=1,
        max_size=16,
    )


@pytest.fixture
def composition_pair():
    """(T_a(T_{b,..,b}(u)), T_{b a}(u)) for a vector a, a scale b > 0 and
    u in [0, 1]; the two agree analytically.  Composing with the
    equal-parameter map rescales every parameter by b, which is what makes
    the random-maxima construction closed over the equal-parameter
    subfamily."""

    def pair(pv, b: float, u):
        inner = validate_params(pv.q, (b,) * pv.q)
        scaled = validate_params(pv.q, tuple(b * ai for ai in pv.a))
        return distortion(pv, distortion(inner, u)), distortion(scaled, u)

    return pair


@pytest.fixture
def wall_clock_limit():
    """A context manager that raises TimeoutError in a block still running
    after ``seconds``, so that a call that would not return fails its test
    instead of stalling the suite (SIGALRM: Unix, main thread)."""

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
