"""``security._brentq`` against its oracle, ``scipy.optimize.brentq``.

The port must repeat scipy's Brent steps exactly: every root is compared
with ``==``, every error by type and message, and every run by the number
of calls it makes to f.  The cases are fixed here, before any run.
"""

import math

import pytest
from scipy.optimize import brentq

from qkdlab.security import _brentq

SOLVER_TOL = (1e-13, 8.9e-16)          # the crossing and symmetric-point solves
SCIPY_DEFAULT_TOL = (2e-12, 4 * 2.220446049250313e-16)
LOOSE_TOL = (1e-6, 1e-10)


def _run(solver, f, a, b, xtol, rtol, maxiter):
    """(outcome, calls): the root or the error's (type, message), and how often f ran."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    try:
        outcome = solver(counted, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    except (ValueError, RuntimeError) as exc:
        outcome = (type(exc), str(exc))
    return outcome, calls


def assert_same_as_scipy(f, a, b, tol=SOLVER_TOL, maxiter=100):
    ported, ported_calls = _run(_brentq, f, a, b, *tol, maxiter)
    expected, expected_calls = _run(brentq, f, a, b, *tol, maxiter)
    assert ported == expected
    assert type(ported) is type(expected)
    assert ported_calls == expected_calls
    return ported, ported_calls


def _smooth(a, b, c):
    return lambda x: math.sin(a * x) + b * x ** 3 - c


# sin(ax) + bx^3 - c on [-1, 1.3], kept where the ends differ in sign
SMOOTH = [(a, b, c) for a in (0.5, 1.0, 2.0, 3.7, 7.3) for b in (0.0, 0.3, 1.5)
          for c in (-0.4, 0.0, 0.2, 0.9)
          if (_smooth(a, b, c)(-1.0) < 0.0) != (_smooth(a, b, c)(1.3) < 0.0)]


def test_smooth_cases_cover_the_grid():
    assert len(SMOOTH) >= 40


@pytest.mark.parametrize("tol", [SOLVER_TOL, SCIPY_DEFAULT_TOL, LOOSE_TOL],
                         ids=["solver", "scipy-default", "loose"])
@pytest.mark.parametrize("abc", SMOOTH, ids=str)
def test_smooth_roots_equal_scipy(abc, tol):
    root, _ = assert_same_as_scipy(_smooth(*abc), -1.0, 1.3, tol)
    assert isinstance(root, float)


@pytest.mark.parametrize("scale", [1e-200, 1e-300])
def test_underflowing_extrapolation_equals_scipy(scale):
    # the extrapolation's denominator underflows to 0; C divides by it and
    # bisects, the port catches ZeroDivisionError and bisects
    assert_same_as_scipy(lambda x: scale * (math.sin(2.0 * x) + 0.3 * x ** 3 - 0.2), -1.0, 1.3)


def test_exact_zero_at_a_returns_a():
    assert assert_same_as_scipy(lambda x: x, 0.0, 1.0) == (0.0, [0.0, 1.0])


def test_exact_zero_at_b_returns_b():
    assert assert_same_as_scipy(lambda x: x - 1.0, 0.0, 1.0) == (1.0, [0.0, 1.0])


def test_root_on_an_interpolation_step():
    # the first secant step from (0, -0.25), (1, 0.75) lands on 0.25 exactly
    assert assert_same_as_scipy(lambda x: x - 0.25, 0.0, 1.0) == (0.25, [0.0, 1.0, 0.25])


@pytest.mark.parametrize("maxiter", [1, 2, 3])
def test_maxiter_raises_scipy_error(maxiter):
    outcome, calls = assert_same_as_scipy(_smooth(3.7, 0.3, 0.2), -1.0, 1.3, maxiter=maxiter)
    assert outcome == (RuntimeError, f"Failed to converge after {maxiter} iterations.")
    assert len(calls) == maxiter + 2


@pytest.mark.parametrize("scale", [1.0, 1e-200], ids=["unit", "tiny"])
def test_same_sign_bracket_raises_scipy_error(scale):
    # the sign bits decide: f(a) f(b) underflows to 0 at the tiny scale
    outcome, calls = assert_same_as_scipy(lambda x: scale * (x * x + 1.0), -1.0, 1.0)
    assert outcome == (ValueError, "f(a) and f(b) must have different signs")
    assert len(calls) == 2


@pytest.mark.parametrize("f,nan_at", [
    (lambda x: math.nan if x > 0.9 else x - 0.5, 1.0),
    (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.5),
], ids=["at-b", "mid-run"])
def test_nan_raises_scipy_error(f, nan_at):
    outcome, calls = assert_same_as_scipy(f, 0.0, 1.0)
    assert outcome == (ValueError,
                       f"The function value at x={nan_at} is NaN; solver cannot continue.")
    assert calls[-1] == nan_at
