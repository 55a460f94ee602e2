import math

import numpy as np
import pytest

from itsub.quadrature import BAR, REL_TOL, integrate_semi_infinite


def _check(result, expected, tol=1e-10):
    assert result.converged
    assert result.value == pytest.approx(expected, abs=tol, rel=tol)
    assert result.error_estimate <= max(1e-9, REL_TOL * abs(result.value))


def test_exponential():
    _check(integrate_semi_infinite(lambda y: np.exp(-y)), 1.0)


def test_gamma_integrand():
    _check(integrate_semi_infinite(lambda y: y ** 2 * np.exp(-y)), 2.0)


def test_gaussian():
    _check(integrate_semi_infinite(lambda y: np.exp(-y * y)),
           math.sqrt(math.pi) / 2)


def test_damped_oscillation():
    _check(integrate_semi_infinite(lambda y: np.sin(y) * np.exp(-y)), 0.5)


def test_scale_parameter():
    r = integrate_semi_infinite(lambda y: np.exp(-y / 100.0), scale=100.0)
    assert r.converged
    assert r.value == pytest.approx(100.0, rel=1e-10)


def test_power_singularity():
    # int_0^inf y**(-1/2) exp(-y) dy = Gamma(1/2)
    r = integrate_semi_infinite(lambda y: np.exp(-y) / np.sqrt(y),
                                power_singularity=0.5)
    assert r.converged
    assert r.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_strong_singularity():
    # int_0^inf y**(-0.8) exp(-y) dy = Gamma(0.2)
    from scipy.special import gamma as G

    r = integrate_semi_infinite(lambda y: np.exp(-y) * y ** -0.8,
                                power_singularity=0.2)
    assert r.converged
    assert r.value == pytest.approx(G(0.2), rel=1e-8)


def test_error_estimate_is_honest():
    # |value - truth| should not exceed a few times the reported estimate
    r = integrate_semi_infinite(lambda y: np.sin(3 * y) * np.exp(-0.5 * y))
    truth = 3.0 / (0.25 + 9.0)
    assert abs(r.value - truth) <= max(10 * r.error_estimate, 1e-13)


def test_cancelling_integrand_stops_at_rounding_floor():
    # int 1e6 * (e^-y - 2 e^-2y) = 0: rounding noise of order eps * 1e6
    # sits far above ABS_TOL, so only the rounding floor can end the
    # bisection, and the reported error must still cover the value
    r = integrate_semi_infinite(
        lambda y: 1e6 * (np.exp(-y) - 2.0 * np.exp(-2.0 * y)))
    assert r.converged
    assert r.subdivisions_used < 50
    assert abs(r.value) <= r.error_estimate


def test_rounding_floor_above_the_bar_stops_unconverged():
    # int 1e8 * (e^-y - 2 e^-2y) = 0, but its rounding floor, about
    # 50 eps * 1e8, is above the 1e-8 bar: no bisection can meet the bar,
    # so the quadrature gives up after its first pass, with an error that
    # says so, instead of reporting 0 +- 5.5e-7 as converged
    r = integrate_semi_infinite(
        lambda y: 1e8 * (np.exp(-y) - 2.0 * np.exp(-2.0 * y)))
    assert not r.converged
    assert r.subdivisions_used <= 8
    assert r.error_estimate > BAR


def test_subdivision_budget_reported():
    r = integrate_semi_infinite(lambda y: np.exp(-y))
    assert r.subdivisions_used >= 1
