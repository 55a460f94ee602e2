import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as G

from itsub.stable_family import (
    ParameterError,
    TemperedStableParams,
    inverse_stable_density,
    stable_density,
    stable_density_series,
    sum_series,
    tempered_density,
)

# Standard (t = 1) one-sided stable density values from the convergent
# power series summed at 40-digit precision.
_STABLE_REFERENCE = [
    (0.3, 1.0, 0.11715700256591615),
    (0.5, 2.0, 0.088016331691074869),
    (0.7, 1.5, 0.18530890306577911),
    (0.85, 1.2, 0.39292958535791221),
]

# Inverse stable density values (beta, x, t) from high-precision Laplace
# inversion / first-passage identity at 40+ digits.
_INVERSE_REFERENCE = [
    (0.3, 0.5, 1.0, 0.56100164873166426),
    (0.7, 1.5, 1.0, 0.47242381177922883),
    (0.5, 1.0, 2.0, 0.35206532676429948),
    (0.9, 0.8, 1.0, 0.59406388434599549),
]


def test_params_validation():
    with pytest.raises(ParameterError):
        TemperedStableParams(0.0, 1.0)
    with pytest.raises(ParameterError):
        TemperedStableParams(1.0, 1.0)
    with pytest.raises(ParameterError):
        TemperedStableParams(0.5, -1.0)


def test_laplace_symbol():
    p = TemperedStableParams(0.5, 1.0)
    assert p.laplace_symbol(3.0) == pytest.approx(2.0 - 1.0, rel=1e-14)
    p0 = TemperedStableParams(0.4)
    assert p0.laplace_symbol(2.0) == pytest.approx(2.0 ** 0.4, rel=1e-14)


def test_stable_half_closed_form():
    # f(x, t) = t / (2 sqrt(pi)) x**(-3/2) exp(-t^2/(4x)) at beta = 1/2
    for x in (0.2, 0.5, 1.0, 3.0, 10.0):
        for t in (0.5, 1.0, 2.0):
            ref = t / (2 * math.sqrt(math.pi)) * x ** -1.5 * math.exp(
                -t * t / (4 * x))
            assert stable_density(x, t, 0.5) == pytest.approx(ref, rel=1e-8)


def test_stable_reference_values():
    for beta, x, ref in _STABLE_REFERENCE:
        assert stable_density(x, 1.0, beta) == pytest.approx(ref, rel=1e-9)


def test_stable_time_scaling():
    # f(x, t) = t**(-1/beta) f(x * t**(-1/beta), 1)
    for beta in (0.3, 0.6, 0.8):
        for t in (0.5, 2.0):
            sc = t ** (-1.0 / beta)
            lhs = stable_density(1.3, t, beta)
            rhs = sc * stable_density(1.3 * sc, 1.0, beta)
            assert lhs == pytest.approx(rhs, rel=1e-8)


def test_stable_laplace_transform():
    # int_0^inf f(x, 1, beta) exp(-s*x) dx = exp(-s**beta)
    for beta, s in [(0.3, 1.0), (0.5, 2.0), (0.7, 0.7)]:
        val, err = quad(lambda x: stable_density(x, 1.0, beta)
                        * math.exp(-s * x), 0, np.inf, limit=400)
        assert val == pytest.approx(math.exp(-s ** beta),
                                    abs=max(1e-6, 10 * err))


def test_stable_far_tail_positive_and_decaying():
    # deep left tail handled by the saddle-point branch
    v1 = stable_density(0.02, 1.0, 0.6)
    v2 = stable_density(0.01, 1.0, 0.6)
    assert 0 <= v2 < v1


def test_tempered_density_tilting():
    params = TemperedStableParams(0.6, 1.5)
    x, t = 0.8, 1.0
    ref = math.exp(-1.5 * x + 1.5 ** 0.6 * t) * stable_density(x, t, 0.6)
    assert tempered_density(x, t, params) == pytest.approx(ref, rel=1e-12)


def test_tempered_density_normalizes():
    params = TemperedStableParams(0.5, 1.0)
    val, err = quad(lambda x: tempered_density(x, 1.0, params),
                    0, np.inf, limit=400)
    assert val == pytest.approx(1.0, abs=max(1e-8, 10 * err))


def test_inverse_stable_reference_values():
    for beta, x, t, ref in _INVERSE_REFERENCE:
        assert inverse_stable_density(x, t, beta) == pytest.approx(
            ref, rel=1e-9)


def test_inverse_stable_at_zero():
    # l(0, t) = t**(-beta) / Gamma(1 - beta)
    for beta in (0.3, 0.5, 0.7):
        for t in (0.5, 1.0, 2.0):
            ref = t ** -beta / G(1.0 - beta)
            assert inverse_stable_density(0.0, t, beta) == pytest.approx(
                ref, rel=1e-10)


def test_inverse_stable_half_gaussian():
    # beta = 1/2: l(x, t) = exp(-x^2 / 4t) / sqrt(pi * t)
    for x in (0.0, 0.3, 1.0, 2.5):
        for t in (0.5, 1.0, 3.0):
            ref = math.exp(-x * x / (4 * t)) / math.sqrt(math.pi * t)
            assert inverse_stable_density(x, t, 0.5) == pytest.approx(
                ref, rel=1e-9)


def test_inverse_stable_normalizes():
    for beta in (0.4, 0.8):
        val, err = quad(lambda x: inverse_stable_density(x, 1.0, beta),
                        0, np.inf, limit=400)
        assert val == pytest.approx(1.0, abs=max(1e-6, 10 * err))


def test_inverse_stable_smooth_across_dispatch():
    # no spikes where the series hands over to the identity fallback
    for beta in (0.3, 0.6, 0.9):
        xs = np.linspace(0.05, 4.0, 300)
        vals = np.array([inverse_stable_density(x, 1.0, beta) for x in xs])
        assert np.all(vals >= 0)
        # where the density is non-negligible its log must bend smoothly;
        # a dispatch glitch would show as a kink in the second difference
        live = vals > 1e-12
        assert np.all(np.abs(np.diff(np.log(vals[live]), 2)) < 0.5)


def test_argument_validation():
    # densities vanish off the support; bad time parameters raise
    assert stable_density(-1.0, 1.0, 0.5) == 0.0
    assert inverse_stable_density(-0.5, 1.0, 0.5) == 0.0
    with pytest.raises(ParameterError):
        stable_density(1.0, -1.0, 0.5)
    with pytest.raises(ParameterError):
        inverse_stable_density(0.5, -1.0, 0.5)


def test_sum_series_exponential():
    # sum_k (-x)**k / k! = exp(-x); the sum stops after the first run of
    # three terms below 1e-15 of the total
    x = 2.0

    def size(k):
        return x ** k / math.factorial(k)

    res = sum_series(lambda k: (k * math.log(x) - math.lgamma(k + 1.0),
                                (-1.0) ** k), 0, 100, 1e-13, 1e-8)
    assert res.converged
    assert res.value == pytest.approx(math.exp(-x), rel=1e-14)
    n = res.terms
    small = 1e-15 * math.exp(-x)
    assert all(size(k) < small for k in (n - 3, n - 2, n - 1))
    assert size(n - 4) > small
    assert res.error_estimate < 1e-15


def test_sum_series_unconverged_endings():
    # a term whose log scale passes 700 ends the sum unconverged
    res = sum_series(lambda k: (701.0 if k == 3 else -k, 1.0),
                     1, 100, 1e-13, 1e-8)
    assert not res.converged
    assert res.terms == 3
    assert math.isfinite(res.value)
    # so does running out of terms (the harmonic series)
    res = sum_series(lambda k: (-math.log(k), 1.0), 1, 50, 1e-13, 1e-8)
    assert not res.converged
    assert res.terms == 50


def test_stable_series_passes_zero_terms():
    # at beta = 1/2 every even term is exactly zero; the series must run
    # on to the closed form f(x, 1) = x**(-3/2) exp(-1/(4x)) / (2 sqrt(pi))
    for x in (0.5, 1.0, 3.0):
        res = stable_density_series(x, 1.0, 0.5)
        ref = x ** -1.5 * math.exp(-0.25 / x) / (2 * math.sqrt(math.pi))
        assert res.converged
        assert res.value == pytest.approx(ref, rel=1e-12)
        assert res.terms > 6
