"""Densities of the one-sided stable subordinator, its exponentially
tempered version, and the inverse stable subordinator.

The stable density f(x, t) (Laplace transform exp(-t s**beta)) is
available as an alternating series in x * t**(-1/beta) and as a real
integral; the inverse stable density has a power series in x with a
fallback to the stable density through the first-passage identity. All
densities vanish for x <= 0 by convention. Every series in the package
is summed by sum_series.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as sp

from .quadrature import integrate_semi_infinite


class ParameterError(ValueError):
    """Process parameters outside the admissible range."""


class NonConvergenceError(RuntimeError):
    """Neither representation of a density converged."""


def converged_value(res, what):
    """The value of a quadrature or series result, or NonConvergenceError
    naming `what` when the result did not converge."""
    if not res.converged:
        raise NonConvergenceError(f"{what} did not converge")
    return res.value


@dataclass(frozen=True)
class TemperedStableParams:
    """Stability index beta in (0, 1) and tempering rate lam >= 0.

    lam = 0 denotes the untempered stable case. The Laplace symbol of
    the subordinator is (s + lam)**beta - lam**beta.
    """

    beta: float
    lam: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ParameterError(f"require 0 < beta < 1, got {self.beta}")
        if self.lam < 0.0:
            raise ParameterError(f"require lam >= 0, got {self.lam}")

    def laplace_symbol(self, s):
        return (s + self.lam) ** self.beta - self.lam ** self.beta


class SeriesEval(NamedTuple):
    value: float
    error_estimate: float
    terms: int
    converged: bool

    def scaled(self, c):
        return self._replace(value=self.value * c,
                             error_estimate=self.error_estimate * c)


_MAX_TERMS = 500
# Below this x * t**(-1/beta) the alternating series cancels too badly.
_SERIES_FLOOR = 0.1


def sum_series(term, first, max_terms, floor, rel):
    """Sum term(first) + term(first + 1) + ..., one term at a time.

    term(k) returns (log_scale, mantissa) for the term
    mantissa * exp(log_scale), so coefficients that overflow doubles on
    their own still give representable terms. The sum stops after three
    consecutive terms below 1e-15 of the running total: zero terms occur
    periodically for rational beta, so one small term proves nothing.
    The error estimate is the last term plus the cancellation error,
    1e-16 times the largest term, and the sum has converged when that
    cancellation error is within max(floor, rel * |sum|). A log_scale
    above 700 (+inf marks a term that cannot be represented) or
    max_terms terms end the sum unconverged.
    """
    total = peak = value = 0.0
    small_run = 0
    for n in range(1, max_terms + 1):
        log_scale, mantissa = term(first + n - 1)
        if log_scale > 700.0:
            return SeriesEval(total, abs(total), n, False)
        value = mantissa * math.exp(log_scale)
        total += value
        peak = max(peak, abs(value))
        if abs(value) < 1e-15 * max(abs(total), 1e-300):
            small_run += 1
        else:
            small_run = 0
        if small_run == 3:
            cancel = peak * 1e-16
            return SeriesEval(total, abs(value) + cancel, n,
                              cancel <= max(floor, rel * abs(total)))
    return SeriesEval(total, abs(value), max_terms, False)


def _saddle_exponent(z, beta):
    """Exponential decay rate of the standardized stable density near 0."""
    return (1.0 - beta) * beta ** (beta / (1.0 - beta)) * z ** (-beta / (1.0 - beta))


def _stable_saddle_std(z, beta):
    """Leading small-z saddle-point form of f(z, 1)."""
    expo = _saddle_exponent(z, beta)
    pref = (beta ** (1.0 / (2.0 - 2.0 * beta))
            / math.sqrt(2.0 * math.pi * (1.0 - beta)))
    power = z ** (-(2.0 - beta) / (2.0 - 2.0 * beta))
    if expo > 700.0:
        return 0.0
    return pref * power * math.exp(-expo)


def stable_density_series(x, t, beta):
    """Stable density f(x, t) by the alternating series.

    Uses self-similar scaling f(x, t) = t**(-1/beta) f(x t**(-1/beta), 1).
    Reliable only for x * t**(-1/beta) above a small floor; the returned
    flag reports convergence.
    """
    if x <= 0:
        return SeriesEval(0.0, 0.0, 0, True)
    if t <= 0:
        raise ParameterError(f"require t > 0, got {t}")
    u = t ** (-1.0 / beta)
    lz = math.log(x * u)

    def term(k):
        return (sp.gammaln(k * beta + 1.0) - sp.gammaln(k + 1.0)
                - (beta * k + 1.0) * lz,
                (-1.0) ** (k + 1) * math.sin(k * beta * math.pi))

    return sum_series(term, 1, _MAX_TERMS, 2e-10, 1e-9).scaled(u / math.pi)


def stable_density_integral(x, t, beta):
    """Stable density f(x, t) by the damped oscillatory integral."""
    if x <= 0:
        return 0.0
    if t <= 0:
        raise ParameterError(f"require t > 0, got {t}")
    c = math.cos(beta * math.pi)
    s = math.sin(beta * math.pi)

    def integrand(u):
        return np.exp(-u * x - t * u ** beta * c) * np.sin(t * u ** beta * s)

    res = integrate_semi_infinite(integrand, scale=max(1.0 / x, 1.0))
    return converged_value(
        res, f"stable density integral at x={x}, t={t}, beta={beta}") / math.pi


def stable_density(x, t, beta):
    """Stable density f(x, t), choosing series, integral, or the small-x
    saddle-point form automatically."""
    if x <= 0:
        return 0.0
    u = t ** (-1.0 / beta)
    z = x * u
    if z >= _SERIES_FLOOR:
        res = stable_density_series(x, t, beta)
        if res.converged:
            return res.value
    # Left tail: the density is ~exp(-E) small; once E is large both
    # exact representations cancel catastrophically in doubles and the
    # saddle-point form is accurate to ~1/E relative.
    expo = _saddle_exponent(z, beta)
    if expo > 8.0:
        return _stable_saddle_std(z, beta) * u
    try:
        return stable_density_integral(x, t, beta)
    except NonConvergenceError:
        if expo > 4.0:
            return _stable_saddle_std(z, beta) * u
        raise


def tempered_density(x, t, params):
    """Tempered stable density exp(-lam*x + lam**beta * t) * f(x, t)."""
    if x <= 0:
        return 0.0
    if t <= 0:
        raise ParameterError(f"require t > 0, got {t}")
    tilt = math.exp(-params.lam * x + params.lam ** params.beta * t)
    return tilt * stable_density(x, t, params.beta)


def inverse_stable_density_series(x, t, beta):
    """Inverse stable density by its power series in x."""
    if t <= 0:
        raise ParameterError(f"require t > 0, got {t}")
    if x < 0:
        return SeriesEval(0.0, 0.0, 0, True)
    lt_b = -beta * math.log(t)
    lx = math.log(x) if x > 0 else -math.inf

    def term(k):
        # x**(k-1), with x**0 = 1 also at x = 0
        lxk = (k - 1) * lx if k > 1 else 0.0
        return (sp.gammaln(k * beta) - sp.gammaln(float(k)) + k * lt_b + lxk,
                (-1.0) ** (k - 1) * math.sin(k * beta * math.pi))

    return sum_series(term, 1, _MAX_TERMS, 1e-11, 1e-9).scaled(1.0 / math.pi)


def inverse_stable_density(x, t, beta):
    """Inverse stable density, series with automatic fallback.

    When the power series cancels too badly (large x * t**(-beta)) the
    density is recovered from the first-passage identity
    l(x, t) = t / (beta * x) * f(t; time x), which delegates the hard
    region to the stable density dispatcher.
    """
    if x < 0:
        return 0.0
    res = inverse_stable_density_series(x, t, beta)
    if res.converged:
        return res.value
    return t / (beta * x) * stable_density(t, x, beta)
