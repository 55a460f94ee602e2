"""Densities of the one-sided stable subordinator, its exponentially
tempered version, and the inverse stable subordinator.

All three come from its_density's dispatcher at lam = 0: the inverse
stable density is h(x, t) there, and the stable density f(x, t), Laplace
transform exp(-t s**beta), is beta t / x h(t, x) by the first-passage
identity, taken in logs, so that it stays accurate far below double
range; the tempered density adds -lam x + lam**beta t to log f (Rosinski
2007, Stoch. Proc. Appl. 117). inverse_stable_density_series, the Wright
series on coefficients of its own, is the tests' independent lam = 0
reference. All densities vanish for x <= 0 by convention. Every series
in the package, that one and the density series of its_density, is
summed by sum_series_rows, a block of terms at a time for many rows.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as sp

from .quadrature import integrate_semi_infinite  # not called; bench/spans.py wraps this name


_EPS = sys.float_info.epsilon


class ParameterError(ValueError):
    """Process parameters outside the admissible range."""


def require_positive(name, v):
    """ParameterError unless 0 < v < inf; nan fails too."""
    if not 0.0 < v < math.inf:
        raise ParameterError(f"require 0 < {name} < inf, got {v}")


def require_beta(beta):
    """ParameterError unless 0 < beta < 1; nan fails too."""
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"require 0 < beta < 1, got {beta}")


def require_finite(name, v):
    """ParameterError unless v is finite; nan and +-inf fail."""
    if not abs(v) < math.inf:
        raise ParameterError(f"require finite {name}, got {v}")


class NonConvergenceError(RuntimeError):
    """Neither representation of a density converged."""


@dataclass(frozen=True)
class TemperedStableParams:
    """Stability index beta in (0, 1) and tempering rate lam >= 0.

    lam = 0 denotes the untempered stable case. The Laplace symbol of
    the subordinator is (s + lam)**beta - lam**beta (laplace_symbol).
    """

    beta: float
    lam: float = 0.0

    def __post_init__(self):
        require_beta(self.beta)
        if not 0.0 <= self.lam < math.inf:
            raise ParameterError(f"require 0 <= lam < inf, got {self.lam}")

    def laplace_symbol(self, s):
        """Psi(s) = (s + lam)**beta - lam**beta at a real or complex s, or
        an array of them. Where |s| < lam / eps it is lam**beta
        ((1 + s / lam)**beta - 1) through log1p and expm1, math's for a
        float or int s > -lam and _pow1pm1 otherwise (the real part for a
        real array, whose s must lie right of -lam), so that |s| << lam
        loses nothing to the cancellation; farther out s / lam can
        overflow, and there the direct form has nothing left to cancel."""
        beta, lam = self.beta, self.lam
        if isinstance(s, (float, int)):
            return (lam ** beta * math.expm1(beta * math.log1p(s / lam))
                    if -lam < s < lam / _EPS else
                    (s + lam) ** beta - lam ** beta)
        near = np.abs(s) < lam / _EPS
        if not near.all():
            out = (s + lam) ** beta - lam ** beta
            if near.any():
                out[near] = self.laplace_symbol(s[near])
            return out
        u = s / lam
        out = lam ** beta * _pow1pm1(u.real, u.imag, beta)
        return out.real if np.isrealobj(s) else out


def _pow1pm1(x, y, beta):
    """(1 + x + i y)**beta - 1 at real x, y or arrays of them, through log1p
    and expm1, so that |x + i y| << 1 loses nothing to the cancellation."""
    try:  # p = beta log|1 + x + iy|, from hypot where the sum overflows
        with np.errstate(over="raise"):
            p = 0.5 * beta * np.log1p(x * (2.0 + x) + y * y)
    except FloatingPointError:
        with np.errstate(over="ignore"):
            p = 0.5 * beta * np.log1p(x * (2.0 + x) + y * y)
        p = np.where(p < np.inf, p, beta * np.log(np.hypot(1.0 + x, y)))
    q = beta * np.arctan2(y, 1.0 + x)                  # beta arg(1 + x + iy)
    return (np.expm1(p) * np.cos(q) - 2.0 * np.sin(q / 2) ** 2
            + 1j * np.exp(p) * np.sin(q))


class SeriesEval(NamedTuple):
    value: float
    error_estimate: float
    terms: int
    converged: bool


_SERIES_BLOCK = 32  # terms per round of sum_series_rows
# The log of the least subnormal double: a bound below it certifies a 0.
_LOG_TINY = math.log(5e-324)


def sum_series_rows(block, n_rows, max_terms, floor, rel, known=0):
    """Sum n_rows series term(1) + term(2) + ..., _SERIES_BLOCK terms a
    round, the first over the `known` terms block has at hand (at most
    max_terms over all rows), and return each row's SeriesEval. block(js,
    rows) gives (log_scale, mantissa, rel_j) of the terms mantissa *
    exp(log_scale) at the j of js in the rows still summing (indices
    rows): log_scale (rows x j), the others broadcasting to it, and rel_j
    a term's error before the exp, which keeps terms of overflowing
    coefficients representable. A row stops after three terms in a row
    below 1e-15 of its sum (zero terms recur for rational beta). Its error
    is the last term plus the sum of (rel_j + eps (|log_scale| + 4))
    |term|, each term's error and the rounding of its exp and its addition
    (Higham 2002, ch. 4); it has converged when that is within max(floor,
    rel * |sum|). max_terms terms end a row unconverged, as does a
    log_scale above 700, with the sum before it as value and error. A
    row's sums run along that row alone."""
    out = [None] * n_rows
    live = np.arange(n_rows)  # the rows still summing,
    acc = np.zeros((2, n_rows, 1))  # their sum and rounding so far
    last = np.zeros((n_rows, 2), dtype=bool)  # and last two small flags
    j0, step = 1, max(_SERIES_BLOCK, min(known, max_terms // max(n_rows, 1)))
    while len(live) and j0 <= max_terms:
        js = np.arange(j0, min(j0 + step, max_terms + 1))
        log_scale, mantissa, rel_j = block(js, live)
        with np.errstate(over="ignore", invalid="ignore"):
            big = log_scale > 700.0
            v = np.where(big, 0.0, mantissa * np.exp(log_scale))
            own = (rel_j + 2.2e-16 * (np.abs(log_scale) + 4.0)) * np.abs(v)
            # a zero term's log_scale may be -inf
            acc = np.concatenate([acc, np.stack(
                [v, np.where(v != 0.0, own, 0.0)])], axis=2).cumsum(axis=2)
            sums, rnd = acc[:, :, 1:]
            small = np.hstack([last, np.abs(v) < 1e-15 * np.maximum(
                np.abs(sums), 1e-300)])
        three = small[:, 2:] & small[:, 1:-1] & small[:, :-2]
        stop = big | three
        stop[:, -1] |= js[-1] == max_terms
        done = stop.any(axis=1)
        r, k = np.flatnonzero(done), stop[done].argmax(axis=1)
        total, big, three = sums[r, k], big[r, k], three[r, k]
        err = np.where(big, np.abs(total), np.abs(v[r, k]) + rnd[r, k])
        ok = three & ~big & (err <= np.maximum(floor, rel * np.abs(total)))
        for i, *res in zip(live[r].tolist(), total.tolist(), err.tolist(),
                           (k + j0).tolist(), ok.tolist()):
            out[i] = SeriesEval(*res)
        live, acc, last = live[~done], acc[:, ~done, -1:], small[~done, -2:]
        j0, step = j0 + step, _SERIES_BLOCK
    return out


def _stable_log_density(x, t, beta, tilt=0.0, floor=-math.inf):
    """log f(x, t) + tilt for x > 0 by the first-passage identity
    f(x; t) = beta t / x h(t, x) at lam = 0, with log h from its_density's
    series, then its parabola, in logs: accurate far below double range,
    and -inf where the bound of log h lies below floor less the log
    prefactor log(beta t / x) + tilt. NonConvergenceError where neither
    converged."""
    from .its_density import _log_density  # its_density imports this module

    require_positive("t", t)
    params = TemperedStableParams(beta)
    pref = math.log(beta) + math.log(t) - math.log(x) + tilt
    return pref + _log_density(t, x, params, floor - pref)


def stable_density(x, t, beta):
    """Stable density f(x, t), Laplace transform exp(-t s**beta), by the
    first-passage identity; 0 below double range."""
    return tempered_density(x, t, TemperedStableParams(beta))


def tempered_density(x, t, params):
    """Tempered stable density exp(-lam*x + lam**beta * t) * f(x, t), the
    tilt added to log f; 0 below double range."""
    require_finite("x", x)
    if x <= 0:
        return 0.0
    tilt = params.lam ** params.beta * t - params.lam * x
    return math.exp(_stable_log_density(x, t, params.beta, tilt, _LOG_TINY))


def inverse_stable_density_series(x, t, beta):
    """Inverse stable density as a SeriesEval by its power series in x,
    sum_k Gamma(k beta) sin(k beta pi) (-x)**(k-1) / (k-1)!
    * t**(-k beta) / pi, on coefficients of its own."""
    require_finite("x", x)
    require_positive("t", t)
    require_beta(beta)
    if x < 0:
        return SeriesEval(0.0, 0.0, 0, True)
    lt_b = -beta * math.log(t)

    def block(ks, rows):
        # x**(k-1), with x**0 = 1 also at x = 0; rel: eps times the parts
        # of the log scale, which cancel
        parts = (sp.gammaln(ks * beta), -sp.gammaln(ks), ks * lt_b,
                 sp.xlogy(ks - 1.0, x), -math.log(math.pi))
        return (sum(parts)[None, :],
                np.where(ks % 2, 1.0, -1.0) * np.sin(ks * beta * math.pi),
                2.2e-16 * sum(map(np.abs, parts)))

    return sum_series_rows(block, 1, 500, 1e-11 / math.pi, 1e-9)[0]


def inverse_stable_density(x, t, beta):
    """Inverse stable density h(x, t) at lam = 0, 0 at x < 0: the one-row
    call of its_density's dispatcher, the Wright series, then the
    steepest-descent parabola."""
    from .its_density import EvalPoint, eval as eval_density

    require_finite("x", x)
    p, params = EvalPoint(max(x, 0.0), t), TemperedStableParams(beta)
    return eval_density(p, params).value if x >= 0 else 0.0
