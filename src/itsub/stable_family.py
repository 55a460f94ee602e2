"""Densities of the one-sided stable subordinator, its exponentially
tempered version, and the inverse stable subordinator.

The stable density f(x, t) (Laplace transform exp(-t s**beta)) comes
from Kanter's integral, whose integrand is positive on (0, pi) (Kanter
1975, Ann. Probab. 3; Nolan 1997, Stoch. Models 13), summed in logs; the
inverse stable density, the tests' lam = 0 reference,
has a power series in x with a fallback to f through the first-passage
identity. All densities vanish for x <= 0 by convention. Every series
in the package, this one and the density series of its_density, is
summed by sum_series_rows, a block of terms at a time for many rows.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as sp

from .quadrature import integrate_interval
from .quadrature import integrate_semi_infinite  # not called; bench/spans.py wraps this name


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
    the subordinator is (s + lam)**beta - lam**beta.
    """

    beta: float
    lam: float = 0.0

    def __post_init__(self):
        require_beta(self.beta)
        if not 0.0 <= self.lam < math.inf:
            raise ParameterError(f"require 0 <= lam < inf, got {self.lam}")

    def laplace_symbol(self, s):
        return (s + self.lam) ** self.beta - self.lam ** self.beta


def _pow1pm1(x, y, beta):
    """(1 + x + i y)**beta - 1 on arrays of real x, y, through real log1p
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


# log(sin(v) / v) = -sum_n zeta(2n) (v/pi)**(2n) / n, as a polynomial in
# v**2 with n = 10..1, highest first: full precision below v = 0.5.
_LOG_SINC = [-sp.zeta(2 * n) / (n * math.pi ** (2 * n))
             for n in range(10, 0, -1)]


def _stable_log_density(x, t, beta):
    """log f(x, t) for x > 0 by Kanter's integral, summed in logs with
    e**(-a(0) z) factored out; -inf below every double.
    NonConvergenceError when the quadrature fails.

    With s = x t**(-1/beta), z = s**-kappa, kappa = beta/(1-beta) and
    a(u) = sin(beta u)**kappa sin((1-beta) u) / sin(u)**(1/(1-beta)),
    f(x, t) = t**(-1/beta) (kappa/pi) s**(-kappa-1) int_0^pi a e**(-a z) du.
    It is taken in y at r(y) = log(a(u) / a(0)), q = log(a(0) z), over
    first panel edges set by the width of the peak of a z e**(-a z). For
    q >= 0 that peak is at u = 0 and y = u; else it is where a z = 1, at
    v* = pi - u ~ sin(beta pi) z**(1-beta), and y = v = pi - u.
    """
    require_positive("t", t)
    require_beta(beta)
    log_s = math.log(x) - math.log(t) / beta
    kappa = beta / (1.0 - beta)
    log_a0 = kappa * math.log(beta) + math.log1p(-beta)
    q = log_a0 - kappa * log_s
    if q > 700.0:
        return -math.inf
    if q >= 0.0:
        # Gaussian in u, of width (beta (e**q - 1))**-1/2 when that is small
        log_width = math.log(math.pi) - 0.5 * math.log1p(
            beta * math.expm1(q) * math.pi ** 2)
        edges = [k * math.exp(log_width) for k in (0.0, 1.0, 3.0, 9.0)]
    else:
        # e**(w - e**w) in w = log(a z) ~ log(v*/v) / (1-beta), and a
        # power tail (v*/v)**(1/(1-beta)) beyond, whose mass past V is a
        # share (v*/V)**kappa / beta: edges e**3 apart until that is tiny
        log_v = math.log(math.sin(beta * math.pi)) + (1.0 - beta) * (q - log_a0)
        log_width = math.log1p(-beta) + log_v
        logs = [log_v + (1.0 - beta) * w for w in (-4.0, -1.0, 2.0, 5.0)]
        while logs[-1] - log_v < 45.0 / kappa and logs[-1] < math.log(math.pi):
            logs.append(logs[-1] + 3.0)
        edges = [0.0] + [math.exp(e) for e in logs]
    edges = [e for e in edges if e < math.pi] + [math.pi]

    def r(y):
        # With sin(c u) = c u sinc(c u) the powers of u cancel. Each
        # log-sinc term is its Taylor series below 0.5, so r keeps its
        # relative accuracy as u -> 0; sin(u) = sin(v) keeps it as u -> pi.
        u, v = (y, math.pi - y) if q >= 0.0 else (math.pi - y, y)
        arg = np.multiply.outer((beta, 1.0 - beta, 1.0), u)
        sines = np.sin(arg)
        sines[2] = np.sin(v)
        w = arg * arg
        series = _LOG_SINC[0]
        for c in _LOG_SINC[1:]:
            series = series * w + c
        log_sinc = np.where(arg < 0.5, series * w, np.log(sines / arg))
        return np.array([kappa, 1.0, -1.0 / (1.0 - beta)]) @ log_sinc

    ez = math.exp(q)
    # Dividing a z e**(-z (a - a(0))) by its peak, e**q at u = 0 or
    # e**(e**q - 1) where a z = 1, times the peak's width keeps the
    # integral near 1, where the absolute tolerance is harmless.
    shift = (q if q >= 0.0 else math.expm1(q)) + log_width

    def integrand(y):
        # z (a - a(0)): expm1 keeps it accurate as u -> 0 at large e**q;
        # at q < 0 the plain difference does too and survives e**q = 0
        ry = r(y)
        za = ez * np.expm1(ry) if q >= 0.0 else np.exp(q + ry) - ez
        return np.exp(q + ry - za - shift)

    res = integrate_interval(integrand, edges)
    if not (res.converged and res.value > 0.0):
        raise NonConvergenceError(
            f"stable density at x={x}, t={t}, beta={beta} did not converge")
    # (kappa/pi) s**(-kappa-1) / z = kappa / (pi s)
    return (math.log(kappa / math.pi) - log_s - ez + shift
            + math.log(res.value) - math.log(t) / beta)


def stable_density(x, t, beta):
    """Stable density f(x, t), Laplace transform exp(-t s**beta), by
    Kanter's integral; 0 below double range."""
    require_finite("x", x)
    if x <= 0:
        return 0.0
    return math.exp(_stable_log_density(x, t, beta))


def tempered_density(x, t, params):
    """Tempered stable density exp(-lam*x + lam**beta * t) * f(x, t)."""
    require_finite("x", x)
    if x <= 0:
        return 0.0
    log_f = _stable_log_density(x, t, params.beta)
    return math.exp(log_f - params.lam * x + params.lam ** params.beta * t)


def inverse_stable_density_series(x, t, beta):
    """Inverse stable density as a SeriesEval by its power series in x,
    sum_k Gamma(k beta) sin(k beta pi) (-x)**(k-1) / (k-1)!
    * t**(-k beta) / pi."""
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
    """Inverse stable density, series with automatic fallback.

    When the power series cancels too badly (large x * t**(-beta)) the
    density is recovered from the first-passage identity
    l(x, t) = t / (beta * x) * f(t; time x), with f from Kanter's
    integral.
    """
    res = inverse_stable_density_series(x, t, beta)  # 0 at x < 0
    if res.converged:
        return res.value
    return t / (beta * x) * stable_density(t, x, beta)
