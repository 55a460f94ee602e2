"""Density of the inverse tempered stable subordinator.

The density h(x, t) of the first-passage process E(t) = inf{u : D(u) > t}
of a tempered stable subordinator D is evaluated by two independent
representations: a real integral over the half line and a power series
in x whose coefficients involve upper incomplete gamma functions of
negative order. Boundary behaviour at x = 0 (value, derivatives) and the
CDF complete the picture.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .quadrature import integrate_semi_infinite
from .special_fn import upper_incomplete_gamma_scaled
from .stable_family import (
    NonConvergenceError,
    ParameterError,
    converged_value,
    sum_series,
)


@dataclass(frozen=True)
class EvalPoint:
    """A (space, time) evaluation point; x >= 0 and t > 0 strictly."""

    x: float
    t: float

    def __post_init__(self):
        if self.x < 0:
            raise ParameterError(f"require x >= 0, got {self.x}")
        if self.t <= 0:
            raise ParameterError(f"require t > 0, got {self.t}")


@dataclass(frozen=True)
class DensityResult:
    """One density evaluation: value, error estimate, and provenance."""

    value: float
    error_estimate: float
    method: str
    terms_or_panels: int


# The series runs first where x * lam**beta is at most this, and where
# lam * t is at least the floor below which the incomplete gamma refuses.
_SERIES_MAX_X_LAM_BETA = 2.0
_SERIES_MIN_LAM_T = 1e-6
_SERIES_MAX_TERMS = 400


def _require_tempered(params):
    if params.lam <= 0:
        raise ParameterError(
            "tempered density requires lam > 0; use the inverse stable "
            "density for lam = 0"
        )


def eval_integral(p, params):
    """Density h(x, t) by the half-line integral representation.

    h = (exp(lam**beta * x - lam * t) / pi) * I with
    I = int_0^inf exp(-t*y - x*y**beta*cos(beta*pi)) / (y + lam)
        * [lam**beta * sin(x*y**beta*sin(beta*pi))
           + y**beta * sin(beta*pi - x*y**beta*sin(beta*pi))] dy.
    """
    _require_tempered(params)
    if p.x <= 0:
        raise ParameterError("integral form needs x > 0; use boundary_value")
    beta, lam = params.beta, params.lam
    x, t = p.x, p.t
    c = math.cos(beta * math.pi)
    s = math.sin(beta * math.pi)
    lb = lam ** beta
    # Fold the exp(lam**beta * x - lam * t) prefactor into the integrand
    # exponent so large x cannot overflow the panel evaluations.
    shift = lb * x - lam * t

    def integrand(y):
        yb = y ** beta
        phase = x * yb * s
        return (np.exp(shift - t * y - x * yb * c) / (y + lam)
                * (lb * np.sin(phase) + yb * np.sin(beta * math.pi - phase)))

    res = integrate_semi_infinite(integrand, 1.0 / t, beta)
    value = converged_value(
        res, f"density integral at x={x}, t={t}, beta={beta}, lam={lam}")
    return DensityResult(value / math.pi, res.error_estimate / math.pi,
                         "integral", res.subdivisions_used)


def eval_series(p, params):
    """Density h(x, t) by the power series in x.

    h = (exp(lam**beta * x) / pi) * sum_k (-1)**k x**k / k! * (A_{k+1} - A_k)
    with A_j = Gamma(1+beta*j) * lam**(beta*j) * Gamma(-beta*j, lam*t)
    * sin(j*beta*pi). The error estimate is the last term summed plus the
    cancellation error; NonConvergenceError when the sum did not converge.
    """
    _require_tempered(params)
    beta, lam = params.beta, params.lam
    x, t = p.x, p.t
    u = lam * t
    lt = math.log(t)
    # The k-th term carries lam**(beta*(k+1)) against both bracket halves;
    # A_k only absorbs lam**(beta*k), so the trailing half gains lam**beta.
    log_lb = beta * math.log(lam)
    lx = math.log(x) if x > 0 else -math.inf

    @functools.cache
    def log_coefficient(j):
        """(log|A_j|, sign of A_j), computed when the sum first needs A_j.

        The incomplete gamma enters through its scaled form
        lam**(beta*j) * Gamma(-beta*j, u) = t**(-beta*j) * g(-beta*j, u),
        which keeps every factor in double range.
        """
        sn = math.sin(j * beta * math.pi)
        if sn == 0.0:
            return -math.inf, 0.0
        g = upper_incomplete_gamma_scaled(-beta * j, u)
        if g <= 0.0:
            # g underflows at large lam * t; A_j has no usable log then,
            # and +inf ends the sum unconverged.
            return math.inf, 0.0
        return (sp.gammaln(1.0 + beta * j) - beta * j * lt
                + math.log(g) + math.log(abs(sn))), math.copysign(1.0, sn)

    def term(k):
        if k > 0 and x == 0:
            return -math.inf, 0.0
        lw = k * lx - sp.gammaln(k + 1.0) if k > 0 else 0.0  # x**k / k!
        la, sa = log_coefficient(k + 1)
        lb, sb = log_coefficient(k)
        la, lb = la + lw, lb + lw + log_lb
        top = max(la, lb)
        if math.isinf(top):
            return top, 0.0
        return top, (-1.0) ** k * (sa * math.exp(la - top)
                                   - sb * math.exp(lb - top))

    res = sum_series(term, 0, _SERIES_MAX_TERMS, 1e-13, 1e-8)
    value = converged_value(
        res, f"density series at x={x}, t={t}, beta={beta}, lam={lam}")
    pref = math.exp(lam ** beta * x) / math.pi
    return DensityResult(pref * value, pref * res.error_estimate, "series",
                         res.terms)


def eval(p, params):
    """Density h(x, t), dispatching between series and integral.

    Exact x = 0 routes to boundary_value; the series handles small
    x * lam**beta, the integral the rest. A series that converged but
    misses 1e-8 relative is returned only when the integral fails;
    NonConvergenceError when neither form converged.
    """
    _require_tempered(params)
    if p.x == 0:
        return DensityResult(boundary_value(p.t, params), 1e-12, "series", 1)
    series = None
    if (p.x * params.lam ** params.beta <= _SERIES_MAX_X_LAM_BETA
            and params.lam * p.t >= _SERIES_MIN_LAM_T):
        try:
            series = eval_series(p, params)
        except NonConvergenceError:
            pass
        else:
            if series.error_estimate <= 1e-8 * max(1.0, abs(series.value)):
                return series
    try:
        return eval_integral(p, params)
    except NonConvergenceError:
        if series is None:
            raise
        return series


def boundary_value(t, params):
    """lim_{x -> 0+} h(x, t) = (sin(beta*pi)/pi) * lam**beta * Gamma(1+beta)
    * Gamma(-beta, lam*t).

    For lam * t below the incomplete-gamma floor the small-argument
    expansion of the scaled gamma is used; the lam -> 0 limit is
    t**(-beta) / Gamma(1 - beta).
    """
    if t <= 0:
        raise ParameterError(f"require t > 0, got {t}")
    beta, lam = params.beta, params.lam
    if lam < 0:
        raise ParameterError(f"require lam >= 0, got {lam}")
    u = lam * t
    if u < 1e-8:
        # g(-beta, u) = Gamma(-beta, u) * u**beta -> 1/beta as u -> 0.
        g = 1.0 / beta + sp.gamma(-beta) * u ** beta + u / (1.0 - beta)
    else:
        g = upper_incomplete_gamma_scaled(-beta, u)
    return (math.sin(beta * math.pi) / math.pi
            * sp.gamma(1.0 + beta) * t ** (-beta) * g)


def derivative_at_zero(k, t, params):
    """k-th x-derivative of h(x, t) at x = 0+.

    For lam > 0 this is the half-line integral
        (exp(-lam*t)/pi) * int_0^inf exp(-t*y)/(y+lam) * rho**k
            * [lam**beta * sin(k*alpha)
               + y**beta * sin(beta*pi - k*alpha)] dy
    with rho, alpha the polar form of lam**beta - y**beta * exp(i*beta*pi)
    (alpha from the two-argument arctangent). For lam = 0 the closed form
    (-1)**k * t**(-(k+1)*beta) / Gamma(1 - (k+1)*beta) applies while
    (k+1)*beta <= 1.
    """
    if k < 0 or k != int(k):
        raise ParameterError(f"require integer k >= 0, got {k}")
    if t <= 0:
        raise ParameterError(f"require t > 0, got {t}")
    k = int(k)
    beta, lam = params.beta, params.lam
    if lam == 0:
        if (k + 1) * beta > 1.0:
            raise ParameterError(
                f"derivative order k={k} needs (k+1)*beta <= 1 when lam=0, "
                f"got beta={beta}"
            )
        return (-1.0) ** k * t ** (-(k + 1) * beta) * sp.rgamma(1.0 - (k + 1) * beta)
    if k == 0:
        return boundary_value(t, params)
    c = math.cos(beta * math.pi)
    s = math.sin(beta * math.pi)
    lb = lam ** beta

    def integrand(y):
        yb = y ** beta
        rho = np.sqrt(lb * lb + yb * yb - 2.0 * lb * yb * c)
        alpha = np.arctan2(yb * s, lb - yb * c)
        ka = k * alpha
        return (np.exp(-t * y) / (y + lam) * rho ** k
                * (lb * np.sin(ka) + yb * np.sin(beta * math.pi - ka)))

    res = integrate_semi_infinite(integrand, 1.0 / t, beta)
    return math.exp(-lam * t) / math.pi * converged_value(
        res, f"derivative integral at k={k}, t={t}, beta={beta}, lam={lam}")


def cdf(x, t, params):
    """P(E(t) <= x) by the half-line integral

    (exp(lam**beta * x) / pi) * int_0^inf exp(-t*(lam+u))/(lam+u)
        * exp(-x*u**beta*cos(beta*pi)) * sin(x*u**beta*sin(beta*pi)) du.
    """
    if t <= 0:
        raise ParameterError(f"require t > 0, got {t}")
    if x <= 0:
        return 0.0
    beta, lam = params.beta, params.lam
    if lam ** beta * x > 20.0:
        # The direct integral carries an exp(lam**beta * x) prefactor
        # against a cancelling oscillatory integral; far in the tail the
        # complementary form P(E(t) > x) = P(D(x) < t) is stable instead.
        from scipy.integrate import quad as _quad

        from .stable_family import tempered_density

        tail, _ = _quad(lambda v: tempered_density(v, x, params), 0.0, t,
                        limit=200)
        return min(max(1.0 - tail, 0.0), 1.0)
    c = math.cos(beta * math.pi)
    s = math.sin(beta * math.pi)

    def integrand(u):
        ub = u ** beta
        return (np.exp(-t * (lam + u) - x * ub * c) / (lam + u)
                * np.sin(x * ub * s))

    res = integrate_semi_infinite(integrand, 1.0 / t, beta)
    value = math.exp(lam ** beta * x) / math.pi * converged_value(
        res, f"cdf integral at x={x}, t={t}, beta={beta}, lam={lam}")
    return min(max(value, 0.0), 1.0)
