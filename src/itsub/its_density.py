"""Density of the inverse tempered stable subordinator.

The density h(x, t) of the first-passage process E(t) = inf{u : D(u) > t}
of a tempered stable subordinator D, for every lam >= 0 (lam = 0 is the
inverse stable case), is evaluated by two independent representations:
a power series in x whose coefficients involve upper incomplete gamma
functions of negative order, and the inversion of
Psi(s)/s * exp(-x*Psi(s)) along the branch cut s = -lam - y. On that
cut one half-line integral gives the density, its x-derivatives at
0+ and the CDF. The boundary value at x = 0 has a closed form.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .quadrature import integrate_semi_infinite
from .special_fn import upper_incomplete_gamma_scaled
from .stable_family import (
    NonConvergenceError,
    ParameterError,
    _stable_log_density,
    _stable_survival,
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
# lam * t is 0 or at least the floor below which the incomplete gamma
# refuses.
_SERIES_MAX_X_LAM_BETA = 2.0
_SERIES_MIN_LAM_T = 1e-6
_SERIES_MAX_TERMS = 400


def _accurate(res):
    """Whether a density result meets the 1e-8 relative bar of eval."""
    return res.error_estimate <= 1e-8 * max(1.0, abs(res.value))


def _branch_cut(m, x, t, params, what):
    """(1/pi) int_0^inf Im[z**m * exp(x*z - t*(y+lam))] / (y+lam) dy with
    z = lam**beta - y**beta * exp(-i*beta*pi), the value of
    -Psi(s) just below the branch cut s = -lam - y.

    m = 1 gives h(x, t), m = k+1 at x = 0 the k-th x-derivative at 0+,
    m = 0 the CDF. Returns (value, error, panels); NonConvergenceError
    naming `what` when the quadrature did not converge.
    """
    beta, lam = params.beta, params.lam
    lb = lam ** beta
    turn = cmath.exp(-1j * beta * math.pi)

    def integrand(y):
        z = lb - y ** beta * turn
        return (z ** m * np.exp(x * z - t * (y + lam))).imag / (y + lam)

    res = integrate_semi_infinite(integrand, 1.0 / t, beta)
    value = converged_value(
        res, f"{what} at x={x}, t={t}, beta={beta}, lam={lam}")
    return value / math.pi, res.error_estimate / math.pi, res.subdivisions_used


def eval_integral(p, params):
    """Density h(x, t) by the branch-cut integral with m = 1.

    The exp(lam**beta * x - lam * t) factor stays inside the integrand's
    exponent, so large x cannot overflow the panel evaluations.
    """
    if p.x <= 0:
        raise ParameterError("integral form needs x > 0; use boundary_value")
    value, err, panels = _branch_cut(1, p.x, p.t, params, "density integral")
    return DensityResult(value, err, "integral", panels)


def eval_series(p, params):
    """Density h(x, t) by the power series in x.

    h = (exp(lam**beta * x) / pi)
        * sum_{j>=1} A_j * (-x)**(j-1) / (j-1)! * (1 + lam**beta * x / j)
    with A_j = Gamma(1+beta*j) * lam**(beta*j) * Gamma(-beta*j, lam*t)
    * sin(j*beta*pi); at lam = 0 each term is the Wright series term of
    the inverse stable density. The error estimate is the last term
    summed plus the cancellation error; NonConvergenceError when the
    sum did not converge.
    """
    beta, lam = params.beta, params.lam
    x, t = p.x, p.t
    u = lam * t
    lt = math.log(t)
    lb = lam ** beta
    lx = math.log(x) if x > 0 else -math.inf

    def term(j):
        """(log|term_j|, sign); one coefficient A_j per term.

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
        lw = (j - 1) * lx - math.lgamma(j) if j > 1 else 0.0  # x**(j-1)/(j-1)!
        return (math.lgamma(1.0 + beta * j) - beta * j * lt + math.log(g)
                + math.log(abs(sn)) + lw + math.log1p(lb * x / j),
                (-1.0) ** (j - 1) * math.copysign(1.0, sn))

    res = sum_series(term, 1, _SERIES_MAX_TERMS, 1e-13, 1e-8)
    value = converged_value(
        res, f"density series at x={x}, t={t}, beta={beta}, lam={lam}")
    pref = math.exp(lb * x) / math.pi
    return DensityResult(pref * value, pref * res.error_estimate, "series",
                         res.terms)


def eval(p, params):
    """Density h(x, t), dispatching between series and integral.

    Exact x = 0 routes to boundary_value; the series handles small
    x * lam**beta, the integral the rest. Either form is accepted at an
    error within 1e-8 * max(1, |value|). When neither meets that bar,
    lam = 0 falls back to the first-passage identity
    h = t / (beta * x) * f(t; time x), f from Kanter's integral with its
    own error; lam > 0 returns a series that converged but missed the
    bar, or raises NonConvergenceError.
    """
    if p.x == 0:
        return DensityResult(boundary_value(p.t, params), 1e-12, "boundary", 0)
    beta, lam = params.beta, params.lam
    series = None
    if (p.x * lam ** beta <= _SERIES_MAX_X_LAM_BETA
            and not 0.0 < lam * p.t < _SERIES_MIN_LAM_T):
        try:
            series = eval_series(p, params)
        except NonConvergenceError:
            pass
        else:
            if _accurate(series):
                return series
    try:
        integral = eval_integral(p, params)
        if _accurate(integral):
            return integral
        raise NonConvergenceError(
            f"density integral at x={p.x}, t={p.t}, beta={beta}, lam={lam} "
            f"gave {integral.value:.3g} with error "
            f"{integral.error_estimate:.3g}, above 1e-8 * max(1, |value|)")
    except NonConvergenceError:
        if lam == 0:
            log_f, err = _stable_log_density(p.t, p.x, beta)
            value = p.t / (beta * p.x) * math.exp(log_f)
            # below double range the value is 0, and so is its error
            err = value * math.expm1(err) if value > 0.0 else 0.0
            return DensityResult(value, err, "first_passage", 0)
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

    For lam > 0 and k >= 1 this is the branch-cut integral with m = k+1
    at x = 0; k = 0 is boundary_value. For lam = 0 the density is an
    entire function of x, and the closed form
    (-1)**k * t**(-(k+1)*beta) / Gamma(1 - (k+1)*beta) holds for every k.
    """
    if k < 0 or k != int(k):
        raise ParameterError(f"require integer k >= 0, got {k}")
    if t <= 0:
        raise ParameterError(f"require t > 0, got {t}")
    k = int(k)
    beta, lam = params.beta, params.lam
    if lam == 0:
        return (-1.0) ** k * t ** (-(k + 1) * beta) * sp.rgamma(1.0 - (k + 1) * beta)
    if k == 0:
        return boundary_value(t, params)
    return _branch_cut(k + 1, 0.0, t, params, f"derivative {k} integral")[0]


def cdf(x, t, params):
    """P(E(t) <= x).

    At lam = 0 this is P(D(x) > t), the stable survival function by
    Kanter's integral; at lam > 0 the branch-cut integral with m = 0.
    NonConvergenceError when the error exceeds 1e-8; the clamp to [0, 1]
    then trims only an overshoot within that error.
    """
    if t <= 0:
        raise ParameterError(f"require t > 0, got {t}")
    if x <= 0:
        return 0.0
    beta, lam = params.beta, params.lam
    if lam == 0:
        value, err = _stable_survival(t, x, beta)
    elif lam ** beta * x > 20.0:
        # The direct integral carries an exp(lam**beta * x) prefactor
        # against a cancelling oscillatory integral; far in the tail the
        # complementary form P(E(t) > x) = P(D(x) < t) is stable instead.
        from scipy.integrate import quad as _quad

        from .stable_family import tempered_density

        tail, _ = _quad(lambda v: tempered_density(v, x, params), 0.0, t,
                        limit=200)
        return min(max(1.0 - tail, 0.0), 1.0)
    else:
        value, err, _ = _branch_cut(0, x, t, params, "cdf integral")
    if err > 1e-8:
        raise NonConvergenceError(
            f"cdf at x={x}, t={t}, beta={beta}, lam={lam} gave "
            f"{value:.3g} with error {err:.3g}, above 1e-8")
    return min(max(value, 0.0), 1.0)
