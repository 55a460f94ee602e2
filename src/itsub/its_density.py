"""Density of the inverse tempered stable subordinator.

The density h(x, t) of the first-passage process E(t) = inf{u : D(u) > t}
of a tempered stable subordinator D, for every lam >= 0 (lam = 0 is the
inverse stable case), is evaluated by two independent representations:
a power series in x, whose coefficients A_j also give the boundary
value and every x-derivative at 0+, and the inversion of
Psi(s)**m / s * exp(-x*Psi(s)) (m = 1 the density, m = 0 the CDF, at
every lam) by a half-line integral on the branch cut s = -lam - y, or on
the steepest-descent parabola through the real saddle point of
s t - x Psi(s). The density and the CDF (the density's series integrated
term by term) share one dispatcher, _grid: the series, then the parabola.
The branch cut is the paper's integral representation, eval_integral.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .quadrature import BAR, integrate_semi_infinite
from .quadrature import integrate_semi_infinite_rows
from .special_fn import GAMMA_REL_ERROR, upper_incomplete_gamma_scaled
from .special_fn import _log_upper_gamma_scaled_pos
from .stable_family import (
    _LOG_TINY,
    NonConvergenceError,
    ParameterError,
    require_finite,
    require_positive,
    _pow1pm1,
    sum_series_rows,
)


@dataclass(frozen=True)
class EvalPoint:
    """A (space, time) evaluation point; x >= 0 and t > 0 strictly."""

    x: float
    t: float

    def __post_init__(self):
        if not 0 <= self.x < math.inf:
            raise ParameterError(f"require 0 <= x < inf, got {self.x}")
        require_positive("t", self.t)


@dataclass(frozen=True)
class DensityResult:
    """One density evaluation: value, error estimate, and provenance."""

    value: float
    error_estimate: float
    method: str
    terms_or_panels: int


# The series runs first where x * lam**beta is at most this.
_SERIES_MAX_X_LAM_BETA = 2.0


def _cut_integrand(m, t, params):
    """f(x, y) = Im[z**m * exp(x*z - t*(y+lam))] / (y+lam) with
    z = lam**beta - y**beta * exp(-i*beta*pi), the value of -Psi(s) just
    below the branch cut s = -lam - y; x and y broadcast."""
    beta, lam = params.beta, params.lam
    lb = lam ** beta
    turn = cmath.exp(-1j * beta * math.pi)

    def integrand(x, y):
        z = lb - y ** beta * turn
        return (z ** m * np.exp(x * z - t * (y + lam))).imag / (y + lam)

    return integrand


def _branch_cut(m, x, t, params):
    """(1/pi) int_0^inf _cut_integrand(m, t, params)(x, y) dy: m = 1 gives
    h(x, t), m = 0 the CDF, and m = k+1 at x = 0 the k-th x-derivative at
    0+. (value, error, panels), or None where the quadrature did not
    converge."""
    f = _cut_integrand(m, t, params)
    r = integrate_semi_infinite(lambda y: f(x, y), 1.0 / t, params.beta)
    return (r.value / math.pi, r.error_estimate / math.pi,
            r.subdivisions_used) if r.converged else None


def _line(m, x, t, params):
    """(c, w, phi(c), Psi(c)**m / c, log B) of _saddle's contour at x.

    c is the saddle point s* of phi(s) = s t - x Psi(s), a = s* + lam =
    (x beta / t)**(1/(1-beta)) kept in e**(+-700) and above 1e-15 lam, and
    w = phi''(s*)**-0.5 its width, inf from e**709 up. B bounds |I| on any
    contour: at m = 0 |I| is the tail of E(t) on c's side of the pole at 0,
    e**phi(c) by Chernoff, and c moves to 2 w only where it lies within w
    of the pole and that bound at s* does not certify 0; at m = 1
    |Psi(s) / s| <= Psi(c) / c on Re s = c, so B = e**phi(c) Psi(c) J /
    (c pi), J = int_0^inf e**(-x r(y)) dy, r = Re (a+iy)**beta - a**beta,
    r' = beta rho**(beta-1) sin((1-beta) theta), a + iy = rho e**(i theta).
    For y <= a, sin((1-beta) theta) >= (1-beta) y / rho and rho <= sqrt(2) a
    give r >= k1 y**2; for y > a, theta > pi/4 and rho < sqrt(2) y give
    r >= k1 a**2 + k2 (y**beta - a**beta). So J <= a sqrt(pi) erf(q) / (2q)
    + (a/beta) e**(u - q**2) g(1/beta, u), q**2 = x k1 a**2, u = x k2 a**beta,
    k1 = beta (1-beta) 2**(beta/2) a**(beta-2) / 4, k2 = 2**((beta-1)/2)
    sin((1-beta) pi/4), g(b, u) = Gamma(b, u) u**-b; a term floored at the
    least subnormal, or taken at q = u = 0 where they underflow, still
    bounds J."""
    beta, lam = params.beta, params.lam
    la = min(max(math.log(max(x * beta / t, 1e-305)) / (1.0 - beta), -700.0),
             700.0)  # log(1e-305) / (1 - beta) < -700: the clamp holds
    c = max(math.exp(la), 1e-15 * lam) - lam
    a = c + lam
    xb = x * beta * (1 - beta)
    lw = (2 - beta) / 2 * math.log(a) - (
        math.log(xb) if xb else math.log(x) + math.log(beta * (1 - beta))) / 2
    w = math.exp(lw) if lw < 709.0 else math.inf
    psi = params.laplace_symbol(c)
    phi = c * t - x * psi
    if m == 0 and abs(c) < w < math.inf and not phi < _LOG_TINY:
        c = 2.0 * w
        phi = c * t - x * params.laplace_symbol(c)
    at_c = 1.0 / c if m == 0 else psi / c if c else beta * lam ** (beta - 1)
    if m == 0 or phi == -math.inf:
        return c, w, phi, at_c, phi
    xab = x * a ** beta
    q2 = xab * beta * (1.0 - beta) * 2.0 ** (beta / 2.0) / 4.0
    u = xab * 2.0 ** ((beta - 1.0) / 2.0) * math.sin((1 - beta) * math.pi / 4)
    if q2 and u:
        near = math.log(max(a * math.sqrt(math.pi / q2)
                            * math.erf(math.sqrt(q2)) / 2, 5e-324))
        far = (math.log(a / beta) + u - q2
               + _log_upper_gamma_scaled_pos(1 / beta, u))
    else:  # erf(q) / q <= 2 / sqrt(pi), Gamma(1/beta, u) <= Gamma(1/beta)
        k2 = 2.0 ** ((beta - 1.0) / 2.0) * math.sin((1 - beta) * math.pi / 4)
        near = math.log(a)
        far = (math.log(a / beta) + math.lgamma(1 / beta)
               - (math.log(x) + beta * math.log(a) + math.log(k2)) / beta)
    log_j = max(near, far) + math.log1p(math.exp(-abs(near - far)))
    return c, w, phi, at_c, phi + math.log(at_c / math.pi) + log_j


def _saddle(m, xs, t, params, lines, floor=_LOG_TINY):
    """The twin of _branch_cut through the saddle points c that _line gave
    at each x of xs (Daniels 1954, Ann. Math. Stat. 25; Lugannani & Rice
    1980, Adv. Appl. Probab. 12), on the steepest-descent parabola
    s = c + i y - g y**2 (Weideman & Trefethen 2007, Math. Comp. 76). Its
    curvature g = -phi'''(c) / (6 phi''(c)) = (2 - beta) / (6 a) keeps
    Im phi(s) constant to second order. I = (1/pi) int_0^inf Re[e**phi(s)
    Psi(s)**m / s ds/(i dy)] dy, ds/(i dy) = 1 + 2 i g y, is h(x, t) at
    m = 1, 1 - cdf at m = 0 and c > 0, and -cdf at c < 0. Each x is a row
    k of one integrate_semi_infinite_rows call in y / w, whose integrand
    takes c, w, phi(c) and x at its panels' rows k, with e**phi(c) and
    the value at y = 0 taken out. Per x (log |I|, error of I, panels);
    with no panel run, (-inf, 0, 0) where _line's bound is below floor (by
    default the least subnormal), and Laplace's term, the integral in
    y / w taken as sqrt(pi / 2), where the rounding of the exponent,
    eps (|c t| + |c t - phi(c)|), passes 1 and hides the integrand from
    any quadrature, with that rounding as its relative error; None where
    w is inf, at m = 0 and lam = 0 where _line moved c to 2 w, right of a
    pole that is also the branch point, and where the quadrature did not
    converge to a positive integral or its error, with the rounding of
    phi(c) and of the phase w t, is above BAR * max(1, |I|)."""
    out, run = [None] * len(lines), []
    for i, (c, w, phi, at_c, log_b) in enumerate(lines):
        noise = 2.2e-16 * (abs(c * t) + abs(c * t - phi))
        if log_b < floor:
            out[i] = (-math.inf, 0.0, 0)
        elif w == math.inf or m == 0 and params.lam == 0 and c == 2.0 * w:
            continue
        elif noise > 1.0:
            log_i = phi + math.log(abs(at_c) * w / math.sqrt(2 * math.pi))
            out[i] = (log_i, math.exp(log_i) * noise, 0)
        else:
            run.append(i)
    if not run:
        return out
    x = np.array([xs[i] for i in run])
    cs, ws, _, at_cs, _ = np.array([lines[i] for i in run]).T
    beta, a = params.beta, cs + params.lam
    ga, psi = (2.0 - beta) / 6.0, at_cs * cs  # g a

    def integrand(k, v):
        """Re[e**(phi(s) - phi(c)) Psi(s)**m / s ds/(i dy)] / at_c at
        y = w v, rows k: s - c = a (b + i u) with u = y / a, b = -g a u**2,
        and Psi(s) - Psi(c) = a**beta ((1 + b + i u)**beta - 1)."""
        u = ws[k] * v / a[k]
        b = -ga * u * u
        e = a[k] ** beta * _pow1pm1(b, u, beta)
        zeta = a[k] * (b + 1j * u)
        z = np.exp(zeta * t - x[k] * e) * (1 + 2j * ga * u) / (cs[k] + zeta)
        return (z * (psi[k] + e) if m else z).real / at_cs[k]

    quads = integrate_semi_infinite_rows(integrand, len(run), 1.0)
    for i, res in zip(run, quads):
        c, w, phi, at_c, _ = lines[i]
        if res.converged and res.value > 0.0:
            log_i = float(phi + math.log(abs(at_c) * w / math.pi)
                          + math.log(res.value))
            value, ct = math.exp(log_i), c * t
            err = float(value * (res.error_estimate / res.value + 2.2e-16 * (
                abs(ct) + abs(ct - phi) + w * t + abs(log_i) + 4.0)))
            if err <= BAR * max(1.0, value):
                out[i] = (log_i, err, res.subdivisions_used)
    return out


@functools.lru_cache(maxsize=256)
def _coefficients(t, params):
    """(log|A_j|, sign) for j = 1, 2, ... at (t, params), by a function of
    j1 that returns a read-only (8 x n) array, n >= j1 - 1, for
    A_j = Gamma(1+beta*j) * lam**(beta*j) * Gamma(-beta*j, lam*t)
    * sin(j*beta*pi), with lam**(beta*j) * Gamma(-beta*j, u)
    = t**(-beta*j) * g(-beta*j, u) from the scaled gamma g; the sign is
    times (-1)**(j-1), and the parts of _series' terms that depend on j
    alone follow: the log scale, +inf where A_j underflowed at large
    lam * t though its sine is not 0, its abs, then lgamma(j+1-m) and
    6 lgamma(j+1-m) + 2 j beta |log t| at m = 0 and 1. The sine, taken at
    j*beta less its nearest integer, is 0 at integer j*beta, and then no g
    is computed. The incomplete gamma calls are kept for the next point at
    the same (beta, lam, t): the array grows by just the j < j1 it lacks."""
    held = [np.empty((8, 0))]

    def upto(j1):
        have = held[0]
        if j1 - 1 > have.shape[1]:
            js = np.arange(have.shape[1] + 1, j1)
            jb = js * params.beta
            n = np.round(jb)
            sn = np.where((n + js) % 2, 1.0, -1.0) * np.sin(np.pi * (jb - n))
            g = [upper_incomplete_gamma_scaled(-a, params.lam * t) if s
                 else 0.0 for a, s in zip(jb.tolist(), sn.tolist())]
            with np.errstate(divide="ignore"):
                la = (sp.gammaln(1.0 + jb) - jb * math.log(t)
                      + np.log(np.abs(sn)) + np.log(g))
            scale = np.where((la == -np.inf) & (sn != 0.0), np.inf, la)
            lg = sp.gammaln([js + 1, js])
            lr = 6.0 * lg + js * (2 * params.beta * abs(math.log(t)))
            held[0] = have = np.hstack(
                [have, [la, np.sign(sn), scale, abs(scale), *lg, *lr]])
            have.setflags(write=False)
        return have

    return upto


def eval_integral(p, params):
    """Density h(x, t) by the branch-cut integral with m = 1.

    The exp(lam**beta * x - lam * t) factor stays inside the integrand's
    exponent, so large x cannot overflow the panel evaluations.
    """
    if p.x <= 0:
        raise ParameterError("integral form needs x > 0; use boundary_value")
    res = _branch_cut(1, p.x, p.t, params)
    if res is None:
        raise NonConvergenceError(
            f"density integral at x={p.x}, t={p.t}, beta={params.beta}, "
            f"lam={params.lam} did not converge")
    return DensityResult(res[0], res[1], "integral", res[2])


def _series(m, xs, t, params):
    """The series at every x of xs, one row each of sum_series_rows: per x
    a DensityResult, or None where the sum's error is above max(1e-13/pi,
    BAR * |sum|) or it did not converge otherwise. m = 1 sums h
    (eval_series), m = 0 its integral from 0, the CDF: the j-th term of h
    is the x-derivative of (-1)**(j-1) A_j e**(lam**beta x) x**j / (j! pi).
    Its j-only parts come from _coefficients, where an A_j that underflowed
    at large lam * t has log scale +inf, which ends the row unconverged."""
    # rel: the gamma's bound (0 where A_j is exact) plus eps times the parts
    # of the log scale, which cancel: |lw| + 2 lg for lw, lg = lgamma(j+1-m),
    # |la| + 2 (lgamma(j+1) + j beta |log t|) for la; 6 lg covers 4 lg at
    # m = 0, and at m = 1 lgamma(j+1) = lg + log j, log j <= lg + 1
    rel = GAMMA_REL_ERROR if params.lam > 0 else 0.0
    x = np.asarray(xs, dtype=float)[:, None]
    lbx = params.lam ** params.beta * x
    lpref = lbx - math.log(math.pi)

    def block(js, rows):
        la, abs_la, sign, lg, lr = _coefficients(t, params)(js[-1] + 1)[
            [2, 3, 1, 4 + m, 6 + m], js[0] - 1:js[-1]]
        lp = lpref[rows]
        lw = sp.xlogy(js - m, x[rows]) - lg  # x**(j-m)/(j-m)!, 0**0 = 1
        ls = lp + la + lw + (np.log1p(lbx[rows] / js) if m else 0.0)
        return ls, sign, rel + 2.2e-16 * (np.abs(lp) + abs_la + np.abs(lw)
                                          + lr)

    rows = sum_series_rows(block, len(xs), 400, 1e-13 / math.pi, BAR,
                           _coefficients(t, params)(1).shape[1])
    return [DensityResult(r.value, r.error_estimate, "series", r.terms)
            if r.converged else None for r in rows]


def eval_series(p, params):
    """Density h(x, t) by the power series in x,
    h = (exp(lam**beta * x) / pi)
        * sum_{j>=1} A_j * (-x)**(j-1) / (j-1)! * (1 + lam**beta * x / j);
    at lam = 0 the Wright series. With the prefactor in each term the sum's
    error is h's; NonConvergenceError when it is above max(1e-13/pi, BAR*|h|),
    and the ParameterError that A_j raised.
    """
    res, = _series(1, [p.x], p.t, params)
    if res is None:
        raise NonConvergenceError(f"density series at x={p.x}, t={p.t}, "
                                  f"beta={params.beta}, lam={params.lam}")
    return res


def eval(p, params):
    """Density h(x, t) at one point: the one-row call of eval_density_grid,
    whose DensityResult it returns and whose ParameterError or
    NonConvergenceError it raises."""
    res, = eval_density_grid([p.x], p.t, params)
    if isinstance(res, Exception):
        raise res
    return res


def _grid(m, xs, t, params):
    """The density (m = 1) or the CDF (m = 0) at every x of xs, t and
    params shared: per x a DensityResult, or the ParameterError or
    NonConvergenceError raised there. x = 0 gives A_1 / pi (_at_zero) at
    m = 1, 0 at m = 0; else _series where x * lam**beta <= 2 and it
    converges, its rows summed together, and every other row from _saddle's
    parabola through the saddle point c (method saddle; a tail of 0 with
    error 0 where its bound is below double range; 1 - cdf at m = 0 and
    c > 0), its rows in lockstep. Each meets BAR * max(1, |value|) or
    raises NonConvergenceError."""
    out = [None] * len(xs)
    lb = params.lam ** params.beta
    series, rest = [], []
    for i, x in enumerate(xs):
        try:
            EvalPoint(x, t)
            if x == 0:
                out[i] = (_at_zero(0, t, params) if m
                          else DensityResult(0.0, 0.0, "boundary", 0))
            elif x * lb <= _SERIES_MAX_X_LAM_BETA:
                series.append(i)
            else:
                rest.append(i)
        except (ParameterError, NonConvergenceError) as e:
            out[i] = e
    if series:
        try:
            done = _series(m, [xs[i] for i in series], t, params)
        except ParameterError as e:
            done = [e] * len(series)
        for i, res in zip(series, done):
            out[i] = res
        rest += [i for i, res in zip(series, done) if res is None]
    lines = [_line(m, xs[i], t, params) for i in rest]
    for i, ln, res in zip(rest, lines, _saddle(m, [xs[i] for i in rest], t,
                                               params, lines)):
        if res is None:
            out[i] = NonConvergenceError(
                f"{'' if m else 'cdf '}saddle-point contour at x={xs[i]}, "
                f"t={t}, beta={params.beta}, lam={params.lam} did not "
                f"converge")
        else:
            tail = math.exp(res[0])
            out[i] = DensityResult(1.0 - tail if not m and ln[0] > 0
                                   else tail, res[1], "saddle", res[2])
    return out


def eval_density_grid(xs, t, params):
    """h(x, t) at every x of xs, t and params shared: _grid at m = 1."""
    return _grid(1, xs, t, params)


def _log_density(x, t, params, floor):
    """log h(x, t) at x, t > 0 by _grid's series, then its parabola, in
    logs: the series where x * lam**beta <= 2 and its error is within
    1e-12 of its positive sum, with no absolute floor, else log |I| from
    _saddle, -inf where _line's bound is below floor. NonConvergenceError
    where neither converged."""
    if x * params.lam ** params.beta <= _SERIES_MAX_X_LAM_BETA:
        res, = _series(1, [x], t, params)
        if (res is not None and res.value > 0.0
                and res.error_estimate <= 1e-12 * res.value):
            return math.log(res.value)
    res, = _saddle(1, [x], t, params, [_line(1, x, t, params)], floor)
    if res is None:
        raise NonConvergenceError(
            f"log density at x={x}, t={t}, {params} did not converge")
    return res[0]


def boundary_value(t, params):
    """lim_{x -> 0+} h(x, t) = A_1 / pi = (sin(beta*pi)/pi) * lam**beta
    * Gamma(1+beta) * Gamma(-beta, lam*t), t**(-beta) / Gamma(1-beta) at
    lam = 0."""
    return eval(EvalPoint(0.0, t), params).value


def _at_zero(k, t, params):
    """The k-th x-derivative of h(x, t) at 0+ (k = 0: A_1 / pi), method
    boundary: the series' sum_j C(k,j) lam**(beta*(k-j)) (-1)**j (A_{j+1}
    - lam**beta A_j) / pi, A_0 = 0, by coefficient; its error is each
    term's gamma bound and the rounding of its exp(log|A_m|).
    NonConvergenceError where it overflows a double."""
    lb = params.lam ** params.beta
    la, sign = _coefficients(t, params)(k + 2)[:2, :k + 1].tolist()
    try:  # sign: (-1)**(m-1) sign(A_m)
        terms = [math.comb(k + 1, m) * lb ** (k + 1 - m) * s * math.exp(a)
                 for m, a, s in zip(range(1, k + 2), la, sign)]
    except OverflowError:
        terms = [math.inf]
    value = sum(terms) / math.pi
    if not math.isfinite(value):
        raise NonConvergenceError(
            f"derivative {k} at x=0+, t={t}, beta={params.beta}, "
            f"lam={params.lam} overflows a double")
    return DensityResult(value, sum(
        (abs(v) / math.pi * (GAMMA_REL_ERROR + 2.2e-16 * (abs(a) + 4.0))
         for v, a in zip(terms, la) if v), 0.0), "boundary", 0)


def derivative_at_zero(k, t, params):
    """k-th x-derivative of h(x, t) at x = 0+, for every lam >= 0 (_at_zero).
    At lam = 0 it is (-1)**k * t**(-(k+1)*beta) / Gamma(1 - (k+1)*beta).
    NonConvergenceError where it overflows a double."""
    require_finite("k", k)
    if k < 0 or k != int(k):
        raise ParameterError(f"require integer k >= 0, got {k}")
    require_positive("t", t)
    return _at_zero(int(k), t, params).value


def cdf(x, t, params):
    """P(E(t) <= x) = P(D(x) > t) at every lam >= 0, 0 at x <= 0: the
    one-row m = 0 call of _grid, the density's series integrated term by
    term, then the parabola. NonConvergenceError where neither meets the
    bar or at a value outside [-err, 1 + err]; the clamp to [0, 1] trims
    only an overshoot within it."""
    require_finite("x", x)
    res, = _grid(0, [max(x, 0.0)], t, params)
    if isinstance(res, Exception):
        raise res
    value, err = res.value, res.error_estimate
    if not -err <= value <= 1.0 + err:
        raise NonConvergenceError(
            f"cdf at x={x}, t={t}, beta={params.beta}, lam={params.lam} gave "
            f"{value:.3g} with error {err:.3g}, outside [-err, 1 + err]")
    return min(max(value, 0.0), 1.0)
