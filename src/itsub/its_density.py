"""Density of the inverse tempered stable subordinator.

The density h(x, t) of the first-passage process E(t) = inf{u : D(u) > t}
of a tempered stable subordinator D, for every lam >= 0 (lam = 0 is the
inverse stable case), is evaluated by two independent representations:
a power series in x, whose coefficients A_j also give the boundary
value and every x-derivative at 0+, and the inversion of
Psi(s)/s * exp(-x*Psi(s)) along the branch cut s = -lam - y, where one
half-line integral gives the density and the CDF. Where they fail, a
positive integral over the last jump across t, with the density of D(x)
from Kanter's integral, gives h and the CDF.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .quadrature import (
    BAR,
    integrate_interval,
    integrate_semi_infinite,  # not called; bench/spans.py wraps this name
    integrate_semi_infinite_rows,
)
from .special_fn import GAMMA_REL_ERROR, upper_incomplete_gamma_scaled
from .stable_family import (
    NonConvergenceError,
    ParameterError,
    _stable_log_density,
    _stable_survival,
    converged_value,
    require_finite,
    require_positive,
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


def _branch_cut(m, xs, t, params):
    """(1/pi) int_0^inf _cut_integrand(m, t, params)(x, y) dy at every x of
    xs, rows of one integrate_semi_infinite_rows call: m = 1 gives h(x, t),
    m = 0 the CDF, and m = k+1 at x = 0 the k-th x-derivative at 0+. Per x
    (value, error, panels), or None where the quadrature did not converge.
    """
    quads = integrate_semi_infinite_rows(_cut_integrand(m, t, params), xs,
                                         1.0 / t, params.beta)
    return [(r.value / math.pi, r.error_estimate / math.pi,
             r.subdivisions_used) if r.converged else None for r in quads]


@functools.lru_cache(maxsize=256)
def _coefficients(j0, j1, t, params):
    """(log|A_j|, sign) for j0 <= j < j1 as a read-only (2 x j) array, for
    A_j = Gamma(1+beta*j) * lam**(beta*j) * Gamma(-beta*j, lam*t)
    * sin(j*beta*pi), with lam**(beta*j) * Gamma(-beta*j, u)
    = t**(-beta*j) * g(-beta*j, u) from the scaled gamma g. The sine,
    taken at j*beta less its nearest integer, is exactly 0 at integer
    j*beta, and then no g is computed; an A_j that underflows at large
    lam * t is (-inf, its sign). Each g is an incomplete gamma call, so a
    block is kept for the next point at the same (beta, lam, t)."""
    jb = np.arange(j0, j1) * params.beta
    n = np.round(jb)
    sn = np.where(n % 2, -1.0, 1.0) * np.sin(math.pi * (jb - n))
    g = [upper_incomplete_gamma_scaled(-a, params.lam * t) if s else 0.0
         for a, s in zip(jb.tolist(), sn.tolist())]
    with np.errstate(divide="ignore"):
        la = (sp.gammaln(1.0 + jb) - jb * math.log(t) + np.log(np.abs(sn))
              + np.log(g))
    block = np.array([la, np.sign(sn)])
    block.setflags(write=False)
    return block


def eval_integral(p, params):
    """Density h(x, t) by the branch-cut integral with m = 1.

    The exp(lam**beta * x - lam * t) factor stays inside the integrand's
    exponent, so large x cannot overflow the panel evaluations.
    """
    if p.x <= 0:
        raise ParameterError("integral form needs x > 0; use boundary_value")
    res, = _branch_cut(1, [p.x], p.t, params)
    if res is None:
        raise NonConvergenceError(
            f"density integral at x={p.x}, t={p.t}, beta={params.beta}, "
            f"lam={params.lam} did not converge")
    return DensityResult(res[0], res[1], "integral", res[2])


def _series(xs, t, params):
    """eval_series at every x of xs, one row each of sum_series_rows: per
    x its DensityResult, or None where the sum did not converge. An A_j
    that underflowed at large lam * t gets log scale +inf, which ends
    the row unconverged."""
    beta, lam = params.beta, params.lam
    lb = lam ** beta
    # rel: the gamma's bound (0 where A_j is exact) plus eps times the parts
    # of the log scale, which cancel: |lw| + 2 lgamma(j) for lw, |la|
    # + 2 (lgamma(j) + log j + j beta |log t|) for la, log j <= lgamma(j) + 1
    rel, lt = GAMMA_REL_ERROR if lam > 0 else 0.0, 2 * beta * abs(math.log(t))
    x = np.asarray(xs, dtype=float)[:, None]
    lpref = lb * x - math.log(math.pi)

    def block(js, rows):
        la, sign = _coefficients(int(js[0]), int(js[-1]) + 1, t, params)
        la = np.where((la == -np.inf) & (sign != 0.0), np.inf, la)
        lg = sp.gammaln(js)
        xr, lp = x[rows], lpref[rows]
        lw = sp.xlogy(js - 1.0, xr) - lg  # x**(j-1)/(j-1)!, 0**0 = 1
        ls = lp + la + lw + np.log1p(lb * xr / js)
        parts = np.abs(lp) + np.abs(la) + np.abs(lw) + (6.0 * lg + js * lt)
        return ls, np.where(js % 2, sign, -sign), rel + 2.2e-16 * parts

    rows = sum_series_rows(block, len(xs), 400, 1e-13 / math.pi, BAR)
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
    res, = _series([p.x], p.t, params)
    if res is None:
        raise NonConvergenceError(f"density series at x={p.x}, t={p.t}, "
                                  f"beta={params.beta}, lam={params.lam}")
    return res


def _last_jump(density, x, t, params):
    """(log I, error of I, panels) for I = int_0^t w(t-y) g_x(y) dy,
    g_x(y) = e**(lam**beta x - lam y) f(y; time x) the density of D(x) by
    Kanter's integral: h(x, t) with w the Levy tail beta r**-beta
    g(-beta, lam r) / Gamma(1-beta) (Meerschaert & Scheffler 2008, Stoch.
    Proc. Appl. 118), or P(D(x) < t) with w = 1. (-inf, 0, panels) below
    double range; NonConvergenceError at an error above BAR * max(1, I)."""
    beta, lam = params.beta, params.lam
    # Edges at D(x)'s mean + k sd, k = 0, +-1, +-4, +-16, ..., keep a
    # panel from stepping over its peak, and t (1 - 4**-k) over one at t.
    ys = [t * (1.0 - 4.0 ** -k) for k in range(1, 13)]
    if lam > 0:
        mean = beta * lam ** (beta - 1.0) * x
        sd = math.sqrt((1.0 - beta) / lam * mean)
        ks = [0.0] + [s * 4.0 ** j for j in range(25) for s in (-1.0, 1.0)]
        ys += [mean + k * sd for k in ks]
    # In s = (t - y)**(1 - beta) the Levy tail's r**-beta at y = t is gone:
    # w dy = beta g / Gamma(2 - beta) ds.
    p = 1.0 - beta if density else 1.0
    edges = sorted({0.0, t ** p} | {(t - y) ** p for y in ys if 0.0 < y < t})
    # The shift is the largest log of the first call, which holds every
    # edge panel; below the floor, I is below the least subnormal, e**-746.
    floor = -746.0 - math.log(edges[-1])
    shift, kanter = None, 0.0  # kanter: Kanter's error where it counts

    def integrand(s):
        """e**(log of the integrand - shift), or 0 below the floor."""
        nonlocal shift, kanter
        logs = []
        for si in s.tolist():
            r = si ** (1.0 / p)
            lf, err = (_stable_log_density(t - r, x, beta) if r < t
                       else (-math.inf, 0.0))
            w = (upper_incomplete_gamma_scaled(-beta, lam * r) * beta
                 / math.gamma(2.0 - beta) if density else 1.0)
            lf += lam ** beta * x - lam * (t - r)
            logs.append((lf + math.log(w) if w > 0.0 else -math.inf, err))
        lf, err = np.array(logs).T
        if shift is None:
            shift = float(lf.max())
        if shift < floor:
            return np.zeros_like(lf)
        kanter = max(kanter, err[lf > shift - 40].max(initial=0.0))
        return np.exp(lf - shift)

    res = integrate_interval(integrand, edges)
    if shift < floor:
        return -math.inf, 0.0, res.subdivisions_used
    what = f"last-jump integral at x={x}, t={t}, beta={beta}, lam={lam}"
    log_i = shift + math.log(converged_value(res, what))
    value = math.exp(log_i)
    # Kanter's error where the integrand counts, the gamma's bound and the
    # rounding of exp(log I)
    err = value * (
        res.error_estimate / res.value + GAMMA_REL_ERROR + math.expm1(kanter)
        + 2.2e-16 * (abs(log_i) + 4.0))
    if err > BAR * max(1.0, value):
        raise NonConvergenceError(f"{what}: error {err:.3g} above the bar")
    return log_i, err, res.subdivisions_used


def _boundary(t, params):
    """h(0+, t) = A_1 / pi, with the gamma's bound plus the rounding of
    exp(log A_1) as its error."""
    la = float(_coefficients(1, 2, t, params)[0, 0])
    value = math.exp(la) / math.pi
    rel = GAMMA_REL_ERROR + 2.2e-16 * (abs(la) + 4.0) if value else 0.0
    return DensityResult(value, value * rel, "boundary", 0)


def eval(p, params):
    """Density h(x, t) at one point: the one-row call of eval_density_grid,
    whose DensityResult it returns and whose ParameterError or
    NonConvergenceError it raises."""
    res, = eval_density_grid([p.x], p.t, params)
    if isinstance(res, Exception):
        raise res
    return res


def eval_density_grid(xs, t, params):
    """Density h(x, t) at every x of xs, t and params shared: per x a
    DensityResult, or the ParameterError or NonConvergenceError raised
    there. x = 0 gives A_1 / pi (_boundary); else the first to converge of
    the series where x * lam**beta <= _SERIES_MAX_X_LAM_BETA, its rows
    summed together, the branch-cut integral, its rows in lockstep, and
    the last-jump integral, per x (method positive; 0 with error 0 below
    double range). Each meets the bar BAR * max(1, |value|) itself or
    raises NonConvergenceError."""
    out = [None] * len(xs)
    lb = params.lam ** params.beta
    series, cut = [], []
    for i, x in enumerate(xs):
        try:
            EvalPoint(x, t)
            if x == 0:
                out[i] = _boundary(t, params)
            elif x * lb <= _SERIES_MAX_X_LAM_BETA:
                series.append(i)
            else:
                cut.append(i)
        except ParameterError as e:
            out[i] = e
    if series:
        try:
            done = _series([xs[i] for i in series], t, params)
        except ParameterError as e:
            done = [e] * len(series)
        for i, res in zip(series, done):
            out[i] = res
        cut += [i for i, res in zip(series, done) if res is None]
    if not cut:
        return out
    cut_xs = [xs[i] for i in cut]
    for i, x, res in zip(cut, cut_xs, _branch_cut(1, cut_xs, t, params)):
        if res is not None:
            out[i] = DensityResult(res[0], res[1], "integral", res[2])
            continue
        try:
            log_h, err, panels = _last_jump(True, x, t, params)
            out[i] = DensityResult(math.exp(log_h), err, "positive", panels)
        except (NonConvergenceError, ParameterError) as e:
            out[i] = e
    return out


def boundary_value(t, params):
    """lim_{x -> 0+} h(x, t) = A_1 / pi = (sin(beta*pi)/pi) * lam**beta
    * Gamma(1+beta) * Gamma(-beta, lam*t), t**(-beta) / Gamma(1-beta) at
    lam = 0."""
    return eval(EvalPoint(0.0, t), params).value


def derivative_at_zero(k, t, params):
    """k-th x-derivative of h(x, t) at x = 0+, for every lam >= 0: the
    series' sum_j C(k,j) lam**(beta*(k-j)) (-1)**j (A_{j+1} - lam**beta A_j)
    / pi, A_0 = 0, collected by coefficient. At lam = 0 it is
    (-1)**k * t**(-(k+1)*beta) / Gamma(1 - (k+1)*beta). NonConvergenceError
    where it overflows a double.
    """
    require_finite("k", k)
    if k < 0 or k != int(k):
        raise ParameterError(f"require integer k >= 0, got {k}")
    require_positive("t", t)
    k = int(k)
    lb = params.lam ** params.beta
    terms = zip(range(1, k + 2), *_coefficients(1, k + 2, t, params).tolist())
    try:
        value = sum((-1.0) ** (m - 1) * math.comb(k + 1, m)
                    * lb ** (k + 1 - m) * sign * math.exp(la)
                    for m, la, sign in terms) / math.pi
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NonConvergenceError(
            f"derivative {k} at x=0+, t={t}, beta={params.beta}, "
            f"lam={params.lam} overflows a double")
    return value


def cdf(x, t, params):
    """P(E(t) <= x): at lam = 0 P(D(x) > t), the stable survival function
    by Kanter's integral; at lam > 0 the branch-cut integral with m = 0,
    or 1 - P(D(x) < t) by the last-jump integral where that does not
    converge, each within the bar. NonConvergenceError at a value outside
    [-err, 1 + err]; the clamp to [0, 1] trims only an overshoot within it.
    """
    require_finite("x", x)
    require_positive("t", t)
    if x <= 0:
        return 0.0
    beta, lam = params.beta, params.lam
    if lam == 0:
        value, err = _stable_survival(t, x, beta)
    else:
        res, = _branch_cut(0, [x], t, params)
        if res is None:
            log_i, err, _ = _last_jump(False, x, t, params)
            value = 1.0 - math.exp(log_i)
        else:
            value, err, _ = res
    if not -err <= value <= 1.0 + err:
        raise NonConvergenceError(
            f"cdf at x={x}, t={t}, beta={beta}, lam={lam} gave {value:.3g} "
            f"with error {err:.3g}, outside [-err, 1 + err]")
    return min(max(value, 0.0), 1.0)
