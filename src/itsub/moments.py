"""Moments of the inverse tempered stable subordinator.

The q-th raw moment M_q(t) = E[E(t)**q] has the Laplace transform
Gamma(1+q) / (s * Psi(s)**q) with Psi(s) = (s+lam)**beta - lam**beta.
Exact values come from one table kernel, `moment_table`: at lam = 0 the
transform inverts in closed form; otherwise the fixed Talbot rule runs
at 24 and at 32 nodes on one t x node numpy array, and the two sums
give the value (32 nodes), its error estimate (their gap plus the
rounding of the 32-node sum) and the check: a row whose two sums differ
by more than 1e-6 relative, or either of which is not finite, is an
`InversionError`. `moment_exact` is its one-row call. Gaver-Stehfest
is available as an independent cross-check; closed-form asymptotics
cover the small-t and large-t regimes.
"""

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as sp

from .stable_family import (
    _EPS,
    ParameterError,
    TemperedStableParams,
    require_finite,
    require_positive,
)

_MAX_Q = 50.0


class InversionError(RuntimeError):
    """Numerical Laplace inversion failed its internal consistency check."""


def _require_order(q):
    """ParameterError unless 0 < q <= 50; nan fails too."""
    if not 0.0 < q <= _MAX_Q:
        raise ParameterError(f"require 0 < q <= {_MAX_Q}, got {q}")


@dataclass(frozen=True)
class MomentQuery:
    """Moment order q in (0, 50], time t > 0, and process parameters."""

    q: float
    t: float
    params: TemperedStableParams

    def __post_init__(self):
        _require_order(self.q)
        require_positive("t", self.t)


class MomentResult(NamedTuple):
    """A moment and its error estimate, both Python floats."""

    value: float
    error_estimate: float


def moment_lt(q, s, params):
    """Laplace transform of M_q: Gamma(1+q) / (s * Psi(s)**q), Psi(s)
    from params.laplace_symbol.

    s may be complex and must be finite; real s must be positive.
    """
    require_finite("s", s)
    if s.imag == 0 and s.real <= 0:
        raise ParameterError(f"require s > 0, got {s}")
    _require_order(q)
    return sp.gamma(1.0 + q) / (s * params.laplace_symbol(s) ** q)


def _talbot_rule(n_nodes):
    """Nodes z_k and weights w_k, k = 0 .. n_nodes-1, of the fixed Talbot
    rule (Abate & Whitt 2006): f(t) ~ r/n * sum_k Re(w_k e^{t s_k} F(s_k))
    at s_k = r z_k, r = 2 n / (5 t)."""
    theta = np.arange(1, n_nodes) * (math.pi / n_nodes)
    cot = np.cos(theta) / np.sin(theta)
    z = np.concatenate(([1.0 + 0j], theta * (cot + 1j)))
    w = np.concatenate(([0.5 + 0j],
                        1.0 + 1j * (theta + (theta * cot - 1.0) * cot)))
    return z, w


def talbot_inversion(F, t, n_nodes=32):
    """Fixed-Talbot inversion of a Laplace transform F at time t.

    F must accept complex s analytically to the right of the contour's
    leftmost excursion (singularities on the negative real axis are
    fine, which covers the branch point at -lam and the pole at 0).
    n_nodes is an integer >= 1.
    """
    require_positive("t", t)
    if not (isinstance(n_nodes, numbers.Integral) and n_nodes >= 1):
        raise ParameterError(f"require integer n_nodes >= 1, got {n_nodes}")
    z, w = _talbot_rule(n_nodes)
    r = 2.0 * n_nodes / (5.0 * t)
    total = sum((cmath.exp(t * s) * F(s) * wk).real
                for s, wk in zip((r * z).tolist(), w.tolist()))
    return r / n_nodes * total


# Both rules of the moment table side by side: the first _TALBOT_CHECK
# columns hold the 24-node rule, the rest the 32-node one. t * s_k is
# 2 n z_k / 5 whatever t is, and r / n = 2 / (5 t) for both rules.
_TALBOT_CHECK = 24
_TALBOT_N = 32
_TALBOT_RULES = [_talbot_rule(n) for n in (_TALBOT_CHECK, _TALBOT_N)]
_TALBOT_TS = np.concatenate([0.4 * len(z) * z for z, _ in _TALBOT_RULES])
_TALBOT_W = np.concatenate([w for _, w in _TALBOT_RULES])


def moment_table(q, ts, params):
    """M_q(t) at every t of ts in one numpy pass: per t a MomentResult of
    Python floats, or the InversionError raised there.

    q in (0, 50] and every t finite and positive, else ParameterError.
    At lam = 0 the value is the closed form
    Gamma(1+q)/Gamma(1+q*beta) * t**(q*beta), with the rounding of its
    power as error. Otherwise it is the fixed Talbot rule at 32 nodes,
    with the 24-node sum beside it on the same t x 56 node array, and
    the error is the gap between the two plus the rounding of the
    32-node sum: each term's relative error eps * (|t s - q log Psi| + 16),
    from its exponent and about 16 other roundings, and the summation's
    n * eps * sum |term| (Higham 2002, ch. 4). A row is an InversionError
    where the two sums differ by more than 1e-6 relative (the comparison
    rule is the smaller one: in fixed-precision arithmetic Talbot
    roundoff grows exponentially with the node count, so doubling the
    nodes degrades rather than refines), or where the value or its
    error is not finite. A row depends on its t alone, so a table row
    has the same bits as the one-row call at its t.
    """
    _require_order(q)
    t = np.asarray(ts, dtype=float).ravel()
    for v in t.tolist():
        require_positive("t", v)
    beta, lam = params.beta, params.lam
    with np.errstate(all="ignore"):
        if lam == 0.0:
            value = (sp.gamma(1.0 + q) / sp.gamma(1.0 + q * beta)
                     * t ** (q * beta))
            v24 = value  # one closed form, no second rule: the gap is 0
            rounding = (q * beta * np.abs(np.log(t)) + 8.0) * _EPS * value
        else:
            s = _TALBOT_TS / t[:, None]
            exponent = _TALBOT_TS - q * np.log(params.laplace_symbol(s))
            terms = _TALBOT_W * np.exp(exponent) / s
            scale = 0.4 * sp.gamma(1.0 + q) / t
            v24 = scale * terms[:, :_TALBOT_CHECK].real.sum(axis=1)
            value = scale * terms[:, _TALBOT_CHECK:].real.sum(axis=1)
            rounding = _EPS * scale * (
                np.abs(terms[:, _TALBOT_CHECK:])
                * (np.abs(exponent[:, _TALBOT_CHECK:]) + 16.0 + _TALBOT_N)
            ).sum(axis=1)
        gap = np.abs(v24 - value)
        err = gap + rounding
        tol = 1e-6 * np.maximum(np.abs(value), 1e-300)
        ok = (gap <= tol) & np.isfinite(err)
    check = "closed form" if lam == 0.0 else "Talbot 24/32-node check"
    return [MomentResult(v, e) if good else InversionError(
                f"{check} failed at q={q}, t={tk}, beta={beta}, lam={lam}: "
                f"{a} vs {v}")
            for tk, a, v, e, good in zip(t.tolist(), v24.tolist(),
                                         value.tolist(), err.tolist(),
                                         ok.tolist())]


def gaver_stehfest_inversion(F, t, n_terms=14):
    """Gaver-Stehfest inversion on the real axis (cross-check quality).

    n_terms must be an even integer >= 2; usable precision in doubles
    tops out around n_terms = 14-16.
    """
    require_positive("t", t)
    if not (isinstance(n_terms, numbers.Integral) and n_terms >= 2
            and n_terms % 2 == 0):
        raise ParameterError(f"require even n_terms >= 2, got {n_terms}")
    ln2_t = math.log(2.0) / t
    half = n_terms // 2
    total = 0.0
    for k in range(1, n_terms + 1):
        vk = 0.0
        for j in range((k + 1) // 2, min(k, half) + 1):
            vk += (j ** half * math.factorial(2 * j)
                   / (math.factorial(half - j) * math.factorial(j)
                      * math.factorial(j - 1) * math.factorial(k - j)
                      * math.factorial(2 * j - k)))
        vk *= (-1.0) ** (k + half)
        total += vk * F(k * ln2_t)
    return ln2_t * total


def moment_exact(query):
    """M_q(t), a Python float: the one-row call of `moment_table`.

    The lam = 0 transform inverts in closed form; otherwise the fixed
    Talbot rule runs at 32 nodes and at 24 and the two must agree to
    1e-6 relative, and be finite, else InversionError.
    """
    (row,) = moment_table(query.q, [query.t], query.params)
    if isinstance(row, InversionError):
        raise row
    return row.value


def moment_asymptotic(query, regime):
    """Closed-form moment asymptotics, leading order only.

    small_t: Gamma(1+q)/Gamma(1+q*beta) * t**(q*beta)
    large_t: lam**(q*(1-beta)) / beta**q * t**q

    No correction terms are included. The exact moment over the
    small_t form is 1 + c1 + O((lam*t)**(2*beta)) with
    c1 = q * Gamma(1+q*beta) / Gamma(1+(q+1)*beta) * (lam*t)**beta,
    from expanding the transform in powers of (lam/s)**beta; c1 decays
    slowly for small beta (0.117 at q = 2, beta = 0.3, lam*t = 1e-4).
    Over the large_t form it is 1 + q**2 * (1-beta) / (2*lam*t)
    + O((lam*t)**-2), from expanding Psi(s) to second order in s.

    The large-t constant follows from the Tauberian inversion of
    M~(s) ~ lam**(q*(1-beta)) * Gamma(1+q) / beta**q * s**(-q-1): the
    Gamma(1+q) cancels against the t**q / Gamma(1+q) of the inversion,
    as the q = 1 mean asymptotic (lam**(1-beta)/beta) * t confirms.
    """
    q, t, params = query.q, query.t, query.params
    beta, lam = params.beta, params.lam
    if regime == "small_t":
        return sp.gamma(1.0 + q) / sp.gamma(1.0 + q * beta) * t ** (q * beta)
    if regime == "large_t":
        if lam == 0.0:
            raise ParameterError("large_t asymptotic needs lam > 0")
        return lam ** (q * (1.0 - beta)) / beta ** q * t ** q
    raise ParameterError(f"unknown regime {regime!r}")
