"""Moments of the inverse tempered stable subordinator.

The q-th raw moment M_q(t) = E[E(t)**q] has the Laplace transform
Gamma(1+q) / (s * Psi(s)**q) with Psi(s) = (s+lam)**beta - lam**beta.
Exact values come from numerical inversion of that transform (fixed
Talbot contour, validated by doubling the node count, with
Gaver-Stehfest available as an independent cross-check); closed-form
asymptotics cover the small-t and large-t regimes.
"""

import cmath
import math
from dataclasses import dataclass

from scipy import special as sp

from .stable_family import ParameterError, TemperedStableParams

_MAX_Q = 50.0


class InversionError(RuntimeError):
    """Numerical Laplace inversion failed its internal consistency check."""


@dataclass(frozen=True)
class MomentQuery:
    """Moment order q in (0, 50], time t > 0, and process parameters."""

    q: float
    t: float
    params: TemperedStableParams

    def __post_init__(self):
        if not 0.0 < self.q <= _MAX_Q:
            raise ParameterError(f"require 0 < q <= {_MAX_Q}, got {self.q}")
        if self.t <= 0:
            raise ParameterError(f"require t > 0, got {self.t}")


def moment_lt(q, s, params):
    """Laplace transform of M_q: Gamma(1+q) / (s * Psi(s)**q).

    s may be complex; real s must be positive.
    """
    if s.imag == 0 and s.real <= 0:
        raise ParameterError(f"require s > 0, got {s}")
    if not 0.0 < q <= _MAX_Q:
        raise ParameterError(f"require 0 < q <= {_MAX_Q}, got {q}")
    return sp.gamma(1.0 + q) / (s * params.laplace_symbol(s) ** q)


def talbot_inversion(F, t, n_nodes=32):
    """Fixed-Talbot inversion of a Laplace transform F at time t.

    F must accept complex s analytically to the right of the contour's
    leftmost excursion (singularities on the negative real axis are
    fine, which covers the branch point at -lam and the pole at 0).
    """
    if t <= 0:
        raise ParameterError(f"require t > 0, got {t}")
    r = 2.0 * n_nodes / (5.0 * t)
    total = 0.5 * (F(complex(r, 0.0)) * cmath.exp(r * t)).real
    for k in range(1, n_nodes):
        theta = k * math.pi / n_nodes
        cot = math.cos(theta) / math.sin(theta)
        s = r * theta * complex(cot, 1.0)
        sigma = theta + (theta * cot - 1.0) * cot
        total += (cmath.exp(t * s) * F(s) * complex(1.0, sigma)).real
    return r / n_nodes * total


def gaver_stehfest_inversion(F, t, n_terms=14):
    """Gaver-Stehfest inversion on the real axis (cross-check quality).

    n_terms must be even; usable precision in doubles tops out around
    n_terms = 14-16.
    """
    if t <= 0:
        raise ParameterError(f"require t > 0, got {t}")
    if n_terms % 2 != 0:
        raise ParameterError("n_terms must be even")
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
    """M_q(t) by numerical Laplace inversion.

    The lam = 0 transform inverts in closed form; otherwise the fixed
    Talbot rule runs at 32 nodes and at 24 and the two must agree to
    1e-6 relative, else InversionError. (The comparison rule is the
    smaller one: in fixed-precision arithmetic Talbot roundoff grows
    exponentially with the node count, so doubling the nodes degrades
    rather than refines.)
    """
    q, t, params = query.q, query.t, query.params
    beta, lam = params.beta, params.lam
    if lam == 0.0:
        return sp.gamma(1.0 + q) / sp.gamma(1.0 + q * beta) * t ** (q * beta)

    def F(s):
        return moment_lt(q, s, params)

    v1 = talbot_inversion(F, t, 24)
    v2 = talbot_inversion(F, t, 32)
    if abs(v1 - v2) > 1e-6 * max(abs(v2), 1e-300):
        raise InversionError(
            f"Talbot node-doubling check failed at q={q}, t={t}, "
            f"beta={beta}, lam={lam}: {v1} vs {v2}"
        )
    return v2


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
