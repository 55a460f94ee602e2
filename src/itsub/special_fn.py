"""Gamma-family special functions, including the upper incomplete gamma
function at negative (non-integer or integer) order.

The negative-order evaluation works on the scaled quantity
g(a, u) = Gamma(a, u) * u**(-a), which stays in double range even for
very negative orders, using the downward recurrence

    g(a - 1, u) = (u * g(a, u) - exp(-u)) / (a - 1)

for u <= 1 and a Lentz-type continued fraction for u > 1, where the
recurrence amplifies rounding error.
"""

import math

from scipy import special as sp

from .stable_family import ParameterError


class GammaDomainError(ParameterError):
    """Incomplete gamma arguments outside the supported domain."""


# Refuse 0 < u below this limit for non-positive orders (u = 0 itself
# returns the exact limit); callers needing small u must use the
# asymptotic form Gamma(a, u) ~ -u**a / a explicitly.
_MIN_U_NONPOS_ORDER = 1e-8

_CF_MAX_ITER = 500
_CF_TINY = 1e-300


def _upper_gamma_cf_scaled(a, u):
    """Gamma(a, u) * u**(-a) by the Legendre continued fraction.

    Modified Lentz iteration; valid for any real a when u > 0, rapidly
    convergent for u >= |a| + 1 or so.
    """
    b = u + 1.0 - a
    c = 1.0 / _CF_TINY
    d = 1.0 / b if b != 0.0 else 1.0 / _CF_TINY
    h = d
    for i in range(1, _CF_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = b + an / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    # h approximates Gamma(a,u) * u**(-a) * exp(u) / u ... rearranged:
    # Gamma(a,u) = exp(-u) * u**a * h  =>  scaled value is exp(-u) * h.
    return math.exp(-u) * h


def _upper_gamma_scaled_nonpos(a, u):
    """g(a, u) = Gamma(a, u) * u**(-a) for a <= 0, u > 0."""
    # The downward recurrence is stable for u <= 1: u below the
    # recurrence denominators keeps the endpoint term dominant. Above it
    # the recurrence amplifies rounding, and the continued fraction
    # converges to machine accuracy there.
    if u > 1.0:
        return _upper_gamma_cf_scaled(a, u)
    emu = math.exp(-u)
    if a == math.floor(a):
        # Integer chain seeded at Gamma(0, u) = E1(u).
        g = sp.exp1(u)
        n = int(-a)
    else:
        # Seed at a0 = a + n in (1, 2], where scipy's regularized
        # gammaincc is accurate, then recur downward.
        n = math.ceil(-a) + 1
        a0 = a + n
        g = sp.gammaincc(a0, u) * sp.gamma(a0) * u ** (-a0)
    for k in range(1, n + 1):
        g = (u * g - emu) / (a + n - k)
    return g


def upper_incomplete_gamma_scaled(a, u):
    """Scaled upper incomplete gamma Gamma(a, u) * u**(-a).

    This form stays representable for very negative a where the plain
    value would overflow; as u -> 0 it tends to -1/a for a < 0, the value
    returned at u = 0.
    """
    if u == 0 and a < 0:
        return -1.0 / a
    if u <= 0:
        raise GammaDomainError(
            f"require u > 0, or u = 0 with a < 0; got a = {a}, u = {u}")
    if a > 0:
        return sp.gammaincc(a, u) * sp.gamma(a) * u ** (-a)
    if u < _MIN_U_NONPOS_ORDER:
        raise GammaDomainError(
            f"refusing Gamma(a, u) for a <= 0 and u = {u} < {_MIN_U_NONPOS_ORDER}; "
            "use the small-u asymptotic Gamma(a, u) ~ -u**a / a instead"
        )
    return _upper_gamma_scaled_nonpos(a, u)
