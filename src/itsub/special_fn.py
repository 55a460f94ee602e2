"""Gamma-family special functions, including the upper incomplete gamma
function at negative (non-integer or integer) order.

The negative-order evaluation works on the scaled quantity
g(a, u) = Gamma(a, u) * u**(-a), which stays in double range even for
very negative orders, using the downward recurrence

    g(a - 1, u) = (u * g(a, u) - exp(-u)) / (a - 1)

for u <= 1 and a Lentz-type continued fraction for u > 1, where the
recurrence amplifies rounding error. The recurrence carries u * g, which
stays finite as u -> 0, so every u down to the smallest normal double is
served.
"""

import math
import sys

from scipy import special as sp

from .stable_family import ParameterError


class GammaDomainError(ParameterError):
    """Incomplete gamma arguments outside the supported domain."""


# Relative error bound of upper_incomplete_gamma_scaled for a <= 0: the
# worst against mpmath over a = -beta * j (11 beta in [0.02, 0.98], j <= 200)
# and u in [1e-300, 700] is 2.8e-14, at a = -0.02, u = 0.999.
GAMMA_REL_ERROR = 5e-14

_CF_MAX_ITER = 500
_CF_TINY = 1e-300


def _upper_gamma_cf(a, u):
    """Gamma(a, u) * u**(-a) * exp(u) by the Legendre continued fraction.

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
    return h


def _upper_gamma_scaled_nonpos(a, u):
    """g(a, u) = Gamma(a, u) * u**(-a) for a <= 0, u > 0."""
    # The downward recurrence is stable for u <= 1: u below the
    # recurrence denominators keeps the endpoint term dominant. Above it
    # the recurrence amplifies rounding, and the continued fraction
    # converges to machine accuracy there.
    if u > 1.0:
        return math.exp(-u) * _upper_gamma_cf(a, u)
    emu = math.exp(-u)
    if a == math.floor(a):
        # Integer chain seeded at Gamma(0, u) = E1(u).
        n, g = int(-a), sp.exp1(u)
        ug = u * g
    else:
        # Seed at a0 = a + n in (1, 2], where scipy's gammaincc is
        # accurate, as u * g(a0, u), finite for every normal u where
        # g(a0, u) overflows below u ~ 1e-154; then recur downward.
        n = math.ceil(-a) + 1
        a0 = a + n
        ug = sp.gammaincc(a0, u) * sp.gamma(a0) * u ** (1.0 - a0)
    for k in range(1, n + 1):
        g = (ug - emu) / (a + n - k)
        ug = u * g
    return g


def upper_incomplete_gamma_scaled(a, u):
    """Scaled upper incomplete gamma Gamma(a, u) * u**(-a).

    This form stays representable for very negative a where the plain
    value would overflow; as u -> 0 it tends to -1/a for a < 0, the value
    returned at u = 0. A non-finite a or u is refused, and so is a u > 0
    below the smallest normal double, where 1/u is no longer finite; at
    a > 0, a u where the value, taken in logs, overflows a double. Every
    branch returns a float.
    """
    if not (math.isfinite(a) and math.isfinite(u)):
        raise GammaDomainError(f"require finite a and u; got a = {a}, u = {u}")
    if u == 0 and a < 0:
        return -1.0 / a
    if u < sys.float_info.min:
        raise GammaDomainError(
            f"require u >= {sys.float_info.min:.3g}, or u = 0 with a < 0; "
            f"got a = {a}, u = {u}")
    if a > 0:
        try:
            return math.exp(_log_upper_gamma_scaled_pos(a, u))
        except OverflowError:
            raise GammaDomainError(
                f"Gamma(a, u) * u**(-a) overflows a double at a = {a}, "
                f"u = {u}") from None
    return float(_upper_gamma_scaled_nonpos(a, u))


def _log_upper_gamma_scaled_pos(a, u):
    """log g(a, u) at a > 0: by the continued fraction above u = a + 1,
    else log Q(a, u) + lgamma(a) - a log u, Q >= Q(a, a + 1) there."""
    if u > a + 1.0:
        return math.log(_upper_gamma_cf(a, u)) - u
    return (math.log(sp.gammaincc(a, u)) + math.lgamma(a)
            - a * math.log(u))
