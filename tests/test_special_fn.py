import math

import pytest
from scipy import special as sp

from itsub.special_fn import GammaDomainError, upper_incomplete_gamma_scaled

# Gamma(a, u) computed with mpmath.gammainc at 40 digits; the tests
# compare the scaled form with ref * u**(-a).
_UIG_REFERENCE = [
    (-0.5, 1.0, 0.17814771178156069),
    (-1.3, 0.25, 2.677972970399016),
    (-2.7, 3.0, 0.00041238226655192806),
    (0.5, 2.0, 0.080647117960317691),
]


def test_upper_incomplete_gamma_reference_values():
    for a, u, ref in _UIG_REFERENCE:
        assert upper_incomplete_gamma_scaled(a, u) == pytest.approx(
            ref * u ** -a, rel=1e-11)


def test_upper_incomplete_gamma_recurrence():
    # u*g(a+1, u) = a*g(a, u) + exp(-u) for g(a, u) = Gamma(a, u) * u**(-a)
    for a in (-4.3, -2.0, -0.7, 0.4, 3.1):
        for u in (1e-6, 0.3, 1.0, 7.0, 40.0):
            if a <= 0 and u < 1e-8:
                continue
            lhs = u * upper_incomplete_gamma_scaled(a + 1.0, u)
            t1 = a * upper_incomplete_gamma_scaled(a, u)
            t2 = math.exp(-u)
            # the identity itself cancels when |t1|, |t2| >> |lhs|;
            # budget the tolerance for that intrinsic condition number
            tol = 1e-10 * (abs(t1) + abs(t2))
            assert abs(lhs - (t1 + t2)) <= max(tol, 1e-300)


def test_upper_incomplete_gamma_integer_order():
    # g(0, u) = Gamma(0, u) = E1(u)
    assert upper_incomplete_gamma_scaled(0.0, 0.5) == pytest.approx(
        sp.exp1(0.5), rel=1e-12)
    # g(-1, u) = u * Gamma(-1, u) = exp(-u) - u*E1(u)
    u = 2.0
    ref = math.exp(-u) - u * sp.exp1(u)
    assert upper_incomplete_gamma_scaled(-1.0, u) == pytest.approx(
        ref, rel=1e-11)


def test_scaled_small_u_limit():
    # g(a, u) = -1/a + Gamma(a) u**(-a) + u/(a+1) + O(u**2) as u -> 0
    a, u = -0.6, 1e-7
    g = upper_incomplete_gamma_scaled(a, u)
    ref = -1.0 / a + sp.gamma(a) * u ** -a + u / (a + 1.0)
    assert g == pytest.approx(ref, rel=1e-9)


def test_very_negative_order_stays_finite():
    val = upper_incomplete_gamma_scaled(-9.5, 0.01)
    assert math.isfinite(val) and val > 0


def test_domain_errors():
    with pytest.raises(GammaDomainError):
        upper_incomplete_gamma_scaled(0.5, -1.0)
    with pytest.raises(GammaDomainError):
        upper_incomplete_gamma_scaled(-0.5, 1e-12)
    for a in (0.5, 0.0):
        with pytest.raises(GammaDomainError):
            upper_incomplete_gamma_scaled(a, 0.0)


def test_scaled_limit_at_zero():
    # g(a, 0) = -1/a exactly for a < 0
    assert upper_incomplete_gamma_scaled(-0.7, 0.0) == 1.0 / 0.7
