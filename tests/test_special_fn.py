import math
import sys

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


def test_upper_incomplete_gamma_at_the_handover():
    # g(a, u) = Gamma(a, u) * u**(-a) from mpmath.gammainc at 40 digits,
    # on either side of the recurrence/continued-fraction handover at
    # u = 1: the continued fraction does not converge at (-3, 0.05), and
    # the recurrence amplifies rounding at (-1.04, 1.99)
    for a, u, ref in [(-3.0, 0.05, 0.30949449400443005806),
                      (-1.04, 1.99, 0.037663828061523581540)]:
        assert upper_incomplete_gamma_scaled(a, u) == pytest.approx(
            ref, rel=1e-13, abs=0.0)


def test_upper_incomplete_gamma_recurrence():
    # u*g(a+1, u) = a*g(a, u) + exp(-u) for g(a, u) = Gamma(a, u) * u**(-a)
    for a in (-4.3, -2.0, -0.7, 0.4, 3.1):
        for u in (1e-6, 0.3, 1.0, 7.0, 40.0):
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


# g(a, u) = Gamma(a, u) * u**(-a) from mpmath.gammainc, the working
# precision doubled from 60 digits until two agree to 1e-25, at u far
# below 1 (the recurrence carries u * g, so nothing overflows there)
_SMALL_U_REFERENCE = [
    (-0.02, 1e-300, 49.999949402632208334),
    (-0.5, 1e-300, 2.0),
    (-0.98, 1e-300, 1.0204081632653061409),
    (-1.0, 1e-300, 1.0),
    (-2.7, 1e-300, 0.370370370370370346),
    (-7.0, 1e-300, 0.14285714285714285714),
    (-45.5, 1e-300, 0.021978021978021978022),
    (-196.0, 1e-300, 0.0051020408163265306122),
    (-0.02, 1e-100, 49.494026322093743465),
    (-0.5, 1e-100, 2.0),
    (-0.98, 1e-100, 1.0204081632653061409),
    (-1.0, 1e-100, 1.0),
    (-2.7, 1e-100, 0.370370370370370346),
    (-7.0, 1e-100, 0.14285714285714285714),
    (-45.5, 1e-100, 0.021978021978021978022),
    (-196.0, 1e-100, 0.0051020408163265306122),
    (-0.02, 1e-12, 20.884253849138368376),
    (-0.5, 1e-12, 1.999996455094298189),
    (-0.98, 1e-12, 1.0204081632276319432),
    (-1.0, 1e-12, 0.99999999997194619455),
    (-2.7, 1e-12, 0.37037037036978211071),
    (-7.0, 1e-12, 0.14285714285697619048),
    (-45.5, 1e-12, 0.021978021977999506112),
    (-196.0, 1e-12, 0.0051020408163214024071),
]


def test_upper_incomplete_gamma_at_small_u():
    for a, u, ref in _SMALL_U_REFERENCE:
        assert upper_incomplete_gamma_scaled(a, u) == pytest.approx(
            ref, rel=1e-14, abs=0.0)


def test_very_negative_order_stays_finite():
    val = upper_incomplete_gamma_scaled(-9.5, 0.01)
    assert math.isfinite(val) and val > 0


def test_domain_errors():
    with pytest.raises(GammaDomainError):
        upper_incomplete_gamma_scaled(0.5, -1.0)
    # 0 < u below the smallest normal double, where 1/u overflows
    with pytest.raises(GammaDomainError):
        upper_incomplete_gamma_scaled(-0.5, sys.float_info.min / 4.0)
    # u = 1e-12 is served: mpmath.gammainc at 40 digits
    assert upper_incomplete_gamma_scaled(-0.5, 1e-12) == pytest.approx(
        1.999996455094298189, rel=1e-14)
    for a in (0.5, 0.0):
        with pytest.raises(GammaDomainError):
            upper_incomplete_gamma_scaled(a, 0.0)
    # non-finite a or u: a raw ValueError, an OverflowError and two nans
    # before, the last where the true value is 0
    for a, u in ((math.nan, 1.0), (-math.inf, 1.0), (-0.5, math.nan),
                 (-0.5, math.inf)):
        with pytest.raises(GammaDomainError):
            upper_incomplete_gamma_scaled(a, u)
    # a > 0 beyond double range: a raw OverflowError from u**(-a) and an
    # inf before
    for a, u in ((200.0, 1e-300), (500.0, 1.0)):
        with pytest.raises(GammaDomainError):
            upper_incomplete_gamma_scaled(a, u)


def test_positive_order_below_double_range_of_gamma():
    # Gamma(200) overflows a double, but g(200, u) does not: the value
    # comes from log Q + lgamma(a) - a log u, and above u = a + 1 from
    # the continued fraction; mpmath.gammainc at 40 digits (1.1e-4347,
    # 0 in a double, at the last)
    for a, u, ref in ((200.0, 200.0, 1.203882301104167e-88),
                      (200.0, 260.0, 1.8961984953490747e-115),
                      (50.0, 1e4, 0.0)):
        assert upper_incomplete_gamma_scaled(a, u) == pytest.approx(
            ref, rel=1e-12, abs=0.0)


def test_scaled_limit_at_zero():
    # g(a, 0) = -1/a exactly for a < 0
    assert upper_incomplete_gamma_scaled(-0.7, 0.0) == 1.0 / 0.7
