import math
import sys

import pytest
from scipy import special as sp

from itsub.its_density import _line
from itsub.special_fn import (
    GammaDomainError,
    _log_upper_gamma_scaled_pos,
    upper_incomplete_gamma_scaled,
)
from itsub.stable_family import TemperedStableParams

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
    # comes from log Q + lgamma(a) - a log u, and where Q underflows from
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


# log g(a, u) = log Gamma(a, u) - a log u from mpmath.gammainc at 40
# digits, at a = 1/beta for beta in {0.02, 0.3, 0.6, 0.98} and a = 200: u
# at (a + 1) / 2, either side of a + 1, and 1 below and above the u where
# scipy's Q(a, u) leaves the normal range (897.04, 722.74, 712.88, 708.54
# and 1273.37), where the continued fraction takes over; and (200, 262.6),
# near the worst error in g.
_POSITIVE_ORDER_LOG_G = [
    (50.0, 25.5, -17.368190221866521497),
    (50.0, 50.949, -52.823218777557612811),
    (50.0, 51.050999999999995, -52.936322953252950364),
    (50.0, 896.0428574273016, -902.78467684195184394),
    (50.0, 898.0428574273016, -904.78703489429113684),
    (3.3333333333333335, 2.166666666666667, -1.9023459489041767476),
    (3.3333333333333335, 4.329000000000001, -5.254154690715290267),
    (3.3333333333333335, 4.337666666666667, -5.2658735852397218029),
    (3.3333333333333335, 721.7383029014179, -728.31673183653546227),
    (3.3333333333333335, 723.7383029014179, -730.31950802973231426),
    (1.6666666666666667, 1.3333333333333335, -1.2648156025064168635),
    (1.6666666666666667, 2.664, -3.4384557549961233889),
    (1.6666666666666667, 2.6693333333333333, -3.4461330021813757441),
    (1.6666666666666667, 711.8792089961041, -718.44618162988296624),
    (1.6666666666666667, 713.8792089961041, -720.44898977486822564),
    (1.0204081632653061, 1.010204081632653, -1.0082331186549986408),
    (1.0204081632653061, 2.0183877551020406, -2.7133478572657727296),
    (1.0204081632653061, 2.022428571428571, -2.7193999664661421548),
    (1.0204081632653061, 707.5418310572434, -714.1035990066648841),
    (1.0204081632653061, 709.5418310572434, -716.10642178816655971),
    (200.0, 100.5, -64.097875673968651513),
    (200.0, 200.799, -203.28623505675379524),
    (200.0, 201.20099999999996, -203.71056223444852695),
    (200.0, 262.6, -266.79581409405399797),
    (200.0, 1272.3670713866804, -1279.3457994995903249),
    (200.0, 1274.3670713866804, -1281.3476604217279646),
]


@pytest.mark.parametrize("a,u,ref", _POSITIVE_ORDER_LOG_G)
def test_positive_order_against_frozen_mpmath(a, u, ref):
    # measured worst: 2.1e-15 relative in log g, at (50, 25.5), and, over
    # 1500 u from a + 1 to 720 at each a = 1/beta and 10, 50, 100, 200,
    # 2.8e-13 relative in g, at (200, 273.31) (2.4e-13 at (200, 262.6)),
    # where exp takes the rounding of a log g near -270 into g; g is
    # checked where it is normal
    assert _log_upper_gamma_scaled_pos(a, u) == pytest.approx(
        ref, rel=4e-15, abs=0.0)
    g = upper_incomplete_gamma_scaled(a, u)
    if math.exp(ref) >= sys.float_info.min:
        assert g == pytest.approx(math.exp(ref), rel=3e-13, abs=0.0)
    else:
        assert 0.0 <= g < sys.float_info.min


@pytest.mark.parametrize("beta,lam,t,x,ref", [
    (0.6, 1.0, 1.0, 3.0, -1.0287756098864276),
    (0.3, 0.0, 1.0, 5.0, -3.9264105473518374),
    (0.9, 20.0, 0.1, 2.0, -39671858032.8189),
    (0.02, 1.0, 1.0, 10.0, 68.35909611168022),
    (0.5, 0.001, 1000.0, 400.0, -32.26397724145056),
    (0.8, 1.0, 1.0, 30.0, -1990622.139197577),
])
def test_line_bound_matches_the_continued_fraction_route(beta, lam, t, x,
                                                         ref):
    # log B of the saddle contour's bound, which takes g(1/beta, u), as
    # the continued fraction above u = 1/beta + 1 gave it
    params = TemperedStableParams(beta, lam)
    log_b = _line(1, x, t, params)[4]
    assert type(log_b) is float
    assert log_b == pytest.approx(ref, rel=1e-13, abs=0.0)
