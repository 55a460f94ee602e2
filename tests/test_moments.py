import json
import math
import os
import warnings

import numpy as np
import pytest
from scipy.special import gamma as G

from itsub.moments import (
    InversionError,
    MomentQuery,
    gaver_stehfest_inversion,
    moment_asymptotic,
    moment_exact,
    moment_lt,
    moment_table,
    talbot_inversion,
)
from itsub.stable_family import ParameterError, TemperedStableParams

# (q, t, beta, lam) -> E[E(t)**q] from 40-digit Talbot inversion of
# Gamma(1+q) / (s * Psi(s)**q).
_MOMENT_REFERENCE = [
    (1.0, 1.0, 0.5, 1.0, 2.4716049381348697),
    (2.0, 1.0, 0.5, 1.0, 7.5721140214548941),
    (1.0, 0.5, 0.7, 0.5, 0.81655414698153286),
    (2.0, 10.0, 0.3, 1.0, 1266.0185213831616),
    (1.5, 2.0, 0.6, 2.0, 10.231596236754008),
]


def test_query_validation():
    p = TemperedStableParams(0.5, 1.0)
    with pytest.raises(ParameterError):
        MomentQuery(0.0, 1.0, p)
    with pytest.raises(ParameterError):
        MomentQuery(51.0, 1.0, p)
    with pytest.raises(ParameterError):
        MomentQuery(1.0, 0.0, p)


def test_moment_lt_closed_form():
    p = TemperedStableParams(0.5, 1.0)
    s = 3.0
    ref = G(2.0) / (s * (2.0 - 1.0))
    assert moment_lt(1.0, s, p) == pytest.approx(ref, rel=1e-14)
    assert moment_lt(1.0, complex(s, 0.0), p) == pytest.approx(ref, rel=1e-14)
    # a nan s gave nan, and nan + nanj with a RuntimeWarning
    for s in (-1.0, math.nan, math.inf, complex(math.nan, 1.0),
              complex(1.0, math.inf)):
        with pytest.raises(ParameterError):
            moment_lt(1.0, s, p)
    for q in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            moment_lt(q, 3.0, p)


def test_talbot_inverts_known_transforms():
    # L[exp(-t)] = 1/(s+1), L[t] = 1/s**2
    assert talbot_inversion(lambda s: 1.0 / (s + 1.0), 1.3) == pytest.approx(
        math.exp(-1.3), rel=1e-10)
    assert talbot_inversion(lambda s: 1.0 / s ** 2, 2.5) == pytest.approx(
        2.5, rel=1e-10)


def test_gaver_stehfest_inverts_known_transform():
    assert gaver_stehfest_inversion(
        lambda s: 1.0 / (s + 1.0), 1.3) == pytest.approx(
        math.exp(-1.3), rel=1e-5)
    # accuracy improves with the term count up to the double-precision wall
    e14 = abs(gaver_stehfest_inversion(lambda s: 1.0 / (s + 1.0), 1.3, 14)
              - math.exp(-1.3))
    e8 = abs(gaver_stehfest_inversion(lambda s: 1.0 / (s + 1.0), 1.3, 8)
             - math.exp(-1.3))
    assert e14 < e8


def test_inversions_refuse_a_bad_node_count():
    # n_terms 0 and -2 returned 0.0, n_nodes 0 a ZeroDivisionError
    def F(s):
        return 1.0 / (s + 1.0)

    for n in (0, -2, 3, 2.0, math.nan):
        with pytest.raises(ParameterError):
            gaver_stehfest_inversion(F, 1.3, n)
    for n in (0, -1, 1.5, math.nan):
        with pytest.raises(ParameterError):
            talbot_inversion(F, 1.3, n)


def test_moment_reference_values():
    for q, t, beta, lam, ref in _MOMENT_REFERENCE:
        query = MomentQuery(q, t, TemperedStableParams(beta, lam))
        assert moment_exact(query) == pytest.approx(ref, rel=1e-6)


def test_untempered_closed_form():
    # lam = 0: M_q(t) = Gamma(1+q)/Gamma(1+q*beta) * t**(q*beta)
    for q in (1.0, 2.0, 3.5):
        for beta in (0.3, 0.7):
            query = MomentQuery(q, 2.0, TemperedStableParams(beta))
            ref = G(1 + q) / G(1 + q * beta) * 2.0 ** (q * beta)
            assert moment_exact(query) == pytest.approx(ref, rel=1e-12)


def test_cross_check_talbot_vs_gaver_stehfest():
    params = TemperedStableParams(0.5, 1.0)
    for t in (0.1, 1.0, 10.0):
        query = MomentQuery(1.0, t, params)
        talbot = moment_exact(query)
        gs = gaver_stehfest_inversion(
            lambda s: moment_lt(1.0, s, params), t)
        assert gs == pytest.approx(talbot, rel=1e-5)


def test_asymptotic_regimes():
    params = TemperedStableParams(0.5, 1.0)
    small = MomentQuery(1.0, 1e-4, params)
    assert moment_exact(small) == pytest.approx(
        moment_asymptotic(small, "small_t"), rel=0.02)
    large = MomentQuery(1.0, 1e4, params)
    assert moment_exact(large) == pytest.approx(
        moment_asymptotic(large, "large_t"), rel=0.02)


def test_mean_large_t_slope():
    # E[E(t)] ~ (lam**(1-beta)/beta) * t for large t
    params = TemperedStableParams(0.5, 2.0)
    q = MomentQuery(1.0, 1e4, params)
    assert moment_asymptotic(q, "large_t") == pytest.approx(
        2.0 ** 0.5 / 0.5 * 1e4, rel=1e-12)


def test_large_t_requires_tempering():
    q = MomentQuery(1.0, 1.0, TemperedStableParams(0.5))
    with pytest.raises(ParameterError):
        moment_asymptotic(q, "large_t")
    with pytest.raises(ParameterError):
        moment_asymptotic(q, "sideways")


def test_moments_monotone_in_time():
    params = TemperedStableParams(0.4, 1.0)
    vals = [moment_exact(MomentQuery(1.0, t, params))
            for t in (0.1, 0.5, 1.0, 5.0, 20.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("q, t, beta, lam", [(50.0, 1e3, 0.02, 50.0),
                                             (50.0, 1e300, 0.98, 0.0)])
def test_a_moment_beyond_double_range_raises(q, t, beta, lam):
    # (lam**(1-beta) t / beta)**q ~ 1e318: both Talbot sums overflow, and
    # the 24/32 check, False for nan, once let the nan through as a moment;
    # at lam = 0 the closed form's t**(q*beta) raised a raw OverflowError
    query = MomentQuery(q, t, TemperedStableParams(beta, lam))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InversionError):
            moment_exact(query)
        (row,) = moment_table(q, [t], query.params)
    assert isinstance(row, InversionError)


# (lam, beta) -> M_1 at t = 1e-3, 1, 1e3 from the scalar Talbot path with
# Psi(s) = (s+lam)**beta - lam**beta, the form the table keeps where s / lam
# would overflow
_TINY_LAM = [
    (1e-300, 0.02, [0.8807902738629192, 1.011282674613959, 1.161108039058166]),
    (1e-300, 0.5, [0.035682482323033046, 1.1283791671000811,
                   35.682482323144015]),
    (1e-300, 0.98, [0.0011577532381788845, 1.008360916608316,
                    878.2456439002694]),
    (5e-324, 0.02, [0.880789763626435, 1.0112820019895394,
                    1.1611071523678065]),
    (5e-324, 0.5, [0.035682482323033046, 1.1283791671000811,
                   35.682482323144015]),
    (5e-324, 0.98, [0.0011577532381788845, 1.008360916608316,
                    878.2456439002694]),
]


@pytest.mark.parametrize("lam, beta, refs", _TINY_LAM)
def test_laplace_symbol_at_the_least_lambdas(lam, beta, refs):
    # lam**beta * expm1(beta * log1p(s / lam)) is nan at lam = 5e-324
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = moment_table(1.0, [1e-3, 1.0, 1e3],
                            TemperedStableParams(beta, lam))
    for row, ref in zip(rows, refs):
        assert math.isfinite(row.value) and math.isfinite(row.error_estimate)
        assert row.value == pytest.approx(ref, rel=1e-9)


# (beta, lam, s, Psi(s), Gamma(3) / (s * Psi(s)**2)) from mpmath at 50
# digits, s at lam * {1e-12, 1e-9, 1e-6} (1 * them at lam = 0), real and
# at arg s = atan(4/3).
_SMALL_S = [
    (0.5, 1.0, 1e-12, 4.99999999999875e-13, 8.000000000004e+36),
    (0.5, 1.0, complex(6e-13, 8e-13),
     complex(3.0000000000003497e-13, 3.9999999999988e-13),
     complex(-7.48800000000112e+36, -2.816000000003839e+36)),
    (0.5, 1.0, 1e-09, 4.99999999875e-10, 8.000000003999998e+27),
    (0.5, 1.0, complex(6e-10, 8.000000000000001e-10),
     complex(3.00000000035e-10, 3.9999999988000004e-10),
     complex(-7.488000001119998e+27, -2.816000003839997e+27)),
    (0.5, 1.0, 1e-06, 4.999998750000625e-07, 8.000003999999501e+18),
    (0.5, 1.0, complex(6e-07, 8e-07),
     complex(3.000000349999415e-07, 3.99999880000022e-07),
     complex(-7.488001120000301e+18, -2.8160038399996e+18)),
    (0.3, 2.5, 2.5e-12, 3.9491466130013297e-13, 5.129599665451463e+36),
    (0.3, 2.5, complex(1.4999999999999999e-12, 2e-12),
     complex(2.369487967802014e-13, 3.159317290400843e-13),
     complex(-4.8013052868602134e+36, -1.8056190822410975e+36)),
    (0.3, 2.5, 2.5e-09, 3.949146611620511e-10, 5.12959966903859e+27),
    (0.3, 2.5, complex(1.5e-09, 2e-09),
     complex(2.3694879681886434e-10, 3.159317289075257e-10),
     complex(-4.8013052878646085e+27, -1.805619085684741e+27)),
    (0.3, 2.5, 2.4999999999999998e-06, 3.94914523080218e-07,
     5.129603256167489e+18),
    (0.3, 2.5, complex(1.4999999999999998e-06, 2e-06),
     complex(2.369488354817262e-07, 3.159315963489183e-07),
     complex(-4.801306292260832e+18, -1.8056225293285059e+18)),
    (0.7, 0.0, 1e-12, 3.981071705534977e-09, 1.2619146889603834e+29),
    (0.7, 0.0, complex(6e-13, 8e-13),
     complex(3.171417754084856e-09, 2.406458259286153e-09),
     complex(-7.684189432561201e+28, -1.0009800247053529e+29)),
    (0.7, 0.0, 1e-06, 6.309573444801936e-05, 502377286301915.44),
    (0.7, 0.0, complex(6e-07, 8e-07),
     complex(5.0263584088993985e-05, 3.813979313084443e-05),
     complex(-305913091299402.7, -398497325416018.4)),
]


@pytest.mark.parametrize("beta, lam, s, psi, lt", _SMALL_S)
def test_symbol_and_transform_at_small_s(beta, lam, s, psi, lt):
    # (s + lam)**beta - lam**beta cancels where |s| << lam: moment_lt's
    # direct form was off by 1.8e-4 relative at s = 1e-12, beta 1/2, lam 1
    params = TemperedStableParams(beta, lam)
    assert abs(params.laplace_symbol(s) - psi) <= 1e-13 * abs(psi)
    assert abs(moment_lt(2.0, s, params) - lt) <= 1e-13 * abs(lt)


# Psi(s) from mpmath at 50 digits on lam * _SPLIT (1 * _SPLIT at lam = 0),
# real and times 0.6 + 0.8i: |s| on both sides of lam / eps, where the
# log1p form hands over to the direct one.
_EPS = np.finfo(float).eps
_SPLIT = np.array([1e-12, 1e-6, 1.0, 0.999 / _EPS, 1.001 / _EPS, 1e3 / _EPS])


@pytest.mark.parametrize("beta, lam, real, cplx", [
    (0.5, 1.0,
     [4.99999999999875e-13, 4.999998750000625e-07, 0.41421356237309503,
      67075300.17519508, 67142409.04758368, 2122168613.2647798],
     [complex(3.0000000000003497e-13, 3.9999999999988e-13),
      complex(3.000000349999415e-07, 3.99999880000022e-07),
      complex(0.30170165206928884, 0.30729007631213195),
      complex(59993972.21560309, 29996986.60780154),
      complex(60053996.215824805, 30026998.6079124),
      complex(1898125311.4850311, 949062656.2425156)]),
    (0.7, 0.0,
     [3.981071705534977e-09, 6.309573444801936e-05, 1.0,
      90612410527.00468, 90739356785.70445, 11415418615806.867],
     [complex(3.171417754084856e-09, 2.406458259286153e-09),
      complex(5.0263584088993985e-05, 3.813979313084443e-05),
      complex(0.7966241225134326, 0.6044749849495044),
      complex(72184032024.90202, 54772935489.54947),
      complex(72285160476.8451, 54849671327.3664),
      complex(9093797837940.648, 6900334995982.148)]),
])
def test_symbol_on_an_array_across_the_near_far_split(beta, lam, real, cplx):
    params = TemperedStableParams(beta, lam)
    s = (lam or 1.0) * _SPLIT
    for z, ref in ((s, real), (s * (0.6 + 0.8j), cplx)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = params.laplace_symbol(z)
        assert out.dtype == z.dtype
        np.testing.assert_allclose(out, ref, rtol=1e-13, atol=0.0)


with open(os.path.join(os.path.dirname(__file__), "moment_oracle.json")) as _f:
    _ORACLE = json.load(_f)


@pytest.mark.parametrize("row", _ORACLE,
                         ids=lambda r: "{beta}-{lam}-{t}-{q}".format(**r))
def test_moment_error_bounds_the_oracle(row):
    ref = row["moment"]
    (res,) = moment_table(row["q"], [row["t"]],
                          TemperedStableParams(row["beta"], row["lam"]))
    assert abs(res.value - ref) <= res.error_estimate
    assert res.error_estimate <= 1e-6 * abs(ref)


@pytest.mark.parametrize("beta, lam, q", [(0.4, 1.0, 2.0), (0.98, 50.0, 1.0)])
def test_table_row_is_the_one_row_call(beta, lam, q):
    params = TemperedStableParams(beta, lam)
    ts = np.logspace(-3, 3, 61)
    rows = moment_table(q, ts, params)
    assert all(row.value == moment_exact(MomentQuery(q, t, params))
               for t, row in zip(ts, rows))


def test_untempered_table_is_the_closed_form():
    params = TemperedStableParams(0.3)
    for t, row in zip((1e-3, 2.0, 1e3), moment_table(2.0, (1e-3, 2.0, 1e3),
                                                      params)):
        ref = G(3.0) / G(1.6) * t ** 0.6
        assert abs(row.value - ref) <= row.error_estimate <= 1e-14 * ref


def test_table_refuses_bad_input():
    params = TemperedStableParams(0.5, 1.0)
    for q, ts in ((0.0, [1.0]), (math.nan, [1.0]), (1.0, [1.0, 0.0]),
                  (1.0, [math.inf]), (1.0, [math.nan])):
        with pytest.raises(ParameterError):
            moment_table(q, ts, params)
    assert moment_table(1.0, [], params) == []
