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
