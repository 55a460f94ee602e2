import math

import pytest
from scipy.special import gamma as G

from itsub.moments import (
    InversionError,
    MomentQuery,
    gaver_stehfest_inversion,
    moment_asymptotic,
    moment_exact,
    moment_lt,
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
    with pytest.raises(ParameterError):
        moment_lt(1.0, -1.0, p)


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
