import dataclasses
import importlib.util
import json
import math
import os
import warnings

import numpy as np
import pytest
from scipy.special import gamma as G

from itsub.its_density import (
    DensityResult,
    EvalPoint,
    boundary_value,
    cdf,
    derivative_at_zero,
    eval as eval_density,
    eval_integral,
    eval_series,
)
from itsub import its_density
from itsub.moments import MomentQuery, moment_exact
from itsub.montecarlo import SimConfig
from itsub.stable_family import (
    NonConvergenceError,
    ParameterError,
    TemperedStableParams,
    inverse_stable_density,
    inverse_stable_density_series,
    stable_density,
    tempered_density,
)

# (beta, lam, x, t) -> h from high-precision numerical Laplace inversion
# of Psi(s)/s * exp(-x*Psi(s)) in the time variable (40-digit Talbot).
_DENSITY_REFERENCE = [
    (0.5, 0.5, 0.5, 1.0, 0.20557832396562746),
    (0.5, 2.0, 1.5, 1.0, 0.14557654697296491),
    (0.8, 2.0, 1.0, 2.0, 0.012018339807433879),
    (0.2, 0.5, 1.0, 2.0, 0.044724397217261798),
    (0.4, 1.0, 0.7, 1.0, 0.10708962281786409),
    (0.6, 1.0, 1.2, 1.5, 0.13466924187568284),
]

# (beta, lam, t) -> boundary value h(0+, t) from the closed form
# (sin(beta*pi)/pi) * lam**beta * Gamma(1+beta) * Gamma(-beta, lam*t)
# evaluated at 40 digits.
_BOUNDARY_REFERENCE = [
    (0.3, 1.0, 1.0, 0.044595758731294852),
    (0.5, 1.0, 2.0, 0.0084907026168296375),
    (0.7, 1.0, 0.5, 0.14317474689149722),
]

# x -> P(E(1) <= x) at (beta, lam) = (0.5, 1) from inverting
# (1 - exp(-x*Psi(s)))/s at 40 digits.
_CDF_REFERENCE = [
    (0.5, 0.039632593004746135),
    (2.0, 0.37230216184474713),
    (5.0, 0.97486865779737803),
]


def test_eval_point_validation():
    with pytest.raises(ParameterError):
        EvalPoint(-0.1, 1.0)
    with pytest.raises(ParameterError):
        EvalPoint(1.0, 0.0)
    with pytest.raises(ParameterError):
        EvalPoint(1.0, -1.0)


_P = TemperedStableParams(0.5, 1.0)


_X_CALLS = {
    "stable_density": lambda x: stable_density(x, 1.0, 0.5),
    "tempered_density": lambda x: tempered_density(x, 1.0, _P),
    "inverse_stable_density": lambda x: inverse_stable_density(x, 1.0, 0.5),
    "inverse_stable_density_series":
        lambda x: inverse_stable_density_series(x, 1.0, 0.5),
    "cdf_x": lambda x: cdf(x, 1.0, _P),
}


@pytest.mark.parametrize("name,call", [
    ("t", lambda: boundary_value(math.nan, _P)),
    ("t", lambda: derivative_at_zero(1, math.nan, _P)),
    ("k", lambda: derivative_at_zero(math.nan, 1.0, _P)),
    ("k", lambda: derivative_at_zero(math.inf, 1.0, _P)),
    ("t", lambda: moment_exact(MomentQuery(1.0, math.nan, _P))),
    ("beta", lambda: stable_density(1.0, 1.0, 1.5)),
    ("t", lambda: cdf(1.0, math.inf, _P)),
    ("x", lambda: EvalPoint(math.nan, 1.0)),
    ("lam", lambda: TemperedStableParams(0.5, math.nan)),
    ("lam", lambda: TemperedStableParams(0.5, math.inf)),
    ("time_step", lambda: SimConfig(10, time_step=math.nan)),
] + [("x", lambda f=f, v=v: f(v))
     for f in _X_CALLS.values() for v in (math.nan, math.inf)],
    ids=["boundary_value", "derivative_at_zero", "derivative_at_zero_k_nan",
         "derivative_at_zero_k_inf", "moment_exact",
         "stable_density", "cdf", "EvalPoint", "lam_nan", "lam_inf",
         "SimConfig"] + [f"{n}_{v}" for n in _X_CALLS for v in ("nan", "inf")])
def test_non_finite_or_out_of_range_input_is_a_parameter_error(name, call):
    # nan passes every `v <= 0` test, so each check asks for 0 < v < inf
    # (or 0 <= v < inf, or a finite v) instead of returning 0, nan, a
    # NonConvergenceError or a raw ValueError, and names the argument:
    # inverse_stable_density(nan, 1, 0.5) returned h(0, 1)
    with pytest.raises(ParameterError, match=rf"\b{name}\b"):
        call()


def test_series_at_small_lam_t():
    # lam * t of 1e-9 and 1e-7 runs through the series like any other;
    # the integral is the independent check
    for beta in (0.3, 0.5, 0.7):
        for lam in (1e-9, 1e-7):
            params = TemperedStableParams(beta, lam)
            for x in (0.05, 0.5, 1.5):
                p = EvalPoint(x, 1.0)
                res = eval_density(p, params)
                assert res.method == "series"
                ref = eval_integral(p, params)
                assert abs(res.value - ref.value) <= 1e-8 * max(1.0, ref.value)


def test_reference_values_both_representations():
    for beta, lam, x, t, ref in _DENSITY_REFERENCE:
        params = TemperedStableParams(beta, lam)
        p = EvalPoint(x, t)
        assert eval_series(p, params).value == pytest.approx(ref, rel=1e-9)
        assert eval_integral(p, params).value == pytest.approx(ref, rel=1e-9)


def test_dispatcher_matches_representations():
    params = TemperedStableParams(0.6, 1.0)
    for x in (0.05, 0.4, 1.1, 2.5, 4.0):
        p = EvalPoint(x, 1.0)
        res = eval_density(p, params)
        assert isinstance(res, DensityResult)
        ref = eval_integral(p, params).value
        assert res.value == pytest.approx(ref, rel=1e-8, abs=1e-12)
        assert res.method in ("series", "saddle")


def test_error_estimates_reported():
    params = TemperedStableParams(0.5, 1.0)
    res = eval_series(EvalPoint(0.5, 1.0), params)
    assert res.error_estimate < 1e-10
    res = eval_integral(EvalPoint(0.5, 1.0), params)
    assert res.error_estimate < 1e-8


def test_boundary_value_reference():
    for beta, lam, t, ref in _BOUNDARY_REFERENCE:
        params = TemperedStableParams(beta, lam)
        assert boundary_value(t, params) == pytest.approx(ref, rel=1e-11)


def test_boundary_matches_integral_limit():
    for beta, lam, t, ref in _BOUNDARY_REFERENCE:
        params = TemperedStableParams(beta, lam)
        near = eval_integral(EvalPoint(1e-7, t), params).value
        assert near == pytest.approx(ref, abs=1e-5)


def test_boundary_small_tempering_limit():
    # lam -> 0: h(0+, t) = t**(-beta)/Gamma(1-beta) - lam**beta
    #                      + O(lam*t**(1-beta))
    lam = 1e-10
    for beta in (0.3, 0.5, 0.7):
        params = TemperedStableParams(beta, lam)
        ref = 1.0 / G(1.0 - beta) - lam ** beta
        assert boundary_value(1.0, params) == pytest.approx(ref, rel=1e-6)


def test_eval_at_zero_returns_boundary():
    params = TemperedStableParams(0.5, 1.0)
    res = eval_density(EvalPoint(0.0, 1.0), params)
    assert res.value == pytest.approx(boundary_value(1.0, params), rel=1e-12)
    assert (res.method, res.terms_or_panels) == ("boundary", 0)


def test_untempered_density_is_the_half_gaussian_at_beta_half():
    # lam = 0, beta = 1/2: h(x, t) = exp(-x**2 / (4t)) / sqrt(pi*t)
    params = TemperedStableParams(0.5, 0.0)
    for t in (0.5, 1.0, 3.0):
        for x in (0.3, 1.0, 2.5):
            ref = math.exp(-x * x / (4.0 * t)) / math.sqrt(math.pi * t)
            p = EvalPoint(x, t)
            for form in (eval_density, eval_series, eval_integral):
                assert form(p, params).value == pytest.approx(ref, rel=1e-9)


# (beta, t, x) -> inverse stable density at lam = 0: the Wright series
# summed by mpmath at 60 digits
_UNTEMPERED_REFERENCE = [
    (0.7, 1.0, 4.0, 2.5269874360819177e-06),
    (0.3, 0.001, 1.4027482089114776, 5.545167621946654e-06),
]


def test_untempered_reference_values():
    for beta, t, x, ref in _UNTEMPERED_REFERENCE:
        res = eval_density(EvalPoint(x, t), TemperedStableParams(beta, 0.0))
        assert res.value == pytest.approx(ref, rel=1e-8)
        assert abs(res.value - ref) <= res.error_estimate


@pytest.mark.parametrize("lam", (1e-300, 3e-308))
def test_tiny_lam_is_the_half_gaussian(lam):
    # beta 1/2 at lam -> 0: h = e**(-x**2/4) / sqrt(pi) and cdf = erf(x/2)
    # at t = 1. At lam 3e-308, c / lam overflowed in the saddle point's
    # Psi(c) = lam**beta expm1(beta log1p(c / lam)), so phi(c) was -inf and
    # the bound certified h = 0 at x = 12 and 40
    params = TemperedStableParams(0.5, lam)
    for x in (0.5, 3.0, 12.0, 40.0):
        ref = math.exp(-x * x / 4.0) / math.sqrt(math.pi)
        res = eval_density(EvalPoint(x, 1.0), params)
        assert res.value == pytest.approx(ref, rel=1e-9)
        assert cdf(x, 1.0, params) == pytest.approx(math.erf(x / 2.0),
                                                    abs=1e-12)


def test_subnormal_lam_is_a_parameter_error():
    # lam * t below the least normal double is outside the incomplete
    # gamma's domain, for the density and the cdf alike (the cdf used to
    # return 1.0 at x = 0.5, where erf(1/4) = 0.276)
    params = TemperedStableParams(0.5, 5e-324)
    with pytest.raises(ParameterError):
        eval_density(EvalPoint(0.5, 1.0), params)
    with pytest.raises(ParameterError):
        cdf(0.5, 1.0, params)


def test_untempered_far_tail_falls_back_to_the_saddle_line():
    # neither form meets the bar this far in the tail at lam = 0; the
    # reference is Kanter's integral in mpmath at 40 digits
    ref = 2.5413860829403332e-168
    res = eval_density(EvalPoint(11.005, 1.0), TemperedStableParams(0.7, 0.0))
    assert res.method == "saddle"
    assert abs(res.value - ref) <= res.error_estimate <= 1e-8 * res.value


def test_untempered_fallback_below_double_range():
    # h(3.03, 1) at beta = 0.98 is below exp(-8e21): 0 with error 0, not
    # an overflow from the error of its log
    res = eval_density(EvalPoint(3.025082749821511, 1.0),
                       TemperedStableParams(0.98, 0.0))
    assert (res.value, res.error_estimate, res.method) == (0.0, 0.0,
                                                           "saddle")


def test_derivative_at_zero_untempered_closed_form():
    # (-1)**k t**(-(k+1)beta) / Gamma(1 - (k+1)beta)
    for k, beta in [(1, 0.3), (1, 0.45), (2, 0.3), (3, 0.2), (1, 0.5)]:
        params = TemperedStableParams(beta, 0.0)
        for t in (0.5, 1.0, 2.0):
            val = derivative_at_zero(k, t, params)
            kb = (k + 1) * beta
            if kb == 1.0:
                ref = 0.0
                assert val == pytest.approx(ref, abs=1e-12)
            else:
                ref = (-1.0) ** k * t ** -kb / G(1.0 - kb)
                assert val == pytest.approx(ref, rel=1e-10)


def test_derivative_at_zero_untempered_matches_half_gaussian():
    # beta = 1/2, lam = 0: x-derivatives at 0 of exp(-x**2/(4t))/sqrt(pi*t)
    params = TemperedStableParams(0.5, 0.0)
    for t in (0.5, 1.0, 2.0):
        c = 1.0 / math.sqrt(math.pi * t)
        refs = {1: 0.0, 2: -c / (2.0 * t), 3: 0.0, 4: 3.0 * c / (4.0 * t * t)}
        for k, ref in refs.items():
            assert derivative_at_zero(k, t, params) == pytest.approx(
                ref, rel=1e-12, abs=1e-15)


def test_derivative_at_zero_matches_finite_differences():
    # one-sided 5-point forward differences of the density near x = 0
    params = TemperedStableParams(0.5, 1.0)
    t = 1.0
    delta = 4e-3
    vals = [boundary_value(t, params)] + [
        eval_density(EvalPoint(i * delta, t), params).value
        for i in range(1, 6)]
    d1 = (-137.0 / 60 * vals[0] + 5 * vals[1] - 5 * vals[2]
          + 10.0 / 3 * vals[3] - 5.0 / 4 * vals[4] + 1.0 / 5 * vals[5]) / delta
    d2 = (15.0 / 4 * vals[0] - 77.0 / 6 * vals[1] + 107.0 / 6 * vals[2]
          - 13.0 * vals[3] + 61.0 / 12 * vals[4]
          - 5.0 / 6 * vals[5]) / delta ** 2
    assert derivative_at_zero(1, t, params) == pytest.approx(d1, rel=1e-3)
    assert derivative_at_zero(2, t, params) == pytest.approx(d2, rel=1e-3)


def test_derivative_at_zero_tempered_closed_form():
    # the closed form in the coefficients A_j against the other
    # representation: the branch-cut integral with m = k+1 at x = 0
    for beta in (0.3, 0.5, 0.7):
        for lam in (0.5, 1.0, 3.0):
            for t in (0.5, 1.0, 2.0):
                params = TemperedStableParams(beta, lam)
                for k in (1, 2, 3):
                    ref, err, _ = its_density._branch_cut(
                        k + 1, 0.0, t, params)
                    assert derivative_at_zero(k, t, params) == pytest.approx(
                        ref, rel=1e-9, abs=err)


# (beta, lam, t) -> h^(k)(0+, t) for k = 0..4 (k = 0 is the boundary
# value): the closed form in A_j summed by mpmath at 60 digits, with
# Gamma(-beta*j, lam*t) from mpmath.gammainc, its precision doubled until
# two agree to 1e-30. At k = 1 and 3, t <= 1 and lam in (0, 1e-9, 1) an
# mpmath quadrature of the branch-cut integral agrees to 1e-16 at lam > 0
# and to 4e-11 at lam = 0, where its integrand is singular at y = 0.
_DERIVATIVE_REFERENCE = [
    (0.1, 0.0, 0.001, (1.86712401698724, -3.41948986407187, 6.11937114502001,
                       -10.6426365952723, 17.8412411615277)),
    (0.1, 0.0, 1.0, (0.935778720912873, -0.858937019224667, 0.770383183866566,
                     -0.671504972442073, 0.564189583547756)),
    (0.1, 0.0, 1000.0, (0.46900034842159, -0.215755224411173,
                        0.0969854966988518, -0.0423690994217296,
                        0.0178412411615277)),
    (0.1, 1e-09, 0.001, (1.74123147580803, -2.965224821606, 4.91468684145166,
                         -7.8716250121366, 12.0460388857341)),
    (0.1, 1e-09, 1.0, (0.809886179837431, -0.639170829023142,
                       0.488479909348547, -0.358025084594188,
                       0.247605368776727)),
    (0.1, 1e-09, 1000.0, (0.343107859353311, -0.113516905800119,
                          0.0358038014180138, -0.010555121846191,
                          0.00279517652384797)),
    (0.1, 0.001, 0.001, (1.36593699081814, -1.79912171231858, 2.25906714650062,
                         -2.65132673483777, 2.79517652384797)),
    (0.1, 0.001, 1.0, (0.434695438078657, -0.172235454457942,
                       0.0582824342664807, -0.0135339820564908,
                       -0.00115197850966631)),
    (0.1, 0.001, 1000.0, (0.00984642191466156, 0.00118973259483429,
                          -1.68183255166265e-05, -8.92199187599596e-06,
                          5.24410590113633e-07)),
    (0.1, 1.0, 0.001, (0.867331426087231, -0.685681694432469,
                       0.462953831263276, -0.214499160282231,
                       -0.0364287590611184)),
    (0.1, 1.0, 1.0, (0.0196461945836079, 0.00473641077044751,
                     -0.000133592708186403, -0.000141404041874594,
                     1.65833189387206e-05)),
    (0.1, 1.0, 1000.0, (0, 0, 0, 0, 0)),
    (0.1, 50.0, 0.001, (0.398617783413857, -0.096121269727312,
                        -0.0258919137175447, 0.0515938349738046,
                        -0.036155038559086)),
    (0.1, 50.0, 1.0, (3.53349531693058e-25, 3.97612448524697e-25,
                      3.15231042619042e-25, 2.09776695025932e-25,
                      1.24041298933728e-25)),
    (0.1, 50.0, 1000.0, (0, 0, 0, 0, 0)),
    (0.3, 0.0, 0.001, (6.11937114502001, -28.4450839551115, 52.6816448256415,
                       683.897972814374, -8920.62058076385)),
    (0.3, 0.0, 1.0, (0.770383183866566, -0.450824199194411, 0.105113700611178,
                     0.171787403844933, -0.282094791773878)),
    (0.3, 0.0, 1000.0, (0.0969854966988518, -0.00714508204299955,
                        0.000209729405616404, 4.31510448822345e-05,
                        -8.92062058076386e-06)),
    (0.3, 1e-09, 0.001, (6.11737588270766, -28.420668434952, 52.5114516909528,
                         684.317748355622, -8913.79570643986)),
    (0.3, 1e-09, 1.0, (0.768387921881761, -0.447753947871326,
                       0.102424356855976, 0.172615576325063,
                       -0.280376837369877)),
    (0.3, 1e-09, 1000.0, (0.0949902759490873, -0.00676205065313613,
                          0.000168112666078637, 4.46570566835354e-05,
                          -8.48231848105168e-06)),
    (0.3, 0.001, 0.001, (5.99348122642769, -26.9202085265945, 42.2279924887828,
                         707.766651330852, -8482.31848105167)),
    (0.3, 0.001, 1.0, (0.644820738948083, -0.27329516411946,
                       -0.0298122094864736, 0.187130164791908,
                       -0.165026144059132)),
    (0.3, 0.001, 1000.0, (0.00561427339250687, 0.000678595126679288,
                          1.83642412148194e-05, -3.28025837420793e-06,
                          -1.79316915762353e-07)),
    (0.3, 1.0, 0.001, (5.12199319282238, -17.2437591012093, -14.9414988008424,
                       744.978604305161, -5218.58488701921)),
    (0.3, 1.0, 1.0, (0.0445957587312949, 0.0428164579106764,
                     0.00920392325211925, -0.0130589438004033,
                     -0.00567049876805585)),
    (0.3, 1.0, 1000.0, (0, 0, 0, 0, 0)),
    (0.3, 50.0, 0.001, (3.01552966954176, -0.604733378012639,
                        -57.9383683739644, 283.172109716005,
                        880.821864862127)),
    (0.3, 50.0, 1.0, (8.69347569388761e-25, 4.6106412053013e-24,
                      1.78084749273558e-23, 5.94206891047886e-23,
                      1.80745496377573e-22)),
    (0.3, 50.0, 1000.0, (0, 0, 0, 0, 0)),
    (0.5, 0.0, 0.001, (17.8412411615277, 0, -8920.62058076386, 0,
                       13380930.8711458)),
    (0.5, 0.0, 1.0, (0.564189583547756, 0, -0.282094791773878, 0,
                     0.423142187660817)),
    (0.5, 0.0, 1000.0, (0.0178412411615277, 0, -8.92062058076386e-06, 0,
                        1.33809308711458e-08)),
    (0.5, 1e-09, 0.001, (17.841209538769, 0.00112837716709664,
                         -8920.62058068357, -1.12837916708987,
                         13380930.8710343)),
    (0.5, 1e-09, 1.0, (0.564157961335344, 3.56804823587379e-05,
                       -0.282094789235152, -3.5682482144651e-05,
                       0.423142184134632)),
    (0.5, 1e-09, 1000.0, (0.0178096362261642, 1.12638029547449e-06,
                          -8.92054042160283e-06, -1.12837353319573e-09,
                          1.33808193637783e-08)),
    (0.5, 0.001, 0.001, (17.8096362261642, 1.12638029547449, -8920.54042160283,
                         -1128.37353319573, 13380819.3637783)),
    (0.5, 0.001, 1.0, (0.533130902516826, 0.0337181588594873,
                       -0.279680314372429, -0.03551194504059,
                       0.419627845850377)),
    (0.5, 0.001, 1000.0, (0.00158918814413458, 0.000100509083320024,
                          3.07503966238444e-06, -1.30711641404969e-08,
                          -5.74926237830856e-09)),
    (0.5, 1.0, 0.001, (16.8590794297436, 33.7181588594873, -8844.26810128801,
                       -35511.94504059, 13269797.6251723)),
    (0.5, 1.0, 1.0, (0.0502545416600122, 0.100509083320024, 0.0972412922849002,
                     -0.0130711641404969, -0.181807639813717)),
    (0.5, 1.0, 1000.0, (0, 0, 0, 0, 0)),
    (0.5, 50.0, 0.001, (11.6548752371503, 164.824826281442, -6154.58173379918,
                        -207042.824429739, 8527473.95165377)),
    (0.5, 50.0, 1.0, (1.05706244848151e-24, 1.49491205091787e-23,
                      1.57003461021774e-22, 1.45090437649445e-21,
                      1.24391457112819e-20)),
    (0.5, 50.0, 1000.0, (0, 0, 0, 0, 0)),
    (0.7, 0.0, 0.001, (42.0824462673443, 4257.05463810892, 205383.641868595,
                       -78789797.4378862, -33452327177.8644)),
    (0.7, 0.0, 1.0, (0.334272752564191, 0.268601988976829, 0.102935659300416,
                     -0.313667833264801, -1.05785546915204)),
    (0.7, 0.0, 1000.0, (0.0026552228546074, 1.69476397686918e-05,
                        5.15900383263749e-08, -1.24873413594696e-09,
                        -3.34523271778645e-11)),
    (0.7, 1e-09, 0.001, (42.0824457662553, 4257.05468027639, 205383.648268948,
                         -78789797.026021, -33452327375.2598)),
    (0.7, 1e-09, 1.0, (0.334272252156927, 0.268602323102944, 0.102936062963816,
                       -0.313667626416316, -1.05785625370235)),
    (0.7, 1e-09, 1000.0, (0.00265472786289305, 1.69502417345488e-05,
                          5.16154235704978e-08, -1.24862874305333e-09,
                          -3.3455409458204e-11)),
    (0.7, 0.001, 0.001, (42.0746011773604, 4257.70822238205, 205484.702345711,
                         -78783147.5958569, -33455409458.2039)),
    (0.7, 0.001, 1.0, (0.327109349993373, 0.272921308270877, 0.109181480862714,
                       -0.309814079125564, -1.06874793550703)),
    (0.7, 0.001, 1000.0, (0.000306977913792256, 7.97102685461146e-06,
                          1.43413137696299e-07, 1.83981442028668e-09,
                          7.34613923323697e-12)),
    (0.7, 1.0, 0.001, (41.180627314213, 4325.51123556094, 217845.69425787,
                       -77821778.1646139, -33796777208.0494)),
    (0.7, 1.0, 1.0, (0.038646229653263, 0.126332261987984, 0.286146829116867,
                     0.462140487881376, 0.232305319857517)),
    (0.7, 1.0, 1000.0, (0, 0, 0, 0, 0)),
    (0.7, 50.0, 0.001, (31.5015300597309, 4713.00202728475, 383512.290455886,
                        -55547086.2716628, -36250356575.3475)),
    (0.7, 50.0, 1.0, (8.73475794363852e-25, 2.83975096807841e-23,
                      6.91560268501414e-22, 1.49493260432555e-20,
                      3.02489079216983e-19)),
    (0.7, 50.0, 1000.0, (0, 0, 0, 0, 0)),
    (0.9, 0.0, 0.001, (52.6816448256415, 43772.1096877146, 50078111.0581398,
                       70998929551.9584, 117083145122526)),
    (0.9, 0.0, 1.0, (0.105113700611178, 0.174259907369334, 0.397784575551387,
                     1.12525720118925, 3.70249414203215)),
    (0.9, 0.0, 1000.0, (0.000209729405616404, 6.937411866372e-07,
                        3.1597151969828e-09, 1.78341247793269e-11,
                        1.17083145122526e-13)),
    (0.9, 1e-09, 0.001, (52.6816448181724, 43772.109688453, 50078111.0591033,
                         70998929553.4512, 117083145125195)),
    (0.9, 1e-09, 1.0, (0.105113693613919, 0.174259908647145, 0.397784579072198,
                       1.12525721227006, 3.70249418196298)),
    (0.9, 1e-09, 1000.0, (0.000209723349898622, 6.9374295756307e-07,
                          3.15972671036657e-09, 1.78342004800864e-11,
                          1.17083702895614e-13)),
    (0.9, 0.001, 0.001, (52.6801236981084, 43772.221425583, 50078293.5329753,
                         70999230922.1101, 117083702895614)),
    (0.9, 0.001, 1.0, (0.104064418608157, 0.17428629114899, 0.398195557600866,
                       1.12687427615075, 3.70896333308549)),
    (0.9, 0.001, 1000.0, (2.90147568379389e-05, 2.60511074667879e-07,
                          1.99844515204128e-09, 1.55284415464549e-11,
                          1.27747005489084e-13)),
    (0.9, 1.0, 0.001, (52.1557580812526, 43778.7369935277, 50129850.6327278,
                       71100960084.3117, 117287718905999)),
    (0.9, 1.0, 1.0, (0.0145418257139746, 0.0654374233716225, 0.251589338598162,
                     0.979778424206709, 4.03971501611538)),
    (0.9, 1.0, 1000.0, (0, 0, 0, 0, 0)),
    (0.9, 50.0, 0.001, (42.5228055706891, 42375.5087565775, 50466053.5658559,
                        72816933352.9645, 121562358685941)),
    (0.9, 50.0, 1.0, (3.51808255814035e-25, 2.49377198352439e-23,
                      1.32682969706611e-21, 6.28023636553043e-20,
                      2.78914757187663e-18)),
    (0.9, 50.0, 1000.0, (0, 0, 0, 0, 0)),
]


def test_derivative_at_zero_reference():
    # the value at (0.5, 1e-9, 1e-3, 1) was off by -1.8e-6 relative when
    # small lam * t took a branch of its own
    for beta, lam, t, refs in _DERIVATIVE_REFERENCE:
        params = TemperedStableParams(beta, lam)
        for k, ref in enumerate(refs):
            val = derivative_at_zero(k, t, params)
            if ref == 0.0:
                assert val == 0.0
            else:
                assert val == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_derivative_at_zero_raises_where_it_overflows():
    # at k = 80, t = 1e-3, beta 0.98 the derivative is beyond double
    # range: math.exp of A_j's log used to raise a bare OverflowError
    params = TemperedStableParams(0.98, 0.0)
    assert math.isfinite(derivative_at_zero(60, 1e-3, params))
    with pytest.raises(NonConvergenceError, match="overflows"):
        derivative_at_zero(80, 1e-3, params)


def test_boundary_error_holds_against_the_reference():
    # eval at x = 0 reports A_1 / pi with an error computed from its
    # inputs; it bounds the distance to the mpmath value everywhere
    for beta, lam, t, refs in _DERIVATIVE_REFERENCE:
        params = TemperedStableParams(beta, lam)
        res = eval_density(EvalPoint(0.0, t), params)
        assert res.method == "boundary"
        assert res.value == boundary_value(t, params)
        assert abs(res.value - refs[0]) <= res.error_estimate
        assert res.error_estimate <= 1e-12 * abs(res.value)


def test_cdf_falls_back_where_the_branch_cut_misses():
    # the direct integral's rounding floor is above the bar here, so the
    # quadrature gives up before bisecting far (it used to cancel to -1.61
    # with an error estimate of 64, garbage as a probability). The
    # saddle-point line gives P(D(4) < 1) = 2.42e-34, as does mpmath's
    # Talbot inversion at 120 digits.
    params = TemperedStableParams(0.8, 5.0)
    assert its_density._branch_cut(0, 4.0, 1.0, params) is None
    assert cdf(4.0, 1.0, params) == pytest.approx(1.0, abs=1e-12)


def test_cdf_keeps_the_mass_on_both_sides_of_the_mean():
    # P(D(x) < t) = 1 where all of D(x)'s mass lies far below t: a
    # last-jump integral over (0, t) lost 1.6e-5 here at beta 0.98 with
    # no panel edge below mean - 4 sd. The cdf is P(D(x) > t), below
    # Chernoff's e**phi(s*) on the line through the saddle point, s* < 0
    for beta, lam, t, x in ((0.98, 50.0, 1e3, 331.036),
                            (0.5, 50.0, 1e3, 3.0)):
        params = TemperedStableParams(beta, lam)
        c, *_, log_tail = its_density._line(0, x, t, params)
        assert c < 0 and log_tail < math.log(1e-8)
        assert cdf(x, t, params) <= math.exp(log_tail)


def test_cdf_refuses_a_value_outside_its_error(monkeypatch):
    # a probability of -0.5 with an error of 1e-9 is garbage, not 0, from
    # the series (x lam**beta = 2) as from the saddle-point line
    # (x lam**beta = 3, a tail of 2, so a cdf of -1 at c > 0): both raise
    params = TemperedStableParams(0.5, 1.0)
    assert cdf(2.0, 1.0, params) == pytest.approx(0.37230216184474713,
                                                  abs=1e-10)
    monkeypatch.setattr(its_density, "_series", lambda m, xs, *args: [
        DensityResult(-0.5, 1e-9, "series", 3)] * len(xs))
    with pytest.raises(NonConvergenceError):
        cdf(2.0, 1.0, params)
    monkeypatch.setattr(its_density, "_saddle",
                        lambda *args: [(math.log(2.0), 1e-9, 1)])
    assert its_density._line(0, 3.0, 1.0, params)[0] > 0
    with pytest.raises(NonConvergenceError):
        cdf(3.0, 1.0, params)


def test_cdf_reference_values():
    params = TemperedStableParams(0.5, 1.0)
    for x, ref in _CDF_REFERENCE:
        assert cdf(x, 1.0, params) == pytest.approx(ref, abs=1e-7)


# (x, t, lam) -> P(E(t) <= x) at beta = 1/2, each beyond the series
# (x lam**beta > 2), so cdf takes the saddle-point parabola; at the first
# four the branch cut's rounding floor is above the bar, and its
# quadrature stops. D(x) is inverse Gaussian, so
# P(D(x) <= t) = Phi(r (s - 1)) + exp(2 x sqrt(lam)) Phi(-r (s + 1)) with
# r = x / sqrt(2 t), s = 2 sqrt(lam) t / x, summed by mpmath at 50 digits.
_CDF_TAIL_REFERENCE = [
    (90.0, 50.0, 1.0, 0.14595494129988002),
    (100.0, 50.0, 1.0, 0.48010238435167297),
    (110.0, 50.0, 1.0, 0.82984828278430745),
    (2000.0, 1000.0, 1.0, 0.49554024703945788),
    (3.0, 0.25, 50.0, 0.19238289554260551),
    (3.0, 1000.0, 50.0, 0.0),
]


def test_cdf_tail_reference_values():
    for x, t, lam, ref in _CDF_TAIL_REFERENCE:
        assert cdf(x, t, TemperedStableParams(0.5, lam)) == pytest.approx(
            ref, abs=1e-11)


def test_cdf_near_the_median_takes_the_shifted_line():
    # at the second and fourth rows above the saddle point lies within one
    # width of the pole at 0, where the branch cut misses, so the line
    # moves two widths right of the pole
    params = TemperedStableParams(0.5, 1.0)
    for x, t in ((100.0, 50.0), (2000.0, 1000.0)):
        assert its_density._branch_cut(0, x, t, params) is None
        c, w, *_ = its_density._line(0, x, t, params)
        assert c == 2.0 * w


@pytest.mark.parametrize("beta, value", [(0.9, 1.0938667456946555e-4),
                                         (0.98, 2.041470981715448e-5)])
@pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
def test_untempered_cdf_refuses_the_pole_line(beta, value, t):
    # at lam = 0 the pole at 0 is also the branch point; the line two
    # widths right of it gave 3.65e-12 +- 5.9e-12 at beta 0.9 against
    # 1.09e-4, so _saddle refuses it, and cdf keeps the series' value
    params = TemperedStableParams(beta, 0.0)
    x = 1e-3 * moment_exact(MomentQuery(1.0, t, params))
    line = its_density._line(0, x, t, params)
    assert line[0] == 2.0 * line[1]
    assert its_density._saddle(0, [x], t, params, [line]) == [None]
    assert cdf(x, t, params) == value


def test_cdf_at_tiny_t_meets_chernoffs_bound():
    # the m = 0 branch cut converged to 0 +- 0 here, but P(E(t) > 1) is
    # at most e**phi(s*), phi(s*) = -1.56e8 and -2.5e49, so the cdf is 1
    for beta, t in ((0.3, 1e-20), (0.5, 1e-50)):
        assert cdf(1.0, t, TemperedStableParams(beta, 1.0)) == 1.0


def test_cdf_takes_the_line_where_the_cut_leaves_the_unit_interval():
    # the m = 0 branch cut gives 1.00088 +- 1.6e-10 here, and cdf raised;
    # the line gives P(E(t) > x) = P(D(x) < t), which mpmath's Talbot
    # inversion of e**(-x Psi(s)) / s gives at 40 and 60 digits. cdf now
    # sums the series here (x lam**beta = 0.0013), and agrees
    params = TemperedStableParams(0.13, 0.01)
    x, t, tail = 0.0024, 1e-27, 4.362028466358751e-4
    assert its_density._branch_cut(0, x, t, params)[0] > 1.0
    line = its_density._line(0, x, t, params)
    (log_tail, err, _), = its_density._saddle(0, [x], t, params, [line])
    assert line[0] > 0 and abs(math.exp(log_tail) - tail) <= err
    assert cdf(x, t, params) == pytest.approx(1.0 - tail, abs=1e-12)


def test_untempered_cdf_is_the_stable_survival_function():
    # beta = 1/2, lam = 0: P(E(t) <= x) = erf(x / (2 sqrt(t)))
    params = TemperedStableParams(0.5, 0.0)
    for t in (1e-3, 0.5, 1.0, 3.0, 1e3):
        for x in (1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0, 100.0):
            assert cdf(x, t, params) == pytest.approx(
                math.erf(x / (2.0 * math.sqrt(t))), abs=1e-12)


# (beta, x) -> P(E(1) <= x) at lam = 0 from mpmath's Talbot inversion of
# (1 - e**(-x s**beta)) / s, where 40 and 60 digits agree to 1e-24
_UNTEMPERED_CDF_REFERENCE = [
    (0.7, 1.1005474055236655, 0.51847929146460171),
    (0.9, 1.0397541343476366, 0.41012464699898806),
    (0.3, 3.342727525641905, 0.9617714434254319),
    (0.02, 0.30338449576766424, 0.25905806108917631),
    (0.98, 1.0083609166071703, 0.29554016824752988),
]


def test_untempered_cdf_reference_values():
    # the cdf series at lam = 0, where every x goes to the series first
    for beta, x, ref in _UNTEMPERED_CDF_REFERENCE:
        assert cdf(x, 1.0, TemperedStableParams(beta, 0.0)) == pytest.approx(
            ref, abs=1e-11)


def test_the_density_beyond_the_series_is_not_the_branch_cuts_value():
    # the branch cut converges at both points with no correct digit:
    # -6.92e-187 +- 3.0e-180 where h is 7.18e-216 (the frozen table), and
    # 8.43e-15 +- 2.5e-13 where h = e**(-x**2/4) / sqrt(pi) at beta 1/2,
    # lam 0. The density there comes from the parabola, to the bar
    params = TemperedStableParams(0.5, 1.0)
    x = 600.1499999968989
    assert its_density._branch_cut(1, x, 1e3, params)[0] < 0.0
    res = eval_density(EvalPoint(x, 1e3), params)
    assert res.method == "saddle" and res.value > 0.0
    assert res.value == pytest.approx(7.184827860980587e-216, rel=1e-8)
    res = eval_density(EvalPoint(11.283791670955125, 1.0),
                       TemperedStableParams(0.5, 0.0))
    assert res.method == "saddle"
    assert res.value == pytest.approx(8.460623186456837e-15, rel=1e-8)


def test_cdf_far_below_the_median_is_positive_within_chernoffs_bound():
    # the m = 0 branch cut gives -7.0e-187 +- 3.1e-180 here, and cdf gave
    # 0.0; the line gives P(E(t) <= x) itself, at most e**phi(c), c < 0
    params = TemperedStableParams(0.5, 1.0)
    c, _, phi, *_ = its_density._line(0, 600.15, 1e3, params)
    assert c < 0.0
    assert 0.0 < cdf(600.15, 1e3, params) <= math.exp(phi)


def test_untempered_cdf_far_tail():
    # P(E(1) > 10) < 1e-40 at beta = 0.7; the branch-cut integral gave
    # 2.8e4 +- 5.9e5 here
    assert cdf(10.0, 1.0, TemperedStableParams(0.7, 0.0)) == pytest.approx(
        1.0, abs=1e-12)


# the 6 sweep points at the pole (beta 0.9 and 0.98, lam 0, x = 1e-3 x
# mean, t 1e-3, 1 and 1e3), where the line's saddle point lies within a
# width of the pole at 0 and the line gave 0.5: P(E(t) <= x) depends on
# x t**-beta alone, the same at each t, from mpmath's Talbot inversion of
# (1 - e**(-x s**beta)) / s at 40 and 60 digits
_CDF_POLE_REFERENCE = [(0.9, 1.0938667456946548166e-4),
                       (0.98, 2.0414709817154499496e-5)]


@pytest.mark.parametrize("t", (1e-3, 1.0, 1e3))
@pytest.mark.parametrize("beta,ref", _CDF_POLE_REFERENCE)
def test_cdf_at_the_pole_points(beta, ref, t):
    params = TemperedStableParams(beta, 0.0)
    x = 1e-3 * moment_exact(MomentQuery(1.0, t, params))
    res, = its_density._grid(0, [x], t, params)
    assert res.method == "series"
    assert cdf(x, t, params) == pytest.approx(ref, rel=1e-12)


def test_cdf_at_tiny_t_meets_the_reference():
    # the m = 0 branch cut gave 0.99999905 +- 1.3e-10 here, inside the
    # Chernoff range that cdf checked it against; the series is within
    # its error of mpmath's Talbot inversion at 40 and 60 digits
    params = TemperedStableParams(0.28, 25.0)
    x, t, ref = 6.35e-6, 1e-22, 0.99998341170110108691
    res, = its_density._grid(0, [x], t, params)
    assert res.method == "series"
    assert abs(res.value - ref) <= res.error_estimate <= 1e-8
    assert cdf(x, t, params) == res.value


@pytest.mark.parametrize("beta,lam,t,x", [(0.5, 1.0, 1.0, 0.3),
                                          (0.5, 1.0, 1.0, 1.8),
                                          (0.3, 5.0, 0.5, 0.9),
                                          (0.7, 0.5, 2.0, 1.2)])
def test_cdf_series_differentiates_to_the_density(beta, lam, t, x):
    # the cdf series is the density's integrated term by term: its central
    # difference D(d) misses h by d**2 / 6 times h's second derivative,
    # + O(d**4), so the miss falls 4-fold as d halves, and Richardson's
    # (4 D(d/2) - D(d)) / 3 meets h
    params = TemperedStableParams(beta, lam)
    h = eval_density(EvalPoint(x, t), params).value

    def central(d):
        lo, hi = its_density._grid(0, [x - d, x + d], t, params)
        assert lo.method == hi.method == "series"
        return (hi.value - lo.value) / (2.0 * d)

    wide, narrow = central(1e-2), central(5e-3)
    assert (wide - h) / (narrow - h) == pytest.approx(4.0, rel=1e-3)
    assert (4.0 * narrow - wide) / 3.0 == pytest.approx(h, rel=1e-8)


def test_cdf_limits_and_monotonicity():
    params = TemperedStableParams(0.5, 1.0)
    xs = [0.0, 0.2, 1.0, 3.0, 8.0, 25.0, 60.0]
    vals = [cdf(x, 1.0, params) for x in xs]
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(1.0, abs=1e-7)
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_series_integral_agree_across_parameters():
    for beta in (0.2, 0.5, 0.8):
        for lam in (0.5, 2.0):
            params = TemperedStableParams(beta, lam)
            for x in (0.1, 0.8, 1.5):
                p = EvalPoint(x, 1.0)
                s = eval_series(p, params).value
                i = eval_integral(p, params).value
                assert abs(s - i) < 1e-8


def test_large_x_never_overflows():
    # deep in the tail the evaluator produces a finite non-negative value
    # within the bar -- never an overflow, a nan or a refusal
    params = TemperedStableParams(0.5, 2.0)
    for x in (8.0, 15.0, 25.0, 40.0):
        res = eval_density(EvalPoint(x, 1.0), params)
        assert math.isfinite(res.value)
        assert res.value >= 0
        assert res.error_estimate <= 1e-8 * max(1.0, abs(res.value))


def test_series_computes_each_coefficient_block_once(monkeypatch):
    # the first point computes the A_j of the 32-term block it reaches,
    # one incomplete gamma each except where sin(j*beta*pi) = 0: j = 5,
    # 10, ..., 30 at beta = 0.4; a second point at the same (beta, lam, t)
    # computes none
    its_density._coefficients.cache_clear()
    calls = []
    gamma = its_density.upper_incomplete_gamma_scaled

    def counted(a, u):
        calls.append(a)
        return gamma(a, u)

    monkeypatch.setattr(its_density, "upper_incomplete_gamma_scaled", counted)
    params = TemperedStableParams(0.4, 1.0)
    res = eval_series(EvalPoint(0.8, 1.0), params)
    assert res.terms_or_panels == 22
    assert sorted(round(-a / 0.4) for a in calls) == [
        j for j in range(1, 33) if j % 5]
    calls.clear()
    assert eval_series(EvalPoint(0.5, 1.0), params).terms_or_panels > 0
    assert calls == []


def test_series_rows_are_the_same_cold_and_warm(monkeypatch):
    # a warm call's first round spans every A_j already cached, so a
    # one-row call that took four rounds cold takes one; it adds the same
    # terms in the same order, so every series row of eval, cdf and
    # eval_density_grid is the same to the last bit, cold or warm
    params = TemperedStableParams(0.6, 0.0)
    xs = [0.5, 2.0, 4.0]
    calls = ([lambda x=x: eval_density(EvalPoint(x, 1.0), params)
              for x in xs] + [lambda x=x: cdf(x, 1.0, params) for x in xs]
             + [lambda: its_density.eval_density_grid(xs, 1.0, params)])
    cold = []
    for call in calls:
        its_density._coefficients.cache_clear()
        cold.append(repr(call()))
    assert [repr(call()) for call in calls] == cold
    assert "saddle" not in "".join(cold)
    blocks = []
    sum_rows = its_density.sum_series_rows

    def counted(block, *args):
        def one(js, rows):
            blocks.append(len(js))
            return block(js, rows)
        return sum_rows(one, *args)

    monkeypatch.setattr(its_density, "sum_series_rows", counted)
    res = eval_density(EvalPoint(4.0, 1.0), params)
    assert res.method == "series" and res.terms_or_panels > 3 * 32
    assert len(blocks) == 1


def test_unconverged_forms_fall_back_below_double_range(monkeypatch):
    # the series does not converge at beta = 0.95, t = 1e-3, where log h
    # is about -1.8e49: the saddle contour's bound gives 0 with error 0,
    # not the series' 1e303, before any quadrature panel runs, and with
    # no numpy warning.
    panels = []
    integrate = its_density.integrate_semi_infinite_rows

    def counted(*args, **kwargs):
        results = integrate(*args, **kwargs)
        panels.extend(r.subdivisions_used for r in results)
        return results

    monkeypatch.setattr(its_density, "integrate_semi_infinite_rows", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = eval_density(EvalPoint(0.5, 1e-3),
                           TemperedStableParams(0.95, 1.0))
    assert (res.value, res.error_estimate, res.method) == (0.0, 0.0,
                                                           "saddle")
    assert panels == []


def test_bulk_density_takes_the_parabola_in_few_panels(monkeypatch):
    # at the mean of E(1e3), beta 0.7, lam 1, the branch-cut integrand
    # carries e**(lam**beta x - lam t) against a cancelling sum, and the
    # density comes from the steepest-descent parabola instead, in one
    # quadrature of a few panels
    panels = []
    integrate = its_density.integrate_semi_infinite_rows

    def counted(*args, **kwargs):
        results = integrate(*args, **kwargs)
        panels.extend(r.subdivisions_used for r in results)
        return results

    monkeypatch.setattr(its_density, "integrate_semi_infinite_rows", counted)
    res = eval_density(EvalPoint(1428.79, 1e3), TemperedStableParams(0.7, 1.0))
    assert res.method == "saddle"
    assert len(panels) == 1 and panels[0] <= 15


@pytest.mark.parametrize("beta,lam,t", [(0.6, 1.0, 1.0), (0.8, 1.0, 1.0),
                                        (0.4, 2.0, 0.5), (0.5, 1.0, 1.0)])
def test_bulk_parabola_converges_on_its_first_integrand_call(monkeypatch,
                                                             beta, lam, t):
    # at twice the mean in the four normalization cases the integrand is
    # a Gaussian core of one saddle width times a slowly varying factor:
    # the first seven panels, at most two widths wide out to eight, meet
    # the target at once, in one integrand call, with no bisection
    calls = []
    integrate = its_density.integrate_semi_infinite_rows

    def counted(g, n, *args):
        def counted_g(k, v):
            calls.append(v.size)
            return g(k, v)
        return integrate(counted_g, n, *args)

    monkeypatch.setattr(its_density, "integrate_semi_infinite_rows", counted)
    params = TemperedStableParams(beta, lam)
    x = 2.0 * moment_exact(MomentQuery(1.0, t, params))
    line = its_density._line(1, x, t, params)
    res, = its_density._saddle(1, [x], t, params, [line])
    assert res is not None and res[2] == 7
    assert calls == [7 * 15]


def test_series_raises_where_its_own_error_misses_the_bar():
    # the prefactor e**(lam**beta x) / pi sits in each term, so the terms'
    # rounding and the gamma's bound count at their real size: the sum
    # fails its own test where it cancels, instead of returning 1.05e-6
    # +- 2.9e-9 where the integral gives 4.46e-11, or 0.1048758 +- 2.9e-8
    # where it gives 0.1048790
    for lam, x in ((50.0, 15.570712058735715), (5.0, 10.0)):
        with pytest.raises(NonConvergenceError):
            eval_series(EvalPoint(x, 1.0), TemperedStableParams(0.3, lam))
    # the gamma's 5e-14 over 175 terms is above the bar at this point, so
    # eval takes the saddle contour, not the series' -1.9e-7 relative
    # miss; the reference is the branch cut in mpmath at 40, 60 and 90
    # digits
    res = eval_density(EvalPoint(0.02815071826673611, 1e-3),
                       TemperedStableParams(0.7, 50.0))
    assert res.method == "saddle"
    assert res.value == pytest.approx(0.03485037928418269, rel=1e-9)


def test_saddle_line_meets_the_bar_itself(monkeypatch):
    # with a quadrature error of 1e-5 of the value neither the saddle
    # density nor the cdf tail (P(D(90) < 50) = 0.854 at beta 1/2, lam 1)
    # can meet the bar, and both raise instead of returning
    integrate = its_density.integrate_semi_infinite_rows

    def loose(*args, **kwargs):
        return [dataclasses.replace(
            r, error_estimate=r.error_estimate + 1e-5 * abs(r.value))
            for r in integrate(*args, **kwargs)]

    monkeypatch.setattr(its_density, "integrate_semi_infinite_rows", loose)
    with pytest.raises(NonConvergenceError):
        eval_density(EvalPoint(1428.79, 1e3), TemperedStableParams(0.7, 1.0))
    with pytest.raises(NonConvergenceError):
        cdf(90.0, 50.0, TemperedStableParams(0.5, 1.0))


def test_results_are_python_floats():
    # one point per method, and cdf at lam = 0 and by each of its two
    # forms; x = 10 x mean came as numpy.float64 from moment_exact and
    # once carried it into the fallback's error
    params = TemperedStableParams(0.7, 1e-3)
    mean = moment_exact(MomentQuery(1.0, 1.0, params))
    assert type(mean) is float
    for x, t, prm, method in ((0.0, 1.0, params, "boundary"),
                              (0.5, 1.0, params, "series"),
                              (8.0, 1.0, TemperedStableParams(0.5, 2.0),
                               "saddle"),
                              (10.0 * mean, 1.0, params, "saddle")):
        res = eval_density(EvalPoint(x, t), prm)
        assert res.method == method
        assert type(res.value) is float
        assert type(res.error_estimate) is float
    for x, t, lam in ((1.0, 1.0, 0.0), (2.0, 1.0, 1.0), (90.0, 50.0, 1.0)):
        assert type(cdf(x, t, TemperedStableParams(0.5, lam))) is float


def test_large_lam_t_series_hands_over_to_integral():
    # at lam * t = 1000 the scaled incomplete gamma underflows: the series
    # ends unconverged and the dispatcher returns the saddle contour's
    # value, the branch-cut integral's
    params = TemperedStableParams(0.5, 1.0)
    p = EvalPoint(0.5, 1000.0)
    with pytest.raises(NonConvergenceError):
        eval_series(p, params)
    res = eval_density(p, params)
    assert res.method == "saddle"
    assert res.value == eval_integral(p, params).value == 0.0


# (beta, lam, t, x) -> h from mpmath, written by make_density_oracle.py
with open(os.path.join(os.path.dirname(__file__),
                       "density_oracle.json")) as _f:
    _ORACLE = json.load(_f)


@pytest.mark.parametrize("row", _ORACLE,
                         ids=lambda r: "{beta}-{lam}-{t}-{x:.6g}".format(**r))
def test_density_matches_the_frozen_oracle(row):
    # every method's error bounds the distance to h, and is within 1e-8
    # of h: the series' error counts each term's rounding and its gamma's
    # bound, and the saddle contour meets the bar relative to h
    ref = row["h"]
    res = eval_density(EvalPoint(row["x"], row["t"]),
                       TemperedStableParams(row["beta"], row["lam"]))
    assert abs(res.value - ref) <= res.error_estimate <= 1e-8 * abs(ref)


def test_oracle_generator_lists_the_frozen_rows():
    # a rerun of make_density_oracle.py, which grows the table, recomputes
    # h at these points: they must be the frozen rows' own, in order
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location(
        "make_density_oracle",
        os.path.join(os.path.dirname(__file__), "make_density_oracle.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.points(_ORACLE) + gen.WRIGHT_POINTS == [
        (r["beta"], r["lam"], r["t"], r["x"]) for r in _ORACLE]


@pytest.mark.parametrize("row", _ORACLE,
                         ids=lambda r: "{beta}-{lam}-{t}-{x:.6g}".format(**r))
def test_saddle_bound_holds_at_the_frozen_rows(row):
    # the line's closed-form bound on h is at least h, and at the rows
    # where h is 0 below double range it certifies that 0 itself
    *_, log_bound = its_density._line(
        1, row["x"], row["t"], TemperedStableParams(row["beta"], row["lam"]))
    if row["h"]:
        assert log_bound >= math.log(row["h"])
    else:
        assert log_bound < math.log(5e-324)


def _parabola(x, t, params):
    """_saddle at m = 1 alone at one point: (h, error), or None."""
    line = its_density._line(1, x, t, params)
    res, = its_density._saddle(1, [x], t, params, [line])
    return res and (math.exp(res[0]), res[1])


@pytest.mark.parametrize("t", (1.0, 1e3))
def test_the_parabola_holds_its_error_in_the_bulk(t):
    # at 0.3 x mean, beta 0.7, lam 0, the vertical line through the saddle
    # point missed the series by 4.9e-8 relative while it claimed 4.2e-10;
    # the parabola agrees with the series within their summed errors
    params = TemperedStableParams(0.7, 0.0)
    x = 0.3 * moment_exact(MomentQuery(1.0, t, params))
    series = eval_series(EvalPoint(x, t), params)
    value, err = _parabola(x, t, params)
    assert abs(value - series.value) <= err + series.error_estimate


@pytest.mark.parametrize("point", [(0.3, 1.0, 1.0, 0.8),
                                   (0.02, 0.0, 1.0, 10.112816525588809),
                                   (0.1, 0.0, 1e-3, 5.268164482564149)])
def test_the_parabola_converges_where_the_vertical_line_did_not(point):
    # frozen rows where the quadrature on the line Re s = s* did not
    # converge; on the parabola it meets the relative bar
    ref, = [r["h"] for r in _ORACLE
            if (r["beta"], r["lam"], r["t"], r["x"]) == point]
    beta, lam, t, x = point
    value, err = _parabola(x, t, TemperedStableParams(beta, lam))
    assert abs(value - ref) <= 1e-8 * ref


@pytest.mark.parametrize("t", (1e-3, 1.0, 1e3))
def test_the_parabola_converges_at_the_pole_points(t):
    # beta 0.98, lam 0, x = 1e-3 x mean: c + lam is about 1e-148, so
    # u = y / (c + lam) reaches 1e76 on the first panels, where
    # b (2 + b) + u**2 overflowed and ended the row; |1 + b + iu| from
    # hypot there keeps it, and it meets the series within their errors
    params = TemperedStableParams(0.98, 0.0)
    x = 1e-3 * moment_exact(MomentQuery(1.0, t, params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, err = _parabola(x, t, params)
    series = eval_series(EvalPoint(x, t), params)
    assert abs(value - series.value) <= err + series.error_estimate
    assert err <= 1e-8 * value


def test_sweep_returns_a_value_or_a_typed_error():
    # a fast corner of beta x lam x t x (x / E[E(t)]): each density is a
    # finite value within the bar, 0 with error 0, or a typed error, and
    # each cdf a probability, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (0.1, 0.7, 0.98):
            for lam in (0.0, 1e-3, 50.0):
                for t in (1e-3, 1e3):
                    params = TemperedStableParams(beta, lam)
                    mean = moment_exact(MomentQuery(1.0, t, params))
                    for k in (0.3, 1.0, 3.0):
                        assert 0.0 <= cdf(k * mean, t, params) <= 1.0
                        try:
                            res = eval_density(EvalPoint(k * mean, t), params)
                        except NonConvergenceError:
                            continue
                        assert math.isfinite(res.value) and res.value >= 0.0
                        assert res.error_estimate <= 1e-8 * max(1.0, res.value)


def _grid_matches_eval(xs, t, params):
    """eval_density_grid on xs, each row checked against eval at its x:
    the same raise, a series row equal to eval_series' in value, error and
    terms, or any other row with the same method and terms or panels and a
    value within eval's error estimate."""
    grid = its_density.eval_density_grid(xs, t, params)
    assert len(grid) == len(xs)
    for x, row in zip(xs, grid):
        try:
            point = eval_density(EvalPoint(x, t), params)
        except (NonConvergenceError, ParameterError) as e:
            assert type(row) is type(e)
            continue
        assert (row.method, row.terms_or_panels) == (point.method,
                                                     point.terms_or_panels)
        if row.method == "series":
            assert row == point
        assert abs(row.value - point.value) <= point.error_estimate
        assert type(row.value) is float and type(row.error_estimate) is float
    return grid


@pytest.mark.parametrize("lam", (0.0, 1.0))
@pytest.mark.parametrize("beta", (0.2, 0.4, 0.6))
def test_density_grid_matches_eval_on_the_table_grids(beta, lam):
    # the README grids, x = 0:4:0.02 at t = 1: the boundary, series rows
    # and, at lam = 1, saddle-contour rows past x lam**beta = 2
    grid = _grid_matches_eval([i * 0.02 for i in range(201)], 1.0,
                              TemperedStableParams(beta, lam))
    methods = {row.method for row in grid}
    assert methods == ({"boundary", "series", "saddle"} if lam
                       else {"boundary", "series"})


def test_density_grid_rows_take_evals_path():
    # x = 0, negative and nan x, and a far-tail row on the saddle line
    grid = _grid_matches_eval([0.0, -1.0, 0.5, math.nan, 11.005, 2.0], 1.0,
                              TemperedStableParams(0.7, 0.0))
    assert [type(r).__name__ if isinstance(r, Exception) else r.method
            for r in grid] == ["boundary", "ParameterError", "series",
                               "ParameterError", "saddle", "series"]
    # series rows that parted from eval_series in the last bit before; a
    # series that misses its bar, and one whose A_j underflow, go on to
    # the saddle contour, as does every row past x lam**beta = 2
    for xs, t, params in (([0.55, 0.1], 0.5, TemperedStableParams(0.4, 2.0)),
                          ([0.02815071826673611, 0.01], 1e-3,
                           TemperedStableParams(0.7, 50.0)),
                          ([0.5, 1.0], 1000.0, TemperedStableParams(0.5, 1.0)),
                          ([1428.79, 100.0], 1e3,
                           TemperedStableParams(0.7, 1.0))):
        _grid_matches_eval(xs, t, params)
    assert its_density.eval_density_grid([], 1.0,
                                         TemperedStableParams(0.5)) == []
    bad_t = its_density.eval_density_grid([1.0], -1.0,
                                          TemperedStableParams(0.5))
    assert isinstance(bad_t[0], ParameterError)
