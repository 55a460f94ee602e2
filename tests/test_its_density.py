import math
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
from itsub.special_fn import upper_incomplete_gamma_scaled
from itsub.stable_family import (
    NonConvergenceError,
    ParameterError,
    TemperedStableParams,
    inverse_stable_density,
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


def test_series_below_the_gamma_floor_raises_a_parameter_error():
    # lam * t = 1e-9 is below the incomplete gamma's floor for
    # non-positive orders; the refusal is a typed ParameterError.
    with pytest.raises(ParameterError, match="refusing Gamma"):
        eval_series(EvalPoint(0.5, 1e-9), TemperedStableParams(0.5, 1.0))


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
        assert res.method in ("series", "integral")


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


def test_untempered_falls_back_to_the_first_passage_identity():
    # neither form meets the bar this far in the tail at lam = 0
    res = eval_density(EvalPoint(11.005, 1.0), TemperedStableParams(0.7, 0.0))
    assert res.method == "first_passage"
    assert res.value == inverse_stable_density(11.005, 1.0, 0.7)
    assert res.error_estimate == abs(res.value)


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
    # h^(k)(0+) = sum_j C(k,j) lam**(beta*(k-j)) (-1)**j
    #             * (A_{j+1} - lam**beta A_j) / pi
    # with A_j = Gamma(1+beta*j) t**(-beta*j) g(-beta*j, lam*t) sin(j*beta*pi),
    # A_0 = 0: the k-th derivative of exp(lam**beta x) times the series
    for beta in (0.3, 0.5, 0.7):
        for lam in (0.5, 1.0, 3.0):
            for t in (0.5, 1.0, 2.0):
                lb = lam ** beta

                def a(j):
                    if j == 0:
                        return 0.0
                    return (G(1.0 + beta * j) * t ** (-beta * j)
                            * upper_incomplete_gamma_scaled(-beta * j, lam * t)
                            * math.sin(j * beta * math.pi))

                params = TemperedStableParams(beta, lam)
                for k in (1, 2, 3):
                    ref = sum(math.comb(k, j) * lb ** (k - j) * (-1.0) ** j
                              * (a(j + 1) - lb * a(j)) / math.pi
                              for j in range(k + 1))
                    assert derivative_at_zero(k, t, params) == pytest.approx(
                        ref, rel=1e-9)


def test_cdf_refuses_an_unconverged_integral():
    # the direct integral cancels to -1.61 with an error estimate of 64
    # here; clamping that to 0 would report garbage as a probability
    with pytest.raises(NonConvergenceError):
        cdf(4.0, 1.0, TemperedStableParams(0.8, 5.0))


def test_cdf_reference_values():
    params = TemperedStableParams(0.5, 1.0)
    for x, ref in _CDF_REFERENCE:
        assert cdf(x, 1.0, params) == pytest.approx(ref, abs=1e-7)


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
    # deep in the tail the evaluator must either produce a finite
    # non-negative value or refuse honestly -- never overflow or return nan
    from itsub.stable_family import NonConvergenceError

    params = TemperedStableParams(0.5, 2.0)
    for x in (8.0, 15.0, 25.0, 40.0):
        try:
            res = eval_density(EvalPoint(x, 1.0), params)
        except NonConvergenceError:
            continue
        assert math.isfinite(res.value)
        assert res.value >= 0
        assert res.error_estimate <= 1e-8 * max(1.0, abs(res.value))


def test_series_computes_only_the_coefficients_it_uses(monkeypatch):
    # one incomplete-gamma call per term summed, not a fixed table
    calls = []
    gamma = its_density.upper_incomplete_gamma_scaled

    def counted(a, u):
        calls.append(a)
        return gamma(a, u)

    monkeypatch.setattr(its_density, "upper_incomplete_gamma_scaled", counted)
    res = eval_series(EvalPoint(0.8, 1.0), TemperedStableParams(0.4, 1.0))
    assert len(calls) == res.terms_or_panels < 50


def test_unconverged_forms_raise(monkeypatch):
    # neither form converges at beta = 0.95, t = 1e-3: a typed error, not
    # the series' 1e303. The integrand overflows there: the quadrature
    # stops at its first non-finite panel, and the error is the only
    # report, with no numpy warning.
    panels = []
    integrate = its_density.integrate_semi_infinite

    def counted(*args, **kwargs):
        res = integrate(*args, **kwargs)
        panels.append(res.subdivisions_used)
        return res

    monkeypatch.setattr(its_density, "integrate_semi_infinite", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError):
            eval_density(EvalPoint(0.5, 1e-3), TemperedStableParams(0.95, 1.0))
    assert panels and max(panels) < 100


def test_large_lam_t_series_hands_over_to_integral():
    # at lam * t = 1000 the scaled incomplete gamma underflows: the series
    # ends unconverged and the dispatcher returns the integral's value
    params = TemperedStableParams(0.5, 1.0)
    p = EvalPoint(0.5, 1000.0)
    with pytest.raises(NonConvergenceError):
        eval_series(p, params)
    res = eval_density(p, params)
    assert res.method == "integral"
    assert res.value == eval_integral(p, params).value == 0.0
