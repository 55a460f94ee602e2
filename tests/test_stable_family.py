import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as G

from itsub import its_density
from itsub.stable_family import (
    ParameterError,
    TemperedStableParams,
    _stable_log_density,
    inverse_stable_density,
    inverse_stable_density_series,
    stable_density,
    sum_series_rows,
    tempered_density,
)

# Standard (t = 1) one-sided stable density values from the convergent
# power series summed at 40-digit precision.
_STABLE_REFERENCE = [
    (0.3, 1.0, 0.11715700256591615),
    (0.5, 2.0, 0.088016331691074869),
    (0.7, 1.5, 0.18530890306577911),
    (0.85, 1.2, 0.39292958535791221),
]

# Inverse stable density values (beta, x, t) from high-precision Laplace
# inversion / first-passage identity at 40+ digits.
_INVERSE_REFERENCE = [
    (0.3, 0.5, 1.0, 0.56100164873166426),
    (0.7, 1.5, 1.0, 0.47242381177922883),
    (0.5, 1.0, 2.0, 0.35206532676429948),
    (0.9, 0.8, 1.0, 0.59406388434599549),
]


def test_params_validation():
    with pytest.raises(ParameterError):
        TemperedStableParams(0.0, 1.0)
    with pytest.raises(ParameterError):
        TemperedStableParams(1.0, 1.0)
    with pytest.raises(ParameterError):
        TemperedStableParams(0.5, -1.0)


def test_laplace_symbol():
    p = TemperedStableParams(0.5, 1.0)
    assert p.laplace_symbol(3.0) == pytest.approx(2.0 - 1.0, rel=1e-14)
    # left of the branch point the principal branch, not math.log1p's
    # domain error
    assert p.laplace_symbol(-2.0) == pytest.approx(1j - 1.0, rel=1e-14)
    p0 = TemperedStableParams(0.4)
    assert p0.laplace_symbol(2.0) == pytest.approx(2.0 ** 0.4, rel=1e-14)


def test_stable_half_closed_form():
    # f(x, t) = t / (2 sqrt(pi)) x**(-3/2) exp(-t^2/(4x)) at beta = 1/2
    for x in (0.2, 0.5, 1.0, 3.0, 10.0):
        for t in (0.5, 1.0, 2.0):
            ref = t / (2 * math.sqrt(math.pi)) * x ** -1.5 * math.exp(
                -t * t / (4 * x))
            assert stable_density(x, t, 0.5) == pytest.approx(ref, rel=1e-8)


def test_stable_reference_values():
    for beta, x, ref in _STABLE_REFERENCE:
        assert stable_density(x, 1.0, beta) == pytest.approx(ref, rel=1e-9)


# (x, t, beta) -> f(x, t): Kanter's integral in mpmath at 40 digits
_STABLE_HARD = [
    (5.0, 10.0, 0.8, 2.6304173777820001e-6),
    (0.02, 1.0, 0.6, 8.9361004524164265e-27),
]


def test_stable_values_where_the_old_branches_were_wrong():
    # the series (first point) and the saddle-point form (second) were
    # off by -2.1e-3 and -2.9e-4 relative here
    for x, t, beta, ref in _STABLE_HARD:
        assert stable_density(x, t, beta) == pytest.approx(
            ref, rel=1e-9, abs=0.0)


# log f(s, 1) over beta x s: Kanter's integral in mpmath at 40 digits
# plus the digits the left tail needs, checked against a second set of
# breakpoints, the Wright series at 80 digits (s >= 1, or s >= 0.3 at
# beta <= 0.5) and the closed form at beta = 1/2.
_SWEEP_S = (1e-3, 0.05, 0.3, 1.0, 3.0, 30.0, 1e3, 1e6)
_SWEEP_LOG_F = {
    0.02: (1.9877374166240462064, -1.9171323511115378705,
           -3.7077929179522346736, -4.9117609700523080938,
           -6.0108695888510367729, -8.3159981171746389979,
           -11.830163669578497831, -18.76502851346500978),
    0.1: (3.3629773281646173698, -0.32865629798906442199,
          -2.0915637427543819302, -3.2960526398528063295,
          -4.4072452716998757618, -6.7682453880265112117,
          -10.42988810686014563, -17.797185714463917355),
    0.3: (-1.2908210344016644223, 0.47933195090993542551,
          -0.92705802357472681844, -2.144240341457802712,
          -3.3637946377815492757, -6.1102694099069936808,
          -10.520205996329336467, -19.434304320840950702),
    0.5: (-240.90387920501143465, -1.771913713153658712,
          -0.29288625032907471622, -1.5155121234846453965,
          -2.9967638898201432669, -6.3756415293112117929,
          -11.627395041957850975, -21.988778210431056553),
    0.7: (-1305204.8271688615228, -136.13680459782006648,
          -0.45710291343916419922, -0.94831040845721110311,
          -2.9957141933129921464, -7.1617330498373900335,
          -13.189284865733887847, -24.938790187934836403),
    0.9: (-3.8742048900000577915e+25, -19835929020.618038456,
          -1961.9725774480233073, -0.097246775631047625472,
          -3.7480283721774954456, -8.7415469091107342462,
          -15.479498342345823299, -28.607536627603824258),
    0.98: (-7.4320342874899041964e+144, -4.1838633559687550296e+61,
           -3.1057480651479003172e+23, 1.0006207515278899114,
           -5.3004228343369420242, -10.584960470801996782,
           -17.596133575906318385, -31.275715570212083089),
}


@pytest.mark.parametrize("beta", sorted(_SWEEP_LOG_F))
def test_stable_sweep_against_mpmath(beta):
    # every point returns log f within 1e-12 of max(1, |log f|), which
    # also holds far below double range; where f is a double it is within
    # 1e-8 relative
    for s, ref in zip(_SWEEP_S, _SWEEP_LOG_F[beta]):
        log_f = _stable_log_density(s, 1.0, beta)
        assert abs(log_f - ref) <= 1e-12 * max(1.0, abs(ref))
        if ref > -700.0:
            assert stable_density(s, 1.0, beta) == pytest.approx(
                math.exp(ref), rel=1e-8, abs=0.0)
        else:
            assert stable_density(s, 1.0, beta) == 0.0


def test_stable_half_closed_form_over_the_range():
    # beta = 1/2: log f(s, 1) = -log(2 sqrt(pi)) - 1.5 log s - 1/(4s),
    # from deep in the left tail to far in the right, where the power
    # tail of the integrand reaches far from its peak
    for s in list(np.logspace(-3, 6, 37)) + [1e10, 1e50, 1e100, 1e300]:
        ref = -math.log(2 * math.sqrt(math.pi)) - 1.5 * math.log(s) - 0.25 / s
        log_f = _stable_log_density(s, 1.0, 0.5)
        assert abs(log_f - ref) <= 1e-12 * max(1.0, abs(ref))


def test_stable_time_scaling():
    # f(x, t) = t**(-1/beta) f(x * t**(-1/beta), 1)
    for beta in (0.3, 0.6, 0.8):
        for t in (0.5, 2.0):
            sc = t ** (-1.0 / beta)
            lhs = stable_density(1.3, t, beta)
            rhs = sc * stable_density(1.3 * sc, 1.0, beta)
            assert lhs == pytest.approx(rhs, rel=1e-8)


def test_stable_laplace_transform():
    # int_0^inf f(x, 1, beta) exp(-s*x) dx = exp(-s**beta)
    for beta, s in [(0.3, 1.0), (0.5, 2.0), (0.7, 0.7)]:
        val, err = quad(lambda x: stable_density(x, 1.0, beta)
                        * math.exp(-s * x), 0, np.inf, limit=400)
        assert val == pytest.approx(math.exp(-s ** beta),
                                    abs=max(1e-6, 10 * err))


def test_stable_far_tail_positive_and_decaying():
    v1 = stable_density(0.02, 1.0, 0.6)
    v2 = stable_density(0.01, 1.0, 0.6)
    assert 0 <= v2 < v1


def test_tempered_density_tilting():
    params = TemperedStableParams(0.6, 1.5)
    x, t = 0.8, 1.0
    ref = math.exp(-1.5 * x + 1.5 ** 0.6 * t) * stable_density(x, t, 0.6)
    assert tempered_density(x, t, params) == pytest.approx(ref, rel=1e-12)


def test_tempered_density_far_from_the_tilt():
    # exp(-lam*x + lam**beta * t) = e**714 overflows on its own; the tilt
    # goes into the exponent of f. Reference: f from Kanter's integral in
    # mpmath at 40 digits, tilted there.
    assert tempered_density(14.0, 200.0, TemperedStableParams(0.5, 50.0)) == \
        pytest.approx(1.0020694744338194, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("lam, t", [(50.0, 1e3), (10.0, 300.0), (1.0, 1e3),
                                    (50.0, 1.0)])
def test_tempered_density_beyond_double_range_of_f(lam, t):
    # beta = 1/2: log f(x, t) = log(t / (2 sqrt(pi))) - 1.5 log x
    # - t**2 / (4x), tilted in logs by -lam x + sqrt(lam) t. At (50, 1e3)
    # and x = beta lam**(beta-1) t, log f is about -3535 and only the
    # tilted density is a double.
    for k in (0.2, 0.5, 1.0, 2.0, 5.0):
        x = k * 0.5 * lam ** -0.5 * t
        log_ref = (math.log(t / (2.0 * math.sqrt(math.pi))) - 1.5 * math.log(x)
                   - t * t / (4.0 * x) - lam * x + math.sqrt(lam) * t)
        assert tempered_density(x, t, TemperedStableParams(0.5, lam)) == \
            pytest.approx(math.exp(log_ref), rel=1e-8, abs=0.0)


def test_tempered_density_normalizes():
    params = TemperedStableParams(0.5, 1.0)
    val, err = quad(lambda x: tempered_density(x, 1.0, params),
                    0, np.inf, limit=400)
    assert val == pytest.approx(1.0, abs=max(1e-8, 10 * err))


def test_inverse_stable_reference_values():
    for beta, x, t, ref in _INVERSE_REFERENCE:
        assert inverse_stable_density(x, t, beta) == pytest.approx(
            ref, rel=1e-9)


# (x, t, beta) -> inverse stable density past the series' reach, where
# the first-passage fallback decides: the Wright series summed by
# mpmath at 60 digits
_INVERSE_FALLBACK = [
    (4.0, 1.0, 0.7, 2.5269874360819177e-6),
    (1.4027482089114776, 1e-3, 0.3, 5.545167621946654e-6),
]


# (x, t, beta) -> inverse stable density where the series cancels: the
# Wright series summed by mpmath at 60 and at 100 digits (the two agree;
# make_density_oracle.wright)
_INVERSE_CANCELLING = [
    (0.0011577532381784389, 1e-3, 0.98, 2748.2436480754486),
    (1.00836, 1.0, 0.98, 3.1553610204854885),
]


def test_inverse_stable_series_error_covers_its_rounding():
    # the error counts the rounding of the log scale's cancelling parts;
    # without it the estimate fell 6.8x and 4.0x short here
    for x, t, beta, ref in _INVERSE_CANCELLING:
        res = inverse_stable_density_series(x, t, beta)
        assert res.converged
        assert abs(res.value - ref) <= res.error_estimate
        assert isinstance(res.error_estimate, float)


def test_inverse_stable_first_passage_fallback():
    for x, t, beta, ref in _INVERSE_FALLBACK:
        assert not inverse_stable_density_series(x, t, beta).converged
        assert inverse_stable_density(x, t, beta) == pytest.approx(
            ref, rel=1e-8, abs=0.0)


def test_inverse_stable_at_zero():
    # l(0, t) = t**(-beta) / Gamma(1 - beta)
    for beta in (0.3, 0.5, 0.7):
        for t in (0.5, 1.0, 2.0):
            ref = t ** -beta / G(1.0 - beta)
            assert inverse_stable_density(0.0, t, beta) == pytest.approx(
                ref, rel=1e-10)


def test_inverse_stable_half_gaussian():
    # beta = 1/2: l(x, t) = exp(-x^2 / 4t) / sqrt(pi * t)
    for x in (0.0, 0.3, 1.0, 2.5):
        for t in (0.5, 1.0, 3.0):
            ref = math.exp(-x * x / (4 * t)) / math.sqrt(math.pi * t)
            assert inverse_stable_density(x, t, 0.5) == pytest.approx(
                ref, rel=1e-9)


def test_inverse_stable_normalizes():
    for beta in (0.4, 0.8):
        val, err = quad(lambda x: inverse_stable_density(x, 1.0, beta),
                        0, np.inf, limit=400)
        assert val == pytest.approx(1.0, abs=max(1e-6, 10 * err))


def test_inverse_stable_smooth_across_dispatch():
    # no spikes where the series hands over to the identity fallback
    for beta in (0.3, 0.6, 0.9):
        xs = np.linspace(0.05, 4.0, 300)
        vals = np.array([inverse_stable_density(x, 1.0, beta) for x in xs])
        assert np.all(vals >= 0)
        # where the density is non-negligible its log must bend smoothly;
        # a dispatch glitch would show as a kink in the second difference
        live = vals > 1e-12
        assert np.all(np.abs(np.diff(np.log(vals[live]), 2)) < 0.5)


def test_argument_validation():
    # densities vanish off the support; bad time parameters raise
    assert stable_density(-1.0, 1.0, 0.5) == 0.0
    assert inverse_stable_density(-0.5, 1.0, 0.5) == 0.0
    with pytest.raises(ParameterError):
        stable_density(1.0, -1.0, 0.5)
    with pytest.raises(ParameterError):
        inverse_stable_density(0.5, -1.0, 0.5)


def test_inverse_stable_is_zero_off_the_support_without_a_density_call(
        monkeypatch):
    # t and beta are checked first, so a bad one still raises at x < 0;
    # then x < 0 returns 0 without evaluating h at x = 0
    for t, beta in ((0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5), (1.0, 1.5)):
        with pytest.raises(ParameterError):
            inverse_stable_density(-0.5, t, beta)

    def no_call(p, params):
        raise AssertionError(f"density evaluated at {p}")

    monkeypatch.setattr(its_density, "eval", no_call)
    assert inverse_stable_density(-0.5, 1.0, 0.5) == 0.0


def test_inverse_stable_refuses_beta_outside_the_unit_interval():
    # beta 0 and -0.5 gave a raw math domain error, beta 1 a converged
    # 1.6e-16, beta 1.5 and nan an unconverged series
    for beta in (0.0, -0.5, 1.0, 1.5, math.nan):
        for f in (inverse_stable_density, inverse_stable_density_series):
            with pytest.raises(ParameterError):
                f(0.5, 1.0, beta)


def _block(*terms):
    """The block function of the rows whose term(n) is terms[i](n)."""
    def block(js, rows):
        a = np.array([[terms[i](n) for n in js.tolist()]
                      for i in rows.tolist()])
        return a[..., 0], a[..., 1], a[..., 2]

    return block


def _sum_rows(*terms, max_terms=100):
    return sum_series_rows(_block(*terms), len(terms), max_terms, 1e-13, 1e-8)


def _exp_term(x, rel=0.0):
    # sum_k (-x)**k / k! = exp(-x), term(n) holding k = n - 1
    return lambda n: ((n - 1) * math.log(x) - math.lgamma(n),
                      (-1.0) ** (n - 1), rel)


def test_sum_series_exponential():
    # the sum stops after the first run of three terms below 1e-15 of the
    # total
    x = 2.0

    def size(k):
        return x ** k / math.factorial(k)

    res, = _sum_rows(_exp_term(x))
    assert res.converged
    assert res.value == pytest.approx(math.exp(-x), rel=1e-14)
    n = res.terms
    small = 1e-15 * math.exp(-x)
    assert all(size(k) < small for k in (n - 3, n - 2, n - 1))
    assert size(n - 4) > small
    # the terms' rounding, eps (|log term| + 4) |term|, counts in the error
    # and covers the actual one
    rounding = sum(2.2e-16 * (abs(math.log(size(k))) + 4.0) * size(k)
                   for k in range(n))
    assert res.error_estimate >= rounding
    assert abs(res.value - math.exp(-x)) <= res.error_estimate < 1e-14
    # each term's own relative error adds in
    rel, = _sum_rows(_exp_term(x, 1e-10))
    assert rel.error_estimate == pytest.approx(
        res.error_estimate + 1e-10 * sum(size(k) for k in range(n)))


def test_sum_series_unconverged_endings():
    # a term whose log scale passes 700 ends the sum unconverged
    res, = _sum_rows(lambda k: (701.0 if k == 3 else -k, 1.0, 0.0))
    assert not res.converged
    assert res.terms == 3
    assert math.isfinite(res.value)
    # so does running out of terms (the harmonic series)
    res, = _sum_rows(lambda k: (-math.log(k), 1.0, 0.0), max_terms=50)
    assert not res.converged
    assert res.terms == 50
    # and so does an error above the bar: 1e-6 of each term in e**-2
    res, = _sum_rows(_exp_term(2.0, 1e-6))
    assert not res.converged
    assert res.error_estimate > 1e-8 * res.value


def test_sum_series_rows_sums_each_row_on_its_own():
    # rows that stop at different j, one of them in a later block, are
    # each their own one-row call bit for bit
    rows = (_exp_term(2.0), lambda k: (-math.log(k), 1.0, 0.0),
            _exp_term(0.5))
    both = _sum_rows(*rows, max_terms=50)
    assert both == [_sum_rows(row, max_terms=50)[0] for row in rows]
    assert len({r.terms for r in both}) == 3


def test_inverse_series_passes_zero_terms():
    # at beta = 1/2 every odd power of x has a zero coefficient; the
    # series must run on to the half-Gaussian exp(-x**2 / 4) / sqrt(pi)
    for x in (0.5, 1.0, 3.0):
        res = inverse_stable_density_series(x, 1.0, 0.5)
        ref = math.exp(-x * x / 4.0) / math.sqrt(math.pi)
        assert res.converged
        assert res.value == pytest.approx(ref, rel=1e-12)
        assert res.terms > 6
