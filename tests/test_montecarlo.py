import math
import sys
import warnings

import numpy as np
import pytest

from itsub.moments import MomentQuery, moment_exact
from itsub.montecarlo import (
    HorizonError,
    SimConfig,
    empirical_moment,
    first_passage_samples,
    sample_stable_increment,
    sample_tempered_increment,
)
from itsub.stable_family import ParameterError, TemperedStableParams


def test_config_validation():
    with pytest.raises(ParameterError):
        SimConfig(n_paths=0)
    with pytest.raises(ParameterError):
        SimConfig(n_paths=10, time_step=0.0)
    with pytest.raises(ParameterError):
        SimConfig(n_paths=10, horizon=-1.0)


@pytest.mark.parametrize("kwargs", [
    {"n_paths": 1.5}, {"n_paths": True}, {"n_paths": 10.0},
    {"n_paths": 10, "seed": -1}, {"n_paths": 10, "seed": 0.5},
    {"n_paths": 10, "seed": False},
], ids=["n_paths_1.5", "n_paths_True", "n_paths_10.0", "seed_-1",
        "seed_0.5", "seed_False"])
def test_config_refuses_non_integer_counts(kwargs):
    # n_paths 1.5 was accepted and then failed inside np.empty, and a
    # negative seed reached numpy's raw ValueError
    with pytest.raises(ParameterError, match=r"\b(n_paths|seed)\b"):
        SimConfig(**kwargs)


def test_config_accepts_numpy_integers():
    config = SimConfig(n_paths=np.int64(3), seed=np.uint32(7))
    assert first_passage_samples(
        config, TemperedStableParams(0.5, 1.0), 0.1).shape == (3,)


@pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, -0.5, math.nan])
def test_stable_increment_refuses_beta_outside_the_unit_interval(beta):
    # beta 0 raised ZeroDivisionError, 1 returned dt and nan returned nan
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError, match="beta"):
        sample_stable_increment(1e-3, beta, rng, size=4)


def test_stable_increment_laplace_transform():
    # E[exp(-s*X)] = exp(-dt * s**beta), Monte Carlo vs closed form
    rng = np.random.default_rng(7)
    n = 40000
    for beta, s, dt in [(0.5, 1.0, 1.0), (0.7, 2.0, 0.5)]:
        x = sample_stable_increment(dt, beta, rng, size=n)
        w = np.exp(-s * x)
        ref = math.exp(-dt * s ** beta)
        se = float(np.std(w) / math.sqrt(n))
        assert abs(float(np.mean(w)) - ref) < 4 * se


def test_tempered_increment_mean():
    # E[X] = -d/ds exp(-dt*Psi(s)) at s=0 = dt * beta * lam**(beta-1)
    rng = np.random.default_rng(11)
    params = TemperedStableParams(0.5, 1.0)
    n = 40000
    dt = 0.5
    x = sample_tempered_increment(dt, params, rng, size=n)
    ref = dt * 0.5
    se = float(np.std(x) / math.sqrt(n))
    assert abs(float(np.mean(x)) - ref) < 4 * se


def test_tempered_increment_rejects_low_acceptance():
    rng = np.random.default_rng(0)
    params = TemperedStableParams(0.5, 100.0)
    with pytest.raises(ParameterError):
        sample_tempered_increment(1.0, params, rng, size=10)


def test_large_step_auto_subdivision_in_path():
    # lam**beta * dt = 5 per grid step, so each step takes 5 sub-draws
    params = TemperedStableParams(0.5, 100.0)
    config = SimConfig(n_paths=4000, time_step=0.5, horizon=200.0, seed=3)
    samples = first_passage_samples(config, params, 1.0)
    assert np.all(samples > 0) and np.all(np.isfinite(samples))
    est, se = empirical_moment(samples, 1.0)
    exact = moment_exact(MomentQuery(1.0, 1.0, params))
    assert abs(est - exact) < 4 * se


def test_samples_deterministic_under_seed():
    params = TemperedStableParams(0.5, 1.0)
    config = SimConfig(n_paths=100, horizon=40.0, seed=42)
    a = first_passage_samples(config, params, 1.0)
    b = first_passage_samples(config, params, 1.0)
    assert np.array_equal(a, b)
    other = SimConfig(n_paths=100, horizon=40.0, seed=43)
    c = first_passage_samples(other, params, 1.0)
    assert not np.array_equal(a, c)


def test_samples_are_exact_lattice_midpoints():
    # each sample is (k + 0.5) * dt for its crossing step k, computed
    # from k rather than accumulated step by step
    params = TemperedStableParams(0.5, 1.0)
    dt = 1e-3
    config = SimConfig(n_paths=200, time_step=dt, horizon=40.0, seed=1)
    samples = first_passage_samples(config, params, 1.0)
    k = np.round(samples / dt - 0.5)
    assert np.all(samples == (k + 0.5) * dt)


def test_samples_match_exact_mean():
    params = TemperedStableParams(0.5, 1.0)
    config = SimConfig(n_paths=4000, time_step=1e-3, horizon=40.0, seed=2)
    samples = first_passage_samples(config, params, 1.0)
    est, se = empirical_moment(samples, 1.0)
    exact = moment_exact(MomentQuery(1.0, 1.0, params))
    assert abs(est - exact) < 4 * se + 2e-3


def test_coarse_step_midpoint_is_unbiased():
    # the step midpoint leaves no bias in the mean that 1e5 paths can see,
    # even on a coarse grid (dt = 0.1 against E[E(1)] = 2.47)
    params = TemperedStableParams(0.5, 1.0)
    config = SimConfig(n_paths=100_000, time_step=0.1, horizon=40.0)
    samples = first_passage_samples(config, params, 1.0)
    est, se = empirical_moment(samples, 1.0)
    exact = moment_exact(MomentQuery(1.0, 1.0, params))
    assert abs(est - exact) < 4 * se


def test_untempered_samples_match_mittag_leffler_mean():
    # lam = 0: E[E(t)] = t**beta / Gamma(1+beta)
    from scipy.special import gamma as G

    params = TemperedStableParams(0.6)
    config = SimConfig(n_paths=4000, time_step=1e-3, horizon=40.0, seed=8)
    samples = first_passage_samples(config, params, 1.0)
    est, se = empirical_moment(samples, 1.0)
    assert abs(est - 1.0 / G(1.6)) < 4 * se + 2e-3


@pytest.mark.parametrize("beta", [0.3, 0.6])
def test_untempered_samples_match_exact_law(beta):
    # lam = 0: E(t) has the law of (t / S)**beta, S ~ the stable
    # increment over unit time, so one Kanter draw per path is exact
    from scipy.special import gamma as G
    from scipy.stats import ks_2samp

    t = 1.0
    config = SimConfig(n_paths=20_000, time_step=1e-2, horizon=40.0, seed=5)
    stepped = first_passage_samples(config, TemperedStableParams(beta), t)
    rng = np.random.default_rng(6)
    exact = (t / sample_stable_increment(1.0, beta, rng, size=100_000)) ** beta
    assert ks_2samp(stepped, exact).pvalue > 1e-3
    est, se = empirical_moment(stepped, 1.0)
    assert abs(est - t ** beta / G(1.0 + beta)) < 4 * se


def test_stable_increment_is_kanters_form():
    # the ratio form rearranges a(u) = sin(beta u)**(beta/(1-beta))
    # * sin((1-beta) u) / sin(u)**(1/(1-beta)) and takes each sine from
    # its half-angle tangent; where a(u) is finite the draws agree with
    # it to rounding, from the same uniforms, out to beta 0.02 and 0.98
    dt, n = 1e-3, 10000
    for beta in (0.02, 0.3, 0.5, 0.9, 0.98):
        draws = sample_stable_increment(dt, beta, np.random.default_rng(3),
                                        size=n)
        rng = np.random.default_rng(3)
        u = rng.uniform(0.0, math.pi, size=n)
        w = rng.standard_exponential(size=n)
        a = (np.sin(beta * u) ** (beta / (1.0 - beta))
             * np.sin((1.0 - beta) * u)
             / np.sin(u) ** (1.0 / (1.0 - beta)))
        ref = dt ** (1.0 / beta) * (a / w) ** ((1.0 - beta) / beta)
        assert np.all(np.isfinite(ref))
        np.testing.assert_allclose(draws, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("lam,dt,n_paths", [
    (1.0, 1e-3, 2000), (100.0, 0.5, 2000), (1.0, 1e-3, 1), (100.0, 0.5, 1),
    (1.0, 1e-3, 3), (100.0, 0.5, 3),
], ids=["one_draw_a_step", "five_draws_a_step", "one_draw_a_step_1_path",
        "five_draws_a_step_1_path", "one_draw_a_step_3_paths",
        "five_draws_a_step_3_paths"])
def test_horizon_boundary_is_exact(lam, dt, n_paths):
    # the blocks of draws do not depend on the horizon, so a horizon that
    # the slowest path just meets gives the same samples, and one grid
    # step less is a HorizonError; 2000 paths run through the window, and
    # 1 or 3 paths take blocks of 16384 or 5461 draws, whose block sums
    # numpy takes pairwise for one path and in order for three
    params = TemperedStableParams(0.5, lam)

    def run(horizon):
        config = SimConfig(n_paths=n_paths, time_step=dt, horizon=horizon,
                           seed=4)
        return first_passage_samples(config, params, 1.0)

    wide = run(200.0)
    assert np.array_equal(run(wide.max()), wide)
    with pytest.raises(HorizonError):
        run(wide.max() - dt)


@pytest.mark.parametrize("size", [None, 7, 16384, (16, 1024), (3, 2, 5)],
                         ids=["None", "7", "16384", "16x1024", "3x2x5"])
@pytest.mark.parametrize("beta", [0.02, 0.3, 0.5, 0.9, 0.98])
def test_stable_increment_is_the_tangent_expression(beta, size):
    # the in-place kernel gives, bit for bit, the draws of the tangent
    # expression below evaluated term by term on arrays, and its result
    # holds only its own values; a single draw is the one-element array
    # draw (numpy's scalar power may differ from its array power by an
    # ulp, so the reference is taken on one element)
    dt = 1e-2
    got = sample_stable_increment(dt, beta, np.random.default_rng(9), size)
    rng = np.random.default_rng(9)
    shape = 1 if size is None else size
    u = rng.uniform(0.0, math.pi, size=shape)
    w = rng.standard_exponential(size=shape)
    half = 0.5 * u
    tan_u = np.tan(half)
    csc_u = tan_u + 1.0 / tan_u
    tan_b = np.tan(beta * half)
    tan_c = np.tan((1.0 - beta) * half)
    lead = tan_b / (1.0 + tan_b * tan_b) * csc_u
    tail = tan_c / (1.0 + tan_c * tan_c) * csc_u / w
    with np.errstate(over="ignore"):
        ref = dt ** (1.0 / beta) * lead * tail ** ((1.0 - beta) / beta)
    if size is None:
        assert type(got) is float and got == ref[0]
    else:
        assert np.array_equal(got, ref)
        assert got.base is None or got.base.size == got.size


@pytest.mark.parametrize("lam", [0.0, 1e-310, 1.0])
def test_small_beta_overflow_is_silent(lam):
    # at beta 0.02 the Kanter power (a 49th power) overflows to inf, which
    # raised "overflow encountered in power"; an infinite proposal is
    # rejected at lam > 0 and crosses at lam = 0. At lam = 1e-310 the
    # clock E / lam overflows as well, to no tempering. The mean may miss
    # by a grid step more than its noise
    params = TemperedStableParams(0.02, lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = first_passage_samples(
            SimConfig(2000, 1e-2, 2000.0, 1), params, 1.0)
    assert np.all(np.isfinite(samples)) and np.all(samples > 0)
    est, se = empirical_moment(samples, 1.0)
    exact = moment_exact(MomentQuery(1.0, 1.0, params))
    assert abs(est - exact) < 4 * se + 1e-2


def _reference_walk(params, dt, t, n_paths, seed):
    """E(t) on the grid of dt from a step-by-step walk of
    sample_tempered_increment, n_sub tempered draws a grid step, each a
    rejection loop of its own with a uniform per proposal."""
    rng = np.random.default_rng(seed)
    n_sub = max(1, math.ceil(params.lam ** params.beta * dt - 1e-12))
    d = np.zeros(n_paths)
    samples = np.empty(n_paths)
    live = np.arange(n_paths)
    k = 0
    while live.size:
        for _ in range(n_sub):
            d[live] += sample_tempered_increment(dt / n_sub, params, rng,
                                                 size=live.size)
        crossed = d[live] > t
        samples[live[crossed]] = (k + 0.5) * dt
        live = live[~crossed]
        k += 1
    return samples


@pytest.mark.parametrize("lam,dt", [(2.0, 0.05), (100.0, 0.5)],
                         ids=["one_draw_a_step", "five_draws_a_step"])
def test_clock_is_the_rejection(lam, dt):
    # one exponential clock per path, up to its first rejection in a
    # block and then a uniform per proposal, gives the law of a uniform
    # per proposal throughout: a two-sample KS test against the
    # step-by-step walk, and both means against moment_exact; at lam 2 a
    # block of 16 rings for about two paths in three, at lam 100 for all
    from scipy.stats import ks_2samp

    params = TemperedStableParams(0.5, lam)
    n, t = 20_000, 1.0
    walked = first_passage_samples(SimConfig(n, dt, 400.0, 12), params, t)
    stepped = _reference_walk(params, dt, t, n, 13)
    assert ks_2samp(walked, stepped).pvalue > 1e-3
    exact = moment_exact(MomentQuery(1.0, t, params))
    for samples in (walked, stepped):
        est, se = empirical_moment(samples, 1.0)
        assert abs(est - exact) < 4 * se


@pytest.mark.parametrize("beta", [0.3, 0.6])
def test_untempered_samples_match_the_rounded_exact_law(beta):
    # lam = 0: on a coarse grid the sample is E(t) moved to the midpoint
    # of its grid step, which a KS test against the unrounded law sees
    # (p < 1e-40 at dt = 0.1) and one against the rounded law must not
    from scipy.stats import ks_2samp

    t, dt = 1.0, 0.1
    config = SimConfig(n_paths=20_000, time_step=dt, horizon=40.0, seed=5)
    stepped = first_passage_samples(config, TemperedStableParams(beta), t)
    rng = np.random.default_rng(6)
    exact = (t / sample_stable_increment(1.0, beta, rng, size=100_000)) ** beta
    rounded = (np.floor(exact / dt) + 0.5) * dt
    assert ks_2samp(stepped, rounded).pvalue > 1e-3


def test_near_one_beta_draws_stay_finite():
    # at beta 0.98 the powers sin(u)**(1/(1-beta)) and sin(beta u)**49
    # underflowed to 0/0 as u -> 0 (2 nan in 2e7 draws), and a nan path
    # never crosses: these seeds raised HorizonError. E(1) has mean
    # 1 / Gamma(1.98) = 1.0084
    params = TemperedStableParams(0.98, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 1, 2):
            samples = first_passage_samples(
                SimConfig(10000, seed=seed, horizon=5.0), params, 1.0)
            assert np.all(np.isfinite(samples))
            assert samples.mean() == pytest.approx(1.0084, abs=0.01)


def test_small_step_scale_goes_inside_the_outer_power():
    # at beta 0.02 the scale dt**50 underflows below dt ~ 1e-7, which made
    # every draw 0 (and 0 * inf a nan); dt**(1/(1-beta)) inside the outer
    # power gives each draw the dt = 1 draw of the same uniforms times
    # dt**50, in logs, wherever that lies in the normal range
    beta, dt = 0.02, 1e-7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        small = sample_stable_increment(dt, beta, np.random.default_rng(1),
                                        size=100_000)
        unit = sample_stable_increment(1.0, beta, np.random.default_rng(1),
                                       size=100_000)
    assert np.all(np.isfinite(small)) and np.all(small >= 0.0)
    with np.errstate(divide="ignore"):
        shifted = np.log(unit) + math.log(dt) / beta
    normal = small >= sys.float_info.min
    assert 10_000 < np.count_nonzero(normal) < 100_000
    np.testing.assert_allclose(np.log(small[normal]), shifted[normal],
                               rtol=1e-14, atol=0.0)
    assert np.all(shifted[~normal] < math.log(sys.float_info.min) + 1e-9)


@pytest.mark.parametrize("beta,dt", [(0.5, 1e-300), (0.5, 1e200)])
def test_stable_increment_refuses_a_scale_out_of_range(beta, dt):
    # dt**(1/beta) and dt**(1/(1-beta)) both outside the normal range
    with pytest.raises(ParameterError):
        sample_stable_increment(dt, beta, np.random.default_rng(0), size=4)


def test_stable_increment_takes_a_large_step_inside_the_power():
    # dt**50 overflows at dt = 1e10, dt**(50/49) does not
    draws = sample_stable_increment(1e10, 0.02, np.random.default_rng(2), 8)
    assert np.all(draws > 0.0)


def test_small_beta_small_step_walk_crosses():
    # dt 1e-4 at beta 0.01, lam 0: dt**100 underflows to 0, so every draw
    # was 0 and the walk ran into its horizon; dt**(1/0.99) is normal.
    # E(1) has mean 1 / Gamma(1.01) = 1.006, some 1e4 steps a path
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = first_passage_samples(
            SimConfig(3, 1e-4, 20.0, 1), TemperedStableParams(0.01), 1.0)
    assert np.all(np.isfinite(samples)) and np.all(samples > 0.0)


def test_empirical_moment_basics():
    est, se = empirical_moment([2.0, 2.0, 2.0], 2.0)
    assert est == 4.0 and se == 0.0
    est, se = empirical_moment([1.0], 1.0)
    assert est == 1.0 and se == 0.0
    with pytest.raises(ParameterError):
        empirical_moment([], 1.0)
    # a nan sample gave (nan, nan)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="finite"):
            empirical_moment([1.0, bad, 2.0], 1.0)
    # a nan q gave (nan, nan), and 0**-1 (inf, nan) with two
    # RuntimeWarnings
    for samples, q in (([1.0, 2.0], math.nan), ([0.0, 2.0], -1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="finite"):
                empirical_moment(samples, q)
