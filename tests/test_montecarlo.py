import math

import numpy as np
import pytest

from itsub.moments import MomentQuery, moment_exact
from itsub.montecarlo import (
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
    # lam**beta * dt > 1 per grid step is handled by internal splitting
    params = TemperedStableParams(0.5, 100.0)
    config = SimConfig(n_paths=20, time_step=0.5, horizon=200.0, seed=3)
    samples = first_passage_samples(config, params, 1.0)
    assert np.all(samples > 0) and np.all(np.isfinite(samples))


def test_samples_deterministic_under_seed():
    params = TemperedStableParams(0.5, 1.0)
    config = SimConfig(n_paths=100, horizon=40.0, seed=42)
    a = first_passage_samples(config, params, 1.0)
    b = first_passage_samples(config, params, 1.0)
    assert np.array_equal(a, b)
    other = SimConfig(n_paths=100, horizon=40.0, seed=43)
    c = first_passage_samples(other, params, 1.0)
    assert not np.array_equal(a, c)


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


def test_empirical_moment_basics():
    est, se = empirical_moment([2.0, 2.0, 2.0], 2.0)
    assert est == 4.0 and se == 0.0
    est, se = empirical_moment([1.0], 1.0)
    assert est == 1.0 and se == 0.0
    with pytest.raises(ParameterError):
        empirical_moment([], 1.0)
