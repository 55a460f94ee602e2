"""Monte Carlo simulation of the tempered stable subordinator and its
first-passage (inverse) process.

Stable increments use the Kanter construction (exact, rejection-free);
tempering is applied by rejection with acceptance weight exp(-lam*x).
First-passage times are located on the grid of the subordinator
skeleton and returned as the midpoint of the grid step in which the
crossing falls, so each sample is within half a step of its exact value.
"""

import math
from dataclasses import dataclass

import numpy as np

from .stable_family import ParameterError, TemperedStableParams


class HorizonError(RuntimeError):
    """A path never crossed the requested level within its horizon."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation layout: path count, operational-time grid, horizon.

    time_step is the grid spacing of the subordinator skeleton; each
    first-passage sample is the midpoint of the step that crosses.
    """

    n_paths: int
    time_step: float = 1e-3
    horizon: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ParameterError("n_paths must be >= 1")
        if self.time_step <= 0:
            raise ParameterError("time_step must be > 0")
        if self.horizon <= 0:
            raise ParameterError("horizon must be > 0")


def sample_stable_increment(dt, beta, rng, size=None):
    """Draw increments of the stable subordinator over time dt.

    Kanter representation: with U ~ Uniform(0, pi) and W ~ Exp(1),
    (a(U)/W)**((1-beta)/beta) has Laplace transform exp(-s**beta), where
    a(u) = sin(beta*u)**(beta/(1-beta)) * sin((1-beta)*u)
           / sin(u)**(1/(1-beta)).
    Scaling by dt**(1/beta) gives the transform exp(-dt * s**beta).
    """
    if dt <= 0:
        raise ParameterError(f"require dt > 0, got {dt}")
    u = rng.uniform(0.0, math.pi, size=size)
    w = rng.standard_exponential(size=size)
    a = (np.sin(beta * u) ** (beta / (1.0 - beta))
         * np.sin((1.0 - beta) * u)
         / np.sin(u) ** (1.0 / (1.0 - beta)))
    return dt ** (1.0 / beta) * (a / w) ** ((1.0 - beta) / beta)


def sample_tempered_increment(dt, params, rng, size=None):
    """Draw increments of the tempered stable subordinator over time dt.

    Rejection from the stable proposal with acceptance probability
    exp(-lam * x); the overall acceptance rate is exp(-lam**beta * dt),
    so dt must satisfy lam**beta * dt <= 1 (subdivide otherwise).
    """
    beta, lam = params.beta, params.lam
    if lam == 0.0:
        return sample_stable_increment(dt, beta, rng, size)
    if lam ** beta * dt > 1.0:
        raise ParameterError(
            f"lam**beta * dt = {lam ** beta * dt:.3g} > 1: acceptance rate "
            "too low, subdivide the increment"
        )
    scalar = size is None
    n = 1 if scalar else int(np.prod(size))
    out = np.empty(n)
    need = np.arange(n)
    while need.size:
        prop = sample_stable_increment(dt, beta, rng, size=need.size)
        accept = rng.random(need.size) < np.exp(-lam * prop)
        out[need[accept]] = prop[accept]
        need = need[~accept]
    if scalar:
        return float(out[0])
    return out.reshape(size)


def _split_step(dt, params):
    """Largest per-draw step <= dt with lam**beta * step <= 1."""
    lb = params.lam ** params.beta
    n_sub = max(1, math.ceil(lb * dt / 1.0 - 1e-12))
    return dt / n_sub, n_sub


def _tempered_step(dt, params, rng, size=None):
    """Tempered increment over dt, auto-subdivided to keep the rejection
    acceptance rate above exp(-1)."""
    sub_dt, n_sub = _split_step(dt, params)
    if n_sub == 1:
        return sample_tempered_increment(dt, params, rng, size)
    total = sample_tempered_increment(sub_dt, params, rng, size)
    for _ in range(n_sub - 1):
        total = total + sample_tempered_increment(sub_dt, params, rng, size)
    return total


def first_passage_samples(config, params, t, rng=None):
    """Vectorized first-passage sampling: config.n_paths draws of E(t).

    All paths advance through the grid in lockstep; a path's sample is
    the midpoint of the grid step in which D first exceeds t.
    """
    if t <= 0:
        raise ParameterError(f"require t > 0, got {t}")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = config.n_paths
    dt = config.time_step
    crossing = np.empty(n)
    d_left = np.zeros(n)
    active = np.arange(n)
    steps = 0
    max_steps = int(math.ceil(config.horizon / dt))
    while active.size:
        if steps >= max_steps:
            raise HorizonError(
                f"{active.size} paths did not cross t={t} within "
                f"horizon={config.horizon}"
            )
        inc = _tempered_step(dt, params, rng, size=active.size)
        new_d = d_left[active] + inc
        crossed = new_d > t
        still = ~crossed
        crossing[active[crossed]] = steps
        d_left[active[still]] = new_d[still]
        active = active[still]
        steps += 1
    # The step index is exact, so each sample is the rounded lattice
    # midpoint, with no rounding summed over the steps before it.
    return (crossing + 0.5) * dt


def empirical_moment(samples, q):
    """Sample mean of x**q with its plug-in standard error."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ParameterError("samples must be non-empty")
    powers = samples ** q
    est = float(np.mean(powers))
    if samples.size == 1:
        return est, 0.0
    se = float(np.std(powers, ddof=1) / math.sqrt(samples.size))
    return est, se
