"""Monte Carlo simulation of the tempered stable subordinator and its
first-passage (inverse) process.

Stable increments use the Kanter construction (exact, rejection-free),
with its sines taken from half-angle tangents; tempering is applied by
rejection with acceptance weight exp(-lam*x). First passages are found
a block of proposals per round: each path still below the level gets a
run of them, and the running sum of the accepted ones shows where it
crosses. The crossing is located on the grid of the subordinator
skeleton and returned as the midpoint of the grid step in which it
falls, so each sample is within half a step of its exact value.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .stable_family import (
    ParameterError,
    require_beta,
    require_finite,
    require_positive,
)

# first_passage_samples walks at most _WINDOW paths at a time and gives
# each of its n active paths max(1, _ROUND_DRAWS // n) proposals a round.
_ROUND_DRAWS = 1 << 14
_WINDOW = 1 << 10


class HorizonError(RuntimeError):
    """A path never crossed the requested level within its horizon."""


def _require_count(name, v, least):
    """ParameterError unless v is an integer >= least; a bool is not."""
    if (isinstance(v, bool) or not isinstance(v, numbers.Integral)
            or v < least):
        raise ParameterError(f"require integer {name} >= {least}, got {v!r}")


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
        _require_count("n_paths", self.n_paths, 1)
        _require_count("seed", self.seed, 0)
        require_positive("time_step", self.time_step)
        require_positive("horizon", self.horizon)


def sample_stable_increment(dt, beta, rng, size=None):
    """Draw increments of the stable subordinator over time dt.

    Kanter representation: with U ~ Uniform(0, pi) and W ~ Exp(1),
    (a(U)/W)**((1-beta)/beta) has Laplace transform exp(-s**beta), where
    a(u) = sin(beta*u)**(beta/(1-beta)) * sin((1-beta)*u)
           / sin(u)**(1/(1-beta)).
    Scaling by dt**(1/beta) gives the transform exp(-dt * s**beta).
    The power beta/(1-beta) is taken out of the outer power, leaving
    (sin(beta*U) / sin(U)) * (sin((1-beta)*U) / (W sin(U)))**((1-beta)/beta):
    near beta = 1 the powers of the sines underflow to 0/0 as U -> 0 and
    overflow as U -> pi, where the ratios stay finite. Each sine comes
    from its half-angle tangent, sin(a) = 2T / (1 + T**2) with
    T = tan(a/2), and the factors 2 cancel in both ratios. numpy
    vectorizes float64 tan but not sin, so this form costs 22 ns a draw
    against 52 ns for the sines (8192 draws, 2-core AVX-512 x86), and
    it agrees with them within 3.3e-14 relative over beta 0.02-0.98.
    """
    require_beta(beta)
    require_positive("dt", dt)
    u = rng.uniform(0.0, math.pi, size=size)
    w = rng.standard_exponential(size=size)
    half = 0.5 * u
    tan_u = np.tan(half)
    csc_u = tan_u + 1.0 / tan_u  # 2 / sin(U)
    tan_b = np.tan(beta * half)
    tan_c = np.tan((1.0 - beta) * half)
    lead = tan_b / (1.0 + tan_b * tan_b) * csc_u
    tail = tan_c / (1.0 + tan_c * tan_c) * csc_u / w
    return dt ** (1.0 / beta) * lead * tail ** ((1.0 - beta) / beta)


def _propose(dt, params, rng, n):
    """n stable proposals over dt and the mask of those that tempering
    accepts, each with probability exp(-lam * x); all of them at lam = 0."""
    prop = sample_stable_increment(dt, params.beta, rng, size=n)
    if params.lam == 0.0:
        return prop, np.ones(n, dtype=bool)
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
    exp(-1). The paths are walked _WINDOW at a time, in order: one that
    crosses leaves the window and the next enters. Every round gives
    each of the n paths in the window a block of b = max(1,
    _ROUND_DRAWS // n) proposals, laid out step-major (row i holds every
    path's i-th proposal), so that each numpy call runs along a row of n
    paths rather than a short row of b steps. A path counts its own
    accepted draws. Since D is increasing, a path that ends its block
    above t crossed at its first accepted draw above t, its j-th, within
    grid step k = (j - 1) // n_sub, and its sample is the midpoint
    (k + 0.5)*dt. The proposals after its crossing are independent of
    the path so far and go unused, so dropping them biases nothing.

    HorizonError once a path has made n_sub * ceil(horizon / dt)
    accepted draws without crossing; a crossing later than that inside a
    block counts as none. The blocks do not depend on the horizon, so
    any horizon that every path meets gives the same samples.

    Measured against the exact lam = 0 law (t/S)**beta, S the stable
    increment over unit time (beta 0.3 and 0.6, t = 1, 2e5 paths, seeds
    0-4): the mean is off by at most 4.1e-3, within 1.9 standard errors,
    at both dt = 1e-2 and dt = 0.1. The law is that of E(t) rounded to
    the lattice midpoints: a two-sample KS test gives p from 0.027 to
    0.98 against 4e5 exact draws so rounded, but against 1e5 unrounded
    ones p from 7.8e-4 to 0.14 at dt = 1e-2 and p < 1e-40 at dt = 0.1.
    """
    require_positive("t", t)
    rng = np.random.default_rng(config.seed)
    dt = config.time_step
    n_sub = max(1, math.ceil(params.lam ** params.beta * dt - 1e-12))
    max_draws = n_sub * math.ceil(config.horizon / dt)
    samples = np.empty(config.n_paths)
    active = np.arange(min(config.n_paths, _WINDOW))
    admitted = active.size
    d = np.zeros(active.size)
    draws = np.zeros(active.size, dtype=np.int64)
    while active.size:
        n = active.size
        b = max(1, _ROUND_DRAWS // n)
        prop, ok = _propose(dt / n_sub, params, rng, b * n)
        ok = ok.reshape(b, n)
        # np.where, not prop * ok: a rejected proposal may be inf
        step = np.where(ok, prop.reshape(b, n), 0.0)
        step[0] += d
        d = step.sum(axis=0)
        draws += np.count_nonzero(ok, axis=0)
        crossed = d > t
        # A path that crossed gives back its accepted draws above t: the
        # first of them is its crossing draw, and the rest come after it.
        # So draws counts the accepted draws at or below t, and a nan
        # path, which never crosses, runs into the horizon.
        path = np.cumsum(step[:, crossed], axis=0)
        draws[crossed] -= np.count_nonzero(ok[:, crossed] & (path > t),
                                           axis=0)
        late = draws >= max_draws
        if late.any():
            raise HorizonError(
                f"{np.count_nonzero(late)} paths did not cross t={t} "
                f"within horizon={config.horizon}"
            )
        # The crossing draw is draws + 1, in grid step draws // n_sub. The
        # step index is exact, so each sample is the rounded lattice
        # midpoint, with no rounding summed over the steps.
        samples[active[crossed]] = (draws[crossed] // n_sub + 0.5) * dt
        # The paths that crossed leave the window, and as many new ones
        # as are left take their places.
        keep = ~crossed
        entering = np.arange(admitted, min(
            config.n_paths, admitted + np.count_nonzero(crossed)))
        admitted += entering.size
        active = np.concatenate([active[keep], entering])
        d = np.concatenate([d[keep], np.zeros(entering.size)])
        draws = np.concatenate([draws[keep],
                                np.zeros(entering.size, np.int64)])
    return samples


def empirical_moment(samples, q):
    """Sample mean of x**q with its plug-in standard error; ParameterError
    unless q, the samples and every x**q are finite and there is a
    sample."""
    require_finite("q", q)
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ParameterError("samples must be non-empty")
    if not np.all(np.isfinite(samples)):
        raise ParameterError("samples must be finite")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        powers = samples ** q
    if not np.all(np.isfinite(powers)):
        raise ParameterError(f"a sample's power {q} is not finite")
    est = float(np.mean(powers))
    if samples.size == 1:
        return est, 0.0
    se = float(np.std(powers, ddof=1) / math.sqrt(samples.size))
    return est, se
