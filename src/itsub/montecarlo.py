"""Monte Carlo simulation of the tempered stable subordinator and its
first-passage (inverse) process.

Stable increments use the Kanter construction (exact, rejection-free),
with its sines taken from half-angle tangents, computed in place;
tempering is rejection with acceptance weight exp(-lam*x). First
passages are found a block of proposals per round: each path still
below the level gets a run of them and tempers it on one exponential
clock, a level its running sum must stay below, so most proposals cost
no uniform and no exp. Only the paths whose block sum reaches their
clock or the level take partial sums. The crossing is located on the
grid of the subordinator skeleton and returned as the midpoint of the
grid step in which it falls, so each sample is within half a step of
its exact value.
"""

import math
import numbers
import sys
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
    Where dt**(1/beta) is not a normal double (at beta 0.02 it is
    subnormal below dt ~ 7e-7 and 0 below dt ~ 3.4e-7, which would make
    every draw 0), the scale goes inside the outer power as dt**(1/(1-beta));
    ParameterError where neither is normal, as at beta 1/2 and dt 1e-300.
    The power beta/(1-beta) is taken out of the outer power, leaving
    (sin(beta*U) / sin(U)) * (sin((1-beta)*U) / (W sin(U)))**((1-beta)/beta):
    near beta = 1 the powers of the sines underflow to 0/0 as U -> 0 and
    overflow as U -> pi, where the ratios stay finite. Each sine comes
    from its half-angle tangent, sin(a) = 2T / (1 + T**2) with
    T = tan(a/2), and the factors 2 cancel in both ratios. numpy
    vectorizes float64 tan but not sin, so this form costs 22 ns a draw
    against 52 ns for the sines (8192 draws, 2-core AVX-512 x86), and
    it agrees with them within 3.3e-14 relative over beta 0.02-0.98.

    The draw runs in place in five arrays of the output's shape, each
    allocated on its own, and returns the last of them: carved from one
    (5, n) block instead, at the 16384 draws of a first_passage_samples
    round, they made a 1000-path batch 15% slower (2-core x86). U/2 is
    taken as pi/2 times a uniform on [0, 1), which is exactly
    0.5 * rng.uniform(0, pi), since the two differ by a power of two;
    so an array draw is bit for bit the one of the expression above,
    evaluated term by term. A single draw (size None) is the one-element
    array draw, returned as a float. The outer power may overflow to inf
    at small beta (beta 0.02 takes it to the 49th); that is a valid
    proposal, one that tempering rejects and that crosses any level, so
    its overflow warning is silenced.
    """
    require_beta(beta)
    require_positive("dt", dt)
    outer = _normal_power(dt, 1.0 / beta)
    inner = _normal_power(dt, 1.0 / (1.0 - beta)) if outer is None else None
    if outer is None and inner is None:
        raise ParameterError(
            f"neither dt**(1/beta) nor dt**(1/(1-beta)) is a normal double "
            f"at dt = {dt}, beta = {beta}")
    half, w, tan_u, csc_u, lead = (
        np.empty(1 if size is None else size) for _ in range(5))
    rng.random(out=half)
    half *= 0.5 * math.pi
    rng.standard_exponential(out=w)
    np.tan(half, out=tan_u)
    np.divide(1.0, tan_u, out=csc_u)
    csc_u += tan_u  # 2 / sin(U)
    np.multiply(half, beta, out=lead)
    np.tan(lead, out=lead)
    np.multiply(lead, lead, out=tan_u)
    tan_u += 1.0
    lead /= tan_u
    lead *= csc_u
    tail = np.multiply(half, 1.0 - beta, out=half)
    np.tan(tail, out=tail)
    np.multiply(tail, tail, out=tan_u)
    tan_u += 1.0
    tail /= tan_u
    tail *= csc_u
    tail /= w
    if inner is not None:
        tail *= inner
    with np.errstate(over="ignore"):
        tail **= (1.0 - beta) / beta
    if outer is not None:
        lead *= outer
    lead *= tail
    return float(lead[0]) if size is None else lead


def _normal_power(dt, p):
    """dt**p, or None where it is not a normal double."""
    try:
        s = float(dt) ** p
    except OverflowError:
        return None
    return s if s >= sys.float_info.min else None


def _accepted(lam, prop, rng):
    """The mask of the proposals that tempering accepts, each with
    probability exp(-lam * x) against a uniform of its own; lam * x may
    overflow to inf, a weight of 0."""
    with np.errstate(over="ignore"):
        return rng.random(prop.shape) < np.exp(-lam * prop)


def sample_tempered_increment(dt, params, rng, size=None):
    """Draw increments of the tempered stable subordinator over time dt.

    Rejection from the stable proposal with acceptance probability
    exp(-lam * x), a uniform a proposal; the overall acceptance rate is
    exp(-lam**beta * dt), so dt must satisfy lam**beta * dt <= 1
    (subdivide otherwise).
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
        prop = sample_stable_increment(dt, beta, rng, size=need.size)
        ok = _accepted(lam, prop, rng)
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
    _ROUND_DRAWS // n) stable proposals over dt / n_sub, laid out
    step-major (row i holds every path's i-th proposal), so that each
    numpy call runs along a row of n paths rather than a short row of b
    steps.

    Tempering keeps one exponential clock per path. A proposal X is
    accepted with probability exp(-lam X), that is iff E > lam X for
    E ~ Exp(1); given acceptance, E - lam X is again Exp(1) and
    independent of the past, so one E serves every proposal up to the
    first rejection. Each path therefore holds the level ring = D +
    E / lam at which its clock runs out, and its proposals are accepted
    while the running sum stays at or below ring. At lam = 0, ring =
    inf and no clock is drawn, and even an infinite proposal, which the
    power in sample_stable_increment may give at small beta, is
    accepted and crosses.

    D only grows, so a path can have an event in its block, a ring or a
    crossing of t, only if its block sum reaches min(ring, next float
    above t). Only those candidates, 3% of the paths a round at beta
    0.5, lam = 1 and dt = 1e-3, take partial sums. A candidate whose
    partial sums pass ring rejects the proposal that passes it, which
    crosses nothing, so a ring comes first at the same index. The rest
    of its block is tempered as sample_tempered_increment tempers, a
    uniform against exp(-lam X) a proposal, which is a fresh clock a
    proposal and so the same law; its partial sums are retaken with the
    rejected draws at 0, and its next block winds a fresh clock from its
    end. So a walk with a ring in most blocks, at lam**beta * dt / n_sub
    near 1, pays a uniform and an exp a proposal, as it did without the
    clock, and not a pass over its block for each rejection. The partial
    sums decide, not the block sum: with one path in the window numpy
    sums a column pairwise but accumulates it in order, so a path is a
    candidate once its block sum is within b rounding units of a level,
    and its last partial sum becomes its D. A path counts its own
    accepted draws; one that crosses at its j-th accepted draw, the
    first partial sum above t, crossed within grid step
    k = (j - 1) // n_sub, and its sample is the midpoint (k + 0.5)*dt.
    The proposals after the crossing are independent of the path so far
    and go unused, so dropping them biases nothing.

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
    beta, lam = params.beta, params.lam
    n_sub = max(1, math.ceil(lam ** beta * dt - 1e-12))
    max_draws = n_sub * math.ceil(config.horizon / dt)
    above_t = math.nextafter(t, math.inf)

    def clock(d):
        """The levels d + E / lam, E ~ Exp(1), at which tempering next
        rejects; inf at lam = 0, and where lam is so small that E / lam
        overflows."""
        if lam == 0.0:
            return np.full(d.shape, math.inf)
        with np.errstate(over="ignore"):
            return d + rng.standard_exponential(d.shape) / lam

    samples = np.empty(config.n_paths)
    active = np.arange(min(config.n_paths, _WINDOW))
    admitted = active.size
    d = np.zeros(active.size)
    ring = clock(d)
    draws = np.zeros(active.size, dtype=np.int64)
    while active.size:
        n = active.size
        b = max(1, _ROUND_DRAWS // n)
        step = sample_stable_increment(dt / n_sub, beta, rng, size=(b, n))
        step[0] += d
        total = step.sum(axis=0)
        # A nan path is never a candidate, so it runs into the horizon.
        hit = np.flatnonzero(
            total >= np.minimum(ring, above_t) * (1.0 - b * 2.0 ** -52))
        draws += b
        if hit.size:
            part = step[:, hit]
            path = np.cumsum(part, axis=0)
            # > and not >=: at lam = 0 an infinite proposal is a crossing
            rung = path > ring[hit]
            rang = rung[-1]
            below = path < above_t
            if rang.any():
                # The proposal that passes ring is rejected, and the rest
                # of the block is tempered a uniform a proposal; a
                # rejected draw counts 0 in the partial sums, or d in row 0.
                first = np.where(rang, np.argmax(rung, axis=0), b)
                row = np.arange(b)[:, None]
                rejected = (row == first) | (
                    (row > first) & ~_accepted(lam, part, rng))
                np.copyto(part, 0.0, where=rejected)
                np.copyto(part[0], d[hit], where=rejected[0])
                path = np.cumsum(part, axis=0)
                ring[hit[rang]] = clock(path[-1, rang])
                below = (path < above_t) & ~rejected
            # The accepted draws at or below t, of a block that crosses
            # at its first sum above t or of one that does not.
            draws[hit] -= b - np.count_nonzero(below, axis=0)
            total[hit] = path[-1]
        d = total
        crossed = d >= above_t
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
        fresh = np.zeros(entering.size)
        d = np.concatenate([d[keep], fresh])
        ring = np.concatenate([ring[keep], clock(fresh)])
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
