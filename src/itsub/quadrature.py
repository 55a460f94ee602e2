"""Adaptive quadrature on (0, inf) for exponentially damped, possibly
oscillatory integrands, and on finite intervals.

The half line is covered by geometrically growing panels until the
integrand falls below a truncation threshold, a finite interval by one
panel between each pair of given edges; both are then refined by the
same loop, bisecting the worst error estimate. Each panel uses the nested
Gauss7/Kronrod15 pair, with the error taken as the difference of the two
orders. An error within the rounding floor 50 * eps * int |f| has
converged, and a floor above the bar BAR * max(1, |value|) gives up at
once, since no bisection brings cancelling noise under it (the roundoff
tests of QUADPACK's QAG/QAGI, Piessens et al. 1983, section 3.4).
Integrands must accept and return numpy arrays.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

# Kronrod-15 abscissae on [-1, 1] (odd-indexed entries are the embedded
# Gauss-7 points) and the two weight sets.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
# Both rules as rows over the 15 abscissae (Gauss weights zero off its own
# points), so one product evaluates both.
_RULES = np.zeros((2, 15))
_RULES[0] = _WK
_RULES[1, 1::2] = _WG


# Every caller integrates to the same standard: an absolute or relative
# target, a panel budget, a tail cut relative to the peak |f|, and the
# package's bar: every accepted result has error <= BAR * max(1, |value|).
BAR = 1e-8
ABS_TOL = 1e-12
REL_TOL = 1e-9
MAX_SUBDIVISIONS = 2000
TRUNCATION_THRESHOLD = 1e-16
# Per-panel rounding floor as a multiple of int |f| (QUADPACK qk15).
_ROUNDING = 50.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool


def _gk15(f, a, b):
    """Gauss7/Kronrod15 panel of f on [a, b]:
    (f, a, b, value, error, rounding floor, peak |f|).

    The floor, 50 * eps * int |f| over the panel, is the error below which
    the Gauss/Kronrod difference measures only rounding noise.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fy = np.asarray(f(mid + half * _XK), dtype=float)
    afy = np.abs(fy)
    vk, vg = (_RULES @ fy).tolist()
    floor = _ROUNDING * abs(half) * float(_WK @ afy)
    return f, a, b, half * vk, abs(half * (vk - vg)), floor, float(afy.max())


def _power_map(f, s):
    """Flatten an f ~ y**(s-1) endpoint singularity via y = v**(1/s)."""
    inv = 1.0 / s

    def g(v):
        v = np.asarray(v, dtype=float)
        y = v ** inv
        return f(y) * inv * y / np.where(v > 0, v, 1.0)

    return g


def _verdict(value, error, floor, n):
    """The stop rule of the refinement, given the panels' summed value,
    error and rounding floor and their number n: the result once the
    error is within ABS_TOL, REL_TOL * |value| or the floor, or,
    unconverged, at a non-finite error, a floor above
    BAR * max(1, |value|) or the budget; None while bisection goes on."""
    if not math.isfinite(error):
        return QuadratureResult(value, math.inf, n, False)
    converged = error <= max(ABS_TOL, REL_TOL * abs(value), floor)
    doomed = floor > BAR * max(1.0, abs(value))  # no bisection helps
    if converged or doomed or n >= MAX_SUBDIVISIONS:
        return QuadratureResult(value, max(error, floor), n,
                                converged and not doomed)
    return None


def _refine(panels):
    """Bisect the worst panel until _verdict stops the loop."""
    while True:
        done = _verdict(sum(p[3] for p in panels), sum(p[4] for p in panels),
                        sum(p[5] for p in panels), len(panels))
        if done:
            return done
        # Bisect the worst panel; tie-break on width.
        worst = max(panels, key=lambda p: (p[4], p[2] - p[1]))
        panels.remove(worst)
        fn, pa, pb = worst[:3]
        pm = 0.5 * (pa + pb)
        panels += [_gk15(fn, pa, pm), _gk15(fn, pm, pb)]


def integrate_interval(f, edges):
    """Integrate f over [edges[0], edges[-1]], starting from one panel
    between each pair of consecutive edges; edges at the integrand's
    peaks keep them visible to the first pass. f must be vectorized and
    finite inside the interval; the rest is as integrate_semi_infinite.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _refine([_gk15(f, a, b) for a, b in zip(edges, edges[1:])])


def integrate_semi_infinite(f, scale=1.0, power_singularity=None):
    """Integrate f over (0, inf).

    f must be vectorized, finite on (0, inf), and decay at least
    exponentially. `scale` locates the interesting region (first panel is
    [0, scale]). `power_singularity` = s flags an integrable f ~ y**(s-1)
    behaviour at 0, handled by a power substitution on the first panel.

    The integral has converged once the summed error is within ABS_TOL,
    REL_TOL * |value| or the summed rounding floor, and that floor within
    BAR * max(1, |value|); the reported error is never below the floor.
    Non-convergence (a floor above that bar, the panel budget spent, or a
    non-finite panel) is reported through the `converged` flag.
    """
    scale = float(scale)
    if not np.isfinite(scale) or scale <= 0:
        scale = 1.0

    # Panels as _gk15 returns them; the first is possibly transformed. A
    # non-finite panel ends the integration as unconverged, so numpy's
    # overflow and invalid-value warnings would only repeat that report.
    with np.errstate(over="ignore", invalid="ignore"):
        if power_singularity is not None and power_singularity != 1.0:
            s = float(power_singularity)
            panels = [_gk15(_power_map(f, s), 0.0, scale ** s)]
        else:
            panels = [_gk15(f, 0.0, scale)]

        # Geometric tail coverage: stop once the integrand has dropped
        # below TRUNCATION_THRESHOLD * peak on a panel (and at least a few
        # panels beyond the scale have been seen), or at the first
        # non-finite panel.
        a = scale
        width = scale
        n_tail = 0
        while math.isfinite(panels[-1][4]) and n_tail < MAX_SUBDIVISIONS:
            panels.append(_gk15(f, a, a + width))
            a += width
            width *= 2.0
            n_tail += 1
            peak = max(p[6] for p in panels)
            if panels[-1][6] <= TRUNCATION_THRESHOLD * peak and n_tail >= 4:
                break
        return _refine(panels)


def _gk15_rows(f, x, a, b, mapped, inv):
    """Gauss7/Kronrod15 panels [a[k], b[k]] of y -> f(x[k], y), in one
    call of f: arrays of value, error, rounding floor and peak |f|, each
    as _gk15 gives it. A mapped panel lies in v = y**(1/inv), as
    _power_map has it."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    v = mid[:, None] + half[:, None] * _XK
    if not mapped.any():
        fy = np.asarray(f(x[:, None], v), dtype=float)
    else:
        y = v.copy()
        y[mapped] = v[mapped] ** inv
        fy = np.asarray(f(x[:, None], y), dtype=float)
        vm = v[mapped]
        fy[mapped] = fy[mapped] * inv * y[mapped] / np.where(vm > 0, vm, 1.0)
    afy = np.abs(fy)
    vk, vg = (fy @ _RULES.T).T
    return (half * vk, np.abs(half * (vk - vg)),
            _ROUNDING * np.abs(half) * (afy @ _WK), afy.max(axis=1))


def integrate_semi_infinite_rows(f, xs, scale=1.0, power_singularity=None):
    """integrate_semi_infinite of y -> f(x, y) for every x in xs, in
    lockstep; f takes a column of x and a 2-d y with one row per x.

    Each x gets the panels, the tail coverage and the stop rule (_verdict)
    that integrate_semi_infinite gives it alone, and one call of f per
    round evaluates the new panels of every unfinished x: the next tail
    panel, or the two halves of its worst panel. Returns one
    QuadratureResult per x; the values agree with the single integrals
    to rounding, since the Kronrod sums take another order.
    """
    xs = np.asarray(xs, dtype=float)
    scale = float(scale)
    if not np.isfinite(scale) or scale <= 0:
        scale = 1.0
    s = power_singularity
    mapped = s is not None and s != 1.0
    inv = 1.0 / float(s) if mapped else 1.0
    # Per x, its panels as parallel lists: (mapped flag, left end, right
    # end), value, error and rounding floor.
    panels = [([], [], [], []) for _ in xs]

    def add(rows, a, b, flags):
        """Evaluate and append one panel per entry of rows; return the
        new panels' errors and peaks."""
        value, error, floor, peak = _gk15_rows(
            f, xs[list(rows)], np.array(a), np.array(b), np.array(flags), inv)
        error = error.tolist()
        for i, where, v, e, fl in zip(rows, zip(flags, a, b), value.tolist(),
                                      error, floor.tolist()):
            ends, values, errors, floors = panels[i]
            ends.append(where)
            values.append(v)
            errors.append(e)
            floors.append(fl)
        return error, peak.tolist()

    n = len(xs)
    results = [None] * n
    with np.errstate(over="ignore", invalid="ignore"):
        first = scale ** float(s) if mapped else scale
        live = list(range(n))
        errors, peaks = add(live, [0.0] * n, [first] * n, [mapped] * n)
        # Geometric tail coverage, as integrate_semi_infinite: each x stops
        # at its first non-finite panel or once the integrand is below
        # TRUNCATION_THRESHOLD * its peak after at least four tail panels.
        live = [i for i in live if math.isfinite(errors[i])]
        a = width = scale
        n_tail = 0
        while live and n_tail < MAX_SUBDIVISIONS:
            k = len(live)
            errors, new_peaks = add(live, [a] * k, [a + width] * k, [False] * k)
            a += width
            width *= 2.0
            n_tail += 1
            still = []
            for i, e, p in zip(live, errors, new_peaks):
                peaks[i] = max(peaks[i], p)
                if math.isfinite(e) and not (
                        p <= TRUNCATION_THRESHOLD * peaks[i] and n_tail >= 4):
                    still.append(i)
            live = still
        # Refinement: every unfinished x bisects its own worst panel, the
        # one of largest error, tie-broken on width, as _refine.
        live = range(n)
        while live:
            split = []
            for i in live:
                ends, value, error, floor = panels[i]
                results[i] = _verdict(sum(value), sum(error), sum(floor),
                                      len(error))
                if results[i] is not None:
                    continue
                worst = max(error)
                k = error.index(worst)
                if error.count(worst) > 1:
                    k = max((j for j, e in enumerate(error) if e == worst),
                            key=lambda j: ends[j][2] - ends[j][1])
                flag, lo, hi = ends[k]
                split.append((i, flag, lo, 0.5 * (lo + hi), hi))
                for col in panels[i]:
                    del col[k]
            if not split:
                break
            rows, flags, pa, pm, pb = zip(*split)
            add(rows + rows, pa + pm, pm + pb, flags + flags)
            live = rows
    return results
