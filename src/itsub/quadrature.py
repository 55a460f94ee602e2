"""Adaptive quadrature on (0, inf) for exponentially damped, possibly
oscillatory integrands, and on finite intervals; one integral or a family
of them in lockstep.

The half line is covered by geometrically growing panels until the
integrand falls below a truncation threshold, a finite interval by one
panel between each pair of given edges; both are then refined by one
loop, bisecting the worst error estimate. Each panel uses the nested
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


def _gk15_rows(g, new, inv):
    """Gauss7/Kronrod15 panels (row, mapped, a, b) of new, in one call
    g(rows, y), y with one row of nodes per panel: lists of value, error,
    rounding floor and peak |f|, one entry per panel. The floor,
    50 * eps * int |f| over the panel, is the error below which the
    Gauss/Kronrod difference measures only rounding noise. Mapped panels
    come first and lie in v = y**(1/inv), which flattens an f ~ y**(s-1)
    endpoint singularity at inv = 1/s."""
    rows, flags, a, b = zip(*new)
    a, b = np.array((a, b))
    h = 0.5 * (b - a)
    v = (0.5 * (a + b))[:, None] + h[:, None] * _XK
    n = flags.count(True)
    if n:
        y = v.copy()
        y[:n] **= inv
        fy = np.asarray(g(rows, y), dtype=float)
        fy[:n] = fy[:n] * inv * y[:n] / v[:n]
    else:
        fy = np.asarray(g(rows, v), dtype=float)
    afy = np.abs(fy)
    vk, vg = _RULES @ fy.T
    return ((h * vk).tolist(), np.abs(h * (vk - vg)).tolist(),
            (_ROUNDING * np.abs(h) * (_WK @ afy.T)).tolist(),
            afy.max(axis=1).tolist())


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


def _lockstep(g, new, tails, inv=1.0):
    """Refine the integrals of rows 0 .. len(tails)-1 together: one
    QuadratureResult per row.

    new holds each row's first panels as (row, mapped, a, b), the mapped
    ones first. A row with tails[i] = [a, width, peak] starts as the half
    line does, with one panel and four tail panels, and goes on covering
    it with [a, a + width], doubling the width, until a tail panel from
    the fourth on peaks below TRUNCATION_THRESHOLD * the row's peak. Then
    it bisects its worst panel, the one of largest error, tie-broken on
    width, until _verdict stops it. A row keeps no panel after its first
    non-finite one. Each round evaluates the new panels of every
    unfinished row in one call of g.
    """
    # Per row, its panels as parallel lists: (row, mapped flag, left end,
    # right end), value, error and rounding floor.
    panels = [([], [], [], []) for _ in tails]
    results = [None] * len(tails)
    live = range(len(tails))
    # A non-finite panel ends its row unconverged, so numpy's overflow,
    # invalid-value and division warnings would only repeat that.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live:
            done = _gk15_rows(g, new, inv) if new else []
            for p, v, e, fl, pk in zip(new, *done):
                i = p[0]
                ends, values, errors, floors = panels[i]
                if errors and not math.isfinite(errors[-1]):
                    continue
                ends.append(p)
                values.append(v)
                errors.append(e)
                floors.append(fl)
                tail = tails[i]
                if tail:
                    tail[2] = max(tail[2], pk)
                    if not math.isfinite(e) or (
                            len(errors) > 4
                            and pk <= TRUNCATION_THRESHOLD * tail[2]):
                        tails[i] = None
            mapped, plain, going = [], [], []
            for i in live:
                ends, values, errors, floors = panels[i]
                tail = tails[i]
                if tail and len(errors) < MAX_SUBDIVISIONS:
                    plain.append((i, False, tail[0], tail[0] + tail[1]))
                    tail[0] += tail[1]
                    tail[1] *= 2.0
                    going.append(i)
                    continue
                results[i] = _verdict(sum(values), sum(errors), sum(floors),
                                      len(errors))
                if results[i] is not None:
                    continue
                worst = max(errors)
                k = errors.index(worst)
                if errors.count(worst) > 1:
                    k = max((j for j, e in enumerate(errors) if e == worst),
                            key=lambda j: ends[j][3] - ends[j][2])
                _, flag, lo, hi = ends[k]
                mid = 0.5 * (lo + hi)
                (mapped if flag else plain).extend(
                    [(i, flag, lo, mid), (i, flag, mid, hi)])
                going.append(i)
                for col in panels[i]:
                    del col[k]
            new, live = mapped + plain, going
        return results


def _one_row(f):
    """f of a 1-d y as the integrand g(rows, y) of one row."""
    return lambda rows, y: f(y.ravel()).reshape(y.shape)


def integrate_interval(f, edges):
    """Integrate f over [edges[0], edges[-1]], starting from one panel
    between each pair of consecutive edges; edges at the integrand's
    peaks keep them visible to the first pass. f must be vectorized and
    finite inside the interval; the rest is as integrate_semi_infinite.
    """
    new = [(0, False, a, b) for a, b in zip(edges, edges[1:])]
    return _lockstep(_one_row(f), new, [None])[0]


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
    return _half_line(_one_row(f), 1, scale, power_singularity)[0]


def integrate_semi_infinite_rows(f, xs, scale=1.0, power_singularity=None):
    """integrate_semi_infinite of y -> f(x, y) for every x in xs, in
    lockstep; f takes a column of x and a 2-d y with one row per x.

    Each x gets the panels and the stop rule that integrate_semi_infinite
    gives it alone, and one call of f per round evaluates the new panels
    of every unfinished x. Returns one QuadratureResult per x, which
    agrees with the single integral's to rounding.
    """
    xs = np.asarray(xs, dtype=float)
    return _half_line(lambda rows, y: f(xs[list(rows), None], y), len(xs),
                      scale, power_singularity)


def _half_line(g, n, scale, s):
    """_lockstep over (0, inf) for rows 0 .. n-1 of g: each starts with
    [0, scale], in y**s at a power singularity s, and four tail panels."""
    scale = float(scale) if 0.0 < scale < math.inf else 1.0
    mapped = s is not None and s != 1.0
    first = scale ** float(s) if mapped else scale
    new = [(i, mapped, 0.0, first) for i in range(n)]
    new += [(i, False, a * scale, 2.0 * a * scale)
            for i in range(n) for a in (1.0, 2.0, 4.0, 8.0)]
    tails = [[16.0 * scale, 16.0 * scale, 0.0] for _ in range(n)]
    return _lockstep(g, new, tails, 1.0 / float(s) if mapped else 1.0)
