"""Adaptive quadrature on (0, inf) for decaying, possibly oscillatory
integrands; one integral or a family of them in lockstep.

The half line starts from seven panels, the last [16 * scale, inf)
mapped onto [0, 1] as in QUADPACK's QAGI; one loop then bisects, each
round, the panels of largest error estimate until those it leaves whole
are within the target (the batching of scipy's quad_vec). Each panel
uses the nested Gauss7/Kronrod15 pair, with the error taken as the
difference of the two orders. An error within the rounding floor
50 * eps * int |f| has converged, and a floor above the bar
BAR * max(1, |value|) gives up at once, since no bisection brings
cancelling noise under it (the roundoff tests of QUADPACK's QAG/QAGI,
Piessens et al. 1983, section 3.4). Integrands must accept and return
numpy arrays; a family of n integrals is one integrand g(k, y) of the
row indices k of its panels and a 2-d y of their nodes.
"""

import functools
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
# target, a panel budget, and the package's bar: every accepted result has
# error <= BAR * max(1, |value|).
BAR = 1e-8
ABS_TOL = 1e-12
REL_TOL = 1e-9
MAX_SUBDIVISIONS = 2000
# Per-panel rounding floor as a multiple of int |f| (QUADPACK qk15).
_ROUNDING = 50.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool


def _layout(panels, inv=1.0, reach=0.0):
    """Gauss7/Kronrod15 panels (row, kind, a, b) laid out for _gk15_rows:
    (the panels ordered by kind, y with one row of nodes per panel, dy over
    the panel's variable there, their half widths h, 50 eps |h|, inv,
    reach). Kind 0 lies in v = y**(1/inv), which flattens an f ~ y**(s-1)
    endpoint singularity at inv = 1/s, 1 in u = reach/y, where a node whose
    |dy/du| = y/u overflows adds 0 (dy 0, y moved to reach), and 2 in y."""
    panels = sorted(panels, key=lambda p: p[1])  # each kind one slice
    _, kinds, a, b = zip(*panels)
    a, b = np.array((a, b))
    h = 0.5 * (b - a)
    v = (0.5 * (a + b))[:, None] + h[:, None] * _XK
    n, m = kinds.count(0), len(kinds) - kinds.count(2)
    y, dy = v.copy(), np.ones_like(v)
    if n:
        y[:n] **= inv
        dy[:n] = inv * y[:n] / v[:n]
    if m > n:
        y[n:m] = reach / v[n:m]
        dy[n:m] = y[n:m] / v[n:m]
        dead = np.isinf(dy)
        y[dead], dy[dead] = reach, 0.0
    return panels, y, dy, h, _ROUNDING * np.abs(h), inv, reach


def _gk15_rows(g, layout, n):
    """The panels of a _layout of n rows in one call g(k, y), k as
    integrate_semi_infinite_rows gives it: lists of value, error and
    rounding floor, one entry per panel. The floor, 50 * eps * int |f| over
    the panel, is the error below which the Gauss/Kronrod difference
    measures only rounding noise. Each round is laid out anew, but the
    first one once per scale and power singularity (_first_round)."""
    panels, y, dy, h, rounding, _, _ = layout
    fy = g(np.array([[p[0]] for p in panels]) if n > 1 else 0, y) * dy
    vk, vg = _RULES @ fy.T
    return ((h * vk).tolist(), np.abs(h * (vk - vg)).tolist(),
            (rounding * (np.abs(fy) @ _WK)).tolist())


def _verdict(value, error, floor, n):
    """The stop rule of the refinement, given the panels' summed value,
    error and rounding floor and their number n: (result, excess), the
    result once the error is within its target max(ABS_TOL,
    REL_TOL * |value|, floor), or, unconverged, at a non-finite error, a
    floor above BAR * max(1, |value|) or the budget, and None while
    bisection goes on; excess is the error above the target."""
    if not math.isfinite(error):
        return QuadratureResult(value, math.inf, n, False), math.inf
    target = max(ABS_TOL, REL_TOL * abs(value), floor)
    converged = error <= target
    doomed = floor > BAR * max(1.0, abs(value))  # no bisection helps
    result = None
    if converged or doomed or n >= MAX_SUBDIVISIONS:
        result = QuadratureResult(value, max(error, floor), n,
                                  converged and not doomed)
    return result, error - target


def _lockstep(g, layout, n):
    """One QuadratureResult per row 0 .. n-1 of g, refined together from
    the first panels, as _layout laid them out. Each round evaluates the
    new panels of every unfinished row in one call of g; then, until
    _verdict stops it, each row bisects its worst panels, largest error
    first, ties in list order, until the panels it leaves whole carry no
    more error than its target, and at most as many as the budget leaves
    room for. A row keeps no panel after its first non-finite one."""
    # Per row, its panels as parallel lists: (row, kind, left end, right
    # end), value, error and rounding floor.
    panels = [([], [], [], []) for _ in range(n)]
    results = [None] * n
    live = range(n)
    # A non-finite panel ends its row unconverged, so numpy's overflow,
    # invalid-value and division warnings would only repeat that.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live:
            for p, v, e, fl in zip(layout[0], *_gk15_rows(g, layout, n)):
                ends, values, errors, floors = panels[p[0]]
                if errors and not math.isfinite(errors[-1]):
                    continue
                ends.append(p)
                values.append(v)
                errors.append(e)
                floors.append(fl)
            new = []
            for i in live:
                ends, values, errors, floors = panels[i]
                results[i], excess = _verdict(sum(values), sum(errors),
                                              sum(floors), len(errors))
                if results[i] is not None:
                    continue
                order = sorted(range(len(errors)), key=errors.__getitem__,
                               reverse=True)
                cut, covered = [], 0.0
                for k in order[:MAX_SUBDIVISIONS - len(errors)]:
                    cut.append(k)
                    covered += errors[k]
                    if covered >= excess:
                        break
                for k in cut:
                    _, kind, lo, hi = ends[k]
                    mid = 0.5 * (lo + hi)
                    new += [(i, kind, lo, mid), (i, kind, mid, hi)]
                for k in sorted(cut, reverse=True):
                    for col in panels[i]:
                        del col[k]
            live = [i for i in live if results[i] is None]
            if live:
                layout = _layout(new, *layout[5:])
        return results


def integrate_semi_infinite(f, scale=1.0, power_singularity=None):
    """Integrate f over (0, inf).

    f must be vectorized, finite on (0, inf) and leave its argument as is,
    with its mass within double range. `scale` locates the interesting
    region: the first panels are [0, 1], [1, 2], [2, 4], [4, 6], [6, 8],
    [8, 16] scale, and [16 scale, inf) as [0, 1] in u = 16 scale / y, where
    a node whose |dy/du| overflows adds 0. `power_singularity` = s flags an
    integrable f ~ y**(s-1) at 0, handled by a power substitution there.

    The integral has converged once the summed error is within ABS_TOL,
    REL_TOL * |value| or the summed rounding floor, and that floor within
    BAR * max(1, |value|); the reported error is never below the floor.
    Non-convergence (a floor above that bar, the panel budget spent, or a
    non-finite panel) is reported through the `converged` flag.
    """
    return integrate_semi_infinite_rows(
        lambda k, y: f(y.ravel()).reshape(y.shape), 1, scale,
        power_singularity)[0]


def integrate_semi_infinite_rows(g, n, scale=1.0, power_singularity=None):
    """integrate_semi_infinite of y -> g(k, y) for every row k = 0 .. n-1,
    in lockstep; g takes the rows of its panels, a column of row indices,
    or the int 0 when n = 1, which spares the broadcast, and a 2-d y with
    one row of nodes per panel.

    Each row gets the panels and the stop rule that
    integrate_semi_infinite gives it alone: [0, scale], in y**s at a
    power singularity s, panels at most 2 scale wide out to 8 scale,
    where e**(-(y / scale)**2 / 2) is down to e**-32, [8, 16] scale and
    the far tail, u in [0, 1]. One call of g per round evaluates the new
    panels of every unfinished row. Returns one QuadratureResult per row,
    which agrees with the single integral's to rounding.
    """
    scale = float(scale) if 0.0 < scale < math.inf else 1.0
    layout = _first_round(scale, power_singularity)
    if n > 1:  # the one row's panels for every row, row after row
        layout = ([(i, *p[1:]) for i in range(n) for p in layout[0]], *(
            np.concatenate([a] * n) for a in layout[1:5]), *layout[5:])
    return _lockstep(g, layout, n)


@functools.lru_cache(maxsize=64)
def _first_round(scale, s):
    """The _layout, read-only, of one row's first panels in
    integrate_semi_infinite_rows at scale and power singularity s."""
    inv = 1.0 if s is None else 1.0 / float(s)
    edges = (0, 1, 2, 4, 6, 8, 16)
    first = [(0, 2, a * scale, b * scale) for a, b in zip(edges, edges[1:])]
    if inv != 1.0:
        first[0] = (0, 0, 0.0, scale ** float(s))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        layout = _layout(first + [(0, 1, 0.0, 1.0)], inv, 16.0 * scale)
    for a in layout[1:5]:
        a.flags.writeable = False
    return layout
