"""North-star sweep of the density and the CDF over the parameter box.

Evaluates `eval_density` and `cdf` at 7 beta x 4 lam x 3 t x 5 x = 420
points, with x = {1e-3, 0.3, 1, 3, 10} times the mean E[E(t)] from
`moment_exact`, and every warning raised as an error. Each (beta, lam)
first makes one `moment_table` call over its 3 t, whose rows must equal
`moment_exact`, the one-row call, and carry a finite error estimate.
Prints the density and cdf methods (the cdf's as its m = 0 call of the
shared dispatcher `_grid` returned them: boundary, series or saddle),
the raises, the seconds spent in each function, the slowest point of
each, the number of quadrature calls, their integrand
rounds (calls of `_gk15_rows`), the series rounds (calls of a
`sum_series_rows` block), the quadratures' total panels and the largest
panel count of any one integral (per-point calls only). No density, of
any method, may carry an error above 1e-8 of its value. Wherever both
`eval_series` and `eval_integral` converge, their values must agree
within the sum of their error estimates. `_saddle` at m = 1 then runs at
every point, whatever `eval_density` chose there, outside the panel
counter, and must converge at each: wherever the series converges too,
they must agree within their summed errors, and so must it and the
integral wherever the integral's error is within 1e-8 of its value;
the integral rows beyond that bar which lie apart are listed without a
gate. The m = 0 branch
cut, the paper's integral for the cdf, runs at every point outside the
panel counter too: wherever its error is within 1e-8 of its value, it
and the cdf must agree within their summed errors. Every value of the
saddle-point contour, a `saddle` density, a cdf tail or a direct
`_saddle` value, must lie at or below the closed-form bound of its
line. The cdf of each (beta, lam, t) must not fall, beyond 1e-8, from
one of its 5 x to a larger one. Each (beta, lam, t) also goes through
`eval_density_grid` on its 5 x at once, whose rows must match
`eval_density`, the one-row call: the same raise, a series row equal to
the point in value, error and terms, and any other row with the same
method, the same terms or panels and a value within the point's error
estimate. Then, with `_coefficients` (the A_j prefix and the parts of
the series' terms that depend on j alone) and the half line's memoized
first-round layout cleared before each call, `eval_density` and `cdf`
run again at all 420 points, and every repr, a raise's included, must
equal the one the sweep got with those caches warm; the count of
differing points is printed. Then the PDE check's
`initial_condition_check`, which is 0 analytically, runs over 8 beta x
5 x, where it must return below 1e-8 or raise NonConvergenceError. A
stable-family pass runs `tempered_density`, the first-passage identity
over the same dispatcher in logs, at each (beta, lam, t) and
x = {1e-2, 0.3, 1, 3, 30} times beta lam**(beta-1) t, or t**(1/beta) at
lam = 0, every warning raised as an error, and prints the count of each path its log density took
(series, saddle, laplace, bound). An edge pass runs `eval_density`,
`cdf` and `boundary_value` per (beta, lam) at x = {5e-324, 1e-300, 1e-20}
and t = {1e-3, 1e3}, and at x = 0 and t = {5e-324, 1e-300}, with one
`eval_density_grid` call per (beta, lam, t), every warning raised as an
error. Last, a Monte Carlo corner pass runs
`first_passage_samples` with 400 paths at 3 beta x 3 lam, t = 1, a grid
step of 1/100 and a horizon of 20 times the mean E[E(1)] from
`moment_exact`, every warning raised as an error, and prints the z-score
of each sample mean against that mean. Exits 1 if a moment table row
differs from `moment_exact` or has no finite error, if any density,
cdf, direct `_saddle` or m = 0 branch-cut call raised or warned, if a
direct `_saddle` call did not converge, if a
density's error is above 1e-8 of its value, if a series/integral,
series/saddle, gated integral/saddle or gated cdf/branch-cut pair lies
outside its summed errors, if a cdf falls with
x, if a grid row differs from its point, if a cold density or cdf
differs from the warm one, if an initial-condition value
is 1e-8 or more, if a saddle-point contour value lies above its bound,
if a stable-family point gives neither a finite value >= 0 nor a
ParameterError or NonConvergenceError, or at beta 1/2 lies beyond 1e-8
of Levy's closed form where that is above 1e-300, if an edge-pass call
raises anything but ParameterError or NonConvergenceError or gives a
value that is not finite, whose error lies outside [0, BAR * max(1,
|value|)], or, for the cdf, outside [0, 1], or if a Monte Carlo
corner raised (a HorizonError included) or warned, or its sample mean
lies more than 5 standard errors from `moment_exact`.

    PYTHONPATH=src python tools/sweep.py
"""

import collections
import math
import sys
import time
import warnings

from itsub import its_density, quadrature
from itsub.its_density import (
    EvalPoint,
    boundary_value,
    cdf,
    eval as eval_density,
    eval_density_grid,
    eval_integral,
    eval_series,
)
from itsub.moments import MomentQuery, moment_exact, moment_table
from itsub.montecarlo import SimConfig, empirical_moment, first_passage_samples
from itsub.pde_check import initial_condition_check
from itsub.stable_family import (
    NonConvergenceError,
    ParameterError,
    TemperedStableParams,
    tempered_density,
)

BETAS = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98)
LAMS = (0.0, 1e-3, 1.0, 50.0)
TS = (1e-3, 1.0, 1e3)
MEAN_MULTIPLES = (1e-3, 0.3, 1.0, 3.0, 10.0)
IC_BETAS = (0.02, 0.05, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.4, 0.5)
IC_XS = (1e-6, 1e-3, 0.1, 1.0, 10.0)
MC_BETAS = (0.02, 0.5, 0.98)
MC_LAMS = (0.0, 1.0, 50.0)
MC_PATHS = 400
MC_Z = 5.0
STABLE_MULTIPLES = (1e-2, 0.3, 1.0, 3.0, 30.0)
EDGE_TS = (1e-3, 1e3)
EDGE_XS = (5e-324, 1e-300, 1e-20)
EDGE_ZERO_TS = (5e-324, 1e-300)


def moment_tables():
    """(params, t, moment_table row, moment_exact) at each (beta, lam, t),
    the rows from one moment_table call over TS per (beta, lam), every
    warning raised as an error."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in BETAS:
            for lam in LAMS:
                params = TemperedStableParams(beta, lam)
                for t, row in zip(TS, moment_table(1.0, TS, params)):
                    out.append((params, t, row,
                                moment_exact(MomentQuery(1.0, t, params))))
    return out


def points(tables):
    """(params, t, x) over the box, x a multiple of moment_exact."""
    for params, t, _, mean in tables:
        for k in MEAN_MULTIPLES:
            yield params, t, k * mean


def _timed(fn):
    """(fn() or the exception it raised, seconds)."""
    start = time.perf_counter()
    try:
        out = fn()
    except Exception as e:  # every raise, warnings included, is counted
        out = e
    return out, time.perf_counter() - start


def sweep(tables):
    """One row per point of points(tables), (params, t, x, density result,
    cdf value, density seconds, cdf seconds, series result, integral
    result), where a raise stands in for its result; the panel count of every
    quadrature call; the number of integrand rounds of those calls and of
    series rounds;
    (m, params, t, x, log |I|, log bound) for every value of the
    saddle-point contour, the bound from its _line; and per row the cdf's
    DensityResult from its m = 0 _grid call, before the clamp, or the
    raise."""
    panels, lines, dispatched = [], [], []
    rounds = collections.Counter()
    lockstep, saddle = quadrature._lockstep, its_density._saddle
    gk15_rows, sum_rows = quadrature._gk15_rows, its_density.sum_series_rows
    grid = its_density._grid

    def counted(*args):
        results = lockstep(*args)
        panels.extend(r.subdivisions_used for r in results)
        return results

    def evaluated(*args):
        rounds["integrand"] += 1
        return gk15_rows(*args)

    def summed(block, *args):
        def counted_block(js, rows):
            rounds["series"] += 1
            return block(js, rows)
        return sum_rows(counted_block, *args)

    def bounded(m, xs, t, params, line):
        results = saddle(m, xs, t, params, line)
        lines.extend((m, params, t, x, res[0], ln[-1])
                     for x, res, ln in zip(xs, results, line)
                     if res is not None)
        return results

    def recorded(m, xs, t, params):
        results = grid(m, xs, t, params)
        if m == 0:
            dispatched.extend(results)
        return results

    quadrature._lockstep = counted
    quadrature._gk15_rows = evaluated
    its_density.sum_series_rows = summed
    its_density._saddle = bounded
    its_density._grid = recorded
    rows, cdf_results = [], []
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for params, t, x in points(tables):
                p = EvalPoint(x, t)
                h, h_s = _timed(lambda: eval_density(p, params))
                c, c_s = _timed(lambda: cdf(x, t, params))
                cdf_results.append(c if isinstance(c, Exception)
                                   else dispatched[-1])
                forms = [_timed(lambda: f(p, params))[0]
                         for f in (eval_series, eval_integral)]
                rows.append((params, t, x, h, c, h_s, c_s, *forms))
    finally:
        quadrature._lockstep = lockstep
        quadrature._gk15_rows = gk15_rows
        its_density.sum_series_rows = sum_rows
        its_density._saddle = saddle
        its_density._grid = grid
    return rows, panels, rounds, lines, cdf_results


def cdf_falls(rows):
    """The rows whose cdf lies more than 1e-8 below the largest cdf at a
    smaller x of their (beta, lam, t); a cdf that raised is passed over."""
    falls = []
    for k in range(0, len(rows), len(MEAN_MULTIPLES)):
        top = -math.inf
        for row in rows[k:k + len(MEAN_MULTIPLES)]:
            if isinstance(row[4], Exception):
                continue
            if row[4] < top - 1e-8:
                falls.append(row)
            top = max(top, row[4])
    return falls


def grid_rows(rows):
    """eval_density_grid on the 5 x of each (beta, lam, t), outside the
    panel counter: (per-point row, grid result or raise) pairs and the
    seconds the grid calls took."""
    pairs, seconds = [], 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(0, len(rows), len(MEAN_MULTIPLES)):
            group = rows[k:k + len(MEAN_MULTIPLES)]
            params, t = group[0][:2]
            grid, s = _timed(
                lambda: eval_density_grid([r[2] for r in group], t, params))
            seconds += s
            if isinstance(grid, Exception):
                grid = [grid] * len(group)
            pairs += zip(group, grid)
    return pairs, seconds


def saddle_rows(rows):
    """_saddle(1, ...) at every point, whatever eval chose there: one call
    on the 5 x of each (beta, lam, t), outside the panel counter. Per row
    (value, error, panels) or None where it did not converge, or the raise;
    (1, params, t, x, log |I|, log bound) for each of its values; and the
    seconds taken."""
    out, bounds, seconds = [], [], 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(0, len(rows), len(MEAN_MULTIPLES)):
            group = rows[k:k + len(MEAN_MULTIPLES)]
            params, t = group[0][:2]
            xs = [r[2] for r in group]
            lines = [its_density._line(1, x, t, params) for x in xs]
            got, s = _timed(
                lambda: its_density._saddle(1, xs, t, params, lines))
            seconds += s
            if isinstance(got, Exception):
                got = [got] * len(group)
            for x, res, ln in zip(xs, got, lines):
                if isinstance(res, tuple):
                    bounds.append((1, params, t, x, res[0], ln[-1]))
                    res = (math.exp(res[0]), *res[1:])
                out.append(res)
    return out, bounds, seconds


def cut_rows(rows):
    """The m = 0 branch cut, the paper's integral for the cdf, at every
    point, outside the panel counter: per row (value, error, panels), None
    where it did not converge, or the raise; and the seconds taken."""
    out, seconds = [], 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params, t, x in (r[:3] for r in rows):
            got, s = _timed(lambda: its_density._branch_cut(0, x, t, params))
            out.append(got)
            seconds += s
    return out, seconds


def _apart(form, saddle):
    """True where a form's result and a saddle (value, error) lie farther
    apart than their summed errors."""
    return (abs(form.value - saddle[0])
            > form.error_estimate + saddle[1])


def _differs(point, grid):
    """True unless the grid row is the point's raise, is the point itself
    where that is a series row, or has its method and terms or panels and
    a value within its error estimate."""
    if isinstance(point, Exception) or isinstance(grid, Exception):
        return type(point) is not type(grid)
    if point.method == "series":
        return point != grid
    return (point.method != grid.method
            or point.terms_or_panels != grid.terms_or_panels
            or abs(point.value - grid.value) > point.error_estimate)


def cold_rows(rows):
    """eval_density and cdf again at every point, outside the panel
    counter, each call made cold: after _coefficients and the half line's
    first-round layout memo are cleared. The (row, cold density, cold cdf)
    whose repr differs from the row's warm one, and the seconds taken."""
    differ, seconds = [], 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row in rows:
            params, t, x = row[:3]
            got = []
            for f in (lambda: eval_density(EvalPoint(x, t), params),
                      lambda: cdf(x, t, params)):
                its_density._coefficients.cache_clear()
                quadrature._first_round.cache_clear()
                res, s = _timed(f)
                got.append(res)
                seconds += s
            if list(map(repr, got)) != list(map(repr, row[3:5])):
                differ.append((row, *got))
    return differ, seconds


def initial_conditions():
    """initial_condition_check over IC_BETAS x IC_XS: (beta, x, value or
    the NonConvergenceError raised) triples and the seconds taken."""
    out, seconds = [], 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in IC_BETAS:
            for x in IC_XS:
                value, s = _timed(lambda: initial_condition_check(beta, x))
                out.append((beta, x, value))
                seconds += s
    return out, seconds


def monte_carlo():
    """first_passage_samples at t = 1 over MC_BETAS x MC_LAMS, each with
    MC_PATHS paths, a grid step of 1/100 and a horizon of 20 times the
    mean E[E(1)] from moment_exact, every warning raised as an error: (params,
    mean, z-score of the sample mean or the raise, seconds) per corner."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in MC_BETAS:
            for lam in MC_LAMS:
                params = TemperedStableParams(beta, lam)
                mean = moment_exact(MomentQuery(1.0, 1.0, params))
                config = SimConfig(MC_PATHS, mean / 100.0, 20.0 * mean)
                samples, s = _timed(
                    lambda: first_passage_samples(config, params, 1.0))
                z = samples
                if not isinstance(samples, Exception):
                    est, se = empirical_moment(samples, 1.0)
                    z = (est - mean) / se
                out.append((params, mean, z, s))
    return out


def stable_family_pass(tables):
    """tempered_density at each (beta, lam, t) of tables and x =
    STABLE_MULTIPLES times its scale, beta lam**(beta-1) t, or t**(1/beta)
    at lam = 0, every warning raised as an error: (params, t, x, value or
    the raise, method) per point, and the seconds taken. The method is the
    path its log density took: series, saddle (the parabola's quadrature),
    laplace (Laplace's term, no panel) or bound (a certified 0)."""
    out, taken = [], []
    saddle = its_density._saddle

    def traced(*args):
        results = saddle(*args)
        taken.append(results[0])
        return results

    its_density._saddle = traced
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for params, t, _, _ in tables:
                beta, lam = params.beta, params.lam
                scale = beta * lam ** (beta - 1) * t if lam else t ** (1 / beta)
                for k in STABLE_MULTIPLES:
                    taken.clear()
                    value = _timed(lambda: tempered_density(k * scale, t,
                                                            params))[0]
                    res = taken[-1] if taken else None
                    method = ("raised" if isinstance(value, Exception)
                              else "series" if res is None
                              else "bound" if res[0] == -math.inf
                              else "laplace" if res[2] == 0 else "saddle")
                    out.append((params, t, k * scale, value, method))
    finally:
        its_density._saddle = saddle
    return out, time.perf_counter() - start


def edge_pass():
    """eval_density, cdf and boundary_value at the edges of double range,
    every warning raised as an error: per (beta, lam) of the box, x =
    EDGE_XS at t = EDGE_TS and x = 0 at t = EDGE_ZERO_TS, with one
    eval_density_grid call per (beta, lam, t) on its x. The number of
    calls, of typed errors among them, and (call, params, t, x, result or
    raise) for every raise other than ParameterError or NonConvergenceError
    and every value that is not finite, whose error lies outside
    [0, BAR * max(1, |value|)], or, for the cdf, outside [0, 1]."""
    calls, typed, bad = 0, 0, []

    def check(name, params, t, x, fn):
        nonlocal calls, typed
        calls += 1
        res = _timed(fn)[0]
        if isinstance(res, (ParameterError, NonConvergenceError)):
            typed += 1
            return
        value, err = ((res.value, res.error_estimate)
                      if isinstance(res, its_density.DensityResult)
                      else (res, 0.0))
        if (isinstance(res, Exception) or not math.isfinite(value)
                or not 0.0 <= err <= quadrature.BAR * max(1.0, abs(value))
                or name == "cdf" and not 0.0 <= value <= 1.0):
            bad.append((name, params, t, x, res))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in BETAS:
            for lam in LAMS:
                params = TemperedStableParams(beta, lam)
                for t, xs in ([(t, EDGE_XS) for t in EDGE_TS]
                              + [(t, (0.0,)) for t in EDGE_ZERO_TS]):
                    for x in xs:
                        check("density", params, t, x, lambda: eval_density(
                            EvalPoint(x, t), params))
                        check("cdf", params, t, x, lambda: cdf(x, t, params))
                    grid = _timed(lambda: eval_density_grid(xs, t, params))[0]
                    for x, row in zip(xs, grid if isinstance(grid, list)
                                      else [grid] * len(xs)):
                        check("grid", params, t, x, lambda: row)
                    check("boundary", params, t, 0.0,
                          lambda: boundary_value(t, params))
    return calls, typed, bad


def _half_closed_form(params, t, x):
    """The tempered density at beta = 1/2 from Levy's closed form, its
    tilt taken in logs."""
    lam = params.lam
    return math.exp(math.log(t / (2.0 * math.sqrt(math.pi)))
                    - 1.5 * math.log(x) - t * t / (4.0 * x) - lam * x
                    + math.sqrt(lam) * t)


def _where(row):
    params, t, x = row[:3]
    return f"beta={params.beta} lam={params.lam} t={t} x={x:.6g}"


def main():
    tables = moment_tables()
    moment_bad = [(params, t, row, mean) for params, t, row, mean in tables
                  if isinstance(row, Exception) or row.value != mean
                  or not math.isfinite(row.error_estimate)]
    print(f"moment table rows {len(tables)}, differing from moment_exact "
          f"or without a finite error {len(moment_bad)}")
    for params, t, row, mean in moment_bad:
        print(f"  at beta={params.beta} lam={params.lam} t={t}: table "
              f"{row!r}, moment_exact {mean!r}")
    rows, panels, rounds, lines, cdf_results = sweep(tables)
    direct, direct_bounds, direct_s = saddle_rows(rows)
    lines += direct_bounds
    methods = collections.Counter(
        "raised" if isinstance(r[3], Exception) else r[3].method for r in rows)
    raised = [(r, "density", r[3]) for r in rows if isinstance(r[3], Exception)]
    raised += [(r, "cdf", r[4]) for r in rows if isinstance(r[4], Exception)]
    raised += [(r, "saddle", e) for r, e in zip(rows, direct)
               if isinstance(e, Exception)]
    # a form may raise NonConvergenceError; any other raise is a fault
    raised += [(r, "form", e) for r in rows for e in r[7:]
               if isinstance(e, Exception)
               and not isinstance(e, NonConvergenceError)]
    pairs = [r for r in rows
             if not any(isinstance(e, Exception) for e in r[7:])]
    apart = [r for r in pairs if abs(r[7].value - r[8].value)
             > r[7].error_estimate + r[8].error_estimate]
    print(f"points {len(rows)}")
    for name, counts in (("density", methods),
                         ("cdf", collections.Counter(
                             "raised" if isinstance(c, Exception) else c.method
                             for c in cdf_results))):
        print(f"{name} methods: " + ", ".join(
            f"{m} {n}" for m, n in sorted(counts.items())))
    loose = [r for r in rows if not isinstance(r[3], Exception)
             and r[3].error_estimate > 1e-8 * abs(r[3].value)]
    print(f"densities with error above 1e-8 of their value {len(loose)}")
    for row in loose:
        print(f"  at {_where(row)}: {row[3]!r}")
    for col, name in ((5, "density"), (6, "cdf")):
        slowest = max(rows, key=lambda r: r[col])
        print(f"{name} {sum(r[col] for r in rows):.1f} s, slowest "
              f"{slowest[col]:.3f} s at {_where(slowest)}")
    print(f"quadrature calls {len(panels)}, integrand rounds "
          f"{rounds['integrand']}, series rounds {rounds['series']}, "
          f"panels {sum(panels)}, largest panel count "
          f"{max(panels, default=0)}")
    print(f"raised {len(raised)}")
    for row, name, e in raised:
        print(f"  {name} at {_where(row)}: {type(e).__name__}: {e}")
    print(f"series/integral pairs {len(pairs)}, outside their summed "
          f"errors {len(apart)}")
    for row in apart:
        s, i = row[7:]
        print(f"  at {_where(row)}: series {s.value:.10g} +- "
              f"{s.error_estimate:.2g}, integral {i.value:.10g} +- "
              f"{i.error_estimate:.2g}")
    saddles = [(r, d) for r, d in zip(rows, direct) if isinstance(d, tuple)]
    missed = [r for r, d in zip(rows, direct) if d is None]
    print(f"saddle-point contour at every point: converged {len(saddles)} "
          f"of {len(rows)} in {direct_s:.1f} s, not converged {len(missed)}")
    for row in missed:
        print(f"  not at {_where(row)}")
    series_pairs = [(r, r[7], d) for r, d in saddles
                    if not isinstance(r[7], Exception)]
    series_apart = [p for p in series_pairs if _apart(*p[1:])]
    cut_pairs = [(r, r[8], d) for r, d in saddles
                 if not isinstance(r[8], Exception)]
    cut_sharp = [p for p in cut_pairs
                 if p[1].error_estimate <= 1e-8 * abs(p[1].value)]
    cut_apart = [p for p in cut_sharp if _apart(*p[1:])]
    cut_blunt = [p for p in cut_pairs if p not in cut_sharp
                 and _apart(*p[1:])]
    print(f"series/saddle pairs {len(series_pairs)}, outside their summed "
          f"errors {len(series_apart)}; integral/saddle pairs "
          f"{len(cut_pairs)}, with the integral within 1e-8 of its value "
          f"{len(cut_sharp)}, of them outside their summed errors "
          f"{len(cut_apart)}; integral beyond 1e-8 of its value and apart "
          f"(not gated) {len(cut_blunt)}")
    for row, form, d in series_apart + cut_apart + cut_blunt:
        print(f"  at {_where(row)}: {form.method} {form.value:.10g} +- "
              f"{form.error_estimate:.8g}, saddle {d[0]:.10g} +- {d[1]:.2g}")
    cuts, cut_s = cut_rows(rows)
    raised += [(r, "cut", e) for r, e in zip(rows, cuts)
               if isinstance(e, Exception)]
    cdf_pairs = [(r, c, k) for r, c, k in zip(rows, cdf_results, cuts)
                 if isinstance(k, tuple) and not isinstance(c, Exception)]
    cdf_sharp = [p for p in cdf_pairs if p[2][1] <= 1e-8 * abs(p[2][0])]
    cdf_apart = [p for p in cdf_sharp if _apart(*p[1:])]
    sharp_methods = collections.Counter(p[1].method for p in cdf_sharp)
    print(f"cdf/branch-cut pairs {len(cdf_pairs)} (cut in {cut_s:.1f} s), "
          f"with the cut within 1e-8 of its value {len(cdf_sharp)} ("
          + ", ".join(f"{m} {n}" for m, n in sorted(sharp_methods.items()))
          + f"), of them outside their summed errors {len(cdf_apart)}")
    for row, c, k in cdf_apart:
        print(f"  at {_where(row)}: cdf {c.method} {c.value!r} +- "
              f"{c.error_estimate:.2g}, cut {k[0]!r} +- {k[1]:.2g}")
    above = [line for line in lines if line[4] > line[5]]
    print(f"saddle-point contour values: density "
          f"{sum(line[0] for line in lines)}, cdf "
          f"{sum(1 - line[0] for line in lines)}; above their bound "
          f"{len(above)}")
    for m, params, t, x, log_i, log_bound in above:
        print(f"  {'density' if m else 'cdf'} at beta={params.beta} "
              f"lam={params.lam} t={t} x={x:.6g}: log |I| {log_i:.10g}, "
              f"log bound {log_bound:.10g}")
    falls = cdf_falls(rows)
    print(f"cdf falling with x {len(falls)}")
    for row in falls:
        print(f"  at {_where(row)}: cdf {row[4]!r}")
    pairs, grid_s = grid_rows(rows)
    differ = [(row, g) for row, g in pairs if _differs(row[3], g)]
    print(f"grid rows {len(pairs)} in {grid_s:.1f} s, differing from "
          f"eval_density {len(differ)}")
    for row, g in differ:
        print(f"  at {_where(row)}: point {row[3]!r}, grid {g!r}")
    cold, cold_s = cold_rows(rows)
    print(f"cold density and cdf at {len(rows)} points in {cold_s:.1f} s, "
          f"differing from the warm ones {len(cold)}")
    for row, h, c in cold:
        print(f"  at {_where(row)}: warm {row[3]!r} and {row[4]!r}, cold "
              f"{h!r} and {c!r}")
    ic, ic_s = initial_conditions()
    ic_raised = [v for _, _, v in ic if isinstance(v, NonConvergenceError)]
    ic_bad = [(b, x, v) for b, x, v in ic
              if not isinstance(v, NonConvergenceError)
              and (isinstance(v, Exception) or not v < 1e-8)]
    print(f"initial conditions {len(ic)} in {ic_s:.1f} s: below 1e-8 "
          f"{len(ic) - len(ic_raised) - len(ic_bad)}, raised "
          f"{len(ic_raised)}, bad {len(ic_bad)}")
    for beta, x, v in ic_bad:
        print(f"  at beta={beta:.6g} x={x:g}: {v!r}")
    stable, stable_s = stable_family_pass(tables)
    stable_bad = [r for r in stable if not (
        isinstance(r[3], (ParameterError, NonConvergenceError))
        or (isinstance(r[3], float) and 0.0 <= r[3] < math.inf))]
    stable_half = [(r, _half_closed_form(*r[:3])) for r in stable
                   if r[0].beta == 0.5 and isinstance(r[3], float)]
    stable_half = [(r, ref, abs(r[3] - ref) / ref) for r, ref in stable_half
                   if ref > 1e-300]
    stable_off = [p for p in stable_half if p[2] > 1e-8]
    print(f"stable family: tempered_density at {len(stable)} points in "
          f"{stable_s:.2f} s, methods " + ", ".join(
              f"{m} {n}" for m, n in sorted(collections.Counter(
                  r[4] for r in stable).items()))
          + f"; neither a finite value >= 0 nor a typed error "
          f"{len(stable_bad)}; at beta 1/2 beyond 1e-8 of the closed form "
          f"{len(stable_off)} of {len(stable_half)}, worst "
          f"{max((p[2] for p in stable_half), default=0.0):.2g}")
    for r in stable_bad:
        print(f"  at {_where(r)}: {r[3]!r}")
    for r, ref, err in stable_off:
        print(f"  at {_where(r)}: {r[3]!r} against {ref!r}")
    edge_calls, edge_typed, edge_bad = edge_pass()
    print(f"edge pass: {edge_calls} calls, typed errors {edge_typed}, "
          f"raised otherwise or out of range {len(edge_bad)}")
    for name, params, t, x, res in edge_bad:
        print(f"  {name} at beta={params.beta} lam={params.lam} t={t!r} "
              f"x={x!r}: {res!r}")
    corners = monte_carlo()
    mc_bad = [c for c in corners
              if isinstance(c[2], Exception) or not abs(c[2]) <= MC_Z]
    print(f"monte carlo corners {len(corners)} in "
          f"{sum(c[3] for c in corners):.1f} s, {MC_PATHS} paths each, "
          f"beyond {MC_Z:g} standard errors or raised {len(mc_bad)}")
    for params, mean, z, s in corners:
        shown = (f"{type(z).__name__}: {z}" if isinstance(z, Exception)
                 else f"z {z:+.2f}")
        print(f"  beta={params.beta} lam={params.lam}: mean {mean:.6g}, "
              f"{shown}, {s:.2f} s")
    return 1 if (moment_bad or raised or apart or loose or missed
                 or series_apart or cut_apart or cdf_apart or above or falls or differ
                 or cold or ic_bad or stable_bad or stable_off
                 or edge_bad or mc_bad) else 0


if __name__ == "__main__":
    sys.exit(main())
