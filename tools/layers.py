"""Layer figures of the density path: microseconds per warm call.

Each figure is the least time of a call over CALLS warm calls (CALLS // 20
for a grid), after one untimed call that fills the caches (the A_j prefix
of `_coefficients` and the half line's first-round layout). It is printed
with its method and its terms or panels, so that a change in work can be
told apart from a change in speed:

- one-row `eval` and `cdf` at beta 0.4, lam 1, t 1 and x 0.8 (series)
  and 3 (saddle);
- `_line`, the saddle contour's point, width and bound, at x 3, m = 1;
- `upper_incomplete_gamma_scaled` at (a, u) = (-2.8, 1), (-0.5, 1.5),
  (-120.4, 1) and (2.5, 5);
- `eval_density_grid` on the 201 points x = 0:4:0.02 at beta 0.2, 0.4 and
  0.6, lam 1, t 1 (the `itsub density` figure grid), with its rows'
  methods and their summed terms and panels.

Timings are process-local and swing between runs; nothing is gated. Exits
non-zero only if a call raises. Run as

    PYTHONPATH=src python tools/layers.py
"""

import collections
import math
import time

from itsub.its_density import EvalPoint, _line, cdf, eval as eval_density
from itsub.its_density import eval_density_grid
from itsub.special_fn import upper_incomplete_gamma_scaled
from itsub.stable_family import TemperedStableParams

CALLS = 200
GAMMA_POINTS = ((-2.8, 1.0), (-0.5, 1.5), (-120.4, 1.0), (2.5, 5.0))
GRID_BETAS = (0.2, 0.4, 0.6)
GRID_X = [0.02 * i for i in range(201)]


def best_us(fn, calls):
    """(fn's result, the least microseconds of one of `calls` warm calls)."""
    out = fn()
    least = math.inf
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        least = min(least, time.perf_counter() - start)
    return out, least * 1e6


def main():
    params = TemperedStableParams(0.4, 1.0)
    for x in (0.8, 3.0):
        res, us = best_us(lambda: eval_density(EvalPoint(x, 1.0), params),
                          CALLS)
        print(f"eval  beta=0.4 lam=1 t=1 x={x}: {us:8.1f} us, "
              f"{res.method} {res.terms_or_panels}")
        _, us = best_us(lambda: cdf(x, 1.0, params), CALLS)
        print(f"cdf   beta=0.4 lam=1 t=1 x={x}: {us:8.1f} us")
    line, us = best_us(lambda: _line(1, 3.0, 1.0, params), CALLS)
    print(f"_line beta=0.4 lam=1 t=1 x=3.0: {us:8.1f} us, c {line[0]:.6g}, "
          f"log B {line[4]:.6g}")
    for a, u in GAMMA_POINTS:
        g, us = best_us(lambda: upper_incomplete_gamma_scaled(a, u), CALLS)
        print(f"upper_incomplete_gamma_scaled a={a} u={u}: {us:8.2f} us, "
              f"{g:.6g}")
    for beta in GRID_BETAS:
        grid_params = TemperedStableParams(beta, 1.0)
        rows, us = best_us(
            lambda: eval_density_grid(GRID_X, 1.0, grid_params),
            max(1, CALLS // 20))
        raised = [r for r in rows if isinstance(r, Exception)]
        if raised:
            raise raised[0]
        methods = collections.Counter(r.method for r in rows)
        work = collections.Counter()
        for r in rows:
            work[r.method] += r.terms_or_panels
        summary = ", ".join(f"{m} {n} rows / {work[m]} terms or panels"
                            for m, n in sorted(methods.items()))
        print(f"grid  beta={beta} lam=1 t=1 201 x: {us / 1e3:8.2f} ms, "
              f"{summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
