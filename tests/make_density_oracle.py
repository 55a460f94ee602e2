"""Write density_oracle.json, the frozen mpmath values of h(x, t) that
tests/test_its_density.py checks eval_density against. Tier-1 runs no
mpmath; regenerate only when the point list changes:

    PYTHONPATH=src python3 tests/make_density_oracle.py

Each value is mpmath's quadrature of the branch-cut integral

    h = e**(lam**beta x - lam t) / pi * int_0^inf e**(-t y - x y**beta c)
        * (lam**beta sin(x y**beta s) + y**beta sin(beta pi - x y**beta s))
        / (y + lam) dy,   c, s = cos(beta pi), sin(beta pi),

a different representation from the one eval uses there. The prefactor
and the peak of the integrand meet an integral that cancels down to h,
so the working precision starts at 30 digits plus those two exponents and
grows by half until two successive values agree to 1e-15.

Where h lies far below double range that cancellation eats thousands of
digits. There the value is 0, and the table records the upper bound it
rests on: with e**(-lam y) <= 1, nu(r) <= r**-beta / Gamma(1-beta) and a
stable density f(y; x) that rises up to its mode,
    h(x, t) <= e**(lam**beta x) f(t; x) t**(1-beta) / Gamma(2-beta)
for t left of the mode, f(t; x) from Kanter's integral in mpmath.

The lam = 0 rows of WRIGHT_POINTS, where the series' error estimate
once fell short, come instead from the Wright series that eval sums there,

    h = t**-beta * sum_k (-x t**-beta)**k / (k! Gamma(1 - beta (k+1))),

summed in mpmath at 80 and at 120 digits; the two agree to 1e-15.
"""

import json
import math
import os
import sys

import mpmath as mp

from itsub.moments import MomentQuery, moment_exact
from itsub.stable_family import TemperedStableParams

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "density_oracle.json")

# (beta, lam, t): bulk points at 0.3, 1 and 3 times E[E(t)]
_BULK = [(0.5, 1.0, 50.0), (0.3, 50.0, 1.0),
         (0.5, 1.0, 1000.0), (0.9, 50.0, 20.0)]
# (beta, lam, t, x)
_FIXED = [
    (0.5, 2.0, 1.0, 15.0),
    (0.5, 2.0, 1.0, 25.0),
    (0.5, 2.0, 1.0, 40.0),
    (0.7, 1e-6, 0.1, 1.5),
    (0.7, 0.0, 1.0, 11.005),
    (0.3, 1.0, 1.0, 0.8),
    (0.95, 1.0, 1e-3, 0.5),
    (0.98, 0.0, 1.0, 3.025082749821511),
    # bench param_sweep, seed 1 (point 1) and --tiny --seed 4 (point 2)
    (0.7702782177955614, 5.073009515875978, 0.3098164936381682,
     1.9617695407947262),
    (0.7857462234246226, 4.016080542231531, 6.374265657715361,
     43.01673227956874),
    # north-star sweep, 3 x mean: the series' gamma bound is above the bar
    (0.7, 50.0, 1e-3, 0.02815071826673611),
    # near the mean of E(1e3): the branch cut's rounding floor is above
    # the bar, and the saddle-point line gives h
    (0.7, 1.0, 1e3, 1428.79),
]
# (beta, lam, t, x / E[E(t)]): the north-star sweep points where eval
# once took the branch cut with an error above 1e-8 of h, but for
# (0.3, 50, 1, 0.3), which is in _BULK
_SWEEP = [
    (0.02, 1e-3, 1e-3, 10.0), (0.02, 1e-3, 1.0, 10.0),
    (0.02, 1.0, 1e-3, 10.0), (0.02, 50.0, 1.0, 1e-3),
    (0.1, 1e-3, 1.0, 10.0), (0.1, 1.0, 1e-3, 10.0), (0.1, 50.0, 1e-3, 10.0),
    (0.3, 0.0, 1e-3, 10.0), (0.3, 0.0, 1.0, 10.0), (0.3, 0.0, 1e3, 10.0),
    (0.3, 1e-3, 1e-3, 10.0), (0.3, 1e-3, 1.0, 10.0), (0.3, 1.0, 1e-3, 10.0),
    (0.3, 50.0, 1e-3, 10.0),
    (0.5, 0.0, 1e-3, 10.0), (0.5, 1e-3, 1e-3, 10.0),
    (0.5, 1e-3, 1e3, 3.0), (0.5, 50.0, 1.0, 0.3),
    (0.7, 0.0, 1e3, 3.0), (0.7, 1e-3, 1e3, 3.0), (0.7, 1.0, 1.0, 3.0),
    (0.7, 50.0, 1.0, 0.3),
    (0.9, 1.0, 1e3, 0.3), (0.9, 50.0, 1.0, 0.3),
    (0.98, 1.0, 1e3, 0.3), (0.98, 50.0, 1.0, 0.3)]


def points(frozen):
    """(beta, lam, t, x) of the branch-cut rows, in table order. A point
    at x = k E[E(t)] takes the x of the row of frozen, the rows already
    written, at its (beta, lam, t) within 1e-9 of k E[E(t)]: moment_exact
    has moved in the 12th digit since those rows were frozen, and a rerun
    must reproduce them at their own x. A new point takes k E[E(t)]."""
    def at_mean(beta, lam, t, k):
        x = k * moment_exact(
            MomentQuery(1.0, t, TemperedStableParams(beta, lam)))
        return beta, lam, t, next(
            (row["x"] for row in frozen
             if (row["beta"], row["lam"], row["t"]) == (beta, lam, t)
             and abs(row["x"] - x) <= 1e-9 * x), x)

    return ([at_mean(b, lam, t, k) for b, lam, t in _BULK
             for k in (0.3, 1.0, 3.0)]
            + _FIXED + [at_mean(*point) for point in _SWEEP])


# (beta, lam = 0, t, x): north-star sweep points at 10 x mean, where the
# series cancels, and a README density grid point
WRIGHT_POINTS = [
    (0.02, 0.0, 1.0, 10.112816525588809),
    (0.1, 0.0, 1e-3, 5.268164482564149),
    (0.6, 0.0, 1.0, 4.0),
]


def branch_cut(beta, lam, t, x, dps):
    with mp.workdps(dps):
        beta, lam, t, x = (mp.mpf(v) for v in (beta, lam, t, x))
        c, s = mp.cos(beta * mp.pi), mp.sin(beta * mp.pi)
        lb = lam ** beta

        def f(y):
            yb = y ** beta
            ph = x * yb * s
            return (mp.exp(-t * y - x * yb * c) / (y + lam)
                    * (lb * mp.sin(ph) + yb * mp.sin(beta * mp.pi - ph)))

        nodes = [0, 1 / t, 10 / t, 40 / t, 200 / t]
        if c < 0:  # the integrand grows up to y* before e**(-t y) wins
            ystar = (beta * x * -c / t) ** (1 / (1 - beta))
            nodes += [ystar * k for k in (0.25, 0.5, 1, 2, 4)]
        nodes = sorted(set(nodes)) + [mp.inf]
        return mp.exp(lb * x - lam * t) / mp.pi * mp.quad(f, nodes)


def wright(beta, t, x, dps):
    """h(x, t) at lam = 0 by the Wright series, summed until k is past
    the peak term and two terms in a row are below 10**-(dps + 5) of the
    sum (at rational beta every q-th term is 0)."""
    with mp.workdps(dps):
        beta, t, x = (mp.mpf(v) for v in (beta, t, x))
        z = -x * t ** -beta
        total, k, small = mp.mpf(0), 0, 0
        while True:
            term = z ** k / mp.factorial(k) * mp.rgamma(1 - beta * (k + 1))
            total += term
            small = small + 1 if abs(term) < 10 ** -(dps + 5) * abs(
                total) else 0
            if k > 2 * abs(z) + 10 and small == 2:
                return t ** -beta * total
            k += 1


def log_peak(beta, lam, t, x):
    """Log of the largest |integrand| times the prefactor, roughly."""
    c = math.cos(beta * math.pi)
    peak = 0.0
    if c < 0:
        ystar = (beta * x * -c / t) ** (1 / (1 - beta))
        peak = x * -c * ystar ** beta - t * ystar
    return max(lam ** beta * x - lam * t, 0.0) + max(peak, 0.0)


def log_stable(y, x, beta, dps=40):
    """log f(y; x), Laplace transform exp(-x s**beta), by Kanter's
    integral with exp(-a(0) z) factored out."""
    with mp.workdps(dps):
        y, x, beta = mp.mpf(y), mp.mpf(x), mp.mpf(beta)
        kap = beta / (1 - beta)
        s = y * x ** (-1 / beta)
        z = s ** -kap

        def a(u):
            return (mp.sin(beta * u) ** kap * mp.sin((1 - beta) * u)
                    / mp.sin(u) ** (1 / (1 - beta)))

        a0 = beta ** kap * (1 - beta)
        integral = mp.quad(lambda u: a(u) * mp.exp(-(a(u) - a0) * z),
                           mp.linspace(0, mp.pi, 40))
        return (mp.log(kap / mp.pi) - (kap + 1) * mp.log(s) - a0 * z
                + mp.log(integral) - mp.log(x) / beta)


def log_bound(beta, lam, t, x):
    """log of the upper bound on h, or None when t is not left of the
    mode of f(.; x)."""
    if log_stable(t * 1.001, x, beta) <= log_stable(t, x, beta):
        return None
    return float(lam ** beta * x + log_stable(t, x, beta)
                 + (1 - beta) * math.log(t) - math.lgamma(2 - beta))


def oracle(beta, lam, t, x):
    bound = log_bound(beta, lam, t, x)
    if bound is not None and bound < -800.0:
        return 0.0, f"0: h <= exp({bound:.6g})"
    dps = 30 + int(log_peak(beta, lam, t, x) / math.log(10.0))
    prev = branch_cut(beta, lam, t, x, dps)
    while True:
        dps = int(dps * 1.5)
        value = branch_cut(beta, lam, t, x, dps)
        if abs(value - prev) <= 1e-15 * abs(value):
            return float(value), f"branch cut, {dps} digits"
        prev = value


def main():
    frozen = []
    if os.path.exists(TABLE):
        with open(TABLE) as f:
            frozen = json.load(f)
    rows = []
    for beta, lam, t, x in points(frozen):
        h, how = oracle(beta, lam, t, x)
        print(beta, lam, t, x, h, how, file=sys.stderr)
        rows.append({"beta": beta, "lam": lam, "t": t, "x": x, "h": h,
                     "how": how})
    for beta, lam, t, x in WRIGHT_POINTS:
        h80, h120 = wright(beta, t, x, 80), wright(beta, t, x, 120)
        assert abs(h80 - h120) <= 1e-15 * abs(h120)
        rows.append({"beta": beta, "lam": lam, "t": t, "x": x,
                     "h": float(h120), "how": "Wright sum, 80 and 120 digits"})
    with open(TABLE, "w") as out:
        json.dump(rows, out, indent=1)
        out.write("\n")


if __name__ == "__main__":
    main()
