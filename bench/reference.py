"""High-precision mpmath oracles for the benchmark.

Run once to write ``references.json`` next to this file:

    python3 bench/reference.py

The table covers the points the ``cli_tables`` workload can be checked
at; each benchmark run checks a seeded subset of it, so the mpmath time
is never part of a measurement. ``param_sweep`` points are random, so
that workload calls ``density`` here for its seeded subset before its
timed loop starts.

Oracles:
- density, lam > 0: the half-line integral representation, evaluated by
  mpmath quadrature with enough digits to absorb the exp(lam**beta * x)
  prefactor;
- density, lam = 0: the Wright-function series
  t**(-beta) * sum_k (-z)**k / (k! * Gamma(1 - beta - beta*k)),
  z = x * t**(-beta), checked against the half-Gaussian closed form at
  beta = 1/2;
- moments: mpmath's Talbot inversion of Gamma(1+q) / (s * Psi(s)**q).
"""

import json
import math
import os
import sys

# mpmath is imported inside the functions that compute an oracle, so a
# benchmark run that only loads the table does not pay for it.

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# The cli_tables grid (see workloads.py); references every fifth x.
BETAS = (0.2, 0.4, 0.6)
LAMS = (1.0, 0.0)
X_STEP = 0.02
X_COUNT = 201
X_STRIDE = 5
MOMENT_QS = (1.0, 2.0)
MOMENT_LAM = 1.0
MOMENT_TS = [10.0 ** (-3 + 0.1 * i) for i in range(61)]


def density_key(beta, lam, t, i):
    """Key of the density at grid index i (x = i * X_STEP)."""
    return f"{beta:g}|{lam:g}|{t:g}|{i}"


def moment_key(beta, lam, q, i):
    """Key of the moment at row i of the 61-point t table."""
    return f"{beta:g}|{lam:g}|{q:g}|{i}"


def density(x, t, beta, lam):
    """h(x, t) to about 25 significant digits."""
    import mpmath as mp

    if lam == 0.0:
        return _inverse_stable(x, t, beta)
    # The prefactor exp(lam**beta * x - lam * t) multiplies an integral
    # that cancels down by about as much; carry the digits it eats.
    extra = int(max(lam ** beta * x - lam * t, 0.0) / math.log(10.0))
    with mp.workdps(30 + extra):
        x, t, beta, lam = (mp.mpf(v) for v in (x, t, beta, lam))
        c, s = mp.cos(beta * mp.pi), mp.sin(beta * mp.pi)
        lb = lam ** beta

        def f(y):
            yb = y ** beta
            ph = x * yb * s
            return (mp.exp(-t * y - x * yb * c) / (y + lam)
                    * (lb * mp.sin(ph) + yb * mp.sin(beta * mp.pi - ph)))

        nodes = [0, 1 / t, 10 / t, 40 / t, mp.inf]
        return float(mp.exp(lb * x - lam * t) / mp.pi * mp.quad(f, nodes))


def _inverse_stable(x, t, beta):
    import mpmath as mp

    with mp.workdps(50):
        beta = mp.mpf(beta)
        z = mp.mpf(x) * mp.mpf(t) ** -beta
        total, k, small = mp.mpf(0), 0, 0
        while small < 3:
            term = (-z) ** k / mp.factorial(k) * mp.rgamma(1 - beta - beta * k)
            total += term
            small = small + 1 if abs(term) < mp.mpf(10) ** -40 and k > 2 else 0
            k += 1
        return float(mp.mpf(t) ** -beta * total)


def moment(q, t, beta, lam):
    """E[E(t)**q] to about 20 significant digits."""
    import mpmath as mp

    with mp.workdps(30):
        q, beta, lam = mp.mpf(q), mp.mpf(beta), mp.mpf(lam)

        def F(s):
            return mp.gamma(1 + q) / (s * ((s + lam) ** beta - lam ** beta) ** q)

        return float(mp.invertlaplace(F, t, method="talbot"))


def check_half_gaussian():
    """The lam = 0 oracle must reproduce exp(-x**2/4)/sqrt(pi) at beta = 1/2."""
    worst = 0.0
    for x in (0.0, 0.3, 1.0, 2.5, 4.0):
        exact = math.exp(-x * x / 4.0) / math.sqrt(math.pi)
        worst = max(worst, abs(_inverse_stable(x, 1.0, 0.5) - exact))
    if worst > 1e-15:
        raise SystemExit(f"half-Gaussian check failed: {worst:.3g}")
    return worst


def load():
    with open(REFERENCES) as fh:
        return json.load(fh)


def main():
    import mpmath as mp

    gap = check_half_gaussian()
    dens = {}
    for beta in BETAS:
        for lam in LAMS:
            for i in range(0, X_COUNT, X_STRIDE):
                dens[density_key(beta, lam, 1.0, i)] = density(
                    i * X_STEP, 1.0, beta, lam)
    moms = {}
    for beta in BETAS:
        for q in MOMENT_QS:
            for i, t in enumerate(MOMENT_TS):
                moms[moment_key(beta, MOMENT_LAM, q, i)] = moment(
                    q, t, beta, MOMENT_LAM)
    out = {"mpmath": mp.__version__, "half_gaussian_gap": gap,
           "density": dens, "moments": moms}
    with open(REFERENCES, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(dens)} density and {len(moms)} moment references "
          f"to {REFERENCES}", file=sys.stderr)


if __name__ == "__main__":
    main()
