"""Write moment_oracle.json, the frozen mpmath values of E[E(t)**q] that
tests/test_moments.py checks `moment_table` and its error estimate
against. Tier-1 runs no mpmath; regenerate only when the point list
changes:

    PYTHONPATH=src python3 tests/make_moment_oracle.py

Each value is mpmath's Talbot inversion of Gamma(1+q) / (s * Psi(s)**q),
Psi(s) = (s+lam)**beta - lam**beta, at 40 digits, where the roundoff that
limits the double-precision rule is far below the last double digit; it
takes a few seconds and no download.
"""

import json
import os

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "moment_oracle.json")

BETAS = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98)
LAMS = (1e-3, 1.0, 50.0)
TS = (1e-3, 1.0, 1e3)
QS = (1.0, 2.0)


def moment(q, t, beta, lam):
    with mp.workdps(40):
        q, beta, lam = mp.mpf(q), mp.mpf(beta), mp.mpf(lam)

        def F(s):
            return mp.gamma(1 + q) / (s * ((s + lam) ** beta
                                           - lam ** beta) ** q)

        return float(mp.invertlaplace(F, mp.mpf(t), method="talbot"))


def main():
    rows = [{"beta": beta, "lam": lam, "t": t, "q": q,
             "moment": moment(q, t, beta, lam)}
            for beta in BETAS for lam in LAMS for t in TS for q in QS]
    with open(TABLE, "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} rows to {TABLE}")


if __name__ == "__main__":
    main()
