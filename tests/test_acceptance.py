"""End-to-end acceptance checks: one test per headline claim, each
emitting a single PASS/FAIL line with the measured figure of merit."""

import csv
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as G
from scipy.stats import chisquare

from itsub.cli import main as cli_main
from itsub.its_density import (
    EvalPoint,
    boundary_value,
    cdf,
    derivative_at_zero,
    eval as eval_density,
    eval_integral,
    eval_series,
)
from itsub.moments import MomentQuery, moment_asymptotic, moment_exact
from itsub.montecarlo import SimConfig, empirical_moment, first_passage_samples
from itsub.pde_check import PdeCase, initial_condition_check, pde_residual
from itsub.stable_family import (
    TemperedStableParams,
    inverse_stable_density,
    inverse_stable_density_series,
)


def _report(name, ok, detail):
    line = f"[{name}] {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def test_01_representation_equivalence():
    # series and integral forms agree to 1e-6 across the parameter box
    start = time.monotonic()
    xs = np.linspace(0.05, 1.5, 20)
    ts = [1.0, 1.25, 1.5, 2.0, 3.0]
    worst = 0.0
    for beta in (0.2, 0.4, 0.5, 0.6, 0.8):
        for lam in (0.5, 1.0, 2.0):
            params = TemperedStableParams(beta, lam)
            for x in xs:
                for t in ts:
                    p = EvalPoint(float(x), t)
                    gap = abs(eval_series(p, params).value
                              - eval_integral(p, params).value)
                    worst = max(worst, gap)
    elapsed = time.monotonic() - start
    _report("representation-equivalence", worst <= 1e-6 and elapsed < 60.0,
            f"max |series - integral| = {worst:.3g}, {elapsed:.1f}s")


def test_02_normalization():
    # integral of the density over x is 1 (upper cutoffs chosen so the
    # remaining tail mass is below 1e-8)
    cases = [(0.6, 1.0, 1.0, 7.7), (0.8, 1.0, 1.0, 3.1),
             (0.4, 2.0, 0.5, 11.0), (0.5, 1.0, 1.0, 13.0)]
    worst = 0.0
    for beta, lam, t, cutoff in cases:
        params = TemperedStableParams(beta, lam)
        total, _ = quad(lambda x: eval_density(EvalPoint(x, t), params).value,
                        0, cutoff, limit=300)
        worst = max(worst, abs(total - 1.0))
    _report("normalization", worst <= 1e-5, f"max |integral - 1| = {worst:.3g}")


def test_03_inverse_gaussian_reduction():
    # beta = 1/2 density equals the inverse-Gaussian hitting-time integral
    lam, t = 1.0, 1.0
    params = TemperedStableParams(0.5, lam)
    rl = math.sqrt(lam)

    def ig_form(x):
        def f(u):
            return (2.0 * u * math.exp(-t * u * u) / (u * u + lam)
                    * (rl * math.sin(x * u) + u * math.cos(x * u)))

        val, _ = quad(f, 0, np.inf, limit=400)
        return math.exp(rl * x - lam * t) / math.pi * val

    worst = 0.0
    for x in np.linspace(0.1, 3.0, 15):
        worst = max(worst, abs(eval_density(EvalPoint(float(x), t),
                                            params).value - ig_form(float(x))))
    _report("inverse-gaussian-reduction", worst <= 1e-8,
            f"max pointwise gap = {worst:.3g}")


# beta -> P(E_0(1) > x) at the 10 x of np.linspace(0.1, 3.0, 10): the
# Wright series integrated term by term, sum_k (-x)**k / (k! Gamma(1 -
# beta k)), summed in mpmath at 60 and at 100 digits (the two agree to
# 1e-30; at beta = 1/2 it is erfc(x / 2))
_UNTEMPERED_TAIL = {
    0.3: (0.9251975911422857, 0.7133956738672798, 0.5424836695161749,
          0.4070704388129284, 0.30159174511405096, 0.22072630151019512,
          0.1596510324698547, 0.1141704345996502, 0.08075440855158253,
          0.056514875075997124),
    0.5: (0.9436280222029834, 0.7652786919073872, 0.5986091244388031,
          0.45070078042613604, 0.32605415605880866, 0.22630258081566146,
          0.15049541055067556, 0.09578727021011889, 0.058294753018179844,
          0.033894853524689274),
    0.7: (0.9652139559299465, 0.8341728077423475, 0.6759141533993877,
          0.5002648383636366, 0.3271857567674748, 0.18164582551775574,
          0.08169622570031425, 0.0282459054620109, 0.007089996713903002,
          0.0012154394721807062),
}


def test_04_untempered_limit():
    # lam -> 0: density at lam = 1e-8 approaches the inverse stable
    # density; at beta = 1/2 the latter is the half-Gaussian.  Expanding
    # Psi(s) = s**beta - lam**beta + O(lam * s**(beta-1)) in the
    # t-Laplace transform Psi(s)/s * exp(-x*Psi(s)) gives the exact
    # leading deviation
    #   h_lam(x, t) = exp(x*lam**beta) * (h_0(x, t)
    #                 - lam**beta * P(E_0(t) > x)) + O(lam),
    # which is of order lam**beta (4e-3 at beta = 0.3), so the gate is
    # on the gap to this right-hand side. h_0 is the Wright series alone,
    # whose coefficients Gamma(k beta) sin(k beta pi) owe nothing to the
    # density's dispatcher, and the tail is frozen from the same series.
    lam, t = 1e-8, 1.0
    raw = {}
    worst = {}
    converged = True
    for beta, tails in _UNTEMPERED_TAIL.items():
        params = TemperedStableParams(beta, lam)
        raw_gap = gap = 0.0
        for x, tail in zip(np.linspace(0.1, 3.0, 10), tails):
            x = float(x)
            h = eval_density(EvalPoint(x, t), params).value
            series = inverse_stable_density_series(x, t, beta)
            converged &= series.converged
            l0 = series.value
            ref = math.exp(x * lam ** beta) * (l0 - lam ** beta * tail)
            raw_gap = max(raw_gap, abs(h - l0))
            gap = max(gap, abs(h - ref))
        raw[beta] = raw_gap
        worst[beta] = gap
    half_gap = max(
        abs(inverse_stable_density(float(x), 1.0, 0.5)
            - math.exp(-x * x / 4.0) / math.sqrt(math.pi))
        for x in np.linspace(0.1, 3.0, 10))
    ok = (converged and all(g <= 1e-4 for g in worst.values())
          and half_gap <= 1e-8)
    detail = ", ".join(f"beta={b}: {raw[b]:.3g} raw, {g:.3g} corrected"
                       for b, g in worst.items())
    _report("untempered-limit", ok,
            f"{detail}; half-Gaussian gap = {half_gap:.3g}; Wright series "
            f"converged at every point: {converged}")


def test_05_boundary_value():
    # integral form extrapolates to the closed-form x -> 0 limit, and the
    # limit itself degenerates correctly as lam -> 0:
    #   h(0+, t) = t**(-beta)/Gamma(1-beta) - lam**beta + O(lam*t**(1-beta))
    worst = 0.0
    for beta in (0.3, 0.5, 0.7):
        params = TemperedStableParams(beta, 1.0)
        for t in (0.5, 1.0, 2.0):
            near = eval_integral(EvalPoint(1e-7, t), params).value
            worst = max(worst, abs(near - boundary_value(t, params)))
    lam = 1e-10
    rel = {}
    for beta in (0.3, 0.5, 0.7):
        params = TemperedStableParams(beta, lam)
        ref = 1.0 / G(1.0 - beta) - lam ** beta
        rel[beta] = abs(boundary_value(1.0, params) - ref) / ref
    ok = worst <= 1e-5 and all(r <= 1e-3 for r in rel.values())
    detail = ", ".join(f"beta={b}: {r:.3g}" for b, r in rel.items())
    _report("boundary-value", ok,
            f"x->0 gap = {worst:.3g}; lam->0 rel gaps: {detail}")


def test_06_derivatives_at_zero():
    # untempered closed form, then tempered values against one-sided
    # finite differences of the density itself
    worst_closed = 0.0
    for k, beta in [(1, 0.3), (2, 0.3), (1, 0.45), (3, 0.2), (1, 0.25)]:
        params = TemperedStableParams(beta, 0.0)
        for t in (0.5, 1.0, 2.0):
            kb = (k + 1) * beta
            ref = (-1.0) ** k * t ** -kb / G(1.0 - kb)
            rel = abs(derivative_at_zero(k, t, params) - ref) / abs(ref)
            worst_closed = max(worst_closed, rel)
    params = TemperedStableParams(0.5, 1.0)
    t, delta = 1.0, 4e-3
    v = [boundary_value(t, params)] + [
        eval_density(EvalPoint(i * delta, t), params).value
        for i in range(1, 6)]
    fd = {
        1: (-137.0 / 60 * v[0] + 5 * v[1] - 5 * v[2] + 10.0 / 3 * v[3]
            - 5.0 / 4 * v[4] + 1.0 / 5 * v[5]) / delta,
        2: (15.0 / 4 * v[0] - 77.0 / 6 * v[1] + 107.0 / 6 * v[2] - 13 * v[3]
            + 61.0 / 12 * v[4] - 5.0 / 6 * v[5]) / delta ** 2,
    }
    worst_fd = max(abs(derivative_at_zero(k, t, params) - fd[k]) / abs(fd[k])
                   for k in (1, 2))
    ok = worst_closed <= 1e-8 and worst_fd <= 1e-3
    _report("derivatives-at-zero", ok,
            f"closed-form rel = {worst_closed:.3g}, FD rel = {worst_fd:.3g}")


def test_07_moment_asymptotics():
    # Expanding Gamma(1+q)/(s*Psi(s)**q) in powers of (lam/s)**beta, the
    # exact moment over the leading small-t form is
    #   1 + c1 + O((lam*t)**(2*beta)),
    #   c1 = q*Gamma(1+q*beta)/Gamma(1+(q+1)*beta) * (lam*t)**beta;
    # c1 is 0.117 at q = 2, beta = 0.3, lam = 1, t = 1e-4, so small_t
    # ratios are compared with 1 + c1.  large_t ratios are compared with 1.
    start = time.monotonic()
    fails = []
    worst = 0.0
    for q in (1.0, 2.0):
        for beta in (0.3, 0.5, 0.7):
            for lam in (0.5, 1.0):
                params = TemperedStableParams(beta, lam)
                for t, regime in ((1e-4, "small_t"), (1e4, "large_t")):
                    query = MomentQuery(q, t, params)
                    ratio = moment_exact(query) / moment_asymptotic(
                        query, regime)
                    expected = 1.0
                    if regime == "small_t":
                        expected += (q * G(1.0 + q * beta)
                                     / G(1.0 + (q + 1.0) * beta)
                                     * (lam * t) ** beta)
                    dev = abs(ratio - expected)
                    worst = max(worst, dev)
                    if dev > 0.02:
                        fails.append(
                            f"q={q} beta={beta} lam={lam} {regime}: {dev:.3g}")
    elapsed = time.monotonic() - start
    ok = not fails and elapsed < 60.0
    detail = (f"worst |ratio - expected| = {worst:.3g}, {elapsed:.1f}s"
              + (f"; out of tolerance: {'; '.join(fails)}" if fails else ""))
    _report("moment-asymptotics", ok, detail)


def test_08_monte_carlo_agreement():
    start = time.monotonic()
    params = TemperedStableParams(0.5, 1.0)
    config = SimConfig(n_paths=100000, time_step=1e-3, horizon=60.0, seed=0)
    samples = first_passage_samples(config, params, 1.0)
    n = len(samples)
    sorted_samples = np.sort(samples)

    # KS against the analytic CDF on a quantile grid
    grid = np.quantile(samples, np.linspace(0.002, 0.998, 250))
    analytic = np.array([cdf(float(x), 1.0, params) for x in grid])
    empirical = np.searchsorted(sorted_samples, grid, side="right") / n
    ks = float(np.max(np.abs(analytic - empirical)))

    # moments within 3 standard errors of the Laplace-inverted values
    z = {}
    for q in (1.0, 2.0):
        est, se = empirical_moment(samples, q)
        exact = moment_exact(MomentQuery(q, 1.0, params))
        z[q] = abs(est - exact) / se

    # chi-square on 50 equal-count bins with analytic bin probabilities
    edges = np.quantile(samples, np.linspace(0.0, 1.0, 51))
    edges[0], edges[-1] = 0.0, np.inf
    cdf_at = np.array([cdf(float(e), 1.0, params) for e in edges[:-1]]
                      + [1.0])
    probs = np.diff(cdf_at)
    counts = np.histogram(samples, bins=np.append(edges[:-1],
                                                  sorted_samples[-1] + 1))[0]
    _, p_value = chisquare(counts, n * probs / probs.sum())

    elapsed = time.monotonic() - start
    ok = (ks < 0.005 and all(v < 3.0 for v in z.values())
          and p_value > 0.001 and elapsed < 300.0)
    _report("monte-carlo-agreement", ok,
            f"KS = {ks:.4g}, |z| = {z[1.0]:.2f}/{z[2.0]:.2f}, "
            f"chi2 p = {p_value:.3g}, {elapsed:.0f}s")


def test_09_pde_verification():
    grid = (0.6, 1.0, 1.5, 1.9)
    r2 = {lam: float(np.max(pde_residual(PdeCase(2, lam, grid, grid))))
          for lam in (0.0, 1.0)}
    r3 = float(np.max(pde_residual(
        PdeCase(3, 0.0, grid, grid, hx=1e-2, ht=1e-2))))
    coarse, fine = (PdeCase(2, 1.0, (1.0, 1.5), (1.0, 1.5), hx=h, ht=h)
                    for h in (4e-2, 2e-2))
    decay = np.max(pde_residual(coarse)) / np.max(pde_residual(fine))
    control_case = PdeCase(2, 1.0, (1.0, 1.5), (1.0, 1.5))
    good = float(np.max(pde_residual(control_case)))
    bad = float(np.max(pde_residual(control_case, beta=0.45)))
    ok = (max(r2.values()) < 1e-3 and r3 < 5e-3 and 2.5 <= decay <= 6.0
          and bad > 10.0 * good)
    _report("pde-verification", ok,
            f"m=2 resid = {r2[0.0]:.3g}/{r2[1.0]:.3g}, m=3 resid = {r3:.3g}, "
            f"decay = {decay:.3g}, control ratio = {bad / good:.3g}")


def test_10_boundary_derivative_and_initial_condition():
    worst_d = max(abs(derivative_at_zero(m - 1, 1.0,
                                         TemperedStableParams(1.0 / m)))
                  for m in (2, 3))
    worst_i = max(initial_condition_check(1.0 / m, x)
                  for m in (2, 3) for x in (0.1, 1.0, 2.0))
    ok = worst_d < 1e-8 and worst_i < 1e-8
    _report("boundary-and-initial-conditions", ok,
            f"max |derivative| = {worst_d:.3g}, max |h(x, 0)| = {worst_i:.3g}")


def test_11_peak_ordering(tmp_path):
    # sharper peaks for larger beta, via three CLI density dumps
    peaks = []
    for beta in (0.2, 0.4, 0.6):
        out = tmp_path / f"density_{beta}.csv"
        code = cli_main(["density", "--beta", str(beta), "--lambda", "1",
                         "--t", "1", "--x", "0:4:0.02", "--out", str(out)])
        assert code == 0
        with out.open() as fh:
            peaks.append(max(float(r["h"]) for r in csv.DictReader(fh)))
    ok = peaks[0] < peaks[1] < peaks[2]
    _report("peak-ordering", ok,
            "max density at beta 0.2/0.4/0.6 = "
            + "/".join(f"{p:.4f}" for p in peaks))
