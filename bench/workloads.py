"""The four workloads: seeded inputs, one pass of operations, and the
oracle check of every result.

A workload object exposes
- ``why``: the one-line reason it is in the benchmark;
- ``prepare()``: loads or computes its oracle references, outside any
  timing and outside the set-up probe;
- ``first_op(call)``: its first operation in canonical order, which the
  set-up probe runs in a fresh interpreter;
- ``run_pass(call)``: one full pass. Every library call that counts as
  an operation goes through ``call(fn, check)``, which times ``fn()``
  alone, then applies ``check`` to its result and returns the result
  (None if ``fn`` raised). ``check`` returns the error over tolerance,
  failing above 1, or raises OracleFailure. ``run_pass`` returns the
  pass-level oracle verdict as (ok, error over tolerance).

Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

import contextlib
import io
import math
import random

import numpy as np

from itsub import cli, its_density, moments, montecarlo
from itsub.its_density import EvalPoint
from itsub.moments import MomentQuery
from itsub.montecarlo import SimConfig
from itsub.stable_family import TemperedStableParams

import reference

# Tolerances of the oracle checks.
DENSITY_TOL = 1e-8        # |h - ref| <= DENSITY_TOL * max(1, |ref|)
MOMENT_TOL = 1e-6         # relative; moment_exact's own Talbot check
PDE_GATES = {2: 1e-3, 3: 5e-3}
NORMALIZATION_TOL = 1e-5  # |integral of h over x - 1|
NORMALIZATION_X_TOL = 1e-6
MAX_X_PANELS = 64
KS_ALPHA = 1e-6           # false-alarm rate of the KS gate per pass
Z_TOL = 5.0               # |z| of the first and second moments

# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK qk15) for the x-integrator:
# Kronrod abscissae from the outside in with their weights, and the
# Gauss weights, which belong to the odd-indexed abscissae.
_K15 = np.array([0.991455371120812639206854697526329,
                 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926,
                 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013,
                 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245, 0.0])
_K15_W = np.array([0.022935322010529224963732008058970,
                   0.063092092629978553290700663189204,
                   0.104790010322250183839876322541518,
                   0.140653259715525918745189590510238,
                   0.169004726639267902826583426598550,
                   0.190350578064785409913256402421014,
                   0.204432940075298892414161999234649,
                   0.209482141084727828012999174891714])
_G7_W = np.array([0.129484966168869693270611432679082,
                  0.279705391489276667901467771423780,
                  0.381830050505118944950369775488975,
                  0.417959183673469387755102040816327])
_XK = np.concatenate([-_K15[:-1], _K15[::-1]])
_WK = np.concatenate([_K15_W[:-1], _K15_W[::-1]])
_WG = np.concatenate([_G7_W[:-1], _G7_W[::-1]])

CLI_CHECKS = 64           # seeded density and moment rows checked per run
SWEEP_POINTS = 40         # param_sweep points per pass
SWEEP_CHECKS = 4          # of which checked against mpmath


class OracleFailure(Exception):
    """A result fell outside its oracle tolerance."""


def _finite_nonneg(value, err):
    """The generic result gate: finite, and not below -err."""
    if not math.isfinite(value) or value < -err:
        raise OracleFailure(f"value {value!r} with error estimate {err!r}")


def _rel_gap(value, ref, tol, floor=1.0):
    return abs(value - ref) / (tol * max(floor, abs(ref)))


class Workload:
    """Default for workloads whose oracles need no preparation."""

    def prepare(self):
        pass


class CliTables(Workload):
    """Paper-reproduction tables through itsub.cli.main, one invocation
    per operation."""

    why = ("paper tables via the CLI: every point of a table shares "
           "(beta, lam, t), so series and special_fn coefficients dominate")

    def __init__(self, seed, tiny=False):
        rng = random.Random(seed)
        self.check_seed = rng.getrandbits(32)
        x_grid = "0:4:0.5" if tiny else f"0:4:{reference.X_STEP}"
        calls = []
        for beta in reference.BETAS:
            for lam in reference.LAMS:
                calls.append((self._check_density, beta, lam, [
                    "density", "--beta", repr(beta), "--lambda", repr(lam),
                    "--t", "1", "--x", x_grid]))
        t_grid = ["--t", "0.5:2:0.5"] if tiny else []
        for beta in reference.BETAS:
            for q in reference.MOMENT_QS:
                calls.append((self._check_moments, beta, q, [
                    "moments", "--beta", repr(beta),
                    "--lambda", repr(reference.MOMENT_LAM),
                    "--q", repr(q)] + t_grid))
        for m, lam in ((2, 0.0), (2, 1.0), (3, 0.0)):
            calls.append((self._check_pde, m, lam, [
                "pde-check", "--beta", repr(1.0 / m), "--lambda", repr(lam),
                "--m", str(m)]))
        self.calls = calls
        self.order = list(range(len(calls)))
        rng.shuffle(self.order)

    def prepare(self):
        refs = reference.load()
        self.density_refs = refs["density"]
        self.moment_refs = refs["moments"]
        rng = random.Random(self.check_seed)
        self.density_keys = set(rng.sample(sorted(self.density_refs),
                                           CLI_CHECKS))
        self.moment_keys = set(rng.sample(sorted(self.moment_refs),
                                          CLI_CHECKS))

    @staticmethod
    def _invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _op(self, k, call):
        check, a, b, argv = self.calls[k]
        return call(lambda: self._invoke(argv),
                    lambda res: check(a, b, *res))

    def first_op(self, call):
        self._op(0, call)

    def run_pass(self, call):
        for k in self.order:
            self._op(k, call)
        return True, 0.0

    @staticmethod
    def _rows(text):
        lines = text.strip().splitlines()
        return [line.split(",") for line in lines[1:]]

    def _check_density(self, beta, lam, code, text, err_text):
        if code != 0:
            raise OracleFailure(f"density exit code {code}: {err_text.strip()}")
        worst = 0.0
        for x, h, err, method in self._rows(text):
            x, h, err = float(x), float(h), float(err)
            _finite_nonneg(h, err)
            i = round(x / reference.X_STEP)
            key = reference.density_key(beta, lam, 1.0, i)
            if key in self.density_keys and abs(i * reference.X_STEP - x) < 1e-9:
                worst = max(worst, _rel_gap(h, self.density_refs[key],
                                            DENSITY_TOL))
        return worst

    def _check_moments(self, beta, q, code, text, err_text):
        if code != 0:
            raise OracleFailure(f"moments exit code {code}: {err_text.strip()}")
        rows = self._rows(text)
        worst = 0.0
        for i, row in enumerate(rows):
            exact = float(row[1])
            _finite_nonneg(exact, 0.0)
            key = reference.moment_key(beta, reference.MOMENT_LAM, q, i)
            if len(rows) == len(reference.MOMENT_TS) and key in self.moment_keys:
                worst = max(worst, _rel_gap(exact, self.moment_refs[key],
                                            MOMENT_TOL, floor=0.0))
        return worst

    def _check_pde(self, m, lam, code, text, err_text):
        residual = max(float(row[2]) for row in self._rows(text))
        if code != 0 or not math.isfinite(residual):
            raise OracleFailure(
                f"pde-check m={m} lam={lam}: exit {code}, residual {residual}")
        return residual / PDE_GATES[m]


def _density_op(call, x, t, params, ref=None):
    """One eval_density call, gated on finite value >= -err and, given a
    reference, on DENSITY_TOL."""
    def run():
        return its_density.eval(EvalPoint(x, t), params)

    def check(res):
        _finite_nonneg(res.value, res.error_estimate)
        return 0.0 if ref is None else _rel_gap(res.value, ref, DENSITY_TOL)

    res = call(run, check)
    return res.value if res is not None else math.nan


class Normalization(Workload):
    """integral of h(x, t) dx = 1 for the four normalization test cases,
    by adaptive Gauss-Kronrod (7/15) in x; one eval_density call per
    operation."""

    why = ("the quadrature's noise-floor path: a third of the integral "
           "points exhaust 2000 subdivisions and retry")

    # (beta, lam, t, x cutoff beyond which the mass is below 1e-8)
    CASES = [(0.6, 1.0, 1.0, 7.7), (0.8, 1.0, 1.0, 3.1),
             (0.4, 2.0, 0.5, 11.0), (0.5, 1.0, 1.0, 13.0)]

    def __init__(self, seed, tiny=False):
        self.cases = self.CASES[:1] if tiny else list(self.CASES)
        random.Random(seed).shuffle(self.cases)
        self.canonical = self.CASES[0]

    @staticmethod
    def _panel(call, a, b, t, params):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        fy = np.array([_density_op(call, mid + half * z, t, params)
                       for z in _XK])
        vk = half * float(_WK @ fy)
        vg = half * float(_WG @ fy[1::2])
        return [a, b, vk, abs(vk - vg)]

    def _integrate(self, call, beta, lam, t, cutoff):
        params = TemperedStableParams(beta, lam)
        panels = [self._panel(call, 0.0, cutoff, t, params)]
        while (sum(p[3] for p in panels) > NORMALIZATION_X_TOL
               and len(panels) < MAX_X_PANELS):
            worst = max(panels, key=lambda p: p[3])
            panels.remove(worst)
            a, b = worst[0], worst[1]
            m = 0.5 * (a + b)
            panels += [self._panel(call, a, m, t, params),
                       self._panel(call, m, b, t, params)]
        return sum(p[2] for p in panels)

    def first_op(self, call):
        beta, lam, t, cutoff = self.canonical
        _density_op(call, 0.5 * cutoff * (1.0 + _XK[0]), t,
                    TemperedStableParams(beta, lam))

    def run_pass(self, call):
        worst = 0.0
        for case in self.cases:
            gap = abs(self._integrate(call, *case) - 1.0)
            worst = max(worst, gap / NORMALIZATION_TOL
                        if math.isfinite(gap) else math.inf)
        return worst <= 1.0, worst


class Simulate(Workload):
    """first_passage_samples in seeded batches, checked per pass by KS
    against cdf and by z-scores of the first two moments."""

    why = ("montecarlo does almost all of the work here and nothing "
           "anywhere else")

    BETA, LAM, T, DT, HORIZON = 0.5, 1.0, 1.0, 1e-3, 50.0

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.batch = 200 if tiny else 1000
        self.batches = 2 if tiny else 10
        self.params = TemperedStableParams(self.BETA, self.LAM)
        self.passes = 0

    def _batch_seed(self, p, b):
        return int(np.random.SeedSequence([self.seed, p, b]).generate_state(1)[0])

    def _batch(self, call, p, b):
        config = SimConfig(n_paths=self.batch, time_step=self.DT,
                           horizon=self.HORIZON, seed=self._batch_seed(p, b))

        def check(samples):
            if not (np.all(np.isfinite(samples)) and np.all(samples > 0)):
                raise OracleFailure("non-finite or non-positive first-passage sample")
            return 0.0

        return call(lambda: montecarlo.first_passage_samples(
            config, self.params, self.T), check)

    def first_op(self, call):
        self._batch(call, 0, 0)

    def run_pass(self, call):
        p = self.passes
        self.passes += 1
        got = [self._batch(call, p, b) for b in range(self.batches)]
        if any(s is None for s in got):
            return False, math.inf
        samples = np.sort(np.concatenate(got))
        n = samples.size
        xs = np.quantile(samples, np.linspace(0.01, 0.99, 99))
        analytic = np.array([its_density.cdf(x, self.T, self.params)
                             for x in xs])
        empirical = np.searchsorted(samples, xs, side="right") / n
        ks = float(np.max(np.abs(analytic - empirical)))
        ks_tol = math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * n))
        worst = ks / ks_tol
        for q in (1.0, 2.0):
            exact = moments.moment_exact(MomentQuery(q, self.T, self.params))
            powers = samples ** q
            se = float(np.std(powers, ddof=1)) / math.sqrt(n)
            worst = max(worst, abs(float(np.mean(powers)) - exact) / se / Z_TOL)
        return worst <= 1.0, worst


def mean_scale(beta, lam, t):
    """Closed-form estimate of E[E(t)]: the larger of the small-t form
    t**beta / Gamma(1 + beta) and the large-t form lam**(1-beta) t / beta."""
    return max(t ** beta / math.gamma(1.0 + beta),
               lam ** (1.0 - beta) * t / beta)


class ParamSweep(Workload):
    """Seeded single points with no shared (beta, lam, t); one
    eval_density call per operation."""

    why = ("no (beta, lam, t) repeats, so per-parameter caches always "
           "miss, and far-tail points reach the failure paths")

    def __init__(self, seed, tiny=False):
        self.rng = rng = np.random.default_rng(seed)
        n = 4 if tiny else SWEEP_POINTS
        beta = rng.uniform(0.2, 0.8, n)
        lam = 10.0 ** rng.uniform(-1.0, 1.0, n)
        t = 10.0 ** rng.uniform(-1.0, 1.0, n)
        u = rng.uniform(0.0, 4.0, n)
        self.points = [
            (float(b), float(l), float(tt),
             float(uu * mean_scale(b, l, tt)))
            for b, l, tt, uu in zip(beta, lam, t, u)]
        self.refs = {}

    def prepare(self):
        n = len(self.points)
        for i in self.rng.choice(n, size=min(SWEEP_CHECKS, n), replace=False):
            beta, lam, t, x = self.points[i]
            self.refs[int(i)] = reference.density(x, t, beta, lam)

    def _op(self, call, i):
        beta, lam, t, x = self.points[i]
        _density_op(call, x, t, TemperedStableParams(beta, lam),
                    self.refs.get(i))

    def first_op(self, call):
        self._op(call, 0)

    def run_pass(self, call):
        for i in range(len(self.points)):
            self._op(call, i)
        return True, 0.0


WORKLOADS = {
    "cli_tables": CliTables,
    "normalization": Normalization,
    "simulate": Simulate,
    "param_sweep": ParamSweep,
}
