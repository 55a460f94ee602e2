"""Command-line front end: density grids, moment tables, simulation
runs, PDE residuals, and self-checks, emitted as CSV (or JSON).

Exit codes, set in main alone: 0 success; 2 a usage error or a
ParameterError; 3 a NonConvergenceError, InversionError or HorizonError.
A density or moment table writes a failed point as a nan row and exits 3.
"""

import argparse
import io
import json
import math
import sys

import numpy as np

from . import its_density, moments, pde_check
from .moments import InversionError
from .montecarlo import (
    HorizonError,
    SimConfig,
    empirical_moment,
    first_passage_samples,
)
from .stable_family import (
    NonConvergenceError,
    ParameterError,
    TemperedStableParams,
    inverse_stable_density,  # not called; bench/spans.py wraps this name
)

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3


def _fmt(v):
    """Locale-independent float with 17 significant digits."""
    return format(float(v), ".17g")


def parse_grid(text, name="grid"):
    """Parse 'start:stop:step' (inclusive endpoints) or a single float.

    start == stop yields an empty grid.
    """
    try:
        parts = [float(p) for p in text.split(":")]
    except ValueError:
        parts = []
    if len(parts) == 1:
        return parts
    if len(parts) != 3:
        raise ParameterError(f"{name}: expected start:stop:step, got {text!r}")
    start, stop, step = parts
    if step <= 0:
        raise ParameterError(f"{name}: step must be positive")
    if start > stop:
        raise ParameterError(f"{name}: start must be <= stop")
    if start == stop:
        return []
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if count > 1e7:
        raise ParameterError(f"{name}: more than 1e7 points")
    return [start + i * step for i in range(count)]


class _Writer:
    """Ordered CSV/JSON row writer with a mandatory header."""

    def __init__(self, fields, fmt, out):
        self.fields = fields
        self.fmt = fmt
        self.out = out
        self.rows = []
        if fmt == "csv":
            out.write(",".join(fields) + "\n")

    def row(self, values):
        if self.fmt == "csv":
            cells = [v if isinstance(v, str) else _fmt(v) for v in values]
            self.out.write(",".join(cells) + "\n")
        else:
            self.rows.append(dict(zip(self.fields, values)))

    def close(self):
        if self.fmt == "json":
            json.dump(self.rows, self.out, indent=1)
            self.out.write("\n")


def cmd_density(args, out):
    params = TemperedStableParams(args.beta, args.lam)
    xs = parse_grid(args.x, "--x")
    t = args.t
    if t <= 0:
        raise ParameterError(f"--t must be positive, got {t}")
    writer = _Writer(["x", "h", "err", "method"], args.format, out)
    failed = 0
    for x in xs:
        try:
            res = its_density.eval(its_density.EvalPoint(x, t), params)
            val, err, method = res.value, res.error_estimate, res.method
            if val < 0 and abs(val) <= err:
                val = 0.0
            writer.row([x, val, err, method])
        except (NonConvergenceError, ParameterError):
            failed += 1
            writer.row([x, math.nan, math.inf, "failed"])
    writer.close()
    return _EXIT_NUMERIC if failed else _EXIT_OK


def cmd_moments(args, out):
    params = TemperedStableParams(args.beta, args.lam)
    ts = np.logspace(-3, 3, 61) if args.t is None else parse_grid(args.t, "--t")
    queries = [moments.MomentQuery(args.q, t, params) for t in ts]
    writer = _Writer(
        ["t", "exact", "small_t_asym", "large_t_asym",
         "ratio_small", "ratio_large"], args.format, out)
    status = _EXIT_OK
    for query in queries:
        try:
            exact = moments.moment_exact(query)
        except InversionError:
            writer.row([query.t] + [math.nan] * 5)
            status = _EXIT_NUMERIC
            continue
        small = moments.moment_asymptotic(query, "small_t")
        # At lam = 0 the large-t form does not exist.
        large = (moments.moment_asymptotic(query, "large_t")
                 if params.lam > 0 else math.nan)
        writer.row([query.t, exact, small, large, exact / small, exact / large])
    writer.close()
    return status


def cmd_simulate(args, out):
    params = TemperedStableParams(args.beta, args.lam)
    t = args.t
    config = SimConfig(n_paths=args.paths, time_step=args.step,
                       horizon=args.horizon, seed=args.seed)
    samples = first_passage_samples(config, params, t)
    writer = _Writer(["path_id", "t", "E_lambda"], args.format, out)
    for i, v in enumerate(samples):
        writer.row([i, t, v])
    writer.close()
    mean, se = empirical_moment(samples, 1.0)
    var = float(np.var(samples, ddof=1))
    xs = np.quantile(samples, np.linspace(0.01, 0.99, 99))
    analytic = np.array([its_density.cdf(x, t, params) for x in xs])
    emp = np.searchsorted(np.sort(samples), xs, side="right") / len(samples)
    ks = float(np.max(np.abs(analytic - emp)))
    print(f"# n={len(samples)} mean={_fmt(mean)} se={_fmt(se)} "
          f"var={_fmt(var)} ks={_fmt(ks)}", file=sys.stderr)
    return _EXIT_OK


def cmd_pde_check(args, out):
    params = TemperedStableParams(args.beta, args.lam)
    xs = (0.6, 1.0, 1.5, 1.9)
    ts_pts = (0.6, 1.0, 1.5, 1.9)
    hx = 1e-3 if args.m == 2 else 1e-2
    case = pde_check.PdeCase(args.m, params.lam, xs, ts_pts, hx=hx, ht=hx)
    res = pde_check.pde_residual(case, beta=params.beta)
    writer = _Writer(["x", "t", "rel_residual"], args.format, out)
    for i, x in enumerate(xs):
        for k, t in enumerate(ts_pts):
            writer.row([x, t, res[i, k]])
    writer.close()
    tol = args.tol if args.tol is not None else (1e-3 if args.m == 2 else 5e-3)
    return _EXIT_OK if float(np.max(res)) < tol else _EXIT_NUMERIC


def _selfchecks():
    """(name, callable) pairs; each callable returns True on pass."""
    from .special_fn import upper_incomplete_gamma_scaled as g

    def gamma_recurrence():
        # u * g(a+1, u) = a * g(a, u) + exp(-u) for g = Gamma(a, u) * u**(-a)
        ok = True
        for a in (-2.3, -0.7, 0.4, 3.1):
            for u in (0.3, 1.0, 7.0):
                lhs = u * g(a + 1.0, u)
                rhs = a * g(a, u) + math.exp(-u)
                ok &= abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
        return ok

    def quadrature_exponential():
        from .quadrature import integrate_semi_infinite

        r = integrate_semi_infinite(lambda y: np.exp(-y))
        return r.converged and abs(r.value - 1.0) < 1e-10

    def stable_half_closed_form():
        from .stable_family import stable_density

        ok = True
        for x in (0.5, 1.0, 3.0):
            ref = 1.0 / (2 * math.sqrt(math.pi)) * x ** -1.5 * math.exp(-0.25 / x)
            ok &= abs(stable_density(x, 1.0, 0.5) - ref) < 1e-8
        return ok

    def its_density_representations():
        params = TemperedStableParams(0.4, 1.0)
        ok = True
        for x in (0.1, 0.5, 1.5):
            p = its_density.EvalPoint(x, 1.0)
            a = its_density.eval_series(p, params).value
            b = its_density.eval_integral(p, params).value
            ok &= abs(a - b) < 1e-8
        return ok

    def its_density_normalization():
        from scipy.integrate import quad

        params = TemperedStableParams(0.6, 1.0)
        total, _ = quad(
            lambda x: its_density.eval(its_density.EvalPoint(x, 1.0),
                                       params).value, 0, 8, limit=200)
        return abs(total - 1.0) < 1e-5

    def boundary_continuity():
        params = TemperedStableParams(0.5, 1.0)
        bv = its_density.boundary_value(1.0, params)
        iv = its_density.eval_integral(
            its_density.EvalPoint(1e-7, 1.0), params).value
        return abs(bv - iv) < 1e-5

    def moments_cross_check():
        params = TemperedStableParams(0.5, 1.0)
        q = moments.MomentQuery(1.0, 1.0, params)
        talbot = moments.moment_exact(q)
        gs = moments.gaver_stehfest_inversion(
            lambda s: moments.moment_lt(1.0, s, params), 1.0)
        return abs(talbot - gs) < 1e-5 * abs(talbot)

    def pde_m2():
        case = pde_check.PdeCase(2, 1.0, (1.0, 1.5), (1.0, 1.5))
        return float(np.max(pde_check.pde_residual(case))) < 1e-3

    def mc_determinism():
        params = TemperedStableParams(0.5, 1.0)
        cfg = SimConfig(n_paths=50, horizon=40.0, seed=11)
        a = first_passage_samples(cfg, params, 1.0)
        b = first_passage_samples(cfg, params, 1.0)
        return bool(np.array_equal(a, b))

    return [
        ("special_fn.recurrence", gamma_recurrence),
        ("quadrature.exponential", quadrature_exponential),
        ("stable_family.half_closed_form", stable_half_closed_form),
        ("its_density.representations", its_density_representations),
        ("its_density.normalization", its_density_normalization),
        ("its_density.boundary_continuity", boundary_continuity),
        ("moments.cross_check", moments_cross_check),
        ("pde.m2_residual", pde_m2),
        ("montecarlo.determinism", mc_determinism),
    ]


def cmd_selfcheck(args, out):
    if args.beta is not None and (args.only is None or "pde" in args.only):
        # Non-reciprocal beta: the m=2 PDE must NOT hold; report the
        # negative control as passing when the residual stays large.
        params = TemperedStableParams(args.beta, args.lam)
        case = pde_check.PdeCase(2, params.lam, (1.0, 1.5), (1.0, 1.5))
        bad = float(np.max(pde_check.pde_residual(case, beta=params.beta)))
        ref = float(np.max(pde_check.pde_residual(case)))
        ok = bad > 10.0 * ref
        out.write(f"pde.negative_control,{'PASS' if ok else 'FAIL'}\n")
        return _EXIT_OK if ok else 1
    all_ok = True
    for name, fn in _selfchecks():
        if args.only and args.only not in name:
            continue
        try:
            ok = fn()
        except Exception:
            ok = False
        all_ok &= ok
        out.write(f"{name},{'PASS' if ok else 'FAIL'}\n")
    return _EXIT_OK if all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="itsub",
        description="Inverse tempered stable subordinator toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--lambda", dest="lam", type=float, default=0.0)
        p.add_argument("--out", default="stdout")

    def table(name, what):
        p = sub.add_parser(name, help=what)
        p.add_argument("--beta", type=float, required=True)
        common(p)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    p = table("density", "density values on an x grid")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", required=True)

    p = table("moments", "moment table over a t grid")
    p.add_argument("--t", default=None)
    p.add_argument("--q", type=float, required=True)

    p = table("simulate", "first-passage sampling")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=50.0)

    p = table("pde-check", "PDE residual report")
    p.add_argument("--m", type=int, choices=(2, 3), default=2)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("selfcheck", help="run library invariant checks")
    p.add_argument("--beta", type=float, default=None)
    common(p)
    p.add_argument("--only", default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "density": cmd_density,
        "moments": cmd_moments,
        "simulate": cmd_simulate,
        "pde-check": cmd_pde_check,
        "selfcheck": cmd_selfcheck,
    }[args.command]
    # The table is buffered so that a usage error leaves --out untouched.
    out = io.StringIO()
    try:
        code = handler(args, out)
    except ParameterError as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_USAGE
    except HorizonError as e:
        print(f"simulation failed: {e}", file=sys.stderr)
        code = _EXIT_NUMERIC
    except (NonConvergenceError, InversionError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        code = _EXIT_NUMERIC
    if args.out == "stdout":
        sys.stdout.write(out.getvalue())
    else:
        with open(args.out, "w") as f:
            f.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
