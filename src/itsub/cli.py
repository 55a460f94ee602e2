"""Command-line front end: density grids, moment tables, simulation
runs, PDE residuals, and self-checks, emitted as CSV (or JSON).

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import its_density, moments, pde_check
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
    inverse_stable_density,
)

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


def _fmt(v):
    """Locale-independent float with 17 significant digits."""
    return format(float(v), ".17g")


def parse_grid(text, name="grid"):
    """Parse 'start:stop:step' (inclusive endpoints) or a single float.

    start == stop yields an empty grid.
    """
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise _UsageError(f"{name}: expected start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise _UsageError(f"{name}: step must be positive")
    if start > stop:
        raise _UsageError(f"{name}: start must be <= stop")
    if start == stop:
        return []
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if count > 1e7:
        raise _UsageError(f"{name}: more than 1e7 points")
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


def _params(args):
    try:
        return TemperedStableParams(args.beta, args.lam)
    except ParameterError as e:
        raise _UsageError(str(e))


def cmd_density(args, out):
    params = _params(args)
    xs = parse_grid(args.x, "--x")
    ts = parse_grid(args.t, "--t")
    if len(ts) != 1:
        raise _UsageError("density needs a single --t value")
    t = ts[0]
    if t <= 0:
        raise _UsageError("--t must be positive")
    writer = _Writer(["x", "h", "err", "method"], args.format, out)
    failed = 0
    for x in xs:
        try:
            if params.lam == 0.0:
                val = inverse_stable_density(x, t, params.beta)
                err, method = 1e-9, "series"
            else:
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
    params = _params(args)
    if args.q is None or args.q <= 0:
        raise _UsageError("--q must be a positive number")
    if args.t is None:
        ts = list(np.logspace(-3, 3, 61))
    else:
        ts = parse_grid(args.t, "--t")
    writer = _Writer(
        ["t", "exact", "small_t_asym", "large_t_asym",
         "ratio_small", "ratio_large"], args.format, out)
    status = _EXIT_OK
    for t in ts:
        query = moments.MomentQuery(args.q, t, params)
        try:
            exact = moments.moment_exact(query)
        except moments.InversionError:
            writer.row([t] + [math.nan] * 5)
            status = _EXIT_NUMERIC
            continue
        small = moments.moment_asymptotic(query, "small_t")
        if params.lam > 0:
            large = moments.moment_asymptotic(query, "large_t")
            ratio_large = exact / large
        else:
            large = math.inf
            ratio_large = 0.0
        writer.row([t, exact, small, large, exact / small, ratio_large])
    writer.close()
    return status


def cmd_simulate(args, out):
    params = _params(args)
    ts = parse_grid(args.t, "--t")
    if len(ts) != 1:
        raise _UsageError("simulate needs a single --t value")
    t = ts[0]
    try:
        config = SimConfig(n_paths=args.paths, time_step=args.step,
                           horizon=args.horizon, seed=args.seed)
        samples = first_passage_samples(config, params, t)
    except ParameterError as e:
        raise _UsageError(str(e))
    except HorizonError as e:
        print(f"simulation failed: {e}", file=sys.stderr)
        return _EXIT_NUMERIC
    writer = _Writer(["path_id", "t", "E_lambda"], args.format, out)
    for i, v in enumerate(samples):
        writer.row([i, t, v])
    writer.close()
    mean, se = empirical_moment(samples, 1.0)
    var = float(np.var(samples, ddof=1))
    xs = np.quantile(samples, np.linspace(0.01, 0.99, 99))
    if params.lam > 0:
        analytic = np.array([its_density.cdf(x, t, params) for x in xs])
        emp = np.searchsorted(np.sort(samples), xs, side="right") / len(samples)
        ks = float(np.max(np.abs(analytic - emp)))
    else:
        ks = math.nan
    print(f"# n={len(samples)} mean={_fmt(mean)} se={_fmt(se)} "
          f"var={_fmt(var)} ks={_fmt(ks)}", file=sys.stderr)
    return _EXIT_OK


def cmd_pde_check(args, out):
    if args.m not in (2, 3):
        raise _UsageError("--m must be 2 or 3")
    xs = (0.6, 1.0, 1.5, 1.9)
    ts_pts = (0.6, 1.0, 1.5, 1.9)
    hx = 1e-3 if args.m == 2 else 1e-2
    case = pde_check.PdeCase(args.m, args.lam, xs, ts_pts, hx=hx, ht=hx)
    res = pde_check.pde_residual(case, beta=args.beta)
    writer = _Writer(["x", "t", "rel_residual"], args.format, out)
    for i, x in enumerate(xs):
        for k, t in enumerate(ts_pts):
            writer.row([x, t, res[i, k]])
    writer.close()
    tol = args.tol if args.tol else (1e-3 if args.m == 2 else 5e-3)
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
    only = args.only or args.check
    if args.beta is not None and (only is None or "pde" in only):
        # Non-reciprocal beta: the m=2 PDE must NOT hold; report the
        # negative control as passing when the residual stays large.
        case = pde_check.PdeCase(2, args.lam, (1.0, 1.5), (1.0, 1.5))
        bad = float(np.max(pde_check.pde_residual(case, beta=args.beta)))
        ref = float(np.max(pde_check.pde_residual(case)))
        ok = bad > 10.0 * ref
        out.write(f"pde.negative_control,{'PASS' if ok else 'FAIL'}\n")
        return _EXIT_OK if ok else 1
    all_ok = True
    for name, fn in _selfchecks():
        if only and only not in name:
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
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=0.0)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="stdout")

    p = sub.add_parser("density", help="density values on an x grid")
    common(p)
    p.add_argument("--t", required=True)
    p.add_argument("--x", required=True)

    p = sub.add_parser("moments", help="moment table over a t grid")
    common(p)
    p.add_argument("--t", default=None)
    p.add_argument("--q", type=float, required=True)

    p = sub.add_parser("simulate", help="first-passage sampling")
    common(p)
    p.add_argument("--t", required=True)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=50.0)

    p = sub.add_parser("pde-check", help="PDE residual report")
    common(p)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("selfcheck", help="run library invariant checks")
    common(p)
    p.add_argument("--only", default=None)
    p.add_argument("--check", default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "selfcheck" and (args.beta is None
                                        or not 0.0 < args.beta < 1.0):
        print("error: --beta must be in (0, 1)", file=sys.stderr)
        return _EXIT_USAGE
    if args.lam < 0:
        print("error: --lambda must be >= 0", file=sys.stderr)
        return _EXIT_USAGE
    handler = {
        "density": cmd_density,
        "moments": cmd_moments,
        "simulate": cmd_simulate,
        "pde-check": cmd_pde_check,
        "selfcheck": cmd_selfcheck,
    }[args.command]
    out = sys.stdout if args.out == "stdout" else open(args.out, "w")
    try:
        return handler(args, out)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_USAGE
    except (NonConvergenceError, moments.InversionError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return _EXIT_NUMERIC
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
