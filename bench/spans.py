"""Span tracing of the itsub layers, done from outside the library.

Several modules import functions by name (``from .quadrature import
integrate_semi_infinite``), so a wrapper has to replace the name where
the caller looks it up; replacing only the defining module's attribute
would see nothing. ``SITES`` lists every lookup site the benchmark
wraps. Each wrapped call records one span: name, parent span, operation
id, start, end, a work count and a flag. Spans live in flat arrays and
are written out once, when the run ends.
"""

import array
import time

import numpy as np

from itsub import cli, its_density, moments, montecarlo, pde_check, stable_family

RAISED = 1
NOT_CONVERGED = 2


def _one(args, kwargs, res):
    return 1.0, 0


def _quad(args, kwargs, res):
    return float(res.subdivisions_used), 0 if res.converged else NOT_CONVERGED


def _terms(args, kwargs, res):
    return float(res.terms_or_panels), 0


def _series_eval(args, kwargs, res):
    return float(res.terms), 0 if res.converged else NOT_CONVERGED


def _nodes(args, kwargs, res):
    n = args[2] if len(args) > 2 else kwargs.get("n_nodes", 32)
    return float(n), 0


def _size(args, kwargs, res):
    return float(np.size(res)), 0


# (module, attribute looked up there, span name, work/flag of a result).
# The span name is the layer that owns the function, so one function
# reached through several lookup sites records under one name.
SITES = [
    (cli, "main", "cli.main", _one),
    (cli, "inverse_stable_density", "stable_family.inverse_stable_density", _one),
    (cli, "first_passage_samples", "montecarlo.first_passage_samples", _size),
    (its_density, "eval", "its_density.eval", _one),
    (its_density, "eval_series", "its_density.eval_series", _terms),
    (its_density, "eval_integral", "its_density.eval_integral", _terms),
    (its_density, "boundary_value", "its_density.boundary_value", _one),
    (its_density, "derivative_at_zero", "its_density.derivative_at_zero", _one),
    (its_density, "cdf", "its_density.cdf", _one),
    (its_density, "upper_incomplete_gamma_scaled",
     "special_fn.upper_incomplete_gamma_scaled", _one),
    (its_density, "integrate_semi_infinite",
     "quadrature.integrate_semi_infinite", _quad),
    (stable_family, "integrate_semi_infinite",
     "quadrature.integrate_semi_infinite", _quad),
    (stable_family, "inverse_stable_density_series",
     "stable_family.inverse_stable_density_series", _series_eval),
    (stable_family, "stable_density", "stable_family.stable_density", _one),
    # its_density.cdf imports tempered_density inside the function, so
    # the module attribute is its lookup site.
    (stable_family, "tempered_density", "stable_family.tempered_density", _one),
    (pde_check, "pde_residual", "pde_check.pde_residual", _one),
    (pde_check, "eval_density", "its_density.eval", _one),
    (pde_check, "inverse_stable_density",
     "stable_family.inverse_stable_density", _one),
    (pde_check, "integrate_semi_infinite",
     "quadrature.integrate_semi_infinite", _quad),
    (moments, "moment_exact", "moments.moment_exact", _one),
    (moments, "moment_asymptotic", "moments.moment_asymptotic", _one),
    (moments, "talbot_inversion", "moments.talbot_inversion", _nodes),
    (montecarlo, "first_passage_samples",
     "montecarlo.first_passage_samples", _size),
    (montecarlo, "sample_stable_increment",
     "montecarlo.sample_stable_increment", _size),
    (montecarlo, "sample_tempered_increment",
     "montecarlo.sample_tempered_increment", _size),
]


class Tracer:
    """In-memory span recorder; install() wraps every site, remove()
    restores the originals."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.work = array.array("d")
        self.flag = array.array("i")
        self.op_id = -1
        self._stack = [-1]
        self._originals = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.work.append(0.0)
        self.flag.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i, work=1.0, flag=0):
        self.end[i] = time.perf_counter()
        self.work[i] = work
        self.flag[i] = flag
        self._stack.pop()

    def _wrap(self, fn, nid, measure):
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                self.close(i, 0.0, RAISED)
                raise
            self.close(i, *measure(args, kwargs, res))
            return res

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self):
        for module, attr, span, measure in SITES:
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, self.name_id(span), measure))

    def remove(self):
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def arrays(self):
        """Spans as numpy arrays plus the name table."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "work": np.frombuffer(self.work, dtype=np.float64),
            "flag": np.frombuffer(self.flag, dtype=np.int32),
            "names": np.array(self.names),
        }

    def save(self, path):
        np.savez_compressed(path, **self.arrays())


# Per-layer metric names and units, in report order. Counts and times
# are per traced pass; us_* are means per call.
LAYER_METRICS = [
    ("cli.self_ms", "ms"),
    ("special_fn.gamma_calls", "count"),
    ("special_fn.us_per_call", "us"),
    ("special_fn.self_ms", "ms"),
    ("special_fn.coeff_use_ratio", "ratio"),
    ("quadrature.calls", "count"),
    ("quadrature.subdivisions", "count"),
    ("quadrature.nonconverged", "count"),
    ("quadrature.retries", "count"),
    ("quadrature.converged_ratio", "ratio"),
    ("quadrature.us_per_call", "us"),
    ("quadrature.self_ms", "ms"),
    ("stable_family.calls", "count"),
    ("stable_family.series_fallbacks", "count"),
    ("stable_family.self_ms", "ms"),
    ("its_density.series_calls", "count"),
    ("its_density.integral_calls", "count"),
    ("its_density.series_terms", "count"),
    ("its_density.series_rejected", "count"),
    ("its_density.fallbacks", "count"),
    ("its_density.cdf_calls", "count"),
    ("its_density.us_per_series_point", "us"),
    ("its_density.us_per_integral_point", "us"),
    ("its_density.self_ms", "ms"),
    ("moments.talbot_calls", "count"),
    ("moments.talbot_nodes", "count"),
    ("moments.inversion_errors", "count"),
    ("moments.us_per_moment", "us"),
    ("moments.self_ms", "ms"),
    ("montecarlo.kanter_draws", "count"),
    ("montecarlo.accept_ratio", "ratio"),
    ("montecarlo.step_calls", "count"),
    ("montecarlo.draws_per_s", "1/s"),
    ("montecarlo.self_ms", "ms"),
    ("pde_check.density_evals", "count"),
    ("pde_check.self_ms", "ms"),
    ("trace.overhead_frac", "frac"),
]


def _ratio(num, den):
    # Undefined ratios (a layer the workload never reaches) read 0.
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans, passes):
    """Per-layer metrics from recorded spans over `passes` traced passes
    (trace.overhead_frac is filled in by the caller)."""
    names = list(spans["names"])
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    work, flag = spans["work"], spans["flag"]
    n = len(name)

    def nid(s):
        return names.index(s) if s in names else -2

    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    layer_of = np.array([s.split(".", 1)[0] for s in names] + [""])
    layer = layer_of[name]

    def is_(s):
        return name == nid(s)

    def parent_is(mask_parent):
        idx = np.flatnonzero(mask_parent)
        out = np.zeros(n, dtype=bool)
        out[has_parent] = np.isin(parent[has_parent], idx)
        return out

    def self_ms(lay):
        return float(self_t[layer == lay].sum()) * 1e3 / passes

    def mean_us(mask):
        return _ratio(dur[mask].sum() * 1e6, mask.sum())

    def flagged(mask, bit):
        return (mask & ((flag & bit) > 0)).sum()

    gamma = is_("special_fn.upper_incomplete_gamma_scaled")
    quad = is_("quadrature.integrate_semi_infinite")
    series = is_("its_density.eval_series")
    integral = is_("its_density.eval_integral")
    dispatch = is_("its_density.eval")
    gamma_in_series = gamma & parent_is(series)

    # A retry is a second half-line integral inside one density, cdf or
    # derivative call.
    quad_owner = (integral | is_("its_density.cdf")
                  | is_("its_density.derivative_at_zero"))
    owners = parent[quad & parent_is(quad_owner)]
    _, per_owner = np.unique(owners, return_counts=True)
    retries = int(np.sum(per_owner - 1))

    # Dispatcher outcomes from the order of its children.
    rejected = fallbacks = 0
    kids = {}
    for i in np.flatnonzero((series | integral) & parent_is(dispatch)):
        kids.setdefault(int(parent[i]), []).append(i)
    for seq in kids.values():
        for a, b in zip(seq, seq[1:]):
            if series[a] and integral[b]:
                rejected += 1
            if integral[a] and (flag[a] & RAISED) and series[b]:
                fallbacks += 1

    sf = layer == "stable_family"
    sf_entry = sf & ~parent_is(sf)
    isd_series = is_("stable_family.inverse_stable_density_series")

    talbot = is_("moments.talbot_inversion")
    moment = is_("moments.moment_exact")

    stable = is_("montecarlo.sample_stable_increment")
    tempered = is_("montecarlo.sample_tempered_increment")
    fps = is_("montecarlo.first_passage_samples")
    draws = float(work[stable].sum())

    pde = is_("pde_check.pde_residual")
    pde_evals = ((dispatch | is_("stable_family.inverse_stable_density"))
                 & parent_is(pde))

    m = {
        "cli.self_ms": self_ms("cli"),
        "special_fn.gamma_calls": _ratio(gamma_in_series.sum(), series.sum()),
        "special_fn.us_per_call": mean_us(gamma),
        "special_fn.self_ms": self_ms("special_fn"),
        "special_fn.coeff_use_ratio": _ratio(work[series].sum(),
                                             gamma_in_series.sum()),
        "quadrature.calls": quad.sum() / passes,
        "quadrature.subdivisions": work[quad].sum() / passes,
        "quadrature.nonconverged": flagged(quad, NOT_CONVERGED) / passes,
        "quadrature.retries": retries / passes,
        "quadrature.converged_ratio": _ratio(
            (quad & (flag == 0)).sum(), quad.sum()),
        "quadrature.us_per_call": mean_us(quad),
        "quadrature.self_ms": self_ms("quadrature"),
        "stable_family.calls": sf_entry.sum() / passes,
        "stable_family.series_fallbacks": flagged(isd_series,
                                                  NOT_CONVERGED) / passes,
        "stable_family.self_ms": self_ms("stable_family"),
        "its_density.series_calls": series.sum() / passes,
        "its_density.integral_calls": integral.sum() / passes,
        "its_density.series_terms": work[series].sum() / passes,
        "its_density.series_rejected": rejected / passes,
        "its_density.fallbacks": fallbacks / passes,
        "its_density.cdf_calls": is_("its_density.cdf").sum() / passes,
        "its_density.us_per_series_point": mean_us(series),
        "its_density.us_per_integral_point": mean_us(integral),
        "its_density.self_ms": self_ms("its_density"),
        "moments.talbot_calls": talbot.sum() / passes,
        "moments.talbot_nodes": work[talbot].sum() / passes,
        "moments.inversion_errors": flagged(moment, RAISED) / passes,
        "moments.us_per_moment": mean_us(moment),
        "moments.self_ms": self_ms("moments"),
        "montecarlo.kanter_draws": draws / passes,
        "montecarlo.accept_ratio": _ratio(
            work[tempered].sum(), work[stable & parent_is(tempered)].sum()),
        "montecarlo.step_calls": tempered.sum() / passes,
        "montecarlo.draws_per_s": _ratio(draws, dur[fps].sum()),
        "montecarlo.self_ms": self_ms("montecarlo"),
        "pde_check.density_evals": pde_evals.sum() / passes,
        "pde_check.self_ms": self_ms("pde_check"),
    }
    return {k: float(v) for k, v in m.items()}
