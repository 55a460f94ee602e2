"""Finite-difference verification of the governing PDE of the inverse
tempered stable density at reciprocal-integer stability beta = 1/m:

    sum_{j=1}^{m} (-1)**j C(m,j) lam**(1-j/m) d^j/dx^j h = dh/dt

(for lam = 0 only the j = m term survives: (-1)**m d^m/dx^m h = dh/dt).
Also checked: the vanishing t -> 0 limit of the lam = 0 density at fixed
x > 0. The boundary condition, a vanishing (m-1)-th x-derivative at
x = 0, is its_density.derivative_at_zero(m - 1, t, params) at lam = 0.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .its_density import _cut_integrand, eval_density_grid
from .its_density import eval as eval_density  # not called; bench/spans.py wraps this name
from .quadrature import integrate_semi_infinite
from .stable_family import (
    NonConvergenceError,
    ParameterError,
    TemperedStableParams,
    inverse_stable_density,  # not called; bench/spans.py wraps this name
    require_positive,
)

# Central stencils for the j-th derivative, order 2: offsets and weights
# (to be divided by h**j).
_STENCILS = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


@dataclass(frozen=True)
class PdeCase:
    """One PDE verification setup: beta = 1/m, m = 2, 3 or 4 (the orders
    the stencils cover), tempering lam, and the interior lattice of
    stencil centers with spacings (hx, ht)."""

    m: int
    lam: float
    x_points: tuple
    t_points: tuple
    hx: float = 1e-3
    ht: float = 1e-3

    def __post_init__(self):
        m = self.m
        if (not isinstance(m, numbers.Integral) or isinstance(m, bool)
                or not 2 <= m <= 4):
            raise ParameterError(f"require integer 2 <= m <= 4, got {m!r}")
        if not (len(self.x_points) and len(self.t_points)):
            raise ParameterError("x_points and t_points must be non-empty")
        TemperedStableParams(self.beta, self.lam)  # checks 0 <= lam < inf
        require_positive("hx", self.hx)
        require_positive("ht", self.ht)
        widest = max(abs(o) for o in _STENCILS[m][0])
        if min(self.x_points) - widest * self.hx <= 0:
            raise ParameterError("x stencils must stay inside x > 0")
        if min(self.t_points) - self.ht <= 0:
            raise ParameterError("t stencils must stay inside t > 0")

    @property
    def beta(self):
        return 1.0 / self.m


def pde_residual(case, beta=None):
    """Relative PDE residuals on the case lattice.

    Returns |spatial operator - dh/dt| / max|dh/dt| per lattice point.
    Passing beta overrides the reciprocal-integer default 1/m (used for
    the negative control at non-reciprocal beta, where the residual must
    NOT vanish). The operator's nonzero terms name the stencil points;
    their densities come from one eval_density_grid call per distinct t,
    and the lattice is then walked once.
    """
    params = TemperedStableParams(case.beta if beta is None else beta, case.lam)
    m, hx, ht = case.m, case.hx, case.ht
    # (j, (-1)**j C(m,j) lam**(1-j/m)), the operator's nonzero terms
    terms = []
    for j in range(1, m + 1):
        coef = (-1.0) ** j * math.comb(m, j) * (
            1.0 if j == m else case.lam ** (1.0 - j / m))
        if coef != 0.0:
            terms.append((j, coef))
    offsets = {o for j, _ in terms for o in _STENCILS[j][0]}
    wanted = {}  # t -> the x at which h is needed there
    for t in case.t_points:
        for s in (t + ht, t - ht):
            wanted.setdefault(s, set()).update(case.x_points)
        wanted.setdefault(t, set()).update(
            x + o * hx for x in case.x_points for o in offsets)
    h = {}
    for t, xs in wanted.items():
        xs = sorted(xs)
        for x, res in zip(xs, eval_density_grid(xs, t, params)):
            if isinstance(res, Exception):
                raise res
            h[x, t] = res.value
    shape = (len(case.x_points), len(case.t_points))
    residuals, dhdts = np.empty(shape), np.empty(shape)
    for i, x in enumerate(case.x_points):
        for k, t in enumerate(case.t_points):
            dhdt = (h[x, t + ht] - h[x, t - ht]) / (2 * ht)
            lhs = 0.0
            for j, coef in terms:
                offs, wts = _STENCILS[j]
                deriv = sum(w * h[x + o * hx, t] for o, w in zip(offs, wts))
                lhs += coef * deriv / hx ** j
            residuals[i, k] = abs(lhs - dhdt)
            dhdts[i, k] = abs(dhdt)
    dt_scale = float(np.max(dhdts))
    if dt_scale == 0.0:
        raise NonConvergenceError("dh/dt vanished on the whole lattice")
    return residuals / dt_scale


def initial_condition_check(beta, x):
    """|h_0(x, 0)| at fixed x > 0 via the t = 0 limit of the integral
    representation, its_density's branch-cut integrand at m = 1, lam = 0
    and t = t_reg; equals 0 analytically for 0 < beta <= 1/2.

    At beta = 1/2 the undamped integrand is only conditionally
    convergent, so a vanishing regulator exp(-t_reg * y) with
    t_reg = x**2 / 120 is kept (its own contribution is below 1e-12);
    for beta < 1/2 the cos(beta*pi) damping suffices and t_reg = 0.
    NonConvergenceError where the integral's scale
    (1 / (x cos(beta*pi)))**(1/beta), or the end of its mass, overflows a
    double.
    """
    if not 0.0 < beta <= 0.5:
        raise ParameterError(f"require 0 < beta <= 1/2, got {beta}")
    require_positive("x", x)
    c = math.cos(beta * math.pi)
    t_reg = 0.0 if beta < 0.5 else x * x / 120.0
    f = _cut_integrand(1, t_reg, TemperedStableParams(beta))
    try:
        scale = (1.0 / (x * max(c, 1e-2))) ** (1.0 / beta)
        # the damping e**(-x c y**beta) is below the least double past
        # scale * 745**(1/beta); the quadrature needs the mass within range
        if scale * 745.0 ** (1.0 / beta) == math.inf:
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise NonConvergenceError(
            f"initial-condition integral at beta={beta}, x={x}: its scale "
            "or the end of its mass overflows a double") from None
    res = integrate_semi_infinite(lambda y: f(x, y), scale=scale,
                                  power_singularity=beta)
    if not res.converged:
        raise NonConvergenceError(
            f"initial-condition integral at beta={beta}, x={x} did not "
            "converge")
    return abs(res.value / math.pi)
