"""Finite-difference verification of the governing PDE of the inverse
tempered stable density at reciprocal-integer stability beta = 1/m:

    sum_{j=1}^{m} (-1)**j C(m,j) lam**(1-j/m) d^j/dx^j h = dh/dt

(for lam = 0 only the j = m term survives: (-1)**m d^m/dx^m h = dh/dt).
Also checked: the vanishing (m-1)-th x-derivative at x = 0 and the
vanishing t -> 0 limit of the lam = 0 density at fixed x > 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .its_density import EvalPoint, derivative_at_zero, eval as eval_density
from .quadrature import integrate_semi_infinite
from .stable_family import (
    NonConvergenceError,
    ParameterError,
    TemperedStableParams,
    converged_value,
    inverse_stable_density,  # not called; bench/spans.py wraps this name
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
    """One PDE verification setup: beta = 1/m, tempering lam, and the
    interior lattice of stencil centers with spacings (hx, ht)."""

    m: int
    lam: float
    x_points: tuple
    t_points: tuple
    hx: float = 1e-3
    ht: float = 1e-3

    def __post_init__(self):
        if self.m < 2:
            raise ParameterError(f"require m >= 2, got {self.m}")
        if self.lam < 0:
            raise ParameterError(f"require lam >= 0, got {self.lam}")
        if self.hx <= 0 or self.ht <= 0:
            raise ParameterError("spacings must be positive")
        widest = max(abs(o) for o in _STENCILS[min(self.m, 4)][0])
        if min(self.x_points) - widest * self.hx <= 0:
            raise ParameterError("x stencils must stay inside x > 0")
        if min(self.t_points) - self.ht <= 0:
            raise ParameterError("t stencils must stay inside t > 0")

    @property
    def beta(self):
        return 1.0 / self.m


def _spatial_operator(h_fn, x, t, case):
    """sum_j (-1)**j C(m,j) lam**(1-j/m) * (j-th x-derivative) at (x, t)."""
    m, lam, hx = case.m, case.lam, case.hx
    total = 0.0
    for j in range(1, m + 1):
        expo = 1.0 - j / case.m
        coef = (-1.0) ** j * math.comb(m, j) * (
            1.0 if expo == 0.0 else lam ** expo)
        if coef == 0.0:
            continue
        offs, wts = _STENCILS[j]
        deriv = sum(w * h_fn(x + o * hx, t) for o, w in zip(offs, wts))
        total += coef * deriv / hx ** j
    return total


def pde_residual(case, beta=None):
    """Relative PDE residuals on the case lattice.

    Returns |spatial operator - dh/dt| / max|dh/dt| per lattice point.
    Passing beta overrides the reciprocal-integer default 1/m (used for
    the negative control at non-reciprocal beta, where the residual must
    NOT vanish).
    """
    if case.m not in _STENCILS:
        raise ParameterError(f"stencils available for m <= 4, got {case.m}")
    params = TemperedStableParams(case.beta if beta is None else beta, case.lam)

    def h_fn(x, t):
        return eval_density(EvalPoint(x, t), params).value

    residuals = np.empty((len(case.x_points), len(case.t_points)))
    dt_scale = 0.0
    for i, x in enumerate(case.x_points):
        for k, t in enumerate(case.t_points):
            dhdt = (h_fn(x, t + case.ht) - h_fn(x, t - case.ht)) / (2 * case.ht)
            lhs = _spatial_operator(h_fn, x, t, case)
            residuals[i, k] = abs(lhs - dhdt)
            dt_scale = max(dt_scale, abs(dhdt))
    if dt_scale == 0.0:
        raise NonConvergenceError("dh/dt vanished on the whole lattice")
    return residuals / dt_scale


def residual_decay_ratio(case, beta=None):
    """Max relative residual at (hx, ht) divided by the same at
    (hx/2, ht/2); approximately 4 for a second-order-consistent PDE fit,
    near 1 (or below) when the grid is too coarse to resolve anything or
    the PDE does not hold."""
    coarse = float(np.max(pde_residual(case, beta)))
    fine_case = PdeCase(case.m, case.lam, case.x_points, case.t_points,
                        case.hx / 2, case.ht / 2)
    fine = float(np.max(pde_residual(fine_case, beta)))
    return coarse / max(fine, 1e-300)


def boundary_derivative_check(m, t=1.0):
    """|d^(m-1)/dx^(m-1) h_0(x, t)| at x = 0 for beta = 1/m; equals 0
    analytically because 1/Gamma(0) = 0."""
    if m < 2:
        raise ParameterError(f"require m >= 2, got {m}")
    params = TemperedStableParams(1.0 / m, 0.0)
    return abs(derivative_at_zero(m - 1, t, params))


def initial_condition_check(beta, x):
    """|h_0(x, 0)| at fixed x > 0 via the t = 0 limit of the integral
    representation; equals 0 analytically for 0 < beta <= 1/2.

    At beta = 1/2 the undamped integrand is only conditionally
    convergent, so a vanishing regulator exp(-t_reg * y) with
    t_reg = x**2 / 120 is kept (its own contribution is below 1e-12);
    for beta < 1/2 the cos(beta*pi) damping suffices and t_reg = 0.
    """
    if not 0.0 < beta <= 0.5:
        raise ParameterError(f"require 0 < beta <= 1/2, got {beta}")
    if x <= 0:
        raise ParameterError(f"require x > 0, got {x}")
    c = math.cos(beta * math.pi)
    s = math.sin(beta * math.pi)
    t_reg = 0.0 if beta < 0.5 else x * x / 120.0

    def integrand(y):
        yb = y ** beta
        return (np.exp(-t_reg * y - x * yb * c) * yb / y
                * np.sin(beta * math.pi - x * yb * s))

    scale = (1.0 / (x * max(c, 1e-2))) ** (1.0 / beta)
    res = integrate_semi_infinite(integrand, scale=scale,
                                  power_singularity=beta)
    return abs(converged_value(
        res, f"initial-condition integral at beta={beta}, x={x}") / math.pi)
