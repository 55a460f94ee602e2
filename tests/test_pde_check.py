import numpy as np
import pytest

from itsub import pde_check
from itsub.its_density import DensityResult
from itsub.pde_check import (
    PdeCase,
    boundary_derivative_check,
    initial_condition_check,
    pde_residual,
    residual_decay_ratio,
)
from itsub.stable_family import NonConvergenceError, ParameterError


def test_case_validation():
    with pytest.raises(ParameterError):
        PdeCase(1, 0.0, (1.0,), (1.0,))
    with pytest.raises(ParameterError):
        PdeCase(2, -1.0, (1.0,), (1.0,))
    with pytest.raises(ParameterError):
        # x stencil would cross x = 0
        PdeCase(2, 0.0, (0.0005,), (1.0,))
    with pytest.raises(ParameterError):
        PdeCase(2, 0.0, (1.0,), (0.0005,))
    # an empty lattice gave a raw ValueError from min(), a fractional m a
    # KeyError; a bool is not an order, a numpy integer is; m = 5 has no
    # stencil for its fifth derivative and is refused when built
    for m, xs, ts in ((2, (), (1.0,)), (2, (1.0,), ()), (2.5, (1.0,), (1.0,)),
                      (True, (1.0,), (1.0,)), (5, (1.0,), (1.0,))):
        with pytest.raises(ParameterError):
            PdeCase(m, 1.0, xs, ts)
    assert PdeCase(np.int64(3), 0.0, (1.0,), (1.0,)).beta == 1.0 / 3.0
    assert PdeCase(2, 0.0, (1.0,), (1.0,)).beta == 0.5


def test_half_heat_equation_untempered():
    # beta = 1/2, lam = 0: d2h/dx2 = dh/dt
    case = PdeCase(2, 0.0, (0.8, 1.2, 1.6), (0.8, 1.2, 1.6))
    res = pde_residual(case)
    assert float(np.max(res)) < 1e-3


def test_half_equation_tempered():
    # beta = 1/2, lam = 1: (d2/dx2 - 2*lam**(1/2) d/dx) h = dh/dt
    case = PdeCase(2, 1.0, (0.8, 1.2, 1.6), (0.8, 1.2, 1.6))
    res = pde_residual(case)
    assert float(np.max(res)) < 1e-3


def test_third_order_equation():
    # beta = 1/3, lam = 0: -d3h/dx3 = dh/dt
    case = PdeCase(3, 0.0, (0.8, 1.2, 1.6), (0.8, 1.2, 1.6), hx=1e-2, ht=1e-2)
    res = pde_residual(case)
    assert float(np.max(res)) < 5e-3


def test_residual_decays_at_second_order():
    case = PdeCase(2, 1.0, (1.0, 1.5), (1.0, 1.5), hx=4e-2, ht=4e-2)
    ratio = residual_decay_ratio(case)
    assert 2.5 <= ratio <= 6.0


def test_negative_control_non_reciprocal_beta():
    case = PdeCase(2, 1.0, (1.0, 1.5), (1.0, 1.5))
    good = float(np.max(pde_residual(case)))
    bad = float(np.max(pde_residual(case, beta=0.45)))
    assert bad > 10.0 * good


def test_residual_reraises_a_rows_typed_error(monkeypatch):
    # a stencil point whose density failed fails the whole residual with
    # that row's own error
    failure = NonConvergenceError("row failed")

    def grid(xs, t, params):
        return [failure] + [DensityResult(1.0, 0.0, "series", 1)] * (
            len(xs) - 1)

    monkeypatch.setattr(pde_check, "eval_density_grid", grid)
    with pytest.raises(NonConvergenceError) as info:
        pde_residual(PdeCase(2, 1.0, (1.0, 1.5), (1.0, 1.5)))
    assert info.value is failure


def test_residual_raises_where_dhdt_vanishes_everywhere(monkeypatch):
    # a density constant in t leaves nothing to scale the residual by
    monkeypatch.setattr(
        pde_check, "eval_density_grid",
        lambda xs, t, params: [DensityResult(0.5, 0.0, "series", 1)] * len(xs))
    with pytest.raises(NonConvergenceError, match="vanished"):
        pde_residual(PdeCase(2, 1.0, (1.0, 1.5), (1.0, 1.5)))


def test_boundary_derivative_vanishes():
    for m in (2, 3):
        assert boundary_derivative_check(m) < 1e-8


def test_initial_condition_vanishes():
    for beta in (1.0 / 3.0, 0.5):
        for x in (0.1, 1.0, 2.0):
            assert initial_condition_check(beta, x) < 1e-8


def test_initial_condition_domain():
    with pytest.raises(ParameterError):
        initial_condition_check(0.7, 1.0)
    with pytest.raises(ParameterError):
        initial_condition_check(0.5, -1.0)


@pytest.mark.parametrize("beta, x", [(0.1, 1e-40), (0.3, 1e-300),
                                     (0.5, 1e-200), (0.02, 1e-6)])
def test_initial_condition_raises_where_its_scale_overflows(beta, x):
    # (1 / (x cos(beta pi)))**(1/beta) is beyond double range at the first
    # three, where it used to raise a bare OverflowError; at the last the
    # scale is 1.1e300 and the mass ends near 4e443, where 3.7e5 came
    # back as converged
    with pytest.raises(NonConvergenceError, match="overflows"):
        initial_condition_check(beta, x)


@pytest.mark.parametrize("beta, x", [(0.1, 0.5), (0.1, 1.0), (0.2, 1e-3),
                                     (0.3, 1e-5), (0.3, 1e-3)])
def test_initial_condition_vanishes_at_small_beta(beta, x):
    # the integral's mass lies far past its scale here; a tail cut by a
    # peak test stopped early and returned 2.0e-5, 6.4e-6, 28, 74 and
    # 3.5e-4 as converged
    assert initial_condition_check(beta, x) < 1e-8


@pytest.mark.parametrize("beta, x", [(0.02, 1.0), (0.05, 2.0), (0.1, 1e-10),
                                     (0.02, 1e-6)])
def test_initial_condition_vanishes_or_raises(beta, x):
    # 0.28, 2.1e-3, 3.5e9 and 3.7e5 used to come back as converged
    try:
        assert initial_condition_check(beta, x) < 1e-8
    except NonConvergenceError:
        pass
