import math
import warnings

import numpy as np
import pytest

from itsub.its_density import _cut_integrand
from itsub.quadrature import (
    BAR,
    MAX_SUBDIVISIONS,
    REL_TOL,
    _first_round,
    _layout,
    _lockstep,
    integrate_semi_infinite,
    integrate_semi_infinite_rows,
)
from itsub.stable_family import TemperedStableParams


def _interval(f, edges):
    """_lockstep's one-row integral of f over [edges[0], edges[-1]], from
    one panel in y between each pair of consecutive edges; f takes the
    2-d y of the row's panels."""
    panels = [(0, 2, a, b) for a, b in zip(edges, edges[1:])]
    return _lockstep(lambda k, y: f(y), _layout(panels), 1)[0]


def _check(result, expected, tol=1e-10):
    assert result.converged
    assert result.value == pytest.approx(expected, abs=tol, rel=tol)
    assert result.error_estimate <= max(1e-9, REL_TOL * abs(result.value))


def test_exponential():
    _check(integrate_semi_infinite(lambda y: np.exp(-y)), 1.0)


def test_gamma_integrand():
    _check(integrate_semi_infinite(lambda y: y ** 2 * np.exp(-y)), 2.0)


def test_gaussian():
    _check(integrate_semi_infinite(lambda y: np.exp(-y * y)),
           math.sqrt(math.pi) / 2)


def test_damped_oscillation():
    _check(integrate_semi_infinite(lambda y: np.sin(y) * np.exp(-y)), 0.5)


def test_scale_parameter():
    r = integrate_semi_infinite(lambda y: np.exp(-y / 100.0), scale=100.0)
    assert r.converged
    assert r.value == pytest.approx(100.0, rel=1e-10)


def test_power_singularity():
    # int_0^inf y**(-1/2) exp(-y) dy = Gamma(1/2)
    r = integrate_semi_infinite(lambda y: np.exp(-y) / np.sqrt(y),
                                power_singularity=0.5)
    assert r.converged
    assert r.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_strong_singularity():
    # int_0^inf y**(-0.8) exp(-y) dy = Gamma(0.2)
    from scipy.special import gamma as G

    r = integrate_semi_infinite(lambda y: np.exp(-y) * y ** -0.8,
                                power_singularity=0.2)
    assert r.converged
    assert r.value == pytest.approx(G(0.2), rel=1e-8)


def test_error_estimate_is_honest():
    # |value - truth| should not exceed a few times the reported estimate
    r = integrate_semi_infinite(lambda y: np.sin(3 * y) * np.exp(-0.5 * y))
    truth = 3.0 / (0.25 + 9.0)
    assert abs(r.value - truth) <= max(10 * r.error_estimate, 1e-13)


def test_cancelling_integrand_stops_at_rounding_floor():
    # int 1e6 * (e^-y - 2 e^-2y) = 0: rounding noise of order eps * 1e6
    # sits far above ABS_TOL, so only the rounding floor can end the
    # bisection, and the reported error must still cover the value
    r = integrate_semi_infinite(
        lambda y: 1e6 * (np.exp(-y) - 2.0 * np.exp(-2.0 * y)))
    assert r.converged
    assert r.subdivisions_used < 50
    assert abs(r.value) <= r.error_estimate


def test_rounding_floor_above_the_bar_stops_unconverged():
    # int 1e8 * (e^-y - 2 e^-2y) = 0, but its rounding floor, about
    # 50 eps * 1e8, is above the 1e-8 bar: no bisection can meet the bar,
    # so the quadrature gives up after its first pass, with an error that
    # says so, instead of reporting 0 +- 5.5e-7 as converged
    r = integrate_semi_infinite(
        lambda y: 1e8 * (np.exp(-y) - 2.0 * np.exp(-2.0 * y)))
    assert not r.converged
    assert r.subdivisions_used <= 8
    assert r.error_estimate > BAR


def test_subdivision_budget_reported():
    r = integrate_semi_infinite(lambda y: np.exp(-y))
    assert r.subdivisions_used >= 1


@pytest.mark.parametrize("integrate", [
    # sign(sin(1/y)) flips infinitely often towards 0, and
    # sin(y) / (1 + y)**0.01 barely decays: neither converges, and a round
    # that bisects many panels at once must still stop at the budget
    lambda: _interval(lambda y: np.sign(np.sin(1.0 / y)),
                               [1e-9, 1.0]),
    lambda: integrate_semi_infinite(lambda y: np.sin(y) / (1.0 + y) ** 0.01),
], ids=["sign_sin_inverse", "slow_oscillation"])
def test_batched_bisection_keeps_the_panel_budget(integrate):
    r = integrate()
    assert r.subdivisions_used == MAX_SUBDIVISIONS
    assert not r.converged


def test_interval_closed_form_over_given_edges():
    # int_0^pi sin = 2 from three first panels; |y - 1| is linear on each
    # side of its edge at 1, so both of its panels are exact at once
    _check(_interval(np.sin, [0.0, 1.0, 2.0, math.pi]), 2.0)
    r = _interval(lambda y: np.abs(y - 1.0), [0.0, 1.0, 2.0])
    _check(r, 1.0)
    assert r.subdivisions_used == 2


def test_non_finite_panel_ends_the_interval_unconverged():
    # 1 / (y - 1.5) is infinite at the centre node of [1, 2]: the call
    # stops there, keeps no panel after it and warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = _interval(lambda y: 1.0 / (y - 1.5), [0.0, 1.0, 2.0, 3.0])
    assert not r.converged
    assert r.error_estimate == math.inf
    assert r.subdivisions_used == 2


def test_each_round_bisects_every_panel_the_target_needs():
    # |y - 0.3| + |y - 2.7| has a kink inside [0, 1] and one inside [2, 3]
    # and is linear on [1, 2]: the two kinked panels carry errors too
    # large for either alone to leave the rest within the target, so each
    # round bisects both of them, in one integrand call of 4 panels
    calls = []

    def f(y):
        calls.append(y.size)
        return np.abs(y - 0.3) + np.abs(y - 2.7)

    r = _interval(f, [0.0, 1.0, 2.0, 3.0])
    assert r.converged
    assert abs(r.value - 7.38) <= r.error_estimate
    assert r.subdivisions_used == 23
    assert calls == [3 * 15] + [4 * 15] * 10


def test_one_row_half_line_batches_its_first_round():
    # the branch cut at beta 0.4, lam 1, t 1, x 0.8: the first panel,
    # four doubling panels and the far tail go in one integrand call, then
    # one call per round, which only bisects
    f = _cut_integrand(1, 1.0, TemperedStableParams(0.4, 1.0))
    calls = []

    def counted(y):
        calls.append(y.size)
        return f(0.8, y)

    r = integrate_semi_infinite(counted, 1.0, 0.4)
    assert r.converged and r.subdivisions_used == 10
    assert len(calls) <= 7
    assert calls[0] == 7 * 15
    assert all(n == 2 * 15 for n in calls[1:])


def test_rows_in_lockstep_equal_their_single_integrals():
    # each x of the branch cut at beta 0.4, lam 1, t 1 takes its own
    # panels whether it runs alone, as a one-row call (row index the int
    # 0) or among others (row indices a column); 40 is doomed by its
    # rounding floor
    f = _cut_integrand(1, 1.0, TemperedStableParams(0.4, 1.0))
    xs = [0.8, 3.0, 40.0, 0.05]
    singles = [integrate_semi_infinite(lambda y: f(x, y), 1.0, 0.4)
               for x in xs]
    col = np.array(xs)
    assert integrate_semi_infinite_rows(lambda k, y: f(col[k], y), len(xs),
                                        1.0, 0.4) == singles
    rows = set()

    def one_row(x):
        def g(k, y):
            rows.add(k)  # a column would be unhashable
            return f(x, y)
        return g

    for x, single in zip(xs, singles):
        assert integrate_semi_infinite_rows(one_row(x), 1, 1.0,
                                            0.4) == [single]
    assert rows == {0}
    assert [r.converged for r in singles] == [True, True, False, True]
    assert integrate_semi_infinite_rows(f, 0, 1.0, 0.4) == []


def test_first_round_layout_is_shared_and_read_only():
    # the half line's first round is laid out once per (scale, power
    # singularity) and shared by every later call, so no integrand may
    # write into its nodes: one that tries raises, and the layout holds
    _first_round.cache_clear()
    first = integrate_semi_infinite(lambda y: np.exp(-y), 2.0)
    with pytest.raises(ValueError, match="read-only"):
        integrate_semi_infinite(lambda y: np.exp(-np.negative(y, out=y)),
                                2.0)
    assert integrate_semi_infinite(lambda y: np.exp(-y), 2.0) == first
    assert _first_round.cache_info().currsize == 1


@pytest.mark.parametrize("k", [4, 10])
def test_stretched_exponential_tail(k):
    # int_0^inf e**(-y**(1/k)) dy = k!: the mass lies out to y ~ 40**k,
    # far past the doubling panels, nearly all of it in the far tail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = integrate_semi_infinite(lambda y: np.exp(-y ** (1.0 / k)))
    assert r.converged
    assert r.value == pytest.approx(math.factorial(k), rel=1e-9)
    assert abs(r.value - math.factorial(k)) <= r.error_estimate


def test_far_tail_node_beyond_double_range_adds_nothing():
    # int_0^inf e**(-y / 1e305) dy = 1e305: at this scale dy/du = y/u of a
    # far-tail node overflows where f has decayed; that node adds 0
    # instead of making the integral nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = integrate_semi_infinite(lambda y: np.exp(-y / 1e305), 1e305)
    _check(r, 1e305, tol=1e-12)
