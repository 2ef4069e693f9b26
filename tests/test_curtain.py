"""The left-curtain coupling (``tests/curtain.py``) as an oracle for
two-date bounds of h(s_2 - s_1), tabulated on the atoms, for h' strictly
convex: the lower bound of h(t) = t^3 and of h(t) = e^t, and the upper
bound of t^3, which is minus the lower bound of the system reflected by
s -> -s, whose optimum is that system's left curtain (the right curtain of
this one).  The exact LP fixes each curtain's sense on small instances, and
the curtain then checks HiGHS's bound and its optimal coupling, which is
unique, where no exact solve runs."""

from __future__ import annotations

import numpy as np
import pytest

from motbound.fixtures import smooth_pair
from motbound.measures import DiscreteMeasure, MarginalSystem
from motbound.mot import MotProblem, Solver, bound
from motbound.payoff import tabulated

import sweep
from curtain import left_curtain
from exact import solve_exact


def moves(system) -> np.ndarray:
    """s_2 - s_1 on the atoms, first date down, second across."""
    x, y = (mu.points for mu in system.marginals)
    return y[None, :] - x[:, None]


def cube(system) -> np.ndarray:
    return moves(system) ** 3


def problem(system, table: np.ndarray, sense: str) -> MotProblem:
    return MotProblem(system, tabulated([mu.points for mu in system.marginals], table), sense)


def cube_problem(system, sense: str) -> MotProblem:
    return problem(system, cube(system), sense)


def curtain_value(system, table: np.ndarray | None = None) -> float:
    """The left curtain's expectation of ``table``, the cube by default."""
    return float((left_curtain(*system.marginals) * (cube(system) if table is None else table)).sum())


def reflected(system) -> MarginalSystem:
    """The laws of -s_1 and -s_2: a martingale coupling of ``system``, read
    at (-s_1, -s_2), is one of these, and the cube changes sign."""
    return MarginalSystem([DiscreteMeasure(-mu.points[::-1], mu.weights[::-1]) for mu in system.marginals])


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_curtain_is_the_exact_lower_bound(m):
    # odd m puts an atom of each date at 0 up to rounding: the merged twins
    system = smooth_pair(m)
    want = curtain_value(system)
    exact = {sense: float(solve_exact(Solver(system).lp(cube_problem(system, sense))).objective)
             for sense in ("lower", "upper")}
    assert abs(exact["lower"] - want) <= 1e-12
    if m > 2:  # two atoms on the first date leave one martingale coupling
        assert exact["upper"] > want + 0.1


@pytest.mark.parametrize("m", [15, 51, 201])
def test_lower_bound_is_the_curtain_value(m):
    system = smooth_pair(m)
    want = curtain_value(system)
    assert abs(bound(cube_problem(system, "lower")).value - want) <= 1e-10 * abs(want)


def test_optimal_coupling_is_the_curtain():
    system = smooth_pair(51)
    coupling = bound(cube_problem(system, "lower")).coupling
    dense = np.zeros((51, 51))
    np.add.at(dense, tuple(coupling.indices.T), coupling.masses)
    assert np.abs(dense - left_curtain(*system.marginals)).max() <= 1e-9


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_right_curtain_and_exponential_are_exact(m):
    system = smooth_pair(m)
    growth = np.exp(moves(system))
    lower = float(solve_exact(Solver(system).lp(problem(system, growth, "lower"))).objective)
    upper = float(solve_exact(Solver(system).lp(cube_problem(system, "upper"))).objective)
    assert abs(lower - curtain_value(system, growth)) <= 1e-12
    assert abs(upper + curtain_value(reflected(system))) <= 1e-12


def check_curtains(system) -> None:
    """The lower bound of e^(s_2 - s_1) is the left curtain's value, and the
    upper bound of (s_2 - s_1)^3 minus the reflected system's, both on one
    solver, to 1e-10 relative to the value or to 1e-3 where it is smaller."""
    solver = Solver(system)
    growth = np.exp(moves(system))
    pairs = ((bound(problem(system, growth, "lower"), solver=solver).value, curtain_value(system, growth)),
             (bound(cube_problem(system, "upper"), solver=solver).value, -curtain_value(reflected(system))))
    for got, want in pairs:
        assert abs(got - want) <= 1e-10 * max(abs(want), 1e-3), (got, want)


@pytest.mark.parametrize("m", [15, 51, 201])
def test_upper_and_exponential_bounds_are_the_curtain_values(m):
    check_curtains(smooth_pair(m))


def test_curtain_values_on_seeded_two_date_systems():
    # the first 20 two-date draws of tests/sweep.py at F = 1: tiny weights,
    # atoms that stay put at the next date (barriers) and shifts up to 100
    rng = np.random.default_rng(0)
    systems = []
    while len(systems) < 20:
        system = sweep.draw(rng, (0, 0)).system
        if system.n_dates == 2:
            systems.append(system)
    for system in systems:
        check_curtains(system)
