"""The left-curtain coupling (``tests/curtain.py``) as an oracle for the
two-date lower bound of (s_2 - s_1)^3, tabulated on the atoms: the exact LP
fixes the curtain's sense on small instances, and the curtain then checks
HiGHS's bound and its optimal coupling, which is unique, where no exact
solve runs."""

from __future__ import annotations

import numpy as np
import pytest

from motbound.fixtures import smooth_pair
from motbound.mot import MotProblem, Solver, bound
from motbound.payoff import tabulated

from curtain import left_curtain
from exact import solve_exact


def cube(system) -> np.ndarray:
    x, y = (mu.points for mu in system.marginals)
    return (y[None, :] - x[:, None]) ** 3


def cube_problem(system, sense: str) -> MotProblem:
    return MotProblem(system, tabulated([mu.points for mu in system.marginals], cube(system)), sense)


def curtain_value(system) -> float:
    return float((left_curtain(*system.marginals) * cube(system)).sum())


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
