"""LP solver: known-solution instances, oracle agreement, duality and determinism."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import optimize

import motbound.lp as lp_mod
from motbound.errors import Infeasible, IterationLimit, LpError, ScaleExceeded, Unbounded
from motbound.fixtures import smooth_pair
from motbound.lp import LinearProgram, Session, highs, solve
from motbound.measures import DensitySpec, DiscreteMeasure, MarginalSystem, discretize
from motbound.mot import MotProblem, Solver, TransportColumns, bound
from motbound.payoff import asian_call, forward_start_straddle, lookback_call

from constraints import Constraints, triples
from exact import solve_exact

GAP_TOL = 1e-7
FEAS_TOL = 1e-9


def dense_lp(a, b, c, sense="min") -> LinearProgram:
    a = np.asarray(a, dtype=float)
    rows, cols = np.nonzero(a)
    return LinearProgram(sense=sense, cost=np.asarray(c, dtype=float),
                         constraints=Constraints(rows, cols, a[rows, cols], b, a.shape[1]))


def transportation(supplies, demands, costs, sense="min") -> LinearProgram:
    m, n = len(supplies), len(demands)
    a = np.zeros((m + n, m * n))
    for i in range(m):
        a[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a[m + j, j::n] = 1.0
    return dense_lp(a, list(supplies) + list(demands),
                    np.asarray(costs, dtype=float).ravel(), sense)


def csr(lp: LinearProgram) -> sp.csr_matrix:
    rows, cols, vals = triples(lp.constraints)
    return sp.csr_matrix((vals, (rows, cols)), shape=(lp.n_rows, lp.n_cols))


def power_of_two(top: np.ndarray) -> np.ndarray:
    """The smallest power of two at or above each of ``top`` > 0."""
    fraction, exponent = np.frexp(top)
    return np.ldexp(1.0, np.where(fraction == 0.5, exponent - 1, exponent))


def scales(lp: LinearProgram, cost: np.ndarray) -> tuple[np.ndarray, float]:
    """What HiGHS's model of ``lp`` with ``cost`` multiplies its rows by, and
    divides its costs by: the inverse of the power of two at or above each
    row's largest |coefficient|, and the one at or above the largest |cost|."""
    return 1.0 / power_of_two(abs(csr(lp)).max(axis=1).toarray().ravel()), float(power_of_two(np.abs(cost).max()))


def check_solution_invariants(lp: LinearProgram, sol) -> None:
    a = csr(lp).toarray()
    resid = np.abs(a @ sol.primal - lp.rhs).max()
    assert resid <= FEAS_TOL * (1.0 + np.abs(lp.rhs).max())
    assert sol.primal.min() >= -FEAS_TOL
    rc = lp.cost - a.T @ sol.dual
    scale = GAP_TOL * (1.0 + abs(sol.objective))
    if lp.sense == "min":
        assert rc.min() >= -1e-9 * (1.0 + np.abs(lp.cost).max())
    else:
        assert rc.max() <= 1e-9 * (1.0 + np.abs(lp.cost).max())
    dual_obj = float(lp.rhs @ sol.dual)
    assert abs(sol.objective - dual_obj) <= scale
    assert np.abs(sol.primal * rc).max() <= scale


class TestSpecExamples:
    def test_single_equation(self):
        lp = dense_lp([[1.0]], [3.0], [1.0])
        sol = solve(lp)
        assert sol.objective == pytest.approx(3.0, abs=1e-12)
        assert sol.dual[0] == pytest.approx(1.0, abs=1e-12)
        check_solution_invariants(lp, sol)

    def test_transportation_2x2(self):
        lp = transportation([1.0, 1.0], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        sol = solve(lp)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sol.primal, [1.0, 0.0, 0.0, 1.0], atol=1e-12)
        check_solution_invariants(lp, sol)

    def test_degenerate_forced_point(self):
        lp = dense_lp([[1.0, 1.0], [1.0, -1.0]], [1.0, 1.0], [0.0, 1.0])
        sol = solve(lp)
        np.testing.assert_allclose(sol.primal, [1.0, 0.0], atol=1e-12)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        check_solution_invariants(lp, sol)

    def test_exact_matches_examples(self):
        lp = dense_lp([[1.0]], [3.0], [1.0])
        ex = solve_exact(lp)
        assert ex.objective == Fraction(3)
        assert ex.dual == (Fraction(1),)

        lp = transportation([1.0, 1.0], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        ex = solve_exact(lp)
        assert ex.objective == Fraction(0)
        assert ex.primal == (Fraction(1), Fraction(0), Fraction(0), Fraction(1))

        lp = dense_lp([[1.0, 1.0], [1.0, -1.0]], [1.0, 1.0], [0.0, 1.0])
        ex = solve_exact(lp)
        assert ex.objective == Fraction(0)


class TestErrors:
    def test_infeasible(self):
        lp = dense_lp([[1.0], [1.0]], [1.0, 2.0], [1.0])
        with pytest.raises(Infeasible):
            solve(lp)
        with pytest.raises(Infeasible):
            solve_exact(lp)

    def test_unbounded(self):
        lp = dense_lp([[1.0, -1.0]], [0.0], [-1.0, 0.0])
        with pytest.raises(Unbounded):
            solve(lp)
        with pytest.raises(Unbounded):
            solve_exact(lp)

    def test_iteration_limit(self, monkeypatch):
        lp = transportation([1.0, 2.0, 3.0], [2.0, 2.0, 2.0],
                            np.arange(9, dtype=float).reshape(3, 3))
        monkeypatch.setattr(lp_mod, "MAX_ITER", 1)
        with pytest.raises(IterationLimit, match="^exceeded 1 iterations on a min LP of 6 rows and 9 columns$"):
            solve(lp)

    def test_run_error_raises_naming_the_status_and_next_solve_is_cold(self, monkeypatch):
        # HiGHS's run returns kError without solving: the solve raises at
        # once, naming that status, and the session's next solve is cold
        fail = [False]

        class Failing(highs._Highs):
            def run(self):
                return highs.HighsStatus.kError if fail[0] else super().run()

        monkeypatch.setattr(highs, "_Highs", Failing)
        lp = transportation([1.0, 1.0], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        session = Session(lp.constraints)
        cold = solve(lp, session=session)
        fail[0] = True
        with pytest.raises(LpError, match=r"^HiGHS run returned kError, model status k\w+, "
                                          r"on a model of 4 rows and 4 columns, "
                                          r"in the solve's first run$") as info:
            solve(lp, session=session)
        assert type(info.value) is LpError
        assert not session.warm
        fail[0] = False
        assert not session.warm_for(lp)
        again = solve(lp, session=session)
        assert again.primal.tobytes() == cold.primal.tobytes()

    def test_run_error_names_the_pricing_round(self, monkeypatch):
        # a master on the artificials alone prices columns in after its
        # first run; the run after the first round returns kError
        runs = [0]

        class Failing(highs._Highs):
            def run(self):
                runs[0] += 1
                return highs.HighsStatus.kError if runs[0] == 2 else super().run()

        monkeypatch.setattr(highs, "_Highs", Failing)
        force_cold(monkeypatch, "master")
        lp = transportation([1.0, 1.0], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(LpError, match=r"^HiGHS run returned kError, model status k\w+, "
                                          r"on a model of 4 rows and \d+ columns, "
                                          r"in the run after pricing round 1$"):
            solve(lp)

    @pytest.mark.parametrize("solver, unit", [(solve, "iterations"), (solve_exact, "exact pivots")],
                             ids=["highs", "exact"])
    def test_iteration_limit_allows_exactly_max_iter(self, solver, unit, monkeypatch):
        # a 2 x 3 transportation LP in the primal band: k pivots solve, k - 1 raise
        lp = transportation([1.0, 2.0], [1.0, 1.0, 1.0], [[3.0, 1.0, 2.0], [1.0, 4.0, 0.5]])
        k = solver(lp).iterations
        assert k > 1
        monkeypatch.setattr(lp_mod, "MAX_ITER", k)
        assert solver(lp).iterations == k
        monkeypatch.setattr(lp_mod, "MAX_ITER", k - 1)
        with pytest.raises(IterationLimit, match=f"exceeded {k - 1} {unit}"):
            solver(lp)

    def test_rejected_options_raise(self, monkeypatch):
        # HIGHS_TOL is the smallest feasibility tolerance HiGHS accepts
        monkeypatch.setattr(lp_mod, "HIGHS_TOL", lp_mod.HIGHS_TOL / 10)
        with pytest.raises(LpError, match="rejected the solver options"):
            solve(dense_lp([[1.0]], [3.0], [1.0]))

    def test_scale_exceeded(self):
        n = 201
        lp = LinearProgram(sense="min", cost=np.ones(n),
                           constraints=Constraints(np.zeros(n, dtype=int), np.arange(n),
                                                   np.ones(n), np.array([1.0]), n))
        with pytest.raises(ScaleExceeded):
            solve_exact(lp)

    def test_duplicate_triples_rejected(self):
        with pytest.raises(ValueError):
            Constraints(np.array([0, 0]), np.array([0, 0]), np.array([1.0, 1.0]), np.array([1.0]), 1)

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Constraints(np.array([0]), np.array([5]), np.array([1.0]), np.array([1.0]), 1)

    @pytest.mark.parametrize("rows, cols, vals, rhs, n_cols, message", [
        ([0], [0], [1.0], [1.0], 0, "at least one variable"),
        ([], [], [], [], 1, "at least one variable"),
        ([0, 0], [0], [1.0], [1.0], 1, "equal length"),
        ([0], [0], [np.nan], [1.0], 1, "finite"),
        ([0], [0], [1.0], [np.inf], 1, "finite"),
        ([1], [0], [1.0], [1.0], 1, "row index out of range"),
        ([-1], [0], [1.0], [1.0], 1, "row index out of range"),
    ], ids=["no-column", "no-row", "unequal-triples", "nan-coefficient", "inf-rhs",
            "row-above", "row-below"])
    def test_malformed_constraints_rejected(self, rows, cols, vals, rhs, n_cols, message):
        with pytest.raises(ValueError, match=message):
            Constraints(np.array(rows, dtype=int), np.array(cols, dtype=int), np.array(vals),
                        np.array(rhs), n_cols)

    @pytest.mark.parametrize("sense, cost, message", [
        ("minimize", [1.0, 1.0], "sense must be 'min' or 'max'"),
        ("min", [1.0], "1 costs for 2 columns"),
        ("max", [1.0, np.nan], "cost must be finite"),
    ], ids=["bad-sense", "cost-length", "nan-cost"])
    def test_malformed_program_rejected(self, sense, cost, message):
        constraints = Constraints(np.array([0, 0]), np.array([0, 1]), np.array([1.0, 1.0]),
                                  np.array([1.0]), 2)
        with pytest.raises(ValueError, match=message):
            LinearProgram(sense, np.array(cost), constraints)


def random_transportation(rng, sense="min"):
    m = int(rng.integers(2, 6))
    n = int(rng.integers(2, 6))
    while m * n > 50:
        n = int(rng.integers(2, 6))
    # dyadic masses keep the exact solver's data exactly consistent
    s_units = rng.integers(1, 32, size=m)
    d_units = np.zeros(n, dtype=int)
    for _ in range(int(s_units.sum())):
        d_units[rng.integers(0, n)] += 1
    if np.any(d_units == 0):
        d_units += 1
        s_units[rng.integers(0, m)] += n
    supplies = s_units / 64.0
    demands = d_units / 64.0
    costs = rng.integers(-50, 50, size=(m, n)) / 16.0
    return transportation(supplies, demands, costs, sense)


class TestOracleAgreement:
    def test_hundred_random_transportation(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            sense = "min" if trial % 2 == 0 else "max"
            lp = random_transportation(rng, sense)
            sol = solve(lp)
            ex = solve_exact(lp)
            tol = 1e-9 * (1.0 + abs(ex.objective))
            assert abs(sol.objective - ex.objective) <= tol, trial
            check_solution_invariants(lp, sol)

    def test_cost_scaling(self):
        rng = np.random.default_rng(9)
        lp = random_transportation(rng)
        base = solve(lp)
        for lam in (2.0, 10.0):
            scaled = LinearProgram(sense=lp.sense, cost=lam * lp.cost, constraints=lp.constraints)
            sol = solve(scaled)
            assert sol.objective == pytest.approx(lam * base.objective, rel=1e-9, abs=1e-12)
            np.testing.assert_allclose(sol.dual, lam * base.dual, atol=1e-9)


class TestDeterminism:
    def test_repeat_solves_identical(self):
        rng = np.random.default_rng(17)
        lp = random_transportation(rng)
        a = solve(lp)
        b = solve(lp)
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.primal, b.primal)
        np.testing.assert_array_equal(a.dual, b.dual)


class Run(NamedTuple):
    simplex: str
    result: tuple
    model: object


STRATEGY = highs.simplex_constants.SimplexStrategy
SIMPLEX = {int(STRATEGY.kSimplexStrategyPrimal): "primal", int(STRATEGY.kSimplexStrategyDual): "dual"}


def spy_highs(monkeypatch, corrupt=None):
    """Record each HiGHS run's simplex (``"primal"`` or ``"dual"``, read
    from the model's options), result (model status, iterations, primal,
    dual) and model; ``corrupt(result)`` may return a replacement result
    before ``solve`` reads it."""
    calls = []
    run_highs = lp_mod._run_highs

    def spy(model):
        res = run_highs(model)
        if corrupt is not None:
            res = corrupt(res)
        assert model.getOptionValue("solver")[1] == "simplex"
        calls.append(Run(SIMPLEX[model.getOptionValue("simplex_strategy")[1]], res, model))
        return res

    monkeypatch.setattr(lp_mod, "_run_highs", spy)
    return calls


def dual_simplex(monkeypatch):
    """Every HiGHS model built while the test runs takes the dual simplex:
    its options reach HiGHS with the dual ``simplex_strategy``."""

    class Dual(highs._Highs):
        def passOptions(self, options):
            options.simplex_strategy = int(STRATEGY.kSimplexStrategyDual)
            return super().passOptions(options)

    monkeypatch.setattr(highs, "_Highs", Dual)


def force_cold(monkeypatch, method):
    """Every cold solve runs ``method`` first, whatever the LP's shape:
    ``"primal"`` on every column, or ``"master"``, column generation (a
    test's ``"simplex"`` is the first by :func:`dual_simplex`).  Tests and
    ids that name the interior point ("ipm") name the path above the primal
    band, which it took before column generation replaced it there."""
    monkeypatch.setattr(lp_mod, "_cold_method", lambda n_cols, n_rows: method)


def every_column(lp: LinearProgram) -> tuple[np.ndarray, None]:
    """A seed that puts every column in the master, so that its first round
    is its last, and gives no start basis."""
    return np.arange(lp.n_cols), None


class TestDualCheck:
    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_corrupted_dual_is_rejected(self, monkeypatch, sense):
        def corrupt(res):
            # lowers the reduced cost of row 0's columns by 1, in either sense
            status, iterations, primal, dual = res
            dual = dual.copy()
            dual[0] += 1.0
            return status, iterations, primal, dual

        lp = transportation([1.0, 2.0], [1.5, 1.5], [[1.0, 2.0], [3.0, 1.0]], sense)
        solve(lp)
        spy_highs(monkeypatch, corrupt)
        with pytest.raises(LpError, match=r"reduced cost -1\.000e\+00 at column [01]\b"):
            solve(lp)


def widening_dates(w: float, m: int, dates: int = 3) -> MarginalSystem:
    return MarginalSystem([discretize(DensitySpec.uniform(1.0 - w * k, 1.0 + w * k), m)
                           for k in range(1, dates + 1)])


def unfinished_crossover_problem() -> MotProblem:
    """A 3-date Asian LP on which crossover stops at a basis HiGHS cannot
    certify optimal (model status Unknown)."""
    w, strike = float.fromhex("0x1.d6feba827a814p-4"), float.fromhex("0x1.ef53ae578b7a5p-1")
    return MotProblem(widening_dates(w, 15), asian_call(strike, 3), "lower")


def rejected_crossover_dual_problem() -> MotProblem:
    """A 3-date Asian LP on which HiGHS calls the crossover basis optimal but
    its dual fails the reduced-cost check (-9.110e-09 at column 6529)."""
    w, strike = float.fromhex("0x1.af6a3078f739dp-4"), float.fromhex("0x1.f6c76192a81cap-1")
    return MotProblem(widening_dates(w, 21), asian_call(strike, 3), "lower")


class TestSizeRule:
    @pytest.mark.parametrize("problem", [
        MotProblem(smooth_pair(41), forward_start_straddle(), "lower"),
        MotProblem(smooth_pair(41), forward_start_straddle(), "upper"),
        MotProblem(widening_dates(0.1, 9), asian_call(1.0, 3), "lower"),
        MotProblem(widening_dates(0.1, 9), asian_call(1.0, 3), "upper"),
    ], ids=["2date-lower", "2date-upper", "3date-lower", "3date-upper"])
    def test_both_methods_agree(self, monkeypatch, problem):
        lp = Solver(problem.system).lp(problem)
        calls = spy_highs(monkeypatch)
        values = {}
        # the dual simplex last, as it holds for every model built after it
        for solver, run_by in (("primal", "primal"), ("master", "primal"), ("simplex", "dual")):
            if solver == "simplex":
                dual_simplex(monkeypatch)
            force_cold(monkeypatch, "master" if solver == "master" else "primal")
            del calls[:]
            sol = solve(lp)
            # the master's rounds are primal-simplex runs, one run otherwise
            assert [run.simplex for run in calls] == [run_by] * len(calls)
            assert len(calls) > 1 if solver == "master" else len(calls) == 1
            assert all(run.result[0] == highs.HighsModelStatus.kOptimal for run in calls)
            assert sol.iterations == sum(run.result[1] for run in calls)
            values[solver] = sol.objective
            del calls[:]
            result = bound(problem)
            assert {run.simplex for run in calls} == {run_by}
            assert result.report.valid
            if solver == "master":
                # the bound's master starts from a seed, this solve's from none
                assert abs(result.value - sol.objective) <= 1e-12 * (1.0 + abs(sol.objective))
            else:
                assert result.value == sol.objective
        v = values["simplex"]
        for solver in ("primal", "master"):
            assert abs(values[solver] - v) <= 1e-12 * (1.0 + abs(v))

    def test_unfinished_crossover_instance(self, monkeypatch):
        # the interior point's crossover stopped unfinished on this LP; the
        # master, unseeded here, solves it in its rounds alone
        problem = unfinished_crossover_problem()
        lp = Solver(problem.system).lp(problem)
        force_cold(monkeypatch, "master")
        calls = spy_highs(monkeypatch)
        sol = solve(lp)
        assert {run.simplex for run in calls} == {"primal"}
        assert all(run.model is calls[0].model for run in calls)
        check_solution_invariants(lp, sol)
        res = bound(problem)
        assert res.report.valid
        dual_simplex(monkeypatch)
        force_cold(monkeypatch, "primal")
        cold = solve(lp).objective
        for value in (sol.objective, res.value):
            assert abs(value - cold) <= 1e-12 * (1.0 + abs(cold))

    def test_rejected_crossover_dual_instance(self, monkeypatch):
        # HiGHS called the crossover basis of this LP optimal, but its dual
        # failed the reduced-cost check (-9.110e-09 at column 6529); the
        # master stops only once no column fails it
        problem = rejected_crossover_dual_problem()
        calls = spy_highs(monkeypatch)
        res = bound(problem)
        assert {run.simplex for run in calls} == {"primal"}
        assert res.diagnostics.extras["solve_attempts"] == 1
        assert res.report.valid
        assert res.value == pytest.approx(0.0469156963, abs=1e-10)

    def test_iteration_limit_on_interior_point_path(self, monkeypatch):
        lp = transportation([1.0, 2.0, 3.0], [2.0, 2.0, 2.0],
                            np.arange(9, dtype=float).reshape(3, 3))
        force_cold(monkeypatch, "master")
        monkeypatch.setattr(lp_mod, "MAX_ITER", 1)
        calls = spy_highs(monkeypatch)
        with pytest.raises(IterationLimit, match="exceeded 1 iterations"):
            solve(lp)
        assert calls[-1].simplex == "primal"

    def test_iteration_limit_bounds_all_rounds_together(self, monkeypatch):
        problem = MotProblem(smooth_pair(51), forward_start_straddle(), "lower")
        lp = Solver(problem.system).lp(problem)
        calls = spy_highs(monkeypatch)
        total = solve(lp).iterations
        rounds = [run.result[1] for run in calls]
        assert len(rounds) > 1 and max(rounds) < total - 1
        monkeypatch.setattr(lp_mod, "MAX_ITER", total - 1)
        with pytest.raises(IterationLimit, match=f"exceeded {total - 1} iterations"):
            solve(lp)
        monkeypatch.setattr(lp_mod, "MAX_ITER", total)
        assert solve(lp).iterations == total
        monkeypatch.setattr(lp_mod, "MAX_ITER", total + 1)
        assert solve(lp).iterations == total


# (dates, atoms per date, LP shape as cells × rows, cold method); two dates
# on smooth_pair, more on widening_dates at w = 0.1.  The primal band ends at
# 5,000 cells or 15 per row, which on two dates falls between m=44 and 45;
# in the band the cut at 2,500 cells falls between 4 dates at m=7 and 3 at
# m=14.
COLD_METHODS = [
    (2, 9, (81, 26), "primal"),
    (2, 15, (225, 44), "primal"),
    (3, 11, (1331, 163), "primal"),
    (3, 13, (2197, 219), "primal"),
    (3, 14, (2744, 250), "master"),
    (3, 15, (3375, 283), "master"),
    (3, 17, (4913, 355), "master"),
    (3, 21, (9261, 523), "master"),
    (4, 7, (2401, 424), "primal"),
    (4, 8, (4096, 613), "master"),
    (4, 9, (6561, 852), "master"),
    (4, 11, (14641, 1504), "master"),
    (4, 13, (28561, 2428), "master"),
    (2, 41, (1681, 122), "primal"),
    (2, 44, (1936, 131), "primal"),
    (2, 45, (2025, 134), "master"),
    (2, 51, (2601, 152), "master"),
    (2, 61, (3721, 182), "master"),
    (2, 101, (10201, 302), "master"),
]


class TestColdMethod:
    """A cold solve starts with the method the LP's shape picks."""

    @pytest.mark.parametrize("dates, m, shape, method", COLD_METHODS,
                             ids=[f"{dates}date-m{m}" for dates, m, _, _ in COLD_METHODS])
    def test_shape_table(self, dates, m, shape, method):
        system = smooth_pair(m) if dates == 2 else widening_dates(0.1, m, dates)
        constraints = Solver(system).constraints
        assert (constraints.n_cols, constraints.rhs.size) == shape
        assert lp_mod._cold_method(*shape) == method

    @pytest.mark.parametrize("m, method", [(15, "primal"), pytest.param(51, "master", id="51-master")])
    def test_cold_two_date_bound_runs_one_method(self, monkeypatch, m, method):
        # 225 × 44 and 2,601 × 152: one primal-simplex run, or a master's
        # rounds (after its seed's), which are primal-simplex runs too
        problem = MotProblem(smooth_pair(m), forward_start_straddle(), "lower")
        calls = spy_highs(monkeypatch)
        res = bound(problem)
        assert {run.simplex for run in calls} == {"primal"}
        assert len(calls) > 1 if method == "master" else len(calls) == 1
        assert res.report.valid

    def test_cold_three_date_bound_runs_master_rounds(self, monkeypatch):
        # 3,375 × 283, in the primal band but above the cut: the seed's run
        # and the master's rounds, every one a primal-simplex run
        problem = MotProblem(widening_dates(0.1, 15), asian_call(1.0, 3), "lower")
        calls = spy_highs(monkeypatch)
        res = bound(problem)
        assert {run.simplex for run in calls} == {"primal"}
        assert len({id(run.model) for run in calls}) == 2 and len(calls) > 2
        assert res.diagnostics.extras["solve_attempts"] == 1
        assert res.report.valid
        monkeypatch.undo()
        force_cold(monkeypatch, "primal")
        assert res.value == pytest.approx(bound(problem).value, rel=1e-12, abs=1e-15)

    def test_change_of_sense_after_a_cold_master_runs_warm_on_every_column(self, monkeypatch):
        # the next solve hands the master's optimal basis to a model of every
        # column, so the same LP takes no pivot there, and the upper bound
        # runs warm on that model too
        system = widening_dates(0.1, 15)
        solver = Solver(system)
        problem = {sense: MotProblem(system, asian_call(1.0, 3), sense) for sense in ("lower", "upper")}
        calls = spy_highs(monkeypatch)
        lower = bound(problem["lower"], solver=solver)
        master = calls[-1].model
        assert master.getNumCol() < solver.constraints.n_cols + solver.constraints.rhs.size
        assert solver.session.warm_for(solver.lp(problem["upper"]))
        del calls[:]
        again = bound(problem["lower"], solver=solver)
        upper = bound(problem["upper"], solver=solver)
        assert [run.simplex for run in calls] == ["primal", "primal"]
        full = calls[0].model
        assert full is not master and calls[1].model is full
        assert full.getNumCol() == solver.constraints.n_cols
        assert again.diagnostics.extras["lp_iterations"] == 0
        assert again.value == pytest.approx(lower.value, rel=1e-12, abs=1e-15)
        assert upper.report.valid and again.report.valid
        assert upper.diagnostics.extras["solve_attempts"] == 1
        monkeypatch.undo()
        assert upper.value == pytest.approx(bound(problem["upper"]).value, rel=1e-12, abs=1e-15)

    def test_change_of_sense_in_the_primal_band_stays_warm(self, monkeypatch):
        system = widening_dates(0.1, 13)
        solver = Solver(system)
        problem = {sense: MotProblem(system, asian_call(1.0, 3), sense) for sense in ("lower", "upper")}
        calls = spy_highs(monkeypatch)
        bound(problem["lower"], solver=solver)
        assert [run.simplex for run in calls] == ["primal"]
        upper = bound(problem["upper"], solver=solver)
        assert [run.simplex for run in calls] == ["primal", "primal"]
        assert calls[1].model is calls[0].model
        assert upper.report.valid
        monkeypatch.undo()
        cold = bound(problem["upper"])
        assert upper.value == pytest.approx(cold.value, rel=1e-12, abs=1e-15)


def spy_columns(monkeypatch, name: str) -> list:
    """Record the transport LP's columns at each call of their method
    ``name``: ``reduced``, one ``A^T y`` over every column, or ``times``,
    the residual check's ``A x``."""
    calls = []
    method = getattr(TransportColumns, name)

    def spy(constraints, *args):
        calls.append(constraints)
        return method(constraints, *args)

    monkeypatch.setattr(TransportColumns, name, spy)
    return calls


class TestOnePricingPass:
    """Each HiGHS run is priced once, over every column, and the dual check
    reads the last run's pass: one ``A^T y`` per run, on a model of every
    column and on a master, cold and warm, the seed's runs on the coarse LP
    included (each pass and run counted by its LP's row count).  Every
    model prices, and each solve checks its residual, on the LP's own
    columns, a model of every column too."""

    @pytest.mark.parametrize("make, senses, master, full", [
        # a cold model of every column in the band, then a warm solve on it
        (lambda: (smooth_pair(21), forward_start_straddle()), ("lower", "upper"), False, True),
        # a cold master on the coarse seed, then a warm solve on the master
        (lambda: (smooth_pair(51), forward_start_straddle()), ("lower", "lower"), True, False),
        # a cold master above the cut, then a warm solve on the model of
        # every column it is completed into
        (lambda: (widening_dates(0.1, 15), asian_call(1.0, 3)), ("lower", "lower"), True, True),
    ], ids=["band", "master", "completed"])
    def test_one_pass_per_run(self, monkeypatch, make, senses, master, full):
        system, payoff = make()
        solver = Solver(system)
        runs, passes = spy_highs(monkeypatch), spy_columns(monkeypatch, "reduced")
        checks = spy_columns(monkeypatch, "times")
        for k, sense in enumerate(senses, 1):
            before = len(runs)
            solve(solver.lp(MotProblem(system, payoff, sense)), session=solver.session)
            assert len(runs) > before
            assert sorted(c.rhs.size for c in passes) == sorted(run.model.getNumRow() for run in runs)
            assert checks == [solver.constraints] * k
            if not before:  # the cold solve: one run, or the seed's and the master's rounds
                assert (len(runs) > 2) == master
        assert solver.session._master.full == full


def shuffled(constraints, rng) -> Constraints:
    """The same matrix and groups, from any column source, as a
    ``Constraints`` of its triples handed over in a random order."""
    rows, cols, vals = triples(constraints)
    order = rng.permutation(vals.size)
    return Constraints(rows[order], cols[order], vals[order], constraints.rhs, constraints.n_cols,
                       constraints.group)


class TestColumnMajor:
    """``Constraints`` holds A once, column by column, whatever order its
    triples come in, so neither the model HiGHS gets nor any sum moves."""

    @pytest.mark.parametrize("method", ["primal", "master"])
    @pytest.mark.parametrize("make", [
        lambda: random_transportation(np.random.default_rng(5), "max"),
        lambda: Solver(s := smooth_pair(9)).lp(MotProblem(s, forward_start_straddle(), "lower")),
        lambda: Solver(s := widening_dates(0.1, 5)).lp(MotProblem(s, asian_call(1.0, 3), "upper")),
    ], ids=["transportation", "two_dates", "three_dates"])
    def test_permuted_triples_give_the_same_arrays_and_bits(self, monkeypatch, make, method):
        # a transport LP's columns give their triples in column-major order
        # and solve to the same bits as a Constraints of them
        force_cold(monkeypatch, method)
        lp = make()
        c = lp.constraints
        permuted = LinearProgram(lp.sense, lp.cost, shuffled(c, np.random.default_rng(0)))
        a, b = Constraints.of(c), permuted.constraints
        for name in ("rows", "cols", "vals", "rhs", "start"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        rows, cols, vals = triples(c)
        for name, got in (("rows", rows), ("cols", cols), ("vals", vals), ("rhs", c.rhs)):
            assert got.tobytes() == getattr(a, name).tobytes(), name
        assert np.all(np.diff(cols * c.rhs.size + rows) > 0)
        first, second = solve(lp), solve(permuted)
        assert first.primal.tobytes() == second.primal.tobytes()
        assert first.dual.tobytes() == second.dual.tobytes()
        assert (first.objective, first.iterations) == (second.objective, second.iterations)

    @pytest.mark.parametrize("group", [0, 3])
    def test_groups_that_do_not_divide_the_columns_are_refused(self, group):
        with pytest.raises(ValueError, match="does not divide"):
            Constraints(np.array([0, 0]), np.array([0, 1]), np.array([1.0, 1.0]), np.ones(1), 4, group)

    def test_duplicates_apart_in_the_input_are_refused(self):
        with pytest.raises(ValueError, match="duplicate"):
            Constraints(np.array([1, 0, 2, 1]), np.array([3, 0, 1, 3]), np.array([1.0, 2.0, 3.0, 4.0]),
                        np.ones(3), 4)

    @pytest.mark.parametrize("cols", [[2, 0, 2, 5], [4, 4, 4], [1, 4, 3], [0, 1, 2, 3, 4, 5, 6], []],
                             ids=["repeated", "empty_repeated", "mixed", "every", "none"])
    def test_columns_match_a_scipy_slice(self, cols):
        rng = np.random.default_rng(11)
        dense = rng.normal(size=(5, 7)) * (rng.random((5, 7)) < 0.5)
        dense[:, [3, 4]] = 0.0  # two empty columns
        lp = dense_lp(dense, np.ones(5), np.zeros(7))
        constraints = shuffled(lp.constraints, rng)
        cols = np.array(cols, dtype=np.int64)
        start, index, value = constraints.columns(cols)
        expected = sp.csc_matrix(dense)[:, cols]
        expected.sort_indices()
        np.testing.assert_array_equal(start, expected.indptr)
        np.testing.assert_array_equal(index, expected.indices)
        np.testing.assert_array_equal(value, expected.data)


STATUS = highs.HighsModelStatus


class TestStatusMapping:
    """Each HiGHS model status maps to the outcome scipy's linprog status
    gave it: 1 (limit), 2 (infeasible), 3 (unbounded) and 4 (any other
    status) raise, the last ``LpError``, after the solve's one attempt.  An
    optimal run that fails the residual check raises ``Infeasible``, one
    that fails the reduced-cost check ``LpError``."""

    @pytest.mark.parametrize("method", ["simplex", pytest.param("master", id="ipm"), "primal"])
    @pytest.mark.parametrize("status, error", [
        (STATUS.kIterationLimit, IterationLimit), (STATUS.kTimeLimit, IterationLimit),
        (STATUS.kInfeasible, Infeasible), (STATUS.kModelError, Infeasible),
        (STATUS.kUnbounded, Unbounded),
    ])
    def test_decided_status_raises(self, monkeypatch, method, status, error):
        if method == "simplex":
            dual_simplex(monkeypatch)
        force_cold(monkeypatch, "master" if method == "master" else "primal")
        calls = spy_highs(monkeypatch, lambda res: (status, 7, None, None))
        with pytest.raises(error):
            solve(transportation([1.0, 1.0], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]]))
        assert [run.simplex for run in calls] == ["dual" if method == "simplex" else "primal"]

    @pytest.mark.parametrize("status", [STATUS.kUnboundedOrInfeasible, STATUS.kUnknown, STATUS.kSolveError])
    def test_undecided_status_raises_on_simplex_path(self, monkeypatch, status):
        force_cold(monkeypatch, "primal")
        calls = spy_highs(monkeypatch, lambda res: (status, 7, None, None))
        with pytest.raises(LpError, match=status.name) as info:
            solve(transportation([1.0, 1.0], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]]))
        assert type(info.value) is LpError
        assert [run.simplex for run in calls] == ["primal"]

    @pytest.mark.parametrize("status", [STATUS.kUnboundedOrInfeasible, STATUS.kUnknown, STATUS.kSolveError])
    def test_undecided_status_raises_on_master_path(self, monkeypatch, status):
        # the master's first round ends its attempt
        force_cold(monkeypatch, "master")
        calls = spy_highs(monkeypatch, lambda res: (status, 7, None, None))
        with pytest.raises(LpError, match=status.name) as info:
            solve(transportation([1.0, 1.0], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]]))
        assert type(info.value) is LpError
        assert [run.simplex for run in calls] == ["primal"]

    # optimal runs that fail a check on the LP below, whose optimum is
    # [1, 0, 0, 1]: a primal off the constraints, and row duals of 10, which
    # leave every reduced cost negative
    FAILED_RUNS = {"residual": (np.zeros(4), np.zeros(4)),
                   "reduced-cost": (np.array([1.0, 0.0, 0.0, 1.0]), np.full(4, 10.0))}
    # the typed error and message of each failed check
    CHECK_ERRORS = {"residual": (Infeasible, "violates constraints"), "reduced-cost": (LpError, "reduced cost")}

    @pytest.mark.parametrize("check, error, message", [
        ("residual", Infeasible, "violates constraints"), ("reduced-cost", LpError, "reduced cost"),
        # a band-sized transport LP, smooth_pair(15)'s (225 cells over 44
        # rows), whose residual check reads its own columns' A x: its
        # optimum with one cell's mass raised by 1e-6 misses that cell's
        # mass rows, scaled by 1, by 1e-6
        pytest.param("residual-band", Infeasible, r"violates constraints by 1\.000e-06$", id="residual-band"),
    ])
    def test_failed_check_raises_on_simplex_path(self, monkeypatch, check, error, message):
        def moved(res):
            status, iterations, primal, dual = res
            primal = primal.copy()
            primal[100] += 1e-6
            return status, iterations, primal, dual

        force_cold(monkeypatch, "primal")
        if check == "residual-band":
            lp = Solver(s := smooth_pair(15)).lp(MotProblem(s, forward_start_straddle(), "lower"))
            calls = spy_highs(monkeypatch, moved)
        else:
            lp = transportation([1.0, 1.0], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
            calls = spy_highs(monkeypatch, lambda res: (STATUS.kOptimal, 7, *self.FAILED_RUNS[check]))
        with pytest.raises(error, match=message) as info:
            solve(lp)
        assert type(info.value) is error
        assert [run.simplex for run in calls] == ["primal"]

    @pytest.mark.parametrize("check", ["residual", "reduced-cost"])
    def test_failed_check_raises_on_master_path(self, monkeypatch, check):
        # a master seeded with every column, whose primal-simplex runs return
        # optima that fail the check: a primal of zeros (the artificials
        # included), or row duals of 10; the first run fixes the
        # artificials, the second ends the attempt, which raises
        def corrupt(res):
            status, iterations, primal, dual = res
            if check == "residual":
                primal = np.zeros_like(primal)
            else:
                dual = np.full_like(dual, 10.0)
            return status, iterations, primal, dual

        lp = transportation([1.0, 1.0], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        force_cold(monkeypatch, "master")
        calls = spy_highs(monkeypatch, corrupt)
        session = Session(lp.constraints, seed=every_column)
        error, message = self.CHECK_ERRORS[check]
        with pytest.raises(error, match=message) as info:
            solve(lp, session=session)
        assert type(info.value) is error
        assert [run.simplex for run in calls] == ["primal", "primal"]
        assert calls[1].model is calls[0].model
        assert not session.warm


class TestSession:
    """Later solves on a session change only the costs and restart the
    primal simplex from the last optimal basis, under the same checks."""

    LP = transportation([1.0, 1.0], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])

    def test_warm_solves_match_cold(self, monkeypatch):
        rng = np.random.default_rng(3)
        base = random_transportation(rng)
        session = Session(base.constraints)
        calls = spy_highs(monkeypatch)
        for trial in range(10):
            lp = LinearProgram(sense="max" if trial % 3 else "min", cost=rng.normal(size=base.n_cols),
                               constraints=base.constraints)
            assert session.warm_for(lp) == (trial > 0)
            warm = solve(lp, session=session)
            assert calls[-1].simplex == "primal"
            cold = solve(lp)
            assert abs(warm.objective - cold.objective) <= 1e-12 * (1.0 + abs(cold.objective))
            check_solution_invariants(lp, warm)
        assert all(run.model is calls[0].model for run in calls[::2])

    def test_change_of_sense_at_interior_point_size_starts_cold(self, monkeypatch):
        force_cold(monkeypatch, "master")
        session = Session(self.LP.constraints)
        flipped = LinearProgram("max", self.LP.cost, self.LP.constraints)
        calls = spy_highs(monkeypatch)
        warm, models = [], []
        for lp in (self.LP, self.LP, flipped, flipped):
            warm.append(session.warm_for(lp))
            solve(lp, session=session)
            models.append(calls[-1].model)
        assert warm == [False, True, False, True]
        assert {run.simplex for run in calls} == {"primal"}
        assert models[1] is models[0] and models[3] is models[2]
        assert models[2] is not models[0]

    def test_constraints_must_match(self):
        session = Session(self.LP.constraints)
        solve(self.LP, session=session)
        other = transportation([1.0, 1.0], [0.5, 1.5], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="session's constraints"):
            solve(other, session=session)
        # equal arrays are not enough: the LP must share the constraints object
        twin = transportation([1.0, 1.0], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="session's constraints"):
            solve(twin, session=session)

    @pytest.mark.parametrize("check", ["residual", "reduced-cost"])
    def test_failed_warm_check_raises_and_next_solve_is_cold(self, monkeypatch, check):
        session = Session(self.LP.constraints)
        solve(self.LP, session=session)
        primal, dual = TestStatusMapping.FAILED_RUNS[check]
        error, message = TestStatusMapping.CHECK_ERRORS[check]
        calls = spy_highs(monkeypatch, lambda res: (STATUS.kOptimal, 7, primal, dual))
        with pytest.raises(error, match=message) as info:
            solve(self.LP, session=session)
        assert type(info.value) is error
        assert [run.simplex for run in calls] == ["primal"]
        first = calls[0].model
        monkeypatch.undo()
        calls = spy_highs(monkeypatch)
        assert not session.warm
        assert not session.warm_for(self.LP)
        solve(self.LP, session=session)
        assert [run.simplex for run in calls] == ["primal"]
        assert calls[0].model is not first

    def test_failed_warm_status_raises_and_next_solve_is_cold(self, monkeypatch):
        # a warm run that stops at the iteration limit raises at once, with
        # no second run, and frees the model
        session = Session(self.LP.constraints)
        solve(self.LP, session=session)
        calls = spy_highs(monkeypatch, lambda res: (STATUS.kIterationLimit, 7, None, None))
        with pytest.raises(IterationLimit):
            solve(self.LP, session=session)
        assert [run.simplex for run in calls] == ["primal"]
        first = calls[0].model
        monkeypatch.undo()
        calls = spy_highs(monkeypatch)
        assert not session.warm
        assert not session.warm_for(self.LP)
        solve(self.LP, session=session)
        assert [run.simplex for run in calls] == ["primal"]
        assert calls[0].model is not first


    def test_master_from_an_optimal_basis_takes_no_pivot(self, monkeypatch):
        # support's optimum, artificials priced in, is the optimum of a
        # master on the same columns and costs, so its first run stops at once
        force_cold(monkeypatch, "master")
        support, start = Session(self.LP.constraints, seed=every_column).support(self.LP)
        assert start[0].size + start[1].size == self.LP.n_rows
        session = Session(self.LP.constraints, seed=lambda lp: (np.arange(lp.n_cols), start))
        calls = spy_highs(monkeypatch)
        sol = solve(self.LP, session=session)
        assert calls[0].result[1] == 0
        assert sol.objective == pytest.approx(solve(self.LP).objective, rel=1e-12, abs=1e-15)

    def test_rejected_start_basis_raises_and_next_solve_is_cold(self, monkeypatch):
        # a change of sense starts a new master, from a basis one column
        # short, which HiGHS rejects; the next master starts from its artificials
        force_cold(monkeypatch, "master")
        every, rows = np.arange(self.LP.n_cols), np.arange(self.LP.n_rows)
        seeds = [(every, (every[:0], rows)), (every, (every[:0], rows[1:])), (every, None)]
        session = Session(self.LP.constraints, seed=lambda lp: seeds.pop(0))
        flipped = LinearProgram("max", self.LP.cost, self.LP.constraints)
        solve(self.LP, session=session)
        with pytest.raises(LpError, match="rejected the start basis"):
            solve(flipped, session=session)
        assert not session.warm
        calls = spy_highs(monkeypatch)
        assert not session.warm_for(flipped)
        sol = solve(flipped, session=session)
        assert not seeds
        assert [run.simplex for run in calls] == ["primal", "primal"]
        assert sol.objective == pytest.approx(solve(flipped).objective, rel=1e-12, abs=1e-15)


BASIC = highs.HighsBasisStatus.kBasic


def status_basis(master) -> tuple[np.ndarray, np.ndarray]:
    """``master``'s basis as :meth:`_Master.basis` gives it, read instead
    from HiGHS's per-column and per-row status lists."""
    basis = master.model.getBasis()
    cols = np.array([s == BASIC for s in basis.col_status], dtype=bool)
    rows = np.array([s == BASIC for s in basis.row_status], dtype=bool)
    rows[:master.n_art] |= cols[:master.n_art]
    return master.cols[cols[master.n_art:]], np.flatnonzero(rows)


def reference_model(lp: LinearProgram, cols: np.ndarray, artificial: bool):
    """The model of ``_Master(lp, lp.cost, cols, artificial)`` built as
    one ``HighsLp``, field by field, and passed whole: the scaled LP, each
    row divided by the power of two at or above its largest |coefficient|
    and the costs by the one at or above the largest |cost|."""
    n_art = lp.n_rows if artificial else 0
    n = n_art + cols.size
    start, index, value = lp.constraints.columns(cols)
    row_scale, scale = scales(lp, lp.cost)
    model = highs.HighsLp()
    model.num_col_, model.num_row_ = n, lp.n_rows
    big = lp_mod.ARTIFICIAL_COST * (1.0 + float(np.abs(lp.cost).max()) / scale)
    model.col_cost_ = np.concatenate((np.full(n_art, big), lp.cost[cols] / scale))
    model.col_lower_ = np.zeros(n)
    model.col_upper_ = np.full(n, highs.kHighsInf)
    model.row_lower_ = model.row_upper_ = lp.rhs * row_scale
    a = model.a_matrix_
    a.format_ = highs.MatrixFormat.kColwise
    a.num_col_, a.num_row_ = n, lp.n_rows
    a.start_ = np.concatenate((np.arange(n_art), n_art + start)).tolist()
    a.index_ = np.concatenate((np.arange(n_art), index)).tolist()
    a.value_ = np.concatenate((np.where(lp.rhs[:n_art] < 0.0, -1.0, 1.0), value * row_scale[index]))
    run = highs._Highs()
    run.setOptionValue("output_flag", False)
    assert run.passModel(model) == highs.HighsStatus.kOk
    return run.getLp()


class TestModelIO:
    """A model reaches HiGHS as its rows, then one ``addCols`` of its
    artificial columns and one of its LP columns, its basis comes back
    through ``getBasicVariables``, and a model with artificial columns and
    no start basis starts with them basic."""

    # a negative rhs gives its artificial coefficient -1
    LP = dense_lp([[1.0, 1.0, 0.0, 2.0], [1.0, -1.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0]],
                  [2.0, -1.0, 1.5], [1.0, 3.0, -2.0, 0.5])

    @pytest.mark.parametrize("artificial", [True, False], ids=["artificials", "none"])
    @pytest.mark.parametrize("cols", [[0, 1, 2, 3], [1, 3]], ids=["every", "some"])
    def test_model_equals_a_highs_lp_reference(self, artificial, cols):
        cols = np.array(cols, dtype=np.int64)
        got = lp_mod._Master(self.LP, self.LP.cost, cols, artificial).model.getLp()
        want = reference_model(self.LP, cols, artificial)
        for name in ("num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_", "row_lower_",
                     "row_upper_", "sense_", "offset_"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for name in ("format_", "num_col_", "num_row_", "start_", "index_", "value_"):
            assert np.array_equal(getattr(got.a_matrix_, name), getattr(want.a_matrix_, name)), name
        assert got.num_col_ == cols.size + (self.LP.n_rows if artificial else 0)

    def test_master_without_a_seed_basis_starts_from_its_artificials(self):
        cols = np.array([1, 3], dtype=np.int64)
        master = lp_mod._Master(self.LP, self.LP.cost, cols, True)
        basis = master.model.getBasis()
        assert basis.valid
        assert [s == BASIC for s in basis.col_status] == [True] * self.LP.n_rows + [False] * cols.size
        assert not any(s == BASIC for s in basis.row_status)
        np.testing.assert_array_equal(master.basis()[1], np.arange(self.LP.n_rows))
        assert master.basis()[0].size == 0

    def test_basis_equals_the_status_lists(self, monkeypatch):
        # a band model of every column after a cold solve, a seeded master
        # (and its seed's model) between its rounds, and a model completed
        # from a master
        band = Solver(s := widening_dates(0.1, 9)).lp(MotProblem(s, asian_call(1.0, 3), "lower"))
        session = Session(band.constraints)
        solve(band, session=session)
        assert session._master.full
        models = [session._master]
        seen = []
        entering = lp_mod._Master._entering

        def record(master, *args):
            seen.append((master.basis(), status_basis(master), master.n_art))
            return entering(master, *args)

        monkeypatch.setattr(lp_mod._Master, "_entering", record)
        solver = Solver(s := smooth_pair(51))
        solve(solver.lp(MotProblem(s, forward_start_straddle(), "lower")), session=solver.new_session())
        monkeypatch.undo()
        # the coarse support's model, then the fine master's rounds
        assert sum(n_art == solver.constraints.rhs.size for _, _, n_art in seen) > 2
        solver = Solver(s := widening_dates(0.1, 15))
        lp = solver.lp(MotProblem(s, asian_call(1.0, 3), "lower"))
        solve(lp, session=solver.session)
        solve(lp, session=solver.session)
        assert solver.session._master.full
        models.append(solver.session._master)
        pairs = [(got, want) for got, want, _ in seen] + [(m.basis(), status_basis(m)) for m in models]
        for (cols, rows), (want_cols, want_rows) in pairs:
            assert cols.dtype == want_cols.dtype and rows.dtype == want_rows.dtype
            np.testing.assert_array_equal(cols, want_cols)
            np.testing.assert_array_equal(rows, want_rows)

    def test_support_on_a_band_lp_gives_a_basis_highs_accepts(self):
        # support's band model holds every column after the artificials, as
        # does a master seeded with every column, which then starts at an
        # optimum and takes no pivot
        lp = Solver(s := widening_dates(0.1, 9)).lp(MotProblem(s, asian_call(1.0, 3), "upper"))
        assert lp_mod._cold_method(lp.n_cols, lp.n_rows) == "primal"
        support, (cols, rows) = Session(lp.constraints).support(lp)
        assert cols.size + rows.size == lp.n_rows
        assert np.all(np.isin(support, cols))
        cost = -lp.cost
        master = lp_mod._Master(lp, cost, np.arange(lp.n_cols), True, (cols, rows))
        basis = master.model.getBasis()
        assert sum(s == BASIC for s in (*basis.col_status, *basis.row_status)) == lp.n_rows
        status, iterations, _, _ = lp_mod._run_highs(master.model)
        assert (status, iterations) == (highs.HighsModelStatus.kOptimal, 0)


class TestSmallCoefficients:
    """HiGHS sees each row scaled to a largest |coefficient| in (1/2, 1], so
    no coefficient of a system priced in small units falls under its floor
    of 1e-12, and the bounds are the same in any unit.  Before the rows were
    scaled, the lower bound at 1e-11 read 0.340252, not 0.350531, and both
    read 0.766 at 1e-13, each with a hedge that verified."""

    @pytest.mark.parametrize("sense", ["lower", "upper"])
    def test_bounds_scale_with_the_atoms(self, sense):
        base = smooth_pair(15)
        values = {}
        for scale in (1.0, 1e-13, 1e-11, 1e-9, 1e-8, 1e-6, 1e-3, 1e3, 1e4):
            system = MarginalSystem([DiscreteMeasure(mu.points * scale, mu.weights) for mu in base.marginals])
            res = bound(MotProblem(system, forward_start_straddle(), sense))
            assert res.report.valid, scale
            values[scale] = res.value / scale
        for scale, value in values.items():
            assert abs(value - values[1.0]) <= 1e-10 * abs(values[1.0]), scale


class TestUnitFree:
    """HiGHS gets each LP's rows and costs divided by powers of two, so an LP
    whose rows are multiplied by powers of two, and its costs by one, 2^j,
    is the same model to HiGHS: the same primal bits and pivots, and each
    row's dual scaled by exactly 2^(j - k) where the row was by 2^k, cold
    and warm, on either path."""

    @pytest.mark.parametrize("method", ["primal", "master"])
    @pytest.mark.parametrize("make", [
        lambda: Solver(s := smooth_pair(21)).lp(MotProblem(s, forward_start_straddle(), "lower")),
        lambda: Solver(s := widening_dates(0.1, 7)).lp(MotProblem(s, lookback_call(1.0, 3), "upper")),
        lambda: TestModelIO.LP,
    ], ids=["smooth21", "3date-m7", "negative-rhs"])
    def test_powers_of_two_map_exactly(self, monkeypatch, method, make):
        force_cold(monkeypatch, method)
        lp = make()
        c = lp.constraints
        k = np.random.default_rng(5).integers(-60, 61, size=lp.n_rows)
        rows, cols, vals = triples(c)
        # from three dates on, a transport source reprices a master's
        # histories without mass at their envelopes, which a Constraints of
        # its triples does not: there the scaled LP is on the same source,
        # its rows at their own scales (k = 0), and only its costs scale
        same = method == "master" and isinstance(c, TransportColumns) and len(c.shape) > 2
        if same:
            k = np.zeros_like(k)
        for j in (-30, 7):
            scaled = c if same else Constraints(rows, cols, np.ldexp(vals, k[rows]), np.ldexp(c.rhs, k), c.n_cols,
                                                c.group)
            sessions = Session(c), Session(scaled)
            for sense in (lp.sense, "max" if lp.sense == "min" else "min"):
                pair = LinearProgram(sense, lp.cost, c), LinearProgram(sense, np.ldexp(lp.cost, j), scaled)
                assert sessions[1].warm_for(pair[1]) == sessions[0].warm_for(pair[0])
                base, sol = (solve(one, session=session) for one, session in zip(pair, sessions))
                assert sol.iterations == base.iterations
                assert sol.primal.tobytes() == base.primal.tobytes()
                assert sol.dual.tobytes() == np.ldexp(base.dual, j - k).tobytes()
                assert sol.objective == math.ldexp(base.objective, j)

    def test_constraints_hold_the_row_scales(self):
        # a power of two scales to 1, an empty row keeps 1
        c = Constraints(np.array([0, 0, 1, 2]), np.array([0, 1, 0, 1]), np.array([3.0, -0.25, 4.0, 1e-300]),
                        np.array([6.0, -8.0, 1e-300, 5.0]), 2)
        assert c.row_scale.tolist() == [0.25, 0.25, 2.0 ** 996, 1.0]
        assert not c.row_scale.flags.writeable
        # a model's rows are the rhs times the scales
        lp = LinearProgram("min", np.ones(2), c)
        model = lp_mod._Master(lp, lp.cost, np.arange(2), True).model.getLp()
        assert list(model.row_lower_) == list(model.row_upper_) == [1.5, -2.0, 2.0 ** 996 * 1e-300, 5.0]


def linprog_answer(lp: LinearProgram):
    """``solve``'s primal, dual and iterations on an LP that one cold HiGHS
    run by the dual simplex solves, computed through
    ``scipy.optimize.linprog``'s ``highs-ds`` with the same options on the
    same scaled model, whose row duals map back by the two scales."""
    flip = lp.sense == "max"
    cost = -lp.cost if flip else lp.cost
    row_scale, scale = scales(lp, cost)
    res = optimize.linprog(cost / scale, A_eq=sp.diags(row_scale) @ csr(lp), b_eq=lp.rhs * row_scale,
                           bounds=(0, None), method="highs-ds",
                           options={"presolve": False, "maxiter": lp_mod.MAX_ITER,
                                    "primal_feasibility_tolerance": lp_mod.HIGHS_TOL,
                                    "dual_feasibility_tolerance": lp_mod.HIGHS_TOL})
    assert res.status == 0, res.message
    dual = res.eqlin.marginals * (scale * row_scale)
    return np.clip(res.x, 0.0, None), -dual if flip else dual, res.nit + res.crossover_nit


class TestLinprogOracle:
    """``solve`` calls HiGHS as ``linprog`` does, so both give the same
    answer to the last bit once ``linprog`` gets the same scaled model.  ``linprog`` has no primal simplex, so each LP
    here is solved in one run on every column by the dual simplex (see
    :func:`dual_simplex`), on the model ``solve`` builds for the primal
    simplex, with only ``simplex_strategy`` changed."""

    @pytest.mark.parametrize("make", [
        lambda: transportation([1.0, 2.0, 3.0], [2.0, 2.0, 2.0], np.arange(9, dtype=float).reshape(3, 3), "max"),
        lambda: Solver(s := smooth_pair(21)).lp(MotProblem(s, forward_start_straddle(), "lower")),
        lambda: Solver(s := smooth_pair(41)).lp(MotProblem(s, forward_start_straddle(), "upper")),
        # the interior point's crossover stopped unfinished on this LP
        lambda: Solver((p := unfinished_crossover_problem()).system).lp(p),
        # a 3-date lookback LP on which a simplex clean-up pivot followed the
        # interior point's crossover
        lambda: Solver(s := widening_dates(float.fromhex("0x1.a96e83cf3778ap-4"), 15)).lp(
            MotProblem(s, lookback_call(float.fromhex("0x1.055dae3d19384p+0"), 3), "upper")),
    ], ids=["small", "smooth21-simplex", "smooth41-ipm", "unfinished-crossover", "crossover-cleanup"])
    def test_bit_identical_to_linprog(self, monkeypatch, make):
        dual_simplex(monkeypatch)
        force_cold(monkeypatch, "primal")
        lp = make()
        primal, dual, iterations = linprog_answer(lp)
        calls = spy_highs(monkeypatch)
        sol = solve(lp)
        assert [run.simplex for run in calls] == ["dual"]
        assert sol.primal.tobytes() == primal.tobytes()
        assert sol.dual.tobytes() == dual.tobytes()
        assert sol.iterations == iterations


def run_python(code: str, *path: Path) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports motbound from this
    checkout, with ``path`` ahead of it on ``sys.path``."""
    src = Path(lp_mod.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (*path, src))))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


class TestBindingLoad:
    """``motbound.lp`` loads scipy's HiGHS binding from its extension file,
    so ``scipy.optimize`` and what it imports never load unless a caller
    imports them, and every import of the binding yields one module.  Nor
    does ``fractions``, which only the tests' exact oracle uses."""

    def test_import_loads_no_scipy_optimize(self):
        run = run_python(
            "import sys\n"
            "import motbound\n"
            "from motbound.fixtures import smooth_pair\n"
            "from motbound.payoff import forward_start_straddle\n"
            "result = motbound.bound(motbound.MotProblem(smooth_pair(15), forward_start_straddle(), 'lower'))\n"
            "print([m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.sparse', 'fractions') if m in sys.modules])\n"
            "print(result.value.hex())\n")
        assert run.returncode == 0, run.stderr
        assert run.stdout.split("\n")[:2] == [
            "[]", bound(MotProblem(smooth_pair(15), forward_start_straddle(), "lower")).value.hex()]

    def test_scipy_imports_get_the_loaded_binding(self):
        run = run_python(
            "import motbound.lp as lp\n"
            "from scipy.optimize._highspy import _core\n"
            "import scipy.optimize._highspy._core as h\n"
            "from scipy.optimize import linprog\n"
            "res = linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method='highs')\n"
            "print(_core is lp.highs, h is lp.highs, res.status, res.fun)\n")
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["True", "True", "0", "1.0"]

    def test_binding_loaded_by_scipy_first_is_reused(self):
        run = run_python(
            "import sys\n"
            "import scipy.optimize\n"
            "import motbound.lp as lp\n"
            "print(lp.highs is sys.modules['scipy.optimize._highspy._core'])\n")
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["True"]

    def test_missing_binding_names_the_directory(self, tmp_path):
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        run = run_python("import motbound\n", tmp_path)
        assert run.returncode != 0
        where = tmp_path / "scipy" / "optimize" / "_highspy"
        assert f"ImportError: no HiGHS binding _core in {where} (scipy of unknown version)" in run.stderr
