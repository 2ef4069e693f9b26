"""MOT assembly and bounds: LP shape, reference values, invariants."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import motbound.hedge as hedge_mod
import motbound.lp as lp_mod
import motbound.mot as mot
import motbound.payoff as payoff_mod
from motbound.errors import (DegenerateDual, DimensionMismatch, Infeasible, LpError, NotAdmissible,
                             ScaleExceeded)
from motbound.fixtures import (counterexample_value, instance_a_marginals,
                               instance_b_payoff, smooth_pair)
from motbound.hedge import hedge_to_json, price as hedge_price, slackness
from motbound.measures import (DensitySpec, DiscreteMeasure, MarginalSystem,
                               counterexample_marginals, detect_barriers, discretize)
from motbound.mot import (Coupling, MotProblem, Solver, bound, decompose_and_solve,
                          random_feasible_coupling, strike_sweep, surface_csv,
                          verification_grids)
from motbound.payoff import (asian_call, custom, forward_start_call,
                             forward_start_straddle, lookback_call, negated_straddle,
                             tabulated)

import sweep
from constraints import Constraints, triples
from exact import solve_exact

RESIDUAL_TOL = 1e-9
GAP_TOL = 1e-7


def dirac(x: float) -> DiscreteMeasure:
    return DiscreteMeasure(np.array([x]), np.array([1.0]))


def forced_system() -> MarginalSystem:
    return MarginalSystem([dirac(0.0),
                           DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))])


def three_date_system() -> MarginalSystem:
    return MarginalSystem([
        DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
        DiscreteMeasure(np.array([-2.0, 0.0, 2.0]), np.array([0.25, 0.5, 0.25])),
        DiscreteMeasure(np.array([-3.0, -1.0, 1.0, 3.0]),
                        np.array([0.125, 0.375, 0.375, 0.125])),
    ])


def check_result_invariants(problem: MotProblem, res) -> None:
    assert res.coupling.max_marginal_residual(problem.system) <= RESIDUAL_TOL
    assert res.coupling.max_martingale_residual() <= RESIDUAL_TOL
    assert abs(res.coupling.masses.sum() - 1.0) <= RESIDUAL_TOL
    p = hedge_price(res.hedge, problem.system)
    assert abs(res.value - p) <= GAP_TOL * (1.0 + abs(res.value))
    assert res.report.valid


class TestBuildLp:
    def test_forced_shape(self):
        system = forced_system()
        lp = Solver(system).lp(MotProblem(system, forward_start_straddle(), "lower"))
        assert lp.n_cols == 2
        assert lp.n_rows == 3

    def test_instance_a_shape(self):
        system = instance_a_marginals()
        lp = Solver(system).lp(MotProblem(system, forward_start_straddle(), "lower"))
        assert lp.n_cols == 6
        assert lp.n_rows == 6

    def test_three_date_marting_row_count(self):
        sys3 = MarginalSystem([
            DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
            DiscreteMeasure(np.array([-2.0, 2.0]), np.array([0.5, 0.5])),
            DiscreteMeasure(np.array([-3.0, 3.0]), np.array([0.5, 0.5])),
        ])
        lp = Solver(sys3).lp(MotProblem(sys3, asian_call(0.0, 3), "lower"))
        assert lp.n_cols == 8
        # marginal rows 2 + 1 + 1, martingale rows 2 (j=1) + 4 (j=2)
        assert lp.n_rows == 4 + 2 + 4

    def test_rows_follow_history_order(self):
        # 2, 3 and 4 atoms: a reshape with the axes swapped would misplace cells
        system = three_date_system()
        lp = Solver(system).lp(MotProblem(system, asian_call(0.0, 3), "lower"))
        grids = [mu.points for mu in system.marginals]
        shape = tuple(g.size for g in grids)
        cells = list(np.ndindex(*shape))  # one column per cell, row-major
        expected, rhs = [], []
        for i, mu in enumerate(system.marginals):
            for k in range(shape[i]):
                if i > 0 and k == np.argmax(mu.weights):  # dropped: the (first) heaviest atom
                    continue
                expected.append([float(c[i] == k) for c in cells])
                rhs.append(mu.weights[k])
        for j in range(len(shape) - 1):
            for hist in np.ndindex(*shape[: j + 1]):
                expected.append([grids[j + 1][c[j + 1]] - grids[j][c[j]] if c[: j + 1] == hist
                                 else 0.0 for c in cells])
                rhs.append(0.0)
        rows, cols, vals = triples(lp.constraints)
        a = np.zeros((lp.n_rows, lp.n_cols))
        np.add.at(a, (rows, cols), vals)
        np.testing.assert_array_equal(a, expected)
        assert vals.size == np.count_nonzero(expected)
        np.testing.assert_array_equal(lp.rhs, rhs)

    def test_not_admissible_rejected(self):
        bad = MarginalSystem([DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
                              dirac(0.0)])
        with pytest.raises(NotAdmissible):
            MotProblem(bad, forward_start_straddle(), "lower")

    def test_payoff_dates_must_match(self):
        with pytest.raises(DimensionMismatch):
            MotProblem(forced_system(), asian_call(0.0, 3), "lower")


def cubed_spread(system: MarginalSystem):
    """(s_2 - s_1)^3 tabulated on the atoms: a payoff with no last-axis
    data, so its hedge is not widened and is checked on the atoms alone."""
    g1, g2 = (mu.points for mu in system.marginals)
    return tabulated([g1, g2], (g2[None, :] - g1[:, None]) ** 3)


# (name, system, payoff of the system): the branches of a bound's frame
FRAME_CASES = [
    ("straddle", lambda: smooth_pair(15), lambda s: forward_start_straddle()),
    # kinks off the atoms, then on atoms and their rounding twins
    ("call0.97", lambda: smooth_pair(15), lambda s: forward_start_call(0.97)),
    ("call1.0", lambda: smooth_pair(15), lambda s: forward_start_call(1.0)),
    # two kinks per history on one axis
    ("lookback2", lambda: smooth_pair(15), lambda s: lookback_call(0.1)),
    ("tabulated", lambda: smooth_pair(15), cubed_spread),
    ("asian3", three_date_system, lambda s: asian_call(0.0, 3)),
    ("lookback3", three_date_system, lambda s: lookback_call(0.5, 3)),
]


def frame_problem(case, sense: str) -> MotProblem:
    _, system, payoff = case
    system = system()
    return MotProblem(system, payoff(system), sense)


def count_calls(monkeypatch, owner, name: str, calls: list) -> None:
    """Record ``name`` in ``calls`` whenever ``owner.name`` is called."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


class TestOneLayoutPerBound:
    @pytest.mark.parametrize("system, payoff", [
        (instance_a_marginals, forward_start_straddle),
        (three_date_system, lambda: asian_call(0.0, 3)),
    ], ids=["two_dates", "three_dates"])
    def test_layout_and_grids_built_once(self, system, payoff, monkeypatch):
        # the bound widens and checks its hedge on the solver's atoms, so it
        # builds no verification grids
        calls = []
        for name in ("_layout", "verification_grids"):
            count_calls(monkeypatch, mot, name, calls)
        bound(MotProblem(system(), payoff(), "lower"))
        assert calls == ["_layout"]

    def test_sweep_builds_per_system_parts_once(self, monkeypatch):
        # 11 strikes, 22 bounds: one layout, one history grid and one set of
        # transport columns for the whole sweep, whose model of every column
        # prices on those columns and builds no copy of them, no
        # verification grids, and one read of the payoff's last-axis data per
        # bound (its widening and its check share one frame)
        calls = []
        for name in ("_layout", "_histories", "verification_grids"):
            count_calls(monkeypatch, mot, name, calls)
        count_calls(monkeypatch, Constraints, "__post_init__", calls)
        count_calls(monkeypatch, mot.TransportColumns, "__init__", calls)
        count_calls(monkeypatch, payoff_mod, "last_axis", calls)
        table = strike_sweep(smooth_pair(9), np.linspace(0.9, 1.1, 11))
        assert all(row.ok for row in table.rows)
        assert sorted(c for c in calls if c != "last_axis") == ["__init__", "_histories", "_layout"]
        assert calls.count("last_axis") <= 22

    def test_one_public_extraction_per_bound(self, monkeypatch):
        # bound reads its hedge through the public name, which tracers wrap
        calls = []
        count_calls(monkeypatch, mot, "extract_hedge", calls)
        bound(MotProblem(instance_a_marginals(), forward_start_straddle(), "lower"))
        assert calls == ["extract_hedge"]
        calls.clear()
        table = strike_sweep(smooth_pair(9), np.linspace(0.9, 1.1, 11))
        assert all(row.ok for row in table.rows)
        assert calls == ["extract_hedge"] * 22

    @pytest.mark.parametrize("sense", ["lower", "upper"])
    def test_public_extraction_matches_bound(self, sense):
        # a bound reads its certificate on one frame of the atoms; the public
        # functions, given plain grids and no frame, give the same bits
        for case in FRAME_CASES:
            problem = frame_problem(case, sense)
            res = bound(problem)
            grids = [mu.points.copy() for mu in problem.system.marginals]
            assert (dataclasses.asdict(hedge_mod.verify(res.hedge, problem.payoff, grids))
                    == dataclasses.asdict(res.report)), case[0]
            diag = res.diagnostics
            assert diag.max_slackness_violation == slackness(res.hedge, res.coupling, problem.payoff), case[0]
            assert diag.duality_gap == abs(res.value - hedge_price(res.hedge, problem.system)), case[0]
            # the same LP on a new solver, solved as the bound solves it
            solver = Solver(problem.system)
            sol = mot.solve(solver.lp(problem), session=solver.session)
            assert hedge_to_json(mot.extract_hedge(sol, problem, solver)) == hedge_to_json(res.hedge), case[0]


class TestKeptFrame:
    """A solver keeps the frame of the last payoff it served: the two senses
    of a payoff and a surface after its bound read one, a bound for another
    payoff replaces it, and its payoff table is at most one chunk."""

    def test_both_senses_build_one_frame(self, monkeypatch):
        calls = []
        count_calls(monkeypatch, payoff_mod, "last_axis", calls)
        outcome, = Solver(smooth_pair(9)).bounds([forward_start_straddle()])
        assert sorted(outcome) == ["lower", "upper"]
        assert all(res.report.valid for res in outcome.values())
        assert calls == ["last_axis"]

    @pytest.mark.parametrize("case", FRAME_CASES, ids=[c[0] for c in FRAME_CASES])
    def test_shared_frame_gives_the_bits_of_a_fresh_one(self, case, monkeypatch):
        # each sense's LP solution, read on a new solver's frame and on
        # plain grids, gives the hedge and report of the shared frame
        solved = []
        real_solve = mot._solve

        def recording(lp, session):
            solved.append(real_solve(lp, session))
            return solved[-1]

        monkeypatch.setattr(mot, "_solve", recording)
        problem = frame_problem(case, "lower")
        outcome, = Solver(problem.system).bounds([problem.payoff])
        assert len(solved) == 2
        for (sense, res), sol in zip(outcome.items(), solved):
            one = MotProblem(problem.system, problem.payoff, sense)
            hedge = mot.extract_hedge(sol, one, Solver(problem.system))
            assert hedge_to_json(hedge) == hedge_to_json(res.hedge), (case[0], sense)
            grids = [mu.points.copy() for mu in problem.system.marginals]
            assert (dataclasses.asdict(hedge_mod.verify(res.hedge, problem.payoff, grids))
                    == dataclasses.asdict(res.report)), (case[0], sense)

    def test_surface_after_bound_builds_no_frame(self, monkeypatch):
        problem = MotProblem(smooth_pair(15), forward_start_call(0.95), "lower")
        solver = Solver(problem.system)
        res = bound(problem, solver=solver)
        fresh = surface_csv(problem, res, Solver(problem.system))
        calls = []
        count_calls(monkeypatch, mot, "_Frame", calls)
        count_calls(monkeypatch, payoff_mod, "last_axis", calls)
        assert surface_csv(problem, res, solver) == fresh
        assert calls == []

    def test_another_payoff_replaces_the_frame(self):
        system = smooth_pair(9)
        first, second = forward_start_call(0.95), forward_start_call(1.05)
        solver = Solver(system)
        bound(MotProblem(system, first, "lower"), solver=solver)
        kept = solver.frame(first)
        bound(MotProblem(system, second, "lower"), solver=solver)
        assert solver.frame(second).payoff is second
        assert solver.frame(first) is not kept

    @pytest.mark.parametrize("chunk_cells", [hedge_mod.CHUNK_CELLS, 64, 1])
    @pytest.mark.parametrize("case", FRAME_CASES, ids=[c[0] for c in FRAME_CASES])
    def test_kept_table_fits_one_chunk(self, case, chunk_cells, monkeypatch):
        monkeypatch.setattr(hedge_mod, "CHUNK_CELLS", chunk_cells)
        problem = frame_problem(case, "lower")
        solver = Solver(problem.system)
        solver.bounds([problem.payoff])
        frame = solver.frame(problem.payoff)
        cells = frame.size * frame.points.size
        if cells <= chunk_cells:
            assert frame.table.shape == (frame.size, frame.points.size)
        else:
            assert frame.table is None


class TestBoundsSenses:
    @pytest.mark.parametrize("senses, named", [
        (("sideways",), "got {'sideways'}"),
        (("lower", "up"), "'up'"),
        ("lower", "got 'lower'$"),
    ])
    def test_bounds_name_a_bad_sense_before_any_solve(self, senses, named):
        solved = []
        with pytest.raises(ValueError, match=named):
            Solver(instance_a_marginals()).bounds([forward_start_straddle()], senses,
                                                  lambda problem, solver: solved.append(problem))
        assert solved == []


class TestCouplingGridMatch:
    def test_grid_off_the_atoms_by_a_relative_5e_6_is_rejected(self):
        system = smooth_pair(9)
        coupling = bound(MotProblem(system, forward_start_straddle(), "lower")).coupling
        assert coupling.max_marginal_residual(system) <= RESIDUAL_TOL
        scaled = Coupling(tuple(g * (1.0 + 5e-6) for g in coupling.grids),
                          coupling.indices, coupling.masses)
        with pytest.raises(DimensionMismatch, match="does not match the marginal atoms"):
            scaled.max_marginal_residual(system)


class TestForcedInstance:
    def test_value_and_hedge(self):
        problem = MotProblem(forced_system(), forward_start_straddle(), "lower")
        res = bound(problem)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert hedge_price(res.hedge, problem.system) == pytest.approx(1.0, abs=1e-9)
        # subhedge binds on both support cells
        for cell in ([0.0, -1.0], [0.0, 1.0]):
            assert res.hedge.evaluate(cell) == pytest.approx(1.0, abs=1e-9)
        check_result_invariants(problem, res)


class TestReferenceInstances:
    @pytest.mark.parametrize("sense", ["lower", "upper"])
    def test_instance_a_float(self, sense):
        problem = MotProblem(instance_a_marginals(), forward_start_straddle(), sense)
        res = bound(problem)
        assert res.value == pytest.approx(7.0 / 6.0, abs=1e-9)
        check_result_invariants(problem, res)

    def test_instance_a_exact(self):
        for sense in ("lower", "upper"):
            system = instance_a_marginals()
            lp = Solver(system).lp(MotProblem(system, forward_start_straddle(), sense))
            assert solve_exact(lp).objective == Fraction(7, 6)

    def test_instance_b(self):
        system = instance_a_marginals()
        payoff = instance_b_payoff()
        lo = bound(MotProblem(system, payoff, "lower"))
        hi = bound(MotProblem(system, payoff, "upper"))
        assert lo.value == pytest.approx(0.25, abs=1e-9)
        assert hi.value == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert solve_exact(Solver(system).lp(MotProblem(system, payoff, "lower"))).objective == Fraction(1, 4)
        assert solve_exact(Solver(system).lp(MotProblem(system, payoff, "upper"))).objective == Fraction(1, 3)
        # subhedge price equals the bound; equality on the optimal support
        assert hedge_price(lo.hedge, system) == pytest.approx(0.25, abs=1e-9)
        assert slackness(lo.hedge, lo.coupling, payoff) <= 1e-9

    def test_three_dates_against_exact(self):
        sys3 = three_date_system()
        for payoff in (asian_call(0.0, 3), asian_call(0.5, 3)):
            for sense in ("lower", "upper"):
                problem = MotProblem(sys3, payoff, sense)
                res = bound(problem)
                ex = solve_exact(Solver(sys3).lp(problem))
                assert res.value == pytest.approx(ex.objective, abs=1e-9)
                check_result_invariants(problem, res)


class TestGaugeAndIdentities:
    def test_constant_shift(self):
        system = instance_a_marginals()
        grids = [m.points for m in system.marginals]
        base = tabulated(grids, np.abs(grids[1][None, :] - grids[0][:, None]))
        shifted = tabulated(grids, np.abs(grids[1][None, :] - grids[0][:, None]) + 1.0)
        for sense in ("lower", "upper"):
            v0 = bound(MotProblem(system, base, sense)).value
            v1 = bound(MotProblem(system, shifted, sense)).value
            assert v1 == pytest.approx(v0 + 1.0, abs=1e-9)

    def test_straddle_equals_twice_atm_call(self):
        system = instance_a_marginals()
        for sense in ("lower", "upper"):
            straddle = bound(MotProblem(system, forward_start_straddle(), sense)).value
            call = bound(MotProblem(system, forward_start_call(1.0), sense)).value
            assert straddle == pytest.approx(2.0 * call, abs=1e-9)


def spread_pair(seed: int, m: int) -> MarginalSystem:
    """Uniform first date and a wider trapezoid of the same mean, seeded."""
    rng = np.random.default_rng(seed)
    c, a = rng.uniform(0.9, 1.1), rng.uniform(0.15, 0.25)
    plateau, tail = rng.uniform(0.7, 1.0), rng.uniform(0.8, 1.2)
    xs = [c - a * (1 + tail), c - a * plateau, c + a * plateau, c + a * (1 + tail)]
    return MarginalSystem([discretize(DensitySpec.uniform(c - a, c + a), m),
                           discretize(DensitySpec.piecewise_linear(xs, [0.0, 1.0, 1.0, 0.0]), m)])


AXIS_CASES = [
    *[(system, payoff) for system in (lambda: smooth_pair(15), lambda: spread_pair(3, 15))
      for payoff in (lambda: forward_start_call(0.9), lambda: forward_start_call(1.0),
                     lambda: forward_start_call(1.1), forward_start_straddle, negated_straddle)],
    (lambda: widening_dates(0.1, 7), lambda: asian_call(1.0, 3)),
    (lambda: widening_dates(0.1, 7), lambda: lookback_call(1.0, 3)),
]
AXIS_IDS = [f"{s}-{p}" for s in ("smooth15", "spread15")
            for p in ("call0.9", "call1.0", "call1.1", "straddle", "negated")] + ["asian3", "lookback3"]


class TestFinalAxis:
    @pytest.mark.parametrize("sense", ["lower", "upper"])
    @pytest.mark.parametrize("system, payoff", AXIS_CASES, ids=AXIS_IDS)
    def test_atoms_and_kinks_suffice(self, system, payoff, sense):
        problem = MotProblem(system(), payoff(), sense)
        res = bound(problem)
        atoms = [mu.points for mu in problem.system.marginals]
        histories = np.meshgrid(*atoms[:-1], indexing="ij")
        kinks = np.concatenate([np.ravel(np.broadcast_to(k, histories[0].shape)) for k in
                                payoff_mod.last_axis(problem.payoff, *histories).kinks])
        # u_n bends only at the last date's atoms and the payoff's kinks
        assert np.all(np.isin(res.hedge.statics[-1].knots, np.concatenate([atoms[-1], kinks])))
        # and the hedge holds on a finer axis: every date's atoms, their
        # midpoints, zero and the kinks, for every history
        joint = np.unique(np.concatenate(atoms))
        fine = np.unique(np.concatenate([joint, 0.5 * (joint[:-1] + joint[1:]), [0.0], kinks]))
        paths = np.column_stack([np.repeat(h.ravel(), fine.size) for h in histories]
                                + [np.tile(fine, histories[0].size)])
        phi = payoff_mod.evaluate_last_axis(problem.payoff, paths[:, :-1].T, paths[:, -1])
        sign = 1.0 if sense == "lower" else -1.0
        gap = sign * (res.hedge.evaluate(paths) - phi)
        assert gap.max() <= res.report.max_violation + 1e-12


class TestAugmentedKnots:
    @pytest.mark.parametrize("sense", ["lower", "upper"])
    def test_no_rounding_twins(self, sense):
        # the straddle's kinks are the date-1 atoms, some a few ulps from
        # date-2 atoms on smooth_pair(15): the verification grid keeps
        # both, u_2 does not
        def spaced(x):
            x = np.sort(x)
            return bool(np.all(np.diff(x) > 1e-12 * (1.0 + np.abs(x[1:]))))

        problem = MotProblem(smooth_pair(15), forward_start_straddle(), sense)
        res = bound(problem)
        assert not spaced(verification_grids(problem)[-1])
        assert spaced(res.hedge.statics[-1].knots)
        for portfolio in hedge_to_json(res.hedge)["portfolios"]:
            assert spaced([leg["strike"] for leg in portfolio["legs"]])


class TestSweep:
    def test_instance_a_k1(self):
        table = strike_sweep(instance_a_marginals(), [1.0])
        row = table.rows[0]
        assert row.lower == pytest.approx(7.0 / 12.0, abs=1e-9)
        assert row.upper == pytest.approx(7.0 / 12.0, abs=1e-9)

    def test_lower_below_upper_everywhere(self):
        table = strike_sweep(instance_a_marginals(),
                             [0.5 + 0.1 * i for i in range(11)])
        assert len(table.rows) == 11
        for row in table.rows:
            assert row.ok
            assert row.lower <= row.upper + 1e-9

    def test_far_strike_vanishes_on_positive_grid(self):
        system = counterexample_marginals(2, 4)
        table = strike_sweep(system, [10.0])
        assert table.rows[0].lower == pytest.approx(0.0, abs=1e-9)
        assert table.rows[0].upper == pytest.approx(0.0, abs=1e-9)

    def test_csv_shape(self):
        table = strike_sweep(instance_a_marginals(), [0.9, 1.1])
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "strike,lower,upper,status"
        assert len(lines) == 3

    def test_one_model_per_sweep(self, passed_models):
        strike_sweep(smooth_pair(12), [0.9, 0.95, 1.0, 1.05, 1.1])
        assert len(passed_models) == 1

    def test_failed_lower_bound_skips_its_upper(self, monkeypatch):
        real_bound = mot.bound
        solved = []

        def failing_bound(problem, **kwargs):
            strike = problem.payoff.params["strike_ratio"]
            solved.append((problem.sense, strike))
            if (problem.sense, strike) == ("lower", 1.0):
                raise DegenerateDual("faked failure")
            return real_bound(problem, **kwargs)

        monkeypatch.setattr(mot, "bound", failing_bound)
        table = strike_sweep(instance_a_marginals(), [0.9, 1.0, 1.1])
        assert solved == [("lower", 0.9), ("lower", 1.0), ("lower", 1.1),
                          ("upper", 0.9), ("upper", 1.1)]
        assert [row.ok for row in table.rows] == [True, False, True]
        assert table.rows[1] == mot.SweepRow(1.0, None, None, "faked failure")
        assert table.to_csv().splitlines()[2] == "1,,,faked failure"


def widening_dates(w: float, m: int) -> MarginalSystem:
    return MarginalSystem([discretize(DensitySpec.uniform(1.0 - w * k, 1.0 + w * k), m)
                           for k in (1, 2, 3)])


class TestWarmSolves:
    """Bounds solved on one shared solver, lower bounds first, equal the
    one-shot bounds, and every warm hedge verifies."""

    @pytest.mark.parametrize("system, payoffs", [
        (smooth_pair(21), [forward_start_call(k) for k in np.linspace(0.95, 1.05, 11)]),
        (widening_dates(0.1, 9), [make(k, 3) for make in (asian_call, lookback_call)
                                  for k in (0.95, 1.0, 1.05)]),
    ], ids=["smooth21-calls", "3date-m9-asian-lookback"])
    def test_warm_values_match_cold(self, system, payoffs):
        solver = mot.Solver(system)
        pivots = {"warm": 0, "cold": 0}
        for sense in ("lower", "upper"):
            for po in payoffs:
                problem = MotProblem(system, po, sense)
                warm = bound(problem, solver=solver)
                cold = bound(problem)
                assert warm.value == pytest.approx(cold.value, rel=1e-12, abs=1e-15)
                assert warm.report.valid
                assert warm.diagnostics.extras["solve_attempts"] == 1
                check_result_invariants(problem, warm)
                pivots["warm"] += warm.diagnostics.extras["lp_iterations"]
                pivots["cold"] += cold.diagnostics.extras["lp_iterations"]
        assert solver.session.warm
        assert pivots["warm"] < pivots["cold"]

    @pytest.mark.parametrize("m, cold_method", [(21, "primal"), (41, "primal"),
                                                (pytest.param(51, "master", id="51-ipm"))])
    def test_change_of_sense_starts_cold_at_interior_point_size(self, monkeypatch, passed_models, m,
                                                                cold_method):
        # 441 and 1,681 cells (primal simplex cold) restart the upper bound
        # from the lower optimum on the same model, so build none; 2,601
        # cells over 152 rows, above the primal band, solve it on a new
        # master, as a one-shot bound does
        solver = mot.Solver(smooth_pair(m))
        problem = {sense: MotProblem(solver.system, forward_start_straddle(), sense)
                   for sense in ("lower", "upper")}
        bound(problem["lower"], solver=solver)
        del passed_models[:]
        upper = bound(problem["upper"], solver=solver)
        assert (passed_models == []) == (cold_method == "primal")
        monkeypatch.undo()
        cold = bound(problem["upper"])
        assert upper.value == pytest.approx(cold.value, rel=1e-12, abs=1e-15)
        if cold_method == "master":
            assert upper.value == cold.value
            assert upper.diagnostics.extras == cold.diagnostics.extras
            for a, b in zip(upper.hedge.statics, cold.hedge.statics):
                np.testing.assert_array_equal(a.values, b.values)

    def test_every_lower_bound_before_any_upper_bound(self, monkeypatch):
        real_bound = mot.bound
        solved = []
        monkeypatch.setattr(mot, "bound", lambda problem, **kwargs: solved.append(
            (problem.sense, problem.payoff.kind)) or real_bound(problem, **kwargs))
        solver = Solver(smooth_pair(9))
        outcomes = solver.bounds([forward_start_straddle(), forward_start_call(1.0)], ("upper", "lower"))
        assert solved == [("lower", "forward_start_straddle"), ("lower", "forward_start_call"),
                          ("upper", "forward_start_straddle"), ("upper", "forward_start_call")]
        assert [list(outcome) for outcome in outcomes] == [["lower", "upper"]] * 2
        assert all(res.report.valid for outcome in outcomes for res in outcome.values())

    def test_an_error_is_returned_and_skips_its_upper_bound(self):
        # the three-date payoff fails on two dates, the straddle still solves
        solver = Solver(smooth_pair(9))
        bad, good = solver.bounds([asian_call(1.0, 3), forward_start_straddle()])
        assert list(bad) == ["lower"] and isinstance(bad["lower"], DimensionMismatch)
        assert good["lower"].value <= good["upper"].value
        assert solver.bounds([forward_start_straddle()], ["upper"])[0]["upper"].value == \
            pytest.approx(good["upper"].value, rel=1e-12)

    def test_three_date_asian_strikes_match_one_shot_bounds(self):
        system = widening_dates(0.1, 9)
        payoffs = [asian_call(k, 3) for k in (0.95, 1.0, 1.05)]
        for payoff, outcome in zip(payoffs, Solver(system).bounds(payoffs)):
            for sense, res in outcome.items():
                problem = MotProblem(system, payoff, sense)
                assert res.value == pytest.approx(bound(problem).value, rel=1e-12, abs=1e-15)
                check_result_invariants(problem, res)

    def test_problem_on_another_system_is_rejected(self):
        solver = mot.Solver(instance_a_marginals())
        with pytest.raises(ValueError, match="not the solver's"):
            bound(MotProblem(smooth_pair(5), forward_start_straddle(), "lower"), solver=solver)

    def test_hedge_and_grids_reject_a_solver_of_another_system(self):
        # unchecked, a solver of the atoms scaled by 1.5 gives u_1 its own
        # knots: -1.33, -1.0, -0.67 instead of the atoms -0.89, -0.67, -0.44
        system = smooth_pair(9)
        scaled = Solver(MarginalSystem([DiscreteMeasure(mu.points * 1.5, mu.weights)
                                        for mu in system.marginals]))
        problem = MotProblem(system, forward_start_straddle(), "lower")
        sol = mot.solve(Solver(system).lp(problem))
        with pytest.raises(ValueError, match="not the solver's"):
            mot.extract_hedge(sol, problem, scaled)
        with pytest.raises(ValueError, match="not the solver's"):
            verification_grids(problem, scaled)


class TestColumnGeneration:
    """Above the primal band a cold solve is a column-generation master
    seeded from the halved system's LP."""

    @staticmethod
    def force_cold(monkeypatch, method):
        monkeypatch.setattr(lp_mod, "_cold_method", lambda n_cols, n_rows: method)

    @pytest.mark.parametrize("system, payoff", [
        (smooth_pair(45), forward_start_straddle()),
        (smooth_pair(101), forward_start_call(1.02)),
        (widening_dates(0.1, 21), asian_call(1.0, 3)),
        (widening_dates(0.1, 21), lookback_call(1.05, 3)),
    ], ids=["smooth45-straddle", "smooth101-call", "3date-m21-asian", "3date-m21-lookback"])
    def test_values_match_a_full_primal_simplex_solve(self, monkeypatch, system, payoff):
        constraints = Solver(system).constraints
        assert lp_mod._cold_method(constraints.n_cols, constraints.rhs.size) == "master"
        for sense in ("lower", "upper"):
            problem = MotProblem(system, payoff, sense)
            res = bound(problem)
            check_result_invariants(problem, res)
            self.force_cold(monkeypatch, "primal")
            full = bound(problem)
            monkeypatch.undo()
            assert res.value == pytest.approx(full.value, rel=1e-10, abs=1e-15)

    @pytest.mark.parametrize("seed", ["empty", "wrong"])
    def test_any_seed_gives_the_value(self, monkeypatch, seed):
        # "wrong" seeds the master with the anti-diagonal cells, 3 of which
        # carry mass in the optimum's 143
        system = smooth_pair(61)
        problem = MotProblem(system, forward_start_straddle(), "lower")
        seeded = bound(problem)
        m = len(system.marginals[0])
        cells = {"empty": np.empty(0, dtype=np.int64), "wrong": np.arange(m) * m + (m - 1 - np.arange(m))}
        monkeypatch.setattr(mot._Seed, "__call__", lambda self, lp: (cells[seed], None))
        res = bound(problem)
        check_result_invariants(problem, res)
        assert res.value == pytest.approx(seeded.value, rel=1e-12, abs=1e-15)

    def test_seed_from_a_halved_system_that_loses_convex_order(self, monkeypatch):
        # the halved counterexample is not in convex order, so the coarse LP
        # keeps artificial mass; its support is still a seed
        system = counterexample_marginals(5, 16)
        problem = MotProblem(system, negated_straddle(), "lower")
        full = bound(problem)
        self.force_cold(monkeypatch, "master")
        solver = Solver(system)
        assert not solver.session.seed.coarse[0].system.admissible
        cells, start = solver.session.seed(solver.lp(problem))
        assert cells.size > 0 and start is not None
        res = bound(problem, solver=solver)
        check_result_invariants(problem, res)
        assert res.value == pytest.approx(full.value, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("system, payoff", [
        (smooth_pair(101), forward_start_straddle()),
        (widening_dates(0.1, 15), asian_call(1.0, 3)),
        (widening_dates(0.1, 31), asian_call(1.0, 3)),
    ], ids=["smooth101", "3date-m15", "3date-m31"])
    def test_seed_basis_is_a_start_that_highs_accepts(self, system, payoff):
        # the coarse optimal basis mapped to this LP: n_rows basic columns,
        # the LP's among the seed's cells, the rest artificials, which make
        # a nonsingular basis; the master holds it for its first run
        solver = Solver(system)
        lp = solver.lp(MotProblem(system, payoff, "lower"))
        cells, (cols, rows) = solver.session.seed(lp)
        assert cols.size + rows.size == lp.n_rows
        assert np.isin(cols, cells).all() and np.unique(cols).size == cols.size
        assert np.unique(rows).size == rows.size and rows.min() >= 0 and rows.max() < lp.n_rows
        start, index, value = solver.constraints.columns(cols)
        basis = sp.csc_matrix((np.concatenate((value, np.ones(rows.size))), np.concatenate((index, rows)),
                               np.concatenate((start, start[-1] + np.arange(1, rows.size + 1)))),
                              shape=(lp.n_rows, lp.n_rows))
        assert np.abs(splu(basis).U.diagonal()).min() > 1e-3  # splu raises on an exactly singular one
        master = lp_mod._Master(lp, lp.cost, np.unique(cells), True, solver.layout.shape[-1], (cols, rows))
        status = master.model.getBasis().col_status
        assert sum(s == lp_mod.highs.HighsBasisStatus.kBasic for s in status) == lp.n_rows

    @pytest.mark.parametrize("system, payoff", [
        (smooth_pair(101), forward_start_straddle()),
        (widening_dates(0.1, 15), asian_call(1.0, 3)),
    ], ids=["smooth101-straddle", "3date-m15-asian"])
    def test_start_basis_cuts_the_pivots(self, monkeypatch, system, payoff):
        # the same seeds with every level's start dropped: the master's
        # first run then starts from its artificials
        problem = MotProblem(system, payoff, "lower")
        started = bound(problem)
        seed_call = mot._Seed.__call__
        monkeypatch.setattr(mot._Seed, "__call__", lambda self, lp: (seed_call(self, lp)[0], None))
        dropped = bound(problem)
        check_result_invariants(problem, started)
        pivots = [res.diagnostics.extras["lp_iterations"] for res in (started, dropped)]
        assert pivots[0] < pivots[1]
        assert started.value == pytest.approx(dropped.value, rel=1e-12, abs=1e-15)

    def test_marginals_without_a_coupling_raise_infeasible(self):
        # the dates swapped: the wider law first, so no martingale links them
        mu1, mu2 = smooth_pair(51).marginals
        solver = Solver(MarginalSystem([mu2, mu1]))
        lp = lp_mod.LinearProgram("min", np.zeros(solver.constraints.n_cols), solver.constraints)
        assert lp_mod._cold_method(lp.n_cols, lp.n_rows) == "master"
        # MotProblem refuses these marginals, so the LP reaches _solve directly
        with pytest.raises(Infeasible, match="the transport LP is infeasible at FEAS_TOL = 1e-09: "
                                             "optimum violates constraints by "):
            mot._solve(lp, solver.session)
        assert not solver.session.warm

    def test_warm_same_sense_solve_adds_no_artificial(self):
        system = smooth_pair(51)
        solver = Solver(system)
        rows = solver.constraints.rhs.size
        bound(MotProblem(system, forward_start_straddle(), "lower"), solver=solver)
        master = solver.session._master
        assert master.fixed and master.n_art == rows
        columns = master.cols.size
        res = bound(MotProblem(system, forward_start_call(1.0), "lower"), solver=solver)
        assert res.report.valid
        assert solver.session._master is master
        assert master.n_art == rows and master.cols.size >= columns
        assert master.model.getNumCol() == rows + master.cols.size

    def test_two_runs_are_bit_identical(self):
        system = smooth_pair(101)
        results = []
        for _ in range(2):
            solver = Solver(system)
            results.append([bound(MotProblem(system, forward_start_straddle(), sense), solver=solver)
                            for sense in ("lower", "upper")])
        for a, b in zip(*results):
            assert a.value.hex() == b.value.hex()
            assert hedge_to_json(a.hedge) == hedge_to_json(b.hedge)
            assert a.diagnostics.extras == b.diagnostics.extras


class TestRandomCoupling:
    def test_instance_a_family(self):
        system = instance_a_marginals()
        seen = set()
        for seed in range(12):
            q = random_feasible_coupling(system, seed)
            assert q.max_marginal_residual(system) <= RESIDUAL_TOL
            assert q.max_martingale_residual() <= RESIDUAL_TOL
            # the feasible family is parametrized by q(-1,-2) = a/2, a in [1/2, 2/3]
            mass = 0.0
            for idx, m in zip(q.indices, q.masses):
                if q.grids[0][idx[0]] == -1.0 and q.grids[1][idx[1]] == -2.0:
                    mass += m
            assert 0.25 - 1e-9 <= mass <= 1.0 / 3.0 + 1e-9
            seen.add(round(mass, 12))
        assert len(seen) > 1  # the endpoints differ across seeds

    def test_forced_instance_unique(self):
        system = forced_system()
        base = random_feasible_coupling(system, 0)
        for seed in (1, 7, 123):
            q = random_feasible_coupling(system, seed)
            np.testing.assert_allclose(q.masses, base.masses, atol=1e-12)

    def test_deterministic_per_seed(self):
        system = instance_a_marginals()
        a = random_feasible_coupling(system, 42)
        b = random_feasible_coupling(system, 42)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.masses, b.masses)

    def test_on_a_shared_solver_leaves_its_session_alone(self):
        # above the primal band: the coupling's LP runs on a seeded master of its own
        system = smooth_pair(51)
        runs = []
        for share in (True, False):
            solver = Solver(system)
            bound(MotProblem(system, forward_start_straddle(), "lower"), solver=solver)
            q = random_feasible_coupling(system, 7, solver=solver if share else None)
            later = bound(MotProblem(system, forward_start_call(1.0), "lower"), solver=solver)
            runs.append((q, later))
        (q, later), (q_alone, later_alone) = runs
        np.testing.assert_array_equal(q.indices, q_alone.indices)
        np.testing.assert_array_equal(q.masses, q_alone.masses)
        assert later.value.hex() == later_alone.value.hex()
        assert hedge_to_json(later.hedge) == hedge_to_json(later_alone.hedge)
        with pytest.raises(ValueError, match="not the solver's"):
            random_feasible_coupling(instance_a_marginals(), 7, solver=solver)


class TestSandwich:
    def test_instance_a(self):
        system = instance_a_marginals()
        payoff = instance_b_payoff()
        lo = bound(MotProblem(system, payoff, "lower")).value
        hi = bound(MotProblem(system, payoff, "upper")).value
        for seed in range(10):
            q = random_feasible_coupling(system, seed)
            e = q.expectation(payoff)
            assert lo - 1e-7 <= e <= hi + 1e-7


class TestDecompose:
    def test_counterexample_value(self):
        system = counterexample_marginals(3, 8)
        problem = MotProblem(system, negated_straddle(), "lower")
        res = decompose_and_solve(problem)
        closed = counterexample_value(3)
        assert abs(res.value - closed) <= 0.1 * abs(closed)
        check_result_invariants(problem, res)
        incr = res.diagnostics.extras.get("delta_increments")
        assert incr is not None and len(incr) == 3
        assert np.all(np.isfinite(incr))

    def test_matches_monolithic(self):
        system = counterexample_marginals(3, 6)
        for payoff in (negated_straddle(), forward_start_straddle()):
            problem = MotProblem(system, payoff, "lower")
            assert decompose_and_solve(problem).value == \
                pytest.approx(bound(problem).value, abs=1e-9)

    def test_equal_marginals_identity_coupling(self):
        mu = DiscreteMeasure(np.array([0.0, 1.0, 3.0]), np.array([0.5, 0.25, 0.25]))
        system = MarginalSystem([mu, mu])
        payoff = custom(lambda s: s[0] * s[1], n=2)
        res = decompose_and_solve(MotProblem(system, payoff, "lower"))
        expected = float(np.dot(mu.weights, mu.points ** 2))
        assert res.value == pytest.approx(expected, abs=1e-9)
        paths = res.coupling.paths()
        assert np.allclose(paths[:, 0], paths[:, 1])

    def test_instance_a_single_block(self):
        problem = MotProblem(instance_a_marginals(), forward_start_straddle(), "lower")
        assert decompose_and_solve(problem).value == \
            pytest.approx(bound(problem).value, abs=1e-12)

    def test_rejects_three_dates(self):
        with pytest.raises(DimensionMismatch):
            decompose_and_solve(MotProblem(three_date_system(), asian_call(0.0, 3), "lower"))

    def test_one_solve_and_block_values_sum_to_value(self, monkeypatch):
        solve = mot.solve
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(mot, "solve", counting_solve)
        system = counterexample_marginals(3, 8)
        res = decompose_and_solve(MotProblem(system, negated_straddle(), "lower"))
        assert len(calls) == 1
        masses = [block.mass for block in detect_barriers(*system.marginals).blocks]
        block_values = res.diagnostics.extras["block_values"]
        assert len(block_values) == len(masses) == 4  # three barriers plus the residual block
        assert abs(float(np.dot(masses, block_values)) - res.value) <= 1e-12

    def test_barriers_detected_once(self, monkeypatch):
        detect = mot.detect_barriers
        calls = []

        def counting_detect(*args, **kwargs):
            calls.append(1)
            return detect(*args, **kwargs)

        monkeypatch.setattr(mot, "detect_barriers", counting_detect)
        res = decompose_and_solve(MotProblem(counterexample_marginals(3, 8), negated_straddle(), "lower"))
        assert len(calls) == 1
        assert len(res.diagnostics.extras["delta_increments"]) == 3

    def test_bound_and_sweep_scan_no_barriers(self, monkeypatch):
        detect = mot.detect_barriers
        calls = []

        def counting_detect(*args, **kwargs):
            calls.append(1)
            return detect(*args, **kwargs)

        monkeypatch.setattr(mot, "detect_barriers", counting_detect)
        system = counterexample_marginals(3, 8)
        problem = MotProblem(system, negated_straddle(), "lower")
        assert "delta_increments" not in bound(problem).diagnostics.extras
        strike_sweep(system, [0.9, 1.1])
        assert calls == []
        res = decompose_and_solve(problem)
        assert res.diagnostics.extras["delta_increments"] == pytest.approx([2.0] * 3, abs=1e-12)


class TestInfeasibleDiscretization:
    def test_remediation_hint(self):
        # each martingale row's one coefficient is ±2e-10, which its scale
        # makes ±0.86, so a half mass misses the row by 0.43, far above
        # FEAS_TOL, and HiGHS finds the LP infeasible
        eps = 2e-10
        mu1 = DiscreteMeasure(np.array([-eps, eps]), np.array([0.5, 0.5]))
        system = MarginalSystem([mu1, dirac(0.0)])
        assert system.admissible  # violation hides below the order tolerance
        problem = MotProblem(system, forward_start_straddle(), "lower")
        with pytest.raises(Infeasible, match=r"^the marginals pass the convex-order check \(to ORDER_TOL = 1e-10\), "
                                             r"but the transport LP is infeasible at FEAS_TOL = 1e-09: "
                                             r"HiGHS model status kInfeasible$"):
            bound(problem)


class TestExports:
    def test_coupling_csv(self):
        res = bound(MotProblem(forced_system(), forward_start_straddle(), "lower"))
        lines = res.coupling.to_csv().strip().splitlines()
        assert lines[0] == "s_1,s_2,mass"
        assert len(lines) == 1 + len(res.coupling.masses)

    def test_surface_csv(self):
        problem = MotProblem(instance_a_marginals(), forward_start_straddle(), "lower")
        res = bound(problem)
        grids = verification_grids(problem)
        lines = surface_csv(problem, res).strip().splitlines()
        assert lines[0] == "s1,s2,psi,phi,phi_minus_psi"
        assert len(lines) == 1 + grids[0].size * grids[1].size
        # a lower hedge never exceeds the payoff anywhere on the grid
        for line in lines[1:]:
            gap = float(line.split(",")[-1])
            assert gap >= -1e-8


class TestChunkSize:
    """A chunk of one cell walks the histories one at a time, so a bound's
    frame keeps no payoff table; no bit of a hedge, a report, the
    diagnostics or a surface may change."""

    @pytest.mark.parametrize("system, payoff", [
        (lambda: smooth_pair(15), forward_start_straddle),
        (three_date_system, lambda: asian_call(0.0, 3)),
    ], ids=["two_dates", "three_dates"])
    @pytest.mark.parametrize("sense", ["lower", "upper"])
    def test_extracted_hedge(self, system, payoff, sense, monkeypatch):
        problem = MotProblem(system(), payoff(), sense)
        solver = Solver(problem.system)
        sol = mot.solve(solver.lp(problem))
        default = hedge_to_json(mot.extract_hedge(sol, problem, solver))
        monkeypatch.setattr(hedge_mod, "CHUNK_CELLS", 1)
        assert hedge_to_json(mot.extract_hedge(sol, problem, solver)) == default

    @pytest.mark.parametrize("case", FRAME_CASES, ids=[c[0] for c in FRAME_CASES])
    @pytest.mark.parametrize("sense", ["lower", "upper"])
    def test_bound(self, case, sense, monkeypatch):
        problem = frame_problem(case, sense)

        def result():
            res = bound(problem)
            return hedge_to_json(res.hedge), dataclasses.asdict(res.report), res.diagnostics.to_json()

        default = result()
        monkeypatch.setattr(hedge_mod, "CHUNK_CELLS", 1)
        assert result() == default

    def test_surface_csv(self, monkeypatch):
        problem = MotProblem(smooth_pair(15), forward_start_call(0.95), "lower")
        res = bound(problem)
        default = surface_csv(problem, res)
        monkeypatch.setattr(hedge_mod, "CHUNK_CELLS", 1)
        assert surface_csv(problem, res) == default


class TestSmoothInstanceSmall:
    def test_m51_brackets_third(self):
        system = smooth_pair(51)
        problem = MotProblem(system, forward_start_straddle(), "lower")
        res = bound(problem)
        assert res.value == pytest.approx(1.0 / 3.0, abs=2e-2)
        assert res.value >= 1.0 / 3.0 - 1e-9  # discrete value dominates the continuum limit here
        check_result_invariants(problem, res)


class TestDualChecks:
    def test_gap_tolerance_is_enforced(self, monkeypatch):
        # the solver may close the gap exactly, so price the hedge a known
        # amount above the bound
        problem = MotProblem(smooth_pair(21), forward_start_straddle(), "upper")
        value = bound(problem).value
        monkeypatch.setattr(mot, "hedge_price", lambda hedge, system: value + 1e-9)
        res = bound(problem)
        gap = res.diagnostics.duality_gap
        assert gap > 0.0
        scale = 1.0 + abs(res.value)
        monkeypatch.setattr(mot, "GAP_TOL", 2.0 * gap / scale)
        assert bound(problem).value == res.value
        monkeypatch.setattr(mot, "GAP_TOL", 0.5 * gap / scale)
        with pytest.raises(DegenerateDual) as err:
            bound(problem)
        msg = str(err.value)
        assert mot.fmt12(res.value) in msg
        assert mot.fmt12(value + 1e-9) in msg

    def test_decompose_gap_tolerance_is_enforced(self, monkeypatch):
        problem = MotProblem(counterexample_marginals(3, 8), negated_straddle(), "lower")
        res = decompose_and_solve(problem)
        gap = res.diagnostics.duality_gap
        assert gap > 0.0
        monkeypatch.setattr(mot, "GAP_TOL", 0.5 * gap / (1.0 + abs(res.value)))
        with pytest.raises(DegenerateDual, match="duality gap"):
            decompose_and_solve(problem)

    def test_invalid_hedge_raises_after_one_solve(self, monkeypatch):
        solve, verify = mot.solve, mot.verify
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        def failing_verify(*args, **kwargs):
            return dataclasses.replace(verify(*args, **kwargs), max_violation=1.0)

        monkeypatch.setattr(mot, "solve", counting_solve)
        monkeypatch.setattr(mot, "verify", failing_verify)
        with pytest.raises(DegenerateDual, match="INVALID"):
            bound(MotProblem(instance_a_marginals(), forward_start_straddle(), "lower"))
        assert len(calls) == 1


    def test_plain_bound_is_one_attempt(self):
        res = bound(MotProblem(instance_a_marginals(), forward_start_straddle(), "lower"))
        assert res.diagnostics.extras["solve_attempts"] == 1

    def test_warm_dual_failing_the_hedge_check_is_solved_cold_once(self, monkeypatch):
        system, payoff = instance_a_marginals(), instance_b_payoff()
        solver = mot.Solver(system)
        bound(MotProblem(system, payoff, "lower"), solver=solver)
        solve, verify = mot.solve, mot.verify
        sessions, reports = [], []

        def spying_solve(lp, **kwargs):
            sessions.append(kwargs["session"])
            return solve(lp, **kwargs)

        def failing_first_verify(*args, **kwargs):
            reports.append(verify(*args, **kwargs))
            return dataclasses.replace(reports[-1], max_violation=1.0) if len(reports) == 1 else reports[-1]

        monkeypatch.setattr(mot, "solve", spying_solve)
        monkeypatch.setattr(mot, "verify", failing_first_verify)
        problem = MotProblem(system, payoff, "upper")
        res = bound(problem, solver=solver)
        # the cold re-solve runs on a new session built like the solver's
        assert sessions[0] is solver.session and len(sessions) == 2
        assert sessions[1] is not solver.session
        assert sessions[1].constraints is solver.constraints
        assert sessions[1].seed is solver.session.seed
        assert res.diagnostics.extras["solve_attempts"] == 2
        assert res.report.valid
        monkeypatch.undo()
        assert res.value == bound(problem).value


    def test_cold_resolve_above_the_band_starts_from_the_seed(self, monkeypatch):
        # 2,601 cells over 152 rows: a same-sense bound is warm on the
        # master, and its cold re-solve a new master seeded as the first was
        system = smooth_pair(51)
        solver = mot.Solver(system)
        bound(MotProblem(system, forward_start_straddle(), "lower"), solver=solver)
        verify, seed_call = mot.verify, mot._Seed.__call__
        reports, seeded = [], []

        def failing_first_verify(*args, **kwargs):
            reports.append(verify(*args, **kwargs))
            return dataclasses.replace(reports[-1], max_violation=1.0) if len(reports) == 1 else reports[-1]

        def spying_seed(seed, lp):
            seeded.append(seed)
            return seed_call(seed, lp)

        monkeypatch.setattr(mot, "verify", failing_first_verify)
        monkeypatch.setattr(mot._Seed, "__call__", spying_seed)
        problem = MotProblem(system, forward_start_call(1.0), "lower")
        res = bound(problem, solver=solver)
        assert seeded == [solver.session.seed]
        assert res.diagnostics.extras["solve_attempts"] == 2
        assert res.report.valid
        check_result_invariants(problem, res)
        monkeypatch.undo()
        assert res.value == pytest.approx(bound(problem).value, rel=1e-12, abs=1e-15)

    def test_cold_solve_after_a_change_of_sense_is_not_repeated(self, monkeypatch):
        # above the primal band a change of sense starts a new master, so a
        # dual that fails the hedge check there raises after one solve
        monkeypatch.setattr(lp_mod, "_cold_method", lambda n_cols, n_rows: "master")
        system, payoff = instance_a_marginals(), instance_b_payoff()
        solver = mot.Solver(system)
        bound(MotProblem(system, payoff, "lower"), solver=solver)
        assert solver.session.warm
        solve, verify = mot.solve, mot.verify
        sessions = []
        monkeypatch.setattr(mot, "solve", lambda lp, **kwargs: sessions.append(kwargs["session"])
                            or solve(lp, **kwargs))
        monkeypatch.setattr(mot, "verify", lambda *args: dataclasses.replace(verify(*args), max_violation=1.0))
        with pytest.raises(DegenerateDual, match="INVALID"):
            bound(MotProblem(system, payoff, "upper"), solver=solver)
        assert sessions == [solver.session]

    @staticmethod
    def fail_reduced_cost_check(monkeypatch, rows: int, runs: int) -> list:
        """The first ``runs`` HiGHS runs of an LP with ``rows`` rows return
        their optimum with row 0's dual raised by 1, as
        ``test_lp.TestStatusMapping.FAILED_RUNS`` raises every row's: a cell
        at the first atom of date 1 that carries mass then prices at -1, so
        the run fails the reduced-cost check.  Other runs are real.  Returns
        the model of each run of such an LP."""
        models = []
        run_highs = lp_mod._run_highs

        def fake(model):
            status, count, primal, dual = run_highs(model)
            if dual is not None and dual.size == rows:
                if len(models) < runs:
                    dual = dual.copy()
                    dual[0] += 1.0
                models.append(model)
            return status, count, primal, dual

        monkeypatch.setattr(lp_mod, "_run_highs", fake)
        return models

    def test_warm_lp_failing_the_reduced_cost_check_is_solved_cold_once(self, monkeypatch):
        system = smooth_pair(15)
        solver = mot.Solver(system)
        bound(MotProblem(system, forward_start_straddle(), "lower"), solver=solver)
        models = self.fail_reduced_cost_check(monkeypatch, solver.constraints.rhs.size, runs=1)
        problem = MotProblem(system, forward_start_call(1.0), "upper")
        res = bound(problem, solver=solver)
        # the warm run raised and freed the session's model; one cold run
        # on a new session followed
        assert len(models) == 2 and models[1] is not models[0]
        assert not solver.session.warm
        assert res.diagnostics.extras["solve_attempts"] == 2
        check_result_invariants(problem, res)
        monkeypatch.undo()
        assert res.value == bound(problem).value

    @pytest.mark.parametrize("m", [15, pytest.param(51, id="51-master")])
    def test_cold_lp_failing_the_reduced_cost_check_raises_after_one_attempt(self, monkeypatch, m):
        # 225 cells: one primal-simplex run; 2,601 cells over 152 rows: one
        # master's rounds, every one of which fails, after its seed's
        system = smooth_pair(m)
        solver = mot.Solver(system)
        models = self.fail_reduced_cost_check(monkeypatch, solver.constraints.rhs.size, runs=10 ** 6)
        with pytest.raises(LpError, match="reduced cost"):
            bound(MotProblem(system, forward_start_call(1.0), "upper"), solver=solver)
        assert all(model is models[0] for model in models)
        assert len(models) > 1 if m == 51 else len(models) == 1
        assert not solver.session.warm


class TestThreeDateScale:
    def test_asian_call_m25_both_senses(self):
        # both senses raised "basis matrix became singular" under the former
        # dense-inverse simplex
        system = MarginalSystem([discretize(DensitySpec.uniform(1.0 - 0.1 * k, 1.0 + 0.1 * k), 25)
                                 for k in (1, 2, 3)])
        payoff = asian_call(1.0, 3)
        results = {sense: bound(MotProblem(system, payoff, sense)) for sense in ("lower", "upper")}
        for sense, res in results.items():
            check_result_invariants(MotProblem(system, payoff, sense), res)
        lo, hi = results["lower"].value, results["upper"].value
        for seed in range(3):
            e = random_feasible_coupling(system, seed).expectation(payoff)
            assert lo - 1e-7 <= e <= hi + 1e-7


def scaled_system(system: MarginalSystem, unit: float) -> MarginalSystem:
    return MarginalSystem([DiscreteMeasure(mu.points * unit, mu.weights) for mu in system.marginals])


class TestTransportColumns:
    """A transport LP's columns, read off the layout, serve ``lp`` as a
    ``Constraints`` of their own triples (``tests/constraints.py``) does:
    the same columns, row scales and pricing pass to the bit, and A x to
    summation order."""

    @pytest.mark.parametrize("make", [
        lambda: smooth_pair(21),
        # atoms shared across dates: zero martingale coefficients
        instance_a_marginals,
        three_date_system,
        lambda: widening_dates(0.1, 7),
        lambda: MarginalSystem([discretize(DensitySpec.uniform(1.0 - 0.1 * k, 1.0 + 0.1 * k), 5)
                                for k in (1, 2, 3, 4)]),
        lambda: scaled_system(widening_dates(0.1, 7), 1e-13),
        lambda: scaled_system(widening_dates(0.1, 7), 1e4),
    ], ids=["two_dates", "instance_a", "three_dates", "three_dates_m7", "four_dates", "unit1e-13", "unit1e4"])
    def test_same_bits_as_a_constraints_of_its_triples(self, make):
        system = make()
        columns = Solver(system).constraints
        assert isinstance(columns, mot.TransportColumns)
        rows, cols, vals = triples(columns)
        ref = Constraints(rows, cols, vals, columns.rhs, columns.n_cols)
        for name, got in (("rows", rows), ("cols", cols), ("vals", vals)):  # already in column-major order
            assert getattr(ref, name).tobytes() == got.tobytes(), name
        assert columns.vals.tobytes() == vals.tobytes()
        for name in ("rhs", "row_scale", "scaled_rhs"):
            assert getattr(ref, name).tobytes() == getattr(columns, name).tobytes(), name
        # every date after the first drops its heaviest atom's row
        n = system.n_dates
        counts = np.diff(ref.start)
        assert counts.max() <= 2 * n - 1 and (counts < 2 * n - 1).any()
        assert columns.rhs.size == sum(len(mu) for mu in system.marginals) - (n - 1) + sum(
            math.prod(len(mu) for mu in system.marginals[:j + 1]) for j in range(n - 1))
        rng = np.random.default_rng(3)
        for _ in range(5):
            picked = rng.integers(0, columns.n_cols, size=rng.integers(0, 40))
            for got, want in zip(columns.columns(picked), ref.columns(picked)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            y = rng.normal(size=columns.rhs.size) * 10.0 ** rng.integers(-8, 8, size=columns.rhs.size)
            y[rng.random(y.size) < 0.2] = -0.0
            y[rng.random(y.size) < 0.1] = 0.0
            cost = rng.normal(size=columns.n_cols)
            cost[rng.random(cost.size) < 0.3] = -0.0
            assert columns.reduced(cost.copy(), y).tobytes() == ref.reduced(cost, y).tobytes()
            x = rng.random(columns.n_cols) * (rng.random(columns.n_cols) < 0.5)
            size = Constraints(rows, cols, np.abs(vals), columns.rhs, columns.n_cols).times(x)
            assert np.all(np.abs(columns.times(x) - ref.times(x)) <= 1e-14 * size)

    def test_columns_of_every_kind(self):
        # none, repeated, every cell
        columns = Solver(three_date_system()).constraints
        ref = Constraints.of(columns)
        for picked in ([], [5, 5, 0], list(range(columns.n_cols))):
            picked = np.array(picked, dtype=np.int64)
            for got, want in zip(columns.columns(picked), ref.columns(picked)):
                assert got.tobytes() == want.tobytes()

    @staticmethod
    def completed_band_bounds() -> bool:
        """Both senses of a 3-date Asian call at m=15 on one solver: a cold
        master above the cut, then the model of every column it is
        completed into, which the upper bound runs on."""
        solver = Solver(widening_dates(0.1, 15))
        (outcome,) = solver.bounds([asian_call(1.0, 3)])
        return solver.session._master.full and all(isinstance(r, mot.MotResult) for r in outcome.values())

    @pytest.mark.parametrize("run", [
        lambda: bound(MotProblem(smooth_pair(15), forward_start_straddle(), "upper")).report.valid,
        # above the primal band: masters seeded from a coarse solver's
        lambda: all(isinstance(r, mot.MotResult) for outcome in Solver(smooth_pair(51)).bounds(
            [forward_start_straddle()]) for r in outcome.values()),
        lambda: TestTransportColumns.completed_band_bounds(),
        lambda: all(row.ok for row in strike_sweep(smooth_pair(9), [0.95, 1.0, 1.05]).rows),
        lambda: random_feasible_coupling(smooth_pair(51), 0).masses.sum() > 0.0,
    ], ids=["bound", "bounds_master", "bounds_three_dates", "strike_sweep", "random_feasible_coupling"])
    def test_solves_never_build_the_triples(self, run, monkeypatch):
        # vals, every column's values, is the one reader of them all left
        def refuse(self):
            raise AssertionError("the triples were built")

        monkeypatch.setattr(mot.TransportColumns, "vals", property(refuse))
        with pytest.raises(AssertionError, match="the triples were built"):
            Solver(s := smooth_pair(5)).lp(MotProblem(s, forward_start_straddle(), "lower")).vals
        assert run()


class TestScaleCeiling:
    @pytest.mark.parametrize("entry", [
        mot.Solver,
        lambda system: random_feasible_coupling(system, 0),
        lambda system: mot.extract_hedge(lp_mod.LpSolution(np.zeros(1), np.zeros(1), 0.0, 0),
                                         MotProblem(system, asian_call(1.0, 4), "lower")),
    ], ids=["Solver", "random_feasible_coupling", "extract_hedge"])
    def test_over_ceiling_raises_before_assembly(self, entry, monkeypatch):
        # 50**4 = 6.25 M cells, one over a ceiling moved down to them
        system = MarginalSystem([discretize(DensitySpec.uniform(1.0 - 0.1 * k, 1.0 + 0.1 * k), 50)
                                 for k in (1, 2, 3, 4)])
        calls = []
        monkeypatch.setattr(mot, "TransportColumns", lambda *args: calls.append(args))
        monkeypatch.setattr(mot, "MAX_CELLS", 6_249_999)
        with pytest.raises(ScaleExceeded, match="6250000 cells, over the ceiling of 6249999"):
            entry(system)
        assert calls == []

    def test_ceiling_counts_cells(self, monkeypatch):
        # at the ceiling a layout is built; five dates of 50 atoms are over
        # the real one
        system = MarginalSystem([discretize(DensitySpec.uniform(1.0 - 0.1 * k, 1.0 + 0.1 * k), 50)
                                 for k in (1, 2, 3, 4, 5)])
        with pytest.raises(ScaleExceeded, match=f"312500000 cells, over the ceiling of {mot.MAX_CELLS}"):
            mot.Solver(system)
        monkeypatch.setattr(mot, "MAX_CELLS", 6_250_000)
        assert mot.Solver(MarginalSystem(system.marginals[:4])).layout.n_cells == 6_250_000


class TestThreeDateBarriers:
    @pytest.mark.parametrize("payoff", [asian_call(0.9, 3), lookback_call(1.0, 3)],
                             ids=["asian", "lookback"])
    def test_barrier_system_both_senses(self, payoff):
        # histories that cross a barrier carry no mass, but the hedge still
        # needs their deltas to hold there
        ce = counterexample_marginals(3, 6)
        system = MarginalSystem([ce.marginals[0], ce.marginals[1], ce.marginals[1]])
        results = {}
        for sense in ("lower", "upper"):
            problem = MotProblem(system, payoff, sense)
            results[sense] = bound(problem)
            assert results[sense].report.valid
            check_result_invariants(problem, results[sense])
        # one first-date atom per block and mu3 = mu2 leave a single coupling
        assert results["lower"].value == pytest.approx(results["upper"].value, abs=1e-9)


class TestPriceUnit:
    """The transport LP reaches HiGHS free of the price unit (see
    ``motbound.lp``), so a system in any unit gives the same bounds in that
    unit, with about the same pivots."""

    def test_three_date_bounds_scale_with_the_atoms(self):
        # before the LP was scaled, the lookback upper bound took 32,303
        # pivots at 1e4 against 3,342 at 1
        base = widening_dates(0.1, 21)
        results = {}
        for unit in (1.0, 1e-6, 1e-3, 1e3, 1e4):
            system = MarginalSystem([DiscreteMeasure(mu.points * unit, mu.weights) for mu in base.marginals])
            outcomes = Solver(system).bounds([asian_call(unit, 3), lookback_call(unit, 3)])
            results[unit] = [(res.value / unit, res.diagnostics.extras["lp_iterations"], res.report.valid)
                             for outcome in outcomes for res in outcome.values()]
        assert all(len(found) == 4 for found in results.values())
        for unit, found in results.items():
            for (value, pivots, valid), (want, want_pivots, _) in zip(found, results[1.0]):
                assert valid, unit
                assert abs(value - want) <= 1e-10 * abs(want), unit
                assert want_pivots / 2 <= pivots <= 2 * want_pivots, unit


class TestSeededSweep:
    def test_every_bound_verifies_or_is_refused(self):
        # about 40 systems of 2-3 dates (tests/sweep.py) at F = 1e-6..1e4.
        # NotAdmissible is the absolute MEAN_TOL on the means, which can
        # refuse a system from F = 1e4 on; no other outcome is allowed.
        # Where the coupling is unique, the two senses' values differ by
        # rounding, so lower may exceed upper by what GAP_TOL allows
        rng = np.random.default_rng(1)
        for _ in range(40):
            draw = sweep.draw(rng, (-6, 4))
            for outcome in Solver(draw.system).bounds(draw.payoffs):
                for sense, res in outcome.items():
                    if isinstance(res, NotAdmissible):
                        continue
                    assert isinstance(res, mot.MotResult), (draw.unit, sense, res)
                    assert res.report.valid
                    assert res.diagnostics.duality_gap <= GAP_TOL * (1.0 + abs(res.value))
                if len(outcome) == 2:
                    lower, upper = outcome["lower"].value, outcome["upper"].value
                    assert lower <= upper + GAP_TOL * (1.0 + abs(upper)), (draw.unit, lower, upper)
