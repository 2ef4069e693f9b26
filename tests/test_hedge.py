"""Semi-static hedges: call-portfolio rewrite, pricing, verification, arbitrage."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motbound.errors import DimensionMismatch
from motbound.fixtures import (instance_a_marginals, instance_b_payoff, smooth_hedge,
                               smooth_pair, smooth_u1, smooth_u2)
from motbound import hedge as hedge_mod, payoff as payoff_mod
from motbound.hedge import (CallPortfolio, DeltaTable, PiecewiseLinear, SemiStaticHedge,
                            VerificationReport, check_arbitrage, hedge_to_json, price,
                            slackness, to_call_portfolio, verify)
from motbound.measures import DensitySpec, DiscreteMeasure, MarginalSystem, discretize
from motbound.mot import MotProblem, Solver, bound, verification_grids
from motbound.payoff import (asian_call, custom, evaluate, forward_start_call, forward_start_straddle,
                             last_coord_kinks, lookback_call, negated_straddle, tabulated)

KNOT_TOL = 1e-10


def zero_hedge(n: int, atom_grids) -> SemiStaticHedge:
    statics = tuple(PiecewiseLinear([0.0], [0.0], 0.0, 0.0) for _ in range(n))
    deltas = tuple(DeltaTable(tuple(atom_grids[:j + 1]),
                              np.zeros([len(g) for g in atom_grids[:j + 1]]))
                   for j in range(n - 1))
    return SemiStaticHedge(0.0, statics, deltas, "sub")


@st.composite
def piecewise_linears(draw):
    # knots on a 1/8 lattice keep segment slopes tame
    grid = draw(st.lists(st.integers(-80, 80), unique=True, min_size=1, max_size=8))
    knots = np.sort(np.asarray(grid, dtype=float)) / 8.0
    values = np.asarray(
        draw(st.lists(st.integers(-80, 80), min_size=knots.size, max_size=knots.size)),
        dtype=float) / 8.0
    left = draw(st.integers(-40, 40)) / 8.0
    right = draw(st.integers(-40, 40)) / 8.0
    return PiecewiseLinear(knots, values, left, right)


class TestPiecewiseLinear:
    def test_interpolates_and_extrapolates(self):
        u = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 2.0]), -1.0, 0.5)
        assert u(0.5) == pytest.approx(1.0)
        assert u(-2.0) == pytest.approx(2.0)  # 0 + (-1)(-2)
        assert u(3.0) == pytest.approx(3.0)  # 2 + 0.5 * 2

    def test_rejects_bad_knots(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(np.array([1.0, 1.0]), np.array([0.0, 0.0]), 0.0, 0.0)
        with pytest.raises(ValueError):
            PiecewiseLinear(np.array([2.0, 1.0]), np.array([0.0, 0.0]), 0.0, 0.0)
        with pytest.raises(ValueError):
            PiecewiseLinear(np.array([0.0]), np.array([np.inf]), 0.0, 0.0)

    def test_from_samples_wings_continue_end_segments(self):
        u = PiecewiseLinear.from_samples([0.0, 1.0, 3.0], [0.0, 1.0, 0.0])
        assert u.left_slope == pytest.approx(1.0)
        assert u.right_slope == pytest.approx(-0.5)


class TestCallPortfolio:
    def test_single_call(self):
        u = PiecewiseLinear(np.array([1.0]), np.array([0.0]), 0.0, 1.0)
        pf = to_call_portfolio(u, 1)
        assert pf.cash == 0.0
        assert pf.forward == 0.0
        assert pf.legs == ((1.0, 1.0),)

    def test_absolute_value(self):
        u = PiecewiseLinear(np.array([0.0]), np.array([0.0]), -1.0, 1.0)
        pf = to_call_portfolio(u, 1)
        assert pf.cash == 0.0
        assert pf.forward == -1.0
        assert pf.legs == ((0.0, 2.0),)

    def test_smooth_static_reconstruction(self):
        knots = np.linspace(-2.0, 2.0, 51)
        u = PiecewiseLinear.from_samples(knots, smooth_u2(knots))
        pf = to_call_portfolio(u, 2)
        assert 49 <= len(pf.legs) <= 51
        xs = np.union1d(knots, (knots[:-1] + knots[1:]) / 2.0)
        np.testing.assert_allclose(pf(xs), u(xs), atol=KNOT_TOL)

    @settings(max_examples=150, deadline=None)
    @given(piecewise_linears())
    def test_round_trip_everywhere(self, u):
        pf = to_call_portfolio(u, 1)
        probes = np.union1d(u.knots, (u.knots[:-1] + u.knots[1:]) / 2.0)
        probes = np.concatenate([probes, [u.knots[0] - 3.0, u.knots[-1] + 3.0]])
        np.testing.assert_allclose(pf(probes), u(probes), atol=KNOT_TOL)


class TestDeltaTable:
    def test_nearest_lookup_and_default(self):
        table = DeltaTable((np.array([-1.0, 1.0]),), np.array([0.5, 0.0]))
        assert table.at(-0.2) == 0.5
        assert table.at(0.2) == 0.0  # snaps to +1, which holds no position

    def test_rejects_unsorted_atoms(self):
        with pytest.raises(ValueError):
            DeltaTable((np.array([1.0, -1.0]),), np.zeros(2))

    @pytest.mark.parametrize("values", [np.zeros(1), np.zeros(3), np.zeros((2, 1)), 0.0],
                             ids=["short", "long", "two_dim", "scalar"])
    def test_values_must_match_atom_grids(self, values):
        message = f"delta values have shape {np.shape(values)}, atom grids (2,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            DeltaTable((np.array([-1.0, 1.0]),), values)

    def test_rejects_a_dict_of_histories(self):
        with pytest.raises(TypeError):
            DeltaTable((np.array([-1.0, 1.0]),), {(-1,): 1.0})


class TestPrice:
    def test_zero_hedge(self):
        system = instance_a_marginals()
        grids = [m.points for m in system.marginals]
        assert price(zero_hedge(2, grids), system) == 0.0

    def test_identity_static_prices_mean_plus_cash(self):
        mu = DiscreteMeasure(np.array([1.0, 3.0]), np.array([0.25, 0.75]))
        system = MarginalSystem([mu, mu])
        identity = PiecewiseLinear.from_samples([0.0, 4.0], [0.0, 4.0])
        hedge = SemiStaticHedge(0.7, (identity, PiecewiseLinear([0.0], [0.0], 0.0, 0.0)),
                                (DeltaTable((mu.points,), np.zeros(2)),), "sub")
        assert price(hedge, system) == pytest.approx(mu.mean + 0.7)

    def test_closed_form_statics_price_one_third_in_the_limit(self):
        # continuum expectations of the closed-form statics
        s1 = np.linspace(-1.0, 1.0, 20001)
        e1 = np.trapezoid(smooth_u1(s1) * 0.5, s1)
        s2 = np.linspace(-2.0, 2.0, 40001)
        dens = np.minimum(1.0, np.minimum(2.0 + s2, 2.0 - s2)) / 3.0
        e2 = np.trapezoid(smooth_u2(s2) * dens, s2)
        assert e1 == pytest.approx(11.0 / 9.0, abs=1e-6)
        assert e2 == pytest.approx(-8.0 / 9.0, abs=1e-6)
        assert e1 + e2 == pytest.approx(1.0 / 3.0, abs=1e-6)
        # discrete marginals reproduce it up to quantization error
        system = smooth_pair(101)
        hedge = smooth_hedge(system.marginals[0].points, system.marginals[1].points)
        assert price(hedge, system) == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_dimension_mismatch(self):
        system = instance_a_marginals()
        with pytest.raises(DimensionMismatch):
            price(zero_hedge(3, [m.points for m in instance_a_marginals().marginals]
                             + [np.array([0.0])]), system)


class TestVerify:
    def test_zero_hedge_under_nonnegative_payoff(self):
        system = instance_a_marginals()
        grids = [m.points for m in system.marginals]
        report = verify(zero_hedge(2, grids), forward_start_straddle(), grids)
        assert report.valid
        assert report.max_violation == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_hedge_on_dense_grid(self):
        g1 = np.linspace(-1.0, 1.0, 401)
        g2 = np.linspace(-2.0, 2.0, 401)
        hedge = smooth_hedge(g1, g2)
        report = verify(hedge, forward_start_straddle(), [g1, g2])
        assert report.valid
        assert report.max_violation <= 1e-8
        assert report.continuum_checked
        assert report.wing_ok

    def test_corrupt_delta_detected(self):
        g1 = np.linspace(-1.0, 1.0, 41)
        g2 = np.linspace(-2.0, 2.0, 81)
        hedge = smooth_hedge(g1, g2)
        dt = hedge.deltas[0]
        bad = SemiStaticHedge(hedge.cash, hedge.statics,
                              (DeltaTable(dt.atoms, dt.values + 1.0),), hedge.sense)
        report = verify(bad, forward_start_straddle(), [g1, g2])
        assert not report.valid
        assert report.max_violation > 0.1

    def test_refining_grid_never_decreases_violation(self):
        g1 = np.linspace(-1.0, 1.0, 11)
        g2 = np.linspace(-2.0, 2.0, 21)
        hedge = smooth_hedge(g1, g2)
        bad = SemiStaticHedge(hedge.cash + 0.05, hedge.statics, hedge.deltas, hedge.sense)
        coarse = verify(bad, forward_start_straddle(), [g1, g2]).max_violation
        fine_g1 = np.union1d(g1, (g1[:-1] + g1[1:]) / 2.0)
        fine_g2 = np.union1d(g2, (g2[:-1] + g2[1:]) / 2.0)
        fine = verify(bad, forward_start_straddle(), [fine_g1, fine_g2]).max_violation
        assert fine >= coarse - 1e-12

    def test_wing_slope_violation_flagged(self):
        # grid values stay far below the payoff, but the right wing grows too fast
        g1 = np.array([-1.0, 1.0])
        g2 = np.array([-2.0, 0.0, 2.0])
        u2 = PiecewiseLinear(np.array([0.0]), np.array([-10.0]), -1.0, 1.5)
        hedge = SemiStaticHedge(0.0, (PiecewiseLinear([0.0], [0.0], 0.0, 0.0), u2),
                                (DeltaTable((g1,), np.zeros(g1.size)),), "sub")
        report = verify(hedge, forward_start_straddle(), [g1, g2])
        assert report.max_violation <= 0.0
        assert report.wing_ok is False
        assert not report.valid

    def test_superhedge_tie_reads_positive_zero(self):
        # instance A's upper bound ties the payoff exactly at its worst cell
        res = bound(MotProblem(instance_a_marginals(), forward_start_straddle(), "upper"))
        assert res.report.max_violation == 0.0
        assert np.copysign(1.0, res.report.max_violation) == 1.0
        assert np.copysign(1.0, res.diagnostics.extras["max_verification_violation"]) == 1.0
        assert res.report.describe().startswith("superhedge valid: max violation 0.000e+00 over ")

    def test_superhedge_sense(self):
        g1 = np.array([-1.0, 0.0, 1.0])
        g2 = np.array([-2.0, 0.0, 2.0])
        u1 = PiecewiseLinear(np.array([0.0]), np.array([1.0]), -1.0, 1.0)  # |s1| + 1
        u2 = PiecewiseLinear(np.array([0.0]), np.array([0.0]), -1.0, 1.0)  # |s2|
        hedge = SemiStaticHedge(0.0, (u1, u2), (DeltaTable((g1,), np.zeros(g1.size)),),
                                "super")
        report = verify(hedge, forward_start_straddle(), [g1, g2])
        assert report.valid
        assert "super" in report.describe()

    def test_nan_gap_is_a_violation(self):
        # a payoff that is NaN for s2 > 0 proves nothing there
        grids = [mu.points for mu in smooth_pair(5).marginals]
        payoff = custom(lambda s: np.nan if s[1] > 0 else 0.0, n=2)
        report = verify(zero_hedge(2, grids), payoff, grids)
        assert np.isnan(report.max_violation)
        assert not report.valid
        assert report.worst_cell == (grids[0][0], grids[1][grids[1] > 0][0])
        assert "INVALID" in report.describe()

    @pytest.mark.parametrize("chunk_cells", [hedge_mod.CHUNK_CELLS, 1])
    def test_nan_gap_outranks_a_larger_number(self, chunk_cells, monkeypatch):
        # the zero subhedge misses the payoff by 10 on every cell but one,
        # where the payoff is NaN
        monkeypatch.setattr(hedge_mod, "CHUNK_CELLS", chunk_cells)
        grids = [np.array([-1.0, 1.0]), np.array([-2.0, 0.0, 2.0])]
        payoff = custom(lambda s: np.nan if s == (1.0, 0.0) else -10.0, n=2)
        report = verify(zero_hedge(2, grids), payoff, grids)
        assert np.isnan(report.max_violation) and not report.valid
        assert report.worst_cell == (1.0, 0.0)


def pointwise_verify(hedge, payoff, grids):
    """Reference for verify: one history and one last-axis point at a time,
    every history on the last grid, u_n's knots, zero and every history's
    kinks; wing slopes from payoff values far out."""
    sign = 1.0 if hedge.sense == "sub" else -1.0
    u = hedge.statics[-1]
    worst, worst_cell, checked, wing_ok = -np.inf, (), 0, True
    hists = list(itertools.product(*[list(g) for g in grids[:-1]]))
    kinks = {k for hist in hists for k in last_coord_kinks(payoff, hist)}
    for hist in hists:
        zs = sorted(set(grids[-1]) | kinks | {0.0} | set(u.knots))
        for z in zs:
            gap = sign * (hedge.evaluate([*hist, z]) - evaluate(payoff, [*hist, z]))
            checked += 1
            if gap > worst:
                worst, worst_cell = gap, (*hist, z)
        far = max(abs(z) for z in zs) + 1.0
        phi_l = evaluate(payoff, [*hist, -far]) - evaluate(payoff, [*hist, -far - 1.0])
        phi_r = evaluate(payoff, [*hist, far + 1.0]) - evaluate(payoff, [*hist, far])
        d = float(hedge.deltas[-1].at(*hist))
        tol = 1e-9 * (1.0 + abs(phi_l) + abs(phi_r))
        if sign * (u.right_slope + d - phi_r) > tol or sign * (phi_l - u.left_slope - d) > tol:
            wing_ok = False
    return worst, worst_cell, checked, wing_ok


def shift_last_delta(hedge, beta):
    dt = hedge.deltas[-1]
    deltas = (*hedge.deltas[:-1], DeltaTable(dt.atoms, dt.values + beta))
    return SemiStaticHedge(hedge.cash, hedge.statics, deltas, hedge.sense)


def three_dates():
    return MarginalSystem([
        DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
        DiscreteMeasure(np.array([-2.0, 0.0, 2.0]), np.array([0.25, 0.5, 0.25])),
        DiscreteMeasure(np.array([-3.0, -1.0, 1.0, 3.0]), np.array([0.125, 0.375, 0.375, 0.125])),
    ])


class TestVerifyMatchesPointwise:
    # grids off the atoms, so deltas are read by nearest-atom snapping
    OFF2 = [np.linspace(-1.05, 1.05, 9), np.linspace(-2.2, 2.2, 13)]
    OFF3 = [np.array([-1.2, -0.4, 0.5, 1.1]), np.array([-2.1, -0.3, 0.2, 1.9]),
            np.linspace(-3.5, 3.5, 15)]

    def assert_matches(self, hedge, payoff, grids):
        report = verify(hedge, payoff, grids)
        worst, worst_cell, checked, wing_ok = pointwise_verify(hedge, payoff, grids)
        assert report.max_violation == pytest.approx(worst, abs=1e-12)
        assert report.worst_cell == worst_cell
        assert report.checked_cells == checked
        assert report.wing_ok is wing_ok

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_two_dates(self, beta):
        hedge = shift_last_delta(smooth_hedge(np.linspace(-1.0, 1.0, 11), np.linspace(-2.0, 2.0, 21)), beta)
        self.assert_matches(hedge, forward_start_straddle(), self.OFF2)

    @pytest.mark.parametrize("sense", ["lower", "upper"])
    def test_two_date_bound(self, sense):
        payoff = forward_start_call(0.9)
        res = bound(MotProblem(smooth_pair(9), payoff, sense))
        self.assert_matches(res.hedge, payoff, self.OFF2)
        self.assert_matches(shift_last_delta(res.hedge, -0.2), payoff, self.OFF2)

    @pytest.mark.parametrize("payoff", [asian_call(0.0, 3), lookback_call(0.5, 3)],
                             ids=["asian", "lookback"])
    @pytest.mark.parametrize("sense", ["lower", "upper"])
    def test_three_dates(self, payoff, sense):
        res = bound(MotProblem(three_dates(), payoff, sense))
        self.assert_matches(res.hedge, payoff, self.OFF3)
        self.assert_matches(shift_last_delta(res.hedge, 0.25), payoff, self.OFF3)


def brute_force_report(hedge, payoff, grids) -> VerificationReport:
    """verify's report by its definition, one history at a time:
    ``hedge.evaluate`` and ``payoff.evaluate_last_axis`` on every point of
    the last grid, with every history's kinks, u_n's knots and zero for
    payoffs with last-axis data."""
    sign = 1.0 if hedge.sense == "sub" else -1.0
    u = hedge.statics[-1]
    hists = list(itertools.product(*grids[:-1]))
    continuum = payoff_mod.last_axis(payoff, *hists[0]) is not None
    zz = grids[-1]
    if continuum:
        kinks = [float(k) for hist in hists for k in payoff_mod.last_axis(payoff, *hist).kinks]
        zz = np.union1d(np.union1d(zz, kinks), np.union1d(u.knots, [0.0]))
    worst, worst_cell, checked, wing_ok = -np.inf, (), 0, True if continuum else None
    for hist in hists:
        data = payoff_mod.last_axis(payoff, *hist)
        paths = np.column_stack([np.tile(hist, (zz.size, 1)), zz])
        gap = sign * (hedge.evaluate(paths) - payoff_mod.evaluate_last_axis(payoff, paths[:, :-1].T, zz))
        checked += zz.size
        k = int(np.argmax(gap))
        if gap[k] > worst:
            worst, worst_cell = float(gap[k]), (*(float(x) for x in hist), float(zz[k]))
        if data:
            d = float(hedge.deltas[-1].at(*hist))
            tol = 1e-9 * (1.0 + abs(data.left_slope) + abs(data.right_slope))
            if (sign * (u.right_slope + d - data.right_slope) > tol
                    or sign * (data.left_slope - (u.left_slope + d)) > tol):
                wing_ok = False
    return VerificationReport(hedge.sense, worst, worst_cell, checked, continuum, wing_ok)


EIGHTHS = st.integers(-24, 24).map(lambda i: i / 8.0)


def eighths_grid(draw, max_size: int) -> np.ndarray:
    return np.array(sorted(draw(st.sets(EIGHTHS, min_size=1, max_size=max_size))))


@st.composite
def verify_cases(draw):
    """A random 2- or 3-date hedge, check grids and payoff, all on a 1/8
    lattice so that kinks, grid points and gaps often tie."""
    n = draw(st.sampled_from([2, 3]))
    grids = [eighths_grid(draw, 5) for _ in range(n)]
    deltas = []
    for j in range(n - 1):
        atoms = tuple(eighths_grid(draw, 4) for _ in range(j + 1))
        shape = tuple(g.size for g in atoms)
        values = draw(st.lists(EIGHTHS, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        deltas.append(DeltaTable(atoms, np.reshape(values, shape)))
    hedge = SemiStaticHedge(draw(EIGHTHS), tuple(draw(piecewise_linears()) for _ in range(n)),
                            tuple(deltas), draw(st.sampled_from(["sub", "super"])))
    strike = draw(EIGHTHS)
    cells = int(np.prod([g.size for g in grids]))
    payoffs = [asian_call(strike, n), lookback_call(strike, n),
               tabulated(grids, draw(st.lists(EIGHTHS, min_size=cells, max_size=cells)))]
    if n == 2:
        payoffs += [forward_start_call(draw(st.sampled_from([0.5, 1.0, 1.25]))),
                    forward_start_straddle(), negated_straddle()]
    return hedge, draw(st.sampled_from(payoffs)), grids


class TestVerifyOracle:
    """verify's report equals, field for field, the report of its
    pointwise definition."""

    @settings(max_examples=300, deadline=None)
    @given(verify_cases(), st.sampled_from([hedge_mod.CHUNK_CELLS, 1]))
    def test_report_equals_brute_force(self, case, chunk_cells):
        # a chunk of one cell checks one history at a time
        hedge, payoff, grids = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hedge_mod, "CHUNK_CELLS", chunk_cells)
            assert verify(hedge, payoff, grids) == brute_force_report(hedge, payoff, grids)


def uniform_three_dates(m: int) -> MarginalSystem:
    return MarginalSystem([discretize(DensitySpec.uniform(1.0 - 0.1 * k, 1.0 + 0.1 * k), m)
                           for k in (1, 2, 3)])


class TestVerifyAxisIndependence:
    """Every history is checked on one final axis, so the atoms alone and
    the verification grids, which already hold every history's kinks, give
    the same report."""

    @pytest.mark.parametrize("system, payoff", [
        (lambda: smooth_pair(15), forward_start_straddle()),
        (lambda: smooth_pair(15), forward_start_call(1.0)),
        (lambda: uniform_three_dates(9), asian_call(1.0, 3)),
        (lambda: uniform_three_dates(9), lookback_call(1.0, 3)),
    ], ids=["straddle", "forward_start_call", "asian", "lookback"])
    @pytest.mark.parametrize("sense", ["lower", "upper"])
    def test_atoms_and_verification_grids_agree(self, system, payoff, sense):
        problem = MotProblem(system(), payoff, sense)
        solver = Solver(problem.system)
        res = bound(problem, solver=solver)
        hedge = res.hedge
        assert (verify(hedge, payoff, solver.constraints.grids)
                == verify(hedge, payoff, verification_grids(problem, solver)))
        # the bound's own report, made on the atoms, is the same report
        assert res.report == verify(hedge, payoff, verification_grids(problem, solver))


class TestSlackness:
    def test_forced_instance_binds(self):
        system = MarginalSystem([
            DiscreteMeasure(np.array([0.0]), np.array([1.0])),
            DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
        ])
        res = bound(MotProblem(system, forward_start_straddle(), "lower"))
        assert slackness(res.hedge, res.coupling, forward_start_straddle()) <= 1e-9

    def test_smooth_optimal_pair(self):
        problem = MotProblem(smooth_pair(51), forward_start_straddle(), "lower")
        res = bound(problem)
        assert slackness(res.hedge, res.coupling, forward_start_straddle()) <= 1e-6

    def test_non_optimal_hedge_has_positive_slackness(self):
        system = instance_a_marginals()
        res = bound(MotProblem(system, forward_start_straddle(), "lower"))
        lazy = zero_hedge(2, [m.points for m in system.marginals])
        assert slackness(lazy, res.coupling, forward_start_straddle()) > 0.5


@pytest.fixture(scope="module")
def instance_b_results():
    system = instance_a_marginals()
    payoff = instance_b_payoff()
    return (bound(MotProblem(system, payoff, "lower")),
            bound(MotProblem(system, payoff, "upper")))


class TestArbitrage:
    def test_cheap_quote_is_a_buy(self, instance_b_results):
        lo, hi = instance_b_results
        verdict = check_arbitrage(0.2, lo, hi)
        assert verdict.action == "BUY"
        assert "BUY" in verdict.describe()

    def test_interior_quote_no_arb(self, instance_b_results):
        lo, hi = instance_b_results
        assert check_arbitrage(0.30, lo, hi).action == "NO_ARB"

    def test_rich_quote_is_a_sell(self, instance_b_results):
        lo, hi = instance_b_results
        assert check_arbitrage(0.40, lo, hi).action == "SELL"

    def test_tolerance_widens_the_interval(self, instance_b_results):
        lo, hi = instance_b_results
        assert check_arbitrage(hi.value + 1e-6, lo, hi).action == "NO_ARB"
        assert check_arbitrage(hi.value + 1e-5, lo, hi).action == "SELL"

    @pytest.mark.parametrize("quoted", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_quote_raises(self, instance_b_results, quoted):
        lo, hi = instance_b_results
        with pytest.raises(ValueError, match=f"quoted price must be finite, got {quoted!r}"):
            check_arbitrage(quoted, lo, hi)


class TestJsonExport:
    def test_structure_and_portfolio_consistency(self):
        problem = MotProblem(instance_a_marginals(), forward_start_straddle(), "lower")
        res = bound(problem)
        blob = hedge_to_json(res.hedge)
        assert set(blob) == {"sense", "cash", "statics", "portfolios", "deltas"}
        assert len(blob["portfolios"]) == 2
        for u, pf_json in zip(res.hedge.statics, blob["portfolios"]):
            pf = CallPortfolio(date_index=pf_json["date_index"], cash=pf_json["cash"],
                               forward=pf_json["forward"],
                               legs=tuple((leg["strike"], leg["quantity"])
                                          for leg in pf_json["legs"]))
            np.testing.assert_allclose(pf(u.knots), u(u.knots), atol=KNOT_TOL)

    def test_piecewise_linear_round_trip(self):
        u = PiecewiseLinear(np.array([-1.0, 0.5]), np.array([2.0, -1.0]), 0.25, 3.0)
        v = PiecewiseLinear.from_json(u.to_json())
        np.testing.assert_array_equal(v.knots, u.knots)
        np.testing.assert_array_equal(v.values, u.values)
        assert (v.left_slope, v.right_slope) == (u.left_slope, u.right_slope)


class TestPriceValueEquality:
    @pytest.mark.parametrize("sense", ["lower", "upper"])
    def test_every_optimal_result(self, sense):
        for system, payoff in [
            (instance_a_marginals(), forward_start_straddle()),
            (instance_a_marginals(), instance_b_payoff()),
            (smooth_pair(31), forward_start_straddle()),
        ]:
            res = bound(MotProblem(system, payoff, sense))
            p = price(res.hedge, system)
            assert abs(p - res.value) <= 1e-7 * (1.0 + abs(res.value))
            grids = verification_grids(MotProblem(system, payoff, sense))
            assert verify(res.hedge, payoff, grids).valid
