"""Convex-envelope certificates: hull construction, dual values, ascent."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motbound import envelope
from motbound.envelope import (convex_envelope, dual_value, evaluate_dual,
                               extended_grid, improve_u2, u2_from_csv, u2_to_csv)
from motbound.errors import GridCoverage
from motbound.fixtures import instance_a_marginals, smooth_pair, smooth_u2
from motbound.measures import DensitySpec, DiscreteMeasure, discretize
from motbound.mot import MotProblem, bound
from motbound.payoff import forward_start_call, forward_start_straddle, tabulate

CERT_TOL = 1e-8

value_lists = st.lists(st.integers(-64, 64).map(lambda k: k / 8.0),
                       min_size=2, max_size=12)


def hull_values(xs, ys) -> np.ndarray:
    return convex_envelope(xs, ys)(np.asarray(xs, dtype=float))


class TestConvexEnvelope:
    def test_tent_collapses_to_chord(self):
        env = convex_envelope([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert env(1.0) == pytest.approx(0.0, abs=1e-15)
        assert env(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_convex_input_unchanged(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        ys = [3.0, 0.0, 0.0, 3.0]
        np.testing.assert_allclose(hull_values(xs, ys), ys, atol=1e-15)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            convex_envelope([0.0], [1.0])
        with pytest.raises(ValueError):
            convex_envelope([0.0, 0.0], [1.0, 1.0])

    @settings(max_examples=200, deadline=None)
    @given(value_lists)
    def test_below_input_convex_idempotent(self, ys):
        xs = np.arange(len(ys), dtype=float)
        env = convex_envelope(xs, ys)
        vals = env(xs)
        assert np.all(vals <= np.asarray(ys) + 1e-12)
        slopes = np.diff(vals) / np.diff(xs)
        assert np.all(np.diff(slopes) >= -1e-12)
        np.testing.assert_allclose(hull_values(xs, vals), vals, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(value_lists, st.integers(0, 10 ** 6))
    def test_monotone_in_the_input(self, ys, seed):
        xs = np.arange(len(ys), dtype=float)
        bump = np.random.default_rng(seed).uniform(0.0, 2.0, size=len(ys))
        lower = hull_values(xs, ys)
        upper = hull_values(xs, np.asarray(ys) + bump)
        assert np.all(lower <= upper + 1e-12)

    def test_near_duplicate_points_stay_convex(self):
        # regression: two pairs of x values one ulp apart once produced a
        # "hull" with a vertex above the true envelope (the cross product
        # cancels catastrophically on near-collinear triples)
        xs = np.array([
            -1.5076340360826694, -1.0996891962405628, -0.9090909090909092,
            -0.8181818181818181, -0.7272727272727272, -0.5454545454545454,
            -0.5454545454545453, -0.3636363636363637, -0.27272727272727265,
            -0.18181818181818182, -5.724587470723465e-17, 2.0354088784794514e-16,
            0.18181818181818177, 0.2727272727272732, 0.3636363636363637,
            0.5454545454545456, 0.545454545454546, 0.7272727272727272,
            0.8181818181818185, 0.9090909090909092, 1.099689196240564,
            1.5076340360826692,
        ])
        ys = np.array([
            0.6165109518983085, 0.7031975808112451, 0.8235512883771254,
            0.7630167599912094, 0.810859161894923, 0.8210599556672892,
            0.8210599556672893, 0.8596876355829038, 0.6971054635214663,
            0.7072131049059283, 0.363636363636364, 0.3636363636363635,
            0.3331242079424138, 0.13603243862581232, 0.111509841655873,
            0.06242962841310659, 0.06242962841310645, 0.04177630131358906,
            -0.05120673446781715, 0.04401589446863996, -0.16850147559912587,
            -0.25294462860477074,
        ])
        env = convex_envelope(xs, ys)
        vals = env(xs)
        assert np.all(vals <= ys + 1e-12)
        slopes = np.diff(env.values) / np.diff(env.knots)
        assert np.all(np.diff(slopes) >= -1e-9)


class TestDualValue:
    def test_zero_u2_straddle_gives_zero(self):
        mu1, mu2 = instance_a_marginals().marginals
        grid = extended_grid(mu1, mu2)
        assert dual_value(np.zeros(grid.size), forward_start_straddle(), mu1, mu2) \
            == pytest.approx(0.0, abs=1e-15)

    def test_lp_dual_recovers_the_bound_instance_a(self):
        system = instance_a_marginals()
        res = bound(MotProblem(system, forward_start_straddle(), "lower"))
        mu1, mu2 = system.marginals
        grid = extended_grid(mu1, mu2)
        v = dual_value(res.hedge.statics[1](grid), forward_start_straddle(), mu1, mu2)
        assert v == pytest.approx(res.value, abs=1e-9)

    def test_lp_dual_recovers_the_bound_smooth(self):
        system = smooth_pair(51)
        res = bound(MotProblem(system, forward_start_straddle(), "lower"))
        mu1, mu2 = system.marginals
        grid = extended_grid(mu1, mu2)
        v = dual_value(res.hedge.statics[1](grid), forward_start_straddle(), mu1, mu2)
        assert v == pytest.approx(res.value, abs=1e-6)

    def test_closed_form_u2_near_limit_value(self):
        mu1, mu2 = smooth_pair(101).marginals
        grid = extended_grid(mu1, mu2)
        v = dual_value(smooth_u2(grid), forward_start_straddle(), mu1, mu2)
        assert v == pytest.approx(1.0 / 3.0, abs=5e-3)

    def test_random_u2_never_exceeds_the_bound(self):
        system = instance_a_marginals()
        res = bound(MotProblem(system, forward_start_straddle(), "lower"))
        mu1, mu2 = system.marginals
        grid = extended_grid(mu1, mu2)
        rng = np.random.default_rng(7)
        for _ in range(100):
            u2 = rng.uniform(-3.0, 3.0, size=grid.size)
            assert dual_value(u2, forward_start_straddle(), mu1, mu2) \
                <= res.value + CERT_TOL

    def test_constant_shift_is_free(self):
        mu1, mu2 = instance_a_marginals().marginals
        grid = extended_grid(mu1, mu2)
        u2 = np.random.default_rng(3).uniform(-1.0, 1.0, size=grid.size)
        base = dual_value(u2, forward_start_straddle(), mu1, mu2)
        shifted = dual_value(u2 + 1.7, forward_start_straddle(), mu1, mu2)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_coverage_error(self):
        mu1, mu2 = instance_a_marginals().marginals
        with pytest.raises(GridCoverage):
            dual_value([0.0, 0.0], forward_start_straddle(), mu1, mu2,
                       grid=[-0.5, 0.5])

    def test_size_mismatch(self):
        mu1, mu2 = instance_a_marginals().marginals
        with pytest.raises(ValueError):
            dual_value([0.0, 0.0], forward_start_straddle(), mu1, mu2)

    def test_evaluate_dual_size_mismatch(self):
        with pytest.raises(ValueError, match="u2 has 3 entries, grid has 9"):
            evaluate_dual(np.zeros(3), forward_start_straddle(), *smooth_pair(5).marginals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    @pytest.mark.parametrize("where", ["u2", "grid"])
    @pytest.mark.parametrize("entry", [
        dual_value, evaluate_dual,
        lambda u2, payoff, mu1, mu2, grid: improve_u2(u2, payoff, mu1, mu2, 1, grid=grid),
    ], ids=["dual_value", "evaluate_dual", "improve_u2"])
    def test_non_finite_u2_or_grid_is_refused(self, entry, where, bad):
        mu1, mu2 = instance_a_marginals().marginals
        grid = extended_grid(mu1, mu2)
        u2 = np.zeros(grid.size)
        {"u2": u2, "grid": grid}[where][-1] = bad
        with pytest.raises(ValueError, match="u2 grid points and values must be finite"):
            entry(u2, forward_start_straddle(), mu1, mu2, grid=grid)


def reference_value(u2, payoff, mu1, mu2, grid) -> float:
    """dual_value by one hull scan per first-date atom."""
    table = tabulate(payoff, [mu1.points, grid]).reshape(mu1.points.size, grid.size)
    total = 0.0
    for x, w, row in zip(mu1.points, mu1.weights, table):
        total += w * convex_envelope(grid, row - u2)(x)
    return total + float(np.dot(np.interp(mu2.points, grid, u2), mu2.weights))


def spread_marginals():
    """Uniform first date, wider trapezoid second date with the same mean."""
    mu1 = discretize(DensitySpec.uniform(0.8, 1.2), 12)
    mu2 = discretize(DensitySpec.piecewise_linear([0.6, 0.84, 1.16, 1.4], [0.0, 1.0, 1.0, 0.0]), 12)
    return mu1, mu2


def merged_atoms():
    """TestExtendedGrid's dates: two atoms one ulp apart share a grid node."""
    a = 6.0 / 11.0
    mu1 = DiscreteMeasure(np.array([-1.0, a]), np.array([0.5, 0.5]))
    mu2 = DiscreteMeasure(np.array([-2.0, np.nextafter(a, 1.0), 2.0]), np.array([0.4, 0.2, 0.4]))
    return mu1, mu2


def ends_on_the_hull():
    """Both dates reach the grid's ends; the grid stops short of them by
    under 1e-12, which the coverage check allows."""
    mu1 = DiscreteMeasure(np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]))
    mu2 = DiscreteMeasure(np.array([-1.0, -0.5, 0.5, 1.0]), np.array([0.2, 0.3, 0.3, 0.2]))
    grid = np.concatenate([[-1.0 + 7e-13], np.linspace(-0.8, 0.8, 7), [1.0 - 9e-13]])
    assert mu1.points[0] < grid[0] and mu1.points[-1] > grid[-1]
    return mu1, mu2, grid


def off_atom_grid():
    """An explicit grid with no node on a first-date atom."""
    mu1, mu2 = smooth_pair(11).marginals
    grid = np.linspace(mu2.points[0], mu2.points[-1], 14)
    assert not np.isin(mu1.points, grid).any()
    return mu1, mu2, grid


BATCH_CASES = {
    "smooth11": lambda: (*smooth_pair(11).marginals, None),
    "instance_a": lambda: (*instance_a_marginals().marginals, None),
    "spread": lambda: (*spread_marginals(), None),
    "merged_atoms": lambda: (*merged_atoms(), None),
    "grid_off_the_atoms": off_atom_grid,
    "atoms_past_the_hull": ends_on_the_hull,
}


class TestBatchedValue:
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    @pytest.mark.parametrize("payoff", [forward_start_straddle(), forward_start_call(1.0)],
                             ids=["straddle", "call"])
    @pytest.mark.parametrize("block", [envelope.CHORD_BLOCK, 1, 40])
    def test_matches_one_hull_per_atom(self, case, payoff, block, monkeypatch):
        monkeypatch.setattr(envelope, "CHORD_BLOCK", block)
        mu1, mu2, grid = BATCH_CASES[case]()
        full = extended_grid(mu1, mu2) if grid is None else grid
        rng = np.random.default_rng(23)
        for scale in (0.0, 0.5, 3.0, 3.0, 3.0):
            u2 = rng.uniform(-scale, scale, size=full.size)
            got = dual_value(u2, payoff, mu1, mu2, grid=grid)
            assert abs(got - reference_value(u2, payoff, mu1, mu2, full)) <= 1e-14

    def test_hull_scans_only_build_the_returned_envelopes(self, monkeypatch):
        scan = envelope.convex_envelope
        calls = []

        def counting_scan(*args, **kwargs):
            calls.append(1)
            return scan(*args, **kwargs)

        monkeypatch.setattr(envelope, "convex_envelope", counting_scan)
        mu1, mu2 = smooth_pair(11).marginals
        grid = extended_grid(mu1, mu2)
        dual_value(np.zeros(grid.size), forward_start_straddle(), mu1, mu2)
        assert calls == []
        out = improve_u2(np.zeros(grid.size), forward_start_straddle(), mu1, mu2, iters=2)
        assert len(calls) == len(out.per_s1_envelopes) == mu1.points.size


def brute_envelope(grid, row, x) -> float:
    """The lower convex envelope of (grid, row) at x, by every chord and
    single node that brackets x; x within rounding of a node is that node."""
    twin = np.abs(grid - x) <= 1e-12 * (1.0 + np.abs(grid))
    if twin.any():
        x = grid[np.argmax(twin)]
    best = np.inf
    for i in range(grid.size):
        for j in range(i, grid.size):
            if grid[i] <= x <= grid[j]:
                w = 0.0 if i == j else (x - grid[i]) / (grid[j] - grid[i])
                best = min(best, (1.0 - w) * row[i] + w * row[j])
    return best


def chord_points(grid, rng, where):
    """Points within the hull of ``grid``: inside a cell, on a node, or a few
    ulps from a node (its rounding twin)."""
    node = grid[rng.integers(0, grid.size, 6)]
    if where == "cell":
        cell = rng.integers(0, grid.size - 1, 6)
        return grid[cell] + rng.uniform(0.05, 0.95, 6) * np.diff(grid)[cell]
    if where == "node":
        return node
    steps = rng.choice([-3, -1, 1, 3], 6)
    return np.clip(node + steps * np.spacing(node), grid[0], grid[-1])


class TestChordTable:
    """``_ChordTable.at`` against every chord and single node: the envelope
    value at each point and a slope d whose line through (x, env(x))
    supports the row, r(z) - d (z - x) >= env(x) over every node z; and
    ``_ChordTable.ratio_test`` against every candidate slope."""

    @pytest.mark.parametrize("where", ["cell", "node", "twin"])
    @pytest.mark.parametrize("seed", range(6))
    def test_value_and_supporting_slope(self, where, seed):
        rng = np.random.default_rng([seed, 41])
        grid = np.unique(np.round(rng.uniform(-1.0, 1.0, rng.integers(3, 16)), 2))
        xs = np.unique(chord_points(grid, rng, where))
        chords = envelope._ChordTable(grid, xs)
        assert ((grid[0] <= xs) & (xs <= grid[-1])).all()
        which = rng.integers(0, xs.size, 40)
        # rows of every scale, with ties: integer rows make chords meet
        rows = np.concatenate([rng.normal(size=(20, grid.size)) * rng.choice([1e-3, 1.0, 1e3], (20, 1)),
                               rng.integers(-3, 4, (20, grid.size)).astype(float)])
        value, slope, *_ = chords.at(rows, which)
        for row, x, env, d in zip(rows, xs[which], value, slope):
            tol = 1e-12 * (1.0 + np.abs(row).max())
            assert abs(env - brute_envelope(grid, row, x)) <= tol
            assert (row - d * (grid - x)).min() >= env - tol

    def test_blocks_of_rows_read_as_one(self, monkeypatch):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 1.0, 9)
        chords = envelope._ChordTable(grid, grid[1:-1] + 0.01)
        rows, which = rng.normal(size=(30, grid.size)), rng.integers(0, 7, 30)
        whole = chords.at(rows, which)
        # blocks of 4 rows of 9 x 9 chord entries each: 8 blocks, the last of 2 rows
        monkeypatch.setattr(envelope, "CHUNK_CELLS", 4 * grid.size ** 2)
        for a, b in zip(whole, chords.at(rows, which)):
            assert a.tobytes() == b.tobytes()

    def test_chord_ends_bracket_the_point(self):
        rng = np.random.default_rng(5)
        grid = np.linspace(-1.0, 1.0, 11)
        xs = np.array([-0.93, -0.2, 0.0, 0.41])
        chords = envelope._ChordTable(grid, xs)
        which = np.arange(xs.size).repeat(5)
        rows = rng.normal(size=(which.size, grid.size))
        value, _, i, j, w = chords.at(rows, which)
        assert (i < j).all() and (grid[i] <= xs[which]).all() and (xs[which] <= grid[j]).all()
        np.testing.assert_allclose((1.0 - w) * rows[np.arange(which.size), i]
                                   + w * rows[np.arange(which.size), j], value, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_ratio_test_against_every_candidate(self, seed):
        # points inside a cell, on a node, a few ulps from a node, and
        # beyond either end of the grid; a cell within rounding of the point
        # pins nothing and must be 0 or above itself, and each other cell z
        # gives the candidate r(z) / (z - x), read as the kernel reads it,
        # r(z) * (1 / (z - x))
        rng = np.random.default_rng([seed, 43])
        grid = np.unique(np.round(rng.uniform(-1.0, 1.0, rng.integers(3, 16)), 2))
        xs = np.unique(np.concatenate([chord_points(grid, rng, where) for where in ("cell", "node", "twin")]
                                      + [[grid[0] - 0.25, grid[-1] + 0.25]]))
        table = envelope._ChordTable(grid, xs)
        which = np.concatenate([np.arange(xs.size), rng.integers(0, xs.size, 300)])
        half = which.size // 2
        rows = np.concatenate([rng.normal(size=(half, grid.size)) + rng.uniform(-1.0, 2.0, (half, 1)),
                               rng.integers(-1, 4, (which.size - half, grid.size)).astype(float)])
        own = rng.normal(size=which.size) * rng.choice([0.1, 10.0], which.size)
        lo, hi, delta, cell = table.ratio_test(rows, which, own)
        found = 0
        for r, x, d, c, a, b, o in zip(rows, xs[which], delta, cell, lo, hi, own):
            move = grid - x
            pins = np.abs(move) > 1e-12 * (1.0 + np.abs(grid))
            ratio = r * (1.0 / np.where(pins, move, 1.0))
            up, down = ratio[pins & (move > 0.0)], ratio[pins & (move < 0.0)]
            admissible = [v for v in ratio[pins] if (v <= up).all() and (v >= down).all()
                          and (r[~pins] >= 0.0).all()]
            assert (a <= b) == bool(admissible)
            if admissible:
                found += 1
                assert pins[c] and d == ratio[c] and a <= d <= b
                assert abs(d - o) == min(abs(v - o) for v in admissible)
                priced = r - d * move
                tol = 1e-12 * (1.0 + np.abs(r).max() + abs(d) * np.abs(move).max())
                assert priced[pins].min() >= -tol and abs(priced[c]) <= tol
        assert 0 < found < which.size


class TestImprove:
    def test_zero_start_reaches_instance_a_value(self):
        mu1, mu2 = instance_a_marginals().marginals
        grid = extended_grid(mu1, mu2)
        out = improve_u2(np.zeros(grid.size), forward_start_straddle(), mu1, mu2, 200)
        assert out.value == pytest.approx(7.0 / 6.0, abs=1e-3)
        assert out.value <= 7.0 / 6.0 + CERT_TOL

    def test_monotone_in_sweeps(self):
        mu1, mu2 = instance_a_marginals().marginals
        grid = extended_grid(mu1, mu2)
        values = [improve_u2(np.zeros(grid.size), forward_start_straddle(),
                             mu1, mu2, k).value for k in (0, 1, 2, 3)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("system_maker", [instance_a_marginals, lambda: smooth_pair(11)])
    def test_lp_dual_start_cannot_improve(self, system_maker):
        system = system_maker()
        res = bound(MotProblem(system, forward_start_straddle(), "lower"))
        mu1, mu2 = system.marginals
        grid = extended_grid(mu1, mu2)
        start = res.hedge.statics[1](grid)
        before = dual_value(start, forward_start_straddle(), mu1, mu2)
        assert before == pytest.approx(res.value, abs=1e-9)
        out = improve_u2(start, forward_start_straddle(), mu1, mu2, 1)
        assert out.value >= before - 1e-12
        assert out.value - before <= CERT_TOL
        assert out.value <= res.value + CERT_TOL

    def test_zero_iters_is_evaluate(self):
        mu1, mu2 = instance_a_marginals().marginals
        grid = extended_grid(mu1, mu2)
        u2 = np.random.default_rng(11).uniform(-1.0, 1.0, size=grid.size)
        out = improve_u2(u2, forward_start_straddle(), mu1, mu2, 0)
        assert out.value == pytest.approx(
            dual_value(u2, forward_start_straddle(), mu1, mu2), abs=1e-15)
        np.testing.assert_array_equal(out.u2, u2)

    @pytest.mark.parametrize("iters", [-1, -2])
    def test_negative_iters_is_refused(self, iters):
        mu1, mu2 = instance_a_marginals().marginals
        grid = extended_grid(mu1, mu2)
        with pytest.raises(ValueError, match=f"nonnegative sweep count, got {iters}"):
            improve_u2(np.zeros(grid.size), forward_start_straddle(), mu1, mu2, iters)

    def test_deterministic(self):
        mu1, mu2 = instance_a_marginals().marginals
        grid = extended_grid(mu1, mu2)
        a = improve_u2(np.zeros(grid.size), forward_start_straddle(), mu1, mu2, 5)
        b = improve_u2(np.zeros(grid.size), forward_start_straddle(), mu1, mu2, 5)
        assert a.value == b.value
        np.testing.assert_array_equal(a.u2, b.u2)


class TestEvaluateDual:
    def test_envelopes_cached_per_atom(self):
        mu1, mu2 = instance_a_marginals().marginals
        grid = extended_grid(mu1, mu2)
        out = evaluate_dual(np.zeros(grid.size), forward_start_straddle(), mu1, mu2)
        assert len(out.per_s1_envelopes) == mu1.points.size
        for x, env in zip(mu1.points, out.per_s1_envelopes):
            # straddle slice minus zero is already convex, so the hull is exact
            assert env(x) == pytest.approx(0.0, abs=1e-15)


class TestExtendedGrid:
    def test_merges_atoms_that_agree_to_rounding(self):
        from motbound.measures import DiscreteMeasure
        a = 6.0 / 11.0
        b = np.nextafter(a, 1.0)
        mu1 = DiscreteMeasure(np.array([-1.0, a]), np.array([0.5, 0.5]))
        mu2 = DiscreteMeasure(np.array([-2.0, b, 2.0]),
                              np.array([0.4, 0.2, 0.4]))
        grid = extended_grid(mu1, mu2)
        assert grid.size == 4
        assert np.all(np.diff(grid) > 1e-12)


class TestCsv:
    def test_round_trip(self):
        grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        u2 = np.array([0.5, -0.25, 0.0, 1.0 / 3.0, -2.0])
        pts, vals = u2_from_csv(u2_to_csv(grid, u2))
        np.testing.assert_allclose(pts, grid, atol=1e-12)
        np.testing.assert_allclose(vals, u2, atol=1e-12)

    def test_sorts_and_accepts_headerless(self):
        pts, vals = u2_from_csv("1.0,2.0\n-1.0,3.0\n")
        np.testing.assert_array_equal(pts, [-1.0, 1.0])
        np.testing.assert_array_equal(vals, [3.0, 2.0])

    def test_short_row_names_the_row(self):
        with pytest.raises(ValueError, match="row '0' needs two fields"):
            u2_from_csv("s2,u2\n-1,0\n0\n1,0\n")
