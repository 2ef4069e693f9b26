"""Measures: construction, call curves, convex order, discretization, barriers."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motbound.errors import BadSpec, InfeasibleCurve
from motbound.fixtures import trapezoid_spec, uniform_spec
from motbound.measures import (Block, CallCurve, DensitySpec, DiscreteMeasure, MarginalSystem,
                               call_price, check_convex_order, counterexample_marginals,
                               detect_barriers, discretize, from_call_curve, halve,
                               load_call_curves)
from motbound.payoff import asian_call, tabulated

ATOL = 1e-10


def dirac(x: float) -> DiscreteMeasure:
    return DiscreteMeasure(np.array([x]), np.array([1.0]))


def two_point(a, b, wa=0.5) -> DiscreteMeasure:
    return DiscreteMeasure(np.array([a, b], dtype=float),
                           np.array([wa, 1.0 - wa]))


def random_measure(rng, k=None) -> DiscreteMeasure:
    k = k or int(rng.integers(2, 12))
    pts = np.sort(rng.uniform(-5, 5, size=k))
    while np.any(np.diff(pts) < 1e-3):
        pts = np.sort(rng.uniform(-5, 5, size=k))
    w = rng.uniform(0.05, 1.0, size=k)
    return DiscreteMeasure(pts, w / w.sum())


class TestDiscreteMeasure:
    def test_invariants(self):
        mu = two_point(-1.0, 1.0)
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert mu.mean == pytest.approx(0.0, abs=1e-12)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_sorts_and_merges(self):
        mu = DiscreteMeasure(np.array([1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]))
        np.testing.assert_allclose(mu.points, [0.0, 1.0])
        np.testing.assert_allclose(mu.weights, [0.5, 0.5])

    def test_drops_zero_weight_atoms(self):
        mu = DiscreteMeasure(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.0, 0.5]))
        assert len(mu) == 2
        assert list(mu.points) == [0.0, 2.0]

    def test_json_round_trip(self):
        mu = two_point(-1.0, 3.0, wa=0.75)
        back = DiscreteMeasure.from_json(json.loads(json.dumps(mu.to_json())))
        np.testing.assert_allclose(back.points, mu.points)
        np.testing.assert_allclose(back.weights, mu.weights)


class TestCallPrice:
    def test_point_mass_in_the_money(self):
        assert call_price(dirac(100.0), 90.0) == pytest.approx(10.0)

    def test_point_mass_out_of_the_money(self):
        assert call_price(dirac(100.0), 110.0) == pytest.approx(0.0)

    def test_two_point(self):
        assert call_price(two_point(0.0, 2.0), 1.0) == pytest.approx(0.5)

    def test_convex_and_nonincreasing_random_strikes(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            mu = random_measure(rng)
            ks = np.sort(rng.uniform(-7, 7, size=100))
            cs = call_price(mu, ks)
            assert np.all(cs >= -ATOL)
            slopes = np.diff(cs) / np.diff(ks)
            assert np.all(slopes <= ATOL)
            assert np.all(np.diff(slopes) >= -1e-9)


class TestCallCurve:
    def test_nonconvex_rejected(self):
        # interior second difference of -0.01
        with pytest.raises(InfeasibleCurve):
            CallCurve(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.505, 0.0]))

    def test_increasing_prices_rejected(self):
        with pytest.raises(InfeasibleCurve):
            CallCurve(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_slope_below_minus_one_rejected(self):
        with pytest.raises(InfeasibleCurve):
            CallCurve(np.array([0.0, 1.0]), np.array([2.0, 0.5]))


class TestHalve:
    @pytest.mark.parametrize("m", [3, 4, 9, 10, 101])
    def test_every_other_atom_at_the_exact_call_prices(self, m):
        mu = discretize(trapezoid_spec(), m)
        coarse = halve(mu)
        keep = np.unique(np.append(np.arange(0, m, 2), m - 1))
        np.testing.assert_array_equal(coarse.points, mu.points[keep])
        np.testing.assert_allclose(call_price(coarse, coarse.points), call_price(mu, coarse.points),
                                   atol=1e-15)
        assert coarse.mean == pytest.approx(mu.mean, abs=1e-15)
        # the chords lie above the convex call curve
        assert check_convex_order(MarginalSystem([mu, coarse])).admissible

    def test_two_atoms_are_kept(self):
        mu = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert halve(mu) is mu

    def test_dates_halved_apart_can_lose_convex_order(self):
        # each date keeps its own atoms, so the chords of two dates can cross
        system = counterexample_marginals(5, 16)
        report = check_convex_order(MarginalSystem([halve(mu) for mu in system.marginals]))
        assert not report.admissible
        assert report.pairs[0].worst_violation == pytest.approx(0.0148, abs=1e-4)


class TestFromCallCurve:
    def test_point_mass_curve(self):
        curve = CallCurve(np.array([90.0, 100.0, 110.0]), np.array([10.0, 0.0, 0.0]))
        mu = from_call_curve(curve, 100.0)
        assert len(mu) == 1
        assert mu.points[0] == pytest.approx(100.0, abs=ATOL)

    def test_two_point_curve(self):
        curve = CallCurve(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.0]))
        mu = from_call_curve(curve, 1.0)
        np.testing.assert_allclose(mu.points, [0.0, 2.0], atol=ATOL)
        np.testing.assert_allclose(mu.weights, [0.5, 0.5], atol=ATOL)

    def test_last_quote_must_be_worthless(self):
        # without the right closure these quotes gave weights 0.3, 0.5, 0.2
        # with mean 0.9, a measure that matches none of them
        curve = CallCurve(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.3, 0.1]))
        with pytest.raises(InfeasibleCurve, match=r"last quote 0\.1 at strike 2 is not 0; "
                                                  r"quote a strike where the call is worthless"):
            from_call_curve(curve, 1.0)
        assert from_call_curve(CallCurve(curve.strikes, [1.0, 0.3, 1e-10]), 1.0).mean == pytest.approx(1.0)

    def test_round_trip_at_quoted_strikes(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = random_measure(rng)
            curve = CallCurve(mu.points, call_price(mu, mu.points))
            back = from_call_curve(curve, mu.mean)
            assert len(back) == len(mu)
            np.testing.assert_allclose(back.points, mu.points, atol=ATOL)
            np.testing.assert_allclose(back.weights, mu.weights, atol=ATOL)
            np.testing.assert_allclose(call_price(back, curve.strikes),
                                       curve.prices, atol=ATOL)


class TestConvexOrder:
    def test_jensen_pair_admissible(self):
        system = MarginalSystem([dirac(0.0), two_point(-1.0, 1.0)])
        assert system.admissible
        report = check_convex_order(system)
        assert report.admissible
        assert "admissible" in report.describe()

    def test_reversed_pair(self):
        system = MarginalSystem([two_point(-1.0, 1.0), dirac(0.0)])
        assert not system.admissible
        report = check_convex_order(system)
        assert not report.admissible
        worst = report.pairs[0]
        assert worst.worst_violation == pytest.approx(0.5, abs=ATOL)
        assert worst.worst_strike == pytest.approx(0.0, abs=ATOL)

    def test_unequal_means(self):
        system = MarginalSystem([dirac(0.0), dirac(1.0)])
        report = check_convex_order(system)
        assert not report.means_ok
        assert not report.admissible

    def test_system_is_immutable(self):
        system = MarginalSystem([dirac(0.0), two_point(-1.0, 1.0)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.marginals = [dirac(0.0), two_point(-2.0, 2.0)]
        with pytest.raises(TypeError):
            system.marginals[1] = two_point(-2.0, 2.0)
        assert system.admissible and system.marginals[1].points[0] == -1.0

    def test_empirical_strassen(self):
        # admissibility <=> nondecreasing expectations of random convex
        # piecewise-linear test functions
        rng = np.random.default_rng(11)
        for _ in range(6):
            mu2 = random_measure(rng)
            if rng.uniform() < 0.5:
                # shrink toward the mean: guaranteed convex order
                lam = rng.uniform(0.1, 0.9)
                mu1 = DiscreteMeasure(mu2.mean + lam * (mu2.points - mu2.mean),
                                      mu2.weights.copy())
            else:
                mu1 = random_measure(rng)
                mu1 = DiscreteMeasure(mu1.points - mu1.mean + mu2.mean,
                                      mu1.weights.copy())
            system = MarginalSystem([mu1, mu2])
            lo = min(mu1.points.min(), mu2.points.min()) - 1.0
            hi = max(mu1.points.max(), mu2.points.max()) + 1.0
            monotone = True
            for _ in range(200):
                kinks = np.sort(rng.uniform(lo, hi, size=3))
                slopes = np.sort(rng.uniform(-2, 2, size=4))

                def phi(x):
                    y = slopes[0] * (x - kinks[0])
                    for k, ds in zip(kinks, np.diff(slopes)):
                        y = y + ds * np.maximum(x - k, 0.0)
                    return y

                e1 = float(np.dot(mu1.weights, phi(mu1.points)))
                e2 = float(np.dot(mu2.weights, phi(mu2.points)))
                if e1 > e2 + 1e-9:
                    monotone = False
                    break
            assert system.admissible == monotone


class TestDensitySpec:
    @pytest.mark.parametrize("build", [
        lambda: DensitySpec.uniform(1.0, 1.0),
        lambda: DensitySpec.uniform(1.0, 0.0),
        lambda: DensitySpec.piecewise_linear([0.0, 2.0, 1.0], [1.0, 1.0, 1.0]),
        lambda: DensitySpec.piecewise_linear([0.0, 1.0, 2.0], [1.0, 1.0]),
        lambda: DensitySpec.piecewise_linear([0.0, np.nan, 1.0], [1.0, 1.0, 1.0]),
        lambda: DensitySpec.piecewise_linear([0.0, np.inf], [1.0, 1.0]),
        lambda: DensitySpec.uniform(-np.inf, 0.0),
        lambda: DensitySpec.piecewise_linear([0.0, 1.0], [1.0, -0.5]),
        lambda: DensitySpec.piecewise_linear([0.0, 1.0], [1.0, np.nan]),
        lambda: DensitySpec.piecewise_linear([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
        lambda: DensitySpec(np.array([0.0, 1.0]), np.array([-1.0, 1.0])),
    ], ids=["uniform-empty", "uniform-reversed", "unsorted", "size-mismatch", "nan-x",
            "inf-x", "uniform-inf", "negative-y", "nan-y", "zero-mass", "direct"])
    def test_bad_spec_rejected(self, build):
        with pytest.raises(BadSpec):
            build()


class TestArrayDataclasses:
    @pytest.mark.parametrize("build", [
        lambda: DensitySpec.uniform(0.0, 1.0),
        lambda: two_point(0.0, 1.0),
        lambda: CallCurve(np.array([90.0, 100.0, 110.0]), np.array([10.0, 0.0, 0.0])),
        lambda: tabulated([[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [2.0, 3.0]]),
        lambda: asian_call(1.0, 3),
    ], ids=["DensitySpec", "DiscreteMeasure", "CallCurve", "tabulated", "asian_call"])
    def test_equality_and_hash_by_identity(self, build):
        a, b = build(), build()
        assert a == a
        assert a != b
        assert len({a, b, a}) == 2


class TestDiscretize:
    def test_uniform_two_cells(self):
        mu = discretize(uniform_spec(), 2)
        np.testing.assert_allclose(mu.points, [-0.5, 0.5], atol=ATOL)
        np.testing.assert_allclose(mu.weights, [0.5, 0.5], atol=ATOL)

    def test_uniform_four_cells(self):
        mu = discretize(uniform_spec(), 4)
        np.testing.assert_allclose(mu.points, [-0.75, -0.25, 0.25, 0.75], atol=ATOL)
        np.testing.assert_allclose(mu.weights, [0.25] * 4, atol=ATOL)

    def test_trapezoid_three_cells(self):
        # equal-mass cells of the density (2+s)/3, 1/3, (2-s)/3 split at
        # +-1/2; the outer barycenters come out at -+25/24
        mu = discretize(trapezoid_spec(), 3)
        np.testing.assert_allclose(mu.weights, [1 / 3] * 3, atol=ATOL)
        np.testing.assert_allclose(mu.points, [-25 / 24, 0.0, 25 / 24], atol=1e-9)
        assert mu.mean == pytest.approx(0.0, abs=ATOL)

    def test_mean_preserved(self):
        cases = [
            (trapezoid_spec(), 0.0, 2.0),
            # zero density on the interior gap (-1, 1)
            (DensitySpec.piecewise_linear([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0],
                                          [1.0, 1.0, 0.0, 0.0, 1.0, 1.0]), 0.0, 3.0),
            # a bump 500 times the base level, 2e-3 wide, symmetric about 1
            (DensitySpec.piecewise_linear([-1.0, 0.999, 1.0, 1.001, 3.0],
                                          [0.1, 0.1, 50.0, 0.1, 0.1]), 1.0, 2.0),
        ]
        for spec, mean, half_width in cases:
            x, y = spec.xs, spec.ys
            cdf_at_x = np.concatenate(([0.0], np.cumsum((y[:-1] + y[1:]) * np.diff(x) / 2.0)))
            for m in (7, 33, 101):
                mu = discretize(spec, m)
                assert mu.mean == pytest.approx(mean, abs=ATOL)
                assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
                # equal-mass cells, each atom inside its own cell
                np.testing.assert_allclose(mu.weights, 1.0 / m, rtol=0, atol=1e-14)
                k = np.clip(np.searchsorted(x, mu.points, side="right") - 1, 0, x.size - 2)
                cdf = cdf_at_x[k] + (y[k] + np.interp(mu.points, x, y)) * (mu.points - x[k]) / 2.0
                assert np.all(cdf * m > np.arange(m)) and np.all(cdf * m < np.arange(1, m + 1))
                wider = discretize(DensitySpec.uniform(mean - 2 * half_width, mean + 2 * half_width), m)
                assert MarginalSystem([mu, wider]).admissible


class TestBarriers:
    def test_jensen_pair_single_block(self):
        dec = detect_barriers(dirac(0.0), two_point(-1.0, 1.0))
        assert len(dec.blocks) == 1
        assert dec.levels.size == 0

    def test_equal_marginals_every_gap(self):
        mu = DiscreteMeasure(np.array([0.0, 1.0, 2.0]), np.array([0.25, 0.5, 0.25]))
        dec = detect_barriers(mu, mu)
        assert len(dec.blocks) == 3
        for block in dec.blocks:
            assert len(block.sub1) == 1
            assert len(block.sub2) == 1

    def test_counterexample_barriers_at_partial_sums(self):
        system = counterexample_marginals(5, 8)
        dec = detect_barriers(*system.marginals)
        partial = np.cumsum([1.0 / i**2 for i in range(1, 6)])
        np.testing.assert_allclose(dec.levels, partial, atol=ATOL)
        assert len(dec.blocks) == 6

    def test_block_masses_and_restrictions(self):
        system = counterexample_marginals(3, 4)
        dec = detect_barriers(*system.marginals)
        for block in dec.blocks:
            assert isinstance(block, Block)
            assert block.mass > 0
            assert block.sub1.points.min() >= block.lo - ATOL
            assert block.sub2.points.max() <= block.hi + ATOL
        total = sum(b.mass for b in dec.blocks)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestCounterexampleMarginals:
    def test_n1(self):
        system = counterexample_marginals(1, 4)
        mu1 = system.marginals[0]
        np.testing.assert_allclose(mu1.points, [0.5, 1.5], atol=ATOL)
        np.testing.assert_allclose(mu1.weights, [0.5, 0.5], atol=ATOL)

    def test_n2(self):
        mu1 = counterexample_marginals(2, 4).marginals[0]
        np.testing.assert_allclose(mu1.points, [0.5, 1.125, 1.625], atol=ATOL)
        np.testing.assert_allclose(mu1.weights, [0.5, 0.125, 0.375], atol=ATOL)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_mass_and_mean(self, n):
        system = counterexample_marginals(n, 6)
        for mu in system.marginals:
            assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert mu.mean == pytest.approx(1.0, abs=1e-10)
        assert system.admissible


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=9, unique=True),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_call_price_convexity_property(points, seed):
    pts = np.sort(np.asarray(points, dtype=float))
    if np.any(np.diff(pts) < 1e-6):
        return
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, size=pts.size)
    mu = DiscreteMeasure(pts, w / w.sum())
    ks = np.linspace(pts[0] - 1, pts[-1] + 1, 50)
    cs = call_price(mu, ks)
    assert np.all(np.diff(cs) <= 1e-9)
    assert np.all(np.diff(cs, 2) >= -1e-9)
    # left wing slope -1, right wing 0
    assert call_price(mu, pts[0] - 5.0) == pytest.approx(mu.mean - (pts[0] - 5.0))
    assert call_price(mu, pts[-1] + 5.0) == 0.0


def test_load_call_curves_csv_and_json(tmp_path):
    csv_path = tmp_path / "q.csv"
    csv_path.write_text("maturity_index,strike,price\n1,0.0,1.0\n1,1.0,0.5\n1,2.0,0.0\n")
    curves = load_call_curves(csv_path)
    assert len(curves) == 1
    np.testing.assert_allclose(curves[0].strikes, [0.0, 1.0, 2.0])

    json_path = tmp_path / "q.json"
    json_path.write_text(json.dumps([{"i": 1, "K": 0.0, "C": 1.0},
                                     {"i": 1, "K": 2.0, "C": 0.0},
                                     {"i": 1, "K": 1.0, "C": 0.5}]))
    curves = load_call_curves(json_path)
    np.testing.assert_allclose(curves[0].strikes, [0.0, 1.0, 2.0])

    with pytest.raises(ValueError):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        load_call_curves(bad)


def test_load_call_curves_takes_integral_float_indices(tmp_path):
    csv_path = tmp_path / "q.csv"
    csv_path.write_text("maturity_index,strike,price\n"
                        "2.0,0.0,1.0\n2,2.0,0.0\n1,0.0,1.0\n1.0,1.0,0.5\n")
    curves = load_call_curves(csv_path)
    assert [c.strikes.tolist() for c in curves] == [[0.0, 1.0], [0.0, 2.0]]
    json_path = tmp_path / "q.json"
    json_path.write_text(json.dumps([{"i": i, "K": k, "C": c} for i, k, c in
                                     ((2.0, 0.0, 1.0), (2, 2.0, 0.0), (1, 0.0, 1.0), (1.0, 1.0, 0.5))]))
    assert [c.strikes.tolist() for c in load_call_curves(json_path)] == [[0.0, 1.0], [0.0, 2.0]]


@pytest.mark.parametrize("name, text, message", [
    ("object.json", '{"i": 0, "K": 0, "C": 1}', "list of"),
    ("lists.json", "[[0, 0, 1]]", "list of"),
    ("null.json", '[{"i": 0, "K": null, "C": 1}]', "lacks a number"),
    ("short.csv", "maturity_index,strike,price\n1,0.0\n", "lacks a number"),
    ("huge.json", '[{"i": 1%s, "K": 0, "C": 1}]' % ("0" * 400), "out of range"),
    ("fraction.json", '[{"i": 1.7, "K": 0, "C": 1}]', "maturity index 1.7 "),
    ("fraction.csv", "maturity_index,strike,price\n1,0.0,1.0\n1.5,1.0,0.5\n", "maturity index 1.5 "),
    ("no-price.json", '[{"i": 1, "K": 0.5}]', "lacks field 'C'"),
    ("bool.json", '[{"i": true, "K": 0, "C": 1}]', "field 'i' of a quote in .* is not a number: True"),
    ("string.json", '[{"i": 1, "K": "0.5", "C": 1}]', "field 'K' of a quote in .* is not a number: '0.5'"),
], ids=["json-object", "json-lists", "json-null", "csv-short-row", "json-huge-index", "json-fractional-index",
        "csv-fractional-index", "json-missing-field", "json-boolean", "json-string"])
def test_load_call_curves_malformed_quotes_raise_value_error(tmp_path, name, text, message):
    # the first four used to escape as a TypeError, a fractional index was
    # truncated into the date below it, a missing field escaped as a
    # KeyError, and a boolean or string field loaded as the number it spells
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_call_curves(path)


def test_from_call_curve_rejects_a_non_finite_spot():
    curve = CallCurve(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.0]))
    for s0 in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="s0 must be finite"):
            from_call_curve(curve, s0)
