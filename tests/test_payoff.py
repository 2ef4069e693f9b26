"""Payoffs: evaluation, tabulation, last-axis data, JSON forms."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motbound.errors import DimensionMismatch, OffGrid
from motbound.payoff import (Payoff, asian_call, custom, evaluate, evaluate_last_axis,
                             forward_start_call, forward_start_straddle, last_axis,
                             last_coord_kinks, lookback_call, negated_straddle, tabulate,
                             tabulated)

ALL_BUILTINS = [
    forward_start_call(1.0),
    forward_start_call(0.8),
    forward_start_straddle(),
    negated_straddle(),
    asian_call(0.5, 2),
    asian_call(0.0, 3),
    lookback_call(0.5, 2),
    lookback_call(-1.0, 3),
]


class TestEvaluate:
    def test_straddle_on_diagonal(self):
        assert evaluate(forward_start_straddle(), [1.0, 1.0]) == 0.0

    def test_forward_start_call(self):
        assert evaluate(forward_start_call(1.0), [1.0, 3.0]) == pytest.approx(2.0)

    def test_asian(self):
        assert evaluate(asian_call(0.0, 2), [-1.0, 3.0]) == pytest.approx(1.0)

    def test_lookback(self):
        assert evaluate(lookback_call(0.5, 3), [0.0, 2.0, 1.0]) == pytest.approx(1.5)

    def test_negated_straddle(self):
        assert evaluate(negated_straddle(), [1.0, -2.0]) == pytest.approx(-3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate(forward_start_straddle(), [1.0, 2.0, 3.0])

    def test_custom(self):
        pay = custom(lambda s: s[0] * s[1], n=2)
        assert evaluate(pay, [2.0, 3.0]) == pytest.approx(6.0)


class TestTabulated:
    def test_lookup_and_off_grid(self):
        pay = tabulated([[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [2.0, 3.0]])
        assert evaluate(pay, [1.0, 0.0]) == pytest.approx(2.0)
        with pytest.raises(OffGrid):
            evaluate(pay, [0.5, 0.0])

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            tabulated([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]])


class TestTabulate:
    def test_straddle_row_major(self):
        vals = tabulate(forward_start_straddle(), [[-1.0, 1.0], [-2.0, 0.0, 2.0]])
        np.testing.assert_allclose(vals, [1.0, 1.0, 3.0, 3.0, 1.0, 1.0])

    def test_constant_zero(self):
        pay = custom(lambda s: 0.0, n=2)
        vals = tabulate(pay, [[-1.0, 0.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(vals, np.zeros(6))

    def test_forward_start_call_half(self):
        vals = tabulate(forward_start_call(0.5), [[1.0], [0.0, 1.0]])
        np.testing.assert_allclose(vals, [0.0, 0.5])

    def test_three_dates(self):
        vals = tabulate(asian_call(0.0, 3), [[0.0, 3.0], [0.0], [0.0, 3.0]])
        np.testing.assert_allclose(vals, [0.0, 1.0, 1.0, 2.0])


class TestStraddleIdentity:
    # |s2 - s1| = 2*(s2 - s1)^+ - (s2 - s1) pointwise
    @given(st.floats(-100, 100), st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_pointwise(self, s1, s2):
        straddle = evaluate(forward_start_straddle(), [s1, s2])
        call = evaluate(forward_start_call(1.0), [s1, s2])
        assert straddle == pytest.approx(2.0 * call - (s2 - s1), abs=1e-9)


class TestLastAxisHelpers:
    def test_evaluate_last_axis_matches_pointwise(self):
        rng = np.random.default_rng(2)
        z = np.sort(rng.uniform(-4, 4, size=17))
        for pay in ALL_BUILTINS:
            hist = rng.uniform(-2, 2, size=pay.n - 1)
            fast = evaluate_last_axis(pay, hist, z)
            slow = [evaluate(pay, list(hist) + [zz]) for zz in z]
            np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_kinks_are_complete(self):
        # every genuine slope change of z -> payoff(history, z) is reported
        # (extra candidates are harmless; a missing kink breaks verification)
        hist_by_n = {2: [0.7], 3: [0.7, -0.3]}
        for pay in ALL_BUILTINS:
            hist = hist_by_n[pay.n]
            reported = np.asarray(last_coord_kinks(pay, hist), dtype=float)
            z = np.linspace(-5.0, 5.0, 2001)
            f = evaluate_last_axis(pay, hist, z)
            slopes = np.diff(f) / np.diff(z)
            jumps = np.nonzero(np.abs(np.diff(slopes)) > 1e-8)[0]
            for j in jumps:
                loc = z[j + 1]
                assert np.any(np.abs(reported - loc) < 6e-3), (pay.kind, loc)

    @pytest.mark.parametrize("pay", ALL_BUILTINS, ids=lambda p: p.kind + str(p.n))
    def test_declared_wing_slopes_match_far_out_slopes(self, pay):
        hist = [0.7, -0.3][: pay.n - 1]
        data = last_axis(pay, *hist)
        far = max(abs(k) for k in last_coord_kinks(pay, hist)) + 10.0
        f = evaluate_last_axis(pay, hist, np.array([-far - 1.0, -far, far, far + 1.0]))
        assert data.left_slope == pytest.approx(f[1] - f[0], abs=1e-12)
        assert data.right_slope == pytest.approx(f[3] - f[2], abs=1e-12)

    def test_no_last_axis_data_for_tabulated_and_custom(self):
        assert last_axis(custom(lambda s: 0.0, n=2), 0.5) is None
        assert last_axis(tabulated([[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [2.0, 3.0]]), 1.0) is None


class TestJson:
    @pytest.mark.parametrize("pay", ALL_BUILTINS, ids=lambda p: p.kind + str(p.n))
    def test_round_trip(self, pay):
        back = Payoff.from_json(json.loads(json.dumps(pay.to_json())))
        assert back.kind == pay.kind
        assert back.n == pay.n
        rng = np.random.default_rng(0)
        for s in rng.uniform(-5, 5, size=(50, pay.n)):
            assert evaluate(back, s) == pytest.approx(evaluate(pay, s), abs=1e-12)

    def test_tabulated_round_trip(self):
        pay = tabulated([[-1.0, 1.0], [-2.0, 0.0, 2.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        back = Payoff.from_json(pay.to_json())
        np.testing.assert_allclose(tabulate(back, [[-1.0, 1.0], [-2.0, 0.0, 2.0]]),
                                   tabulate(pay, [[-1.0, 1.0], [-2.0, 0.0, 2.0]]))

    @pytest.mark.parametrize("kind", ["forward_start_call", "forward_start_straddle",
                                      "negated_straddle"])
    def test_rejects_n_the_kind_cannot_take(self, kind):
        with pytest.raises(ValueError, match=f"{kind}.*n=3"):
            Payoff.from_json({"kind": kind, "n": 3, "params": {}})

    @pytest.mark.parametrize("n", [2.7, 3.5, float("inf"), float("nan"), None, "3", [3]])
    def test_rejects_a_non_integer_n(self, n):
        with pytest.raises(ValueError, match=re.escape(f"payoff n {n!r} is not an integer")):
            Payoff.from_json({"kind": "asian_call", "n": n, "params": {"strike": 1}})
        obj = tabulated([[-1.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [2.0, 3.0]]).to_json()
        with pytest.raises(ValueError, match=re.escape(f"payoff n {n!r} is not an integer")):
            Payoff.from_json({**obj, "n": n})

    def test_integral_float_n_is_accepted(self):
        assert Payoff.from_json({"kind": "asian_call", "n": 3.0, "params": {"strike": 1}}).n == 3

    def test_tabulated_n_must_match_grids(self):
        obj = tabulated([[-1.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [2.0, 3.0]]).to_json()
        with pytest.raises(ValueError, match="n=3"):
            Payoff.from_json({**obj, "n": 3})

    def test_tabulated_rejects_a_parameter_besides_grids_and_values(self):
        obj = {"kind": "tabulated", "params": {"grids": [[0, 1], [0, 1]], "values": [0, 1, 2, 3], "strike": 5}}
        with pytest.raises(ValueError, match="tabulated.*no parameter 'strike'"):
            Payoff.from_json(obj)

    def test_rejects_a_parameter_the_kind_does_not_take(self):
        with pytest.raises(ValueError, match="forward_start_call.*no parameter 'strike'"):
            Payoff.from_json({"kind": "forward_start_call", "params": {"strike": 1.3}})

    @pytest.mark.parametrize("kind, params, name", [
        ("asian_call", {}, "strike"), ("lookback_call", {}, "strike"),
        ("tabulated", {}, "grids"), ("tabulated", {"grids": [[0, 1], [0, 1], [0, 1]]}, "values"),
    ], ids=["asian_call", "lookback_call", "tabulated-grids", "tabulated-values"])
    def test_required_parameter_is_named(self, kind, params, name):
        with pytest.raises(ValueError, match=f"{kind}.*needs parameter '{name}'"):
            Payoff.from_json({"kind": kind, "n": 3, "params": params})

    def test_default_parameter_fills_in(self):
        pay = Payoff.from_json({"kind": "forward_start_call"})
        assert pay.n == 2 and pay.params == {"strike_ratio": 1.0}

    def test_custom_has_no_json(self):
        pay = custom(lambda s: 0.0, n=2)
        with pytest.raises(ValueError):
            pay.to_json()


class TestRecords:
    @pytest.mark.parametrize("kwargs, match", [
        ({"kind": "forward_start_call", "n": 3, "params": {"strike_ratio": 1.0}}, "n=3"),
        ({"kind": "negated_straddle", "n": 3, "params": {}}, "n=3"),
        ({"kind": "asian_call", "n": 3, "params": {}}, "needs parameter 'strike'"),
        ({"kind": "lookback_call", "n": 2, "params": {"strike": 1.0, "cap": 2.0}}, "no parameter 'cap'"),
        ({"kind": "forward_start_straddle", "n": 2, "params": {"strike_ratio": 1.0}},
         "no parameter 'strike_ratio'"),
        ({"kind": "custom", "n": 2, "params": {}}, "custom.*needs a callable 'fn'"),
        ({"kind": "tabulated", "n": 2, "params": {}}, "tabulated.*needs 'grids' and 'values'"),
        ({"kind": "tabulated", "n": 3, "params": {}, "grids": (np.arange(2.0), np.arange(2.0)),
          "values": np.zeros((2, 2))}, "n=3; it has 2 grids"),
        ({"kind": "tabulated", "n": 2, "params": {"strike": 5.0}, "grids": (np.arange(2.0), np.arange(2.0)),
          "values": np.zeros((2, 2))}, "no parameter 'strike'"),
    ], ids=["fixed_n", "fixed_n_no_param", "missing", "extra", "extra_no_param", "custom_no_fn",
            "tabulated_no_grids", "tabulated_n", "tabulated_extra"])
    def test_direct_construction_is_checked(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            Payoff(**kwargs)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, "inf"],
                             ids=["inf", "minus_inf", "nan", "inf_text"])
    @pytest.mark.parametrize("kind, param", [("asian_call", "strike"), ("lookback_call", "strike"),
                                             ("forward_start_call", "strike_ratio")])
    def test_parameter_must_be_finite(self, kind, param, value):
        with pytest.raises(ValueError, match=f"{kind}.*finite '{param}'"):
            Payoff(kind=kind, n=2, params={param: value})
        with pytest.raises(ValueError, match=f"{kind}.*finite '{param}'"):
            Payoff.from_json({"kind": kind, "params": {param: value}})

    def test_parameter_is_stored_as_float(self):
        pay = Payoff(kind="asian_call", n=3, params={"strike": 1})
        assert pay.params == {"strike": 1.0} and type(pay.params["strike"]) is float
