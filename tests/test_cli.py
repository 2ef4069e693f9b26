"""Command-line behavior: artifacts, exit codes, determinism."""

from __future__ import annotations

import argparse
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import motbound.cli as cli
import motbound.mot as mot
from motbound.cli import main
from motbound.fixtures import instance_a_marginals, smooth_pair
from motbound.measures import (DensitySpec, DiscreteMeasure, MarginalSystem, call_price,
                               counterexample_marginals, discretize)
from motbound.payoff import (asian_call, forward_start_call, forward_start_straddle,
                             lookback_call, negated_straddle)


@pytest.fixture()
def marginals_a(tmp_path):
    path = tmp_path / "instance_a.json"
    path.write_text(json.dumps(instance_a_marginals().to_json()))
    return str(path)


class TestBounds:
    def test_instance_a_prints_seven_sixths(self, marginals_a, capsys):
        rc = main(["bounds", "--marginals", marginals_a, "--payoff", "straddle"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lower 1.16666666667" in out
        assert "upper 1.16666666667" in out

    def test_artifact_embeds_diagnostics(self, marginals_a, tmp_path):
        dest = tmp_path / "bounds.json"
        rc = main(["bounds", "--marginals", marginals_a, "--payoff", "straddle",
                   "--sense", "lower", "--out", str(dest)])
        assert rc == 0
        blob = json.loads(dest.read_text())
        entry = blob["results"]["lower"]
        assert entry["value"] == pytest.approx(7.0 / 6.0, abs=1e-9)
        assert entry["hedge_price"] == pytest.approx(7.0 / 6.0, abs=1e-7)
        assert "duality_gap" in entry["diagnostics"]
        assert "max_marginal_residual" in entry["diagnostics"]
        assert entry["verification"]["max_violation"] <= 1e-8
        assert entry["hedge"]["portfolios"]

    def test_no_negative_zero_in_the_artifact(self, marginals_a, tmp_path):
        # instance A's lower lookback hedge has two deltas that detrend to
        # zero; they were written as -0.0
        dest = tmp_path / "lookback.json"
        assert main(["bounds", "--marginals", marginals_a, "--payoff", "lookback_call:0.1",
                     "--out", str(dest)]) == 0
        numbers = []

        def walk(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                for item in node:
                    walk(item)
            elif isinstance(node, float):
                numbers.append(node)

        blob = json.loads(dest.read_text())
        walk(blob)
        assert [x for x in numbers if x == 0.0 and math.copysign(1.0, x) < 0.0] == []
        deltas = [e["delta"] for e in blob["results"]["lower"]["hedge"]["deltas"][0]["entries"]]
        assert 0.0 in deltas

    def test_seed_sandwich_line(self, marginals_a, capsys):
        rc = main(["bounds", "--marginals", marginals_a, "--payoff", "straddle",
                   "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sandwich(seed=3)" in out
        assert "ok" in out

    def test_byte_identical_reruns(self, marginals_a, tmp_path):
        a, b = tmp_path / "run1.json", tmp_path / "run2.json"
        for dest in (a, b):
            assert main(["bounds", "--marginals", marginals_a, "--payoff",
                         "straddle", "--out", str(dest)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_both_senses_share_one_model(self, marginals_a, passed_models):
        assert main(["bounds", "--marginals", marginals_a, "--payoff", "straddle"]) == 0
        assert len(passed_models) == 1

    def test_not_admissible_is_domain_error(self, tmp_path, capsys):
        system = instance_a_marginals()
        data = {"marginals": list(reversed(system.to_json()["marginals"]))}
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps(data))
        rc = main(["bounds", "--marginals", str(path), "--payoff", "straddle"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        rc = main(["bounds", "--marginals", str(tmp_path / "nope.json"),
                   "--payoff", "straddle"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_payoff_is_config_error(self, marginals_a, capsys):
        rc = main(["bounds", "--marginals", marginals_a, "--payoff", "gamma_swap"])
        assert rc == 2
        assert "unknown payoff" in capsys.readouterr().err

    def test_decompose_matches_plain_bounds(self, tmp_path):
        path = tmp_path / "counterexample.json"
        path.write_text(json.dumps(counterexample_marginals(2, 4).to_json()))
        blobs = {}
        for flags in ([], ["--decompose"]):
            dest = tmp_path / f"bounds{len(flags)}.json"
            assert main(["bounds", "--marginals", str(path), "--payoff", "negated_straddle",
                         "--out", str(dest), *flags]) == 0
            blobs[bool(flags)] = json.loads(dest.read_text())["results"]
        for sense in ("lower", "upper"):
            # both run on one solver in one order, so only the block extras differ
            diag = blobs[True][sense]["diagnostics"]
            assert diag["blocks"] == 3  # two barriers plus the residual block
            assert len(diag["barrier_levels"]) == 2
            assert len(diag["block_values"]) == 3
            for key in ("blocks", "barrier_levels", "block_values", "delta_increments"):
                diag.pop(key, None)
            assert blobs[True][sense] == blobs[False][sense]  # values and hedges included

    def test_tol_gap_below_measured_gap_is_domain_error(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "smooth21.json"
        path.write_text(json.dumps(smooth_pair(21).to_json()))
        dest = tmp_path / "bounds.json"
        argv = ["bounds", "--marginals", str(path), "--payoff", "straddle", "--sense", "upper"]
        assert main(argv + ["--out", str(dest)]) == 0
        value = json.loads(dest.read_text())["results"]["upper"]["value"]
        # the solver may close the gap exactly, so price the hedge a known
        # amount above the bound
        monkeypatch.setattr(mot, "hedge_price", lambda hedge, system: value + 1e-9)
        assert main(argv + ["--out", str(dest)]) == 0
        entry = json.loads(dest.read_text())["results"]["upper"]
        gap = entry["diagnostics"]["duality_gap"]
        assert gap > 0.0
        scale = 1.0 + abs(entry["value"])
        monkeypatch.setattr(mot, "GAP_TOL", 2.0 * gap / scale)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(mot, "GAP_TOL", 0.5 * gap / scale)
        assert main(argv) == 1
        assert "duality gap" in capsys.readouterr().err


@pytest.fixture()
def marginals_3(tmp_path):
    """Three uniform dates with five atoms each, widening with the date."""
    system = MarginalSystem([discretize(DensitySpec.uniform(1.0 - 0.1 * k, 1.0 + 0.1 * k), 5)
                             for k in (1, 2, 3)])
    path = tmp_path / "three_dates.json"
    path.write_text(json.dumps(system.to_json()))
    return str(path)


class TestPayoffShorthand:
    @pytest.mark.parametrize("shorthand, payoff, dates", [
        ("straddle", forward_start_straddle(), 2),
        ("forward_start_straddle", forward_start_straddle(), 2),
        ("negated_straddle", negated_straddle(), 2),
        ("forward_start_call", forward_start_call(1.0), 2),
        ("forward_start_call:1.05", forward_start_call(1.05), 2),
        ("asian_call:1.0", asian_call(1.0, 3), 3),
        ("lookback_call:1.05", lookback_call(1.05, 3), 3),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_matches_the_json_file(self, shorthand, payoff, dates, marginals_a, marginals_3,
                                   tmp_path):
        marginals = marginals_a if dates == 2 else marginals_3
        spec = tmp_path / "payoff.json"
        spec.write_text(json.dumps(payoff.to_json()))
        artifacts = []
        for name, arg in (("shorthand", shorthand), ("file", str(spec))):
            dest = tmp_path / f"{name}.json"
            assert main(["bounds", "--marginals", marginals, "--payoff", arg,
                         "--sense", "both", "--out", str(dest)]) == 0
            artifacts.append(dest.read_bytes())
        assert artifacts[0] == artifacts[1]
        assert json.loads(artifacts[0])["payoff"] == payoff.to_json()

    @pytest.mark.parametrize("arg, dates, message", [
        ("straddle:5", 2, "takes no value"),
        ("negated_straddle:1", 2, "takes no value"),
        ("asian_call", 3, "needs parameter 'strike'"),
        ("lookback_call", 2, "needs parameter 'strike'"),
        ("straddle", 3, "cannot take n=3"),
        ("forward_start_call:1.1", 3, "cannot take n=3"),
        ("tabulated", 2, "unknown payoff"),
        ("asian_call:inf", 2, "needs a finite 'strike'"),
        ("forward_start_call:nan", 2, "needs a finite 'strike_ratio'"),
    ], ids=["straddle_value", "negated_value", "asian_no_strike", "lookback_no_strike",
            "straddle_3_dates", "call_3_dates", "tabulated", "asian_inf", "call_nan"])
    def test_bad_shorthand_is_config_error(self, arg, dates, message, marginals_a, marginals_3,
                                           capsys):
        marginals = marginals_a if dates == 2 else marginals_3
        assert main(["bounds", "--marginals", marginals, "--payoff", arg]) == 2
        assert message in capsys.readouterr().err

    def test_non_finite_value_writes_no_artifact(self, tmp_path, capsys):
        # once solved with bounds 0, and a report whose -Infinity is not JSON
        marginals = tmp_path / "m.json"
        marginals.write_text(json.dumps(smooth_pair(15).to_json()))
        dest = tmp_path / "bounds.json"
        assert main(["bounds", "--marginals", str(marginals), "--payoff", "asian_call:inf",
                     "--out", str(dest)]) == 2
        assert "needs a finite 'strike', got inf" in capsys.readouterr().err
        assert not dest.exists()

    def test_json_parameter_the_kind_does_not_take_is_config_error(self, marginals_a, tmp_path,
                                                                  capsys):
        spec = tmp_path / "payoff.json"
        spec.write_text(json.dumps({"kind": "forward_start_call", "params": {"strike": 1.3}}))
        assert main(["bounds", "--marginals", marginals_a, "--payoff", str(spec)]) == 2
        assert "no parameter 'strike'" in capsys.readouterr().err

    def test_json_fractional_n_is_config_error(self, marginals_3, tmp_path, capsys):
        spec, dest = tmp_path / "payoff.json", tmp_path / "bounds.json"
        spec.write_text(json.dumps({"kind": "asian_call", "n": 2.7, "params": {"strike": 1}}))
        assert main(["bounds", "--marginals", marginals_3, "--payoff", str(spec), "--out", str(dest)]) == 2
        assert "payoff n 2.7 is not an integer" in capsys.readouterr().err
        assert not dest.exists()

    @pytest.mark.parametrize("command, text, field", [
        ("check-order", "[1, 2]", "'marginals'"),
        ("check-order", '{"marginals": [1, 2]}', "'points'"),
        ("check-order", '{"marginals": "ab"}', "'marginals'"),
        ("bounds", '"straddle"', "'kind'"),
        ("bounds", '{"kind": ["x"]}', "'kind'"),
        ("bounds", '{"kind": "asian_call", "n": 2, "params": [1]}', "'params'"),
        ("bounds", '{"kind": "asian_call", "n": 2, "params": {"strike": [1]}}', "'strike'"),
        ("bounds", '{"kind": "tabulated", "params": {"grids": 5, "values": 1}}', "'grids'"),
        # JSON true is no number: it was read as 1
        ("check-order", '{"marginals": [{"points": [true, false], "weights": [0.5, 0.5]}, '
                        '{"points": [0, 1], "weights": [0.5, 0.5]}]}', "'points'"),
        ("bounds", '{"kind": "asian_call", "n": 2, "params": {"strike": true}}', "'strike'"),
    ], ids=["system_list", "marginal_numbers", "marginals_string", "payoff_string", "kind_list",
            "params_list", "strike_list", "tabulated_numbers", "points_bool", "strike_bool"])
    def test_malformed_json_file_is_config_error(self, command, text, field, marginals_a, tmp_path,
                                                 capsys):
        # check-order reads the file as marginals, bounds as the payoff
        spec, dest = tmp_path / "bad.json", tmp_path / "out.json"
        spec.write_text(text)
        if command == "check-order":
            argv = ["check-order", "--marginals", str(spec)]
        else:
            argv = ["bounds", "--marginals", marginals_a, "--payoff", str(spec)]
        assert main([*argv, "--out", str(dest)]) == 2
        assert field in capsys.readouterr().err
        assert not dest.exists()

    def test_json_tabulated_parameter_besides_grids_and_values_is_config_error(self, marginals_a,
                                                                             tmp_path, capsys):
        spec = tmp_path / "payoff.json"
        spec.write_text(json.dumps({"kind": "tabulated", "params": {
            "grids": [[0, 1], [0, 1]], "values": [0, 1, 2, 3], "strike": 5}}))
        assert main(["bounds", "--marginals", marginals_a, "--payoff", str(spec)]) == 2
        assert "no parameter 'strike'" in capsys.readouterr().err


class TestParser:
    def test_built_once_per_process(self, marginals_a, monkeypatch, capsys):
        add_argument = argparse.ArgumentParser.add_argument
        calls = []

        def counting_add_argument(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add_argument)
        cli.build_parser.cache_clear()
        argv = ["check-order", "--marginals", marginals_a]
        assert main(argv) == 0
        built = len(calls)
        assert built > 0
        assert main(argv) == 0
        assert len(calls) == built

    @pytest.mark.parametrize("flag", ["--tol-feas", "--tol-gap"])
    def test_tolerance_flags_are_gone(self, marginals_a, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--marginals", marginals_a, "--payoff", "straddle", flag, "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_examples_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("motbound ")]
        assert len(commands) == 9
        for argv in commands:
            cli.build_parser().parse_args(argv)


class TestCheckOrder:
    def test_admissible(self, marginals_a, capsys):
        rc = main(["check-order", "--marginals", marginals_a])
        assert rc == 0
        assert "admissible" in capsys.readouterr().out

    def test_reversed_names_the_strike(self, tmp_path, capsys):
        system = instance_a_marginals()
        data = {"marginals": list(reversed(system.to_json()["marginals"]))}
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps(data))
        rc = main(["check-order", "--marginals", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "not admissible" in out
        assert "at strike 1" in out

    def test_json_artifact(self, marginals_a, tmp_path):
        dest = tmp_path / "order.json"
        assert main(["check-order", "--marginals", marginals_a,
                     "--out", str(dest)]) == 0
        blob = json.loads(dest.read_text())
        assert blob["admissible"] is True
        assert blob["means"] == [0.0, 0.0]


class TestSweep:
    def test_eleven_rows_ordered(self, marginals_a, tmp_path):
        dest = tmp_path / "sweep.csv"
        rc = main(["sweep", "--marginals", marginals_a,
                   "--strikes", "0.5:1.5:0.1", "--out", str(dest)])
        assert rc == 0
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "strike,lower,upper,status"
        assert len(lines) == 12
        for line in lines[1:]:
            _, lo, hi, status = line.split(",")
            assert status == "ok"
            assert float(lo) <= float(hi) + 1e-9

    def test_byte_identical_reruns(self, marginals_a, tmp_path):
        a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for dest in (a, b):
            assert main(["sweep", "--marginals", marginals_a,
                         "--strikes", "0.8,1.0,1.2", "--out", str(dest)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("strikes", ["1.0:0.5:0.1", ","], ids=["reversed_range", "empty_list"])
    def test_no_strikes_is_config_error(self, marginals_a, tmp_path, strikes, capsys):
        dest = tmp_path / "sweep.csv"
        rc = main(["sweep", "--marginals", marginals_a, "--strikes", strikes, "--out", str(dest)])
        assert rc == 2
        assert "no strikes" in capsys.readouterr().err
        assert not dest.exists()

    def test_indivisible_range_is_config_error(self, marginals_a, capsys):
        rc = main(["sweep", "--marginals", marginals_a, "--strikes", "0.5:1.5:0.3"])
        assert rc == 2
        assert "step does not divide" in capsys.readouterr().err

    @pytest.mark.parametrize("strikes", ["0.9:inf:0.1", "-inf:1:0.1", "0.9:1.1:nan", "0.9:1.1:inf"],
                             ids=["inf_stop", "minus_inf_start", "nan_step", "inf_step"])
    def test_non_finite_range_is_config_error(self, marginals_a, tmp_path, strikes, capsys):
        dest = tmp_path / "sweep.csv"
        # a range that starts with "-" must be glued to its option
        rc = main(["sweep", "--marginals", marginals_a, f"--strikes={strikes}", "--out", str(dest)])
        assert rc == 2
        assert f"strike range {strikes!r} must be start:stop:step, finite" in capsys.readouterr().err
        assert not dest.exists()

    @pytest.mark.parametrize("strikes", ["0.9:1.1:1e-300", "0.9:1.1:1e-310", "0:1e5:1", "-1e308:1e308:1"],
                             ids=["tiny_step", "subnormal_step", "one_over", "overflowing_span"])
    def test_over_100000_strikes_is_config_error(self, marginals_a, tmp_path, strikes, capsys):
        # refused from the count alone, before the strike list is built
        dest = tmp_path / "sweep.csv"
        rc = main(["sweep", "--marginals", marginals_a, f"--strikes={strikes}", "--out", str(dest)])
        assert rc == 2
        assert f"strike range {strikes!r} gives over 100,000 strikes" in capsys.readouterr().err
        assert not dest.exists()

    def test_100000_strikes_pass_the_ceiling(self):
        assert len(cli._parse_strikes("0:99999:1")) == 100_000

    def test_overflowing_reversed_span_is_config_error(self, marginals_a, capsys):
        # stop - start is -inf here; the count is clipped before it is rounded
        rc = main(["sweep", "--marginals", marginals_a, "--strikes", "1e308:-1e308:1"])
        assert rc == 2
        assert "step does not divide" in capsys.readouterr().err

    def test_negative_start_glued_to_the_flag(self, marginals_a, tmp_path):
        dest = tmp_path / "sweep.csv"
        rc = main(["sweep", "--marginals", marginals_a, "--strikes=-0.5:0.5:0.1", "--out", str(dest)])
        assert rc == 0
        lines = dest.read_text().strip().splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:]] == pytest.approx(np.linspace(-0.5, 0.5, 11))
        assert all(line.endswith(",ok") for line in lines[1:])

    @pytest.mark.parametrize("strikes", ["-0.5:0.5:0.1", ",".join(f"{k:.1f}" for k in np.linspace(-0.5, 0.5, 11))],
                             ids=["range", "list"])
    def test_negative_start_after_a_space(self, marginals_a, tmp_path, strikes):
        # parsed as the value of --strikes, as in the = form above, not as an option
        dest, glued = tmp_path / "sweep.csv", tmp_path / "glued.csv"
        assert main(["sweep", "--marginals", marginals_a, "--strikes", strikes, "--out", str(dest)]) == 0
        assert main(["sweep", "--marginals", marginals_a, f"--strikes={strikes}", "--out", str(glued)]) == 0
        lines = dest.read_text().strip().splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:]] == pytest.approx(np.linspace(-0.5, 0.5, 11))
        assert dest.read_bytes() == glued.read_bytes()


class TestImpliedMarginals:
    @staticmethod
    def write_quotes(tmp_path) -> str:
        """Quotes of the same three-atom law at dates 1 and 2, strike 0 included."""
        mu = DiscreteMeasure(np.array([0.5, 1.0, 2.0]), np.array([0.25, 0.5, 0.25]))
        rows = ["maturity_index,strike,price"]
        for i in (1, 2):
            for k in np.concatenate([[0.0], mu.points]):
                rows.append(f"{i},{k},{call_price(mu, float(k))}")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("\n".join(rows) + "\n")
        return str(quotes)

    def test_round_trip(self, tmp_path, capsys):
        mu = DiscreteMeasure(np.array([0.5, 1.0, 2.0]), np.array([0.25, 0.5, 0.25]))
        quotes = self.write_quotes(tmp_path)
        dest = tmp_path / "implied.json"
        rc = main(["implied-marginals", "--quotes", quotes, "--out", str(dest)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "date 1: 3 atoms" in out
        system = MarginalSystem.from_json(json.loads(dest.read_text()))
        for rec in system.marginals:
            np.testing.assert_allclose(rec.points, mu.points, atol=1e-10)
            np.testing.assert_allclose(rec.weights, mu.weights, atol=1e-10)

    def test_needs_spot_without_strike_zero(self, tmp_path, capsys):
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("maturity_index,strike,price\n"
                          "1,1.0,0.5\n1,2.0,0.1\n"
                          "2,1.0,0.6\n2,2.0,0.2\n")
        rc = main(["implied-marginals", "--quotes", str(quotes)])
        assert rc == 2
        assert "--s0" in capsys.readouterr().err

    @pytest.mark.parametrize("unit", [1.0, 1e-13])
    def test_forward_only_from_a_strike_that_is_zero(self, tmp_path, capsys, unit):
        # smooth_pair(15)'s laws moved to a forward of 3 and quoted in a price
        # unit, with a worthless strike past the atoms: no strike is 0, so
        # none gives the forward, however close to 0 the unit puts the first
        rows = ["maturity_index,strike,price"]
        for i, mu in enumerate(smooth_pair(15).marginals, start=1):
            for k in np.append(mu.points, mu.points[-1] + 1.0):
                rows.append(f"{i},{(float(k) + 3.0) * unit!r},{float(call_price(mu, k)) * unit!r}")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("\n".join(rows) + "\n")
        rc = main(["implied-marginals", "--quotes", str(quotes)])
        assert rc == 2
        assert "--s0" in capsys.readouterr().err

    def test_forward_only_from_strike_zero_as_the_lowest(self, tmp_path, capsys):
        # quotes at smooth_pair(15)'s atoms, mean 0, from -0.93 up: the first
        # date's strike-0 quote sits above lower strikes, so it is not the
        # forward, and without --s0 the command asks for one
        rows = ["maturity_index,strike,price"]
        for i, mu in enumerate(smooth_pair(15).marginals, start=1):
            for k in mu.points:
                rows.append(f"{i},{float(k)!r},{float(call_price(mu, k))!r}")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("\n".join(rows) + "\n")
        rc = main(["implied-marginals", "--quotes", str(quotes)])
        assert rc == 2
        assert "--s0" in capsys.readouterr().err
        assert main(["implied-marginals", "--quotes", str(quotes), "--s0", "0"]) == 0

    @pytest.mark.parametrize("s0", ["nan", "inf"])
    def test_non_finite_spot_is_config_error(self, tmp_path, capsys, s0):
        # NaN fails every comparison, so it would skip the forward check
        rc = main(["implied-marginals", "--quotes", self.write_quotes(tmp_path), "--s0", s0])
        assert rc == 2
        assert f"s0 must be finite, got {s0}" in capsys.readouterr().err

    def test_fractional_maturity_index_is_config_error(self, tmp_path, capsys):
        quotes = tmp_path / "quotes.json"
        quotes.write_text(json.dumps([{"i": i, "K": k, "C": c} for i in (1.7, 2, 2)
                                      for k, c in ((0.0, 1.0), (1.0, 0.5), (2.0, 0.0))]))
        rc = main(["implied-marginals", "--quotes", str(quotes)])
        assert rc == 2
        assert "maturity index 1.7" in capsys.readouterr().err

    def test_json_object_is_config_error(self, tmp_path, capsys):
        quotes = tmp_path / "quotes.json"
        quotes.write_text('{"i": 0, "K": 0, "C": 1}')
        rc = main(["implied-marginals", "--quotes", str(quotes), "--s0", "1"])
        assert rc == 2
        assert 'list of {"i", "K", "C"} records' in capsys.readouterr().err


class TestArb:
    @pytest.fixture()
    def payoff_file(self, tmp_path):
        from motbound.fixtures import instance_b_payoff
        path = tmp_path / "cell.json"
        path.write_text(json.dumps(instance_b_payoff().to_json()))
        return str(path)

    @pytest.mark.parametrize("quote,action", [("0.2", "BUY"), ("0.3", "NO_ARB"),
                                              ("0.4", "SELL")])
    def test_verdicts(self, marginals_a, payoff_file, tmp_path, capsys, quote, action):
        dest = tmp_path / "arb.json"
        rc = main(["arb", "--marginals", marginals_a, "--payoff", payoff_file,
                   "--quoted", quote, "--out", str(dest)])
        assert rc == 0
        assert action in capsys.readouterr().out
        blob = json.loads(dest.read_text())
        assert blob["action"] == action
        assert blob["lower"] == pytest.approx(0.25, abs=1e-9)
        assert blob["upper"] == pytest.approx(1.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("quoted", [["--quoted", "nan"], ["--quoted", "inf"], ["--quoted=-inf"]],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_quote_is_config_error(self, marginals_a, payoff_file, capsys, passed_models, quoted):
        rc = main(["arb", "--marginals", marginals_a, "--payoff", payoff_file, *quoted])
        assert rc == 2
        out, err = capsys.readouterr()
        assert "NO_ARB" not in out
        assert "quoted price must be finite" in err
        assert passed_models == []  # refused before any LP is built

    def test_one_model(self, marginals_a, payoff_file, passed_models):
        assert main(["arb", "--marginals", marginals_a, "--payoff", payoff_file, "--quoted", "0.3"]) == 0
        assert len(passed_models) == 1

    def test_byte_identical_reruns(self, marginals_a, payoff_file, tmp_path):
        a, b = tmp_path / "arb1.json", tmp_path / "arb2.json"
        for dest in (a, b):
            assert main(["arb", "--marginals", marginals_a, "--payoff", payoff_file,
                         "--quoted", "0.3", "--out", str(dest)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOneSolverPerCommand:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--payoff", "straddle", "--seed", "7"],
        ["bounds", "--payoff", "straddle", "--decompose", "--sense", "both"],
        ["arb", "--payoff", "straddle", "--quoted", "0.05"],
        ["sweep", "--strikes", "0.9:1.1:0.05"],
        ["surface", "--payoff", "straddle"],
    ], ids=["bounds_seed", "bounds_decompose", "arb", "sweep", "surface"])
    def test_one_layout_and_one_constraint_set(self, argv, tmp_path, monkeypatch):
        marginals = tmp_path / "m.json"
        marginals.write_text(json.dumps(smooth_pair(15).to_json()))
        # the transport columns number the rows: one numbering per command
        columns, calls = mot.TransportColumns, []
        monkeypatch.setattr(mot, "TransportColumns", lambda *args: calls.append(1) or columns(*args))
        assert main([*argv, "--marginals", str(marginals), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1


class TestSurface:
    def test_csv_shape(self, marginals_a, tmp_path, capsys):
        dest = tmp_path / "surface.csv"
        rc = main(["surface", "--marginals", marginals_a, "--payoff", "straddle",
                   "--sense", "lower", "--out", str(dest)])
        assert rc == 0
        assert "lower 1.16666666667" in capsys.readouterr().out
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "s1,s2,psi,phi,phi_minus_psi"
        assert len(lines) > 1
        gaps = [float(line.split(",")[-1]) for line in lines[1:]]
        assert min(gaps) >= -1e-8

    def test_one_layout_and_the_library_bytes(self, tmp_path, monkeypatch):
        # the export reads its grids from the solver the bound ran on
        system = smooth_pair(15)
        marginals = tmp_path / "m.json"
        marginals.write_text(json.dumps(system.to_json()))
        dest = tmp_path / "surface.csv"
        columns, calls = mot.TransportColumns, []
        monkeypatch.setattr(mot, "TransportColumns", lambda *args: calls.append(1) or columns(*args))
        assert main(["surface", "--marginals", str(marginals), "--payoff", "straddle",
                     "--out", str(dest)]) == 0
        assert len(calls) == 1
        monkeypatch.undo()
        problem = mot.MotProblem(MarginalSystem.from_json(json.loads(marginals.read_text())),
                                 forward_start_straddle(), "lower")
        assert dest.read_text() == mot.surface_csv(problem, mot.bound(problem))

    def test_three_dates_refused_before_any_solve(self, marginals_3, capsys, passed_models):
        rc = main(["surface", "--marginals", marginals_3, "--payoff", "asian_call:1.0"])
        assert rc == 2
        assert "surface export covers two-date problems" in capsys.readouterr().err
        assert passed_models == []


class TestEnvelope:
    def test_zero_start_value_zero(self, marginals_a, capsys):
        rc = main(["envelope", "--marginals", marginals_a, "--payoff", "straddle"])
        assert rc == 0
        assert "value 0" in capsys.readouterr().out

    def test_ascent_artifact_and_u2_restart(self, marginals_a, tmp_path, capsys):
        dest = tmp_path / "env.json"
        rc = main(["envelope", "--marginals", marginals_a, "--payoff", "straddle",
                   "--iters", "50", "--out", str(dest)])
        assert rc == 0
        blob = json.loads(dest.read_text())
        assert blob["iters"] == 50
        assert len(blob["grid"]) == len(blob["u2"])
        # restart from the exported u2: value may only keep climbing
        u2csv = tmp_path / "u2.csv"
        u2csv.write_text("s2,u2\n" + "\n".join(
            f"{z},{v}" for z, v in zip(blob["grid"], blob["u2"])) + "\n")
        rc = main(["envelope", "--marginals", marginals_a, "--payoff", "straddle",
                   "--u2", str(u2csv), "--iters", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        value = float(out.strip().splitlines()[-1].split()[-1])
        assert value == pytest.approx(blob["value"], abs=1e-9)
        assert value <= 7.0 / 6.0 + 1e-8


    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("column", ["s2", "u2"])
    def test_non_finite_u2_csv_is_config_error(self, marginals_a, tmp_path, capsys, column, bad):
        u2csv, dest = tmp_path / "u2.csv", tmp_path / "env.json"
        rows = [["-1", "0"], ["0", "0"], ["1", "0"], ["3", "0"]]
        rows[1][column == "u2"] = bad
        u2csv.write_text("s2,u2\n" + "".join(",".join(r) + "\n" for r in rows))
        rc = main(["envelope", "--marginals", marginals_a, "--payoff", "straddle",
                   "--u2", str(u2csv), "--out", str(dest)])
        assert rc == 2
        assert "u2 grid points and values must be finite" in capsys.readouterr().err
        assert not dest.exists()

    def test_negative_iters_is_config_error(self, marginals_a, tmp_path, capsys):
        dest = tmp_path / "env.json"
        rc = main(["envelope", "--marginals", marginals_a, "--payoff", "straddle",
                   "--iters", "-2", "--out", str(dest)])
        assert rc == 2
        assert "iters must be a nonnegative sweep count, got -2" in capsys.readouterr().err
        assert not dest.exists()

    def test_short_u2_row_is_config_error(self, marginals_a, tmp_path, capsys):
        u2csv = tmp_path / "u2.csv"
        u2csv.write_text("s2,u2\n-1,0\n0\n1,0\n")
        rc = main(["envelope", "--marginals", marginals_a, "--payoff", "straddle",
                   "--u2", str(u2csv)])
        assert rc == 2
        assert "row '0' needs two fields" in capsys.readouterr().err


class TestCounterexample:
    def test_artifact_matches_closed_form(self, tmp_path, capsys):
        dest = tmp_path / "ce.json"
        rc = main(["counterexample", "--blocks", "2", "--grid", "4",
                   "--out", str(dest)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "closed form -0.203125" in out
        assert "delta increment across barrier" in out
        blob = json.loads(dest.read_text())
        assert blob["blocks"] == 2
        assert blob["relative_error"] <= 1e-9
        np.testing.assert_allclose(blob["partial_sums"], [1.0, 1.25], atol=1e-12)
        assert len(blob["delta_increments"]) == 2
        assert set(blob["barrier_levels"]) >= {1.0, 1.25}

    def test_barriers_detected_once(self, tmp_path, monkeypatch):
        detect = mot.detect_barriers
        calls = []

        def counting_detect(*args, **kwargs):
            calls.append(1)
            return detect(*args, **kwargs)

        # every module that could scan: the solver, and the CLI if it imports the scan
        monkeypatch.setattr(mot, "detect_barriers", counting_detect)
        monkeypatch.setattr(cli, "detect_barriers", counting_detect, raising=False)
        rc = main(["counterexample", "--blocks", "2", "--grid", "4",
                   "--out", str(tmp_path / "ce.json")])
        assert rc == 0
        assert len(calls) == 1

    def test_exports_match_library_instance(self):
        system = counterexample_marginals(2, 4)
        assert system.n_dates == 2
