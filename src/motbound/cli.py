"""Command-line front end.

Ingests call quotes, builds marginals, runs bounds/hedges/sweeps, and emits
plot-ready CSV and portfolio JSON.  Structured artifacts are JSON, tables are
CSV; every float is printed to 12 significant digits and identical inputs
produce byte-identical outputs.

Exit codes: 0 success, 1 domain errors (infeasible quotes, marginals not in
convex order, LP failures), 2 I/O or configuration errors.  The solver's
tolerances and iteration limit are the library's module constants; no flag
changes them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import envelope as env_mod
from . import fixtures
from .errors import BadSpec, DimensionMismatch, MotboundError, OffGrid
from .hedge import check_arbitrage, hedge_to_json, price as hedge_price
from .measures import (MarginalSystem, check_convex_order, counterexample_marginals,
                       from_call_curve, load_call_curves)
from .mot import (MotProblem, Solver, bound, decompose_and_solve, fmt12,
                  random_feasible_coupling, strike_sweep, surface_csv)
from .payoff import BUILTINS, Payoff, negated_straddle

# MotboundError subclasses that signal a misconfigured run rather than a
# genuine domain obstruction; they map to exit 2 like I/O failures.
CONFIG_ERRORS = (BadSpec, DimensionMismatch, OffGrid)


def _jsonify(obj):
    """Floats clipped to 12 significant digits, arrays to lists, keys sorted
    downstream; keeps artifacts diffable across runs."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(fmt12(float(obj)))
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_system(args) -> MarginalSystem:
    """Marginals either from a system JSON or rebuilt from quoted calls."""
    if getattr(args, "marginals", None):
        data = json.loads(Path(args.marginals).read_text())
        return MarginalSystem.from_json(data)
    if getattr(args, "quotes", None):
        curves = load_call_curves(args.quotes)
        s0 = _spot_from(args, curves)
        return MarginalSystem([from_call_curve(c, s0) for c in curves])
    raise ValueError("need --marginals or --quotes")


def _spot_from(args, curves) -> float:
    if getattr(args, "s0", None) is not None:
        return float(args.s0)
    # Where the quotes start at strike 0, the left closure puts every atom at
    # or above 0, so the strike-0 call costs the forward itself; a lower
    # strike leaves mass below 0, and C(0) is not the mean.
    ks, cs = curves[0].strikes, curves[0].prices
    if ks[0] == 0.0:
        return float(cs[0])
    raise ValueError("pass --s0, or quote strike 0 as the lowest strike so the forward can be read off")


def _parse_payoff(text: str, n_dates: int) -> Payoff:
    """A payoff JSON file, or a shorthand ``kind[:value]`` read as the kind's JSON form."""
    path = Path(text)
    if path.suffix.lower() == ".json" or path.exists():
        return Payoff.from_json(json.loads(path.read_text()))
    name, colon, value = text.partition(":")
    kind = "forward_start_straddle" if name == "straddle" else name
    record = BUILTINS.get(kind)
    if record is None:
        raise ValueError(f"unknown payoff {text!r}; pass a JSON file or kind[:value] "
                         f"with kind one of straddle, {', '.join(BUILTINS)}")
    if colon and record.param is None:
        raise ValueError(f"payoff {name!r} takes no value, got {text!r}")
    params = {record.param: float(value)} if colon else {}
    return Payoff.from_json({"kind": kind, "n": n_dates, "params": params})


def _parse_strikes(text: str) -> list[float]:
    """Comma list ``0.5,0.7,1.0`` or inclusive range ``0.5:1.5:0.1`` of at
    most 100,000 strikes, counted before the list is built."""
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3 or not np.all(np.isfinite(parts)) or parts[2] <= 0:
            raise ValueError(f"strike range {text!r} must be start:stop:step, finite, with step > 0")
        start, stop, step = parts
        count = round(float(np.clip((stop - start) / step, -1e6, 1e6)))  # clipped: never inf
        if count >= 100_000:
            raise ValueError(f"strike range {text!r} gives over 100,000 strikes")
        if abs(start + count * step - stop) > 1e-9 * (1.0 + abs(stop)):
            raise ValueError("strike range: step does not divide the span")
        strikes = [start + k * step for k in range(count + 1)]
    else:
        strikes = [float(p) for p in text.split(",") if p.strip()]
    if not strikes:
        raise ValueError("no strikes")
    return strikes


def _result_json(res, system: MarginalSystem) -> dict:
    return {
        "value": res.value,
        "diagnostics": res.diagnostics.to_json(),
        "hedge": hedge_to_json(res.hedge),
        "hedge_price": hedge_price(res.hedge, system),
        "verification": {
            "max_violation": res.report.max_violation,
            "checked_cells": res.report.checked_cells,
            "continuum_checked": res.report.continuum_checked,
            "wing_ok": res.report.wing_ok,
        },
    }


def cmd_implied_marginals(args) -> int:
    system = _load_system(args)
    _emit(_dump_json(system.to_json()), args.out)
    for i, m in enumerate(system.marginals, start=1):
        print(f"date {i}: {len(m)} atoms, mean {fmt12(m.mean)}")
    return 0


def cmd_check_order(args) -> int:
    system = _load_system(args)
    report = check_convex_order(system)
    print(report.describe())
    if args.out:
        payload = {
            "admissible": report.admissible,
            "means": report.means,
            "mean_spread": report.mean_spread,
            "pairs": [{"index": p.index, "worst_violation": p.worst_violation,
                       "worst_strike": p.worst_strike} for p in report.pairs],
        }
        Path(args.out).write_text(_dump_json(payload))
    return 0 if report.admissible else 1


def _unwrap(res):
    """A result of ``Solver.bounds``, or the error its sense raised, raised."""
    if isinstance(res, MotboundError):
        raise res
    return res


def cmd_bounds(args) -> int:
    system = _load_system(args)
    payoff = _parse_payoff(args.payoff, system.n_dates)
    senses = ["lower", "upper"] if args.sense == "both" else [args.sense]
    solver = Solver(system)
    outcome, = solver.bounds([payoff], senses, decompose_and_solve if args.decompose else bound)
    out = {"payoff": payoff.to_json(), "results": {}}
    for sense, res in outcome.items():
        res = _unwrap(res)
        out["results"][sense] = _result_json(res, system)
        print(f"{sense} {fmt12(res.value)}")
    if args.seed is not None:
        coupling = random_feasible_coupling(system, args.seed, solver=solver)
        expect = coupling.expectation(payoff)
        lo = out["results"].get("lower", {}).get("value")
        hi = out["results"].get("upper", {}).get("value")
        ok = (lo is None or lo - 1e-7 <= expect) and (hi is None or expect <= hi + 1e-7)
        out["sandwich"] = {"seed": args.seed, "expectation": expect, "ok": ok}
        print(f"sandwich(seed={args.seed}) {fmt12(expect)} {'ok' if ok else 'VIOLATED'}")
    if args.out:
        Path(args.out).write_text(_dump_json(out))
    return 0


def cmd_sweep(args) -> int:
    system = _load_system(args)
    strikes = _parse_strikes(args.strikes)
    table = strike_sweep(system, strikes)
    _emit(table.to_csv(), args.out)
    return 0


def cmd_surface(args) -> int:
    system = _load_system(args)
    # surface_csv refuses it too, but only after the bound is solved
    if system.n_dates != 2:
        raise DimensionMismatch("surface export covers two-date problems")
    payoff = _parse_payoff(args.payoff, system.n_dates)
    problem = MotProblem(system, payoff, args.sense)
    solver = Solver(system)
    res = bound(problem, solver=solver)
    _emit(surface_csv(problem, res, solver), args.out)
    print(f"{args.sense} {fmt12(res.value)}")
    return 0


def cmd_envelope(args) -> int:
    system = _load_system(args)
    if system.n_dates != 2:
        raise ValueError("the envelope dual covers two-date systems")
    payoff = _parse_payoff(args.payoff, 2)
    mu1, mu2 = system.marginals
    if args.u2:
        grid, u2 = env_mod.u2_from_csv(Path(args.u2).read_text())
    else:
        grid = env_mod.extended_grid(mu1, mu2)
        u2 = np.zeros_like(grid)
    if args.iters:  # improve_u2 refuses a negative count
        dual = env_mod.improve_u2(u2, payoff, mu1, mu2, args.iters, grid=grid)
        value, u2 = dual.value, dual.u2
    else:
        value = env_mod.dual_value(u2, payoff, mu1, mu2, grid=grid)
    payload = {"value": value, "iters": args.iters, "grid": grid, "u2": u2}
    if args.out:
        Path(args.out).write_text(_dump_json(payload))
    print(f"value {fmt12(value)}")
    return 0


def cmd_arb(args) -> int:
    # check_arbitrage refuses it too, but only after both bounds are solved
    if not np.isfinite(args.quoted):
        raise ValueError(f"quoted price must be finite, got {args.quoted!r}")
    system = _load_system(args)
    payoff = _parse_payoff(args.payoff, system.n_dates)
    outcome, = Solver(system).bounds([payoff])
    lower, upper = (_unwrap(res) for res in outcome.values())
    verdict = check_arbitrage(args.quoted, lower, upper)
    print(verdict.describe())
    if args.out:
        Path(args.out).write_text(_dump_json(dataclasses.asdict(verdict)))
    return 0


def cmd_counterexample(args) -> int:
    system = counterexample_marginals(args.blocks, args.grid)
    payoff = negated_straddle()
    res = decompose_and_solve(MotProblem(system, payoff, "lower"))
    closed = fixtures.counterexample_value(args.blocks)
    edges = fixtures.counterexample_edges(args.blocks)
    payload = {
        "blocks": args.blocks,
        "atoms_per_block": args.grid,
        "value": res.value,
        "closed_form": closed,
        "relative_error": abs(res.value - closed) / abs(closed),
        "barrier_levels": res.diagnostics.extras["barrier_levels"],
        "partial_sums": edges[1:-1],
        "delta_increments": res.diagnostics.extras.get("delta_increments"),
        "diagnostics": res.diagnostics.to_json(),
    }
    print(f"value {fmt12(res.value)} (closed form {fmt12(closed)})")
    increments = payload["delta_increments"] or []
    for i, d in enumerate(increments, start=1):
        print(f"delta increment across barrier {i}: {fmt12(d)}")
    if args.out:
        Path(args.out).write_text(_dump_json(payload))
    return 0


def _add_io_flags(p, stdout: bool):
    """The input flags and ``--out``; without it the artifact goes to stdout if ``stdout``."""
    p.add_argument("--marginals", help="marginal system JSON")
    p.add_argument("--quotes", help="call quotes CSV or JSON")
    p.add_argument("--s0", type=float, help="spot/forward (else read from a strike-0 quote)")
    p.add_argument("--out", help="output path (default: stdout)" if stdout
                   else "JSON artifact path (no artifact is written without it)")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``--strikes`` followed by a minus sign
    and a digit or point as ``--strikes=VALUE``: argparse takes a value
    that starts with ``-`` and is not a plain number, such as the range
    ``-0.5:0.5:0.1`` or the list ``-0.5,0.5``, for an option."""

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        for i in range(len(args) - 2, -1, -1):
            if args[i] == "--strikes" and re.match(r"-[\d.]", args[i + 1]):
                args[i:i + 2] = [f"--strikes={args[i + 1]}"]
        return super().parse_known_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process at its first use."""
    parser = _Parser(
        prog="motbound",
        description="Model-independent price bounds and semi-static hedges "
                    "from martingale optimal transport.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("implied-marginals", help="extract marginal laws from call quotes")
    p.add_argument("--quotes", required=True)
    p.add_argument("--s0", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_implied_marginals)

    p = sub.add_parser("check-order", help="report convex-order admissibility")
    _add_io_flags(p, stdout=False)
    p.set_defaults(func=cmd_check_order)

    p = sub.add_parser("bounds", help="price bounds with hedge and diagnostics")
    _add_io_flags(p, stdout=False)
    p.add_argument("--payoff", required=True)
    p.add_argument("--sense", choices=["lower", "upper", "both"], default="both")
    p.add_argument("--decompose", action="store_true",
                   help="also report barrier blocks and per-block values (two dates)")
    p.add_argument("--seed", type=int, help="also sandwich-check a seeded random coupling")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="forward-start call bounds per strike ratio")
    _add_io_flags(p, stdout=True)
    p.add_argument("--strikes", required=True,
                   help="comma list or start:stop:step, at most 100,000 strikes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("surface", help="hedge payout vs payoff over the grid")
    _add_io_flags(p, stdout=True)
    p.add_argument("--payoff", required=True)
    p.add_argument("--sense", choices=["lower", "upper"], default="lower")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("envelope", help="convex-envelope dual certificate")
    _add_io_flags(p, stdout=False)
    p.add_argument("--payoff", required=True)
    p.add_argument("--u2", help="starting u2 CSV (default: zeros on the joint grid)")
    p.add_argument("--iters", type=int, default=0, help="coordinate-ascent sweeps")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("arb", help="compare a quote against the model-free interval")
    _add_io_flags(p, stdout=False)
    p.add_argument("--payoff", required=True)
    p.add_argument("--quoted", type=float, required=True)
    p.set_defaults(func=cmd_arb)

    p = sub.add_parser("counterexample", help="barrier-decomposed negated straddle instance")
    p.add_argument("--blocks", type=int, default=5)
    p.add_argument("--grid", type=int, default=16, help="second-marginal atoms per block")
    p.add_argument("--out")
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MotboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
