"""Seeded inputs and the fixed operation list of each workload.

Every workload is a closed loop: one caller runs its operations in a fixed
order, each starting when the previous one has returned and been checked.
The seed fixes every generated input; motbound sees only those inputs.
Generated marginal systems are checked for convex order when they are made.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from motbound import fixtures, measures, mot, payoff

import checks
from checks import Checked


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], Checked]


@dataclass
class Plan:
    ops: list[Op]          # one pass, in order
    warmup: Op             # run once, untimed, before the first pass
    pass_s: float          # nominal pass time on a 2-vCPU VM; sets the pass count
    reference: str = "dense"   # kind of reference work timed between operations (run.py)


def admissible(system: measures.MarginalSystem) -> measures.MarginalSystem:
    report = measures.check_convex_order(system)
    if not report.admissible:
        raise RuntimeError(f"generated marginals are not in convex order: {report.describe()}")
    return system


def spread_pair(rng: np.random.Generator, m: int) -> measures.MarginalSystem:
    """Uniform first date and a wider symmetric trapezoid with the same
    mean, m atoms each; the seeded shape keeps the densities single-crossing
    (plateau + tail >= 1.5 half-widths), hence in convex order."""
    c, a = rng.uniform(0.9, 1.1), rng.uniform(0.15, 0.25)
    plateau, tail = rng.uniform(0.7, 1.0), rng.uniform(0.8, 1.2)
    mu1 = measures.discretize(measures.DensitySpec.uniform(c - a, c + a), m)
    xs = [c - a * (1 + tail), c - a * plateau, c + a * plateau, c + a * (1 + tail)]
    mu2 = measures.discretize(measures.DensitySpec.piecewise_linear(xs, [0.0, 1.0, 1.0, 0.0]), m)
    return admissible(measures.MarginalSystem([mu1, mu2]))


def widening_dates(w: float, m: int, center: float = 1.0) -> measures.MarginalSystem:
    """Dates k = 1..3 uniform on (center - w k, center + w k), m atoms each."""
    return admissible(measures.MarginalSystem(
        [measures.discretize(measures.DensitySpec.uniform(center - w * k, center + w * k), m)
         for k in (1, 2, 3)]))


def _pair_failures(ctx: dict, pair: str, sense: str, value: float) -> list[str]:
    seen = ctx.setdefault(pair, {})
    seen[sense] = value
    if "lower" in seen and "upper" in seen:
        return checks.order_failures(seen["lower"], seen["upper"])
    return []


def bound_op(name: str, system, po: payoff.Payoff, sense: str, anchor=None) -> Op:
    """One library bound; checked for verification, duality gap, coupling
    residuals, lower <= upper against its sibling, and an optional
    closed-form (target, tolerance) anchor."""
    problem = mot.MotProblem(system, po, sense)

    def run():
        return mot.bound(problem)

    def check(res, ctx) -> Checked:
        failures = checks.bound_failures(**checks.result_facts(res, system))
        if anchor is not None:
            failures += checks.anchor_failures(f"{name} value", res.value, *anchor)
        failures += _pair_failures(ctx, name, sense, res.value)
        extras = res.diagnostics.extras
        fingerprint = (f"pivots={extras['lp_iterations']} attempts={extras['solve_attempts']} "
                       f"cells={res.report.checked_cells} value={res.value.hex()}")
        return Checked(failures, fingerprint)

    return Op(f"{name} {sense}", run, check)


def cli_op(name: str, argv: list[str], artifact: Path, judge) -> Op:
    """One in-process ``motbound`` CLI call writing ``artifact``; ``judge``
    reads the artifact text (and the pass context) and returns (wrong
    answers, errors the artifact records)."""
    argv = [*argv, "--out", str(artifact)]
    return Op(name, lambda: checks.run_cli(argv),
              lambda run, ctx: checks.check_cli(run, artifact, lambda text: judge(text, ctx)))


# -- two_date_dense ------------------------------------------------------------

def two_date_dense(seed: int, workdir: Path) -> Plan:
    rng = np.random.default_rng([seed, 1])
    straddle = payoff.forward_start_straddle()
    ops = [bound_op("smooth_pair(101) straddle", fixtures.smooth_pair(101), straddle, "lower",
                    anchor=checks.SMOOTH_ANCHOR)]
    # four seeded pairs, so that the pass averages over several draws
    for label in "ABCD":
        pair = spread_pair(rng, 101)
        if label in "AC":
            po, name = straddle, f"pair {label} straddle"
        else:
            po = payoff.forward_start_call(float(rng.uniform(0.95, 1.05)))
            name = f"pair {label} call {po.params['strike_ratio']:.4f}"
        for sense in ("lower", "upper"):
            ops.append(bound_op(name, pair, po, sense))
    warmup = bound_op("smooth_pair(21) straddle", fixtures.smooth_pair(21), straddle, "lower")
    return Plan(ops, warmup, pass_s=15.0)


# -- three_date_asian ----------------------------------------------------------

def three_date_asian(seed: int, workdir: Path) -> Plan:
    rng = np.random.default_rng([seed, 2])
    by_size = {15: [], 21: []}
    # Three seeded instances per payoff at m=15 and one at m=21: the pass
    # averages over several draws, and the median operation falls inside
    # the m=15 group instead of between two groups of very different cost.
    for m, draws in ((15, 3), (21, 1)):
        for make in (payoff.asian_call, payoff.lookback_call):
            for _ in range(draws):
                w, strike = rng.uniform(0.08, 0.12), rng.uniform(0.95, 1.05)
                system, po = widening_dates(w, m), make(strike, 3)
                for sense in ("lower", "upper"):
                    by_size[m].append(bound_op(f"{po.kind} m={m} w={w:.4f} K={strike:.4f}", system, po, sense))
    # Asian and lookback draws alternate, and three m=15 operations come
    # before each m=21 one, so that the m=15 latencies, which set the
    # median, are sampled across the whole pass.
    small = [by_size[15][i] for i in (0, 1, 6, 7, 2, 3, 8, 9, 4, 5, 10, 11)]
    ops = [op for i, big in enumerate(by_size[21]) for op in (*small[3 * i: 3 * i + 3], big)]
    warmup = bound_op("asian_call m=7", widening_dates(0.1, 7), payoff.asian_call(1.0, 3), "lower")
    return Plan(ops, warmup, pass_s=28.0)


# -- desk_batch ------------------------------------------------------------------

def _judge_sweep(text: str, ctx: dict):
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    failures = [] if len(rows) == 11 else [f"sweep has {len(rows)} rows, expected 11"]
    errors = []
    for strike, lower, upper, status in rows:
        if status != "ok":
            errors.append(f"strike {strike}: {status}")
        else:
            failures += checks.order_failures(float(lower), float(upper))
    return failures, errors


def _judge_bounds(key: str):
    def judge(text: str, ctx: dict):
        data = json.loads(text)
        failures = []
        for sense in ("lower", "upper"):
            facts = checks.artifact_facts(data["results"][sense])
            failures += [f"{sense}: {f}" for f in checks.bound_failures(**facts)]
        lower, upper = data["results"]["lower"]["value"], data["results"]["upper"]["value"]
        failures += checks.order_failures(lower, upper)
        if data["sandwich"]["ok"] is not True:
            failures.append("seeded feasible coupling prices outside the bounds")
        ctx[key] = (lower, upper)
        return failures, []
    return judge


def _judge_arb(key: str):
    def judge(text: str, ctx: dict):
        data = json.loads(text)
        lower, upper, quoted = data["lower"], data["upper"], data["quoted"]
        failures = checks.order_failures(lower, upper)
        tol = 1e-6 * (1.0 + abs(quoted))
        expect = "BUY" if quoted < lower - tol else "SELL" if quoted > upper + tol else "NO_ARB"
        if data["action"] != expect:
            failures.append(f"verdict {data['action']} for quote {quoted!r} in [{lower!r}, {upper!r}]")
        if key not in ctx:
            failures.append("no bounds of the same system to compare the interval with")
        elif any(abs(x - y) > checks.ARTIFACT_RTOL * (1.0 + abs(y)) for x, y in zip((lower, upper), ctx[key])):
            failures.append(f"arb interval [{lower!r}, {upper!r}] differs from bounds {ctx[key]}")
        return failures, []
    return judge


def _judge_envelope(key: str):
    def judge(text: str, ctx: dict):
        return checks.envelope_failures(json.loads(text)["value"], ctx.get(key, (None,))[0]), []
    return judge


def _judge_counterexample(blocks: int):
    def judge(text: str, ctx: dict):
        data = json.loads(text)
        value, diag = data["value"], data["diagnostics"]
        closed = checks.counterexample_value(blocks)
        failures = checks.anchor_failures("counterexample value", value, closed,
                                          checks.COUNTEREXAMPLE_RTOL * abs(closed))
        failures += checks.bound_failures(
            value=value, hedge_price=value + diag["duality_gap"],
            verify_ok=diag["max_verification_violation"] <= checks.VERIFY_TOL,
            marginal_residual=diag["max_marginal_residual"],
            martingale_residual=diag["max_martingale_residual"])
        return failures, []
    return judge


def _write_system(system: measures.MarginalSystem, path: Path) -> str:
    path.write_text(json.dumps(system.to_json()))
    return str(path)


def desk_batch(seed: int, workdir: Path) -> Plan:
    rng = np.random.default_rng([seed, 3])
    out = workdir / "artifact"
    ops = []
    # three seeded systems per size, so that the pass averages over draws
    for draw, m in [(d, m) for d in "abc" for m in (9, 12, 15)]:
        key = f"m={m}{draw}"
        marginals = _write_system(spread_pair(rng, m), workdir / f"desk-{m}{draw}.json")
        po = f"forward_start_call:{rng.uniform(0.95, 1.05)!r}"
        lo = rng.uniform(0.88, 0.92)
        strikes = ",".join(repr(round(float(k), 6)) for k in lo + 0.02 * np.arange(11))
        quoted, sandwich_seed = rng.uniform(0.02, 0.08), int(rng.integers(0, 2 ** 31))
        base = ["--marginals", marginals]
        ops += [
            cli_op(f"sweep {key}", ["sweep", *base, "--strikes", strikes], out, _judge_sweep),
            cli_op(f"bounds {key}", ["bounds", *base, "--payoff", po, "--sense", "both",
                                     "--seed", str(sandwich_seed)], out, _judge_bounds(key)),
            cli_op(f"arb {key}", ["arb", *base, "--payoff", po, "--quoted", repr(quoted)],
                   out, _judge_arb(key)),
            cli_op(f"envelope {key}", ["envelope", *base, "--payoff", po], out, _judge_envelope(key)),
        ]
        if m == 9 and draw != "c":  # two ascent sweeps: their cost grows like m^3 and would swamp the LPs
            ops.append(cli_op(f"envelope --iters 1 {key}",
                              ["envelope", *base, "--payoff", po, "--iters", "1"], out, _judge_envelope(key)))
    # Fixed size: its cost runs from 0.03 s (3 blocks, 8 atoms) to over 1 s
    # (5 blocks, 16 atoms), which would make the pass time follow the seed.
    ops.append(cli_op("counterexample blocks=4 grid=10",
                      ["counterexample", "--blocks", "4", "--grid", "10"], out, _judge_counterexample(4)))
    tiny = _write_system(spread_pair(np.random.default_rng([seed, 4]), 5), workdir / "desk-warmup.json")
    warmup = cli_op("bounds warm-up", ["bounds", "--marginals", tiny, "--payoff", "straddle"],
                    out, lambda text, ctx: ([], []))
    return Plan(ops, warmup, pass_s=6.0, reference="calls")


WORKLOADS = {
    "two_date_dense": two_date_dense,
    "three_date_asian": three_date_asian,
    "desk_batch": desk_batch,
}
