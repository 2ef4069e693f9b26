"""Release gate: ten binding checks at pinned tolerances.

Each check prints one ``[criterion NN] PASS/FAIL`` line (run with ``-s`` to
see them on success; the test names carry the same numbering under ``-v``).
Criteria 4 and 6 aggregate over every solve the earlier criteria performed,
so they run last.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from motbound.envelope import dual_value, extended_grid
from motbound.fixtures import (counterexample_edges, counterexample_value,
                               instance_a_marginals, instance_b_payoff, smooth_pair)
from motbound.hedge import price as hedge_price, slackness
from motbound.measures import (CallCurve, DensitySpec, DiscreteMeasure,
                               MarginalSystem, call_price, counterexample_marginals,
                               detect_barriers, discretize, from_call_curve)
from motbound.mot import (MotProblem, Solver, bound, decompose_and_solve,
                          random_feasible_coupling, strike_sweep)
from motbound.payoff import (evaluate, forward_start_call, forward_start_straddle,
                             negated_straddle)

from exact import solve_exact

GAP_TOL = 1e-7
VERIFY_TOL = 1e-8
SLACK_TOL = 1e-6

# every solve performed by the criteria below, for the aggregate checks
TRACKED: list[tuple[object, object, str, object]] = []


def run_tracked(system, payoff, sense, *, solver=bound, **kw):
    res = solver(MotProblem(system, payoff, sense), **kw)
    TRACKED.append((system, payoff, sense, res))
    return res


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def smooth201():
    system = smooth_pair(201)
    t0 = time.perf_counter()
    res = run_tracked(system, forward_start_straddle(), "lower")
    return system, res, time.perf_counter() - t0


def test_criterion_01_smooth_instance_lower_bound(smooth201):
    system, res, elapsed = smooth201
    gap = abs(res.diagnostics.to_json()["duality_gap"])
    ok = (abs(res.value - 1.0 / 3.0) <= 5e-3
          and elapsed <= 60.0
          and gap <= GAP_TOL * (1.0 + abs(res.value)))
    report(1, ok, f"lower {res.value:.10f} (err {res.value - 1/3:+.2e}), "
                  f"gap {gap:.1e}, {elapsed:.1f}s")


def test_criterion_02_smooth_instance_hedge_shape(smooth201):
    system, res, _ = smooth201
    atoms1 = system.marginals[0].points
    window = atoms1[(atoms1 >= -0.9) & (atoms1 <= 0.9)]
    deltas = np.array([res.hedge.deltas[0].at(s) for s in window])
    target = -2.0 * window / 3.0
    beta = float(np.mean(deltas - target))  # constant transfer is gauge
    delta_err = float(np.max(np.abs(deltas - target - beta)))

    u2 = res.hedge.statics[1]
    atoms2 = system.marginals[1].points
    h = 0.15
    lo, hi = 1.0 + h, float(atoms2.max()) - h
    probes = np.linspace(lo, hi, 25)
    second = (u2(probes + h) - 2.0 * u2(probes) + u2(probes - h)) / h ** 2
    curv_err = float(np.max(np.abs(second + 4.0 / 3.0)))

    ok = delta_err <= 0.05 and curv_err <= 0.1
    report(2, ok, f"delta sup err {delta_err:.4f} (tol 0.05), "
                  f"curvature err {curv_err:.4f} (tol 0.1)")


def test_criterion_03_exact_oracle_instances():
    t0 = time.perf_counter()
    system = instance_a_marginals()
    straddle = forward_start_straddle()
    cell = instance_b_payoff()

    a_lo = run_tracked(system, straddle, "lower")
    a_hi = run_tracked(system, straddle, "upper")
    b_lo = run_tracked(system, cell, "lower")
    b_hi = run_tracked(system, cell, "upper")

    exact = {}
    for name, payoff, sense in [("a_lo", straddle, "lower"), ("a_hi", straddle, "upper"),
                                ("b_lo", cell, "lower"), ("b_hi", cell, "upper")]:
        exact[name] = solve_exact(Solver(system).lp(MotProblem(system, payoff, sense))).objective
    elapsed = time.perf_counter() - t0

    ok = (abs(a_lo.value - 7.0 / 6.0) <= 1e-9 and abs(a_hi.value - 7.0 / 6.0) <= 1e-9
          and abs(b_lo.value - 0.25) <= 1e-9 and abs(b_hi.value - 1.0 / 3.0) <= 1e-9
          and exact["a_lo"] == Fraction(7, 6) and exact["a_hi"] == Fraction(7, 6)
          and exact["b_lo"] == Fraction(1, 4) and exact["b_hi"] == Fraction(1, 3)
          and elapsed < 1.0)
    report(3, ok, f"A {a_lo.value:.12f}/{a_hi.value:.12f} = 7/6 exact, "
                  f"B {b_lo.value:.12f}/{b_hi.value:.12f} = 1/4, 1/3 exact, "
                  f"{elapsed * 1000:.0f}ms")


def test_criterion_05_sandwich_property():
    worst = -np.inf
    checked = 0
    for system in (instance_a_marginals(), smooth_pair(51)):
        payoff = forward_start_straddle()
        lo = run_tracked(system, payoff, "lower").value
        hi = run_tracked(system, payoff, "upper").value
        for seed in range(50):
            q = random_feasible_coupling(system, seed)
            e = q.expectation(payoff)
            worst = max(worst, lo - e, e - hi)
            checked += 1
    ok = worst <= GAP_TOL
    report(5, ok, f"{checked} seeded couplings, worst excursion {worst:+.2e} "
                  f"(tol {GAP_TOL:.0e})")


def test_criterion_07_counterexample_structure():
    system = counterexample_marginals(5, 16)
    res = run_tracked(system, negated_straddle(), "lower", solver=decompose_and_solve)

    edges = counterexample_edges(5)
    partial = edges[1:-1]
    levels = np.asarray(detect_barriers(*system.marginals).levels)
    barrier_err = (float(np.max(np.abs(levels - partial)))
                   if levels.size == partial.size else np.inf)

    mu1, mu2 = system.marginals
    blocks = np.searchsorted(edges, mu2.points, side="right") - 1
    expected = {(round(float(mu1.points[b]), 12), round(float(z), 12)): float(w)
                for z, w, b in zip(mu2.points, mu2.weights, blocks)}
    product_err = 0.0
    seen = {}
    for path, mass in zip(res.coupling.paths(), res.coupling.masses):
        seen[(round(float(path[0]), 12), round(float(path[1]), 12))] = float(mass)
    for cell in set(expected) | set(seen):
        product_err = max(product_err,
                          abs(expected.get(cell, 0.0) - seen.get(cell, 0.0)))

    closed = counterexample_value(5)
    rel_err = abs(res.value - closed) / abs(closed)
    increments = res.diagnostics.extras.get("delta_increments") or []
    emitted = len(increments) >= 4 and all(np.isfinite(increments[:4]))

    ok = (barrier_err <= 1e-10 and product_err <= 1e-9
          and rel_err <= 0.10 and emitted)
    head = ", ".join(f"{d:.3f}" for d in increments[:4])
    report(7, ok, f"barriers err {barrier_err:.1e}, block-product err "
                  f"{product_err:.1e}, value rel err {rel_err:.2e}, "
                  f"delta increments [{head}] (non-binding)")


def test_criterion_08_envelope_certificate():
    system = smooth_pair(101)
    res = run_tracked(system, forward_start_straddle(), "lower")
    mu1, mu2 = system.marginals
    grid = extended_grid(mu1, mu2)
    cert = dual_value(res.hedge.statics[1](grid), forward_start_straddle(), mu1, mu2)
    lp_err = abs(cert - res.value)

    rng = np.random.default_rng(17)
    worst = -np.inf
    for _ in range(100):
        u2 = rng.uniform(-2.0, 2.0, size=grid.size)
        worst = max(worst, dual_value(u2, forward_start_straddle(), mu1, mu2)
                    - res.value)
    ok = lp_err <= 1e-6 and worst <= 1e-8
    report(8, ok, f"LP-dual certificate err {lp_err:.1e} (tol 1e-6), "
                  f"worst random excess {worst:+.2e} (tol 1e-8)")


def test_criterion_09_marginal_round_trip():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        pts = np.sort(rng.uniform(-5.0, 5.0, size=n))
        pts = pts[np.concatenate([[True], np.diff(pts) > 1e-3])]
        w = rng.uniform(0.1, 1.0, size=pts.size)
        mu = DiscreteMeasure(pts, w / w.sum())
        curve = CallCurve(strikes=mu.points, prices=np.asarray(call_price(mu, mu.points)))
        back = from_call_curve(curve, mu.mean)
        if back.points.size != mu.points.size:
            worst = np.inf
            break
        worst = max(worst,
                    float(np.max(np.abs(back.points - mu.points))),
                    float(np.max(np.abs(back.weights - mu.weights))))
    ok = worst <= 1e-10
    report(9, ok, f"20 random measures, worst atom error {worst:.2e} (tol 1e-10)")


def test_criterion_10_sweep_within_transport_bounds():
    mu1 = discretize(DensitySpec.uniform(0.8, 1.2), 9)
    mu2 = discretize(DensitySpec.uniform(0.6, 1.4), 9)
    system = MarginalSystem([mu1, mu2])
    strikes = [0.5 + 0.1 * k for k in range(11)]
    table = strike_sweep(system, strikes)

    x, y = mu1.points, mu2.points
    ok = len(table.rows) == 11
    worst = -np.inf
    for row, strike in zip(table.rows, strikes):
        payoff = forward_start_call(strike)
        como = float(np.mean([evaluate(payoff, [a, b]) for a, b in zip(x, y)]))
        anti = float(np.mean([evaluate(payoff, [a, b]) for a, b in zip(x, y[::-1])]))
        worst = max(worst, como - row.lower, row.lower - row.upper,
                    row.upper - anti)
        ok = ok and row.ok
    ok = ok and worst <= GAP_TOL
    report(10, ok, f"11 strikes, worst bound excursion {worst:+.2e} vs "
                   f"sorted-coupling envelope (tol {GAP_TOL:.0e})")


def test_criterion_04_strong_duality_everywhere():
    assert len(TRACKED) >= 10  # the earlier criteria populate the registry
    worst = 0.0
    for system, payoff, sense, res in TRACKED:
        gap = abs(res.diagnostics.to_json()["duality_gap"])
        price_err = abs(hedge_price(res.hedge, system) - res.value)
        tol = GAP_TOL * (1.0 + abs(res.value))
        worst = max(worst, gap / tol, price_err / tol)
    ok = worst <= 1.0
    report(4, ok, f"{len(TRACKED)} solves, worst gap/price deviation "
                  f"{worst:.2e} of tolerance")


def test_criterion_06_subhedge_validity_everywhere():
    lower = [(s, p, res) for s, p, sense, res in TRACKED if sense == "lower"]
    assert len(lower) >= 5
    worst_violation = max(res.report.max_violation for _, _, res in lower)
    worst_slack = max(slackness(res.hedge, res.coupling, payoff)
                      for _, payoff, res in lower)
    ok = worst_violation <= VERIFY_TOL and worst_slack <= SLACK_TOL
    report(6, ok, f"{len(lower)} lower hedges, worst grid violation "
                  f"{worst_violation:.1e} (tol 1e-8), worst slackness "
                  f"{worst_slack:.1e} (tol 1e-6)")
