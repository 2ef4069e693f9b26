"""Convex-envelope form of the two-date lower bound.

For any payout u2 granted at the second date, Jensen's inequality gives a
certified lower bound on the price of a two-date exotic:

    value(u2) = sum_x mu1(x) * g_x**(x) + E_{mu2}[u2],
    g_x(z) = payoff(x, z) - u2(z),

where g** is the convex envelope on the second-date grid.  Maximizing over
u2 recovers the LP bound; any u2 at all yields a valid certificate, which is
what makes this an independent cross-check of the solver.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

import numpy as np

from . import payoff as payoff_mod
from .errors import GridCoverage
from .hedge import PiecewiseLinear
from .measures import DiscreteMeasure
from .payoff import Payoff

GOLDEN_STEPS = 48
IMPROVE_TOL = 1e-12


def convex_envelope(xs, ys) -> PiecewiseLinear:
    """Lower convex hull of the points (xs, ys) as a piecewise-linear
    function; single monotone scan."""
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size < 2 or xs.size != ys.size:
        raise ValueError("need at least two points with matching values")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("points must have strictly increasing x")
    hull: list[int] = []
    for i in range(xs.size):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            t1 = (xs[b] - xs[a]) * (ys[i] - ys[a])
            t2 = (xs[i] - xs[a]) * (ys[b] - ys[a])
            # Pop near-collinear vertices too: the cross product cancels
            # catastrophically there and a sign flip would leave a vertex
            # above the hull.  Popping a borderline vertex only lowers a
            # lower hull, so the result stays a valid lower envelope.
            if t1 - t2 <= 1e-12 * (abs(t1) + abs(t2)):
                hull.pop()
            else:
                break
        hull.append(i)
    kx = xs[hull]
    ky = ys[hull]
    if kx.size == 1:
        return PiecewiseLinear(kx, ky, 0.0, 0.0)
    left = (ky[1] - ky[0]) / (kx[1] - kx[0])
    right = (ky[-1] - ky[-2]) / (kx[-1] - kx[-2])
    return PiecewiseLinear(kx, ky, float(left), float(right))


def extended_grid(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> np.ndarray:
    """Second-date evaluation grid: mu2's atoms extended by mu1's, so every
    first-date atom sits inside the hull where envelopes are evaluated.

    Atoms of the two dates that agree to within float rounding are merged:
    a zero-width grid cell would give the ascent two coordinates for one
    physical point."""
    pts = np.union1d(mu2.points, mu1.points)
    keep = np.concatenate([[True], np.diff(pts) > 1e-12 * (1.0 + np.abs(pts[1:]))])
    return pts[keep]


def _check_coverage(grid: np.ndarray, mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> None:
    lo, hi = grid[0], grid[-1]
    for name, mu in (("first", mu1), ("second", mu2)):
        if mu.points[0] < lo - 1e-12 or mu.points[-1] > hi + 1e-12:
            raise GridCoverage(
                f"{name}-date atoms extend beyond the u2 grid hull [{lo}, {hi}]")


def _payoff_table(payoff: Payoff, mu1: DiscreteMeasure, grid: np.ndarray) -> np.ndarray:
    """payoff(x, z): one row per first-date atom x, one column per grid point z."""
    return payoff_mod.tabulate(payoff, [mu1.points, grid]).reshape(mu1.points.size, grid.size)


def _value_and_envelopes(u2: np.ndarray, table: np.ndarray, mu1: DiscreteMeasure,
                         mu2: DiscreteMeasure, grid: np.ndarray):
    envelopes = []
    total = 0.0
    for x, w, row in zip(mu1.points, mu1.weights, table):
        env = convex_envelope(grid, row - u2)
        envelopes.append(env)
        total += w * float(env(x))
    total += float(np.dot(np.interp(mu2.points, grid, u2), mu2.weights))
    return total, tuple(envelopes)


def dual_value(u2, payoff: Payoff, mu1: DiscreteMeasure, mu2: DiscreteMeasure,
               *, grid=None) -> float:
    """Certified lower bound from one u2 table (grid defaults to the union of
    both atom sets; u2 must be tabulated on it)."""
    if payoff.n != 2:
        raise ValueError("the envelope dual covers two-date payoffs")
    grid = extended_grid(mu1, mu2) if grid is None else np.asarray(grid, dtype=float).ravel()
    u2 = np.asarray(u2, dtype=float).ravel()
    if u2.size != grid.size:
        raise ValueError(f"u2 has {u2.size} entries, grid has {grid.size}")
    _check_coverage(grid, mu1, mu2)
    value, _ = _value_and_envelopes(u2, _payoff_table(payoff, mu1, grid), mu1, mu2, grid)
    return value


@dataclass(frozen=True)
class EnvelopeDual:
    grid: np.ndarray
    u2: np.ndarray
    value: float
    per_s1_envelopes: tuple[PiecewiseLinear, ...]


def evaluate_dual(u2, payoff: Payoff, mu1: DiscreteMeasure, mu2: DiscreteMeasure,
                  *, grid=None) -> EnvelopeDual:
    grid = extended_grid(mu1, mu2) if grid is None else np.asarray(grid, dtype=float).ravel()
    u2 = np.asarray(u2, dtype=float).ravel()
    _check_coverage(grid, mu1, mu2)
    value, envs = _value_and_envelopes(u2, _payoff_table(payoff, mu1, grid), mu1, mu2, grid)
    return EnvelopeDual(grid=grid, u2=u2, value=value, per_s1_envelopes=envs)


def improve_u2(start, payoff: Payoff, mu1: DiscreteMeasure, mu2: DiscreteMeasure,
               iters: int, *, grid=None) -> EnvelopeDual:
    """Deterministic coordinate ascent on dual_value.

    Each sweep line-searches every u2 entry by golden section over a bracket
    of four times the local payoff scale; the value never decreases.  This
    refines and certifies; the LP solve stays authoritative."""
    if payoff.n != 2:
        raise ValueError("the envelope dual covers two-date payoffs")
    grid = extended_grid(mu1, mu2) if grid is None else np.asarray(grid, dtype=float).ravel()
    u2 = np.array(start, dtype=float).ravel().copy()
    if u2.size != grid.size:
        raise ValueError(f"u2 has {u2.size} entries, grid has {grid.size}")
    _check_coverage(grid, mu1, mu2)

    table = _payoff_table(payoff, mu1, grid)
    scale = 4.0 * (1.0 + np.abs(table).max(axis=0))

    value, _ = _value_and_envelopes(u2, table, mu1, mu2, grid)
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(max(0, int(iters))):
        for k in range(grid.size):
            center = u2[k]
            a, b = center - scale[k], center + scale[k]

            def f(t: float) -> float:
                u2[k] = t
                v, _ = _value_and_envelopes(u2, table, mu1, mu2, grid)
                return v

            c = b - inv_phi * (b - a)
            d = a + inv_phi * (b - a)
            fc, fd = f(c), f(d)
            for _ in range(GOLDEN_STEPS):
                if fc >= fd:
                    b, d, fd = d, c, fc
                    c = b - inv_phi * (b - a)
                    fc = f(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + inv_phi * (b - a)
                    fd = f(d)
            best_t, best_v = (c, fc) if fc >= fd else (d, fd)
            if best_v > value + IMPROVE_TOL:
                u2[k] = best_t
                value = best_v
            else:
                u2[k] = center
    value, envs = _value_and_envelopes(u2, table, mu1, mu2, grid)
    return EnvelopeDual(grid=grid, u2=u2, value=value, per_s1_envelopes=envs)


def u2_to_csv(grid, u2) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["s2", "u2"])
    for z, v in zip(np.asarray(grid, dtype=float), np.asarray(u2, dtype=float)):
        writer.writerow([f"{z:.12g}", f"{v:.12g}"])
    return out.getvalue()


def u2_from_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows and rows[0] and rows[0][0].strip().lower() == "s2":
        rows = rows[1:]
    pts = np.array([float(r[0]) for r in rows if r])
    vals = np.array([float(r[1]) for r in rows if r])
    order = np.argsort(pts)
    return pts[order], vals[order]
