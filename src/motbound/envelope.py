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
from .hedge import CHUNK_CELLS, PiecewiseLinear, _rounding_twins
from .measures import DiscreteMeasure
from .payoff import Payoff

GOLDEN_STEPS = 48
IMPROVE_TOL = 1e-12
# Chords per block: few enough that a block's indices, weights and scratch
# arrays stay in cache and add only a few MB to peak memory.
CHORD_BLOCK = CHUNK_CELLS // 64


def convex_envelope(xs, ys) -> PiecewiseLinear:
    """Lower convex hull of the points (xs, ys) as a piecewise-linear
    function; single monotone scan.

    At any x in [xs[0], xs[-1]] the hull is the smallest chord through x,

        min over i < j with xs[i] <= x <= xs[j] of  w_i * ys[i] + w_j * ys[j],
        w_i = (xs[j] - x) / (xs[j] - xs[i]),  w_j = 1 - w_i,

    which is how :func:`dual_value` evaluates it for every first-date atom
    at once."""
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size != ys.size:
        raise ValueError("need at least two points with matching values")
    _check_increasing(xs)
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


def _check_increasing(xs: np.ndarray) -> None:
    if xs.size < 2:
        raise ValueError("need at least two points with matching values")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("points must have strictly increasing x")


def extended_grid(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> np.ndarray:
    """Second-date evaluation grid: mu2's atoms extended by mu1's, so every
    first-date atom sits inside the hull where envelopes are evaluated.

    Atoms of the two dates that agree to within float rounding are merged:
    a zero-width grid cell would give the ascent two coordinates for one
    physical point."""
    pts = np.union1d(mu2.points, mu1.points)
    return pts[~_rounding_twins(pts)]


def _check_coverage(grid: np.ndarray, mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> None:
    lo, hi = grid[0], grid[-1]
    for name, mu in (("first", mu1), ("second", mu2)):
        if mu.points[0] < lo - 1e-12 or mu.points[-1] > hi + 1e-12:
            raise GridCoverage(
                f"{name}-date atoms extend beyond the u2 grid hull [{lo}, {hi}]")


def _chord_blocks(grid: np.ndarray, xs: np.ndarray):
    """The grid chords z_i <= z_p < z_{p+1} <= z_j across the cell
    [z_p, z_{p+1}] that holds each point x of ``xs``, in blocks of whole points
    of about ``CHORD_BLOCK`` chords each, for the two-date certificate
    (:func:`dual_value`, :func:`improve_u2`).

    A point on a node z_p sits in the cell to its right, where its chords
    (p, j) give the sample at z_p; one on the last node sits in the last
    cell.  A point outside the grid hull, which the coverage check allows by
    1e-12, sits in the end cell with sign -1: the hull continues its end
    segment there, which is the largest extension of the end chords, so the
    samples are negated and the smallest chord negated back.

    Each block is ``(points, fi, fj, span, gap, starts, sign)``: the slice
    of ``xs`` it covers; flat indices of each chord's ends into the block's
    rows of a (len(xs), grid.size) table; z_j - z_i and x - z_i; where each
    point's chords start; and each point's sign."""
    n = grid.size
    p = np.clip(np.searchsorted(grid, xs, side="right") - 1, 0, n - 2)
    sign = np.where((xs < grid[0]) | (xs > grid[-1]), -1.0, 1.0)
    z = np.tile(grid, xs.size)
    per_point = (p + 1) * (n - 1 - p)
    block = (np.cumsum(per_point) - 1) // CHORD_BLOCK
    edges = np.concatenate([[0], np.flatnonzero(np.diff(block)) + 1, [xs.size]])
    for lo, hi in zip(edges[:-1], edges[1:]):
        # one row per (point a, left end i <= p_a), holding the right ends j > p_a
        n_rows = p[lo:hi] + 1
        row_a = np.repeat(np.arange(hi - lo), n_rows)
        row_i = np.arange(row_a.size) - np.repeat(np.cumsum(n_rows) - n_rows, n_rows)
        row_p = p[lo + row_a]
        row_len = n - 1 - row_p
        row_start = np.cumsum(row_len) - row_len
        fi = np.repeat(row_a * n + row_i, row_len)
        fj = np.arange(fi.size) + np.repeat(row_a * n + row_p + 1 - row_start, row_len)
        span = z.take(fj) - np.repeat(grid[row_i], row_len)
        gap = np.repeat(xs[lo + row_a] - grid[row_i], row_len)
        starts = np.cumsum(per_point[lo:hi]) - per_point[lo:hi]
        yield slice(int(lo), int(hi)), fi, fj, span, gap, starts, sign[lo:hi]


class _ChordTable:
    """The lower convex envelope, at each point of ``xs``, of rows of
    samples on ``grid`` (one sample per node), and the slopes that support
    it there: the two-date argument of this module, one row at a time.

    ``move`` holds z - x over the grid, one row per point.  A point within
    rounding (:func:`~motbound.hedge._rounding_twins`) of a node z_p has
    ``node`` p (else -1); that node's cell pins no slope (see
    :meth:`ratio_test`), and the chords read the point at z_p.  ``across``
    marks each point's chords, the pairs (i, j) with i <= p < j, where
    [z_p, z_{p+1}] is the cell that holds it (a point on a node in the cell
    to its right, one on the last node in the last cell), and ``weight``
    holds their w = (x - z_i) / (z_j - z_i).  A point outside the grid
    hull has every pinning cell on one side, so :meth:`ratio_test` always
    gives it a slope and its chords need not be read."""

    def __init__(self, grid: np.ndarray, xs: np.ndarray) -> None:
        points = np.union1d(grid, xs)
        run = np.cumsum(~_rounding_twins(points))
        node = np.full(run[-1] + 1, -1)
        node[run[np.searchsorted(points, grid)]] = np.arange(grid.size)
        self.node = node = node[run[np.searchsorted(points, xs)]]
        self.grid = grid
        self.move = move = grid[None, :] - xs[:, None]
        pins = move != 0.0
        pins[np.flatnonzero(node >= 0), node[node >= 0]] = False
        self.rate = np.divide(1.0, move, out=np.zeros_like(move), where=pins)
        self.above = np.where(pins & (move > 0.0), 0.0, np.inf)
        self.below = np.where(pins & (move < 0.0), 0.0, -np.inf)
        x = np.where(node >= 0, grid[node], xs)
        p = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)[:, None, None]
        ends = np.arange(grid.size)
        self.across = (ends[:, None] <= p) & (ends > p)
        self.weight = np.divide(x[:, None, None] - grid[:, None], grid - grid[:, None],
                                out=np.zeros(self.across.shape), where=self.across)

    def ratio_test(self, r: np.ndarray, which: np.ndarray, own: np.ndarray):
        """The slopes d under which each row of ``r`` less d * ``move`` of
        its point ``which`` is 0 or above on every cell: at most r / move
        where move > 0, at least where move < 0, and none where the cell at
        the point's ``node``, which pins no slope, is below 0.  Returns the
        bracket's ends ``lo`` and ``hi`` (-inf or inf where no cell pins
        that side, and ``lo > hi`` where no slope is left), then its end
        nearest ``own`` and the cell that gives it, where that row is 0."""
        k, node = np.arange(which.size), self.node[which]
        ratio = r * self.rate[which]
        above, below = self.above[which], self.below[which]
        up, down = (ratio + above).argmin(axis=1), (ratio + below).argmax(axis=1)
        lo, hi = ratio[k, down] + below[k, down], ratio[k, up] + above[k, up]
        none = (node >= 0) & (r[k, node] < 0.0)
        lo[none], hi[none] = np.inf, -np.inf
        top = np.abs(hi - own) <= np.abs(lo - own)
        return lo, hi, np.where(top, hi, lo), np.where(top, up, down)

    def at(self, samples: np.ndarray, which: np.ndarray):
        """The lower convex envelope of each row of ``samples`` at its point
        ``xs[which]``, a subgradient of the envelope there, and the ends
        i < j and weight w of the chord that gives them.  The envelope is
        the first smallest chord, in the order of i and then j, read as
        ``w * (y_j - y_i) + y_i``.  The subgradient is that chord's slope,
        which is one wherever x lies strictly inside the chord; at a node
        (w of 0 or 1), where a chord that ends at x can be steeper than the
        envelope, it is clipped to the envelope's slopes on either side,
        the :meth:`ratio_test` of the row less its sample at the node.  A
        pass reads the rows in blocks of about ``CHUNK_CELLS`` chords."""
        rows = max(1, CHUNK_CELLS // self.weight[0].size)
        parts = [self._at(samples[lo:lo + rows], which[lo:lo + rows]) for lo in range(0, which.size, rows)]
        return tuple(np.concatenate(part) for part in zip(*parts)) if len(parts) != 1 else parts[0]

    def _at(self, samples: np.ndarray, which: np.ndarray):
        """:meth:`at` on one block of rows."""
        k, grid = np.arange(which.size), self.grid
        yi = samples[:, :, None]
        rise = samples[:, None, :] - yi
        chord = rise * self.weight[which]
        chord += yi
        chord[~self.across[which]] = np.inf
        i, j = np.divmod(chord.reshape(which.size, -1).argmin(axis=1), grid.size)
        value, slope, w = chord[k, i, j], rise[k, i, j] / (grid[j] - grid[i]), self.weight[which, i, j]
        node = np.flatnonzero((w == 0.0) | (w == 1.0))
        if node.size:
            at = which[node]
            lo, hi = self.ratio_test(samples[node] - samples[node, self.node[at]][:, None], at, slope[node])[:2]
            slope[node] = np.minimum(np.maximum(slope[node], lo), hi)
        return value, slope, i, j, w


def _envelope_value(u2: np.ndarray, table: np.ndarray, chords, mu1: DiscreteMeasure,
                    mu2: DiscreteMeasure, grid: np.ndarray) -> float:
    """value(u2), each g_x**(x) the smallest chord of ``table`` - u2 over the
    grid pairs bracketing x (``chords`` from :func:`_chord_blocks`), each
    chord read as np.interp reads a segment: slope * (x - z_i) + y_i."""
    env = np.empty(mu1.points.size)
    for points, fi, fj, span, gap, starts, sign in chords:
        y = ((table[points] - u2) * sign[:, None]).ravel()
        yi = y.take(fi)
        v = y.take(fj)
        v -= yi
        v /= span
        v *= gap
        v += yi
        env[points] = sign * np.minimum.reduceat(v, starts)
    # summed left to right over the atoms, the order a per-atom loop adds them in
    total = float(np.cumsum(mu1.weights * env)[-1])
    return total + float(np.dot(np.interp(mu2.points, grid, u2), mu2.weights))


def _setup(u2, payoff: Payoff, mu1: DiscreteMeasure, mu2: DiscreteMeasure, grid):
    """Checked grid, u2 (a fresh copy) and payoff table shared by every entry point."""
    if payoff.n != 2:
        raise ValueError("the envelope dual covers two-date payoffs")
    grid = extended_grid(mu1, mu2) if grid is None else np.asarray(grid, dtype=float).ravel()
    u2 = np.array(u2, dtype=float).ravel()
    if u2.size != grid.size:
        raise ValueError(f"u2 has {u2.size} entries, grid has {grid.size}")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(u2))):
        raise ValueError("u2 grid points and values must be finite")
    _check_coverage(grid, mu1, mu2)
    _check_increasing(grid)
    table = payoff_mod.tabulate(payoff, [mu1.points, grid]).reshape(mu1.points.size, grid.size)
    return grid, u2, table


def dual_value(u2, payoff: Payoff, mu1: DiscreteMeasure, mu2: DiscreteMeasure,
               *, grid=None) -> float:
    """Certified lower bound from one u2 table (grid defaults to the union of
    both atom sets; u2 must be tabulated on it).

    Every g_x**(x) is the smallest chord of g_x over the grid pairs
    z_i <= x <= z_j (see :func:`convex_envelope`), taken for all first-date
    atoms at once; the chords are built block by block and dropped."""
    grid, u2, table = _setup(u2, payoff, mu1, mu2, grid)
    return _envelope_value(u2, table, _chord_blocks(grid, mu1.points), mu1, mu2, grid)


@dataclass(frozen=True)
class EnvelopeDual:
    grid: np.ndarray
    u2: np.ndarray
    value: float
    per_s1_envelopes: tuple[PiecewiseLinear, ...]


def _envelope_dual(u2: np.ndarray, table: np.ndarray, value: float, grid: np.ndarray) -> EnvelopeDual:
    envs = tuple(convex_envelope(grid, row - u2) for row in table)
    return EnvelopeDual(grid=grid, u2=u2, value=value, per_s1_envelopes=envs)


def evaluate_dual(u2, payoff: Payoff, mu1: DiscreteMeasure, mu2: DiscreteMeasure,
                  *, grid=None) -> EnvelopeDual:
    """:func:`dual_value` plus each first-date atom's envelope."""
    grid, u2, table = _setup(u2, payoff, mu1, mu2, grid)
    value = _envelope_value(u2, table, _chord_blocks(grid, mu1.points), mu1, mu2, grid)
    return _envelope_dual(u2, table, value, grid)


def improve_u2(start, payoff: Payoff, mu1: DiscreteMeasure, mu2: DiscreteMeasure,
               iters: int, *, grid=None) -> EnvelopeDual:
    """Deterministic coordinate ascent on dual_value.

    Each sweep line-searches every u2 entry by golden section over a bracket
    of four times the local payoff scale; the value never decreases.  The
    bracketing chords are built once and kept for every evaluation.  This
    refines and certifies; the LP solve stays authoritative."""
    if iters < 0:
        raise ValueError(f"iters must be a nonnegative sweep count, got {iters!r}")
    grid, u2, table = _setup(start, payoff, mu1, mu2, grid)
    chords = list(_chord_blocks(grid, mu1.points))
    scale = 4.0 * (1.0 + np.abs(table).max(axis=0))

    value = _envelope_value(u2, table, chords, mu1, mu2, grid)
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(int(iters)):
        for k in range(grid.size):
            center = u2[k]
            a, b = center - scale[k], center + scale[k]

            def f(t: float) -> float:
                u2[k] = t
                return _envelope_value(u2, table, chords, mu1, mu2, grid)

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
    value = _envelope_value(u2, table, chords, mu1, mu2, grid)
    return _envelope_dual(u2, table, value, grid)


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
    rows = [r for r in rows if r]
    for r in rows:
        if len(r) < 2:
            raise ValueError(f"u2 CSV row {','.join(r)!r} needs two fields, s2 and u2")
    pts = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    order = np.argsort(pts)
    return pts[order], vals[order]
