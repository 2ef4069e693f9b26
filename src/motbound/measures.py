"""Discrete marginal laws, call curves, convex order, and barrier decomposition.

A risk-neutral marginal at one maturity is a finitely supported probability
measure on the line.  Vanilla call quotes pin such a measure down: the call
price curve of a discrete measure is piecewise linear in the strike, and its
second differences recover the atom weights.  A family of marginals admits a
martingale coupling exactly when the means agree and the call curves increase
with maturity (convex order); strikes where two consecutive call curves touch
act as barriers that no coupling crosses, splitting the transport problem into
independent blocks.

Conventions used throughout:

- measures are given by strictly increasing atom positions and positive
  weights summing to one;
- call curves are closed with slope -1 far to the left of the quoted range and
  slope 0 far to the right, which forces total mass one and pins the mean to
  ``first strike + first price``;
- negative strikes and negative support points are permitted without warnings,
  since nothing downstream assumes positivity.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BadSpec, InfeasibleCurve, MotboundError

# Tolerances, all absolute.  ORDER_TOL is the one call-price tolerance, on
# the difference D = C_{i+1} - C_i of consecutive call curves: the order
# report reads D < -ORDER_TOL as a violation, the barrier scan D <= ORDER_TOL
# as a touch (and a slope of D at or below it as flat).
WEIGHT_TOL = 1e-12
MEAN_TOL = 1e-10
ORDER_TOL = 1e-10


@dataclass(frozen=True, eq=False)  # array fields: identity equality and hash
class DiscreteMeasure:
    """Finitely supported probability measure on the real line.

    Parameters
    ----------
    points : array_like
        Support points.  They are sorted on construction; exact duplicates are
        merged by summing their weights.
    weights : array_like
        Nonnegative weights.  Zero-weight atoms are dropped; the remaining
        weights must sum to one within 1e-9 and are renormalized to sum to
        one exactly.

    Attributes
    ----------
    mean : float
        First moment, computed once at construction.
    """

    points: np.ndarray
    weights: np.ndarray
    mean: float = field(init=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).ravel()
        wts = np.asarray(self.weights, dtype=float).ravel()
        if pts.size == 0 or pts.size != wts.size:
            raise ValueError("points and weights must be nonempty and of equal length")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
            raise ValueError("points and weights must be finite")
        if np.any(wts < -WEIGHT_TOL):
            raise ValueError("weights must be nonnegative")
        order = np.argsort(pts, kind="stable")
        pts, wts = pts[order], np.maximum(wts[order], 0.0)
        if pts.size > 1 and np.any(np.diff(pts) == 0.0):
            uniq, inverse = np.unique(pts, return_inverse=True)
            wts = np.bincount(inverse, weights=wts)
            pts = uniq
        keep = wts > 0.0
        pts, wts = pts[keep], wts[keep]
        if pts.size == 0:
            raise ValueError("measure has no mass")
        total = float(wts.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        wts = wts / total
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "mean", float(pts @ wts))

    def __len__(self) -> int:
        return int(self.points.size)

    def to_json(self) -> dict:
        return {
            "points": [float(p) for p in self.points],
            "weights": [float(w) for w in self.weights],
            "mean": self.mean,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DiscreteMeasure":
        if not (isinstance(obj, dict) and _numbers(obj.get("points")) and _numbers(obj.get("weights"))
                and type(obj.get("mean", 0.0)) in (int, float)):
            raise ValueError("a marginal must be an object of 'points' and 'weights' lists and a 'mean' number")
        measure = cls(np.asarray(obj["points"], dtype=float), np.asarray(obj["weights"], dtype=float))
        if "mean" in obj and abs(measure.mean - float(obj["mean"])) > 1e-8 * (1.0 + abs(measure.mean)):
            raise ValueError("stored mean disagrees with points and weights")
        return measure


def _numbers(x) -> bool:
    """Whether a JSON value is a flat list of numbers."""
    return isinstance(x, list) and all(type(v) in (int, float) for v in x)  # bool is no number


def call_price(measure: DiscreteMeasure, strike) -> float | np.ndarray:
    """Undiscounted call value E[(X - K)^+] under ``measure``.

    ``strike`` may be a scalar or an array; the return type matches.
    """
    k = np.asarray(strike, dtype=float)
    scalar = k.ndim == 0
    k2 = np.atleast_1d(k)
    vals = np.maximum(measure.points[:, None] - k2[None, :], 0.0).T @ measure.weights
    return float(vals[0]) if scalar else vals


@dataclass(frozen=True, eq=False)  # array fields: identity equality and hash
class CallCurve:
    """Quoted call prices at one maturity, validated for static no-arbitrage.

    Prices must be nonnegative, non-increasing and convex in the strike, with
    slopes between -1 and 0 (within 1e-10).  Violations raise
    :class:`InfeasibleCurve`.  Its date is its place in a list of curves.
    """

    strikes: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        ks = np.asarray(self.strikes, dtype=float).ravel()
        cs = np.asarray(self.prices, dtype=float).ravel()
        if ks.size < 2 or ks.size != cs.size:
            raise InfeasibleCurve("need at least two quotes with matching strikes and prices")
        if not (np.all(np.isfinite(ks)) and np.all(np.isfinite(cs))):
            raise InfeasibleCurve("quotes must be finite")
        if np.any(np.diff(ks) <= 0):
            raise InfeasibleCurve("strikes must be strictly increasing")
        if np.any(cs < -1e-10):
            raise InfeasibleCurve("call prices must be nonnegative")
        slopes = np.diff(cs) / np.diff(ks)
        if np.any(slopes > 1e-10) or np.any(slopes < -1.0 - 1e-10):
            j = int(np.argmax(np.abs(slopes + 0.5)))
            raise InfeasibleCurve(
                f"slope {slopes[j]:.6g} outside [-1, 0] between strikes "
                f"{ks[j]:.6g} and {ks[j + 1]:.6g}"
            )
        if np.any(np.diff(slopes) < -1e-10):
            j = int(np.argmin(np.diff(slopes)))
            raise InfeasibleCurve(f"curve not convex at strike {ks[j + 1]:.6g}")
        ks.setflags(write=False)
        cs.setflags(write=False)
        object.__setattr__(self, "strikes", ks)
        object.__setattr__(self, "prices", cs)


def from_call_curve(curve: CallCurve, s0: float) -> DiscreteMeasure:
    """Implied measure whose call prices reproduce ``curve`` at every quoted strike.

    The quoted curve is extended with slope -1 to the left and 0 to the right,
    so the atom weight at each strike is the local slope change.  The left
    closure forces mean ``strikes[0] + prices[0]``; this must agree with
    ``s0`` or the quotes are inconsistent with the forward.  The right
    closure needs the last quote to be 0 (within 1e-10, the price tolerance
    of :class:`CallCurve`), else no measure on the quoted strikes matches
    the quotes.  A ``s0`` that is not finite raises ``ValueError``.
    """
    if not math.isfinite(s0):
        raise ValueError(f"s0 must be finite, got {s0!r}")
    ks, cs = curve.strikes, curve.prices
    if cs[-1] > 1e-10:
        raise InfeasibleCurve(
            f"last quote {cs[-1]:.12g} at strike {ks[-1]:.12g} is not 0; "
            "quote a strike where the call is worthless"
        )
    slopes = np.concatenate(([-1.0], np.diff(cs) / np.diff(ks), [0.0]))
    masses = np.diff(slopes)
    if np.any(masses < -1e-10):
        j = int(np.argmin(masses))
        raise InfeasibleCurve(f"negative implied mass {masses[j]:.3g} at strike {ks[j]:.6g}")
    implied_mean = float(ks[0] + cs[0])
    if abs(implied_mean - s0) > 1e-8 * (1.0 + abs(s0)):
        raise InfeasibleCurve(
            f"curve implies mean {implied_mean:.12g}, but s0 = {s0:.12g}; "
            "extend the quoted strike range or fix the forward"
        )
    masses = np.maximum(masses, 0.0)
    return DiscreteMeasure(ks, masses)


def halve(measure: DiscreteMeasure) -> DiscreteMeasure:
    """The measure on every other atom of ``measure``, both ends kept, whose
    call prices match ``measure``'s at those atoms: :func:`from_call_curve`
    of the exact prices there.  Its call curve is the chord interpolation
    of ``measure``'s, so the mean is kept and ``measure`` precedes it in
    convex order; a measure of fewer than three atoms is returned as is."""
    if len(measure) < 3:
        return measure
    keep = np.unique(np.append(np.arange(0, len(measure), 2), len(measure) - 1))
    strikes = measure.points[keep]
    return from_call_curve(CallCurve(strikes, call_price(measure, strikes)), measure.mean)


@dataclass
class PairOrderReport:
    """Worst convex-order violation between marginals ``index`` and ``index + 1``."""

    index: int
    worst_violation: float
    worst_strike: float

    @property
    def ok(self) -> bool:
        return self.worst_violation <= ORDER_TOL


@dataclass
class OrderReport:
    means: list[float]
    mean_spread: float
    means_ok: bool
    pairs: list[PairOrderReport]
    admissible: bool

    def describe(self) -> str:
        if self.admissible:
            return "admissible: means agree and call prices increase with maturity"
        parts = []
        if not self.means_ok:
            parts.append(f"means differ by {self.mean_spread:.3g}")
        for p in self.pairs:
            if not p.ok:
                parts.append(
                    f"marginal {p.index} dominates marginal {p.index + 1} by "
                    f"{p.worst_violation:.3g} at strike {p.worst_strike:.12g}"
                )
        return "not admissible: " + "; ".join(parts)


@dataclass(frozen=True)
class MarginalSystem:
    """Marginal laws for dates t_1 < ... < t_n sharing a common mean.

    ``s0`` is the common mean (the forward), taken from the first marginal,
    and ``admissible`` the verdict of :func:`check_convex_order`; both are
    set once, at construction, and the system is frozen.
    """

    marginals: tuple[DiscreteMeasure, ...]
    s0: float = field(init=False)
    admissible: bool = field(init=False)

    def __post_init__(self) -> None:
        marginals = tuple(self.marginals)
        if len(marginals) < 2:
            raise ValueError("need at least two maturities")
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "s0", marginals[0].mean)
        object.__setattr__(self, "admissible", check_convex_order(self).admissible)

    @property
    def n_dates(self) -> int:
        return len(self.marginals)

    def to_json(self) -> dict:
        return {"s0": self.s0, "marginals": [m.to_json() for m in self.marginals]}

    @classmethod
    def from_json(cls, obj: dict) -> "MarginalSystem":
        if not (isinstance(obj, dict) and isinstance(obj.get("marginals"), list)):
            raise ValueError("a marginal system must be an object whose 'marginals' is a list")
        return cls([DiscreteMeasure.from_json(m) for m in obj["marginals"]])


def check_convex_order(system: MarginalSystem) -> OrderReport:
    """Convex-order test: equal means and, for each consecutive pair, call
    prices non-decreasing in maturity at every strike.

    Checking the union of the pair's atom positions suffices because both
    call curves are piecewise linear with kinks only at their own atoms.
    Writes nothing; ``MarginalSystem.admissible`` holds the same verdict.
    """
    means = [m.mean for m in system.marginals]
    mean_spread = float(max(means) - min(means))
    means_ok = mean_spread <= MEAN_TOL
    pairs: list[PairOrderReport] = []
    for i in range(len(system.marginals) - 1):
        lo, hi = system.marginals[i], system.marginals[i + 1]
        grid = np.union1d(lo.points, hi.points)
        gap = call_price(lo, grid) - call_price(hi, grid)
        j = int(np.argmax(gap))
        pairs.append(PairOrderReport(index=i, worst_violation=float(gap[j]), worst_strike=float(grid[j])))
    admissible = means_ok and all(p.ok for p in pairs)
    return OrderReport(means=means, mean_spread=mean_spread, means_ok=means_ok, pairs=pairs, admissible=admissible)


# ---------------------------------------------------------------------------
# Densities and discretization


@dataclass(frozen=True, eq=False)  # array fields: identity equality and hash
class DensitySpec:
    """Piecewise-linear density with compact support.

    ``xs`` are strictly increasing finite breakpoints and ``ys`` the
    nonnegative density values there; the density is linear between
    breakpoints and zero outside ``[xs[0], xs[-1]]``.  The values are rescaled
    to unit mass on construction, and every construction, including a direct
    one, is validated: malformed breakpoints or values raise :class:`BadSpec`.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.xs, dtype=float).ravel()
        y = np.asarray(self.ys, dtype=float).ravel()
        if x.size < 2 or x.size != y.size or not np.all(np.isfinite(x)) or np.any(np.diff(x) <= 0):
            raise BadSpec("breakpoints must be finite, strictly increasing and match values")
        if not np.all(np.isfinite(y)) or np.any(y < 0):
            raise BadSpec("density values must be finite and nonnegative")
        total = float(np.trapezoid(y, x))
        if not (math.isfinite(total) and total > 0):
            raise BadSpec("density has no finite positive mass")
        y = y / total
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "xs", x)
        object.__setattr__(self, "ys", y)

    @classmethod
    def uniform(cls, a: float, b: float) -> "DensitySpec":
        return cls.piecewise_linear([a, b], [1.0, 1.0])

    @classmethod
    def piecewise_linear(cls, xs: Sequence[float], ys: Sequence[float]) -> "DensitySpec":
        return cls(xs, ys)


def discretize(spec: DensitySpec, m: int) -> DiscreteMeasure:
    """Barycentric discretization: split the support into ``m`` cells of equal
    probability mass and place each cell's mass at its conditional mean.

    Everything is in closed form.  The CDF is quadratic on each segment, so
    each equal-mass cut is the root of a quadratic; cell masses and first
    moments are exact integrals of the linear pieces between cuts and
    breakpoints, so the discrete mean equals the continuous mean up to
    roundoff and the result is dominated in convex order by the density.
    """
    if m < 2:
        raise ValueError("need at least two cells")
    x, y = spec.xs, spec.ys
    cdf = np.concatenate(([0.0], np.cumsum((y[:-1] + y[1:]) * np.diff(x) / 2.0)))

    # Cut q lies on segment k with cdf[k] <= q < cdf[k + 1]; side="right"
    # skips segments without mass.  The mass r = y_k t + slope t^2 / 2 up to
    # x_k + t is inverted in the cancellation-free form of the root.
    q = cdf[-1] * np.arange(1, m) / m
    k = np.searchsorted(cdf, q, side="right") - 1
    r = q - cdf[k]
    width = x[k + 1] - x[k]
    slope = (y[k + 1] - y[k]) / width
    root = y[k] + np.sqrt(np.maximum(y[k] ** 2 + 2.0 * slope * r, 0.0))
    t = np.divide(2.0 * r, root, out=np.zeros_like(r), where=r > 0)
    cuts = x[k] + np.clip(t, 0.0, width)

    # Linear pieces between consecutive cuts and breakpoints, summed per cell.
    ends = np.sort(np.concatenate((x, cuts)))
    u, v = ends[:-1], ends[1:]
    yu, yv = np.interp(u, x, y), np.interp(v, x, y)
    cell = np.searchsorted(cuts, u, side="right")
    mass = np.bincount(cell, (yu + yv) * (v - u) / 2.0, minlength=m)
    moment = np.bincount(cell, (v - u) * (yu * (2.0 * u + v) + yv * (u + 2.0 * v)) / 6.0, minlength=m)
    return DiscreteMeasure(moment / mass, mass / mass.sum())


# ---------------------------------------------------------------------------
# Barriers


@dataclass(frozen=True)
class Block:
    """One barrier block: both marginals restricted to (lo, hi) and renormalized."""

    lo: float
    hi: float
    mass: float
    sub1: DiscreteMeasure
    sub2: DiscreteMeasure


@dataclass(frozen=True)
class BarrierDecomposition:
    levels: np.ndarray
    blocks: list[Block]


def detect_barriers(mu1: DiscreteMeasure, mu2: DiscreteMeasure) -> BarrierDecomposition:
    """Levels where the two call curves coincide, with the induced blocks.

    The call-price difference D = C2 - C1 is piecewise linear with kinks only
    at atoms, and D >= 0 under convex order.  Mass cannot cross any level
    where D vanishes, so a gap between consecutive atoms of the pooled support
    with D <= ORDER_TOL at both ends separates the atoms on either side.
    Within such a gap, the reported level is the zero crossing of the
    flanking mid-step CDF interpolations: with entering slope sL = |D'| left
    of the gap and exiting slope sR right of it, the level is
    ``(sR*g_left + sL*g_right) / (sL + sR)`` (midpoint when both slopes
    vanish, i.e. when the curves agree on a whole neighborhood).

    A coincidence isolated exactly at an interior atom (D positive in both
    adjacent gaps) does not split: the two would-be blocks can both place mass
    on that atom, so no clean partition of the support exists there.
    """
    grid = np.union1d(mu1.points, mu2.points)
    diff = np.asarray(call_price(mu2, grid)) - np.asarray(call_price(mu1, grid))
    m = grid.size
    cut_gaps: list[int] = []
    levels: list[float] = []
    for k in range(m - 1):
        if diff[k] <= ORDER_TOL and diff[k + 1] <= ORDER_TOL:
            width_l = grid[k] - grid[k - 1] if k >= 1 else 0.0
            width_r = grid[k + 2] - grid[k + 1] if k + 2 < m else 0.0
            s_left = max((diff[k - 1] - diff[k]) / width_l, 0.0) if width_l > 0 else 0.0
            s_right = max((diff[k + 2] - diff[k + 1]) / width_r, 0.0) if width_r > 0 else 0.0
            if s_left > ORDER_TOL and s_right > ORDER_TOL:
                level = (s_right * grid[k] + s_left * grid[k + 1]) / (s_left + s_right)
            else:
                # curves agree on a whole neighborhood on at least one side;
                # any level in the gap separates, so report the midpoint
                level = (grid[k] + grid[k + 1]) / 2.0
            cut_gaps.append(k)
            levels.append(float(level))

    # Assign atoms to blocks by their position in the pooled grid so an atom
    # can never sit on the wrong side of a cut through float comparisons.
    cut_idx = np.asarray(cut_gaps)
    u1 = np.searchsorted(grid, mu1.points)
    u2 = np.searchsorted(grid, mu2.points)
    b1 = np.searchsorted(cut_idx, u1, side="left")
    b2 = np.searchsorted(cut_idx, u2, side="left")
    bounds = np.concatenate(([-np.inf], np.asarray(levels), [np.inf]))
    blocks: list[Block] = []
    for k in range(len(levels) + 1):
        in1 = b1 == k
        in2 = b2 == k
        w1 = float(mu1.weights[in1].sum())
        w2 = float(mu2.weights[in2].sum())
        if w1 <= 0 and w2 <= 0:
            continue
        if abs(w1 - w2) > 1e-9 or w1 <= 0 or w2 <= 0:
            raise MotboundError(
                f"block ({bounds[k]:.6g}, {bounds[k + 1]:.6g}) holds mass {w1:.12g} under "
                f"the first marginal but {w2:.12g} under the second; barriers are inconsistent"
            )
        sub1 = DiscreteMeasure(mu1.points[in1], mu1.weights[in1] / w1)
        sub2 = DiscreteMeasure(mu2.points[in2], mu2.weights[in2] / w2)
        blocks.append(Block(lo=float(bounds[k]), hi=float(bounds[k + 1]), mass=w1, sub1=sub1, sub2=sub2))
    return BarrierDecomposition(levels=np.asarray(levels), blocks=blocks)


def counterexample_edges(n_blocks: int) -> np.ndarray:
    """0, 1, 1+1/4, ..., sum of 1/n^2 up to n_blocks, then 2 (the sum stays
    below pi^2/6 < 2)."""
    partial = np.cumsum([1.0 / k ** 2 for k in range(1, n_blocks + 1)])
    return np.concatenate([[0.0], partial, [2.0]])


def counterexample_marginals(n_blocks: int, m2_per_block: int) -> MarginalSystem:
    """Marginal pair with prescribed barriers at the partial sums of 1/i^2.

    The first marginal puts mass l_i/2 at the midpoint of each interval
    I_i = [sum_{j<i} 1/j^2, sum_{j<=i} 1/j^2] for i <= n_blocks, plus the
    residual mass at the midpoint of the remaining interval up to 2.  The
    second marginal discretizes the uniform law on [0, 2] barycentrically
    with ``m2_per_block`` atoms per block, aligned with the same intervals,
    so each block is forced to couple the single first-date atom with the
    block's uniform mass.
    """
    if n_blocks < 1 or m2_per_block < 1:
        raise ValueError("need at least one block and one atom per block")
    edges = counterexample_edges(n_blocks)
    mids = (edges[:-1] + edges[1:]) / 2.0
    masses = np.diff(edges) / 2.0
    mu1 = DiscreteMeasure(mids, masses / masses.sum())

    pts2, wts2 = [], []
    for lo, hi, w in zip(edges[:-1], edges[1:], masses):
        block_pts = lo + (hi - lo) * (2 * np.arange(m2_per_block) + 1) / (2 * m2_per_block)
        pts2.extend(block_pts)
        wts2.extend([w / m2_per_block] * m2_per_block)
    wts2 = np.asarray(wts2)
    mu2 = DiscreteMeasure(np.asarray(pts2), wts2 / wts2.sum())
    return MarginalSystem([mu1, mu2])


# ---------------------------------------------------------------------------
# Quote ingestion


def load_call_curves(path: str | Path) -> list[CallCurve]:
    """Read call quotes from CSV (maturity_index, strike, price) or JSON
    ([{"i": ..., "K": ..., "C": ...}, ...], each field a JSON number; CSV
    fields are text, parsed as numbers); one curve per maturity index, in
    index order, which is the date order (the index is not kept)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json" or text.lstrip().startswith(("[", "{")):
        data = json.loads(text)
        if not (isinstance(data, list) and all(isinstance(rec, dict) for rec in data)):
            raise ValueError(f'quotes JSON must be a list of {{"i", "K", "C"}} records: {path}')
        if missing := next((name for rec in data for name in ("i", "K", "C") if name not in rec), None):
            raise ValueError(f"a quote in {path} lacks field {missing!r}")
        # a boolean or a string is no number (null is a missing one, below)
        if bad := next(((name, rec[name]) for rec in data for name in ("i", "K", "C")
                        if rec[name] is not None and type(rec[name]) not in (int, float)), None):
            raise ValueError(f"field {bad[0]!r} of a quote in {path} is not a number: {bad[1]!r}")
        fields = [(rec["i"], rec["K"], rec["C"]) for rec in data]
    else:
        reader = csv.DictReader(text.splitlines())
        if reader.fieldnames is None or not {"maturity_index", "strike", "price"} <= set(reader.fieldnames):
            raise ValueError("quotes CSV needs columns maturity_index, strike, price")
        fields = [(rec["maturity_index"], rec["strike"], rec["price"]) for rec in reader]
    try:
        rows = [(float(i), float(k), float(c)) for i, k, c in fields]
    except (TypeError, OverflowError):  # a null JSON field, a CSV row short of a field, a huge JSON int
        raise ValueError(f"a quote in {path} lacks a number or holds one out of range") from None
    for i, _, _ in rows:
        if not i.is_integer():
            raise ValueError(f"maturity index {i!r} in {path} is not an integer")
    rows = [(int(i), k, c) for i, k, c in rows]
    if not rows:
        raise ValueError(f"no quotes found in {path}")
    by_index: dict[int, list[tuple[float, float]]] = {}
    for i, k, c in rows:
        by_index.setdefault(i, []).append((k, c))
    return [CallCurve(*np.array(sorted(by_index[i])).T) for i in sorted(by_index)]
