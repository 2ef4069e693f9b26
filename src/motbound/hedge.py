"""Semi-static hedges: representation, pricing, verification, export.

A hedge is cash b, one static piecewise-linear payout u_i per date, and one
delta table per step.  Its assembled payout on a path is

    psi(s) = b + sum_i u_i(s_i) + sum_j delta_j(s_1..s_j) * (s_{j+1} - s_j).

A subhedge needs psi <= payoff everywhere, a superhedge psi >= payoff; both
are checked on grids here, with a kink-point continuum check in the last
coordinate for payoffs that are piecewise linear in it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import payoff as payoff_mod
from .errors import DimensionMismatch
from .payoff import Payoff

VERIFY_TOL = 1e-8
SLACK_TOL = 1e-7
SUPPORT_TOL = 1e-12
KNOT_TOL = 1e-10


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function with linear extrapolation."""

    knots: np.ndarray
    values: np.ndarray
    left_slope: float
    right_slope: float

    def __post_init__(self) -> None:
        knots = np.asarray(self.knots, dtype=float).ravel()
        values = np.asarray(self.values, dtype=float).ravel()
        if knots.size == 0 or knots.size != values.size:
            raise ValueError("need matching nonempty knot and value arrays")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))
                and np.isfinite(self.left_slope) and np.isfinite(self.right_slope)):
            raise ValueError("knots, values and slopes must be finite")
        knots.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_samples(cls, xs, ys) -> "PiecewiseLinear":
        """Interpolant of samples; wings continue the end segments."""
        xs = np.asarray(xs, dtype=float).ravel()
        ys = np.asarray(ys, dtype=float).ravel()
        if xs.size >= 2:
            left = (ys[1] - ys[0]) / (xs[1] - xs[0])
            right = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        else:
            left = right = 0.0
        return cls(xs, ys, float(left), float(right))

    @classmethod
    def zero(cls) -> "PiecewiseLinear":
        return cls(np.array([0.0]), np.array([0.0]), 0.0, 0.0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        y = np.interp(x, self.knots, self.values)
        k0, km = self.knots[0], self.knots[-1]
        y = np.where(x < k0, self.values[0] + self.left_slope * (x - k0), y)
        y = np.where(x > km, self.values[-1] + self.right_slope * (x - km), y)
        return float(y) if y.ndim == 0 else y

    def segment_slopes(self) -> np.ndarray:
        """All slopes left to right: wing, interior segments, wing."""
        if self.knots.size == 1:
            return np.array([self.left_slope, self.right_slope])
        interior = np.diff(self.values) / np.diff(self.knots)
        return np.concatenate([[self.left_slope], interior, [self.right_slope]])

    def shift(self, c: float) -> "PiecewiseLinear":
        return PiecewiseLinear(self.knots, self.values + c, self.left_slope, self.right_slope)

    def add_linear(self, beta: float) -> "PiecewiseLinear":
        """Add beta * x."""
        return PiecewiseLinear(self.knots, self.values + beta * self.knots,
                               self.left_slope + beta, self.right_slope + beta)

    def to_json(self) -> dict:
        return {
            "knots": [float(x) for x in self.knots],
            "values": [float(v) for v in self.values],
            "left_slope": float(self.left_slope),
            "right_slope": float(self.right_slope),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PiecewiseLinear":
        return cls(obj["knots"], obj["values"], obj["left_slope"], obj["right_slope"])


def _nearest_index(grid: np.ndarray, x: float) -> int:
    j = int(np.searchsorted(grid, x))
    if j <= 0:
        return 0
    if j >= grid.size:
        return grid.size - 1
    return j - 1 if x - grid[j - 1] <= grid[j] - x else j


@dataclass(frozen=True)
class DeltaTable:
    """Delta positions tabulated on history cells, nearest-atom lookup.

    Duals exist only at grid histories, so no interpolation: a query snaps
    each coordinate to the nearest atom.  Histories absent from the table
    hold no position.
    """

    atoms: tuple[np.ndarray, ...]
    table: dict

    def __post_init__(self) -> None:
        atoms = tuple(np.asarray(g, dtype=float).ravel() for g in self.atoms)
        for g in atoms:
            if g.size == 0 or np.any(np.diff(g) <= 0):
                raise ValueError("atom grids must be nonempty and strictly increasing")
            g.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)

    def lookup(self, history) -> float:
        history = np.atleast_1d(np.asarray(history, dtype=float))
        if history.size != len(self.atoms):
            raise DimensionMismatch(f"history has {history.size} dates, table expects {len(self.atoms)}")
        key = tuple(_nearest_index(g, x) for g, x in zip(self.atoms, history))
        return float(self.table.get(key, 0.0))

    def values(self) -> np.ndarray:
        return np.array([self.table[k] for k in sorted(self.table)])

    def shifted(self, beta: float) -> "DeltaTable":
        return DeltaTable(self.atoms, {k: v + beta for k, v in self.table.items()})

    def to_json(self) -> dict:
        return {
            "atoms": [[float(x) for x in g] for g in self.atoms],
            "entries": [{"history": [float(g[i]) for g, i in zip(self.atoms, k)], "delta": float(v)}
                        for k, v in sorted(self.table.items())],
        }


@dataclass(frozen=True)
class SemiStaticHedge:
    """Cash + static payouts u_i + per-step deltas; sense 'sub' or 'super'."""

    cash: float
    statics: tuple[PiecewiseLinear, ...]
    deltas: tuple[DeltaTable, ...]
    sense: str

    def __post_init__(self) -> None:
        if self.sense not in ("sub", "super"):
            raise ValueError(f"sense must be 'sub' or 'super', got {self.sense!r}")
        if len(self.statics) != len(self.deltas) + 1:
            raise ValueError("need one static per date and one delta per step")
        object.__setattr__(self, "statics", tuple(self.statics))
        object.__setattr__(self, "deltas", tuple(self.deltas))

    @property
    def n(self) -> int:
        return len(self.statics)

    def evaluate(self, s) -> float:
        s = np.asarray(s, dtype=float).ravel()
        if s.size != self.n:
            raise DimensionMismatch(f"hedge covers {self.n} dates, got {s.size}")
        total = self.cash + sum(float(u(x)) for u, x in zip(self.statics, s))
        for j, dt in enumerate(self.deltas):
            total += dt.lookup(s[: j + 1]) * (s[j + 1] - s[j])
        return float(total)

    def evaluate_last_axis(self, history, z: np.ndarray) -> np.ndarray:
        """Assembled payout over the final date with the history fixed."""
        history = np.asarray(history, dtype=float).ravel()
        z = np.asarray(z, dtype=float).ravel()
        if history.size != self.n - 1:
            raise DimensionMismatch(f"history must have {self.n - 1} dates, got {history.size}")
        base = self.cash + sum(float(u(x)) for u, x in zip(self.statics[:-1], history))
        for j in range(len(self.deltas) - 1):
            base += self.deltas[j].lookup(history[: j + 1]) * (history[j + 1] - history[j])
        delta_last = self.deltas[-1].lookup(history) if self.deltas else 0.0
        return base + self.statics[-1](z) + delta_last * (z - history[-1])

    def last_delta_slopes(self, history) -> tuple[float, float]:
        """Left and right wing slopes of z -> psi(history, z)."""
        d = self.deltas[-1].lookup(history) if self.deltas else 0.0
        u = self.statics[-1]
        return u.left_slope + d, u.right_slope + d


@dataclass(frozen=True)
class CallPortfolio:
    """cash + forward * s + call legs, equivalent to one static payout."""

    date_index: int
    cash: float
    forward: float
    legs: tuple[tuple[float, float], ...]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        y = self.cash + self.forward * x
        for strike, qty in self.legs:
            y = y + qty * np.maximum(x - strike, 0.0)
        return float(y) if y.ndim == 0 else y

    def to_json(self) -> dict:
        return {
            "date_index": self.date_index,
            "cash": float(self.cash),
            "forward": float(self.forward),
            "legs": [{"strike": float(k), "quantity": float(q)} for k, q in self.legs],
        }


def to_call_portfolio(u: PiecewiseLinear, date_index: int) -> CallPortfolio:
    """Rewrite u as cash + forward + calls: forward carries the left wing,
    each knot contributes a call with quantity equal to its slope change."""
    slopes = u.segment_slopes()
    changes = np.diff(slopes)
    cash = float(u.values[0] - u.left_slope * u.knots[0])
    scale = 1e-12 * (1.0 + float(np.abs(slopes).max()))
    legs = tuple((float(k), float(c)) for k, c in zip(u.knots, changes) if abs(c) > scale)
    return CallPortfolio(date_index=date_index, cash=cash, forward=float(u.left_slope), legs=legs)


def price(hedge: SemiStaticHedge, system) -> float:
    """b + sum_i E_{mu_i}[u_i]; delta legs are costless to enter."""
    if len(system.marginals) != hedge.n:
        raise DimensionMismatch("hedge and marginal system cover different date counts")
    total = hedge.cash
    for u, mu in zip(hedge.statics, system.marginals):
        total += float(np.dot(u(mu.points), mu.weights))
    return float(total)


@dataclass(frozen=True)
class VerificationReport:
    sense: str
    max_violation: float
    worst_cell: tuple[float, ...]
    checked_cells: int
    continuum_checked: bool
    wing_ok: bool | None
    tol: float = VERIFY_TOL

    @property
    def valid(self) -> bool:
        return self.max_violation <= self.tol and self.wing_ok is not False

    def describe(self) -> str:
        verdict = "valid" if self.valid else "INVALID"
        wings = {True: "wings ok", False: "WINGS FAIL", None: "wings unchecked"}[self.wing_ok]
        return (f"{self.sense}hedge {verdict}: max violation {self.max_violation:.3e} "
                f"over {self.checked_cells} cells at {self.worst_cell}, {wings}")


def _payoff_wing_slopes(payoff: Payoff, history: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    kinks = payoff_mod.last_coord_kinks(payoff, history)
    left_at = min([lo] + kinks) - 1.0
    right_at = max([hi] + kinks) + 1.0
    f = lambda z: payoff_mod.evaluate(payoff, np.append(history, z))
    left = f(left_at) - f(left_at - 1.0)
    right = f(right_at + 1.0) - f(right_at)
    return left, right


def verify(hedge: SemiStaticHedge, payoff: Payoff, grids) -> VerificationReport:
    """Max violation of psi <= payoff (sub) or >= (super) over the grid product.

    For payoffs piecewise linear in the last coordinate the check extends to
    the whole last axis per history: values at u_n's knots, the payoff's own
    kinks, zero and the grid extremes pin every segment, and a wing-slope
    comparison covers both tails.
    """
    grids = [np.asarray(g, dtype=float).ravel() for g in grids]
    if len(grids) != hedge.n:
        raise DimensionMismatch(f"hedge covers {hedge.n} dates, got {len(grids)} grids")
    sign = 1.0 if hedge.sense == "sub" else -1.0
    continuum = payoff.kind not in ("tabulated", "custom")
    lo, hi = float(grids[-1][0]), float(grids[-1][-1])
    u_last_knots = hedge.statics[-1].knots

    worst = -np.inf
    worst_cell: tuple[float, ...] = ()
    checked = 0
    wing_ok: bool | None = True if continuum else None

    for hist in itertools.product(*[g.tolist() for g in grids[:-1]]):
        history = np.asarray(hist)
        z = grids[-1]
        if continuum:
            kinks = payoff_mod.last_coord_kinks(payoff, history)
            z = np.union1d(z, kinks + [0.0, lo, hi])
            z = np.union1d(z, u_last_knots)
        psi = hedge.evaluate_last_axis(history, z)
        phi = payoff_mod.evaluate_last_axis(payoff, history, z)
        gap = sign * (psi - phi)
        checked += z.size
        k = int(np.argmax(gap))
        if gap[k] > worst:
            worst = float(gap[k])
            worst_cell = (*[float(x) for x in history], float(z[k]))
        if continuum and wing_ok:
            psi_l, psi_r = hedge.last_delta_slopes(history)
            phi_l, phi_r = _payoff_wing_slopes(payoff, history, lo, hi)
            slope_tol = 1e-9 * (1.0 + abs(phi_l) + abs(phi_r))
            if sign * (psi_r - phi_r) > slope_tol or sign * (phi_l - psi_l) > slope_tol:
                wing_ok = False

    return VerificationReport(
        sense=hedge.sense,
        max_violation=float(worst),
        worst_cell=worst_cell,
        checked_cells=checked,
        continuum_checked=continuum,
        wing_ok=wing_ok,
    )


def slackness(hedge: SemiStaticHedge, coupling, payoff: Payoff) -> float:
    """Max of |payoff - psi| over the coupling's support (mass > 1e-12).
    Zero at an optimal primal/dual pair; positive otherwise."""
    worst = 0.0
    for path, mass in zip(coupling.paths(), coupling.masses):
        if mass <= SUPPORT_TOL:
            continue
        gap = abs(payoff_mod.evaluate(payoff, path) - hedge.evaluate(path))
        worst = max(worst, gap)
    return float(worst)


@dataclass(frozen=True)
class Verdict:
    action: str
    quoted: float
    lower: float
    upper: float
    tol: float
    strategy: str

    def describe(self) -> str:
        return f"{self.action}: quoted {self.quoted:.6g} vs model interval [{self.lower:.6g}, {self.upper:.6g}]; {self.strategy}"


def check_arbitrage(quoted: float, lower_result, upper_result, *, tol: float | None = None) -> Verdict:
    """Compare a quote against the model-free interval [lower, upper]."""
    lower = float(lower_result.value)
    upper = float(upper_result.value)
    if tol is None:
        tol = 1e-6 * (1.0 + abs(quoted))
    if quoted < lower - tol:
        return Verdict("BUY", quoted, lower, upper, tol,
                       "buy the exotic at the quote, sell the lower semi-static hedge; "
                       "the hedge pays less than the exotic in every scenario yet costs more")
    if quoted > upper + tol:
        return Verdict("SELL", quoted, lower, upper, tol,
                       "sell the exotic at the quote, buy the upper semi-static hedge; "
                       "the hedge dominates the exotic in every scenario yet costs less")
    return Verdict("NO_ARB", quoted, lower, upper, tol,
                   "quote lies inside the model-free interval; no static arbitrage")


def affine_transfer(hedge: SemiStaticHedge, step: int, beta: float) -> SemiStaticHedge:
    """Gauge move leaving the assembled payout unchanged pointwise:
    delta_step += beta, u_step += beta*s, u_{step+1} -= beta*s."""
    statics = list(hedge.statics)
    statics[step] = statics[step].add_linear(beta)
    statics[step + 1] = statics[step + 1].add_linear(-beta)
    deltas = list(hedge.deltas)
    deltas[step] = deltas[step].shifted(beta)
    return SemiStaticHedge(hedge.cash, tuple(statics), tuple(deltas), hedge.sense)


def hedge_to_json(hedge: SemiStaticHedge) -> dict:
    return {
        "sense": hedge.sense,
        "cash": float(hedge.cash),
        "statics": [u.to_json() for u in hedge.statics],
        "portfolios": [to_call_portfolio(u, i + 1).to_json() for i, u in enumerate(hedge.statics)],
        "deltas": [dt.to_json() for dt in hedge.deltas],
    }
