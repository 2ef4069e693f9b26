"""Semi-static hedges: representation, pricing, verification, export.

A hedge is cash b, one static piecewise-linear payout u_i per date, and one
delta table per step.  Its assembled payout on a path is

    psi(s) = b + sum_i u_i(s_i) + sum_j delta_j(s_1..s_j) * (s_{j+1} - s_j).

A subhedge needs psi <= payoff everywhere, a superhedge psi >= payoff; both
are checked on product grids here, whose final axis ``_final_axis`` decides
(a continuum check for payoffs piecewise linear in the last coordinate).
A grid and a payoff make one ``_Frame``: the histories, the final axis and
the payoff over their cells.  A bound widens u_n and checks its hedge on
one frame of its LP's atoms, passed to ``verify``, so both read one payoff
table when it fits one chunk; ``verify``, the widening and ``mot.surface_csv``
walk a frame's cells through one chunked kernel, ``_cells``.  psi's terms
are read at grid nodes through ``_terms``, by index where the nodes are the
hedge's own knots and delta atoms; ``slackness`` reads them so on a
coupling's support and ``price`` at the marginals' atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import payoff as payoff_mod
from .errors import DimensionMismatch
from .payoff import Payoff

VERIFY_TOL = 1e-8
SUPPORT_TOL = 1e-12
CHUNK_CELLS = 1 << 20  # histories are checked in blocks of about this many cells


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
        if (knots[1:] - knots[:-1] <= 0).any():  # np.diff, without its wrapper
            raise ValueError("knots must be strictly increasing")
        if not (np.isfinite(knots).all() and np.isfinite(values).all()
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


def _histories(grids) -> list[np.ndarray]:
    """Every history cell of the product of ``grids``, one flat array per
    date, in row-major order."""
    return [h.ravel() for h in np.meshgrid(*grids, indexing="ij")]


def _positions(knots: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """Index of every point of x among the sorted ``knots``, or None when
    some point is not a knot."""
    at = np.minimum(np.searchsorted(knots, x), knots.size - 1)
    return at if (knots[at] == x).all() else None


def _rounding_twins(points: np.ndarray) -> np.ndarray:
    """Mask of the points of a sorted array that lie within
    ``1e-12 * (1 + |x|)`` of the point before them: the same point up to
    float rounding."""
    return np.concatenate([[False], np.diff(points) <= 1e-12 * (1.0 + np.abs(points[1:]))])


def _nearest_index(grid: np.ndarray, x) -> np.ndarray:
    """Index of the nearest node for every entry of x; ties go left."""
    x = np.asarray(x, dtype=float)
    if grid.size == 1:
        return np.zeros(x.shape, dtype=np.int64)
    j = np.clip(np.searchsorted(grid, x), 1, grid.size - 1)
    return np.where(x - grid[j - 1] <= grid[j] - x, j - 1, j)


@dataclass(frozen=True)
class DeltaTable:
    """Delta positions on history cells, nearest-atom lookup.

    ``values`` holds one position per cell of the product of the atom
    grids, shaped like it.  Duals exist only at grid histories, so no
    interpolation: a query snaps each coordinate to the nearest atom.
    """

    atoms: tuple[np.ndarray, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        atoms = tuple(np.asarray(g, dtype=float).ravel() for g in self.atoms)
        for g in atoms:
            if g.size == 0 or (g[1:] - g[:-1] <= 0).any():
                raise ValueError("atom grids must be nonempty and strictly increasing")
            g.flags.writeable = False
        values = np.array(self.values, dtype=float)
        shape = tuple(g.size for g in atoms)
        if values.shape != shape:
            raise ValueError(f"delta values have shape {values.shape}, atom grids {shape}")
        values.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "values", values)

    def at(self, *history) -> np.ndarray:
        """Positions at per-date history coordinates that broadcast together."""
        return self.values[tuple(_nearest_index(g, x) for g, x in zip(self.atoms, history))]

    def to_json(self) -> dict:
        """Every history in row-major order with its position."""
        return {
            "atoms": [[float(x) for x in g] for g in self.atoms],
            "entries": [{"history": [float(x) for x in h], "delta": float(v)}
                        for *h, v in zip(*_histories(self.atoms), self.values.ravel())],
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

    def evaluate(self, s):
        """Assembled payout on one path (a float) or on each row of a (k, n)
        stack of paths (an array)."""
        s = np.asarray(s, dtype=float)
        if s.ndim not in (1, 2) or s.shape[-1] != self.n:
            raise DimensionMismatch(f"hedge covers {self.n} dates, got paths of shape {s.shape}")
        out = self._payout(*s.T)
        return float(out) if s.ndim == 1 else out

    def _payout(self, *s):
        """psi over per-date coordinate arrays that broadcast together; the
        final date's terms are added last."""
        *history, z = s
        last_delta = self.deltas[-1].at(*history)
        return self._head(*history) + self.statics[-1](z) + last_delta * (z - history[-1])

    def _head(self, *history):
        """The terms of psi that depend on dates 1..n-1 alone: cash,
        u_1..u_{n-1} and the deltas of every step but the last."""
        total = self.cash + sum(u(x) for u, x in zip(self.statics[:-1], history))
        for j, dt in enumerate(self.deltas[:-1]):
            total = total + dt.at(*history[: j + 1]) * (history[j + 1] - history[j])
        return total


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
        total += float(np.dot(_nodes(u, mu.points), mu.weights))
    return float(total)


@dataclass(frozen=True)
class VerificationReport:
    sense: str
    max_violation: float
    worst_cell: tuple[float, ...]
    checked_cells: int
    continuum_checked: bool
    wing_ok: bool | None

    @property
    def valid(self) -> bool:
        return self.max_violation <= VERIFY_TOL and self.wing_ok is not False

    def describe(self) -> str:
        verdict = "valid" if self.valid else "INVALID"
        wings = {True: "wings ok", False: "WINGS FAIL", None: "wings unchecked"}[self.wing_ok]
        return (f"{self.sense}hedge {verdict}: max violation {self.max_violation:.3e} "
                f"over {self.checked_cells} cells at {self.worst_cell}, {wings}")


def _final_axis(payoff: Payoff, histories, last: np.ndarray):
    """``last`` plus every kink of ``payoff`` over ``histories`` (one flat
    array per earlier date), and the payoff's last-axis data; a payoff with
    none declared (tabulated, custom) keeps ``last`` and gets None."""
    data = payoff_mod.last_axis(payoff, *histories)
    if data is None:
        return last, None
    return np.unique(np.concatenate([last, *(np.ravel(k) for k in data.kinks)])), data


def _nodes(u: PiecewiseLinear, x: np.ndarray) -> np.ndarray:
    """u at the points x: its values, read by index, when every point is
    one of its knots (a hedge's own atoms), else ``u(x)``.  The bits are
    the same, since ``np.interp`` returns a knot's value as it is."""
    at = _positions(u.knots, x)
    return u(x) if at is None else u.values[at]


def _on_grid(dt: DeltaTable, grids) -> np.ndarray:
    """dt's positions on the product of the first ``len(dt.atoms)`` grids:
    its values when those grids are its atoms, else ``DeltaTable.at``."""
    grids = grids[: len(dt.atoms)]
    if all(g.size == a.size and (g == a).all() for g, a in zip(grids, dt.atoms)):
        return dt.values
    return dt.at(*np.ix_(*grids))


def _terms(hedge: SemiStaticHedge, grids, index, histories):
    """psi's history terms at the histories whose node indices into
    ``grids`` are ``index`` and whose coordinates are ``histories`` (one
    array per date 1..n-1): the head (cash, u_1..u_{n-1} and every delta
    leg but the last, in the order of ``SemiStaticHedge._head``) and the
    last delta.  Statics and delta tables are read on the grids' nodes by
    :func:`_nodes` and :func:`_on_grid`, so the bits are those of
    ``hedge.evaluate``."""
    head = hedge.cash + sum(_nodes(u, g)[i] for u, g, i in zip(hedge.statics[:-1], grids, index))
    for j, dt in enumerate(hedge.deltas[:-1]):
        head = head + _on_grid(dt, grids)[tuple(index[: j + 1])] * (histories[j + 1] - histories[j])
    return head, _on_grid(hedge.deltas[-1], grids)[tuple(index)]


class _Frame:
    """The cells of a product grid as one payoff sees them.

    ``index`` holds every history of dates 1..n-1 as node indices (the
    :func:`_histories` of the index ranges), ``histories`` their
    coordinates, one flat array per date in row-major order; ``axis`` and
    ``data`` are the :func:`_final_axis` of the last grid and the payoff's
    last-axis data; ``points``, the axis a hedge is checked on, adds zero
    to it for payoffs with such data.  :func:`_cells` keeps the payoff over
    histories x points in ``table`` when that is one chunk, so every walk
    of a small frame reads one table, and :meth:`terms` keeps the history
    terms of the last hedge it read."""

    def __init__(self, grids, payoff: Payoff) -> None:
        self.grids = tuple(np.asarray(g, dtype=float).ravel() for g in grids)
        self.payoff = payoff
        self.index = _histories([np.arange(g.size) for g in self.grids[:-1]])
        self.histories = [g[i] for g, i in zip(self.grids, self.index)]
        self.size = self.index[0].size
        self.axis, self.data = _final_axis(payoff, self.histories, self.grids[-1])
        self.points = self.axis if self.data is None else np.union1d(self.axis, [0.0])
        self.table = None
        self._read = None  # the parts of the last hedge :meth:`terms` read, and its terms

    def terms(self, hedge: SemiStaticHedge):
        """The hedge's head terms and last delta at every history (see
        :func:`_terms`).  They do not depend on u_n, so a hedge and its
        widening, which shares every other part, read them once."""
        parts = (hedge.cash, *hedge.statics[:-1], *hedge.deltas)
        if (self._read is None or len(parts) != len(self._read[0])
                or any(a is not b for a, b in zip(parts, self._read[0]))):
            self._read = parts, _terms(hedge, self.grids, self.index, self.histories)
        return self._read[1]


def _cells(frame: _Frame, hedge: SemiStaticHedge, z: np.ndarray):
    """Walk the histories of ``frame`` in chunks of at most ``CHUNK_CELLS``
    cells of the last-axis points ``z`` they all share.  Per chunk, yield
    its histories (one column per date), the hedge's head terms and last
    delta there, read once over every history by :meth:`_Frame.terms`, and the
    payoff at its cells, from ``frame.table`` when ``z`` is the frame's
    points and their table is one chunk."""
    head, last = frame.terms(hedge)
    step = max(1, CHUNK_CELLS // max(1, z.size))
    keep = z is frame.points and step >= frame.size
    for start in range(0, frame.size, step):
        rows = slice(start, start + step)
        h = [x[rows, None] for x in frame.histories]
        if keep and frame.table is not None:
            phi = frame.table
        else:
            phi = payoff_mod.evaluate_last_axis(frame.payoff, h, z)
            if keep:
                frame.table = phi
        yield h, head[rows, None], last[rows, None], phi


def verify(hedge: SemiStaticHedge, payoff: Payoff, grids) -> VerificationReport:
    """Max violation of psi <= payoff (sub) or >= (super) over the grid product.

    For payoffs piecewise linear in the last coordinate the check extends to
    the whole last axis: every history is checked on one axis, the
    :func:`_final_axis` of ``grids`` plus u_n's knots and zero, which pins
    every segment, and a comparison with the payoff's exact wing slopes
    covers both tails.  ``checked_cells`` is histories times axis points.
    The worst cell is the first maximum in history order, then last-axis
    order; a NaN gap outranks any number, so the report reads NaN and is
    not valid, and an exact tie reads 0.0 in either sense.  ``grids`` may
    be a :class:`_Frame`: one of ``payoff`` is checked on as it is, its
    histories, axis and payoff table read, not built; plain grids, or a
    frame of another payoff, get a new frame of those grids, walked by the
    same kernel.
    """
    given = grids if isinstance(grids, _Frame) else None
    grids = list(grids) if given is None else given.grids
    if len(grids) != hedge.n:
        raise DimensionMismatch(f"hedge covers {hedge.n} dates, got {len(grids)} grids")
    frame = given if given is not None and given.payoff is payoff else _Frame(grids, payoff)
    sign = 1.0 if hedge.sense == "sub" else -1.0
    u = hedge.statics[-1]
    z, data = frame.points, frame.data
    wing_ok = None
    if data is not None:
        if _positions(z, u.knots) is None:  # knots off the frame's axis
            z = np.union1d(z, u.knots)
        slope_tol = 1e-9 * (1.0 + abs(data.left_slope) + abs(data.right_slope))
        wing_ok = True
    u_z = u(z)

    worst = -np.inf
    worst_cell: tuple[float, ...] = ()
    for h, base, slope, phi in _cells(frame, hedge, z):
        # psi - phi in the order of SemiStaticHedge._payout, so the bits match
        gap = sign * (base + u_z + slope * (z - h[-1]) - phi)
        top = gap.max(axis=1)  # a NaN gap is its row's top
        r = int(np.argmax(top))  # the first NaN, else the first maximum
        if top[r] > worst or np.isnan(top[r]) > np.isnan(worst):
            worst = float(top[r])
            worst_cell = (*[float(x[r, 0]) for x in h], float(z[np.argmax(gap[r])]))
        if data is not None:
            wings = [u.right_slope + slope - data.right_slope, data.left_slope - (u.left_slope + slope)]
            wing_ok = wing_ok and not np.any(sign * np.hstack(wings) > slope_tol)

    return VerificationReport(
        sense=hedge.sense,
        max_violation=float(worst) + 0.0,  # a superhedge's exact tie, -0.0, reads 0.0
        worst_cell=worst_cell,
        checked_cells=frame.size * z.size,
        continuum_checked=data is not None,
        wing_ok=wing_ok,
    )


def _widen_last_static(hedge: SemiStaticHedge, frame: _Frame) -> SemiStaticHedge:
    """Extend u_n with knots at the final axis of ``frame``, a frame of the
    hedge's own atoms (the last delta's atoms, then u_n's knots), so the
    assembled payout stays on the right side of the payoff there: each new
    knot takes the tightest value over every history, and the wings the
    tightest admissible slopes given the payoff's exact ones.  Values at
    existing knots (the final marginal's atoms) are kept, so the hedge
    price is unchanged.  A candidate within rounding
    (:func:`_rounding_twins`) of a knot or of a smaller candidate is not
    added.  The payoff is read from the frame's table at the new knots'
    columns.  Payoffs with no declared last-axis data are left alone."""
    data = frame.data
    if data is None:
        return hedge
    u_n = hedge.statics[-1]
    z_all = frame.axis
    fresh = np.ones(z_all.size, dtype=bool)
    fresh[np.searchsorted(z_all, u_n.knots)] = False
    # runs of rounding twins are one point: a knot when the run holds one,
    # else the run's first candidate
    twin = _rounding_twins(z_all)
    run = np.cumsum(~twin)
    has_knot = np.bincount(run, weights=~fresh) > 0
    keep = ~fresh | ~(twin | has_knot[run])
    z_all, fresh = z_all[keep], fresh[keep]
    z_new = z_all[fresh]
    cols = np.searchsorted(frame.points, z_new)
    # A subhedge's new values and right wing take the minimum over histories
    # and its left wing, where z - knot < 0, the maximum; a superhedge the reverse.
    tightest, tightest_left = (np.minimum, np.maximum) if hedge.sense == "sub" else (np.maximum, np.minimum)
    fill, left, right = [], [], []
    for h, head, d, phi in _cells(frame, hedge, frame.points):
        # psi(h, z) = head + u_n(z) + d * (z - h_last).  head + u_n(h_last) - u_n(h_last) is not a
        # no-op: it rounds head as psi(h, h_last) - u_n(h_last) does, so new knots keep their bits
        u_h = u_n(h[-1])
        fill.append(tightest.reduce(phi[:, cols] - (head + u_h - u_h) - d * (z_new - h[-1]), axis=0))
        left.append(tightest_left.reduce(data.left_slope - d, axis=None))
        right.append(tightest.reduce(data.right_slope - d, axis=None))
    values = np.empty(z_all.size)
    values[~fresh] = u_n.values
    values[fresh] = tightest.reduce(fill, axis=0)
    u_new = PiecewiseLinear(z_all, values, float(tightest_left.reduce(left)), float(tightest.reduce(right)))
    return SemiStaticHedge(hedge.cash, (*hedge.statics[:-1], u_new), hedge.deltas, hedge.sense)


def slackness(hedge: SemiStaticHedge, coupling, payoff: Payoff) -> float:
    """Max of |payoff - psi| over the coupling's support (mass > 1e-12).
    Zero at an optimal primal/dual pair; positive otherwise.  psi is read
    at the support's node indices into the coupling's grids (see
    :func:`_terms`), with the bits of ``hedge.evaluate``."""
    if coupling.n != hedge.n:
        raise DimensionMismatch(f"hedge covers {hedge.n} dates, the coupling {coupling.n}")
    *index, last = coupling.indices[coupling.masses > SUPPORT_TOL].T
    grids = coupling.grids
    h = [g[i] for g, i in zip(grids, index)]
    z = grids[-1][last]
    head, d = _terms(hedge, grids, index, h)
    psi = head + _nodes(hedge.statics[-1], grids[-1])[last] + d * (z - h[-1])
    phi = payoff_mod.evaluate_last_axis(payoff, h, z)
    return float(np.abs(phi - psi).max(initial=0.0))


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


def check_arbitrage(quoted: float, lower_result, upper_result) -> Verdict:
    """Compare a quote against the model-free interval [lower, upper],
    widened on each side by ``1e-6 * (1 + |quoted|)``; a quote that is not
    finite raises ``ValueError``, as no comparison can place it."""
    if not np.isfinite(quoted):
        raise ValueError(f"quoted price must be finite, got {quoted!r}")
    lower = float(lower_result.value)
    upper = float(upper_result.value)
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


def hedge_to_json(hedge: SemiStaticHedge) -> dict:
    return {
        "sense": hedge.sense,
        "cash": float(hedge.cash),
        "statics": [u.to_json() for u in hedge.statics],
        "portfolios": [to_call_portfolio(u, i + 1).to_json() for i, u in enumerate(hedge.statics)],
        "deltas": [dt.to_json() for dt in hedge.deltas],
    }
