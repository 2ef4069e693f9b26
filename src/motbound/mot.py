"""Model-independent price bounds via martingale optimal transport.

Given marginal laws mu_1..mu_n in convex order and a path payoff, the lower
(upper) bound is the minimum (maximum) of E_Q[payoff] over all couplings Q
matching the marginals and making the coordinate process a martingale.  On
discrete marginals this is a finite LP: one mass variable per product-grid
cell, a mass row per (date, atom), and a conditional-mean row per history
cell.  The LP dual is exactly a semi-static hedge: marginal-row duals are the
static payouts u_i, martingale-row duals are the delta positions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import lp as lp_mod, measures as measures_mod, payoff as payoff_mod
from .errors import (DegenerateDual, DimensionMismatch, Infeasible, LpError, MotboundError,
                     NotAdmissible, ScaleExceeded)
from .hedge import (CHUNK_CELLS, DeltaTable, PiecewiseLinear, SemiStaticHedge, VerificationReport, _cells,
                    _Frame, _histories, _widen_last_static, price as hedge_price, slackness, verify)
from .lp import LinearProgram, LpSolution, Session, solve
from .measures import BarrierDecomposition, MarginalSystem, detect_barriers, halve
from .payoff import Payoff

GAP_TOL = 1e-7
MASS_FLOOR = 1e-15
# Ceiling on the cells of a transport LP, checked when its layout is built,
# before anything cell-sized.  Peak RSS over both senses on one Solver grew
# by about 100 bytes per cell on 3 dates (an Asian call, m = 51 to 101) and
# 40 on 2 (the straddle, smooth_pair(1601) to (3201)), so this is about 2 GB.
MAX_CELLS = 20_000_000
# A master's seed is the coarse support widened by SEED_WIDTH atoms each way
# on every date (see Solver).  Single runs, one BLAS thread, s, on the LPs
# of lp.ROUND_ROWS:
#
#   width   smooth_pair(401)    3 dates, m=51     4 dates, m=17
#           lower    upper      lower   upper     lower
#     0      6.71    56.35      over 120 s         19.72
#     1      0.74     0.42       3.26    1.85       5.38
#     2      0.93     0.94       5.56    4.88      13.69
#
# with each master's first run from HiGHS's own basis.  From the coarse
# optimal basis, width 0 still took 2.40 and 32.72 s on smooth_pair(401)
# (against 0.18 and 0.22 at width 1), and widening the basic cells instead
# of the support was 49% slower over both senses of smooth_pair(401), 3
# dates at m=21 and 51 and 4 dates at m=13.
SEED_WIDTH = 1


def fmt12(x: float) -> str:
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class MotProblem:
    system: MarginalSystem
    payoff: Payoff
    sense: str

    def __post_init__(self) -> None:
        if self.sense not in ("lower", "upper"):
            raise ValueError(f"sense must be 'lower' or 'upper', got {self.sense!r}")
        if self.payoff.n != self.system.n_dates:
            raise DimensionMismatch(
                f"payoff covers {self.payoff.n} dates, system has {self.system.n_dates}")
        if not self.system.admissible:
            raise NotAdmissible("marginals are not in convex order; no martingale coupling exists")


@dataclass(frozen=True)
class Coupling:
    """Sparse coupling over the product grid: one (index tuple, mass) per cell."""

    grids: tuple[np.ndarray, ...]
    indices: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        grids = tuple(np.asarray(g, dtype=float).ravel() for g in self.grids)
        indices = np.asarray(self.indices, dtype=np.int64).reshape(-1, len(grids))
        masses = np.asarray(self.masses, dtype=float).ravel()
        if masses.size != indices.shape[0]:
            raise ValueError("one mass per index row required")
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "masses", masses)

    @property
    def n(self) -> int:
        return len(self.grids)

    def paths(self) -> np.ndarray:
        return np.column_stack([self.grids[i][self.indices[:, i]] for i in range(self.n)])

    def marginal(self, i: int) -> np.ndarray:
        return np.bincount(self.indices[:, i], weights=self.masses, minlength=self.grids[i].size)

    def expectation(self, payoff: Payoff) -> float:
        paths = self.paths().T
        return float(np.dot(payoff_mod.evaluate_last_axis(payoff, paths[:-1], paths[-1]), self.masses))

    def max_marginal_residual(self, system: MarginalSystem) -> float:
        worst = 0.0
        for i, mu in enumerate(system.marginals):
            if not np.array_equal(self.grids[i], mu.points):
                raise DimensionMismatch(f"coupling grid {i} does not match the marginal atoms")
            worst = max(worst, float(np.abs(self.marginal(i) - mu.weights).max()))
        return worst

    def max_martingale_residual(self) -> float:
        worst = 0.0
        for j in range(self.n - 1):
            sizes = [self.grids[t].size for t in range(j + 1)]
            hist = np.ravel_multi_index(tuple(self.indices[:, : j + 1].T), sizes)
            move = self.masses * (self.grids[j + 1][self.indices[:, j + 1]]
                                  - self.grids[j][self.indices[:, j]])
            res = np.bincount(hist, weights=move, minlength=int(np.prod(sizes)))
            if res.size:
                worst = max(worst, float(np.abs(res).max()))
        return worst

    def to_csv(self) -> str:
        header = ",".join(f"s_{i + 1}" for i in range(self.n)) + ",mass"
        lines = [header]
        for path, mass in zip(self.paths(), self.masses):
            lines.append(",".join(fmt12(x) for x in path) + "," + fmt12(mass))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Diagnostics:
    duality_gap: float
    max_marginal_residual: float
    max_martingale_residual: float
    max_slackness_violation: float
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "duality_gap": float(self.duality_gap),
            "max_marginal_residual": float(self.max_marginal_residual),
            "max_martingale_residual": float(self.max_martingale_residual),
            "max_slackness_violation": float(self.max_slackness_violation),
        }
        out.update({k: v for k, v in self.extras.items()})
        return out


@dataclass(frozen=True)
class MotResult:
    value: float
    coupling: Coupling
    hedge: SemiStaticHedge
    diagnostics: Diagnostics
    report: VerificationReport


@dataclass(frozen=True)
class _Layout:
    """LP row numbers.  ``marginal_row[i]`` gives each atom of date i its
    row, -1 at the dropped (heaviest) atom of dates >= 2; ``mart_row[j]``
    is shaped like the history grid of dates 1..j+1 and numbers its rows
    consecutively in row-major order."""

    grids: tuple[np.ndarray, ...]
    shape: tuple[int, ...]
    n_cells: int
    n_rows: int
    marginal_row: tuple[np.ndarray, ...]
    mart_row: tuple[np.ndarray, ...]


def _layout(system: MarginalSystem) -> _Layout:
    cells = math.prod(len(mu) for mu in system.marginals)
    if cells > MAX_CELLS:
        raise ScaleExceeded(f"{cells} cells, over the ceiling of {MAX_CELLS}")
    grids = tuple(mu.points for mu in system.marginals)
    shape = tuple(g.size for g in grids)
    row = 0
    marginal_row = []
    for i, mu in enumerate(system.marginals):
        keep = np.arange(shape[i]) != (np.argmax(mu.weights) if i else -1)
        marginal_row.append(np.where(keep, row + np.cumsum(keep) - 1, -1))
        row += int(keep.sum())
    mart_row = []
    for j in range(len(grids) - 1):
        hist_shape = shape[: j + 1]
        mart_row.append(row + np.arange(int(np.prod(hist_shape))).reshape(hist_shape))
        row += mart_row[-1].size
    return _Layout(grids=grids, shape=shape, n_cells=int(np.prod(shape)), n_rows=row,
                   marginal_row=tuple(marginal_row), mart_row=tuple(mart_row))


class TransportColumns:
    """The transport LP's constraints read off the layout, with no matrix
    assembled: the column of a cell holds 1 in the mass row of its atom at
    each date (none at a dropped atom) and s_{j+1} - s_j in the
    conditional-mean row of its history at each step j (none where that is
    0), in this order of rows.  The payoff enters only through the cost, so
    every problem on the system shares them.  They are the LP's
    :class:`~motbound.lp.ColumnSource`: ``n_cols``, ``rhs``, ``row_scale``
    and ``scaled_rhs``, the columns a model adds (:meth:`columns`), each
    pricing pass (:meth:`reduced`) and the residual check's A x
    (:meth:`times`)."""

    def __init__(self, layout: _Layout, system: MarginalSystem) -> None:
        self.layout = layout
        self.n_cols = layout.n_cells
        rhs = np.zeros(layout.n_rows)
        top = np.ones(layout.n_rows)  # each row's largest |coefficient|: 1 in a mass row
        for rows, mu in zip(layout.marginal_row, system.marginals):
            rhs[rows[rows >= 0]] = mu.weights[rows >= 0]
        for rows, here, there in zip(layout.mart_row, layout.grids, layout.grids[1:]):
            # at the lowest or highest atom of date j+1, as rounding keeps
            # the order of the differences
            top[rows] = np.maximum(np.abs(there[0] - here), np.abs(there[-1] - here))
        row_scale = lp_mod.row_scale_of(top)
        for name, arr in (("rhs", rhs), ("row_scale", row_scale), ("scaled_rhs", rhs * row_scale)):
            arr.flags.writeable = False
            setattr(self, name, arr)

    def _move(self, j: int, lo: int, hi: int) -> np.ndarray:
        """s_{j+1} - s_j over the atoms of dates j and j+1 (of the first
        date, ``lo:hi`` only), one axis each."""
        here = self.layout.grids[j][lo:hi] if j == 0 else self.layout.grids[j]
        return self.layout.grids[j + 1][None, :] - here[:, None]

    def _blocks(self, flat: np.ndarray):
        """``flat``, one value per cell, as views shaped like the cell grid
        on the first date's atoms ``lo:hi``, of about ``CHUNK_CELLS`` cells
        each: ``(lo, hi, view)``."""
        shape = self.layout.shape
        rest = self.n_cols // shape[0]
        step = max(1, CHUNK_CELLS // rest)
        for lo in range(0, shape[0], step):
            hi = min(lo + step, shape[0])
            yield lo, hi, flat[lo * rest:hi * rest].reshape(hi - lo, *shape[1:])

    def columns(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The columns ``cols`` of A, in that order: starts (one per column
        and the end), row indices and values."""
        layout = self.layout
        at = np.unravel_index(cols, layout.shape)
        index = [rows[k] for rows, k in zip(layout.marginal_row, at)]
        value = [np.ones(cols.size)] * len(at)
        for j, rows in enumerate(layout.mart_row):
            index.append(rows[at[:j + 1]])
            value.append(layout.grids[j + 1][at[j + 1]] - layout.grids[j][at[j]])
        index, value = np.stack(index, axis=1), np.stack(value, axis=1)
        keep = (index >= 0) & (value != 0.0)
        return np.concatenate(([0], np.cumsum(keep.sum(axis=1)))), index[keep], value[keep]

    # every column's values, built on each read: no solve reads them, only
    # the benchmark tracer's lp.nnz (perfbench/tracer.py, lp.vals.size)
    vals = property(lambda self: self.columns(np.arange(self.n_cols))[2])

    def reduced(self, cost: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The reduced costs ``cost - A^T y`` of every column: u_1(s_1) + ...
        + u_n(s_n) + sum_j Delta_j(s_1..s_j) (s_{j+1} - s_j), each column's
        terms summed from 0 in the order of its rows, as ``np.bincount``
        sums (row, col, value) triples in column-major order, so the bits
        are the same.  A missing term adds 0, or 0 times a delta, which
        leaves a sum begun at +0 as it is."""
        layout = self.layout
        n = len(layout.shape)
        y = np.append(y, 0.0)  # a dropped atom's row, -1, reads 0
        out = np.empty(self.n_cols)
        for lo, hi, block in self._blocks(out):
            np.add(y[layout.marginal_row[0][lo:hi]][(...,) + (None,) * (n - 1)], 0.0, out=block)
            for i in range(1, n):
                block += y[layout.marginal_row[i]][(...,) + (None,) * (n - i - 1)]
            for j, rows in enumerate(layout.mart_row):
                pad = (...,) + (None,) * (n - j - 2)
                block += y[rows[lo:hi]][pad + (None,)] * self._move(j, lo, hi)[pad]
        return np.subtract(cost, out, out=out)

    def times(self, x: np.ndarray) -> np.ndarray:
        """A x: each date's masses and each history's mean move, summed
        over the cells in blocks of the first date's atoms."""
        layout = self.layout
        n = len(layout.shape)
        ax = np.zeros(layout.n_rows + 1)  # a dropped atom's row, -1, writes the last
        mass = [np.zeros(m) for m in layout.shape]
        for lo, hi, block in self._blocks(x):
            partial = block  # the block summed over the dates after i
            for i in range(n - 1, 0, -1):
                mass[i] += partial.sum(axis=tuple(range(i)))
                ax[layout.mart_row[i - 1][lo:hi]] = (partial * self._move(i - 1, lo, hi)).sum(axis=-1)
                partial = partial.sum(axis=-1)
            mass[0][lo:hi] = partial
        for rows, m in zip(layout.marginal_row, mass):
            ax[rows] = m
        return ax[:-1]


class Solver:
    """The parts of one marginal system's transport LP, built once: its
    layout (whose ``grids`` are the atoms, on which every bound widens and
    checks its hedge) and, at first use, its constraints, a
    :class:`TransportColumns` that reads each column off the layout and
    holds no matrix, and a HiGHS :class:`~motbound.lp.Session` on them.

    Every problem on the system shares the constraints, so a problem only
    tabulates its payoff as the cost, and each solve after the first
    restarts from the last optimal basis, bar a change of sense above the
    primal band (see :class:`~motbound.lp.Session`).  Which optimal dual a
    degenerate LP returns then depends on the solve order, which
    :meth:`bounds` alone fixes: every lower bound before any upper bound.

    Where a cold solve runs column generation (see
    :func:`~motbound.lp._cold_method`) the session's master starts from a
    seed: the same LP on the halved marginals
    (:func:`~motbound.measures.halve`), whose atoms are atoms of this
    system, so its cost is this LP's cost read at its cells and no payoff
    is evaluated.  That LP is solved by the coarse solver's
    :meth:`~motbound.lp.Session.support`, which seeds its own master the
    same way, down to where a cold solve runs the primal simplex.  Halving
    each date on its own atoms can lose convex order, so the coarse support
    is only a hint: its cells, widened by ``SEED_WIDTH`` atoms each way on
    every date, are the seed, with the cells basic in the coarse optimum.
    That optimal basis, mapped to this LP (see :class:`_Seed`), is where
    the master's first run starts, not the artificials; the coarse solves'
    pivots are not in ``lp_iterations``.

    A bound reads its LP's dual on one :class:`~motbound.hedge._Frame` of
    the atoms, built on the solver's :attr:`history_index`.  The solver
    keeps the frame of the last payoff it served (see :meth:`frame`), so
    the two senses of a payoff, and a surface after its bound, share one.
    A kept frame holds the histories, the final axis, the history terms
    of the last hedge it read and at most one payoff table, of at most one
    ``hedge.CHUNK_CELLS`` block; a frame larger than that keeps none."""

    def __init__(self, system: MarginalSystem) -> None:
        self.system = system
        self.layout = _layout(system)
        self._seed = _Seed(system, self.layout)
        self._frame: _Frame | None = None  # the frame of the last payoff served

    @functools.cached_property
    def history_index(self) -> list[np.ndarray]:
        """Every history of the atoms of dates 1..n-1 as node indices, one
        flat array per date in row-major order, built once."""
        return _histories([np.arange(g.size) for g in self.layout.grids[:-1]])

    def frame(self, payoff: Payoff) -> _Frame:
        """The atoms' cells as ``payoff`` sees them: the kept frame while
        the same payoff object asks, else a new one, which replaces it."""
        if self._frame is None or self._frame.payoff is not payoff:
            self._frame = _Frame(self.layout.grids, payoff, self.history_index)
        return self._frame

    @functools.cached_property
    def constraints(self) -> TransportColumns:
        return TransportColumns(self.layout, self.system)

    @functools.cached_property
    def session(self) -> Session:
        return self.new_session()

    def new_session(self) -> Session:
        """A session on the solver's constraints and seed, built as
        :attr:`session` is but apart from it, so that what it solves leaves
        the bounds solved on :attr:`session` alone."""
        return Session(self.constraints, seed=self._seed, group=self.layout.shape[-1])

    def lp(self, problem: MotProblem) -> LinearProgram:
        """The transport LP of ``problem``: cell masses, marginal rows (one
        redundant row per date beyond the first dropped at the heaviest
        atom), and one conditional-mean row per history cell."""
        _solver_for(problem.system, self)
        return LinearProgram("min" if problem.sense == "lower" else "max",
                             payoff_mod.tabulate(problem.payoff, self.layout.grids), self.constraints)

    def bounds(self, payoffs, senses=("lower", "upper"),
               solve=None) -> list[dict[str, MotResult | MotboundError]]:
        """The bounds of each payoff on the system in ``senses``, each solved
        by ``solve(problem, solver=self)`` (:func:`bound` by default, or
        :func:`decompose_and_solve`): every lower bound before any upper
        bound, and each sense's payoffs in the given order.  The one owner
        of the solve order.  Per payoff, a dict from each sense, lower
        first, to its :class:`MotResult` or the ``MotboundError`` it raised;
        a payoff whose lower bound raised gets no upper-bound solve.
        ``senses`` is a collection of 'lower' and 'upper': any other sense,
        or a bare string, raises ValueError before any solve."""
        if isinstance(senses, str) or not (senses := set(senses)) <= {"lower", "upper"}:
            raise ValueError(f"senses must be a collection of 'lower' and 'upper', got {senses!r}")
        solve = solve or bound
        outcomes = [{} for _ in payoffs]
        for sense in sorted(senses, key=("lower", "upper").index):
            for payoff, outcome in zip(payoffs, outcomes):
                if isinstance(outcome.get("lower"), MotboundError):
                    continue
                try:
                    outcome[sense] = solve(MotProblem(self.system, payoff, sense), solver=self)
                except MotboundError as exc:
                    outcome[sense] = exc
        return outcomes


class _Seed:
    """The seed of a master on the transport LP of ``system``, whose rows
    and cells ``layout`` numbers (see :class:`Solver`): a function of the
    LP, kept apart from the solver so that the solver's session holds no
    reference back to it."""

    def __init__(self, system: MarginalSystem, layout: _Layout) -> None:
        self.system = system
        self.layout = layout

    @functools.cached_property
    def coarse(self) -> tuple[Solver, np.ndarray, np.ndarray] | None:
        """The solver of the halved system, this grid's cell at each of its
        cells and this LP's row for each of its rows (see
        :func:`_row_image`); None when halving removes no atom."""
        coarse = MarginalSystem([halve(mu) for mu in self.system.marginals])
        if all(len(a) == len(b) for a, b in zip(coarse.marginals, self.system.marginals)):
            return None
        solver = Solver(coarse)
        atoms = tuple(np.searchsorted(fine.points, mu.points)
                      for fine, mu in zip(self.system.marginals, coarse.marginals))
        cells = np.ravel_multi_index(np.meshgrid(*atoms, indexing="ij"), self.layout.shape).ravel()
        return solver, cells, _row_image(solver.layout, self.layout, atoms)

    def __call__(self, lp: LinearProgram) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        """The seed's cells, and the basis a master on them starts from (see
        :meth:`~motbound.lp._Master.basis`): the coarse LP's optimal basis
        mapped to this LP, a coarse cell to its cell here and a coarse row
        to its row here, with the artificial column of every other row here
        basic.  The cells are those of the coarse optimum's support, widened,
        and its basic cells, which may carry no mass.  No cells and no basis
        when there is no coarse system or its LP cannot be solved."""
        if self.coarse is None:
            return np.empty(0, dtype=np.int64), None
        coarse, cells, image = self.coarse
        try:
            support, (basic, rows) = coarse.session.support(LinearProgram(lp.sense, lp.cost[cells],
                                                                          coarse.constraints))
        except LpError:
            return np.empty(0, dtype=np.int64), None
        shape = self.layout.shape
        n = len(shape)
        index = np.column_stack(np.unravel_index(cells[support], shape))
        steps = np.array(list(itertools.product(range(-SEED_WIDTH, SEED_WIDTH + 1), repeat=n)))
        near = np.clip((index[:, None, :] + steps).reshape(-1, n), 0, np.array(shape) - 1)
        artificial = np.ones(lp.n_rows, dtype=bool)
        artificial[image] = False
        artificial[image[rows]] = True
        return (np.union1d(np.ravel_multi_index(near.T, shape), cells[basic]),
                (cells[basic], np.flatnonzero(artificial)))


def _row_image(coarse: _Layout, fine: _Layout, atoms: tuple[np.ndarray, ...]) -> np.ndarray:
    """The row of the fine LP for each row of the coarse one, whose atoms of
    each date sit at ``atoms`` among the fine atoms: a history's row goes to
    the same history's, and an atom's to the same atom's, bar the atom that
    the fine layout drops, whose row goes to that of the atom the coarse
    layout drops.  A date's mass rows sum to its total mass, so this swap
    keeps a basis nonsingular."""
    image = np.empty(coarse.n_rows, dtype=np.int64)
    for rows, fine_rows, at in zip(coarse.marginal_row, fine.marginal_row, atoms):
        target = fine_rows[at]
        target[target < 0] = target[rows < 0]
        image[rows[rows >= 0]] = target[rows >= 0]
    for rows, fine_rows in zip(coarse.mart_row, fine.mart_row):
        image[rows] = fine_rows[np.ix_(*atoms[:rows.ndim])]
    return image


def _solver_for(system: MarginalSystem, solver: Solver | None) -> Solver:
    """``solver`` (ValueError unless it is built on ``system``), else a new one."""
    if solver is not None and solver.system is not system:
        raise ValueError("the marginal system is not the solver's")
    return solver or Solver(system)


def verification_grids(problem: MotProblem, solver: Solver | None = None) -> list[np.ndarray]:
    """Grids of :func:`surface_csv`: history axes stay on the marginal atoms
    (deltas exist only there); the final axis is the last date's atoms plus
    every history's kinks of the payoff (``hedge._final_axis``, the axis of
    the frame on which a bound widens and checks its hedge).  Payoffs with
    no declared last-axis data (tabulated, custom) keep the atoms.  The
    atoms come from ``solver``, built on ``problem.system`` for this call
    when not given."""
    solver = _solver_for(problem.system, solver)
    return [*solver.layout.grids[:-1], solver.frame(problem.payoff).axis]


def extract_hedge(lp_solution: LpSolution, problem: MotProblem,
                  solver: Solver | None = None) -> SemiStaticHedge:
    """Read the dual back as a hedge.

    Marginal-row duals become the static payouts (dropped rows read 0),
    martingale-row duals the deltas, then two gauges are fixed: each delta
    table is detrended by its mean with the compensating linear terms moved
    into the adjacent statics, and each u_i for i >= 2 is pinned to zero at
    the atom of its dropped row (its heaviest) with the shift absorbed into
    cash.  Last, u_n gains knots at the payoff's kinks, tightest over the
    histories of the atoms, read on the solver's frame of the payoff (see
    :meth:`Solver.frame`; a bound's check reads the same one).
    The row layout comes from ``solver``, built on ``problem.system`` for
    this call when not given."""
    solver = _solver_for(problem.system, solver)
    layout = solver.layout
    system = problem.system
    n = system.n_dates
    y = np.asarray(lp_solution.dual, dtype=float)
    if y.size != layout.n_rows:
        raise DimensionMismatch("dual vector does not match the assembled row count")

    u_vals = [np.where(r >= 0, y[r], 0.0) for r in layout.marginal_row]
    tables = [y[r] for r in layout.mart_row]

    cash = 0.0
    for j in range(n - 1):
        beta = -float(tables[j].mean())
        tables[j] = tables[j] + beta + 0.0  # + 0.0: no -0.0 delta
        u_vals[j] = u_vals[j] + beta * layout.grids[j]
        u_vals[j + 1] = u_vals[j + 1] - beta * layout.grids[j + 1]
    for i in range(1, n):
        heavy = int(np.flatnonzero(layout.marginal_row[i] < 0)[0])  # the atom of the dropped row
        c = float(u_vals[i][heavy])
        u_vals[i] = u_vals[i] - c
        cash += c

    statics = tuple(PiecewiseLinear.from_samples(layout.grids[i], u_vals[i]) for i in range(n))
    deltas = tuple(DeltaTable(tuple(layout.grids[: j + 1]), tables[j]) for j in range(n - 1))
    sense = "sub" if problem.sense == "lower" else "super"
    hedge = SemiStaticHedge(cash, statics, deltas, sense)
    return _widen_last_static(hedge, solver.frame(problem.payoff))


def _coupling_from_primal(primal: np.ndarray, layout: _Layout) -> Coupling:
    keep = np.flatnonzero(primal > MASS_FLOOR)
    indices = np.column_stack(np.unravel_index(keep, layout.shape))
    return Coupling(grids=layout.grids, indices=indices, masses=primal[keep])


def _delta_increments(hedge: SemiStaticHedge, system: MarginalSystem,
                      dec: BarrierDecomposition) -> list[float]:
    """Mass-weighted mean delta per barrier block of the first pair, reported
    as increments across consecutive blocks.  The continuum dual blows up
    across barriers, so this trend is informative but never asserted."""
    mu1 = system.marginals[0]
    means = []
    for block in dec.blocks:
        ks = np.searchsorted(mu1.points, block.sub1.points)
        vals = hedge.deltas[0].at(mu1.points[ks])
        w = mu1.weights[ks]
        means.append(float(np.dot(vals, w) / w.sum()))
    return [means[k + 1] - means[k] for k in range(len(means) - 1)]


def _diagnostics(problem: MotProblem, value: float, coupling: Coupling,
                 hedge: SemiStaticHedge, extras: dict) -> Diagnostics:
    """Solve record; raises DegenerateDual when the hedge price misses the
    value by more than ``GAP_TOL * (1 + |value|)``."""
    hedge_value = hedge_price(hedge, problem.system)
    gap = abs(value - hedge_value)
    if not gap <= GAP_TOL * (1.0 + abs(value)):
        raise DegenerateDual(f"duality gap {gap:.3e} exceeds tolerance {GAP_TOL:.1e}: "
                             f"value {fmt12(value)}, hedge price {fmt12(hedge_value)}")
    return Diagnostics(
        duality_gap=float(gap),
        max_marginal_residual=coupling.max_marginal_residual(problem.system),
        max_martingale_residual=coupling.max_martingale_residual(),
        max_slackness_violation=slackness(hedge, coupling, problem.payoff),
        extras=extras,
    )


def _solve(lp: LinearProgram, session: Session | None) -> LpSolution:
    """``solve``, with an ``Infeasible`` LP named as such: a ``MotProblem``
    has passed the convex-order check, so the LP fails at its own tolerance."""
    try:
        return solve(lp, session=session)
    except Infeasible as exc:
        raise Infeasible(f"the marginals pass the convex-order check (to ORDER_TOL = "
                         f"{measures_mod.ORDER_TOL:g}), but the transport LP is infeasible at "
                         f"FEAS_TOL = {lp_mod.FEAS_TOL:g}: {exc}") from exc


def _result(problem: MotProblem, lp: LinearProgram, sol: LpSolution, solver: Solver,
            attempts: int) -> MotResult:
    """The bound's hedge, widened and checked on the solver's frame of the
    payoff (see :meth:`Solver.frame`), and its diagnostics."""
    hedge = extract_hedge(sol, problem, solver)
    report = verify(hedge, problem.payoff, solver.frame(problem.payoff))
    if not report.valid:
        raise DegenerateDual(f"the LP dual failed the hedge check: {report.describe()}")
    coupling = _coupling_from_primal(sol.primal, solver.layout)
    extras = {"lp_rows": lp.n_rows, "lp_cols": lp.n_cols,
              "lp_iterations": sol.iterations, "solve_attempts": attempts,
              "max_verification_violation": report.max_violation}
    diag = _diagnostics(problem, sol.objective, coupling, hedge, extras)
    return MotResult(value=float(sol.objective), coupling=coupling, hedge=hedge,
                     diagnostics=diag, report=report)


def bound(problem: MotProblem, *, solver: Solver | None = None) -> MotResult:
    """Solve for one bound; package value, coupling, hedge and diagnostics.

    Without ``solver`` the LP is built and solved for this bound alone;
    with one (built on ``problem.system``) it is solved on the solver's
    session, from the last optimal basis when the session keeps one for it;
    :func:`motbound.lp.solve` checks the optimum at ``lp.FEAS_TOL``.  The
    LP dual is read as a semi-static hedge and checked on the solver's
    atoms (to ``hedge.VERIFY_TOL``) and against the value.  A dual that
    fails the grid check (degenerate optima yield several duals) or whose
    price misses the value by more than ``GAP_TOL * (1 + |value|)`` raises
    DegenerateDual.  A solve that ran warm and raised ``LpError`` or gave
    such a dual is solved again cold, once, on a :meth:`Solver.new_session`
    (a master there starts from the seed); a cold one
    raises.  These gates are module constants, the same for every caller.
    ``solve_attempts`` in the extras counts the solves behind the result:
    1, or 2 after the cold re-solve."""
    solver = _solver_for(problem.system, solver)
    lp = solver.lp(problem)
    warm = solver.session.warm_for(lp)  # read first: a solve that raises frees the model
    try:
        return _result(problem, lp, _solve(lp, solver.session), solver, 1)
    except (LpError, DegenerateDual):
        if not warm:
            raise
    return _result(problem, lp, _solve(lp, solver.new_session()), solver, 2)


def decompose_and_solve(problem: MotProblem, *, solver: Solver | None = None) -> MotResult:
    """Solve a two-date problem with :func:`bound`, on ``solver`` when given,
    and report its barrier blocks.

    Mass never crosses a barrier, so the transport LP separates across
    blocks and the optimal coupling restricted to a block is optimal for
    that block: ``block_values`` are read from it, renormalized by the block
    mass, and their mass-weighted sum is the value.  The extras add
    ``blocks``, ``barrier_levels``, ``block_values`` and, across two or more
    blocks, ``delta_increments`` to those of :func:`bound`, whose checks
    all apply, the ``GAP_TOL`` gap included."""
    if problem.system.n_dates != 2:
        raise DimensionMismatch("barrier decomposition applies to two-date problems only")
    dec = detect_barriers(*problem.system.marginals)
    res = bound(problem, solver=solver)
    coupling = res.coupling
    first = coupling.paths()[:, 0]
    block_values = []
    for block in dec.blocks:
        part = np.isin(first, block.sub1.points)
        restricted = Coupling(coupling.grids, coupling.indices[part], coupling.masses[part])
        block_values.append(restricted.expectation(problem.payoff) / block.mass)
    extras = {**res.diagnostics.extras, "blocks": len(dec.blocks),
              "barrier_levels": [float(x) for x in dec.levels], "block_values": block_values}
    if len(dec.blocks) >= 2:
        extras["delta_increments"] = _delta_increments(res.hedge, problem.system, dec)
    return replace(res, diagnostics=replace(res.diagnostics, extras=extras))


@dataclass(frozen=True)
class SweepRow:
    strike: float
    lower: float | None
    upper: float | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        lines = ["strike,lower,upper,status"]
        for r in self.rows:
            if r.ok:
                lines.append(f"{fmt12(r.strike)},{fmt12(r.lower)},{fmt12(r.upper)},ok")
            else:
                msg = (r.error or "failed").replace(",", ";").replace("\n", " ")
                lines.append(f"{fmt12(r.strike)},,,{msg}")
        return "\n".join(lines) + "\n"


def strike_sweep(system: MarginalSystem, strikes) -> SweepTable:
    """Lower/upper forward-start call bounds per strike ratio, one row per
    strike in the given order.

    Every bound is solved by :meth:`Solver.bounds` on one solver, each from
    the last optimal basis that its session keeps.  A strike whose bound
    raises gets an error row, and its upper bound is not solved after a
    failed lower one."""
    if system.n_dates != 2:
        raise DimensionMismatch("strike sweeps cover two-date systems")
    strikes = [float(k) for k in strikes]
    outcomes = Solver(system).bounds([payoff_mod.forward_start_call(k) for k in strikes])
    rows = []
    for strike, outcome in zip(strikes, outcomes):
        error = next((r for r in outcome.values() if isinstance(r, MotboundError)), None)
        rows.append(SweepRow(strike, None, None, str(error)) if error is not None
                    else SweepRow(strike, outcome["lower"].value, outcome["upper"].value))
    return SweepTable(rows=tuple(rows))


def random_feasible_coupling(system: MarginalSystem, seed: int, *,
                             solver: Solver | None = None) -> Coupling:
    """A feasible martingale coupling drawn by optimizing a seeded random
    objective; deterministic per seed.  The LP is built on the parts of
    ``solver`` (built on ``system``; a new one when not given) and solved
    on a :meth:`Solver.new_session`, so the solver's session is left
    alone."""
    if not system.admissible:
        raise NotAdmissible("marginals are not in convex order")
    solver = _solver_for(system, solver)
    cost = np.random.default_rng(seed).uniform(-1.0, 1.0, size=solver.layout.n_cells)
    sol = solve(LinearProgram("min", cost, solver.constraints), session=solver.new_session())
    return _coupling_from_primal(sol.primal, solver.layout)


def surface_csv(problem: MotProblem, result: MotResult, solver: Solver | None = None) -> str:
    """Hedge payout vs payoff over (s1, z) of the verification grids, for
    two-date problems; the grids, those of :func:`verification_grids`,
    are the atoms and the final axis of ``solver``'s frame of the payoff."""
    if problem.system.n_dates != 2:
        raise DimensionMismatch("surface export covers two-date problems")
    frame = _solver_for(problem.system, solver).frame(problem.payoff)
    z = frame.axis
    u_z = result.hedge.statics[-1](z)
    lines = ["s1,s2,psi,phi,phi_minus_psi"]
    for (h,), head, d, phi in _cells(frame, result.hedge, z):  # the one history axis
        psi = head + u_z + d * (z - h)  # SemiStaticHedge._payout's order: hedge.evaluate's bits
        lines.extend(f"{fmt12(x)},{fmt12(s2)},{fmt12(a)},{fmt12(b)},{fmt12(b - a)}"
                     for x, psi_x, phi_x in zip(h[:, 0], psi, phi) for s2, a, b in zip(z, psi_x, phi_x))
    return "\n".join(lines) + "\n"
