"""Equality-form linear programs, solved by HiGHS.

One canonical form: min or max ``cost . x`` over ``{x >= 0 : A x = rhs}``,
with A read through one column source (``ColumnSource``), shared by the
LPs that differ only in cost.  A source gives ``n_cols``, ``rhs``, the row
scales ``row_scale`` and ``scaled_rhs`` (below), ``columns(cols)``, the
columns a model adds, as starts, row indices and values, ``reduced(cost,
y)``, ``cost - A^T y`` over every column, one pricing pass, and
``times(x)``, the residual check's ``A x``.  The transport LP's
``mot.TransportColumns`` is one: it reads each column off the structure of
its LP and holds no matrix.
Callers encode everything into this form.  ``solve`` passes it to HiGHS
(Huangfu & Hall 2018) through the Python binding that ships inside scipy,
without presolve, and returns primal and dual optima.  HiGHS sees the LP
free of its units: each row times R_i, the inverse of the smallest power
of two at or above its largest |coefficient| (a source's ``row_scale``),
and the costs divided by C, the smallest power of two at or above the
largest |cost| of that LP (Tomlin 1975: power-of-two equilibration, exact
in floating point).  This module computes in the units of that model:
pricing, the residual check and the reduced-cost check read its rows R A,
its costs c/C and its row duals y_s, against tolerances (``FEAS_TOL``,
``HIGHS_TOL``, ``ARTIFICIAL_COST``, ``HIGHS_SMALL_MATRIX_VALUE``) that act
on numbers of order one, so the same LP in cents or in index points is
the same model, takes the same pivots and passes the same checks.  The
primal is the LP's own; the row duals leave the module once, where an
optimum is accepted, exactly, as ``y = C R y_s``, so the solution and
everything above this module are in the LP's units.  Every model runs
the primal simplex, set with its other options once, when it is built.
A cold solve takes the path that ``_cold_method`` picks from the LP's
shape: one run on every column below ``COLD_MASTER_COLS`` variables in the
primal band (below ``PRIMAL_MAX_COLS`` variables, with few per row),
otherwise column generation, whose master holds one artificial column per
row plus a seed of columns and gains, round by round, the columns that
price out, each round a run from the last basis, the first from the basis
the seed gives (a coarse LP's optimum); it stops when no column prices
out.  After every run of every model, one pass prices every column, and
the reduced-cost check reads the last run's pass: one ``A^T y`` per run.
One start rule holds for every model: a given basis, else, in a model
with artificial columns, every artificial basic, which is primal
feasible, so no run spends pivots on phase 1; only a cold model of every
column without them starts from HiGHS's own basis.  A model passes HiGHS
its rows alone, then its artificial columns in one ``addCols`` of arrays
and the LP's in another, as each pricing round adds its own, and reads
its basis back from ``getBasicVariables``, one integer per row.
A ``Session`` is built on one column source and keeps one HiGHS
model for the LPs built on it: after its first solve, each LP only
changes the column costs and restarts the primal simplex from the last
optimal basis, which stays primal feasible.  In the primal band the
warm model holds every column (a master there is completed at its first
warm solve), so a change of sense stays warm too; above the band it
starts a new master.  Each solve is one attempt: a run, or a master's
rounds, whose optimum passes every check or raises.  A plain ``solve`` is a
one-shot session.  The binding is scipy's private ``_highspy._core``, the
one its ``linprog`` wraps; calling it directly skips ``linprog``'s input
cleaning, option checking and bound-marginal loop, which cost more than
HiGHS itself on the small LPs of a strike sweep.  ``_load_highs`` loads it
from its extension file, not through ``scipy.optimize``, whose ``__init__``
imports scipy.linalg, scipy.sparse and hundreds of other modules: a process
that imports numpy and motbound then holds 234 modules and 34 MB, not 793
and 79 MB, and a ``motbound bounds --sense both`` on ``smooth_pair(15)``
takes 0.12 s in a fresh process, not 0.33 s (2 vCPUs).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .errors import Infeasible, IterationLimit, LpError, Unbounded


def _load_highs():
    """scipy's HiGHS binding, loaded from its extension file under
    ``scipy/optimize/_highspy`` without running ``scipy.optimize``'s
    ``__init__`` (see the module docstring).  It is registered under its own
    name, so scipy's imports of it, before or after, get this one module."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # finds the package, runs nothing
    if scipy is None:
        raise ImportError("the HiGHS binding ships with scipy, which is not installed")
    root = Path(scipy.submodule_search_locations[0])
    where = root / "optimize" / "_highspy"
    spec = importlib.machinery.FileFinder(str(where), (importlib.machinery.ExtensionFileLoader,
                                                       importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        from importlib import metadata  # 8 ms to import, the binding 0.6 ms: only on this path
        dist = next(iter(metadata.distributions(name="scipy", path=[str(root.parent)])), None)
        raise ImportError(f"no HiGHS binding _core in {where} "
                          f"(scipy {dist.version if dist else 'of unknown version'})")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


highs = _load_highs()

FEAS_TOL = 1e-9
HIGHS_TOL = 1e-10  # the smallest feasibility tolerance HiGHS accepts
# HiGHS drops every constraint coefficient at or below its small_matrix_value
# (default 1e-9) without a word; this is the smallest value it accepts.  A
# scaled row's largest |coefficient| lies in (1/2, 1], so what is dropped is
# a coefficient 1e-12 below its row's largest, in any price unit.  Before
# the rows were scaled, smooth_pair(15)'s straddle bounds with atoms scaled
# by 1e-9 read 0.277 and 0.951 times the scale at the default, not 0.351 and
# 0.697, and at this floor they went wrong again from a scale of 1e-11 down.
HIGHS_SMALL_MATRIX_VALUE = 1e-12
MAX_ITER = 10 ** 6
# The primal band: fewer than PRIMAL_MAX_COLS variables and fewer than
# PRIMAL_MAX_COLS_PER_ROW per row.  In it a session's model holds every
# column, so its warm solves, a change of sense too, restart the primal
# simplex from the last optimum; a cold solve below COLD_MASTER_COLS
# variables runs the primal simplex on every column.  Cold HiGHS runs, one
# BLAS thread, 2 vCPUs, ms summed over both senses.  Below 1,500 variables
# the dual simplex is no faster (best of 5; per LP the ratio runs from 0.61
# to 2.46 either way):
#
#   LPs                                       cells        dual   primal
#   desk_batch seed 1, nine systems, one      81-225       24.0     25.3
#     seeded forward-start call each
#   smooth_pair(m), m = 9, 15, 21, 31, 37     81-1,369      285      323
#   3 dates, m = 5, 7, 9, 11                  125-1,331     444      364
#   4 dates, m = 3, 5, 6                      81-1,296      469      439
#
# with the payoffs of the table below.  There, uniform marginals on
# [1 - 0.1k, 1 + 0.1k] at date k and ten bounds (Asian calls at 0.95, 1,
# 1.05 and lookback calls at 1, 1.05, both senses), s, median of 5 runs (9
# for 4 dates at m=7 and 5 dates), "cold" ten one-shot bounds and "chain"
# one mot.Solver.bounds call, where the primal band's model starts from the
# primal simplex's cold optimum and the master's from the master's, whose
# first run starts from the coarse optimal basis (see mot.Solver); the two
# rows below the cut ran their masters with the cut moved down to them:
#
#   dates  m   cells × rows     cold: primal  master    chain: primal  master
#     3   13   2,197 × 219             0.216   0.140             0.098   0.096
#     4    7   2,401 × 424             0.346   0.281             0.143   0.138
#     3   14   2,744 × 250             0.278   0.182             0.140   0.125
#     5    5   3,125 × 801             0.869   0.581             0.322   0.245
#     3   15   3,375 × 283             0.369   0.202             0.193   0.170
#     4    8   4,096 × 613             0.740   0.497             0.315   0.320
#     3   17   4,913 × 355             0.626   0.278             0.322   0.277
#
# The band ends where the primal simplex on every column stopped beating the
# interior point with crossover, which ran above it before column generation
# did: between 4,913 and 6,561 variables (3 dates at m=17, 4 at m=9).
PRIMAL_MAX_COLS = 5000
# Two dates leave more variables per row, and the interior point wins
# sooner.  Same set-up on smooth_pair(m), ten LPs: the straddle, the
# negated straddle and forward-start calls at 0.95, 1, 1.05, both senses:
#
#    m   cells × rows   per row   primal  interior point
#   41   1,681 × 122     13.8       165      188
#   51   2,601 × 152     17.1       292      313
#   61   3,721 × 182     20.4       715      419
#
# At m=51 the primal simplex wins the five LPs that minimize a convex
# payoff (21-25 ms each against 36-41) and loses the five that maximize one
# (46-51 ms against 38-40): a tie, and the ratio cuts just below it, m=45.
PRIMAL_MAX_COLS_PER_ROW = 15
# From COLD_MASTER_COLS variables on a cold solve runs column generation
# (see Session).  Each artificial column has coefficient +-1 in its scaled
# row and costs ARTIFICIAL_COST * (1 + max|c| / C) against the scaled costs,
# whose largest magnitude lies in (1/2, 1]; every master run here ended with
# no artificial mass, after which the artificials cost nothing (see
# _Master.generate).
ARTIFICIAL_COST = 1e3
# A round adds each group's most negative column (one per history, see
# mot.Solver), at most ROUND_ROWS per row.  Single runs, one BLAS thread, s:
#
#   round                            smooth_pair(401)   3 dates, m=51   4 dates, m=17
#                                    lower    upper     lower   upper   lower
#   one per history, <= 2 per row     0.74     0.42      3.26    1.85    5.38
#   two per history, <= 2 per row     0.86     0.52      4.17    2.44    8.58
#   one per history, <= 0.5 per row   0.75     0.48      3.44    2.12    6.08
#
# with the straddle on two dates and an Asian call at 1 on uniform laws on
# [1 - 0.1k, 1 + 0.1k] at date k.  On 4 dates at m=21 (lower, the default
# pricing below) the first rule took 32-35 s, two per history 47.7 s, and
# <= 0.5 and <= 0.25 per row 43.0 and 38.9 s.  A transport LP has fewer
# histories than rows, so the cap binds only on smaller groups, as in a
# plain solve, one column per group: four unseeded LPs (smooth_pair(101) and
# 3 dates at m=21, both senses) took 2.02, 1.53, 1.57, 1.66 and 1.55 s at
# <= 0.5, 1, 2 and 4 per row and with no cap.
ROUND_ROWS = 2
# A master's runs price row-wise (HiGHS simplex_price_strategy 1, where the
# default, 3, switches between row-wise and column-wise pricing): the same
# pivots on smooth_pair(401) and 3 dates at m=51 above; on 4 dates, both
# senses on one mot.Solver, 16.80-17.03 s against 17.42-17.65 at m=21
# (lower: 39,665 pivots against 39,960), 4.04-4.08 s against 4.25-4.27 at
# m=17 (two runs each) and 0.93 s against 0.89 at m=13 (one run).
MASTER_PRICE_STRATEGY = 1
# From COLD_MASTER_COLS variables on, a cold solve runs column generation in
# the primal band too, and the next warm solve first completes the master
# into a model of every column (see Session).  The cut was set when a
# master's first run started from HiGHS's own basis: the master then took
# 25-46% off every cold row on 3 dates and 15% off 4 dates at m=8, gained
# 2-4% on 5 dates at m=5 and tied 4 dates at m=7, and no chain was slower
# by more than 2%, so the cut sat above 2,401 cells.  From the coarse
# optimal basis (the table above) the master takes 19-56% off every cold
# row, 4 dates at m=7 included, and no chain is slower by more than 2%, so
# that rule would now put the cut at or below 2,197 cells; it stays, as
# moving it moves the bits of cold solves in the primal band.  Two dates
# never reach it: their band ends at 1,936 cells (m=44).
COLD_MASTER_COLS = 2500


def _power_of_two(top: float) -> float:
    """The smallest power of two at or above ``top`` >= 0, and 1 at 0."""
    fraction, exponent = math.frexp(top)
    return math.ldexp(1.0, exponent - (fraction == 0.5))


def row_scale_of(top: np.ndarray) -> np.ndarray:
    """Each row's scale R_i from its largest |coefficient| ``top`` >= 0:
    the inverse of the smallest power of two at or above it, and 1 at 0."""
    fraction, exponent = np.frexp(top)
    return np.ldexp(1.0, (fraction == 0.5) - exponent)


class ColumnSource(Protocol):
    """A's columns and the rhs, as a model reads them (see the module
    docstring): ``columns(cols)`` gives the columns ``cols`` in that order
    as starts (one per column and the end), row indices and values;
    ``reduced`` gives ``cost - A^T y`` over every column, and ``times``
    gives ``A x``, one value per row."""

    n_cols: int
    rhs: np.ndarray
    row_scale: np.ndarray
    scaled_rhs: np.ndarray

    def columns(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...

    def reduced(self, cost: np.ndarray, y: np.ndarray) -> np.ndarray: ...

    def times(self, x: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class LinearProgram:
    """min/max cost.x subject to A x = rhs, x >= 0, with one cost per
    column of the constraints, a column source."""

    sense: str
    cost: np.ndarray
    constraints: ColumnSource

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        cost = np.asarray(self.cost, dtype=float).ravel()
        if cost.size != self.constraints.n_cols:
            raise ValueError(f"{cost.size} costs for {self.constraints.n_cols} columns")
        if not np.all(np.isfinite(cost)):
            raise ValueError("cost must be finite")
        cost.flags.writeable = False
        object.__setattr__(self, "cost", cost)

    @property
    def vals(self) -> np.ndarray:
        """A's values, each column's in turn: read by no solve, only by the
        benchmark tracer's ``lp.nnz`` (``perfbench/tracer.py``)."""
        return self.constraints.vals

    @property
    def rhs(self) -> np.ndarray:
        return self.constraints.rhs

    @property
    def n_cols(self) -> int:
        return self.cost.size

    @property
    def n_rows(self) -> int:
        return self.rhs.size


@dataclass(frozen=True)
class LpSolution:
    """An optimum of the LP in its own sense (other outcomes raise).

    ``iterations`` sums HiGHS's simplex iteration counts over the solve's
    runs, a master's rounds (the runs that find a master's seed and start
    basis are not counted).  A warm solve counts only its own pivots from
    its start."""

    primal: np.ndarray
    dual: np.ndarray
    objective: float
    iterations: int


class Session:
    """One HiGHS model of ``constraints``, a column source (see the module
    docstring), kept for solving the LPs built on that object, which differ
    only in cost and sense.  Every model of it, of every column or a
    master, reads the source's columns, pricing passes and ``A x``.

    The model is built at the first solve, as :func:`_cold_method` picks:
    below ``COLD_MASTER_COLS`` variables in the primal band it holds every
    column of the LP.  Otherwise it is a column-generation master
    (:class:`_Master`): one artificial column per row, priced at
    ``ARTIFICIAL_COST`` relative to the costs, makes it feasible, and it
    holds the columns that ``seed`` returns for the LP, plus those that
    rounds of pricing add.  ``seed`` is a function of the LP, called once
    per master, that returns the columns and the basis the master's first
    run starts from (see :meth:`_Master.basis`), or None for the
    artificials' start, every artificial column basic; without a seed, no
    column and that start.  The seed's own solves are not counted in
    ``LpSolution.iterations``.  ``group`` splits the columns into
    consecutive groups of that size (the cells of one history), each of
    which gives a round at most one column.  Either way each run is the
    primal simplex from the last basis, or from the seed's, and the solve
    returns once no column of the LP prices out, so its dual passes the
    reduced-cost check on every column.

    Once a solve has passed every check, the next one only changes the
    column costs and runs the primal simplex from that solve's basis, which
    a change of cost leaves primal feasible.  In the primal band that next
    solve runs on every column: a master there is completed
    (:meth:`_Master.completed`) then, not at the end of its own solve, as a
    one-shot solve never needs the other columns.  Above the band a master
    keeps its columns, with its artificials fixed at zero from its first
    such solve on, and a change of sense starts a new master instead, as
    the old one's columns were priced for the other sense's optimum; in the
    band the other optimum is a faster start than a cold run.  A solve that
    fails raises at once and frees the model.  Solve order therefore
    decides which optimum a degenerate LP returns: the same order gives the
    same bits, but a warm optimum can differ from a cold one.  An LP built
    on another source object, even with equal arrays, is refused."""

    def __init__(self, constraints: ColumnSource,
                 seed: Callable[[LinearProgram], tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]]
                 | None = None, group: int = 1) -> None:
        self.constraints = constraints
        self.seed = seed
        self.group = group
        self._master = None
        self._sense = None  # the sense of the model's last solve

    @property
    def warm(self) -> bool:
        """Whether the session holds the basis of a solve that passed every check."""
        return self._master is not None

    def warm_for(self, lp: LinearProgram) -> bool:
        """Whether a solve of ``lp`` restarts from the session's basis: the
        session holds one, and ``lp`` keeps the last solve's sense or the
        session's model holds, or is completed to hold, every column."""
        return self.warm and (lp.sense == self._sense or self._master.full or _completes(lp))

    def _check(self, lp: LinearProgram) -> np.ndarray:
        """The LP's costs in minimization form, once it is built on the session's constraints."""
        if lp.constraints is not self.constraints:
            raise ValueError("the LP is not built on the session's constraints")
        return -lp.cost if lp.sense == "max" else lp.cost

    def _start(self, lp: LinearProgram, cost: np.ndarray, artificial: bool) -> _Master:
        """A cold model of ``lp``: where :func:`_cold_method` picks the primal
        simplex, every column, after one artificial column per row when
        ``artificial`` is set; otherwise a master on the seed's columns,
        which starts from the seed's basis when it gives one."""
        if _cold_method(lp.n_cols, lp.n_rows) != "master":
            return _Master(lp, cost, np.arange(lp.n_cols), artificial, self.group)
        seed, basis = (np.empty(0, dtype=np.int64), None) if self.seed is None else self.seed(lp)
        return _Master(lp, cost, np.unique(np.asarray(seed, dtype=np.int64)), True, self.group, basis)

    def _solve(self, lp: LinearProgram) -> LpSolution:
        cost = self._check(lp)
        warm = self.warm_for(lp)
        self._sense = lp.sense
        try:
            if warm and not self._master.full and _completes(lp):
                self._master = self._master.completed(lp, cost)
            elif warm:
                self._master.change_cost(cost)
            else:
                self._master = self._start(lp, cost, artificial=False)
            status, iterations, primal, dual, worst = self._master.generate(lp)
            primal, dual = _check_run(lp, self._master, status, primal, dual, worst)
            return LpSolution(primal, dual, float(lp.cost @ primal), iterations)
        except BaseException:
            self._master = None  # the next solve starts cold
            raise

    def support(self, lp: LinearProgram) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """The columns that carry mass in an optimum of ``lp`` once one
        artificial column per row keeps it feasible, and that optimum's
        basis (see :meth:`_Master.basis`), solved on a model of its own as a
        cold solve would be (the session's model is left alone), with no
        check: a hint, which an LP without a feasible point still gives.
        In the primal band that model holds every column after the
        artificials, and its run starts from every artificial basic, as a
        master without a seed basis does.
        Raises ``LpError`` when no optimum is reached."""
        cost = self._check(lp)
        master = self._start(lp, cost, artificial=True)
        status, _, primal, _, _ = master.generate(lp, fix=False)
        if status != highs.HighsModelStatus.kOptimal:
            raise LpError(f"HiGHS model status {status.name}")
        return np.flatnonzero(primal > 0.0), master.basis()


class _Master:
    """A HiGHS model of an LP on some of its columns, ``cols`` in model
    order, after ``n_art`` artificial columns (none, or one per row with
    coefficient +1, or -1 where the rhs is negative, at cost
    ``ARTIFICIAL_COST * (1 + max|c| / C)``).  The model is the scaled LP
    (see the module docstring), and every gate here reads its units:
    ``cost``, the LP's cost in minimization form, sets ``scale``, C, and
    ``tol``, the reduced-cost gate ``FEAS_TOL * (1 + max|c| / C)``, again at
    each :meth:`change_cost`; ``residual_tol``, ``10 * FEAS_TOL * (1 + max|R
    rhs|)``, bounds the scaled residual that :func:`_check_run` accepts and
    the mass that :meth:`generate` leaves on artificials it fixes.  A round
    adds at most one column per ``group`` consecutive columns.  Its first
    run starts from ``basis`` when given (see :meth:`basis`), else, with
    artificial columns, from every artificial basic, a primal feasible
    start; a model without them and no ``basis`` (a cold solve's model of
    every column) starts from HiGHS's own basis.  HiGHS gets the rows by
    ``passModel``, the artificials by one ``addCols``, and the LP's columns
    by :meth:`_add`, the seed's at once, then each round's.  Its pricing
    passes and the residual check read the LP's constraints."""

    def __init__(self, lp: LinearProgram, cost: np.ndarray, cols: np.ndarray, artificial: bool,
                 group: int, basis: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        n_art = lp.n_rows if artificial else 0
        model = highs.HighsLp()  # the rows alone: the columns join by addCols
        model.num_row_ = lp.n_rows
        model.row_lower_ = model.row_upper_ = lp.constraints.scaled_rhs
        top = self._set_cost(cost)
        options = highs.HighsOptions()
        options.presolve = "off"
        options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = HIGHS_TOL
        options.small_matrix_value = HIGHS_SMALL_MATRIX_VALUE
        options.output_flag = options.log_to_console = False
        options.solver = "simplex"
        options.simplex_strategy = int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal)
        if artificial:
            options.simplex_price_strategy = MASTER_PRICE_STRATEGY
        run = highs._Highs()
        if run.passOptions(options) == highs.HighsStatus.kError:
            raise LpError("HiGHS rejected the solver options")
        big, unit = ARTIFICIAL_COST * (1.0 + top / self.scale), np.arange(n_art, dtype=np.int32)
        if (run.passModel(model) == highs.HighsStatus.kError
                or n_art and run.addCols(n_art, np.full(n_art, big), np.zeros(n_art),
                                         np.full(n_art, highs.kHighsInf), n_art, unit, unit,
                                         np.where(lp.rhs < 0.0, -1.0, 1.0)) == highs.HighsStatus.kError):
            raise Infeasible(f"HiGHS model status {highs.HighsModelStatus.kModelError.name}")
        self.model = run
        self.n_art = n_art
        self.residual_tol = 10 * FEAS_TOL * (1.0 + float(np.abs(lp.constraints.scaled_rhs).max()))
        self.group = group
        self.cols = cols[:0]
        self._add(lp, cols)
        self.fixed = not artificial
        if basis is None and artificial:
            basis = (cols[:0], np.arange(lp.n_rows))
        if basis is not None:
            self._set_basis(lp, *basis)

    @property
    def full(self) -> bool:
        """Whether the model is one of every column of the LP and no
        artificial column, as warm solves in the primal band run on."""
        return self.n_art == 0

    def _set_cost(self, cost: np.ndarray) -> float:
        """Set ``cost``, ``scale``, C, and ``tol`` from ``cost``; returns max|c|."""
        top = float(np.abs(cost).max())
        self.cost, self.scale = cost, _power_of_two(top)
        self.tol = FEAS_TOL * (1.0 + top / self.scale)
        return top

    def change_cost(self, cost: np.ndarray) -> None:
        self._set_cost(cost)
        self.model.changeColsCost(self.cols.size, np.arange(self.n_art, self.n_art + self.cols.size,
                                                            dtype=np.int32), cost[self.cols] / self.scale)

    def _add(self, lp: LinearProgram, cols: np.ndarray) -> None:
        """Add the LP's columns ``cols`` to the model, after those it holds:
        cost c/C, and each coefficient times its row's scale."""
        start, index, value = lp.constraints.columns(cols)
        if self.model.addCols(cols.size, self.cost[cols] / self.scale, np.zeros(cols.size),
                              np.full(cols.size, highs.kHighsInf), index.size, start[:-1].astype(np.int32),
                              index.astype(np.int32), value * lp.constraints.row_scale[index]
                              ) == highs.HighsStatus.kError:
            raise LpError("HiGHS rejected the added columns")
        self.cols = np.concatenate((self.cols, cols))

    def fix_artificials(self) -> None:
        """Fix the artificial columns at zero, at zero cost, for good."""
        index, zero = np.arange(self.n_art, dtype=np.int32), np.zeros(self.n_art)
        for status in (self.model.changeColsBounds(self.n_art, index, zero, zero),
                       self.model.changeColsCost(self.n_art, index, zero)):
            if status == highs.HighsStatus.kError:
                raise LpError("HiGHS rejected the artificial columns' bounds or costs")
        self.fixed = True

    def generate(self, lp: LinearProgram, fix: bool = True):
        """Runs of the model, each from the last basis, with a pricing pass
        (:meth:`_entering`) after each, which adds the columns that price
        out, until none does.  When ``fix`` is set, the first optimum whose
        artificials hold no more mass than the residual check allows fixes
        them at zero cost and zero mass, and the rounds go on: a dual priced
        against artificials at ``ARTIFICIAL_COST`` sits at a far corner of
        the optimal face, where the hedge it gives carries static payouts
        of that size that cancel in the payout.  ``MAX_ITER`` bounds the
        iterations of all runs together.  Returns the last run's model
        status, the iterations summed, and, at an optimum (else None), the
        primal over every column of ``lp`` (an artificial's mass is left
        out, so the residual check sees it), the row duals y_s of the model
        and the last pass's most negative reduced cost with its column,
        which :func:`_check_run` reads.  A run that returns ``kError`` raises
        ``LpError`` naming it: the solve's first run, or the run after
        pricing round k."""
        iterations = rounds = 0
        while True:
            # HiGHS stops once its count reaches the limit, before it prices
            # the basis that iteration left, so a run that needs every
            # iteration left must be given one more
            if self.model.setOptionValue("simplex_iteration_limit",
                                         MAX_ITER - iterations + 1) == highs.HighsStatus.kError:
                raise LpError("HiGHS rejected the solver options")
            try:
                status, count, x, y = _run_highs(self.model)
            except LpError as exc:
                raise LpError(f"{exc}, in " + (f"the run after pricing round {rounds}" if rounds
                                               else "the solve's first run")) from exc
            iterations += count
            rounds += 1
            if status != highs.HighsModelStatus.kOptimal:
                return status, iterations, None, None, None
            entering, worst = self._entering(lp, y)
            if not entering.size and fix and not self.fixed and x[:self.n_art].max() <= self.residual_tol:
                self.fix_artificials()
                continue
            if not entering.size:
                primal = np.zeros(lp.n_cols)
                primal[self.cols] = x[self.n_art:]
                return status, iterations, primal, y, worst
            self._add(lp, entering)

    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """The last run's basis: the LP's basic columns, and the rows whose
        artificial column or logical is basic, ``n_rows`` in all: the
        columns in model order, the rows sorted.  HiGHS names each basic
        variable by its model column, or row i's logical by -1 - i."""
        status, basic = self.model.getBasicVariables()
        if status == highs.HighsStatus.kError:
            raise LpError("HiGHS holds no basis to read")
        basic = basic.astype(np.int64)
        model_cols = np.sort(basic[basic >= 0])
        rows = np.sort(np.concatenate((-1 - basic[basic < 0], model_cols[model_cols < self.n_art])))
        return self.cols[model_cols[model_cols >= self.n_art] - self.n_art], rows

    def _set_basis(self, lp: LinearProgram, cols: np.ndarray, rows: np.ndarray) -> None:
        """Start the next run from the basis of the LP's columns ``cols``
        and, for each row of ``rows``, its artificial column, or its logical
        in a model without them; every other column and row is nonbasic at
        its lower bound.  Raises ``LpError`` when HiGHS rejects it, as it
        does unless that makes ``n_rows`` basic columns in the model."""
        column = np.zeros(lp.n_cols, dtype=bool)
        column[cols] = True
        unit = np.zeros(lp.n_rows, dtype=bool)
        unit[rows] = True
        model_col = np.concatenate((unit[:self.n_art], column[self.cols]))
        logical = np.zeros_like(unit) if self.n_art else unit
        status = np.array([highs.HighsBasisStatus.kLower, highs.HighsBasisStatus.kBasic], dtype=object)
        start = highs.HighsBasis()
        start.valid, start.alien = True, False  # not alien: HiGHS checks the count, repairs nothing
        start.col_status = status[model_col.astype(np.int64)].tolist()
        start.row_status = status[logical.astype(np.int64)].tolist()
        if self.model.setBasis(start) == highs.HighsStatus.kError:
            raise LpError("HiGHS rejected the start basis")

    def completed(self, lp: LinearProgram, cost: np.ndarray) -> _Master:
        """A model of every column of ``lp``, as the primal band builds it,
        that starts from this master's basis: the columns the master lacks
        join nonbasic at zero, and the row of a basic artificial column,
        which sits at zero, takes its place with the row's own logical."""
        return _Master(lp, cost, np.arange(lp.n_cols), False, self.group, self.basis())

    def _entering(self, lp: LinearProgram, y: np.ndarray) -> tuple[np.ndarray, tuple[int, float]]:
        """The pricing pass of a run whose row duals are ``y``, which prices
        every column of ``lp`` at its scaled reduced cost ``c/C - (R A)^T
        y``: the columns outside the model below ``-tol`` (none in a model
        of every column), each group's most negative, at most ``ROUND_ROWS``
        times the row count of them, most negative first; and the most
        negative reduced cost of any column, with its column, which the dual
        gate of :func:`_check_run` reads."""
        reduced = lp.constraints.reduced(self.cost / self.scale, y * lp.constraints.row_scale)
        worst = int(np.argmin(reduced))
        lowest = (worst, float(reduced[worst]))
        if self.cols.size == lp.n_cols:  # none can enter: skip the selection
            return self.cols[:0], lowest
        reduced[self.cols] = 0.0
        by_group = reduced.reshape(-1, self.group)
        best = by_group.argmin(axis=1)
        value = by_group[np.arange(best.size), best]
        groups = np.flatnonzero(value < -self.tol)
        groups = groups[np.argsort(value[groups], kind="stable")][: int(ROUND_ROWS * lp.n_rows)]
        return groups * self.group + best[groups], lowest


def _cold_method(n_cols: int, n_rows: int) -> str:
    """How a cold solve of an LP of this shape runs: ``"primal"`` (the
    primal simplex on every column) below ``COLD_MASTER_COLS`` variables in
    the primal band, else ``"master"`` (column generation, see
    :class:`Session`).  What a warm solve's model holds is not this rule's
    to say (see :func:`_completes`)."""
    return "primal" if n_cols < COLD_MASTER_COLS and _in_band(n_cols, n_rows) else "master"


def _completes(lp: LinearProgram) -> bool:
    """Whether a warm solve of ``lp`` completes a master first: from
    ``COLD_MASTER_COLS`` variables to the end of the primal band."""
    return COLD_MASTER_COLS <= lp.n_cols and _in_band(lp.n_cols, lp.n_rows)


def _in_band(n_cols: int, n_rows: int) -> bool:
    """Whether an LP of this shape lies in the primal band: fewer than
    ``PRIMAL_MAX_COLS`` variables and fewer than ``PRIMAL_MAX_COLS_PER_ROW``
    per row."""
    return n_cols < min(PRIMAL_MAX_COLS, PRIMAL_MAX_COLS_PER_ROW * n_rows)


_LIMIT = (highs.HighsModelStatus.kIterationLimit, highs.HighsModelStatus.kTimeLimit)
_INFEASIBLE = (highs.HighsModelStatus.kInfeasible, highs.HighsModelStatus.kModelError)


def _run_highs(model):
    """One HiGHS run of a session's model, in minimization form, from the
    basis its last run left or was given, under the model's options: the
    primal simplex and the rest, set once when the model was built, and
    the iteration limit, which :meth:`_Master.generate` sets before each run.

    Returns the model status, the simplex iteration count, and the primal
    and row duals of the minimization, which are None unless the status is
    optimal.  Raises ``LpError`` when the run itself returns ``kError``."""
    run = model.run()
    status = model.getModelStatus()
    if run == highs.HighsStatus.kError:
        raise LpError(f"HiGHS run returned {run.name}, model status {status.name}, on a model of "
                      f"{model.getNumRow()} rows and {model.getNumCol()} columns")
    iterations = model.getInfo().simplex_iteration_count
    if status != highs.HighsModelStatus.kOptimal:
        return status, iterations, None, None
    solution = model.getSolution()
    return status, iterations, np.array(solution.col_value), np.array(solution.row_dual)


def _check_run(lp: LinearProgram, master: _Master, status, primal, dual,
               worst) -> tuple[np.ndarray, np.ndarray]:
    """The primal, clipped at zero, and dual, in the LP's units and its own
    sense, of a solve on ``master`` that :meth:`_Master.generate` returned,
    once it passes every check, each read on the scaled model.  Raises, in
    this order: on a status that is not optimal, ``IterationLimit`` at a
    limit, ``Infeasible`` on an infeasible or malformed model, ``Unbounded``
    and ``LpError`` on any other; ``Infeasible`` when the primal misses the
    scaled rows, ``|R (A x - rhs)|``, by more than ``master.residual_tol``;
    ``LpError`` when the last pricing pass's most negative reduced cost,
    ``worst``, lies below ``-master.tol``.  Each message gives the scaled
    number.  The dual leaves the model's units here."""
    if status in _LIMIT:
        raise IterationLimit(f"exceeded {MAX_ITER} iterations on a {lp.sense} LP of "
                             f"{lp.n_rows} rows and {lp.n_cols} columns")
    if status in _INFEASIBLE:
        raise Infeasible(f"HiGHS model status {status.name}")
    if status == highs.HighsModelStatus.kUnbounded:
        raise Unbounded(f"HiGHS model status {status.name}")
    if status != highs.HighsModelStatus.kOptimal:
        raise LpError(f"HiGHS model status {status.name}")
    primal = np.clip(primal, 0.0, None)
    ax = lp.constraints.times(primal)
    residual = float(np.abs((ax - lp.rhs) * lp.constraints.row_scale).max())
    if residual > master.residual_tol:
        raise Infeasible(f"optimum violates constraints by {residual:.3e}")
    column, reduced = worst
    if reduced < -master.tol:
        raise LpError(f"dual infeasible: reduced cost {reduced:.3e} at column {column}")
    dual = dual * (master.scale * lp.constraints.row_scale)  # exact: powers of two
    return primal, -dual if lp.sense == "max" else dual


def solve(lp: LinearProgram, *, session: Session | None = None) -> LpSolution:
    """Primal and dual optimum from HiGHS, bundled with scipy.

    HiGHS runs without presolve, at its tightest feasibility tolerances, on
    the model of ``session`` (which must be built on ``lp.constraints``) or,
    without one, on a model built for this solve alone and freed when it
    returns.  A cold solve takes the path :func:`_cold_method` picks from
    the LP's shape, the primal simplex on every column or column generation
    (see :class:`Session`); a warm solve runs the primal simplex from the
    last optimal basis, in the primal band on every column (a master there
    is completed first), and above it a master goes on pricing from there.
    That is the one attempt: ``MAX_ITER`` bounds its iterations, all of a
    master's rounds together, and it is accepted only when it is optimal
    and passes the checks of :func:`_check_run` at ``FEAS_TOL`` (a master
    whose artificial columns keep mass fails the residual check).
    Otherwise it raises: a limit ``IterationLimit``, an infeasible or
    malformed model ``Infeasible``, an unbounded one ``Unbounded``, and a
    failed check the error that check names."""
    return (session or Session(lp.constraints))._solve(lp)
