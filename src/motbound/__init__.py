"""Model-independent price bounds for path-dependent options.

Marginal laws implied by call quotes pin down every European payoff; the
remaining freedom is which martingale coupling links the dates.  Optimizing
the exotic's expectation over that set is a finite linear program whose dual
is a semi-static hedge.  This package assembles the LP, solves it with
HiGHS, called through the binding bundled with scipy (the primal simplex on
every column up to mid-size LPs with few variables per row, column
generation seeded from a coarser grid on larger ones), extracts and verifies
the hedge, and ships a CLI for the whole pipeline.
"""

from .envelope import convex_envelope, dual_value, evaluate_dual, extended_grid, improve_u2
from .errors import (BadSpec, DegenerateDual, DimensionMismatch, GridCoverage,
                     Infeasible, InfeasibleCurve, IterationLimit, LpError,
                     MotboundError, NotAdmissible, OffGrid, ScaleExceeded, Unbounded)
from .hedge import (CallPortfolio, DeltaTable, PiecewiseLinear, SemiStaticHedge,
                    Verdict, VerificationReport, check_arbitrage, hedge_to_json,
                    price, slackness, to_call_portfolio, verify)
from .lp import LinearProgram, LpSolution, Session, solve
from .measures import (Block, CallCurve, DensitySpec, DiscreteMeasure,
                       MarginalSystem, OrderReport, call_price, check_convex_order,
                       detect_barriers, discretize, from_call_curve, load_call_curves)
from .mot import (Coupling, Diagnostics, MotProblem, MotResult, Solver, SweepTable, bound,
                  decompose_and_solve, extract_hedge, random_feasible_coupling,
                  strike_sweep, surface_csv, verification_grids)
from .payoff import (Payoff, asian_call, custom, evaluate, forward_start_call,
                     forward_start_straddle, lookback_call, negated_straddle, tabulate,
                     tabulated)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
