"""Exception types shared across the package.

Every domain failure raises a subclass of MotboundError so callers (and the
CLI exit-code mapping) can distinguish domain errors from I/O or usage errors.
"""

from __future__ import annotations


class MotboundError(Exception):
    """Base class for all domain errors raised by this package."""


class InfeasibleCurve(MotboundError):
    """Call quotes violate static no-arbitrage (monotonicity, convexity, slope bounds)."""


class BadSpec(MotboundError):
    """A density specification whose mass or mean cannot be computed."""


class DimensionMismatch(MotboundError):
    """Payoff evaluated on a path with the wrong number of dates."""


class OffGrid(MotboundError):
    """Tabulated payoff queried at a point that is not a grid node."""


class LpError(MotboundError):
    """Base class for linear-programming failures."""


class Infeasible(LpError):
    """No feasible point, or an optimum missing A x = rhs by more than the feasibility tolerance."""


class Unbounded(LpError):
    """The objective is unbounded in the optimization direction."""


class IterationLimit(LpError):
    """Simplex iteration budget exhausted before reaching optimality."""


class ScaleExceeded(LpError):
    """Problem too large: over the transport LP's cell ceiling, raised
    before anything cell-sized is built."""


class NotAdmissible(MotboundError):
    """Marginals fail equal means or the convex order, so no martingale coupling exists."""


class DegenerateDual(MotboundError):
    """The LP dual failed the hedge check, or its price missed the bound by more than the gap tolerance."""


class GridCoverage(MotboundError):
    """Envelope evaluation grid does not cover the first marginal's atoms."""
