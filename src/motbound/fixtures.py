"""Reference instances used across the test suite and the docs.

Instance A: mu1 = (delta_{-1} + delta_1)/2, mu2 = (delta_{-2} + delta_0 + delta_2)/3,
straddle payoff.  Every martingale coupling prices the straddle at 7/6.

Instance B: same marginals, payoff = indicator of the single cell (-1, -2);
the coupling family leaves a genuine spread, lower 1/4 and upper 1/3.

The smooth pair: mu1 uniform on [-1, 1], mu2 with the trapezoidal density
(2+s)/3 on [-2,-1], 1/3 on [-1,1], (2-s)/3 on [1,2].  The straddle's lower
bound is exactly 1/3, attained by moving mass (1 -+ s1)/6 to the tangent
points -(3+s1)/2 and (3-s1)/2, and the dual optimizer has the closed form
coded below.
"""

from __future__ import annotations

import numpy as np

from .hedge import DeltaTable, PiecewiseLinear, SemiStaticHedge
from .measures import DensitySpec, DiscreteMeasure, MarginalSystem, counterexample_edges, discretize
from .payoff import Payoff, tabulated


def instance_a_marginals() -> MarginalSystem:
    mu1 = DiscreteMeasure(points=[-1.0, 1.0], weights=[0.5, 0.5])
    mu2 = DiscreteMeasure(points=[-2.0, 0.0, 2.0], weights=[1 / 3, 1 / 3, 1 / 3])
    return MarginalSystem([mu1, mu2])


def instance_b_payoff() -> Payoff:
    return tabulated(grids=[[-1.0, 1.0], [-2.0, 0.0, 2.0]],
                     values=[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def uniform_spec() -> DensitySpec:
    return DensitySpec.uniform(-1.0, 1.0)


def trapezoid_spec() -> DensitySpec:
    return DensitySpec.piecewise_linear(xs=[-2.0, -1.0, 1.0, 2.0],
                                        ys=[0.0, 1 / 3, 1 / 3, 0.0])


def smooth_pair(m: int) -> MarginalSystem:
    """The uniform/trapezoid marginals discretized into m equal-mass cells each."""
    mu1 = discretize(uniform_spec(), m)
    mu2 = discretize(trapezoid_spec(), m)
    return MarginalSystem([mu1, mu2])


def smooth_u1(s):
    return (9.0 - 5.0 * np.asarray(s, dtype=float) ** 2) / 6.0


def smooth_u2(s):
    s = np.asarray(s, dtype=float)
    mid = -(9.0 - 5.0 * s ** 2) / 6.0
    left = -3.0 - 3.0 * s - 2.0 * s ** 2 / 3.0
    right = -3.0 + 3.0 * s - 2.0 * s ** 2 / 3.0
    out = np.where(s < -1.0, left, np.where(s > 1.0, right, mid))
    return float(out) if out.ndim == 0 else out


def smooth_delta(s):
    return -2.0 * np.asarray(s, dtype=float) / 3.0


def smooth_hedge(s1_grid, s2_grid) -> SemiStaticHedge:
    """The closed-form dual sampled on explicit grids.

    u2 is sampled on s2_grid joined with s1_grid (the straddle's kinks sit at
    s2 = s1, and verification probes there), so every checked point carries
    the exact closed-form value.  Wings use the tangent slopes at the ends of
    the quadratic pieces, which stay on the admissible side."""
    s1_grid = np.asarray(s1_grid, dtype=float).ravel()
    knots2 = np.union1d(np.asarray(s2_grid, dtype=float).ravel(), s1_grid)
    u1 = PiecewiseLinear.from_samples(s1_grid, smooth_u1(s1_grid))
    left = -3.0 - 4.0 * knots2[0] / 3.0
    right = 3.0 - 4.0 * knots2[-1] / 3.0
    u2 = PiecewiseLinear(knots2, smooth_u2(knots2), float(left), float(right))
    return SemiStaticHedge(0.0, (u1, u2), (DeltaTable((s1_grid,), smooth_delta(s1_grid)),), "sub")


def counterexample_value(n_blocks: int) -> float:
    """Exact bound -(sum of lengths squared)/8 for the negated straddle when
    every block's second marginal has an even atom count."""
    edges = counterexample_edges(n_blocks)
    lengths = np.diff(edges)
    return float(-(lengths ** 2).sum() / 8.0)
