"""A seeded sweep of marginal systems in convex order, in any price unit.

Each system has 2 or 3 dates.  Date 1 has 3 to 9 atoms at 0.1 N(0, 1), with
Dirichlet(0.2) weights, so some weights are tiny.  At each later date each
atom stays put with probability 0.4 (a barrier candidate); otherwise it
splits into x - d and x + d q / (1 - q), with weights q and 1 - q of its
mass, d ~ U(0.001, 0.05) and q ~ U(0.1, 0.9), which keeps its mean.  The
atoms are then mapped to shift + F x, with F = 10^k for a seeded k and
shift in {0, 1, 100} F.  The payoffs are Asian and lookback calls at a
seeded strike, and on two dates the straddle, the negated straddle and a
forward-start call.  Seeded numpy only, so the suite needs nothing else.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from motbound.measures import DiscreteMeasure, MarginalSystem
from motbound.payoff import (Payoff, asian_call, forward_start_call, forward_start_straddle, lookback_call,
                             negated_straddle)


class Draw(NamedTuple):
    system: MarginalSystem
    payoffs: list[Payoff]
    unit: float  # F


def draw(rng: np.random.Generator, exponents: tuple[int, int]) -> Draw:
    """One system and its payoffs, at F = 10^k with k uniform on the closed
    range ``exponents``."""
    n = int(rng.integers(2, 4))
    points = 0.1 * rng.standard_normal(int(rng.integers(3, 10)))
    weights = rng.dirichlet(np.full(points.size, 0.2))
    dates = [(points, weights)]
    for _ in range(n - 1):
        stay = rng.random(points.size) < 0.4
        d = rng.uniform(0.001, 0.05, points.size)
        q = rng.uniform(0.1, 0.9, points.size)
        move = ~stay
        points = np.concatenate((points[stay], (points - d)[move], (points + d * q / (1.0 - q))[move]))
        weights = np.concatenate((weights[stay], (weights * q)[move], (weights * (1.0 - q))[move]))
        dates.append((points, weights))
    unit = 10.0 ** int(rng.integers(exponents[0], exponents[1] + 1))
    shift = float(rng.choice([0.0, 1.0, 100.0])) * unit
    strike = shift + unit * rng.uniform(-0.1, 0.1)
    system = MarginalSystem([DiscreteMeasure(shift + unit * x, w) for x, w in dates])
    payoffs = [asian_call(strike, n), lookback_call(strike, n)]
    if n == 2:
        payoffs += [forward_start_straddle(), negated_straddle(), forward_start_call(rng.uniform(0.9, 1.1))]
    return Draw(system, payoffs, unit)
