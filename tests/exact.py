"""An exact LP oracle for the tests: a two-phase tableau simplex in rational
arithmetic on small instances, independent of HiGHS.

The constraint matrices built downstream carry dependent rows (marginal mass
rows and martingale rows share mean information), so the exact solver keeps
Phase I artificials that finish basic at zero in the basis, never lets them
re-enter, and pivots them out at zero step length the moment an entering
column touches their row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import motbound.lp as lp_mod
from motbound.errors import Infeasible, IterationLimit, ScaleExceeded, Unbounded

from constraints import triples

EXACT_MAX_VARS = 200


class ExactSolution(NamedTuple):
    """An exact optimum of the LP in its own sense, and the pivots over both phases."""

    objective: Fraction
    primal: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]
    iterations: int


def _exact_pivot(tab, xb, basis, r, q):
    piv = tab[r][q]
    inv = Fraction(1) / piv
    tab[r] = [v * inv for v in tab[r]]
    xb[r] = xb[r] * inv
    row_r = tab[r]
    for i, row in enumerate(tab):
        if i == r:
            continue
        f = row[q]
        if f:
            tab[i] = [a - f * b_ for a, b_ in zip(row, row_r)]
            xb[i] = xb[i] - f * xb[r]
    basis[r] = q


def _exact_phase(tab, xb, basis, c, n_struct, guard, it):
    """Bland's rule throughout; exact comparisons, no tolerances; at most
    ``motbound.lp.MAX_ITER`` pivots over both phases, read at each call."""
    m = len(tab)
    while True:
        cb = [c[basis[i]] for i in range(m)]
        entering = -1
        for j in range(n_struct):
            if j in basis:
                continue
            rc = c[j] - sum(cb[i] * tab[i][j] for i in range(m))
            if rc < 0:
                entering = j
                break
        if entering < 0:
            return it
        q = entering
        best_ratio = None
        best_rows: list[int] = []
        for i in range(m):
            d = tab[i][q]
            if guard and basis[i] >= n_struct and d != 0:
                ratio = Fraction(0)
            elif d > 0:
                ratio = xb[i] / d
            else:
                continue
            if best_ratio is None or ratio < best_ratio:
                best_ratio = ratio
                best_rows = [i]
            elif ratio == best_ratio:
                best_rows.append(i)
        if best_ratio is None:
            raise Unbounded("no blocking ratio for entering column")
        if guard:
            art_rows = [i for i in best_rows if basis[i] >= n_struct]
            if art_rows:
                best_rows = art_rows
        r = min(best_rows, key=lambda i: basis[i])
        if it >= lp_mod.MAX_ITER:
            raise IterationLimit(f"exceeded {lp_mod.MAX_ITER} exact pivots")
        _exact_pivot(tab, xb, basis, r, q)
        it += 1


def _as_rational(x: float) -> Fraction:
    """Simplest rational within one part in 10^12 of the float.

    Problem data is usually meant exactly (weights like 1/3, integer payoff
    differences); float64 storage perturbs non-dyadic values by ~1e-16, which
    is enough to make exactly dependent rows inconsistent.  Snapping to the
    nearest small-denominator rational restores the intended instance."""
    return Fraction(x).limit_denominator(10**12)


def solve_exact(lp: lp_mod.LinearProgram) -> ExactSolution:
    """Two-phase tableau simplex in Fraction arithmetic (Bland's rule).

    Oracle-scale only: refuses instances with more than 200 variables.
    Coefficients are read through :func:`_as_rational`.
    """
    m, n = lp.n_rows, lp.n_cols
    if n > EXACT_MAX_VARS:
        raise ScaleExceeded(f"{n} variables exceeds the exact-solver limit of {EXACT_MAX_VARS}")
    flip = lp.sense == "max"
    c_struct = [_as_rational(x) if not flip else -_as_rational(x) for x in lp.cost.tolist()]
    b = [_as_rational(x) for x in lp.rhs.tolist()]
    dense = [[Fraction(0)] * n for _ in range(m)]
    for r, cc, v in zip(*(a.tolist() for a in triples(lp.constraints))):
        dense[r][cc] = _as_rational(v)
    row_sign = [1] * m
    for i in range(m):
        if b[i] < 0:
            row_sign[i] = -1
            b[i] = -b[i]
            dense[i] = [-v for v in dense[i]]
    tab = [dense[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)] for i in range(m)]
    xb = list(b)
    basis = [n + i for i in range(m)]

    c1 = [Fraction(0)] * n + [Fraction(1)] * m
    iters = _exact_phase(tab, xb, basis, c1, n, guard=False, it=0)
    if sum(c1[basis[i]] * xb[i] for i in range(m)) != 0:
        raise Infeasible("phase 1 optimum is positive")

    c2 = c_struct + [Fraction(0)] * m
    iters = _exact_phase(tab, xb, basis, c2, n, guard=True, it=iters)

    x = [Fraction(0)] * (n + m)
    for i in range(m):
        x[basis[i]] = xb[i]
    cb = [c2[basis[i]] for i in range(m)]
    dual = []
    for i in range(m):
        y_i = sum(cb[k] * tab[k][n + i] for k in range(m)) * row_sign[i]
        dual.append(-y_i if flip else y_i)
    obj = sum(c2[j] * x[j] for j in range(n))
    if flip:
        obj = -obj
    return ExactSolution(objective=obj, primal=tuple(x[:n]), dual=tuple(dual), iterations=iters)
