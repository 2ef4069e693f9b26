"""Path payoffs on finitely many dates.

A payoff maps a path (s_1, ..., s_n) to a real number.  The built-in kinds
cover the exotics the solver is exercised on; ``tabulated`` wraps explicit
values on a product grid (exact node lookup only) and ``custom`` wraps an
arbitrary callable.

Each built-in kind is one :class:`Builtin` record in ``BUILTINS``; every
evaluation routine calls its formula, and :class:`Payoff` checks a built-in's
``n`` and ``params`` (finite) against it, so every ``Payoff`` that exists is valid.

No payoff needs a growth bound: the date-1 mass rows keep every cell mass
in [0, 1], so the transport LP's feasible set is bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, OffGrid
from .measures import _numbers


class LastAxis(NamedTuple):
    """z -> payoff(history, z) is piecewise linear with these kinks (each
    broadcast over the history coordinates) and these exact wing slopes."""

    kinks: tuple
    left_slope: float
    right_slope: float


class Builtin(NamedTuple):
    """A built-in kind: ``values(k, n, s)`` over per-date arrays ``s`` that broadcast
    together, and its final-date data ``last_axis(k, n, history)``, for parameter value ``k``."""

    param: str | None  # the one parameter, or None when the kind takes none
    default: float | None  # its default, or None when it is required
    dates: int | None  # the date count, or None for any n >= 2
    values: Callable
    last_axis: Callable


BUILTINS = {
    "forward_start_call": Builtin("strike_ratio", 1.0, 2, lambda k, n, s: np.maximum(s[-1] - k * s[0], 0.0),
                                  lambda k, n, h: LastAxis((k * h[0],), 0.0, 1.0)),
    "forward_start_straddle": Builtin(None, None, 2, lambda k, n, s: np.abs(s[-1] - s[0]),
                                      lambda k, n, h: LastAxis((h[0],), -1.0, 1.0)),
    "negated_straddle": Builtin(None, None, 2, lambda k, n, s: -np.abs(s[-1] - s[0]),
                                lambda k, n, h: LastAxis((h[0],), 1.0, -1.0)),
    "asian_call": Builtin("strike", None, None, lambda k, n, s: np.maximum(sum(s) / n - k, 0.0),
                          lambda k, n, h: LastAxis((n * k - sum(h),), 0.0, 1.0 / n)),
    "lookback_call": Builtin("strike", None, None, lambda k, n, s: np.maximum(reduce(np.maximum, s) - k, 0.0),
                             lambda k, n, h: LastAxis((k, np.maximum(reduce(np.maximum, h), k)), 0.0, 1.0)),
}
KINDS = (*BUILTINS, "tabulated", "custom")


@dataclass(frozen=True, eq=False)  # array fields: identity equality and hash
class Payoff:
    """Payoff of an exotic on ``n`` dates.  Build with the module constructors."""

    kind: str
    n: int
    params: dict
    grids: tuple[np.ndarray, ...] | None = None
    values: np.ndarray | None = None
    fn: Callable[[Sequence[float]], float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("need at least two dates")
        record = BUILTINS.get(self.kind)
        if record is not None and record.dates not in (None, self.n):
            raise ValueError(f"payoff kind {self.kind!r} cannot take n={self.n}; it covers {record.dates} dates")
        extra = set(self.params) - ({record.param} if record else set())
        if extra:
            raise ValueError(f"payoff kind {self.kind!r} takes no parameter {extra.pop()!r}")
        if self.kind == "tabulated":
            if self.grids is None or self.values is None:
                raise ValueError("payoff kind 'tabulated' needs 'grids' and 'values'")
            if len(self.grids) != self.n:
                raise ValueError(f"payoff kind 'tabulated' cannot take n={self.n}; it has {len(self.grids)} grids")
        if self.kind == "custom" and not callable(self.fn):
            raise ValueError("payoff kind 'custom' needs a callable 'fn'")
        if record is not None and record.param is not None:
            value = self.params.get(record.param, record.default)
            if value is None:
                raise ValueError(f"payoff kind {self.kind!r} needs parameter {record.param!r}")
            if isinstance(value, (list, dict, bool)) or not np.isfinite(float(value)):
                raise ValueError(f"payoff kind {self.kind!r} needs a finite {record.param!r}, got {value!r}")
            object.__setattr__(self, "params", {record.param: float(value)})

    def to_json(self) -> dict:
        if self.kind == "custom":
            raise ValueError("custom payoffs have no JSON form")
        params = dict(self.params)
        if self.kind == "tabulated":
            params["grids"] = [[float(x) for x in g] for g in self.grids]
            params["values"] = [float(v) for v in np.asarray(self.values).ravel()]
        return {"kind": self.kind, "n": self.n, "params": params}

    @classmethod
    def from_json(cls, obj: dict) -> "Payoff":
        """Rebuild a payoff; ``n`` defaults to the kind's date count, else 2.
        A non-integer ``n``, an ``n`` or a parameter the kind cannot take, or
        a JSON value of the wrong type raises ValueError naming the field."""
        if not (isinstance(obj, dict) and isinstance(obj.get("kind"), str)
                and isinstance(obj.get("params", {}), dict)):
            raise ValueError("a payoff must be an object whose 'kind' is a string and 'params' an object")
        kind, params = obj["kind"], dict(obj.get("params", {}))
        if not isinstance(n := obj.get("n", 2), (int, float)) or not float(n).is_integer():
            raise ValueError(f"payoff n {n!r} is not an integer")
        if kind == "tabulated":  # Payoff checks n and any parameter besides grids and values
            if missing := [name for name in ("grids", "values") if name not in params]:
                raise ValueError(f"payoff kind 'tabulated' needs parameter {missing[0]!r}")
            grids, values = params.pop("grids"), params.pop("values")
            if not (isinstance(grids, list) and all(map(_numbers, grids)) and _numbers(values)):
                raise ValueError("payoff kind 'tabulated' needs 'grids' and 'values' as lists of numbers")
            payoff = tabulated(grids, values)
            return replace(payoff, n=int(obj.get("n", payoff.n)), params=params)
        if kind not in BUILTINS:
            raise ValueError(f"cannot build payoff kind {kind!r} from JSON")
        return cls(kind=kind, n=int(obj.get("n", BUILTINS[kind].dates or 2)), params=params)


def forward_start_call(strike_ratio: float = 1.0) -> Payoff:
    """(s_2 - k * s_1)^+ on two dates."""
    return Payoff(kind="forward_start_call", n=2, params={"strike_ratio": strike_ratio})


def forward_start_straddle() -> Payoff:
    """|s_2 - s_1| on two dates."""
    return Payoff(kind="forward_start_straddle", n=2, params={})


def negated_straddle() -> Payoff:
    """-|s_2 - s_1| on two dates; minimizing it prices the straddle's upper bound."""
    return Payoff(kind="negated_straddle", n=2, params={})


def asian_call(strike: float, n: int = 2) -> Payoff:
    """(mean(s) - K)^+ over all n dates."""
    return Payoff(kind="asian_call", n=n, params={"strike": strike})


def lookback_call(strike: float, n: int = 2) -> Payoff:
    """(max(s) - K)^+ over all n dates."""
    return Payoff(kind="lookback_call", n=n, params={"strike": strike})


def tabulated(grids: Sequence[Sequence[float]], values) -> Payoff:
    """Explicit values on a product grid; evaluation off the grid raises OffGrid."""
    gs = tuple(np.asarray(g, dtype=float) for g in grids)
    if len(gs) < 2 or any(g.size == 0 or np.any(np.diff(g) <= 0) for g in gs):
        raise ValueError("grids must be nonempty and strictly increasing, one per date")
    shape = tuple(g.size for g in gs)
    vals = np.asarray(values, dtype=float).reshape(shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("tabulated values must be finite")
    return Payoff(kind="tabulated", n=len(gs), params={}, grids=gs, values=vals)


def custom(fn: Callable[[Sequence[float]], float], n: int) -> Payoff:
    """Arbitrary callable payoff on ``n`` dates; ``fn`` takes one path."""
    return Payoff(kind="custom", n=n, params={}, fn=fn)


def _grid_index(grid: np.ndarray, x) -> np.ndarray:
    """Node index of every entry of x; OffGrid names the first miss."""
    x = np.asarray(x, dtype=float)
    j = np.searchsorted(grid, x)
    below, above = np.clip(j - 1, 0, grid.size - 1), np.clip(j, 0, grid.size - 1)
    tol = 1e-9 * (1.0 + np.abs(x))
    idx = np.where(np.abs(grid[below] - x) <= tol, below, above)
    miss = np.abs(grid[idx] - x) > tol
    if miss.any():
        raise OffGrid(f"point {float(x[miss][0] if x.ndim else x)!r} is not a grid node")
    return idx


def _values(payoff: Payoff, *s) -> np.ndarray:
    """Payoff over per-date coordinate arrays that broadcast together."""
    record = BUILTINS.get(payoff.kind)
    if record is not None:
        return record.values(payoff.params.get(record.param), payoff.n, s)
    if payoff.kind == "tabulated":
        return payoff.values[tuple(_grid_index(g, x) for g, x in zip(payoff.grids, s))]
    s = np.broadcast_arrays(*s)
    out = np.empty(s[0].shape)
    for idx in np.ndindex(out.shape):
        out[idx] = payoff.fn(tuple(x[idx] for x in s))
    return out


def last_axis(payoff: Payoff, *history) -> LastAxis | None:
    """Kinks and wing slopes in the final date for per-date history
    coordinates (scalars or arrays that broadcast together).  None for
    tabulated and custom payoffs, whose continuum behaviour is not modelled."""
    record = BUILTINS.get(payoff.kind)
    return None if record is None else record.last_axis(payoff.params.get(record.param), payoff.n, history)


def evaluate(payoff: Payoff, s: Sequence[float]) -> float:
    """Payoff value on one path."""
    s = np.asarray(s, dtype=float).ravel()
    if s.size != payoff.n:
        raise DimensionMismatch(f"payoff takes {payoff.n} dates, got {s.size}")
    return float(_values(payoff, *s))


def evaluate_last_axis(payoff: Payoff, history, last) -> np.ndarray:
    """Payoff over the final date: ``history`` holds the n - 1 earlier
    coordinates, each a scalar or an array broadcasting against ``last``."""
    if len(history) != payoff.n - 1:
        raise DimensionMismatch(f"history must have {payoff.n - 1} dates, got {len(history)}")
    return _values(payoff, *(np.asarray(h, dtype=float) for h in history),
                   np.asarray(last, dtype=float))


def tabulate(payoff: Payoff, grids: Sequence[Sequence[float]]) -> np.ndarray:
    """Payoff values over the product grid, flattened row-major in date order.

    The entry for cell (i_1, ..., i_n) sits at flat position
    ``((i_1 * m_2 + i_2) * m_3 + ...) + i_n``.
    """
    gs = [np.asarray(g, dtype=float) for g in grids]
    if len(gs) != payoff.n:
        raise DimensionMismatch(f"payoff takes {payoff.n} dates, got {len(gs)} grids")
    if any(g.size == 0 for g in gs):
        raise ValueError("grids must be nonempty")
    out = _values(payoff, *np.ix_(*gs))
    if not np.all(np.isfinite(out)):
        raise ValueError("payoff produced non-finite values on the grid")
    return np.ascontiguousarray(out).ravel()


def last_coord_kinks(payoff: Payoff, history: Sequence[float]) -> list[float]:
    """Kink locations of s_n -> payoff(history, s_n): a one-history view of
    :func:`last_axis`, used by the tests' pointwise reference for
    ``hedge.verify``.  Empty for tabulated and custom payoffs."""
    data = last_axis(payoff, *np.asarray(history, dtype=float).ravel())
    return [] if data is None else [float(k) for k in data.kinks]
