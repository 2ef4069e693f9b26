"""A general LP's column source for the tests, and any source's triples.

``Constraints`` holds A once as sparse (row, col, value) triples in
column-major order, checked once when built, and serves ``motbound.lp`` as
any column source does; ``triples`` reads a source's triples off its
columns.  The tests build general LPs on the first, and compare a
transport LP's columns, row scales and passes with a ``Constraints`` of its
own triples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from motbound.lp import ColumnSource, row_scale_of


def triples(source: ColumnSource) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A's (row, col, value) triples, column by column, each column's in
    the order ``source.columns`` gives them."""
    cols = np.arange(source.n_cols)
    start, rows, vals = source.columns(cols)
    return rows, np.repeat(cols, np.diff(start)), vals


@dataclass(frozen=True, eq=False)  # array fields: identity equality and hash
class Constraints:
    """``A x = rhs`` over ``n_cols`` variables, with A held once as sparse
    (row, col, value) triples in column-major order, and ``start``, where
    each column's triples start (one per column and the end).  Checked once,
    when built: equal triple lengths, finite coefficients and rhs, indices in
    range and no duplicate (row, col) pair, which the stable sort into
    column-major order leaves as equal neighbours.  Next to the sort, each
    row gets its scale, ``row_scale``, R_i: the inverse of the smallest
    power of two at or above row i's largest |coefficient| (1 for a row
    with none).  The arrays are read-only, so every LP built on one object
    shares the check and the scales.  ``group``, which must divide
    ``n_cols``, is the size of the runs of consecutive columns of which a
    pricing round adds at most one each: 1 for a general LP, and a
    transport LP's own (the cells of one history) in a copy of it."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    rhs: np.ndarray
    n_cols: int
    group: int = 1
    start: np.ndarray = field(init=False)
    row_scale: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.int64).ravel()
        cols = np.asarray(self.cols, dtype=np.int64).ravel()
        vals = np.asarray(self.vals, dtype=float).ravel()
        rhs = np.asarray(self.rhs, dtype=float).ravel()
        n_cols = int(self.n_cols)
        if n_cols < 1 or rhs.size < 1:
            raise ValueError("need at least one variable and one constraint")
        if self.group < 1 or n_cols % self.group:
            raise ValueError(f"a group of {self.group} columns does not divide {n_cols} columns")
        if not (rows.size == cols.size == vals.size):
            raise ValueError("triple arrays must have equal length")
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(rhs))):
            raise ValueError("coefficients and rhs must be finite")
        if rows.size:
            if rows.min() < 0 or rows.max() >= rhs.size:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("col index out of range")
        order = np.argsort(cols * rhs.size + rows, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        if np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
            raise ValueError("duplicate (row, col) triples")
        start = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n_cols))))
        top = np.zeros(rhs.size)
        np.maximum.at(top, rows, np.abs(vals))
        for name, arr in (("rows", rows), ("cols", cols), ("vals", vals), ("rhs", rhs), ("start", start),
                          ("row_scale", row_scale_of(top))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n_cols", n_cols)

    @classmethod
    def of(cls, source: ColumnSource) -> Constraints:
        """A ``Constraints`` of ``source``'s triples, rhs and group."""
        return cls(*triples(source), source.rhs, source.n_cols, source.group)

    def columns(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The columns ``cols`` of A, in that order: starts (one per column
        and the end), row indices and values."""
        counts = self.start[cols + 1] - self.start[cols]
        starts = np.concatenate(([0], np.cumsum(counts)))
        take = np.repeat(self.start[cols] - starts[:-1], counts) + np.arange(starts[-1])
        return starts, self.rows[take], self.vals[take]

    def reduced(self, cost: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The reduced costs ``cost - A^T y`` of every column."""
        return cost - np.bincount(self.cols, self.vals * y[self.rows], minlength=self.n_cols)

    def times(self, x: np.ndarray) -> np.ndarray:
        """``A x``, one value per row."""
        return np.bincount(self.rows, self.vals * x[self.cols], minlength=self.rhs.size)
