"""Concomitant running sums: rows sorted by one vector, marks cumulated.

`order_by` is the package's one such routine.  It sorts the rows by an
ordering vector and cumulates a table of per-row marks along that order.
`all_orderings` calls it once per ordering regressor, with the marks
(residual, regressor row): the bridge reads the residual column and the
kernel's running-mean curve the regressor columns.  The lab's `sums`
experiment calls it with the response as the one mark.  Sorting is
stable, so repeated calls give identical permutations.  Rows tied on the
ordering vector form one block, and a node's block end, the count of rows
at or below its value, is the package's one `<=` tie rule: the table
holds the sum to the block end (Stute 1997) and the kernel's pairwise
cdf counts rows by it, so no output depends on the input row order.  A
level t reads node [nt], `floor_index`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ValidationError
from .ols import FitResult

__all__ = ["OrderedView", "order_by", "all_orderings", "floor_index"]


def check_levels(t, message: str = "levels must lie in [0, 1]") -> np.ndarray:
    """t as a float array; raises ValidationError(message) unless every
    entry lies in [0, 1], so NaN is refused too."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise ValidationError(message)
    return t


def floor_index(n: int, t) -> np.ndarray:
    """Count of order statistics at or below level t: the [nt] convention.

    A small forward nudge keeps products like 0.3 * 10 from landing one
    step low through floating-point rounding.
    """
    t = check_levels(t, "grid levels must lie in [0, 1]")
    return np.minimum(np.maximum(np.floor(n * t + 1e-9).astype(int), 0), n)


@dataclass(frozen=True)
class OrderedView:
    """One ordering vector's sort and running sums of marks.

    `column` labels the view (the design column it sorts by, or -1).
    `perm` is the stable sort permutation of the ordering vector.  `ends`
    (n + 1,) holds the block ends: ends[i] counts the rows at or below the
    i-th sorted value, and ends[0] is 0.  `sums` is (n + 1, k): row i sums
    the marks over the first ends[i] sorted rows.  All three are
    read-only and share no memory with their inputs.
    """

    column: int
    perm: np.ndarray
    ends: np.ndarray
    sums: np.ndarray

    @property
    def n(self) -> int:
        return self.perm.shape[0]


def order_by(values, marks, column: int = -1) -> OrderedView:
    """Sort the rows by `values` (n,) and cumulate `marks` (n, k) along it."""
    values = np.asarray(values, dtype=float)
    marks = np.asarray(marks, dtype=float)
    if values.ndim != 1 or marks.ndim != 2 or len(marks) != len(values):
        raise ValidationError("need values of shape (n,) and marks of shape (n, k)")
    perm = np.argsort(values, kind="stable")
    scol = values[perm]
    sums = np.zeros((len(values) + 1, marks.shape[1]))
    np.take(marks, perm, axis=0, out=sums[1:])
    np.cumsum(sums[1:], axis=0, out=sums[1:])
    ends = np.arange(len(values) + 1)
    if (scol[1:] == scol[:-1]).any():
        # Block-end rule: node k reads the sum over every row <= its value.
        ends[1:] = np.searchsorted(scol, scol, side="right")
        sums = sums[ends]
    for a in (perm, ends, sums):
        a.setflags(write=False)
    return OrderedView(column=column, perm=perm, ends=ends, sums=sums)


def all_orderings(data: Dataset, fit: FitResult) -> tuple[OrderedView, ...]:
    """One view per ordering column, in `order_columns` order, with the
    marks (residual, regressor row)."""
    if not data.order_columns:
        raise ValidationError("dataset declares no ordering columns")
    if fit.n != data.n:
        raise ValidationError("fit and dataset disagree on n")
    marks = np.column_stack((fit.residuals, data.regressors))
    return tuple(order_by(data.regressors[:, j], marks, j)
                 for j in data.order_columns)
