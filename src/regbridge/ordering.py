"""Concomitant running sums: rows sorted by one vector, marks cumulated.

`order_by` is the package's one such routine.  It sorts the rows by an
ordering vector and cumulates a table of per-row marks along that order.
`all_orderings` calls it once per ordering regressor, with the marks
(residual, regressor row): the bridge reads the residual column and the
kernel's running-mean curve the regressor columns.  The lab's `sums`
experiment calls it with the response as the one mark.  Sorting is
stable, so repeated calls give identical permutations.  Rows tied on the
ordering vector form one block, and at every node inside a block the
table holds the sum to the end of the block (Stute 1997): the sum over
every row at or below the node's value, the `<=` rule of the kernel's
pairwise cdf.  So no output depends on the input row order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ValidationError
from .ols import FitResult

__all__ = ["OrderedView", "order_by", "all_orderings"]


@dataclass(frozen=True)
class OrderedView:
    """One ordering vector's sort and running sums of marks.

    `column` labels the view (the design column it sorts by, or -1).
    `perm` is the stable sort permutation of the ordering vector and
    `sorted_column` the vector in that order.  `sums` is (n + 1, k): row
    i is the sum of the marks over the first i sorted rows, taken to the
    end of i's tie block.  All three are read-only and share no memory
    with their inputs.
    """

    column: int
    perm: np.ndarray
    sorted_column: np.ndarray
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
    if (scol[1:] == scol[:-1]).any():
        # Block-end rule: node k reads the sum over every row <= its value.
        sums[1:] = sums[np.searchsorted(scol, scol, side="right")]
    for a in (perm, scol, sums):
        a.setflags(write=False)
    return OrderedView(column=column, perm=perm, sorted_column=scol, sums=sums)


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
