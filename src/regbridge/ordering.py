"""Row orderings induced by the ordering regressors.

Each ordering column yields a view of the dataset sorted by that column,
and one table of running sums of (residual, regressor row) along it:
the bridge reads its residual column and the kernel's running-mean
curve its regressor columns.  Sorting is stable, so repeated calls give
identical permutations.  Rows tied on the column form one block, and at
every node inside a block the table holds the sum to the end of the
block (Stute 1997): the sum over every row at or below the node's value,
the `<=` rule of the kernel's pairwise cdf.  So no output depends on the
input row order.
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
    """One ordering column's sort and running sums.

    `perm` is the stable sort permutation of the column and
    `sorted_column` the column in that order.  `sums` is (n + 1, 1 + p):
    row k is the sum of (residual, regressor row) over the first k sorted
    rows, taken to the end of k's tie block.  All three are read-only and
    share no memory with the dataset or the fit.
    """

    column: int
    perm: np.ndarray
    sorted_column: np.ndarray
    sums: np.ndarray

    @property
    def n(self) -> int:
        return self.perm.shape[0]


def order_by(data: Dataset, fit: FitResult, j: int) -> OrderedView:
    """Sort the dataset by column j and cumulate residuals and rows along it."""
    if j not in data.order_columns:
        raise ValidationError(f"column {j} is not an ordering column")
    if fit.n != data.n:
        raise ValidationError("fit and dataset disagree on n")
    col = data.regressors[:, j]
    perm = np.argsort(col, kind="stable")
    scol = col[perm]
    sums = np.zeros((data.n + 1, 1 + data.p))
    np.take(fit.residuals, perm, out=sums[1:, 0])
    np.take(data.regressors, perm, axis=0, out=sums[1:, 1:])
    np.cumsum(sums[1:], axis=0, out=sums[1:])
    if (scol[1:] == scol[:-1]).any():
        # Block-end rule: node k reads the sum over every row <= its value.
        sums[1:] = sums[np.searchsorted(scol, scol, side="right")]
    for a in (perm, scol, sums):
        a.setflags(write=False)
    return OrderedView(column=j, perm=perm, sorted_column=scol, sums=sums)


def all_orderings(data: Dataset, fit: FitResult) -> tuple[OrderedView, ...]:
    """One ordered view per ordering column, in `order_columns` order."""
    if not data.order_columns:
        raise ValidationError("dataset declares no ordering columns")
    return tuple(order_by(data, fit, j) for j in data.order_columns)
