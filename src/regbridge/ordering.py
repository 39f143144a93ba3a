"""Row orderings induced by the ordering regressors.

Each ordering column yields a view of the dataset sorted by that column.
Sorting is stable, so tied regressor values keep their original relative
row order and repeated calls give identical permutations.
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
    """Dataset rows and fit residuals sorted by one ordering column.

    `perm` is the stable sort permutation of the column; the two sorted
    arrays are read-only and share no memory with the dataset or the fit.
    """

    column: int
    perm: np.ndarray
    sorted_regressors: np.ndarray
    sorted_residuals: np.ndarray

    @property
    def n(self) -> int:
        return self.perm.shape[0]


def order_by(data: Dataset, fit: FitResult, j: int) -> OrderedView:
    """Sort the dataset rows and the fit's residuals by column j."""
    if j not in data.order_columns:
        raise ValidationError(f"column {j} is not an ordering column")
    if fit.n != data.n:
        raise ValidationError("fit and dataset disagree on n")
    perm = np.argsort(data.regressors[:, j], kind="stable")
    # Fancy indexing returns fresh arrays: nothing to copy, only to freeze.
    resid, sreg = fit.residuals[perm], data.regressors[perm]
    for a in (perm, resid, sreg):
        a.setflags(write=False)
    return OrderedView(column=j, perm=perm, sorted_regressors=sreg,
                       sorted_residuals=resid)


def all_orderings(data: Dataset, fit: FitResult) -> tuple[OrderedView, ...]:
    """One ordered view per ordering column, in `order_columns` order."""
    if not data.order_columns:
        raise ValidationError("dataset declares no ordering columns")
    return tuple(order_by(data, fit, j) for j in data.order_columns)
