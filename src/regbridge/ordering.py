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
    """Dataset rows sorted by one ordering column.

    `sorted_residuals` is None when the view was built without a fit.
    """

    column: int
    perm: np.ndarray
    sorted_regressors: np.ndarray
    sorted_response: np.ndarray
    sorted_residuals: np.ndarray | None

    @property
    def n(self) -> int:
        return self.perm.shape[0]


def order_by(data: Dataset, fit: FitResult | None, j: int) -> OrderedView:
    """Sort the dataset (and residuals, if a fit is given) by column j."""
    if j not in data.order_columns:
        raise ValidationError(f"column {j} is not an ordering column")
    if fit is not None and fit.n != data.n:
        raise ValidationError("fit and dataset disagree on n")
    perm = np.argsort(data.regressors[:, j], kind="stable")
    perm.setflags(write=False)
    resid = None
    if fit is not None:
        resid = fit.residuals[perm].copy()
        resid.setflags(write=False)
    sreg = data.regressors[perm].copy()
    sreg.setflags(write=False)
    sresp = data.response[perm].copy()
    sresp.setflags(write=False)
    return OrderedView(column=j, perm=perm, sorted_regressors=sreg,
                       sorted_response=sresp, sorted_residuals=resid)


def all_orderings(data: Dataset, fit: FitResult | None) -> tuple[OrderedView, ...]:
    """One ordered view per ordering column, in `order_columns` order."""
    if not data.order_columns:
        raise ValidationError("dataset declares no ordering columns")
    return tuple(order_by(data, fit, j) for j in data.order_columns)
