"""Least-squares fitting for the adequacy test.

The fit is computed through the singular value decomposition of the design
matrix; the Gram matrix is never inverted explicitly.  The squared ratio of
extreme singular values estimates the condition number of the Gram matrix,
and fits whose estimate exceeds a threshold are rejected as singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import SingularDesignError, ValidationError

__all__ = ["FitResult", "fit_lse", "permute_rows", "COND_THRESHOLD"]

COND_THRESHOLD = 1e12


@dataclass(frozen=True)
class FitResult:
    """Output of a least-squares fit.

    theta_hat : ndarray, shape (p,)
        Coefficient estimates.
    residuals : ndarray, shape (n,)
        Response minus fitted values, row order of the input data.
    sigma2_hat : float
        Residual sum of squares divided by n - p.
    gram : ndarray, shape (p, p)
        Normalized Gram matrix X'X / n.
    condition : float
        Condition-number estimate of X'X.
    """

    theta_hat: np.ndarray
    residuals: np.ndarray
    sigma2_hat: float
    gram: np.ndarray
    condition: float

    @property
    def n(self) -> int:
        return self.residuals.shape[0]


def fit_lse(data: Dataset) -> FitResult:
    """Fit the linear model by least squares.

    Raises :class:`SingularDesignError` when the Gram condition estimate
    reaches `COND_THRESHOLD` and :class:`ValidationError` when n <= p.
    """
    n, p = data.n, data.p
    if n <= p:
        raise ValidationError(f"need n > p for a residual variance (n={n}, p={p})")
    X = data.regressors
    y = data.response
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if s[-1] == 0.0:
        condition = np.inf
    else:
        condition = float((s[0] / s[-1]) ** 2)
    if not condition < COND_THRESHOLD:
        raise SingularDesignError(
            f"Gram condition estimate {condition:.3e} exceeds {COND_THRESHOLD:.1e}")
    theta = Vt.T @ ((U.T @ y) / s)
    residuals = y - X @ theta
    rss = float(residuals @ residuals)
    sigma2 = rss / (n - p)
    gram = (X.T @ X) / n
    return FitResult(theta_hat=theta, residuals=residuals,
                     sigma2_hat=sigma2, gram=gram, condition=condition)


def permute_rows(data: Dataset, perm) -> Dataset:
    """Reorder the rows of a dataset by a permutation of 0..n-1."""
    perm = np.asarray(perm, dtype=int)
    if perm.shape != (data.n,) or not np.array_equal(np.sort(perm), np.arange(data.n)):
        raise ValidationError("perm must be a permutation of 0..n-1")
    return Dataset(data.regressors[perm], data.response[perm],
                   data.order_columns, data.intercept_column,
                   data.regressor_names, data.response_name)
