"""End-to-end adequacy test: fit, bridges, statistic, calibrated p-value.

This is the one pipeline both the command-line driver and the Monte Carlo
study loop call, so size and power experiments exercise exactly the code
a user runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bridge import BridgeProcess, omega_sq, residual_bridge
from .covmodel import CovarianceModel, empirical_covariance
from .dataset import Dataset
from .errors import ValidationError
from .limitsim import (GridSpec, NullDistribution, build_grid_covariance,
                       factor_psd, p_value, simulate_null)
from .ols import FitResult, fit_lse
from .ordering import all_orderings

__all__ = ["AdequacyResult", "run_adequacy_test"]


@dataclass(frozen=True, eq=False)
class AdequacyResult:
    """Everything the adequacy test produced, in pipeline order."""

    fit: FitResult
    bridges: tuple[BridgeProcess, ...]
    statistic: float
    covariance: CovarianceModel
    null: NullDistribution
    p_value: float
    level: float

    @property
    def reject(self) -> bool:
        return self.p_value <= self.level

    def null_quantiles(self, qs=(0.9, 0.95, 0.99)) -> dict[str, float]:
        return {str(q): float(v) for q, v in zip(qs, self.null.quantile(qs))}


def run_adequacy_test(data: Dataset, grid_m: int = 100, replicates: int = 10000,
                      seed=0, level: float = 0.05) -> AdequacyResult:
    """Run the full test on a dataset.

    Fits by least squares, builds one residual bridge per ordering column,
    integrates the squared bridges exactly, estimates the limit kernel
    from the same data, and calibrates the statistic against the exact
    law of the limiting statistic on an m-point grid.  Nothing is drawn:
    `replicates` and `seed` size and seed only the Monte Carlo sample
    ``result.null.samples``, drawn on first read.
    """
    if not 0.0 < level <= 1.0:
        raise ValidationError(f"level must lie in (0, 1], got {level}")
    fit = fit_lse(data)
    views = all_orderings(data, fit)
    bridges = tuple(residual_bridge(v, fit.sigma2_hat) for v in views)
    stat = omega_sq(bridges)
    cov = empirical_covariance(data, views, gram=fit.gram)
    grid = GridSpec(grid_m)
    spectrum = factor_psd(build_grid_covariance(cov, grid))
    null = simulate_null(spectrum, replicates, grid, seed)
    return AdequacyResult(fit=fit, bridges=bridges, statistic=stat,
                          covariance=cov, null=null,
                          p_value=p_value(stat, null), level=level)
