"""Adequacy testing for linear regression via residual partial-sum bridges.

The test orders the observations by each designated regressor, cumulates
the studentized residuals into bridge processes, integrates their squares
into one omega-squared statistic, and calibrates it against a simulated
draw of the limiting Gaussian functional whose covariance kernel is
estimated from the same data.  A built-in Monte Carlo lab checks the
distributional claims behind the calibration at desk scale.

The lab loads on first use: the submodule `fixtures` and the `mclab`
names (`ErrorCell`, `VerificationReport`, `SizePowerResult`,
`verify_field_covariance`, `verify_sum_covariance`,
`verify_bridge_covariance`, `size_power_study`) resolve through the
module-level ``__getattr__``, so ``import regbridge`` and a
``regbridge test`` run never import them.
"""

from importlib import import_module as _import_module

from .errors import (RegBridgeError, SchemaError, ParseError, ValidationError,
                     SingularDesignError, DegenerateModelError,
                     UnsupportedModelError)
from .rng import philox_stream, collapse_seed, as_seed_key
from .dataset import (Dataset, ColumnSchema, load_csv, write_csv,
                      QuantileFunction, IdentityQuantile, AffineQuantile,
                      FunctionQuantile, Copula, IndependenceCopula,
                      GaussianCopula, exchangeable_correlation, NoiseSpec,
                      SyntheticModel, AddQuadratic, Heteroscedastic,
                      sample_h0, sample_alternative, sample_concomitant)
from .ols import FitResult, fit_lse, permute_rows, COND_THRESHOLD
from .ordering import OrderedView, order_by, all_orderings
from .bridge import (BridgeProcess, residual_bridge, evaluate, omega_sq,
                     floor_index, EmpiricalField, empirical_field,
                     concomitant_sum_process, write_bridge_csv)
from .covmodel import (CovarianceModel, GridLorentz, AnalyticLorentz,
                       EmpiricalJointCDF, ProductJointCDF,
                       IndependenceFixture, estimate_lorentz, estimate_gram,
                       estimate_joint_cdf, empirical_covariance,
                       analytic_covariance, khat, verify_gram_identity,
                       write_khat_csv)
from .limitsim import (GridSpec, PSDFactor, NullDistribution,
                       build_grid_covariance, factor_psd, simulate_null,
                       p_value, write_null_samples_csv, CLIP_FLOOR)
from .adequacy import AdequacyResult, run_adequacy_test

__version__ = "0.1.0"

__all__ = [
    "RegBridgeError", "SchemaError", "ParseError", "ValidationError",
    "SingularDesignError", "DegenerateModelError", "UnsupportedModelError",
    "philox_stream", "collapse_seed", "as_seed_key",
    "Dataset", "ColumnSchema", "load_csv", "write_csv",
    "QuantileFunction", "IdentityQuantile", "AffineQuantile",
    "FunctionQuantile", "Copula", "IndependenceCopula", "GaussianCopula",
    "exchangeable_correlation", "NoiseSpec", "SyntheticModel",
    "AddQuadratic", "Heteroscedastic",
    "sample_h0", "sample_alternative", "sample_concomitant",
    "FitResult", "fit_lse", "permute_rows", "COND_THRESHOLD",
    "OrderedView", "order_by", "all_orderings",
    "BridgeProcess", "residual_bridge", "evaluate", "omega_sq",
    "floor_index", "EmpiricalField", "empirical_field",
    "concomitant_sum_process", "write_bridge_csv",
    "CovarianceModel", "GridLorentz", "AnalyticLorentz",
    "EmpiricalJointCDF", "ProductJointCDF", "IndependenceFixture",
    "estimate_lorentz", "estimate_gram", "estimate_joint_cdf",
    "empirical_covariance", "analytic_covariance", "khat",
    "verify_gram_identity", "write_khat_csv",
    "GridSpec", "PSDFactor", "NullDistribution", "build_grid_covariance",
    "factor_psd", "simulate_null", "p_value", "write_null_samples_csv",
    "CLIP_FLOOR",
    "AdequacyResult", "run_adequacy_test",
    "ErrorCell", "VerificationReport", "SizePowerResult",
    "verify_field_covariance", "verify_sum_covariance",
    "verify_bridge_covariance", "size_power_study",
    "fixtures",
]

_LAZY_MCLAB = frozenset({
    "ErrorCell", "VerificationReport", "SizePowerResult",
    "verify_field_covariance", "verify_sum_covariance",
    "verify_bridge_covariance", "size_power_study"})


def __getattr__(name):
    if name == "fixtures":
        return _import_module(".fixtures", __name__)
    if name in _LAZY_MCLAB:
        return getattr(_import_module(".mclab", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
