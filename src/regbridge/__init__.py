"""Adequacy testing for linear regression via residual partial-sum bridges.

The test orders the observations by each designated regressor, cumulates
the studentized residuals into bridge processes, integrates their squares
into one omega-squared statistic, and calibrates it against the exact
law of the limiting Gaussian functional whose covariance kernel is
estimated from the same data.  A built-in Monte Carlo lab checks the
distributional claims behind the calibration at desk scale.

The public names are those of the pipeline modules' ``__all__`` lists.
The lab loads on first use: the submodule `fixtures` and the `mclab`
names in ``_LAZY_MCLAB`` resolve through the module-level
``__getattr__``, once (the globals keep what it resolves), so ``import
regbridge`` and a ``regbridge test`` run never import them.
"""

from importlib import import_module as _import_module

from . import (adequacy, bridge, covmodel, dataset, errors, limitsim, ols,
               ordering, rng)
from .errors import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .dataset import *  # noqa: F401,F403
from .ols import *  # noqa: F401,F403
from .ordering import *  # noqa: F401,F403
from .bridge import *  # noqa: F401,F403
from .covmodel import *  # noqa: F401,F403
from .limitsim import *  # noqa: F401,F403
from .adequacy import *  # noqa: F401,F403

__version__ = "0.1.0"

_LAZY_MCLAB = ("empirical_field", "concomitant_sum_process", "ErrorCell",
               "VerificationReport", "SizePowerResult",
               "verify_field_covariance", "verify_sum_covariance",
               "verify_bridge_covariance", "size_power_study")

__all__ = [name for module in (errors, rng, dataset, ols, ordering, bridge,
                               covmodel, limitsim, adequacy)
           for name in module.__all__] + [*_LAZY_MCLAB, "fixtures"]


def __getattr__(name):
    if name == "fixtures":
        return _import_module(".fixtures", __name__)
    if name not in _LAZY_MCLAB:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(".mclab", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
