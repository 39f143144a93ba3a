"""Adequacy testing for linear regression via residual partial-sum bridges.

The test orders the observations by each designated regressor, cumulates
the studentized residuals into bridge processes, integrates their squares
into one omega-squared statistic, and calibrates it against the exact
law of the limiting Gaussian functional whose covariance kernel is
estimated from the same data.  A built-in Monte Carlo lab checks the
distributional claims behind the calibration at desk scale.

The public names are those of the pipeline modules' ``__all__`` lists.
The lab modules `fixtures` and `mclab` load on first use: the module
itself, or a name in its ``__all__``, resolves through the module-level
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

__all__ = [name for module in (errors, rng, dataset, ols, ordering, bridge,
                               covmodel, limitsim, adequacy)
           for name in module.__all__]


def __getattr__(name):
    if not name.startswith("_"):
        for lab in ("fixtures", "mclab"):
            module = _import_module(f".{lab}", __name__)  # also binds `lab` here
            if name in module.__all__:
                globals()[name] = getattr(module, name)
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
