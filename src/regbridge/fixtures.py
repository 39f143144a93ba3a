"""Shipped synthetic models and experiment defaults for the verification lab.

Conditional-moment maps live here as module-level functions so study
replicates can cross process boundaries.  Experiment defaults (sample
sizes, replicate counts, seeds, grids, tolerances) are pinned in
``data/verify_fixtures.json``; the seeds were fixed after pilot runs so
the shipped experiments are deterministic checks, not coin flips.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .covmodel import IndependenceCovariance
from .dataset import (AffineQuantile, IndependenceCopula, NoiseSpec,
                      SyntheticModel)
from .errors import ValidationError

__all__ = [
    "zero_mean",
    "unit_variance",
    "centered_first_coordinate",
    "field_model",
    "zero_mean_field_model",
    "single_uniform_model",
    "two_uniform_model",
    "affine_model",
    "pinned_bridge_covariance",
    "get_model",
    "get_gram_case",
    "load_experiment_defaults",
    "MODELS",
    "GRAM_CASES",
]


# ======================================================================
# Conditional-moment maps (module level: picklable)
# ======================================================================

def zero_mean(u: np.ndarray) -> np.ndarray:
    """m(u) = 0."""
    return np.zeros(np.asarray(u).shape[0])


def unit_variance(u: np.ndarray) -> np.ndarray:
    """sigma2(u) = 1."""
    return np.ones(np.asarray(u).shape[0])


def centered_first_coordinate(u: np.ndarray) -> np.ndarray:
    """m(u) = u[0] - 1/2."""
    return np.asarray(u)[:, 0] - 0.5


# ======================================================================
# Models
# ======================================================================

def field_model(d: int = 2) -> SyntheticModel:
    """Concomitant model with m(u) = u1 - 1/2 and unit conditional variance."""
    return SyntheticModel(copula=IndependenceCopula(d),
                          noise=NoiseSpec("normal", 1.0),
                          cond_mean=centered_first_coordinate,
                          cond_var=unit_variance)


def zero_mean_field_model(d: int = 2) -> SyntheticModel:
    """Concomitant model with m = 0 and unit conditional variance."""
    return SyntheticModel(copula=IndependenceCopula(d),
                          noise=NoiseSpec("normal", 1.0),
                          cond_mean=zero_mean,
                          cond_var=unit_variance)


def single_uniform_model() -> SyntheticModel:
    """One uniform regressor plus intercept: y = 2 x + 1 + eps."""
    return SyntheticModel(copula=IndependenceCopula(1),
                          quantile_funcs=(AffineQuantile(),),
                          theta=(2.0, 1.0),
                          noise=NoiseSpec("normal", 1.0))


def two_uniform_model() -> SyntheticModel:
    """Two independent uniform regressors plus intercept."""
    return SyntheticModel(copula=IndependenceCopula(2),
                          quantile_funcs=(AffineQuantile(), AffineQuantile()),
                          theta=(1.0, -1.0, 0.5),
                          noise=NoiseSpec("normal", 1.0))


def affine_model() -> SyntheticModel:
    """One affine-transformed uniform regressor on [-1, 1] plus intercept."""
    return SyntheticModel(copula=IndependenceCopula(1),
                          quantile_funcs=(AffineQuantile(shift=-1.0, scale=2.0),),
                          theta=(1.5, 0.5),
                          noise=NoiseSpec("normal", 1.0))


def pinned_bridge_covariance() -> IndependenceCovariance:
    """Covariance model whose kernel is min(s, t) - s*t exactly.

    This is the intercept-only design ordered by one latent coordinate:
    the running-mean curve is L(t) = (t), the Gram matrix is (1), so the
    kernel reduces to the classical pinned-bridge covariance.  Used to
    check the null law and its sampler against known mean and quantile
    values.
    """
    return IndependenceCovariance(())


MODELS = {
    "field": field_model,
    "zero-mean-field": zero_mean_field_model,
    "single-uniform": single_uniform_model,
    "two-uniform": two_uniform_model,
    "affine": affine_model,
}

GRAM_CASES = {
    "single-uniform": single_uniform_model,
    "two-uniform": two_uniform_model,
    "affine": affine_model,
    "intercept-only": pinned_bridge_covariance,
}


def get_model(name: str) -> SyntheticModel:
    try:
        return MODELS[name]()
    except KeyError:
        raise ValidationError(f"unknown model fixture {name!r}; "
                              f"choose from {sorted(MODELS)}")


def get_gram_case(name: str):
    try:
        return GRAM_CASES[name]()
    except KeyError:
        raise ValidationError(f"unknown identity case {name!r}; "
                              f"choose from {sorted(GRAM_CASES)}")


def load_experiment_defaults() -> dict:
    """Pinned parameters of the shipped verification experiments."""
    text = resources.files("regbridge").joinpath(
        "data/verify_fixtures.json").read_text()
    return json.loads(text)
