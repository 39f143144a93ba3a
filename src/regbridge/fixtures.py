"""Shipped synthetic models and experiment defaults for the verification lab.

A synthetic model draws latent coordinates from a copula on the unit cube
(independent, or exchangeable Gaussian with one correlation rho), maps
every coordinate through one affine margin q(u) = shift + scale * u
(:class:`AffineQuantile`) to obtain the ordering regressors, appends an
intercept, and builds the response either from a linear predictor plus
centered noise (regression mode, where a breach record, :class:`AddQuadratic`
or :class:`Heteroscedastic`, can break the linear model) or from the
conditional mean field_slope * (u1 - 1/2), u1 the first latent
coordinate, plus the noise (concomitant mode, whose conditional variance
is the noise variance).  :class:`IndependenceCovariance` is the closed-form limit
kernel of the regression mode under the independence copula.

The shipped models are one table, :data:`MODELS`, from fixture name to a
frozen :class:`SyntheticModel`; :data:`GRAM_CASES` takes three of them
and adds the intercept-only kernel of :func:`pinned_bridge_covariance`.
Experiment defaults (sample sizes, replicate counts, seeds, grids,
tolerances) are pinned in ``data/verify_fixtures.json``, whose cases name
their models from these tables; the seeds were fixed after pilot runs so
the shipped experiments are deterministic checks, not coin flips.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .covmodel import CovarianceModel
from .dataset import Dataset
from .errors import UnsupportedModelError, ValidationError
from .rng import as_seed_key, philox_stream

__all__ = [
    "AffineQuantile", "IndependenceCopula", "GaussianCopula", "NoiseSpec",
    "SyntheticModel", "AddQuadratic", "Heteroscedastic", "sample_h0",
    "sample_alternative", "sample_concomitant",
    "IndependenceCovariance", "analytic_covariance",
    "pinned_bridge_covariance", "get_model", "get_gram_case",
    "load_experiment_defaults", "MODELS", "GRAM_CASES",
]


# ======================================================================
# Margins
# ======================================================================

@dataclass(frozen=True)
class AffineQuantile:
    """Affine margin q(u) = shift + scale * u; the defaults give q(u) = u.

    A finite shift and a finite, nonnegative scale keep q finite and
    nondecreasing on [0, 1].
    """

    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.shift) and math.isfinite(self.scale)):
            raise ValidationError("affine quantile shift and scale must be "
                                  f"finite, got {self.shift}, {self.scale}")
        if self.scale < 0:
            raise ValidationError("affine quantile scale must be >= 0")

    def __call__(self, u):
        return self.shift + self.scale * np.asarray(u, dtype=float)

    def mean(self) -> float:
        """Integral of q over [0, 1]."""
        return self.shift + 0.5 * self.scale

    def second_moment(self) -> float:
        """Integral of q**2 over [0, 1]."""
        return self.shift ** 2 + self.shift * self.scale + self.scale ** 2 / 3.0

    def partial_integral(self, x) -> np.ndarray:
        """Integral of q over [0, x], elementwise."""
        x = np.asarray(x, dtype=float)
        return self.shift * x + 0.5 * self.scale * x ** 2


# ======================================================================
# Copulas
# ======================================================================

@dataclass(frozen=True)
class IndependenceCopula:
    """Independent uniform coordinates."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("copula dimension must be >= 1")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random((n, self.dim))


@dataclass(frozen=True)
class GaussianCopula:
    """Exchangeable Gaussian copula: U = Phi(Z) with Z ~ N(0, R), where R has
    a unit diagonal and `rho` off it.  Near rho = -1/(dim - 1) the Cholesky
    factor of R can fail from rounding; that is a ValidationError too."""

    dim: int
    rho: float

    def __post_init__(self):
        d, rho = self.dim, self.rho
        if d < 1:
            raise ValidationError("copula dimension must be >= 1")
        if not -1.0 / max(d - 1, 1) < rho < 1.0:
            raise ValidationError(f"exchangeable correlation {rho} is not valid for d={d}")
        try:
            chol = np.linalg.cholesky(np.full((d, d), rho) + (1.0 - rho) * np.eye(d))
        except np.linalg.LinAlgError:
            raise ValidationError("correlation matrix must be positive definite")
        object.__setattr__(self, "_chol", chol)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        from scipy.special import ndtr

        z = rng.standard_normal((n, self.dim)) @ self._chol.T
        return ndtr(z)


# ======================================================================
# Noise
# ======================================================================

@dataclass(frozen=True)
class NoiseSpec:
    """Centered noise law with a chosen variance.

    `kind` is "normal" or "uniform"; variance 0 gives the degenerate
    zero-noise case used by exactness tests.
    """

    kind: str = "normal"
    variance: float = 1.0

    def __post_init__(self):
        if self.kind not in ("normal", "uniform"):
            raise ValidationError(f"unknown noise kind {self.kind!r}")
        if not (math.isfinite(self.variance) and self.variance >= 0):
            raise ValidationError("noise variance must be finite and >= 0")

    def sample_unit(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n unit-variance centered noise values."""
        if self.kind == "normal":
            return rng.standard_normal(n)
        half = math.sqrt(3.0)
        return rng.uniform(-half, half, n)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return math.sqrt(self.variance) * self.sample_unit(rng, n)


# ======================================================================
# Synthetic models and samplers
# ======================================================================

@dataclass(frozen=True)
class SyntheticModel:
    """Generative model for Monte Carlo runs.

    Every ordering regressor is `margin` applied to its latent coordinate.
    Regression mode needs `theta` (one coefficient per ordering regressor
    plus a trailing intercept coefficient).  Concomitant mode instead needs
    `field_slope` c: the response has conditional mean c * (u1 - 1/2) given
    the latent block u and conditional variance `noise.variance`.
    """

    copula: IndependenceCopula | GaussianCopula
    margin: AffineQuantile = AffineQuantile()
    theta: tuple[float, ...] | None = None
    noise: NoiseSpec = NoiseSpec()
    field_slope: float | None = None

    def __post_init__(self):
        if not isinstance(self.margin, AffineQuantile):
            raise ValidationError("the margin must be an AffineQuantile")
        if self.field_slope is not None and not math.isfinite(self.field_slope):
            raise ValidationError(
                f"field_slope must be finite, got {self.field_slope}")
        if self.theta is not None:
            th = tuple(float(v) for v in self.theta)
            if len(th) != self.d1 + 1:
                raise ValidationError(
                    f"theta needs {self.d1 + 1} entries "
                    f"({self.d1} slopes plus an intercept), got {len(th)}")
            object.__setattr__(self, "theta", th)

    @property
    def d1(self) -> int:
        """Number of ordering coordinates."""
        return self.copula.dim

    def column_names(self) -> tuple[str, ...]:
        return tuple(f"x{j + 1}" for j in range(self.d1)) + ("const",)


@dataclass(frozen=True)
class AddQuadratic:
    """Breach of the linear mean: coef * x_column**2 joins the response."""

    coef: float
    column: int = 0


@dataclass(frozen=True)
class Heteroscedastic:
    """Breach of the noise law: noise scaled by sqrt(1 + coef * x_column**2)."""

    coef: float
    column: int = 0


def sample_h0(model: SyntheticModel, n: int, seed) -> Dataset:
    """Draw a dataset with the linear response intact (breach None)."""
    return sample_alternative(model, None, n, seed)


def sample_alternative(model: SyntheticModel, breach, n: int, seed) -> Dataset:
    """Draw a regression dataset under `breach`, or under the null if None.

    A breach acts on an ordering column, 0..d1 - 1.  The stream of `seed`
    gives the design X, then the noise eps; the response is X @ theta,
    plus coef * x**2 for AddQuadratic, plus eps, scaled for Heteroscedastic.
    So a breach with coef 0 reproduces the null draw of the seed bit for bit.
    """
    if model.theta is None:
        raise ValidationError("regression sampling needs model.theta")
    if breach is not None:
        if not isinstance(breach, (AddQuadratic, Heteroscedastic)):
            raise ValidationError(f"unknown breach kind {type(breach).__name__}")
        if not 0 <= breach.column < model.d1:
            raise ValidationError(
                f"breach column {breach.column} outside 0..{model.d1 - 1}")
    if n < 1:
        raise ValidationError("n >= 1 required")
    rng = philox_stream(*as_seed_key(seed))
    U = model.copula.sample(n, rng)
    cols = model.margin(U)
    for j, c in enumerate(cols.T):
        if np.any(np.diff(np.sort(c)) == 0):
            raise ValidationError(
                f"ordering column {j} has ties; its margin is not strictly "
                "increasing on the sampled range")
    X = np.column_stack([cols, np.ones(n)])
    eps = model.noise.sample(rng, n)
    response = X @ np.asarray(model.theta)
    if isinstance(breach, AddQuadratic):
        response += breach.coef * X[:, breach.column] ** 2
    elif isinstance(breach, Heteroscedastic):
        # nan where 1 + coef * x^2 < 0: reported below, not by numpy
        with np.errstate(invalid="ignore"):
            scale = np.sqrt(1.0 + breach.coef * X[:, breach.column] ** 2)
        if not np.all((scale > 0) & np.isfinite(scale)):
            raise ValidationError("noise scale map must be positive and finite")
        eps = scale * eps
    d = model.d1
    return Dataset(X, response + eps, order_columns=tuple(range(d)),
                   intercept_column=d, regressor_names=model.column_names())


def sample_concomitant(model: SyntheticModel, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw (U, Y) with U from the copula and Y from the conditional law.

    Returns the raw latent block U (n, d1), untransformed, together with
    Y = field_slope * (U[:, 0] - 1/2) + noise.
    """
    if model.field_slope is None:
        raise ValidationError("concomitant sampling needs model.field_slope")
    if n < 1:
        raise ValidationError("n >= 1 required")
    rng = philox_stream(*as_seed_key(seed))
    U = model.copula.sample(n, rng)
    return U, model.field_slope * (U[:, 0] - 0.5) + model.noise.sample(rng, n)


# ======================================================================
# Closed-form kernel (independent latent coordinates)
# ======================================================================

class IndependenceCovariance(CovarianceModel):
    """Closed-form kernel for `d` independent uniform coordinates, each
    mapped through the affine `margin`, plus a trailing intercept.

    Slot j orders by coordinate j, so C is s*t between slots and min(s, t)
    within one.  With d = 0 this is the intercept-only design ordered by
    one latent coordinate: L(t) = (t) and G = (1), and the kernel is the
    pinned-bridge covariance min(s, t) - s*t.  `h`, `b2` and `gram` are
    the conditional moments and the second-moment matrix that
    `verify_gram_identity` checks against each other.
    """

    def __init__(self, margin: AffineQuantile, d: int):
        self.margin = margin
        self.d = d
        self.p = d + 1
        # mean of the regressor vector: the margin's mean, then the intercept
        self.means = np.append(np.full(d, margin.mean()), 1.0)
        super().__init__(max(d, 1), self.gram())

    def h(self, j: int, x: float) -> np.ndarray:
        """Conditional mean of the regressor vector given coordinate j = x."""
        self._check_slot(j)
        out = self.means.copy()
        if self.d:
            out[j] = float(self.margin(x))
        return out

    def b2(self, j: int, x: float) -> np.ndarray:
        """Conditional covariance of the regressor vector given coordinate j = x."""
        self._check_slot(j)
        diag = np.diag(self.gram()) - self.means ** 2
        if self.d:
            diag[j] = 0.0
        return np.diag(diag)

    def gram(self) -> np.ndarray:
        """Second-moment matrix of the regressor vector."""
        G = np.outer(self.means, self.means)
        np.fill_diagonal(G[:-1, :-1], self.margin.second_moment())
        return G

    def curve(self, slot: int, t: np.ndarray) -> np.ndarray:
        """Integral of h(slot, .) from 0 to each t, shape (len(t), p)."""
        out = np.outer(t, self.means)
        if self.d:
            out[:, slot] = self.margin.partial_integral(t)
        return out

    def cdf_grid(self, i: int, j: int, svals, tvals) -> np.ndarray:
        if i == j:
            return np.minimum.outer(svals, tvals)
        return np.outer(svals, tvals)


def analytic_covariance(model: SyntheticModel) -> IndependenceCovariance:
    """Closed-form covariance model for independent latent coordinates."""
    if not isinstance(model.copula, IndependenceCopula):
        raise UnsupportedModelError(
            "closed-form kernel ingredients exist only for the independence copula")
    return IndependenceCovariance(model.margin, model.d1)


# ======================================================================
# Shipped models
# ======================================================================

def pinned_bridge_covariance() -> IndependenceCovariance:
    """Covariance model whose kernel is min(s, t) - s*t exactly.

    This is the intercept-only design ordered by one latent coordinate:
    the running-mean curve is L(t) = (t), the Gram matrix is (1), so the
    kernel reduces to the classical pinned-bridge covariance.  Used to
    check the null law and its sampler against known mean and quantile
    values.
    """
    return IndependenceCovariance(AffineQuantile(), 0)


# The fixture models by name: concomitant with m(u) = u1 - 1/2 or m = 0,
# else regression, the "affine" regressor uniform on [-1, 1]; N(0, 1)
# noise.  The values are frozen and hold no array, so lookups share them.
MODELS = {
    "field": SyntheticModel(IndependenceCopula(2), field_slope=1.0),
    "zero-mean-field": SyntheticModel(IndependenceCopula(2), field_slope=0.0),
    "single-uniform": SyntheticModel(IndependenceCopula(1), theta=(2.0, 1.0)),
    "two-uniform": SyntheticModel(IndependenceCopula(2),
                                  theta=(1.0, -1.0, 0.5)),
    "affine": SyntheticModel(IndependenceCopula(1), AffineQuantile(-1.0, 2.0),
                             theta=(1.5, 0.5)),
}

# The Gram identity cases.  The intercept-only kernel holds arrays, so it
# is built afresh on each lookup.
GRAM_CASES = {name: MODELS[name]
              for name in ("single-uniform", "two-uniform", "affine")}
GRAM_CASES["intercept-only"] = pinned_bridge_covariance


def _lookup(table: dict, name: str, what: str):
    try:
        value = table[name]
    except KeyError:
        raise ValidationError(f"unknown {what} {name!r}; "
                              f"choose from {sorted(table)}") from None
    return value() if callable(value) else value


def get_model(name: str) -> SyntheticModel:
    return _lookup(MODELS, name, "model fixture")


def get_gram_case(name: str):
    return _lookup(GRAM_CASES, name, "identity case")


def load_experiment_defaults() -> dict:
    """Pinned parameters of the shipped verification experiments."""
    text = resources.files("regbridge").joinpath(
        "data/verify_fixtures.json").read_text()
    return json.loads(text)
