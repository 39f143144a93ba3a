"""Observation tables, CSV ingestion, and copula-based synthetic samplers.

The regression machinery consumes a :class:`Dataset`: a read-only design
matrix with marked column roles (ordering columns, optional intercept) and
a response vector.  Real data arrives through :func:`load_csv`; Monte Carlo
data comes from :class:`SyntheticModel` together with :func:`sample_h0`,
:func:`sample_alternative`, and :func:`sample_concomitant`.

A synthetic model draws latent coordinates from a copula on the unit cube,
maps each coordinate through an affine margin q(u) = shift + scale * u
(:class:`AffineQuantile`) to obtain the ordering regressors, appends an
intercept, and builds the response either from a linear predictor plus
centered noise (regression mode, where a breach record, :class:`AddQuadratic`
or :class:`Heteroscedastic`, can break the linear model) or from a
user-supplied conditional mean and variance (concomitant mode).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParseError, SchemaError, ValidationError
from .rng import philox_stream, as_seed_key

__all__ = [
    "Dataset",
    "ColumnSchema",
    "load_csv",
    "write_csv",
    "AffineQuantile",
    "IndependenceCopula",
    "GaussianCopula",
    "exchangeable_correlation",
    "NoiseSpec",
    "SyntheticModel",
    "AddQuadratic",
    "Heteroscedastic",
    "sample_h0",
    "sample_alternative",
    "sample_concomitant",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


# ======================================================================
# Dataset
# ======================================================================

@dataclass(frozen=True)
class Dataset:
    """Immutable observation table with column roles.

    Parameters
    ----------
    regressors : ndarray, shape (n, p)
        Design matrix, intercept column included when present.
    response : ndarray, shape (n,)
        Observed responses.
    order_columns : tuple of int
        Indices of the regressor columns the test orders by.
    intercept_column : int or None
        Index of the all-ones column, if the design has one.
    regressor_names, response_name
        Labels used for reports and CSV round trips.
    """

    regressors: np.ndarray
    response: np.ndarray
    order_columns: tuple[int, ...]
    intercept_column: int | None = None
    regressor_names: tuple[str, ...] = ()
    response_name: str = "y"

    def __post_init__(self):
        reg = np.asarray(self.regressors, dtype=float)
        resp = np.asarray(self.response, dtype=float)
        if reg.ndim != 2:
            raise ValidationError("regressor matrix must be 2-dimensional")
        n, p = reg.shape
        if n < 1:
            raise ValidationError("n >= 1 required: data section is empty")
        if p < 1:
            raise ValidationError("at least one regressor column required")
        if resp.shape != (n,):
            raise ValidationError(
                f"response has shape {resp.shape}, expected ({n},)")
        if not (np.all(np.isfinite(reg)) and np.all(np.isfinite(resp))):
            raise ValidationError("all entries must be finite real numbers")

        order = tuple(int(j) for j in self.order_columns)
        if len(set(order)) != len(order):
            raise ValidationError("order columns must be distinct")
        for j in order:
            if not 0 <= j < p:
                raise ValidationError(f"order column {j} outside 0..{p - 1}")

        ic = self.intercept_column
        if ic is not None:
            ic = int(ic)
            if not 0 <= ic < p:
                raise ValidationError(f"intercept column {ic} outside 0..{p - 1}")
            if ic in order:
                raise ValidationError("the intercept cannot be an ordering column")
            if not np.all(reg[:, ic] == 1.0):
                raise ValidationError("intercept column must be identically 1")

        names = tuple(str(s) for s in self.regressor_names)
        if not names:
            names = tuple(f"x{j + 1}" for j in range(p))
        if len(names) != p:
            raise ValidationError(
                f"{len(names)} regressor names given for {p} columns")
        if len(set(names)) != p:
            raise ValidationError("regressor names must be distinct")

        object.__setattr__(self, "regressors", _readonly(reg))
        object.__setattr__(self, "response", _readonly(resp))
        object.__setattr__(self, "order_columns", order)
        object.__setattr__(self, "intercept_column", ic)
        object.__setattr__(self, "regressor_names", names)
        object.__setattr__(self, "response_name", str(self.response_name))

    @property
    def n(self) -> int:
        return self.regressors.shape[0]

    @property
    def p(self) -> int:
        return self.regressors.shape[1]


# ======================================================================
# CSV ingestion
# ======================================================================

@dataclass(frozen=True)
class ColumnSchema:
    """Column-role mapping used by :func:`load_csv`.

    `order` names the regressors the test orders by, `response` names the
    response column, and `intercept` optionally names an all-ones column.
    The design holds exactly the `order` and `intercept` columns.
    """

    order: tuple[str, ...]
    response: str
    intercept: str | None = None

    def __post_init__(self):
        order = tuple(str(s) for s in self.order)
        object.__setattr__(self, "order", order)
        if not order:
            raise ValidationError("schema needs at least one ordering column")
        roles = list(order) + [self.response]
        if self.intercept is not None:
            roles.append(self.intercept)
        if len(set(roles)) != len(roles):
            raise ValidationError("schema assigns one column two roles")


def load_csv(path, schema: ColumnSchema) -> Dataset:
    """Read a headed CSV file into a :class:`Dataset`.

    The file is UTF-8, with or without a byte-order mark.  Regressor
    columns keep the order they have in the file.  Columns not named by
    the schema are ignored.  Raises :class:`SchemaError` for missing or
    duplicated header names and :class:`ParseError` for bytes that are
    not UTF-8, for text the CSV reader refuses (such as a cell over its
    field size limit) and for cells that are not finite numbers.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: file is empty")
            header = [h.strip() for h in header]
            dupes = {h for h in header if header.count(h) > 1}
            if dupes:
                raise SchemaError(f"{path}: duplicated header names {sorted(dupes)}")

            wanted = list(schema.order)
            if schema.intercept is not None:
                wanted.append(schema.intercept)
            missing = [c for c in wanted + [schema.response] if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing columns {missing}")

            keep = [name for name in header if name in set(wanted)]
            reg_pos = [header.index(name) for name in keep]
            resp_pos = header.index(schema.response)

            reg_rows: list[list[float]] = []
            resp_rows: list[float] = []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}")
                reg_rows.append([_parse_cell(path, lineno, header[k], row[k])
                                 for k in reg_pos])
                resp_rows.append(_parse_cell(path, lineno, header[resp_pos], row[resp_pos]))
    except UnicodeDecodeError:
        raise ParseError(f"{path}: the file is not UTF-8 text") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None

    regressors = np.array(reg_rows, dtype=float).reshape(len(reg_rows), len(keep))
    response = np.array(resp_rows, dtype=float)
    order_idx = tuple(keep.index(name) for name in schema.order)
    icol = keep.index(schema.intercept) if schema.intercept is not None else None
    return Dataset(regressors, response, order_idx, icol,
                   regressor_names=tuple(keep), response_name=schema.response)


def _parse_cell(path, lineno: int, colname: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"{path}: row {lineno}, column {colname!r}: cannot parse {cell!r}")
    if not math.isfinite(value):
        raise ParseError(
            f"{path}: row {lineno}, column {colname!r}: non-finite value {cell!r}")
    return value


def write_csv(data: Dataset, path) -> None:
    """Write a dataset back to CSV (regressor columns, then the response).

    Floats are serialized with ``repr``, so a write/load round trip is
    bit-exact.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(data.regressor_names) + [data.response_name])
        for i in range(data.n):
            writer.writerow([repr(float(v)) for v in data.regressors[i]]
                            + [repr(float(data.response[i]))])


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

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError("copula dimension must be >= 1")

    @property
    def dim(self) -> int:
        return self.d

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random((n, self.d))


@dataclass(frozen=True, eq=False)
class GaussianCopula:
    """Gaussian copula: U = Phi(Z) with Z ~ N(0, correlation)."""

    correlation: np.ndarray

    def __post_init__(self):
        corr = np.asarray(self.correlation, dtype=float)
        if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
            raise ValidationError("correlation must be a square matrix")
        if not np.allclose(corr, corr.T, atol=1e-12):
            raise ValidationError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
            raise ValidationError("correlation matrix needs a unit diagonal")
        corr = 0.5 * (corr + corr.T)
        try:
            chol = np.linalg.cholesky(corr)
        except np.linalg.LinAlgError:
            raise ValidationError("correlation matrix must be positive definite")
        object.__setattr__(self, "correlation", _readonly(corr))
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.correlation.shape[0]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        from scipy.special import ndtr

        z = rng.standard_normal((n, self.dim)) @ self._chol.T
        return ndtr(z)


def exchangeable_correlation(d: int, rho: float) -> np.ndarray:
    """Correlation matrix with a common off-diagonal value."""
    if not -1.0 / max(d - 1, 1) < rho < 1.0:
        raise ValidationError(f"exchangeable correlation {rho} is not valid for d={d}")
    return np.full((d, d), rho) + (1.0 - rho) * np.eye(d)


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

    Regression mode needs `theta` (one coefficient per ordering regressor
    plus a trailing intercept coefficient).  Concomitant mode instead needs
    `cond_mean` and `cond_var`, callables on the (n, d1) latent block that
    return per-row conditional means and variances of the response.
    """

    copula: IndependenceCopula | GaussianCopula
    quantile_funcs: tuple[AffineQuantile, ...] = ()
    theta: tuple[float, ...] | None = None
    noise: NoiseSpec = NoiseSpec()
    cond_mean: Callable | None = None
    cond_var: Callable | None = None

    def __post_init__(self):
        qs = tuple(self.quantile_funcs) or tuple(
            AffineQuantile() for _ in range(self.copula.dim))
        if len(qs) != self.copula.dim:
            raise ValidationError(
                f"{len(qs)} margins given for copula dimension {self.copula.dim}")
        if not all(isinstance(q, AffineQuantile) for q in qs):
            raise ValidationError("every margin must be an AffineQuantile")
        object.__setattr__(self, "quantile_funcs", qs)
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
    cols = [q(U[:, j]) for j, q in enumerate(model.quantile_funcs)]
    for j, c in enumerate(cols):
        if np.any(np.diff(np.sort(c)) == 0):
            raise ValidationError(
                f"ordering column {j} has ties; its margin is not strictly "
                "increasing on the sampled range")
    X = np.column_stack(cols + [np.ones(n)])
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
    """Draw (X, Y) with X from the copula and Y from the conditional law.

    Returns the raw latent block (n, d1), untransformed, together with
    Y = cond_mean(X) + sqrt(cond_var(X)) * unit noise.
    """
    if model.cond_mean is None or model.cond_var is None:
        raise ValidationError("concomitant sampling needs cond_mean and cond_var")
    if n < 1:
        raise ValidationError("n >= 1 required")
    rng = philox_stream(*as_seed_key(seed))
    X = model.copula.sample(n, rng)
    m = np.broadcast_to(np.asarray(model.cond_mean(X), dtype=float), (n,))
    s2 = np.broadcast_to(np.asarray(model.cond_var(X), dtype=float), (n,))
    if np.any(s2 < 0) or not np.all(np.isfinite(s2)):
        raise ValidationError("cond_var must be finite and >= 0")
    Y = m + np.sqrt(s2) * model.noise.sample_unit(rng, n)
    return X, Y
