"""Limit covariance kernel of the residual bridges, estimated or in closed form.

The bridge vector converges to a centered Gaussian process whose covariance
between ordering slots i and j at levels (s, t) is

    khat(i, j, s, t) = C(i, j, s, t) - L_i(s) G^{-1} L_j(t)',

where C is the pairwise copula cdf of the ordering regressors (min(s, t)
on the diagonal), L_j is the running mean of the full regressor vector
along the rows sorted by column j, and G is the normalized Gram matrix.
Everything here exists in two interchangeable flavors: empirical
ingredients estimated from a dataset, and closed forms for models with
independent latent coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import floor_index
from .dataset import (Dataset, IndependenceCopula, QuantileFunction,
                      SyntheticModel)
from .errors import SingularDesignError, UnsupportedModelError, ValidationError
from .ordering import OrderedView

__all__ = [
    "GridLorentz",
    "AnalyticLorentz",
    "EmpiricalJointCDF",
    "ProductJointCDF",
    "IndependenceFixture",
    "CovarianceModel",
    "estimate_lorentz",
    "estimate_gram",
    "estimate_joint_cdf",
    "empirical_covariance",
    "analytic_covariance",
    "khat",
    "verify_gram_identity",
    "write_khat_csv",
]

_GRAM_COND_LIMIT = 1e12
_QUAD_TOL = 1e-11


# ======================================================================
# Running-mean (Lorentz-type) curves
# ======================================================================

@dataclass(frozen=True, eq=False)
class GridLorentz:
    """Empirical running-mean curve on the nodes k/n.

    `grid_values[k]` is (1/n) * sum of the first k sorted regressor rows;
    evaluation between nodes interpolates linearly.
    """

    grid_values: np.ndarray

    def __post_init__(self):
        gv = np.asarray(self.grid_values, dtype=float)
        if gv.ndim != 2 or gv.shape[0] < 2:
            raise ValidationError("grid values must be (n + 1, p) with n >= 1")
        if np.any(gv[0] != 0.0):
            raise ValidationError("running mean must start at 0")
        object.__setattr__(self, "grid_values", gv)

    @property
    def n(self) -> int:
        return self.grid_values.shape[0] - 1

    @property
    def p(self) -> int:
        return self.grid_values.shape[1]

    def values(self, t) -> np.ndarray:
        """Curve values at levels t, shape (len(t), p)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ValidationError("levels must lie in [0, 1]")
        pos = t * self.n
        i0 = np.clip(np.floor(pos).astype(int), 0, self.n - 1)
        w = (pos - i0)[:, None]
        gv = self.grid_values
        return (1.0 - w) * gv[i0] + w * gv[i0 + 1]


@dataclass(frozen=True, eq=False)
class AnalyticLorentz:
    """Closed-form running-mean curve for independent latent coordinates."""

    fixture: "IndependenceFixture"
    slot: int

    def values(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ValidationError("levels must lie in [0, 1]")
        return self.fixture.lorentz(self.slot, t)


# ======================================================================
# Pairwise cdf of the ordering regressors
# ======================================================================

@dataclass(frozen=True, eq=False)
class EmpiricalJointCDF:
    """Rank-based pairwise cdf estimate from the observed ordering columns.

    The (s, t) cell counts rows whose column-i value is at most the
    [ns]-th order statistic of column i and whose column-j value is at
    most the [nt]-th order statistic of column j, divided by n.
    """

    columns: tuple[np.ndarray, ...]
    sorted_columns: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return self.columns[0].shape[0]

    def _indicators(self, slot: int, levels: np.ndarray) -> np.ndarray:
        n = self.n
        counts = floor_index(n, levels)
        col = self.columns[slot]
        srt = self.sorted_columns[slot]
        out = np.zeros((levels.shape[0], n))
        nz = counts > 0
        if np.any(nz):
            thr = srt[counts[nz] - 1]
            out[nz] = col[None, :] <= thr[:, None]
        return out

    def cdf_grid(self, i: int, j: int, svals, tvals) -> np.ndarray:
        svals = np.atleast_1d(np.asarray(svals, dtype=float))
        tvals = np.atleast_1d(np.asarray(tvals, dtype=float))
        bi = self._indicators(i, svals)
        bj = self._indicators(j, tvals)
        return (bi @ bj.T) / self.n

    def cdf(self, i: int, j: int, s: float, t: float) -> float:
        return float(self.cdf_grid(i, j, [s], [t])[0, 0])


@dataclass(frozen=True)
class ProductJointCDF:
    """Pairwise copula cdf for independent coordinates: s*t, min on the diagonal."""

    def cdf_grid(self, i: int, j: int, svals, tvals) -> np.ndarray:
        svals = np.atleast_1d(np.asarray(svals, dtype=float))
        tvals = np.atleast_1d(np.asarray(tvals, dtype=float))
        if i == j:
            return np.minimum.outer(svals, tvals)
        return np.outer(svals, tvals)

    def cdf(self, i: int, j: int, s: float, t: float) -> float:
        return float(min(s, t)) if i == j else float(s) * float(t)


# ======================================================================
# Closed-form ingredients for independent latent coordinates
# ======================================================================

class IndependenceFixture:
    """Closed-form conditional moments for independent uniforms mapped
    through per-coordinate quantile functions, plus a trailing intercept.

    With zero quantile functions this degenerates to the intercept-only
    design, where the conditional mean is the constant vector (1,).
    """

    def __init__(self, quantiles: tuple[QuantileFunction, ...]):
        self.quantiles = tuple(quantiles)
        self.means = np.array([q.mean() for q in self.quantiles])
        self.second_moments = np.array([q.second_moment() for q in self.quantiles])

    @property
    def d(self) -> int:
        return len(self.quantiles)

    @property
    def p(self) -> int:
        return self.d + 1

    def _check_slot(self, j: int) -> None:
        upper = max(self.d, 1)
        if not 0 <= j < upper:
            raise ValidationError(f"slot {j} outside 0..{upper - 1}")

    def h(self, j: int, x: float) -> np.ndarray:
        """Conditional mean of the regressor vector given coordinate j = x."""
        self._check_slot(j)
        out = np.empty(self.p)
        for a, q in enumerate(self.quantiles):
            out[a] = float(q(x)) if a == j else self.means[a]
        out[self.d] = 1.0
        return out

    def b2(self, j: int, x: float) -> np.ndarray:
        """Conditional covariance of the regressor vector given coordinate j = x."""
        self._check_slot(j)
        variances = self.second_moments - self.means ** 2
        diag = np.append(variances, 0.0)
        if self.d:
            diag[j] = 0.0
        return np.diag(diag)

    def lorentz(self, j: int, t: np.ndarray) -> np.ndarray:
        """Integral of h(j, .) from 0 to each t, shape (len(t), p)."""
        self._check_slot(j)
        t = np.asarray(t, dtype=float)
        out = np.empty((t.shape[0], self.p))
        for a, q in enumerate(self.quantiles):
            if a == j:
                out[:, a] = q.partial_integral_vec(t)
            else:
                out[:, a] = self.means[a] * t
        out[:, self.d] = t
        return out

    def gram(self) -> np.ndarray:
        """Second-moment matrix of the regressor vector."""
        G = np.outer(np.append(self.means, 1.0), np.append(self.means, 1.0))
        for a in range(self.d):
            G[a, a] = self.second_moments[a]
        G[self.d, self.d] = 1.0
        return G


# ======================================================================
# Assembled covariance model
# ======================================================================

@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """All ingredients of the bridge covariance kernel.

    `columns[slot]` records which regressor column each ordering slot
    corresponds to; `lorentz[slot]` maps levels to (m, p) curve values;
    `joint` provides the pairwise cdf between slots.
    """

    columns: tuple[int, ...]
    lorentz: tuple
    gram: np.ndarray
    gram_inv: np.ndarray
    joint: object
    source: str = ""

    @property
    def d_order(self) -> int:
        return len(self.columns)

    @property
    def p(self) -> int:
        return self.gram.shape[0]

    def _check_slot(self, i: int) -> None:
        if not 0 <= i < self.d_order:
            raise ValidationError(f"ordering slot {i} outside 0..{self.d_order - 1}")

    def khat_grid(self, i: int, j: int, svals, tvals) -> np.ndarray:
        """Kernel values between slots i and j on a grid, shape (len(s), len(t))."""
        self._check_slot(i)
        self._check_slot(j)
        svals = np.atleast_1d(np.asarray(svals, dtype=float))
        tvals = np.atleast_1d(np.asarray(tvals, dtype=float))
        li = self.lorentz[i].values(svals)
        lj = self.lorentz[j].values(tvals)
        return self.joint.cdf_grid(i, j, svals, tvals) - li @ self.gram_inv @ lj.T

    def khat(self, i: int, j: int, s: float, t: float) -> float:
        return float(self.khat_grid(i, j, [s], [t])[0, 0])


def khat(model: CovarianceModel, i: int, j: int, s: float, t: float) -> float:
    """Kernel value between ordering slots i and j at levels (s, t)."""
    return model.khat(i, j, s, t)


# ======================================================================
# Estimators
# ======================================================================

def estimate_lorentz(view: OrderedView) -> GridLorentz:
    """Running mean of the full regressor rows along one sorted view."""
    n = view.n
    gv = np.vstack([np.zeros((1, view.sorted_regressors.shape[1])),
                    np.cumsum(view.sorted_regressors, axis=0)]) / n
    return GridLorentz(gv)


def estimate_gram(data: Dataset) -> np.ndarray:
    """Normalized Gram matrix X'X / n."""
    X = data.regressors
    return (X.T @ X) / data.n


def estimate_joint_cdf(data: Dataset, i: int, j: int, s: float, t: float) -> float:
    """Rank-based pairwise cdf estimate between two ordering columns.

    `i` and `j` are regressor column indices and must be ordering columns.
    """
    for c in (i, j):
        if c not in data.order_columns:
            raise ValidationError(f"column {c} is not an ordering column")
    joint = _empirical_joint(data)
    return joint.cdf(data.order_columns.index(i), data.order_columns.index(j), s, t)


def _empirical_joint(data: Dataset) -> EmpiricalJointCDF:
    cols = tuple(np.asarray(data.regressors[:, j]) for j in data.order_columns)
    return EmpiricalJointCDF(columns=cols,
                             sorted_columns=tuple(np.sort(c) for c in cols))


def _spd_inverse(G: np.ndarray, cond_limit: float = _GRAM_COND_LIMIT) -> np.ndarray:
    """Inverse of a symmetric PSD matrix via its eigendecomposition."""
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    if w[-1] <= 0.0 or w[0] <= 0.0 or w[-1] / w[0] > cond_limit:
        raise SingularDesignError(
            f"Gram matrix is numerically singular (eigenvalue range "
            f"[{w[0]:.3e}, {w[-1]:.3e}])")
    return (V / w) @ V.T


def empirical_covariance(data: Dataset, views: tuple[OrderedView, ...],
                         gram: np.ndarray | None = None) -> CovarianceModel:
    """Covariance model with every ingredient estimated from the data."""
    if tuple(v.column for v in views) != data.order_columns:
        raise ValidationError("views must cover order_columns in order")
    G = estimate_gram(data) if gram is None else np.asarray(gram, dtype=float)
    return CovarianceModel(
        columns=data.order_columns,
        lorentz=tuple(estimate_lorentz(v) for v in views),
        gram=G,
        gram_inv=_spd_inverse(G),
        joint=_empirical_joint(data),
        source=f"empirical(n={data.n})",
    )


def analytic_covariance(model: SyntheticModel) -> CovarianceModel:
    """Closed-form covariance model for independent latent coordinates."""
    if not isinstance(model.copula, IndependenceCopula):
        raise UnsupportedModelError(
            "closed-form kernel ingredients exist only for the independence copula")
    fixture = IndependenceFixture(model.quantile_funcs)
    G = fixture.gram()
    return CovarianceModel(
        columns=tuple(range(model.d1)),
        lorentz=tuple(AnalyticLorentz(fixture, j) for j in range(model.d1)),
        gram=G,
        gram_inv=_spd_inverse(G),
        joint=ProductJointCDF(),
        source="analytic(independence)",
    )


def verify_gram_identity(model, j: int = 0) -> float:
    """Max entrywise error of integral(b2 + h'h) dx against the Gram matrix.

    Accepts a :class:`SyntheticModel` with independent latent coordinates
    or an :class:`IndependenceFixture` directly.  The integral runs over
    the conditioning coordinate j.
    """
    if isinstance(model, IndependenceFixture):
        fixture = model
    elif isinstance(model, SyntheticModel):
        if not isinstance(model.copula, IndependenceCopula):
            raise UnsupportedModelError(
                "the identity check needs independent latent coordinates")
        fixture = IndependenceFixture(model.quantile_funcs)
    else:
        raise ValidationError(f"unsupported model type {type(model).__name__}")
    from scipy.integrate import quad

    G = fixture.gram()
    p = fixture.p
    err = 0.0
    for a in range(p):
        for b in range(a, p):
            def entry(x, a=a, b=b):
                h = fixture.h(j, x)
                return fixture.b2(j, x)[a, b] + h[a] * h[b]

            val = quad(entry, 0.0, 1.0, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)[0]
            err = max(err, float(abs(val - G[a, b])))
    return err


def write_khat_csv(model: CovarianceModel, levels, path) -> None:
    """Write kernel values on a grid as CSV rows (i, j, s, t, value)."""
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    with open(path, "w", newline="") as fh:
        fh.write("i,j,s,t,value\n")
        for i in range(model.d_order):
            for j in range(model.d_order):
                block = model.khat_grid(i, j, levels, levels)
                for a, s in enumerate(levels):
                    for b, t in enumerate(levels):
                        fh.write(f"{i},{j},{float(s)!r},{float(t)!r},"
                                 f"{float(block[a, b])!r}\n")
