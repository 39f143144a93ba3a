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

The empirical C on an m_s x m_t grid of levels comes from one histogram
of bucket pairs, not from (m, n) indicator matrices: each row falls in
the bucket of the first level whose order-statistic threshold it is at
or below (the `<=` rule, ties included), and a 2-D cumulative sum of the
bucket-pair counts gives every cell.  That costs O(n log m + m_s m_t)
time and O(n + m_s m_t) memory, and every cell is an exact count over n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import floor_index
from .dataset import (AffineQuantile, Dataset, IndependenceCopula,
                      SyntheticModel)
from .errors import SingularDesignError, UnsupportedModelError, ValidationError
from .ols import COND_THRESHOLD
from .ordering import OrderedView

__all__ = [
    "GridLorentz",
    "AnalyticLorentz",
    "EmpiricalJointCDF",
    "ProductJointCDF",
    "IndependenceFixture",
    "CovarianceModel",
    "estimate_lorentz",
    "empirical_covariance",
    "analytic_covariance",
    "verify_gram_identity",
]

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
        if (t < 0.0).any() or (t > 1.0).any():
            raise ValidationError("levels must lie in [0, 1]")
        pos = t * self.n
        i0 = np.minimum(np.maximum(np.floor(pos).astype(int), 0), self.n - 1)
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
    most the [nt]-th order statistic of column j, divided by n.  The
    `<=` rule counts every row tied with a threshold.  A level with
    [ns] = 0 has threshold -inf and covers no row of a finite column.

    `cdf_grid` never forms (levels, n) indicator matrices.  Between two
    slots it sorts each slot's thresholds, puts every row in the bucket
    of the first level whose threshold covers it (`searchsorted`),
    histograms the bucket pairs into an (m_s + 1, m_t + 1) table, takes
    its 2-D cumulative sum and reads each level at its threshold's rank:
    O(n log m + m_s m_t) time, O(n + m_s m_t) memory.  Within one slot a
    row is under both thresholds iff it is under the lower one, so a
    cell is the count of sorted values at or below the lower threshold:
    O(m log n + m_s m_t), with no pass over the rows, and one array passed
    as both `svals` and `tvals` is ranked once.  Every cell is an exact
    integer count divided by n.
    """

    columns: tuple[np.ndarray, ...]
    sorted_columns: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return self.columns[0].shape[0]

    def _thresholds(self, slot: int, levels) -> np.ndarray:
        """The [n * level]-th order statistic of the slot's column, -inf at 0."""
        counts = floor_index(self.n, np.atleast_1d(np.asarray(levels, dtype=float)))
        return np.where(counts > 0, self.sorted_columns[slot][counts - 1], -np.inf)

    def cdf_grid(self, i: int, j: int, svals, tvals) -> np.ndarray:
        ts = self._thresholds(i, svals)
        if i == j:
            srt = self.sorted_columns[i]
            cs = np.searchsorted(srt, ts, side="right")
            ct = cs if tvals is svals else np.searchsorted(
                srt, self._thresholds(j, tvals), side="right")
            return np.minimum.outer(cs, ct) / self.n
        tt = self._thresholds(j, tvals)
        # A row's bucket is the number of thresholds below its value, so it
        # lies under the level ranked k among the sorted thresholds iff its
        # bucket is at most k.
        ss, st = np.sort(ts), np.sort(tt)
        width = st.shape[0] + 1
        pairs = (np.searchsorted(ss, self.columns[i], side="left") * width
                 + np.searchsorted(st, self.columns[j], side="left"))
        hist = np.bincount(pairs, minlength=(ss.shape[0] + 1) * width)
        counts = hist.reshape(-1, width).cumsum(axis=0).cumsum(axis=1)
        return (counts.take(np.searchsorted(ss, ts, side="left"), axis=0)
                .take(np.searchsorted(st, tt, side="left"), axis=1) / self.n)


@dataclass(frozen=True)
class ProductJointCDF:
    """Pairwise copula cdf for independent coordinates: s*t, min on the diagonal."""

    def cdf_grid(self, i: int, j: int, svals, tvals) -> np.ndarray:
        svals = np.atleast_1d(np.asarray(svals, dtype=float))
        tvals = np.atleast_1d(np.asarray(tvals, dtype=float))
        if i == j:
            return np.minimum.outer(svals, tvals)
        return np.outer(svals, tvals)


# ======================================================================
# Closed-form ingredients for independent latent coordinates
# ======================================================================

class IndependenceFixture:
    """Closed-form conditional moments for independent uniforms mapped
    through per-coordinate affine margins, plus a trailing intercept.

    With zero margins this degenerates to the intercept-only
    design, where the conditional mean is the constant vector (1,).
    """

    def __init__(self, quantiles: tuple[AffineQuantile, ...]):
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
                out[:, a] = q.partial_integral(t)
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

    @property
    def d_order(self) -> int:
        return len(self.columns)

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
        if i == j and np.array_equal(svals, tvals):
            # A diagonal block on equal levels: one curve evaluation, and
            # `cdf_grid` sees the same array twice and ranks it once.
            tvals, lj = svals, li
        else:
            lj = self.lorentz[j].values(tvals)
        return self.joint.cdf_grid(i, j, svals, tvals) - li @ self.gram_inv @ lj.T

    def khat(self, i: int, j: int, s: float, t: float) -> float:
        return float(self.khat_grid(i, j, [s], [t])[0, 0])


# ======================================================================
# Estimators
# ======================================================================

def estimate_lorentz(view: OrderedView) -> GridLorentz:
    """Running mean of the full regressor rows along one sorted view."""
    n = view.n
    gv = np.vstack([np.zeros((1, view.sorted_regressors.shape[1])),
                    np.cumsum(view.sorted_regressors, axis=0)]) / n
    return GridLorentz(gv)


def _empirical_joint(data: Dataset,
                     views: tuple[OrderedView, ...]) -> EmpiricalJointCDF:
    """Pairwise cdf estimate; each view's rows are its column already sorted."""
    cols = tuple(np.asarray(data.regressors[:, j]) for j in data.order_columns)
    return EmpiricalJointCDF(
        columns=cols,
        sorted_columns=tuple(np.ascontiguousarray(v.sorted_regressors[:, v.column])
                             for v in views))


def _spd_inverse(G: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric PSD matrix; singular past `COND_THRESHOLD`."""
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    if w[-1] <= 0.0 or w[0] <= 0.0 or w[-1] / w[0] > COND_THRESHOLD:
        raise SingularDesignError(
            f"Gram matrix is numerically singular (eigenvalue range "
            f"[{w[0]:.3e}, {w[-1]:.3e}])")
    return (V / w) @ V.T


def empirical_covariance(data: Dataset, views: tuple[OrderedView, ...],
                         gram: np.ndarray) -> CovarianceModel:
    """Covariance model estimated from the data; `gram` is ``fit.gram``."""
    if tuple(v.column for v in views) != data.order_columns:
        raise ValidationError("views must cover order_columns in order")
    G = np.asarray(gram, dtype=float)
    return CovarianceModel(
        columns=data.order_columns,
        lorentz=tuple(estimate_lorentz(v) for v in views),
        gram=G,
        gram_inv=_spd_inverse(G),
        joint=_empirical_joint(data, views),
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
