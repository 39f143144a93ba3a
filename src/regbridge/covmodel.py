"""Limit covariance kernel of the residual bridges, estimated or in closed form.

The bridge vector converges to a centered Gaussian process whose covariance
between ordering slots i and j at levels (s, t) is

    khat(i, j, s, t) = C(i, j, s, t) - L_i(s) G^{-1} L_j(t)',

where C is the pairwise copula cdf of the ordering regressors (min(s, t)
on the diagonal), L_j is the running mean of the full regressor vector
along the rows sorted by column j, and G is the normalized Gram matrix.
`CovarianceModel` assembles the kernel from a curve L and a cdf C, which
come in two forms: `EmpiricalCovariance` estimates them from a dataset,
and `IndependenceCovariance` is the closed form for independent uniform
coordinates through affine margins.

The empirical L and C are read at the bridge's nodes [nt], L in place
from each ordering's table of running sums (see `ordering`).  So ties
group as in the bridge, and the grid matrix is (1/n) A (I - H) A', for A
the 0/1 matrix of rows at or below each level and H the hat matrix: PSD.
The empirical C on an m_s x m_t grid of levels comes from one histogram
of bucket pairs, not from (m, n) indicator matrices: each row falls in
the bucket of the first level whose order-statistic threshold it is at
or below (the `<=` rule, ties included), and a 2-D cumulative sum of the
bucket-pair counts gives every cell.  That costs O(n log m + m_s m_t)
time and O(n + m_s m_t) memory, and every cell is an exact count over n.
"""

from __future__ import annotations

import numpy as np

from .bridge import check_levels, floor_index
from .dataset import (AffineQuantile, Dataset, IndependenceCopula,
                      SyntheticModel)
from .errors import SingularDesignError, UnsupportedModelError, ValidationError
from .ols import COND_THRESHOLD
from .ordering import OrderedView

__all__ = [
    "CovarianceModel",
    "EmpiricalCovariance",
    "IndependenceCovariance",
    "empirical_covariance",
    "analytic_covariance",
    "verify_gram_identity",
]

_QUAD_TOL = 1e-11


def _spd_inverse(G: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric PSD matrix; singular past `COND_THRESHOLD`."""
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    if w[-1] <= 0.0 or w[0] <= 0.0 or w[-1] / w[0] > COND_THRESHOLD:
        raise SingularDesignError(
            f"Gram matrix is numerically singular (eigenvalue range "
            f"[{w[0]:.3e}, {w[-1]:.3e}])")
    return (V / w) @ V.T


class CovarianceModel:
    """The bridge covariance kernel of the ordering slots `columns`.

    `columns[slot]` is the regressor column the slot orders by, and
    `gram_inv` the inverse of the Gram matrix given.  A subclass supplies
    the running-mean curve, ``curve(slot, t)`` of shape (len(t), p), and
    the pairwise cdf, ``cdf_grid(i, j, svals, tvals)``.
    """

    def __init__(self, columns, gram):
        self.columns = tuple(columns)
        self.gram_inv = _spd_inverse(np.asarray(gram, dtype=float))

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
        svals = np.atleast_1d(check_levels(svals))
        # A diagonal block on equal levels: one curve evaluation, and
        # `cdf_grid` sees the same array twice and ranks it once.
        shared = i == j and np.array_equal(svals, tvals)
        tvals = svals if shared else np.atleast_1d(check_levels(tvals))
        li = self.curve(i, svals)
        lj = li if shared else self.curve(j, tvals)
        return self.cdf_grid(i, j, svals, tvals) - li @ self.gram_inv @ lj.T

    def khat(self, i: int, j: int, s: float, t: float) -> float:
        return float(self.khat_grid(i, j, [s], [t])[0, 0])


class EmpiricalCovariance(CovarianceModel):
    """Kernel ingredients estimated from one dataset.

    `views[slot]` is the slot's `OrderedView` and `values[slot]` its
    ordering column in row order.  The running mean at level t is the
    view's regressor sums at node [nt], divided by n.

    The (s, t) cell of `cdf_grid` counts rows whose slot-i value is at
    most the [ns]-th order statistic of slot i and whose slot-j value is
    at most the [nt]-th order statistic of slot j, divided by n.  The
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

    def __init__(self, columns, gram, views, values):
        super().__init__(columns, gram)
        self.views = tuple(views)
        self.values = tuple(values)

    @property
    def n(self) -> int:
        return self.values[0].shape[0]

    def curve(self, slot: int, t: np.ndarray) -> np.ndarray:
        return self.views[slot].sums[floor_index(self.n, t), 1:] / self.n

    def _thresholds(self, slot: int, levels) -> np.ndarray:
        """The [n * level]-th order statistic of the slot's column, -inf at 0."""
        counts = floor_index(self.n, np.atleast_1d(levels))
        return np.where(counts > 0, self.views[slot].sorted_column[counts - 1],
                        -np.inf)

    def cdf_grid(self, i: int, j: int, svals, tvals) -> np.ndarray:
        ts = self._thresholds(i, svals)
        if i == j:
            srt = self.views[i].sorted_column
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
        pairs = (np.searchsorted(ss, self.values[i], side="left") * width
                 + np.searchsorted(st, self.values[j], side="left"))
        hist = np.bincount(pairs, minlength=(ss.shape[0] + 1) * width)
        counts = hist.reshape(-1, width).cumsum(axis=0).cumsum(axis=1)
        return (counts.take(np.searchsorted(ss, ts, side="left"), axis=0)
                .take(np.searchsorted(st, tt, side="left"), axis=1) / self.n)


class IndependenceCovariance(CovarianceModel):
    """Closed-form kernel for independent uniform coordinates mapped
    through the affine margins `quantiles`, plus a trailing intercept.

    Slot j orders by coordinate j, so C is s*t between slots and min(s, t)
    within one.  With no margins this is the intercept-only design
    ordered by one latent coordinate: L(t) = (t) and G = (1), and the
    kernel is the pinned-bridge covariance min(s, t) - s*t.  `h`, `b2`
    and `gram` are the conditional moments and the second-moment matrix
    that `verify_gram_identity` checks against each other.
    """

    def __init__(self, quantiles: tuple[AffineQuantile, ...] = ()):
        self.quantiles = tuple(quantiles)
        self.p = len(self.quantiles) + 1
        self.means = np.array([q.mean() for q in self.quantiles])
        self.second_moments = np.array([q.second_moment() for q in self.quantiles])
        super().__init__(range(max(len(self.quantiles), 1)), self.gram())

    def h(self, j: int, x: float) -> np.ndarray:
        """Conditional mean of the regressor vector given coordinate j = x."""
        self._check_slot(j)
        out = np.empty(self.p)
        for a, q in enumerate(self.quantiles):
            out[a] = float(q(x)) if a == j else self.means[a]
        out[-1] = 1.0
        return out

    def b2(self, j: int, x: float) -> np.ndarray:
        """Conditional covariance of the regressor vector given coordinate j = x."""
        self._check_slot(j)
        diag = np.append(self.second_moments - self.means ** 2, 0.0)
        if self.quantiles:
            diag[j] = 0.0
        return np.diag(diag)

    def gram(self) -> np.ndarray:
        """Second-moment matrix of the regressor vector."""
        G = np.outer(np.append(self.means, 1.0), np.append(self.means, 1.0))
        for a, m2 in enumerate(self.second_moments):
            G[a, a] = m2
        return G

    def curve(self, slot: int, t: np.ndarray) -> np.ndarray:
        """Integral of h(slot, .) from 0 to each t, shape (len(t), p)."""
        out = np.empty((t.shape[0], self.p))
        for a, q in enumerate(self.quantiles):
            out[:, a] = q.partial_integral(t) if a == slot else self.means[a] * t
        out[:, -1] = t
        return out

    def cdf_grid(self, i: int, j: int, svals, tvals) -> np.ndarray:
        if i == j:
            return np.minimum.outer(svals, tvals)
        return np.outer(svals, tvals)


def empirical_covariance(data: Dataset, views: tuple[OrderedView, ...],
                         gram: np.ndarray) -> EmpiricalCovariance:
    """Covariance model estimated from the data; `gram` is ``fit.gram``."""
    if tuple(v.column for v in views) != data.order_columns:
        raise ValidationError("views must cover order_columns in order")
    return EmpiricalCovariance(
        data.order_columns, gram, views,
        values=tuple(data.regressors[:, j] for j in data.order_columns))


def analytic_covariance(model: SyntheticModel) -> IndependenceCovariance:
    """Closed-form covariance model for independent latent coordinates."""
    if not isinstance(model.copula, IndependenceCopula):
        raise UnsupportedModelError(
            "closed-form kernel ingredients exist only for the independence copula")
    return IndependenceCovariance(model.quantile_funcs)


def verify_gram_identity(model, j: int = 0) -> float:
    """Max entrywise error of integral(b2 + h'h) dx against the Gram matrix.

    Accepts a :class:`SyntheticModel` with independent latent coordinates
    or an :class:`IndependenceCovariance` directly.  The integral runs
    over the conditioning coordinate j.
    """
    if isinstance(model, SyntheticModel):
        model = analytic_covariance(model)
    elif not isinstance(model, IndependenceCovariance):
        raise ValidationError(f"unsupported model type {type(model).__name__}")
    from scipy.integrate import quad

    G = model.gram()
    err = 0.0
    for a in range(model.p):
        for b in range(a, model.p):
            def entry(x, a=a, b=b):
                h = model.h(j, x)
                return model.b2(j, x)[a, b] + h[a] * h[b]

            val = quad(entry, 0.0, 1.0, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)[0]
            err = max(err, float(abs(val - G[a, b])))
    return err
