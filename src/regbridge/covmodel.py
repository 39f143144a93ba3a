"""Limit covariance kernel of the residual bridges, estimated from the data.

The bridge vector converges to a centered Gaussian process whose covariance
between ordering slots i and j at levels (s, t) is

    khat(i, j, s, t) = C(i, j, s, t) - L_i(s) G^{-1} L_j(t)',

where C is the pairwise copula cdf of the ordering regressors (min(s, t)
on the diagonal), L_j is the running mean of the full regressor vector
along the rows sorted by column j, and G is the normalized Gram matrix.
`CovarianceModel` assembles the kernel from a curve L and a cdf C, and
`EmpiricalCovariance` estimates both holding only G^{-1} and each slot's
`OrderedView` (sort permutation, sorted column, running sums).

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
from .dataset import Dataset
from .errors import SingularDesignError, ValidationError
from .ols import COND_THRESHOLD
from .ordering import OrderedView

__all__ = [
    "CovarianceModel",
    "EmpiricalCovariance",
    "empirical_covariance",
]


def _spd_inverse(G: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric PSD matrix; singular past `COND_THRESHOLD`."""
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    if w[-1] <= 0.0 or w[0] <= 0.0 or w[-1] / w[0] > COND_THRESHOLD:
        raise SingularDesignError(
            f"Gram matrix is numerically singular (eigenvalue range "
            f"[{w[0]:.3e}, {w[-1]:.3e}])")
    return (V / w) @ V.T


class CovarianceModel:
    """The bridge covariance kernel of `d_order` ordering slots.

    `gram_inv` is the inverse of the Gram matrix given.  A subclass
    supplies the running-mean curve, ``curve(slot, t)`` of shape
    (len(t), p), and the pairwise cdf, ``cdf_grid(i, j, svals, tvals)``.
    """

    def __init__(self, d_order: int, gram):
        self.d_order = int(d_order)
        self.gram_inv = _spd_inverse(np.asarray(gram, dtype=float))

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
    """Kernel ingredients estimated from one dataset's ordering views.

    `views[slot]` is the slot's `OrderedView`; the model reads nothing
    else of the data.  The running mean at level t is the view's
    regressor sums at node [nt], divided by n.

    The (s, t) cell of `cdf_grid` counts rows whose slot-i value is at
    most the [ns]-th order statistic of slot i and whose slot-j value is
    at most the [nt]-th order statistic of slot j, divided by n.  The
    `<=` rule counts every row tied with a threshold.  A level with
    [ns] = 0 has threshold -inf and covers no row of a finite column.

    `cdf_grid` never forms (levels, n) indicator matrices.  Between two
    slots it sorts each slot's thresholds, puts every row in the bucket
    of the first level whose threshold covers it (`searchsorted` on the
    sorted column, scattered to rows through the view's permutation),
    histograms the bucket pairs into an (m_s + 1, m_t + 1) table, takes
    its 2-D cumulative sum and reads each level at its threshold's rank:
    O(n log m + m_s m_t) time, O(n + m_s m_t) memory.  Within one slot a
    row is under both thresholds iff it is under the lower one, so a
    cell is the count of sorted values at or below the lower threshold:
    O(m log n + m_s m_t), with no pass over the rows, and one array passed
    as both `svals` and `tvals` is ranked once.  Every cell is an exact
    integer count divided by n.
    """

    def __init__(self, gram, views):
        super().__init__(len(views), gram)
        self.views = tuple(views)
        self.n = self.views[0].n

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
        # bucket is at most k.  Buckets are found per sorted position; the
        # slot-j ones go to rows through its permutation, and the pairs are
        # read in slot-i order, which the histogram does not see.
        ss, st = np.sort(ts), np.sort(tt)
        vi, vj = self.views[i], self.views[j]
        bj = np.empty(self.n, dtype=np.intp)
        bj[vj.perm] = np.searchsorted(st, vj.sorted_column, side="left")
        width = st.shape[0] + 1
        pairs = (np.searchsorted(ss, vi.sorted_column, side="left") * width
                 + bj[vi.perm])
        hist = np.bincount(pairs, minlength=(ss.shape[0] + 1) * width)
        counts = hist.reshape(-1, width).cumsum(axis=0).cumsum(axis=1)
        return (counts.take(np.searchsorted(ss, ts, side="left"), axis=0)
                .take(np.searchsorted(st, tt, side="left"), axis=1) / self.n)


def empirical_covariance(data: Dataset, views: tuple[OrderedView, ...],
                         gram: np.ndarray) -> EmpiricalCovariance:
    """Covariance model estimated from the data; `gram` is ``fit.gram``."""
    if tuple(v.column for v in views) != data.order_columns:
        raise ValidationError("views must cover order_columns in order")
    return EmpiricalCovariance(gram, views)

