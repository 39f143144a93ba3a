"""Monte Carlo calibration of the omega-squared limit distribution.

The limiting statistic is the integral over [0, 1] of the squared limit
Gaussian process, summed over ordering slots.  It is approximated on a
uniform grid t = k/M: the covariance kernel is evaluated on the grid and
the squared process is averaged over the grid (right-endpoint rule, which
is exact in expectation for the pinned endpoint since the kernel vanishes
at t = 1).  That average is a weighted sum of independent chi-square(1)
variables whose weights are the eigenvalues of the grid matrix divided by
M, so only the eigenvalues are computed, with small and negative ones
clipped to zero.

A replicate draws the few largest weights exactly, as sum_k w_k g_k^2 / M,
and the many small ones that together carry at most `_REMAINDER_SHARE` of
the variance as one shifted, scaled chi-square with the same mean,
variance and third cumulant (Liu, Tang and Zhang 2009).  At n = 500 and
M = 100 that keeps 15 of 99 positive weights for one uniform ordering
regressor and 30 of 198 for two, and moves the tail probability of the
grid law by under 1e-6.

Clipping is not defensive rounding: with an intercept the kernel is
exactly degenerate at t = 1, so the grid matrix always has an eigenvalue
at numerical zero that must not leak noise into the draws.  Kernels
estimated from data bring a second source of clipping: the plug-in
matrix is mildly indefinite at small n, and its negative eigenvalues
carry no probability mass in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covmodel import CovarianceModel
from .errors import ValidationError
from .rng import collapse_seed

__all__ = [
    "GridSpec",
    "NullSpectrum",
    "NullDistribution",
    "build_grid_covariance",
    "factor_psd",
    "simulate_null",
    "p_value",
    "write_null_samples_csv",
    "CLIP_FLOOR",
]

CLIP_FLOOR = 1e-10
_CHUNK = 4096
# Largest share of the variance, sum w^2, left to the remainder law, and
# the fewest weights drawn exactly in front of it.
_REMAINDER_SHARE = 1e-3
_MIN_LEAD = 8
# Second seed word of the null stream (see `simulate_null`).
_NULL_WORD = (1 << 64) - 1


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid t = k/m, k = 1..m."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValidationError("grid needs at least 2 points")

    def points(self) -> np.ndarray:
        return np.arange(1, self.m + 1) / self.m


@dataclass(frozen=True, eq=False)
class NullSpectrum:
    """Clipped eigenvalues of a grid kernel matrix, ascending.

    `clip_count` is the number of eigenvalues that fell below `CLIP_FLOOR`
    and were replaced by zero in `weights`.
    """

    weights: np.ndarray
    clip_count: int

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class NullDistribution:
    """Sorted Monte Carlo sample of the limiting statistic."""

    samples: np.ndarray
    replicates: int
    clip_count: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.shape != (self.replicates,):
            raise ValidationError("sample count must equal the replicate count")
        if not np.all(s[1:] >= s[:-1]):
            raise ValidationError("samples must be sorted ascending")
        object.__setattr__(self, "samples", s)

    def quantile(self, q) -> np.ndarray | float:
        """Quantile by numpy's default 'linear' rule, read off the sorted sample.

        With v = (n - 1) q, lo = floor(v) and hi = min(lo + 1, n - 1), the
        quantile interpolates samples[lo] and samples[hi] at t = v - lo in
        the two-sided form of numpy's ``_lerp``.  On a sample free of -0.0
        (null samples are sums of squares) it therefore equals
        ``np.quantile(samples, q)`` bit for bit, without partitioning the
        already sorted sample (``np.quantile``'s first call also imports
        ``numpy.ma``).  A float for scalar `q`, an array for array `q`.
        """
        q = np.asarray(q)
        if not ((q >= 0) & (q <= 1)).all():
            raise ValueError("Quantiles must be in the range [0, 1]")
        s = self.samples
        n = s.size
        v = (n - 1) * q
        lo = np.minimum(np.maximum(np.floor(v), 0), n - 1).astype(np.intp)
        hi = np.minimum(lo + 1, n - 1)
        t = np.asarray(v - lo, dtype=v.dtype)
        a, b = s[lo], s[hi]
        diff = b - a
        out = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
        return float(out) if q.ndim == 0 else out


def build_grid_covariance(cov: CovarianceModel, grid: GridSpec) -> np.ndarray:
    """Kernel matrix on the product of slots and grid points.

    The matrix is (d*m, d*m), slot-major: block (i, j) holds
    khat(i, j, s, t) over the grid.
    """
    pts = grid.points()
    d = cov.d_order
    m = grid.m
    out = np.empty((d * m, d * m))
    for i in range(d):
        for j in range(i, d):
            block = cov.khat_grid(i, j, pts, pts)
            out[i * m:(i + 1) * m, j * m:(j + 1) * m] = block
            if j > i:
                out[j * m:(j + 1) * m, i * m:(i + 1) * m] = block.T
    return 0.5 * (out + out.T)


def factor_psd(matrix: np.ndarray) -> NullSpectrum:
    """Eigenvalues of a symmetric matrix, those below `CLIP_FLOOR` set to zero.

    Clipping serves both callers: analytic kernels carry an exact zero
    eigenvalue at the pinned endpoint (plus roundoff negatives), and
    kernels estimated from data are mildly indefinite at small n.  Both
    kinds are replaced by zero and counted in ``clip_count``.  For input
    that is positive semidefinite up to roundoff, V diag(weights) V' with
    V the eigenvectors satisfies max|V diag(weights) V' - M| <= CLIP_FLOOR
    + 1e-9 * max|M|.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("matrix must be square")
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    skew = A - A.T
    if float(np.max(np.abs(skew))) > 1e-12 * max(scale, 1.0):
        raise ValidationError("matrix must be symmetric")
    # On exactly symmetric input, such as `build_grid_covariance` output,
    # 0.5 * (A + A') is A bit for bit, so it need not be formed.
    w = np.linalg.eigvalsh(0.5 * (A + A.T) if skew.any() else A)
    below = w < CLIP_FLOOR
    return NullSpectrum(weights=np.where(below, 0.0, w),
                        clip_count=int(np.count_nonzero(below)))


def _split_weights(weights: np.ndarray):
    """Leading weights, and the remainder law a * chi2(nu) + b.

    The positive weights, in descending order, are cut after the fewest
    K >= `_MIN_LEAD` that leave at most `_REMAINDER_SHARE` of sum w^2 to
    the rest, r.  With a = sum r^3 / sum r^2, nu = (sum r^2)^3 /
    (sum r^3)^2 and b = sum r - a nu, the law a * chi2(nu) + b has the
    mean, variance and third cumulant of sum_k r_k chi2(1); b >= 0 by
    Cauchy-Schwarz, and the law is exact when the r are equal.  Matching
    three cumulants only pins the tail of the sum when the leading part
    has a smooth density, hence the floor on K: without it, weights
    k^-3.3 keep K = 2 and move the tail probability by 6.5e-5; with it,
    no power-law, geometric or log-uniform spectrum tried moved it by
    more than 4e-6.  Returns (lead, a, nu, b), with a = nu = b = 0 when
    nothing is left over.
    """
    w = np.sort(weights[weights > 0.0])[::-1]
    if w.size <= _MIN_LEAD:
        return w, 0.0, 0.0, 0.0
    # Sums are taken over weights scaled by the largest in their group,
    # so that no square or cube underflows.
    sq = (w / w[0]) ** 2
    tail = np.cumsum(sq[::-1])[::-1]  # tail[k] = sum of sq[k:]
    k = max(int(np.count_nonzero(tail > _REMAINDER_SHARE * tail[0])), _MIN_LEAD)
    if k == w.size:
        return w, 0.0, 0.0, 0.0
    r = w[k:] / w[k]
    s1, s2, s3 = float(r.sum()), float(np.dot(r, r)), float(np.sum(r ** 3))
    nu = s2 ** 3 / s3 ** 2
    return w[:k], w[k] * s3 / s2, nu, max(w[k] * (s1 - s2 * s2 / s3), 0.0)


def simulate_null(spectrum: NullSpectrum, replicates: int, grid: GridSpec,
                  seed) -> NullDistribution:
    """Draw the limiting statistic `replicates` times.

    Replicate r is (2 a x_r + b + sum_k w_k g_rk^2) / m: the w are the
    leading clipped eigenvalues of ``spectrum.weights`` and a, x_r and b
    carry the rest (see `_split_weights`), with x_r a gamma(nu / 2) draw.
    All of it comes from one SFC64 stream, seeded by
    ``SeedSequence([collapse_seed(seed), 2**64 - 1])``: first the
    `replicates` gamma draws (none when nothing is left over), then the
    normals g, row r of the stream read on as a (replicates, K) array.
    Rows are drawn `_CHUNK` at a time to bound memory, and the stream
    runs on across chunks, so the output does not depend on the chunk
    size.  The stream is never re-keyed, so it needs none of Philox's
    counter keys, and SFC64 draws normals in about 30% less time on
    x86-64.  Being another generator, it does not replay the Philox data
    streams of the same seed.  The spectrum dimension must be a multiple
    of the grid size (one block per ordering slot).
    """
    if replicates < 100:
        raise ValidationError("need at least 100 replicates for a usable tail")
    dim = spectrum.dim
    if dim % grid.m != 0:
        raise ValidationError(
            f"factor dimension {dim} is not a multiple of grid size {grid.m}")
    lead, a, nu, b = _split_weights(spectrum.weights)
    gen = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence([collapse_seed(seed), _NULL_WORD])))
    out = np.zeros(replicates)
    if nu > 0.0:
        gen.standard_gamma(nu / 2.0, out=out)
        out *= 2.0 * a
        out += b
    G = np.empty((min(_CHUNK, replicates), lead.size))
    for start in range(0, replicates, _CHUNK):
        stop = min(start + _CHUNK, replicates)
        g = gen.standard_normal(out=G[:stop - start])
        np.square(g, out=g)
        out[start:stop] += np.einsum("ij,j->i", g, lead)
    out /= grid.m
    return NullDistribution(samples=np.sort(out), replicates=replicates,
                            clip_count=spectrum.clip_count)


def p_value(stat: float, null: NullDistribution) -> float:
    """Monte Carlo p-value (1 + #{samples >= stat}) / (replicates + 1)."""
    if not np.isfinite(stat):
        raise ValidationError("statistic must be finite")
    exceed = int(np.count_nonzero(null.samples >= stat))
    return (1.0 + exceed) / (null.replicates + 1.0)


def write_null_samples_csv(null: NullDistribution, path) -> None:
    """Write the sorted null samples as a one-column CSV."""
    with open(path, "w", newline="") as fh:
        fh.write("omega_sq\n")
        for v in null.samples:
            fh.write(f"{float(v)!r}\n")
