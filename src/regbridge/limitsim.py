"""Monte Carlo calibration of the omega-squared limit distribution.

The limiting statistic is the integral over [0, 1] of the squared limit
Gaussian process, summed over ordering slots.  It is approximated on a
uniform grid t = k/M: the covariance kernel is evaluated on the grid and
the squared process is averaged over the grid (right-endpoint rule, which
is exact in expectation for the pinned endpoint since the kernel vanishes
at t = 1).  That average is a weighted sum of independent chi-square(1)
variables whose weights are the eigenvalues of the grid matrix divided by
M, so only the eigenvalues are computed, with small and negative ones
clipped to zero, and a replicate is drawn as sum_k w_k g_k^2 / M.

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
from .rng import collapse_seed, philox_stream

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
# Second key word of the null stream; no data stream uses it (see
# `simulate_null`).
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

    `clip_count` is the number of eigenvalues that fell below `clip_floor`
    and were replaced by zero in `weights`.
    """

    weights: np.ndarray
    clip_count: int
    clip_floor: float

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class NullDistribution:
    """Sorted Monte Carlo sample of the limiting statistic."""

    samples: np.ndarray
    replicates: int
    grid: GridSpec
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
        if not np.all((q >= 0) & (q <= 1)):
            raise ValueError("Quantiles must be in the range [0, 1]")
        s = self.samples
        n = s.size
        v = (n - 1) * q
        lo = np.clip(np.floor(v), 0, n - 1).astype(np.intp)
        hi = np.minimum(lo + 1, n - 1)
        t = np.asarray(v - lo, dtype=v.dtype)
        a, b = s[lo], s[hi]
        diff = b - a
        out = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
        return float(out) if q.ndim == 0 else out

    def mean(self) -> float:
        return float(self.samples.mean())


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


def factor_psd(matrix: np.ndarray, clip_floor: float = CLIP_FLOOR) -> NullSpectrum:
    """Eigenvalues of a symmetric matrix with sub-floor ones clipped to zero.

    Clipping serves both callers: analytic kernels carry an exact zero
    eigenvalue at the pinned endpoint (plus roundoff negatives), and
    kernels estimated from data are mildly indefinite at small n.  Both
    kinds are replaced by zero and counted in ``clip_count``.  For input
    that is positive semidefinite up to roundoff, V diag(weights) V' with
    V the eigenvectors satisfies max|V diag(weights) V' - M| <= clip_floor
    + 1e-9 * max|M|.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("matrix must be square")
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if float(np.max(np.abs(A - A.T))) > 1e-12 * max(scale, 1.0):
        raise ValidationError("matrix must be symmetric")
    if clip_floor < 0:
        raise ValidationError("clip_floor must be >= 0")
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    below = w < clip_floor
    return NullSpectrum(weights=np.where(below, 0.0, w),
                        clip_count=int(np.count_nonzero(below)),
                        clip_floor=float(clip_floor))


def simulate_null(spectrum: NullSpectrum, replicates: int, grid: GridSpec,
                  seed) -> NullDistribution:
    """Draw the limiting statistic `replicates` times.

    The normals are consecutive draws of one Philox stream, keyed
    ``[collapse_seed(seed), 2**64 - 1]``: replicate r reads row r of that
    stream taken as a (replicates, dim) array, g, and returns
    sum_k w_k g_k^2 / m with w the clipped eigenvalues in
    ``spectrum.weights``.  Rows are drawn `_CHUNK` at a time to bound
    memory, and the stream runs on across chunks, so the output does not
    depend on the chunk size.  The second key word keeps the stream apart
    from the data streams of an int seed, ``[seed, 0]`` and ``[seed, r]``,
    so equal data and null seeds never share bits.  The spectrum dimension
    must be a multiple of the grid size (one block per ordering slot).
    """
    if replicates < 100:
        raise ValidationError("need at least 100 replicates for a usable tail")
    dim = spectrum.dim
    if dim % grid.m != 0:
        raise ValidationError(
            f"factor dimension {dim} is not a multiple of grid size {grid.m}")
    gen = philox_stream(collapse_seed(seed), _NULL_WORD)
    out = np.empty(replicates)
    G = np.empty((min(_CHUNK, replicates), dim))
    for start in range(0, replicates, _CHUNK):
        stop = min(start + _CHUNK, replicates)
        g = gen.standard_normal(out=G[:stop - start])
        np.square(g, out=g)
        out[start:stop] = np.einsum("ij,j->i", g, spectrum.weights) / grid.m
    return NullDistribution(samples=np.sort(out), replicates=replicates,
                            grid=grid, clip_count=spectrum.clip_count)


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
