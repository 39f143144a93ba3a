"""Monte Carlo calibration of the omega-squared limit distribution.

The limiting statistic is the integral over [0, 1] of the squared limit
Gaussian process, summed over ordering slots.  It is approximated on a
uniform grid t = k/M: the covariance kernel is evaluated on the grid, the
resulting matrix is eigendecomposed with small and negative eigenvalues
clipped to zero, and the squared process is averaged over the grid
(right-endpoint rule, which is exact in expectation for the pinned
endpoint since the kernel vanishes at t = 1).  With F = V diag(sqrt(w))
the factor of the clipped matrix, the squared norm of F g is
sum_k w_k g_k^2 for V orthogonal, so a replicate is drawn as that
eigenvalue-weighted sum of squared standard normals; the eigenvectors do
not enter the law.

Clipping is not defensive rounding: with an intercept the kernel is
exactly degenerate at t = 1, so the grid matrix always has an eigenvalue
at numerical zero that must not leak noise into the factor.  Kernels
estimated from data bring a second source of clipping: the plug-in
matrix is mildly indefinite at small n, and its negative eigenvalues
carry no probability mass in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covmodel import CovarianceModel
from .errors import ValidationError
from .rng import ReplicateStreams, collapse_seed

__all__ = [
    "GridSpec",
    "PSDFactor",
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
class PSDFactor:
    """Factor F with F F' equal to the clipped input matrix.

    `clip_count` is the number of eigenvalues that fell below `clip_floor`
    and were replaced by zero.  `weights` holds the clipped eigenvalues,
    ascending, one per column of F: F = V diag(sqrt(weights)) with V the
    orthogonal eigenvectors.
    """

    matrix: np.ndarray
    clip_count: int
    clip_floor: float
    weights: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
        object.__setattr__(self, "samples", s)

    def quantile(self, q) -> np.ndarray | float:
        out = np.quantile(self.samples, q)
        return float(out) if np.ndim(q) == 0 else out

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


def factor_psd(matrix: np.ndarray, clip_floor: float = CLIP_FLOOR) -> PSDFactor:
    """Eigen-factorization with sub-floor eigenvalues clipped to zero.

    Clipping serves both callers: analytic kernels carry an exact zero
    eigenvalue at the pinned endpoint (plus roundoff negatives), and
    kernels estimated from data are mildly indefinite at small n.  Both
    kinds are replaced by zero and counted in ``clip_count``.  For input
    that is positive semidefinite up to roundoff the reconstruction
    satisfies max|FF' - M| <= clip_floor + 1e-9 * max|M|.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("matrix must be square")
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if float(np.max(np.abs(A - A.T))) > 1e-12 * max(scale, 1.0):
        raise ValidationError("matrix must be symmetric")
    if clip_floor < 0:
        raise ValidationError("clip_floor must be >= 0")
    sym = 0.5 * (A + A.T)
    w, V = np.linalg.eigh(sym)
    below = w < clip_floor
    wc = np.where(below, 0.0, w)
    F = V * np.sqrt(wc)
    return PSDFactor(matrix=F, clip_count=int(np.count_nonzero(below)),
                     clip_floor=float(clip_floor), weights=wc)


def simulate_null(factor: PSDFactor, replicates: int, grid: GridSpec, seed) -> NullDistribution:
    """Draw the limiting statistic `replicates` times.

    Replicate r draws a standard normal vector g from its own stream
    ``philox_stream(seed, r)`` and takes sum_k w_k g_k^2 / m with w the
    clipped eigenvalues in ``factor.weights``, which equals |F g|^2 / m.
    The output is invariant under execution order and chunking.  The
    factor dimension must be a multiple of the grid size (one block per
    ordering slot).
    """
    if replicates < 100:
        raise ValidationError("need at least 100 replicates for a usable tail")
    dim = factor.dim
    if dim % grid.m != 0:
        raise ValidationError(
            f"factor dimension {dim} is not a multiple of grid size {grid.m}")
    eff = collapse_seed(seed)
    streams = ReplicateStreams(eff)
    out = np.empty(replicates)
    G = np.empty((min(_CHUNK, replicates), dim))
    for start in range(0, replicates, _CHUNK):
        stop = min(start + _CHUNK, replicates)
        g = streams.standard_normal_rows(start, G[:stop - start])
        np.square(g, out=g)
        out[start:stop] = np.einsum("ij,j->i", g, factor.weights) / grid.m
    return NullDistribution(samples=np.sort(out), replicates=replicates,
                            grid=grid, clip_count=factor.clip_count)


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
