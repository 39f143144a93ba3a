"""Calibration of the omega-squared statistic by its exact grid law.

The limiting statistic is the integral over [0, 1] of the squared limit
Gaussian process, summed over ordering slots.  It is approximated on a
uniform grid t = k/M: the covariance kernel is evaluated on the grid and
the squared process is averaged over the grid (right-endpoint rule, which
is exact in expectation for the pinned endpoint since the kernel vanishes
at t = 1).  That average is a weighted sum of independent chi-square(1)
variables whose weights are the eigenvalues of the grid matrix divided by
M, so only the eigenvalues are computed, with small and negative ones
clipped to zero.

The few largest weights are kept exactly, and the many small ones that
together carry at most `_REMAINDER_SHARE` of the variance are replaced
by one shifted, scaled chi-square with the same mean, variance and third
cumulant (Liu, Tang and Zhang 2009).  At n = 500 and M = 100 that keeps
15 of 99 positive weights for one uniform ordering regressor and 30 of
198 for two, and moves the tail probability of the grid law by under
1e-6.  The tail of that split law is computed by inverting its Laplace
transform numerically on a fixed Talbot contour (Abate and Valko 2004),
so p-values and quantiles carry no Monte Carlo error and no seed.  A
Monte Carlo sample of the same law is drawn only when it is read.

Clipping is not defensive rounding: with an intercept the kernel is
exactly degenerate at t = 1, so the grid matrix always has an eigenvalue
at numerical zero that must not leak into the law.  A kernel estimated
from data is positive semidefinite by construction (see `covmodel`): it
adds zeros once the grid outnumbers the n - p residual dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .covmodel import CovarianceModel
from .errors import RegBridgeError, ValidationError
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
# the fewest weights kept exactly in front of it.
_REMAINDER_SHARE = 1e-3
_MIN_LEAD = 8
# Second seed word of the null stream (see `NullDistribution.samples`).
_NULL_WORD = (1 << 64) - 1


def _talbot_rule(n: int):
    """Fixed Talbot rule with n nodes (Abate and Valko 2004): f(y) = Re
    sum_k W[k] F(P[k] / y) / y inverts the Laplace transform F of f.  Its
    roundoff grows like exp(0.4 n): against adaptive quadrature of the
    tail, 24 nodes erred by 1.3e-12, 32 by 1.6e-11 and 40 by 4.4e-10."""
    angle = np.arange(1, n) * np.pi / n
    cot = 1.0 / np.tan(angle)
    S = np.concatenate(([1.0], angle * (cot + 1j)))
    W = np.concatenate(([0.5], 1.0 + 1j * (angle + (angle * cot - 1.0) * cot)))
    return 0.4 * n * S, 0.4 * W * np.exp(0.4 * n * S)


# The 24-node rule, and a 32-node rule that checks it, evaluated at once:
# column 0 of _TALBOT_W sums the first rule's nodes, column 1 the second's.
_RULES = [_talbot_rule(24), _talbot_rule(32)]
_TALBOT_P = np.concatenate([P for P, _ in _RULES])
_TALBOT_W = np.zeros((_TALBOT_P.size, 2), dtype=complex)
_TALBOT_W[:24, 0], _TALBOT_W[24:, 1] = _RULES[0][1], _RULES[1][1]
# Largest exponential tilt, as a share of the distance 1 / (2 w_max) from
# the origin to the nearest singularity of the transform.
_TILT_CAP = 0.9
# Longest Gil-Pelaez sum, at the mean, taken before the Talbot rule, and
# the lengths tried, up to a hundred times that, where the rule fails its
# check.
_MAX_NODES = 500
_LONGER = np.geomspace(1.0, 100.0, 60)
# Floor of a tail probability: one that underflows reads as this value.
_TINY = np.finfo(float).tiny


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
    """Law of the grid statistic, Q = (sum_k lead_k chi2(1) + a chi2(nu) + b) / m.

    The chi-squares are independent: `lead` holds the largest clipped
    eigenvalues of the grid kernel, and a, nu and b the remainder law of
    the others (see `_split_weights`), all zero when nothing is left
    over.  `sf` and `quantile` are exact up to the roundoff of the
    numerical inversion; `samples` is a Monte Carlo sample of the law,
    `replicates` draws from the stream seeded by `seed`, drawn on first
    read.
    """

    lead: np.ndarray
    a: float
    nu: float
    b: float
    m: int
    replicates: int
    seed: int
    clip_count: int

    def _tail(self, y: np.ndarray):
        """P(Y > y) and the density of Y = sum_k lead_k chi2(1) + a chi2(nu), at y > 0.

        A Gil-Pelaez sum where it is short, which it is on laws with many
        comparable weights; elsewhere the Talbot rule, unless a finer
        Talbot rule disagrees with it (tails below 1e-100 aside), as it
        does where clusters of near-equal weights put high-order poles
        near its contour (12 ordering regressors correlated at 0.9:
        2.2e-8), or where either rule gives no probability, as where
        the transform overflows far below the mean.  Then a Gil-Pelaez
        sum of up to a hundred times the length: one large weight beside
        150 equal ones 1/1000 its size needs 17 times at a tenth of the
        mean, where the finer rule errs by 3.9e-5.  Where even that is too
        short, the Talbot rule is kept if the two rules agree to 1e-10 in
        absolute terms, as they do in tails below about 1e-30, where the
        tilt is capped and the relative error passes 5e-8.  Otherwise no checked value is known, as for
        one weight beside 400 equal ones 1/48000 its size at a hundredth
        of the mean, and RegBridgeError is raised rather than an
        unchecked value returned.
        """
        w = np.append(self.lead, self.a)
        h = np.append(np.ones(self.lead.size), self.nu)
        mean = float(h @ w)
        cap = _TILT_CAP / (2.0 * w[0])
        T = (37.0 - 0.5 * (np.log1p(-2.0 * cap * w) @ h)) / cap
        U = 2.0 * np.pi * _MAX_NODES / (mean + T) * _LONGER
        decayed = np.log1p(np.multiply.outer(4.0 * U * U, w * w)) @ h >= 148.0
        if decayed[0]:
            return _gil_pelaez(y, w, h, T, U[0])
        with np.errstate(over="ignore", invalid="ignore"):
            rules, pdf = _talbot(y, w, h, mean)
        # A rule value that overflowed, or that is no probability up to
        # the rules' roundoff, fails its check.
        sane = (np.abs(rules - 0.5) <= 0.5 + 1e-10).all(axis=1)
        sf, check = rules.T
        gap = np.abs(sf - check)
        # Within 5e-11 in the bulk, 5e-8 relative in tails below 1e-3.
        if np.all(sane & ((gap <= 5e-11 * np.minimum(1.0, 1e3 * np.abs(check)))
                          | (check < 1e-100))):
            return sf, pdf
        if decayed.any():
            return _gil_pelaez(y, w, h, T, U[np.argmax(decayed)])
        if np.all(sane & (gap <= 1e-10)):
            return sf, pdf
        raise RegBridgeError("the tail probability of the null law could "
                             "not be computed to a checked accuracy here")

    def sf(self, x):
        """P(Q >= x), vectorised: a float for scalar `x`, an array for array `x`.

        Values are floored at np.finfo(float).tiny, so a tail that
        underflows double precision reads as that, and a p-value stays in
        (0, 1].  Raises RegBridgeError where no inversion passes its check
        (see `_tail`).
        """
        y = np.atleast_1d(self.m * np.asarray(x, dtype=float) - self.b)
        out = np.ones(y.shape)
        pos = y > 0.0
        if pos.any():
            out[pos] = self._tail(y[pos])[0] if self.lead.size else 0.0
        out = np.clip(out, _TINY, 1.0)
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def quantile(self, q) -> np.ndarray | float:
        """Exact q-quantile of Q: a float for scalar `q`, an array for array `q`.

        Solves P(Q >= x) = 1 - q for all q at once, by Newton steps on the
        log tail that fall back to bisection (or doubling, while no upper
        end is known) where they leave the bracket.  Newton converges
        quadratically, so the step after one below 1e-8 of the iterate is
        exact to roundoff, and the search ends there.  q = 0 gives the
        lower end of the support, b / m, and q = 1 gives infinity.
        """
        q = np.asarray(q, dtype=float)
        if not ((q >= 0) & (q <= 1)).all():
            raise ValueError("Quantiles must be in the range [0, 1]")
        t = 1.0 - q.ravel()
        y = np.where(t > 0.0, 0.0, np.inf)
        todo = (t > 0.0) & (t < 1.0)
        if self.lead.size and todo.any():
            y[todo] = self._solve(t[todo])
        out = ((y + self.b) / self.m).reshape(q.shape)
        return float(out) if q.ndim == 0 else out

    def _solve(self, t: np.ndarray) -> np.ndarray:
        """y with P(Y > y) = t, for each 0 < t < 1."""
        lo, hi = np.zeros_like(t), np.full_like(t, np.inf)
        y = np.full_like(t, self.lead.sum() + self.a * self.nu)
        for _ in range(200):
            s, f = self._tail(y)
            right = s > t
            lo, hi = np.where(right, y, lo), np.where(right, hi, y)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                new = y + np.log(s / t) * s / f
            close = np.abs(new - y) <= 1e-8 * y
            if close.all():
                return new
            inside = (new > lo) & (new < hi)
            y = np.where(close | inside, new,
                         np.where(np.isinf(hi), 2.0 * y, 0.5 * (lo + hi)))
        return y

    @cached_property
    def samples(self) -> np.ndarray:
        """Sorted Monte Carlo sample of the law, drawn on first read.

        Replicate r is (2 a x_r + b + sum_k lead_k g_rk^2) / m, with x_r a
        gamma(nu / 2) draw and g_rk standard normal.  All of it comes from
        one SFC64 stream, seeded by ``SeedSequence([seed, 2**64 - 1])``:
        first the `replicates` gamma draws (none when nothing is left
        over), then the normals g, row r of the stream read on as a
        (replicates, K) array.  Rows are drawn `_CHUNK` at a time to bound
        memory, and the stream runs on across chunks, so the output does
        not depend on the chunk size.  The stream is never re-keyed, so it
        needs none of Philox's counter keys, and SFC64 draws normals in
        about 30% less time on x86-64.  Being another generator, it does
        not replay the Philox data streams of the same seed.
        """
        gen = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence([self.seed, _NULL_WORD])))
        reps, lead = self.replicates, self.lead
        out = np.zeros(reps)
        if self.nu > 0.0:
            gen.standard_gamma(self.nu / 2.0, out=out)
            out *= 2.0 * self.a
            out += self.b
        G = np.empty((min(_CHUNK, reps), lead.size))
        for start in range(0, reps, _CHUNK):
            stop = min(start + _CHUNK, reps)
            g = gen.standard_normal(out=G[:stop - start])
            np.square(g, out=g)
            out[start:stop] += np.einsum("ij,j->i", g, lead)
        out /= self.m
        out.sort()
        return out


def _talbot(y, w, h, mean):
    """P(Y > y) and the density of Y = sum_j w_j chi2(h_j), w descending, by Talbot rules.

    Inverts the Laplace transforms of e^(t y) P(Y > y) and of e^(t y)
    times the density, (1 - phi(p - t)) / (p - t) and phi(p - t), where
    phi(p) = prod_j (1 + 2 w_j p)^(-h_j / 2) is the transform of Y.
    Untilted (t = 0), the rule is accurate to about 1e-12 in absolute
    terms only; the tilt t = (y - E Y) / (2 w_max y), the saddle point of
    the largest weight alone, capped at `_TILT_CAP` / (2 w_max) so that
    phi(p - t) stays analytic off the negative axis, makes it accurate to
    about 1e-10 relative down to tails of 1e-14.  The tail comes as an
    (n, 2) array, by the 24-node rule and by the 32-node check; the
    density by the first rule alone.
    """
    theta = np.clip((y - mean) / (2.0 * w[0] * y), 0.0, _TILT_CAP / (2.0 * w[0]))
    q = np.multiply.outer(1.0 / y, _TALBOT_P) - theta[:, None]
    # -log phi(q), from log(1 + x + iv) in real arithmetic (twice as fast)
    x, v = np.multiply.outer(2.0 * q.real, w), np.multiply.outer(2.0 * q.imag, w)
    L = 0.25 * (np.log1p(x * (2.0 + x) + v * v) @ h) + 0.5j * (np.arctan2(v, 1.0 + x) @ h)
    # (1 - phi(q)) / q tends to E Y at q = 0, which a real node can hit.
    g = np.divide(-np.expm1(-L), q, out=np.full_like(q, mean), where=q != 0)
    scale = np.exp(-theta * y) / y
    return (scale[:, None] * (g @ _TALBOT_W).real,
            scale * (np.exp(-L) @ _TALBOT_W[:, 0]).real)


def _gil_pelaez(y, w, h, T, U):
    """P(Y > y) and the density of Y = sum_j w_j chi2(h_j), w descending, by Gil-Pelaez.

    The inversion integrals of psi(u) = E e^(iuY) = prod_j (1 - 2i w_j
    u)^(-h_j / 2) are summed by the trapezoid rule at the nodes (k + 1/2)
    2 pi / (y + T) below U, where |psi| has fallen below e^-37.  The
    aliasing error is at most P(Y > 2y + T) (Davies 1973), and T bounds
    that by e^-37 (Chernoff, at the largest tilt `_talbot` uses); beyond
    T the tail is taken as 0.  Accurate to about 1e-14 in absolute terms.
    Nodes are summed `_CHUNK` at a time to bound memory.
    """
    sf, pdf = np.zeros_like(y), np.zeros_like(y)
    for i, yi in enumerate(y):
        if yi >= T:  # P(Y > T) < e^-37: nothing to resolve
            continue
        nodes = int(np.ceil(U * (yi + T) / (2.0 * np.pi)))
        im = re = 0.0
        for start in range(0, nodes, _CHUNK):
            k = np.arange(start, min(start + _CHUNK, nodes)) + 0.5
            u = k * (2.0 * np.pi / (yi + T))
            z = np.exp(-0.5 * (np.log1p(-2j * np.multiply.outer(u, w)) @ h) - 1j * u * yi)
            im, re = im + (z.imag / k).sum(), re + z.real.sum()
        sf[i] = 0.5 + im / np.pi
        pdf[i] = 2.0 * re / (yi + T)
    return sf, pdf


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

    Analytic and estimated kernels carry an exact zero eigenvalue at the
    pinned endpoint, and an estimated one more zeros where the grid
    outnumbers the n - p residual dimensions; these and the roundoff
    negatives are replaced by zero and counted in ``clip_count``.  For input
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
    """The law of the limiting statistic on `grid`, for this spectrum.

    Nothing is drawn here: the clipped weights are split into the leading
    ones and a remainder law (see `_split_weights`), and `replicates` and
    `seed` are kept for the Monte Carlo sample that
    `NullDistribution.samples` draws on first read.  The spectrum
    dimension must be a multiple of the grid size (one block per ordering
    slot).
    """
    if replicates < 100:
        raise ValidationError("need at least 100 replicates for a usable tail")
    dim = spectrum.dim
    if dim % grid.m != 0:
        raise ValidationError(
            f"factor dimension {dim} is not a multiple of grid size {grid.m}")
    lead, a, nu, b = _split_weights(spectrum.weights)
    return NullDistribution(lead=lead, a=a, nu=nu, b=b, m=grid.m,
                            replicates=replicates, seed=collapse_seed(seed),
                            clip_count=spectrum.clip_count)


def p_value(stat: float, null: NullDistribution) -> float:
    """Exact p-value P(Q >= stat) under the null law (see `NullDistribution.sf`)."""
    if not np.isfinite(stat):
        raise ValidationError("statistic must be finite")
    return null.sf(stat)


def write_null_samples_csv(null: NullDistribution, path) -> None:
    """Write the sorted Monte Carlo null sample as a one-column CSV.

    The sample is drawn before the file is opened, so a sample too large
    for memory leaves no file behind.
    """
    samples = null.samples
    with open(path, "w", newline="") as fh:
        fh.write("omega_sq\n")
        for v in samples:
            fh.write(f"{float(v)!r}\n")
