"""Grid simulation of the limiting statistic and its Monte Carlo p-value."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import regbridge as rb
import regbridge.limitsim as limitsim
from regbridge.errors import ValidationError
from regbridge.rng import collapse_seed, philox_stream


def series_statistic_samples(replicates, seed, terms=2000):
    """Independent route to the pinned-bridge statistic.

    The squared pinned bridge integrates to sum_k Z_k^2 / (k pi)^2 with
    iid standard normal Z_k; truncation at 2000 terms leaves a mean
    deficit below 6e-5.
    """
    k = np.arange(1, terms + 1)
    weights = 1.0 / (k * np.pi) ** 2
    rng = philox_stream(seed)
    out = np.empty(replicates)
    step = 2000
    for start in range(0, replicates, step):
        stop = min(start + step, replicates)
        z = rng.standard_normal((stop - start, terms))
        out[start:stop] = (z * z) @ weights
    return out


def imhof_sf(x, weights, mult=None, shift=0.0):
    """P(sum_j w_j chi2(h_j) + shift > x) by Imhof's (1961) inversion.

    The multiplicities h_j (default 1) may be fractional.  The integrand
    sin(theta(u) - y u / 2) / (u rho(u)), y = x - shift, is integrated
    plainly over one period of the carrier, [0, 4 pi / y], and beyond it
    as two Fourier integrals of the slowly varying factors (QUADPACK's
    QAWF), which keeps spectra with one dominant weight accurate to about
    1e-12.
    """
    from scipy.integrate import quad

    lam = np.asarray(weights, dtype=float)
    h = np.ones_like(lam) if mult is None else np.asarray(mult, dtype=float)
    y = x - shift
    if y <= 0.0:
        return 1.0

    def theta(u):
        return 0.5 * np.sum(h * np.arctan(lam * u))

    def amp(u):
        return 1.0 / (u * np.exp(0.25 * np.sum(h * np.log1p((lam * u) ** 2))))

    cut = 4.0 * np.pi / y
    head, e0 = quad(lambda u: np.sin(theta(u) - 0.5 * y * u) * amp(u), 0.0, cut,
                    limit=200, epsabs=1e-12, epsrel=1e-12)
    c, e1 = quad(lambda u: np.sin(theta(u)) * amp(u), cut, np.inf,
                 weight="cos", wvar=0.5 * y, limlst=200, epsabs=1e-12)
    s, e2 = quad(lambda u: np.cos(theta(u)) * amp(u), cut, np.inf,
                 weight="sin", wvar=0.5 * y, limlst=200, epsabs=1e-12)
    assert e0 + e1 + e2 < 1e-9
    return 0.5 + (head + c - s) / np.pi


def split_sf(x, weights):
    """Tail at x of the law `simulate_null` draws from these weights."""
    lead, a, nu, b = limitsim._split_weights(np.asarray(weights, dtype=float))
    return imhof_sf(x, np.append(lead, a), np.append(np.ones(lead.size), nu), b)


def max_split_error(weights, spreads=(-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0)):
    """Largest tail gap between the full law and the split law.

    Read at mean + c sd of the full law for each c in `spreads`.
    """
    w = np.asarray(weights, dtype=float)
    mean, sd = w.sum(), np.sqrt(2.0 * np.sum(w * w))
    xs = [mean + c * sd for c in spreads if mean + c * sd > 0.0]
    return max(abs(imhof_sf(x, w) - split_sf(x, w)) for x in xs)


def null_stream(seed):
    """The null stream of `seed`, built here from its documented seed words."""
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence([collapse_seed(seed), (1 << 64) - 1])))


def reconstruct(spectrum, matrix):
    """V diag(weights) V' with V the eigenvectors of the symmetrized input."""
    A = np.asarray(matrix, dtype=float)
    _, V = np.linalg.eigh(0.5 * (A + A.T))
    return (V * spectrum.weights) @ V.T


# ======================================================================
# Grid and factorization
# ======================================================================

class TestGridSpec:
    def test_points(self):
        g = rb.GridSpec(4)
        assert np.allclose(g.points(), [0.25, 0.5, 0.75, 1.0])

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            rb.GridSpec(1)


class TestBuildGridCovariance:
    def test_single_uniform_m2_exact(self):
        # Levels (1/2, 1): khat(1/2, 1/2) = 1/16 and the intercept pins
        # every entry touching t = 1 to zero.
        cov = rb.analytic_covariance(rb.fixtures.single_uniform_model())
        A = rb.build_grid_covariance(cov, rb.GridSpec(2))
        assert np.allclose(A, [[1 / 16, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_slot_major_layout(self):
        cov = rb.analytic_covariance(rb.fixtures.two_uniform_model())
        grid = rb.GridSpec(3)
        A = rb.build_grid_covariance(cov, grid)
        assert A.shape == (6, 6)
        assert np.allclose(A, A.T, atol=1e-15)
        pts = grid.points()
        for a in range(3):
            for b in range(3):
                assert A[a, 3 + b] == pytest.approx(
                    cov.khat(0, 1, pts[a], pts[b]), abs=1e-14)

    def test_grid_matrix_is_nearly_psd(self):
        cov = rb.analytic_covariance(rb.fixtures.two_uniform_model())
        A = rb.build_grid_covariance(cov, rb.GridSpec(40))
        w = np.linalg.eigvalsh(A)
        assert w[0] > -1e-8


class TestFactorPSD:
    def test_identity_has_no_clipping(self):
        f = rb.factor_psd(np.eye(3))
        assert f.clip_count == 0
        assert np.allclose(reconstruct(f, np.eye(3)), np.eye(3), atol=1e-12)

    def test_clips_tiny_and_negative_eigenvalues(self):
        A = np.diag([1.0, 1e-12, -1e-12])
        f = rb.factor_psd(A)
        assert f.clip_count == 2
        rec = reconstruct(f, A)
        assert np.allclose(rec, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValidationError):
            rb.factor_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @given(b=st.integers(1, 12).flatmap(lambda k: arrays(
        np.float64, (k, k), elements=st.floats(-1e3, 1e3))))
    def test_symmetric_input_gives_the_symmetrized_weights(self, b):
        # Exactly symmetric input skips forming 0.5 * (A + A'), which is
        # A bit for bit; an asymmetry under the tolerance still goes
        # through it, and one above the tolerance is refused.
        A = b + b.T
        w = np.linalg.eigvalsh(0.5 * (A + A.T))
        f = rb.factor_psd(A)
        assert f.weights.tobytes() == np.where(w < rb.CLIP_FLOOR, 0.0, w).tobytes()
        tol = 1e-12 * max(float(np.max(np.abs(A))), 1.0)
        if A.shape[0] < 2:
            return
        near = A.copy()
        near[0, 1] += 0.1 * tol
        w = np.linalg.eigvalsh(0.5 * (near + near.T))
        assert rb.factor_psd(near).weights.tobytes() == \
            np.where(w < rb.CLIP_FLOOR, 0.0, w).tobytes()
        far = A.copy()
        far[0, 1] += 10.0 * tol
        with pytest.raises(ValidationError):
            rb.factor_psd(far)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            rb.factor_psd(np.zeros((2, 3)))

    def test_indefinite_input_is_clipped_not_rejected(self):
        # Plug-in kernel estimates are mildly indefinite at small n; the
        # contract is to drop that mass, not to refuse the matrix.
        A = np.diag([1.0, -1e-6])
        f = rb.factor_psd(A)
        assert f.clip_count == 1
        assert np.allclose(reconstruct(f, A), np.diag([1.0, 0.0]), atol=1e-12)

    def test_reconstruction_bound_on_psd_inputs(self):
        rng = np.random.default_rng(77)
        for k in (3, 8, 20):
            A = rng.standard_normal((k, k))
            M = A.T @ A
            M = 0.5 * (M + M.T)
            f = rb.factor_psd(M)
            err = float(np.max(np.abs(reconstruct(f, M) - M)))
            assert err <= rb.CLIP_FLOOR + 1e-9 * float(np.max(np.abs(M)))

    def test_rank_one_input(self):
        f = rb.factor_psd(np.ones((2, 2)))
        assert f.clip_count == 1
        assert np.allclose(reconstruct(f, np.ones((2, 2))), np.ones((2, 2)),
                           atol=1e-12)

    def test_zero_matrix_clips_everything(self):
        f = rb.factor_psd(np.zeros((4, 4)))
        assert f.clip_count == 4
        assert np.all(f.weights == 0.0)

    def test_weights_are_the_clipped_eigenvalues(self):
        cov = rb.analytic_covariance(rb.fixtures.two_uniform_model())
        A = rb.build_grid_covariance(cov, rb.GridSpec(30))
        f = rb.factor_psd(A)
        w = np.linalg.eigvalsh(A)
        below = w < rb.CLIP_FLOOR
        assert f.weights.shape == (f.dim,)
        assert int(np.count_nonzero(f.weights == 0.0)) == f.clip_count
        assert int(np.count_nonzero(below)) == f.clip_count
        assert np.allclose(f.weights[~below], w[~below], rtol=1e-12, atol=0.0)

    def test_bridge_kernel_clips_the_pinned_endpoint(self):
        cov = rb.analytic_covariance(rb.fixtures.single_uniform_model())
        A = rb.build_grid_covariance(cov, rb.GridSpec(50))
        f = rb.factor_psd(A)
        assert f.clip_count >= 1


# ======================================================================
# Simulation
# ======================================================================

class TestSimulateNull:
    def test_matches_manual_replicates(self):
        cov = rb.analytic_covariance(rb.fixtures.single_uniform_model())
        grid = rb.GridSpec(20)
        f = rb.factor_psd(rb.build_grid_covariance(cov, grid))
        null = rb.simulate_null(f, 120, grid, seed=(7, 3))
        # Oracle, built here from the full eigendecomposition: the K
        # largest clipped eigenvalues w (the fewest K >= 8 leaving at most
        # 1e-3 of sum w^2 behind) enter as |F g_r|^2 with F = V diag(sqrt(w))
        # restricted to them; the rest r as 2 a x_r + b, with x_r a
        # gamma(nu / 2) draw.  The one null stream, SFC64 seeded by
        # [collapse_seed(seed), 2**64 - 1], yields the 120 x_r first, then
        # the rows g_r.
        w, V = np.linalg.eigh(rb.build_grid_covariance(cov, grid))
        w = np.where(w < rb.CLIP_FLOOR, 0.0, w)
        desc = np.argsort(w)[::-1][:np.count_nonzero(w)]
        total = np.sum(w ** 2)
        k = next(k for k in range(8, desc.size + 1)
                 if np.sum(w[desc[k:]] ** 2) <= 1e-3 * total)
        r = w[desc[k:]]
        a = np.sum(r ** 3) / np.sum(r ** 2)
        nu = np.sum(r ** 2) ** 3 / np.sum(r ** 3) ** 2
        b = np.sum(r) - a * nu
        # A remainder with a fractional nu and a positive shift.
        assert 0 < r.size and nu != round(nu) and b > 1e-3 * np.sum(r)
        F = V[:, desc[:k]] * np.sqrt(w[desc[:k]])
        gen = null_stream((7, 3))
        x = gen.standard_gamma(nu / 2, 120)
        g = gen.standard_normal((120, k))
        manual = np.empty(120)
        for i in range(120):
            z = F @ g[i]
            manual[i] = (float(z @ z) + 2 * a * x[i] + b) / grid.m
        # Same draws, same order; only the summation order may differ.
        assert np.allclose(null.samples, np.sort(manual), rtol=1e-12, atol=0.0)
        assert null.clip_count == f.clip_count

    @settings(max_examples=60, deadline=None)
    @given(chunk=st.integers(1, 300), replicates=st.integers(100, 700),
           m=st.integers(2, 20))
    @example(chunk=7, replicates=250, m=8)
    def test_chunk_size_does_not_matter(self, chunk, replicates, m):
        # The stream runs on across chunks, so any chunk size gives the
        # default (single-chunk) run bit for bit.
        cov = rb.fixtures.pinned_bridge_covariance()
        grid = rb.GridSpec(m)
        f = rb.factor_psd(rb.build_grid_covariance(cov, grid))
        base = rb.simulate_null(f, replicates, grid, seed=5)
        with mock.patch.object(limitsim, "_CHUNK", chunk):
            small = rb.simulate_null(f, replicates, grid, seed=5)
        assert small.samples.tobytes() == base.samples.tobytes()

    @pytest.mark.parametrize("seed", [0, 5, 11, -1])
    def test_null_rows_differ_from_data_stream(self, seed):
        # sample_h0 with int seed s draws from philox_stream(s), the key
        # [s, 0]; the null stream of the same seed must replay neither it
        # nor the Philox key [s, 2**64 - 1].
        f = rb.factor_psd(np.eye(4))
        null = rb.simulate_null(f, 100, rb.GridSpec(4), seed=seed)
        own = null_stream(seed).standard_normal((100, 4))
        assert np.allclose(null.samples, np.sort((own ** 2).sum(1) / 4),
                           rtol=1e-12, atol=0.0)
        for data in (philox_stream(seed), philox_stream(seed, -1)):
            assert not np.any(np.isin(data.standard_normal((100, 4)), own))

    def test_replicate_floor(self):
        cov = rb.fixtures.pinned_bridge_covariance()
        grid = rb.GridSpec(4)
        f = rb.factor_psd(rb.build_grid_covariance(cov, grid))
        with pytest.raises(ValidationError):
            rb.simulate_null(f, 99, grid, seed=0)

    def test_dimension_must_match_grid(self):
        f = rb.factor_psd(np.eye(6))
        with pytest.raises(ValidationError):
            rb.simulate_null(f, 200, rb.GridSpec(4), seed=0)

    def test_zero_factor_gives_zero_statistics(self):
        f = rb.factor_psd(np.zeros((4, 4)))
        null = rb.simulate_null(f, 150, rb.GridSpec(4), seed=1)
        assert np.all(null.samples == 0.0)
        assert rb.p_value(0.0, null) == 1.0

    def test_grid_refinement_is_stable(self):
        # The exact grid mean is (m^2 - 1) / (6 m^2): refining the grid
        # moves it by 5e-5, far below the Monte Carlo resolution.
        cov = rb.fixtures.pinned_bridge_covariance()
        means = []
        for m in (50, 100):
            grid = rb.GridSpec(m)
            f = rb.factor_psd(rb.build_grid_covariance(cov, grid))
            null = rb.simulate_null(f, 20_000, grid, seed=99)
            means.append(float(null.samples.mean()))
        assert abs(means[0] - means[1]) < 0.01

    def test_agrees_with_series_route(self):
        # Independent derivation of the same law: diagonalize the pinned
        # bridge analytically and sum the weighted chi-squares.
        grid = rb.GridSpec(100)
        cov = rb.fixtures.pinned_bridge_covariance()
        f = rb.factor_psd(rb.build_grid_covariance(cov, grid))
        null = rb.simulate_null(f, 20_000, grid, seed=31)
        series = series_statistic_samples(20_000, seed=32)
        assert abs(float(null.samples.mean()) - float(series.mean())) < 0.01
        assert abs(null.quantile(0.95) - float(np.quantile(series, 0.95))) < 0.02

    @pytest.mark.parametrize("x", [0.2, 0.4614, 0.75])
    def test_tail_matches_imhof(self, x):
        # Exact tail of the grid law by Imhof's (1961) inversion formula,
        # with the weights taken here from the pinned-bridge kernel
        # min(s, t) - s t on the grid: an oracle for the law the single
        # stream carries, independent of the simulator.
        m, replicates = 100, 20_000
        t = np.arange(1, m + 1) / m
        lam = np.linalg.eigvalsh(np.minimum.outer(t, t) - np.outer(t, t)) / m
        exact = imhof_sf(x, lam[lam > 1e-12])

        grid = rb.GridSpec(m)
        f = rb.factor_psd(rb.build_grid_covariance(
            rb.fixtures.pinned_bridge_covariance(), grid))
        null = rb.simulate_null(f, replicates, grid, seed=2026)
        emp = float(np.mean(null.samples > x))
        se = np.sqrt(exact * (1.0 - exact) / replicates)
        assert abs(emp - exact) < 4.0 * se


@st.composite
def decaying_spectra(draw):
    """Power-law, geometric or log-uniform weights, dimension 2 to 400."""
    k = np.arange(1, draw(st.integers(2, 400)) + 1)
    kind = draw(st.sampled_from(["power", "geometric", "log-uniform"]))
    if kind == "power":
        return k ** -draw(st.floats(1.5, 4.0))
    if kind == "geometric":
        return draw(st.floats(0.01, 0.99)) ** k
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return np.exp(rng.uniform(np.log(1e-6), 0.0, k.size))


def fixture_spectrum(model, seed):
    """Clipped grid spectrum of one null dataset at n = 500, m = 100."""
    data = rb.sample_h0(rb.fixtures.get_model(model), 500, seed)
    cov = rb.run_adequacy_test(data, grid_m=100, replicates=100).covariance
    return rb.factor_psd(rb.build_grid_covariance(cov, rb.GridSpec(100))).weights


class TestSplitLaw:
    """The leading weights plus one shifted chi-square for the rest."""

    @settings(max_examples=100, deadline=None)
    @given(w=st.one_of(decaying_spectra(),
                       arrays(np.float64, st.integers(1, 60),
                              elements=st.floats(0.0, 1.0))))
    def test_cut_and_cumulants(self, w):
        # Leading part plus remainder law keep the first three cumulants
        # of sum w_k chi2(1), and the cut is the fewest K >= 8 leaving at
        # most 1e-3 of sum w^2 behind.
        lead, a, nu, b = limitsim._split_weights(w)
        pos = np.sort(w[w > 0])[::-1]
        k = lead.size
        assert np.array_equal(lead, pos[:k])
        assert (nu > 0) == (k < pos.size) and b >= 0
        if not pos.size:
            return
        # In units of the largest weight, so that no power underflows.
        u, a, b = pos / pos[0], a / pos[0], b / pos[0]
        tail = [np.sum(u[j:] ** 2) for j in range(u.size + 1)]
        share = 1e-3 * tail[0]
        assert k == u.size or (k >= 8 and tail[k] <= share)
        assert k <= 8 or tail[k - 1] > share
        for p in (1, 2, 3):
            assert np.sum(u[:k] ** p) + a ** p * nu + (b if p == 1 else 0.0) \
                == pytest.approx(np.sum(u ** p), rel=1e-9, abs=0.0)

    @settings(max_examples=20, deadline=None)
    @given(w=decaying_spectra())
    def test_tail_matches_full_law(self, w):
        assert max_split_error(w / w.sum()) <= 2e-5

    @pytest.mark.parametrize("name", ["pinned", "size", "cli-small"])
    def test_fixture_spectra(self, name):
        if name == "pinned":
            grid = rb.GridSpec(100)
            w = rb.factor_psd(rb.build_grid_covariance(
                rb.fixtures.pinned_bridge_covariance(), grid)).weights
        else:
            model = {"size": "single-uniform", "cli-small": "two-uniform"}[name]
            w = fixture_spectrum(model, 3)
        lead = limitsim._split_weights(w)[0]
        # Few leading terms are drawn (the speed-up), yet the tail moves
        # by far less than Monte Carlo error at any usable replicate count.
        assert lead.size <= np.count_nonzero(w) // 3
        assert max_split_error(w) <= 1e-5

    def test_equal_remainder_is_exact(self):
        w = np.concatenate([1.0 / np.arange(1, 9), np.full(100, 1e-3)])
        lead, a, nu, b = limitsim._split_weights(w)
        assert lead.size == 8
        assert a == pytest.approx(1e-3, rel=1e-12)
        assert nu == pytest.approx(100.0, rel=1e-12)
        assert b <= 1e-15
        assert max_split_error(w) <= 1e-9

    def test_empty_remainder_draws_no_gamma(self):
        # Four positive weights stay below the floor of eight leading
        # terms, so the stream yields the rows from its first draw on.
        w = np.array([3.0, 2.0, 1.0, 0.5, 0.0, 0.0])
        f = rb.factor_psd(np.diag(w))
        assert limitsim._split_weights(f.weights)[2] == 0.0
        null = rb.simulate_null(f, 100, rb.GridSpec(6), seed=4)
        g = null_stream(4).standard_normal((100, 4))
        assert np.allclose(null.samples, np.sort((g ** 2) @ w[:4] / 6),
                           rtol=1e-12, atol=0.0)

    def test_zero_weights_split_to_nothing(self):
        lead, a, nu, b = limitsim._split_weights(np.zeros(5))
        assert lead.size == 0 and (a, nu, b) == (0.0, 0.0, 0.0)
        null = rb.simulate_null(rb.factor_psd(np.zeros((5, 5))), 100,
                                rb.GridSpec(5), seed=0)
        assert np.all(null.samples == 0.0)


# ======================================================================
# Null distribution and p-values
# ======================================================================

class TestNullDistribution:
    def make_null(self):
        samples = np.sort(np.linspace(0.01, 2.0, 200))
        return rb.NullDistribution(samples=samples, replicates=200,
                                   clip_count=0)

    def test_quantile_and_mean(self):
        null = self.make_null()
        assert null.quantile(0.5) == pytest.approx(np.quantile(null.samples, 0.5))
        qs = null.quantile([0.25, 0.75])
        assert qs.shape == (2,)

    def test_sample_count_must_match(self):
        with pytest.raises(ValidationError):
            rb.NullDistribution(samples=np.zeros(5), replicates=6,
                                clip_count=0)

    def test_unsorted_samples_rejected(self):
        with pytest.raises(ValidationError, match="sorted"):
            rb.NullDistribution(samples=np.array([1.0, 3.0, 2.0]), replicates=3,
                                clip_count=0)

    def test_quantile_range_checked(self):
        null = self.make_null()
        for q in (-0.1, 1.5, float("nan"), [0.5, 2.0]):
            with pytest.raises(ValueError, match="range"):
                null.quantile(q)


@st.composite
def sorted_samples(draw, parity):
    """Sorted sample of n = 2k + parity values, most of them repeated.

    Adding 0.0 turns -0.0 into 0.0, as in null samples, which are sums of
    squares: -0.0 compares equal to 0.0, so the sorted order of signed
    zeros, and with it the sign of a zero quantile, is not unique.
    """
    n = 2 * draw(st.integers(1 - parity, 150)) + parity
    pool = draw(st.lists(st.floats(-1e6, 1e6).map(lambda x: x + 0.0),
                         min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n,
                          max_size=n))
    return np.sort(np.array(pool)[picks])


def as_null(samples):
    return rb.NullDistribution(samples=samples, replicates=samples.size,
                               clip_count=0)


UNIT = st.floats(0.0, 1.0)
# The ends, and midpoints, where t = 0.5 picks the second form of the lerp.
EXACT_Q = (0.0, 1.0, 0, 1, 0.25, 0.5, 0.75)


class TestQuantileOracle:
    """`NullDistribution.quantile` against np.quantile, bit for bit."""

    @pytest.mark.parametrize("parity", [0, 1])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_scalar_q(self, parity, data):
        samples = data.draw(sorted_samples(parity))
        q = data.draw(st.one_of(UNIT, st.sampled_from(EXACT_Q)))
        got = as_null(samples).quantile(q)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.quantile(samples, q).tobytes()

    @pytest.mark.parametrize("parity", [0, 1])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_array_q(self, parity, data):
        samples = data.draw(sorted_samples(parity))
        q = data.draw(st.one_of(
            arrays(np.float64, st.integers(1, 12), elements=UNIT),
            arrays(np.float64, (2, 3), elements=UNIT),
            st.just(np.array(EXACT_Q[:2] + EXACT_Q[4:])),
            st.just(np.array([0, 1]))))
        got = as_null(samples).quantile(q)
        expect = np.quantile(samples, q)
        assert isinstance(got, np.ndarray)
        assert got.shape == expect.shape and got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("n", [100, 101, 2000])
    def test_midpoints_of_a_continuous_sample(self, n):
        # At t = 0.5 the two forms of the lerp round differently for about
        # one pair of random neighbours in seven.
        rng = np.random.default_rng(n)
        samples = np.sort(rng.standard_normal(n) ** 2)
        q = np.concatenate([(np.arange(n - 1) + 0.5) / (n - 1), rng.random(200)])
        null = as_null(samples)
        assert null.quantile(q).tobytes() == np.quantile(samples, q).tobytes()
        for x in q[::5].tolist():
            assert (np.float64(null.quantile(x)).tobytes()
                    == np.quantile(samples, x).tobytes())


class TestPValue:
    def make_null(self):
        samples = np.sort(np.arange(1.0, 200.0 + 1.0))
        return rb.NullDistribution(samples=samples, replicates=200,
                                   clip_count=0)

    def test_extremes(self):
        null = self.make_null()
        assert rb.p_value(1000.0, null) == pytest.approx(1.0 / 201.0)
        assert rb.p_value(0.0, null) == pytest.approx(1.0)

    def test_midpoint(self):
        null = self.make_null()
        # 100 of the 200 samples are >= 101.
        assert rb.p_value(101.0, null) == pytest.approx(101.0 / 201.0)

    def test_rejects_non_finite(self):
        null = self.make_null()
        with pytest.raises(ValidationError):
            rb.p_value(float("nan"), null)

    def test_uniform_under_the_null(self):
        # Plugging null draws back in gives p-values with mean near 1/2.
        cov = rb.fixtures.pinned_bridge_covariance()
        grid = rb.GridSpec(20)
        f = rb.factor_psd(rb.build_grid_covariance(cov, grid))
        null = rb.simulate_null(f, 2000, grid, seed=8)
        fresh = rb.simulate_null(f, 500, grid, seed=9)
        ps = np.array([rb.p_value(s, null) for s in fresh.samples])
        assert abs(ps.mean() - 0.5) < 0.05


class TestNullSamplesCSV:
    def test_round_trip(self, tmp_path):
        cov = rb.fixtures.pinned_bridge_covariance()
        grid = rb.GridSpec(5)
        f = rb.factor_psd(rb.build_grid_covariance(cov, grid))
        null = rb.simulate_null(f, 150, grid, seed=2)
        path = tmp_path / "null.csv"
        rb.write_null_samples_csv(null, path)
        body = path.read_text().strip().split("\n")
        assert body[0] == "omega_sq"
        back = np.array([float(s) for s in body[1:]])
        assert np.array_equal(back, null.samples)
