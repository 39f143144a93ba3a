"""Grid law of the limiting statistic: exact tail, quantiles and p-value,
and its Monte Carlo sample."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import regbridge as rb
import regbridge.limitsim as limitsim
from regbridge.errors import RegBridgeError, ValidationError
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
    1e-12.  The period is cut at 0.1 / max(w) and at tenfold steps from
    there, so a y far below the mean, whose period dwarfs the scale
    1 / max(w) on which the integrand decays, is still resolved.  Any
    QUADPACK warning raises instead of passing a doubtful value.
    """
    from scipy.integrate import IntegrationWarning, quad

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
    start = 0.1 / lam.max()
    edges = np.concatenate(
        ([0.0], start * 10.0 ** np.arange(np.log10(cut / start)), [cut]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        pieces = [quad(lambda u: np.sin(theta(u) - 0.5 * y * u) * amp(u), a, b,
                       limit=200, epsabs=1e-12, epsrel=1e-12)
                  for a, b in zip(edges[:-1], edges[1:])]
        c, e1 = quad(lambda u: np.sin(theta(u)) * amp(u), cut, np.inf,
                     weight="cos", wvar=0.5 * y, limlst=200, epsabs=1e-12)
        s, e2 = quad(lambda u: np.cos(theta(u)) * amp(u), cut, np.inf,
                     weight="sin", wvar=0.5 * y, limlst=200, epsabs=1e-12)
    head, e0 = np.sum(pieces, axis=0)
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

    def test_seed_is_checked_at_once_and_hashed_at_draw(self):
        f = rb.factor_psd(np.eye(4))
        with pytest.raises(TypeError):
            rb.simulate_null(f, 100, rb.GridSpec(4), seed="x")
        null = rb.simulate_null(f, 100, rb.GridSpec(4), seed=(3, 1, 4))
        assert null.seed == (3, 1, 4)
        own = null_stream((3, 1, 4)).standard_normal((100, 4))
        assert np.allclose(null.samples, np.sort((own ** 2).sum(1) / 4),
                           rtol=1e-12, atol=0.0)

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
            small = rb.simulate_null(f, replicates, grid, seed=5).samples
        assert small.tobytes() == base.samples.tobytes()

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
        # The exact tail differs from the full law's only by the split.
        assert abs(rb.p_value(x, null) - exact) < 1e-5


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

def law(weights, b=0.0, m=1):
    """Null law of these weights, split as `simulate_null` splits them."""
    lead, a, nu, shift = limitsim._split_weights(np.asarray(weights, dtype=float))
    return rb.NullDistribution(lead=lead, a=a, nu=nu, b=shift + b, m=m,
                               replicates=100, seed=0, clip_count=0)


def pinned_null(m=20, replicates=2000, seed=3):
    grid = rb.GridSpec(m)
    f = rb.factor_psd(rb.build_grid_covariance(
        rb.fixtures.pinned_bridge_covariance(), grid))
    return rb.simulate_null(f, replicates, grid, seed=seed)


class TestNullDistribution:
    def test_quantile_and_mean(self):
        # The exact median and mean against those of the Monte Carlo
        # sample, within its error (sd of the median about 0.002).
        null = pinned_null()
        assert null.quantile(0.5) == pytest.approx(
            np.quantile(null.samples, 0.5), abs=0.01)
        mean = (null.lead.sum() + null.a * null.nu + null.b) / null.m
        assert float(null.samples.mean()) == pytest.approx(mean, rel=0.03)
        qs = null.quantile([0.25, 0.75])
        assert qs.shape == (2,) and qs[0] < qs[1]

    def test_sample_count_must_match(self):
        null = pinned_null(replicates=150)
        assert null.samples.shape == (150,)

    def test_samples_are_sorted(self):
        null = pinned_null()
        s = null.samples
        assert np.all(s[1:] >= s[:-1])
        assert null.samples is s  # drawn once, on first read

    def test_nothing_is_drawn_until_read(self):
        # A sample of 10^12 draws would need 8 TB: building the law, its
        # p-value and its quantiles must not draw it.
        grid = rb.GridSpec(20)
        f = rb.factor_psd(rb.build_grid_covariance(
            rb.fixtures.pinned_bridge_covariance(), grid))
        null = rb.simulate_null(f, 10 ** 12, grid, seed=0)
        assert rb.p_value(0.3, null) == pinned_null().sf(0.3)
        null.quantile([0.9, 0.95, 0.99])
        assert "samples" not in vars(null)

    def test_quantile_range_checked(self):
        null = pinned_null()
        for q in (-0.1, 1.5, float("nan"), [0.5, 2.0]):
            with pytest.raises(ValueError, match="range"):
                null.quantile(q)

    def test_quantile_ends(self):
        null = law([1.0, 0.5], b=0.25, m=2)
        assert null.quantile(0.0) == 0.125
        assert null.quantile(1.0) == np.inf
        assert type(null.quantile(0.5)) is float
        assert null.quantile(np.array([[0.0, 1.0]])).shape == (1, 2)

    def test_zero_law_is_a_point_mass(self):
        null = law(np.zeros(3))
        assert null.sf(0.0) == 1.0
        assert null.sf(1e-300) == np.finfo(float).tiny
        assert np.all(null.quantile([0.0, 0.5]) == 0.0)


@st.composite
def split_spectra(draw, copies=st.just(1)):
    """Decaying or dense random spectra, scaled to sum 1, repeated
    `copies` times as if for several ordering slots."""
    w = draw(st.one_of(decaying_spectra(), arrays(
        np.float64, st.integers(1, 40), elements=st.floats(0.0, 1.0))))
    assume(w.max() > 0.0)
    w = np.tile(w, draw(copies))
    return w / w.sum()


class TestExactLaw:
    """`NullDistribution.sf` and `quantile` against independent oracles."""

    @settings(max_examples=25, deadline=None)
    @given(w=split_spectra())
    def test_tail_matches_quadrature(self, w):
        # The split law, inverted here, against the tests' one-period
        # plus QAWF Imhof integral of the same law.
        null = law(w)
        sd = np.sqrt(2.0 * np.sum(w * w))
        for c in (-0.5, 0.0, 1.0, 2.0, 4.0, 8.0):
            x = 1.0 + c * sd
            if x > 0.0:
                assert abs(null.sf(x) - split_sf(x, w)) <= 1e-10

    @settings(max_examples=10, deadline=None)
    @given(w=split_spectra(copies=st.integers(2, 8)))
    @example(w=np.tile([1.0, 2.0 ** -24], 2) / (2.0 + 2.0 ** -23))
    def test_repeated_tail_matches_quadrature(self, w):
        # Spectra repeated over several slots, which reach the Gil-Pelaez
        # path.  On such spectra QUADPACK's QAWF, reporting errors below
        # 1e-12, was found 2.4e-10 from both rules and from a 40-digit
        # Talbot inversion, so the bound is the 1e-9 `imhof_sf` asserts.
        # The example puts x = 6e-8 at c = -1, where one period of the
        # carrier is 2e8 long against the integrand's scale of 2; an
        # unsplit head integral read its tail as 0.5, not 1 - 2e-8.
        null = law(w)
        sd = np.sqrt(2.0 * np.sum(w * w))
        for c in (-1.0, 0.0, 1.0, 3.0, 6.0):
            x = 1.0 + c * sd
            if x > 0.0:
                assert abs(null.sf(x) - split_sf(x, w)) <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(w=split_spectra(copies=st.integers(1, 6)))
    def test_tail_matches_long_gil_pelaez_sum(self, w):
        # Whichever rule the law takes, its tail and density agree with
        # an independent Gil-Pelaez sum wherever that takes 5,000 nodes
        # or fewer (the law itself takes at most 500).
        lead, a, nu, b = limitsim._split_weights(w)
        lam, h = np.append(lead, a), np.append(np.ones(lead.size), nu)
        mean = float(h @ lam)
        y = mean * np.array([0.3, 0.8, 1.0, 1.5, 3.0, 6.0])
        cap = limitsim._TILT_CAP / (2.0 * lam[0])
        T = (37.0 - 0.5 * (np.log1p(-2.0 * cap * lam) @ h)) / cap
        U = 2.0 * np.pi * 5000 / (mean + T)
        assume(np.log1p(4.0 * U * U * lam * lam) @ h >= 148.0)
        sf, pdf = limitsim._gil_pelaez(y, lam, h, T, U)
        null = law(w)
        assert np.allclose(null.sf(y + b), sf, rtol=0.0, atol=1e-10)
        assert np.allclose(null._tail(y)[1], pdf, rtol=1e-8, atol=1e-9)

    @pytest.mark.parametrize("big, ratio, small", [(1, 60.0, 150), (3, 8.0, 48)])
    def test_clustered_weights(self, big, ratio, small):
        # A few large weights beside a cluster of equal small ones, as
        # many strongly correlated regressors give: the Gil-Pelaez sum is
        # long and the cluster's high-order pole fails the Talbot check.
        w = np.array([ratio] * big + [1.0] * small)
        w /= w.sum()
        null = law(w)
        for x in (0.8, 1.0, 1.5, 3.0):
            assert abs(null.sf(x) - split_sf(x, w)) <= 1e-9

    @pytest.mark.parametrize("ratio, small, x", [(512.0, 100, 0.2),
                                                 (1000.0, 150, 0.1),
                                                 (1500.0, 150, 0.05)])
    def test_long_gil_pelaez_sums(self, ratio, small, x):
        # One weight beside many equal ones far smaller, read well below
        # the mean: the two Talbot rules disagree (the 32-node one errs
        # by up to 3.9e-5 here), and the Gil-Pelaez sum runs to more than
        # ten times its first length.  The law is exactly w1 chi2(1) +
        # w2 chi2(small), so the reference integrates the chi2(1) tail
        # against the chi2(small) density.
        from scipy.integrate import quad
        from scipy.stats import chi2

        w1, w2 = ratio / (ratio + small), 1.0 / (ratio + small)
        lengths, sums = [], limitsim._gil_pelaez

        def spy(y, lam, h, T, U):
            lengths.append(U * (lam @ h + T) / (2.0 * np.pi))
            return sums(y, lam, h, T, U)

        with mock.patch.object(limitsim, "_gil_pelaez", spy):
            got = law(np.array([w1] + [w2] * small)).sf(x)
        assert lengths and lengths[0] > 10 * limitsim._MAX_NODES
        head, err = quad(lambda z: chi2.pdf(z, small) * chi2.sf((x - w2 * z) / w1, 1),
                         0.0, x / w2, limit=400, epsabs=1e-14, epsrel=1e-13)
        assert err < 1e-13
        assert abs(got - (head + chi2.sf(x / w2, small))) <= 1e-12

    def test_overflowed_rules_are_no_deep_tail(self):
        # Five large weights beside 1,600 small ones, read far below the
        # mean: both Talbot rules overflow, to about -1.7e278 and -7e190,
        # which once passed as a tail below 1e-100.  The tail is 1: every
        # one of 20,000 Monte Carlo draws exceeded 6.03.  No RuntimeWarning
        # may reach the caller on the way.
        w = np.concatenate([[1.0, 0.9, 0.8, 0.7, 0.6], np.full(1600, 1 / 250)])
        null = law(w)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for share in (0.05, 0.3):
                assert abs(null.sf(share * w.sum()) - 1.0) <= 1e-10
            assert np.allclose(null.sf([0.52, 3.0]), 1.0, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("x", [0.02, 0.05])
    def test_overflowed_rules_beside_one_large_weight(self, x):
        # One weight 9,562 times each of 342 equal ones: the rules
        # overflow at both points, where 1.0 and 2.2e-308 were once
        # returned.  The reference is that of `test_long_gil_pelaez_sums`.
        from scipy.integrate import quad
        from scipy.stats import chi2

        ratio, small = 9562.0, 342
        w1, w2 = ratio / (ratio + small), 1.0 / (ratio + small)
        head, err = quad(lambda z: chi2.pdf(z, small) * chi2.sf((x - w2 * z) / w1, 1),
                         0.0, x / w2, limit=400, epsabs=1e-14, epsrel=1e-13)
        assert err < 1e-13
        got = law(np.array([w1] + [w2] * small)).sf(x)
        assert abs(got - (head + chi2.sf(x / w2, small))) <= 1e-10

    def test_unchecked_tail_is_refused(self):
        # Past the longest Gil-Pelaez sum no inversion passes its check,
        # and the law says so rather than return an unchecked value.
        null = law(np.array([48000.0] + [1.0] * 400) / 48400.0)
        with pytest.raises(RegBridgeError, match="checked accuracy"):
            null.sf(0.01)
        assert null.sf(0.5) < 1.0  # the same law nearer its mean

    def test_far_tail_kept_on_absolute_agreement(self):
        # Tails of 0.25 chi2(4) below 1e-50: past the capped tilt the two
        # Talbot rules part by over 5e-8 in relative terms, no Gil-Pelaez
        # sum is short enough for four weights, and the rules' absolute
        # agreement, far inside 1e-10, is what is kept.
        from scipy.stats import chi2

        w, y = np.full(4, 0.25), np.array([61.0, 70.0, 80.0])
        sf, check = limitsim._talbot(y, w, np.ones(4), 1.0)[0].T
        assert np.all(np.abs(sf / check - 1.0) > 5e-8)
        assert np.allclose(law(w).sf(y), chi2.sf(4.0 * y, 4), rtol=1e-5, atol=0.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 12, 40, 100, 400])
    @pytest.mark.parametrize("scale", [1e-3, 0.7])
    def test_equal_weights_match_chi2(self, k, scale):
        # k equal weights w give w chi2(k) exactly: no remainder law.  A
        # dozen weights go to the Talbot rule, which holds relative
        # accuracy into the far tail; from 30 on the Gil-Pelaez sum is
        # short, and accurate in absolute terms.
        from scipy.stats import chi2

        null = law(np.full(k, scale), m=3)
        tails = np.array([0.9, 0.5, 1e-2, 1e-5, 1e-8, 1e-11, 1e-14])
        x = chi2.isf(tails, k) * scale / 3
        ref = chi2.sf(3 * x / scale, k)
        if k <= 12:
            assert np.all(np.abs(null.sf(x) / ref - 1.0) <= 1e-8)
        else:
            assert np.all(np.abs(null.sf(x) - ref) <= 1e-13)

    def test_node_at_the_tilt(self):
        # At y = E Y + 0.8 N w_max the real node of the N-node rule sits
        # on the tilt, where (1 - phi(q)) / q is 0 / 0: its limit is used.
        from scipy.stats import chi2

        P = limitsim._TALBOT_P[0].real  # 0.4 * 24
        y = 3.0 + 2.0 * P
        null = law(np.ones(3))
        theta = (y - 3.0) / (2.0 * y)
        assert P / y == theta
        assert null.sf(y) == pytest.approx(chi2.sf(y, 3), rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(w=split_spectra(), b=st.floats(0.0, 1.0))
    def test_sf_is_a_monotone_probability(self, w, b):
        null = law(w, b=b, m=2)
        x = np.concatenate(([-1.0, 0.0, b / 2], b / 2 + np.geomspace(1e-3, 40.0, 80)))
        s = null.sf(x)
        assert np.all((s > 0.0) & (s <= 1.0))
        assert s[0] == s[1] == s[2] == 1.0
        # Non-increasing, up to the rule's roundoff.
        assert np.all(s[1:] <= s[:-1] * (1.0 + 1e-8) + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(w=split_spectra(), q=st.floats(1e-6, 1.0, exclude_max=True))
    @example(w=np.array([1.0]), q=1.0 - 1e-14)
    def test_quantile_inverts_sf(self, w, q):
        # q >= 1e-6: below it one ulp of x moves the tail of a single
        # chi2(1), whose density is infinite at 0, by more than 1e-10.
        null = law(w, b=0.1, m=4)
        x = null.quantile(q)
        assert abs(null.sf(x) - (1.0 - q)) <= 1e-10
        xs = null.quantile(np.array([q, 0.9, 0.99]))
        assert np.allclose(null.sf(xs), 1.0 - np.array([q, 0.9, 0.99]),
                           rtol=0.0, atol=1e-10)

    def test_sample_quantile_near_the_classical_value(self):
        # Criterion 8's null, read through its Monte Carlo sample: the
        # pinned bridge's 95th percentile is 0.4614.
        grid = rb.GridSpec(200)
        f = rb.factor_psd(rb.build_grid_covariance(
            rb.fixtures.pinned_bridge_covariance(), grid))
        null = rb.simulate_null(f, 100_000, grid, seed=20260821)
        assert abs(float(np.quantile(null.samples, 0.95)) - 0.4614) < 0.02


class TestPValue:
    def test_extremes(self):
        # Far beyond the support the tail underflows and is floored.
        null = pinned_null()
        assert rb.p_value(1000.0, null) == np.finfo(float).tiny
        assert rb.p_value(0.0, null) == 1.0

    def test_midpoint(self):
        null = pinned_null()
        assert rb.p_value(null.quantile(0.5), null) == pytest.approx(0.5, abs=1e-10)

    def test_rejects_non_finite(self):
        null = pinned_null()
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

    def test_does_not_depend_on_replicates_or_seed(self):
        assert pinned_null(replicates=100, seed=1).sf(0.2) == \
            pinned_null(replicates=10 ** 6, seed=2).sf(0.2)


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
