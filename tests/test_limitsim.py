"""Grid simulation of the limiting statistic and its Monte Carlo p-value."""

import numpy as np
import pytest

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
                    rb.khat(cov, 0, 1, pts[a], pts[b]), abs=1e-14)

    def test_grid_matrix_is_nearly_psd(self):
        cov = rb.analytic_covariance(rb.fixtures.two_uniform_model())
        A = rb.build_grid_covariance(cov, rb.GridSpec(40))
        w = np.linalg.eigvalsh(A)
        assert w[0] > -1e-8


class TestFactorPSD:
    def test_identity_has_no_clipping(self):
        f = rb.factor_psd(np.eye(3))
        assert f.clip_count == 0
        assert np.allclose(f.matrix @ f.matrix.T, np.eye(3), atol=1e-12)

    def test_clips_tiny_and_negative_eigenvalues(self):
        A = np.diag([1.0, 1e-12, -1e-12])
        f = rb.factor_psd(A)
        assert f.clip_count == 2
        rec = f.matrix @ f.matrix.T
        assert np.allclose(rec, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValidationError):
            rb.factor_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            rb.factor_psd(np.zeros((2, 3)))

    def test_indefinite_input_is_clipped_not_rejected(self):
        # Plug-in kernel estimates are mildly indefinite at small n; the
        # contract is to drop that mass, not to refuse the matrix.
        f = rb.factor_psd(np.diag([1.0, -1e-6]), clip_floor=1e-5)
        assert f.clip_count == 1
        assert np.allclose(f.matrix @ f.matrix.T, np.diag([1.0, 0.0]),
                           atol=1e-12)

    def test_reconstruction_bound_on_psd_inputs(self):
        rng = np.random.default_rng(77)
        for k in (3, 8, 20):
            A = rng.standard_normal((k, k))
            M = A.T @ A
            M = 0.5 * (M + M.T)
            f = rb.factor_psd(M)
            err = float(np.max(np.abs(f.matrix @ f.matrix.T - M)))
            assert err <= f.clip_floor + 1e-9 * float(np.max(np.abs(M)))

    def test_rank_one_input(self):
        f = rb.factor_psd(np.ones((2, 2)))
        assert f.clip_count == 1
        assert np.allclose(f.matrix @ f.matrix.T, np.ones((2, 2)), atol=1e-12)

    def test_rejects_negative_floor(self):
        with pytest.raises(ValidationError):
            rb.factor_psd(np.eye(2), clip_floor=-1.0)

    def test_zero_matrix_clips_everything(self):
        f = rb.factor_psd(np.zeros((4, 4)))
        assert f.clip_count == 4
        assert np.all(f.matrix == 0.0)

    def test_weights_are_the_clipped_eigenvalues(self):
        cov = rb.analytic_covariance(rb.fixtures.two_uniform_model())
        A = rb.build_grid_covariance(cov, rb.GridSpec(30))
        f = rb.factor_psd(A)
        w = np.linalg.eigvalsh(A)
        below = w < f.clip_floor
        assert f.weights.shape == (f.dim,)
        assert int(np.count_nonzero(f.weights == 0.0)) == f.clip_count
        assert int(np.count_nonzero(below)) == f.clip_count
        assert np.allclose(f.weights[~below], w[~below], rtol=1e-12, atol=0.0)
        # The factor's columns carry exactly these weights.
        assert np.allclose(np.sum(f.matrix ** 2, axis=0), f.weights,
                           rtol=1e-10, atol=1e-15)

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
        grid = rb.GridSpec(5)
        f = rb.factor_psd(rb.build_grid_covariance(cov, grid))
        null = rb.simulate_null(f, 120, grid, seed=(7, 3))
        eff = collapse_seed((7, 3))
        manual = np.empty(120)
        for r in range(120):
            z = f.matrix @ philox_stream(eff, r).standard_normal(f.dim)
            manual[r] = float(z @ z) / grid.m
        # Same draws, same order; only BLAS summation order may differ.
        assert np.allclose(null.samples, np.sort(manual), rtol=1e-12, atol=0.0)
        assert null.clip_count == f.clip_count

    def test_chunk_size_does_not_matter(self, monkeypatch):
        cov = rb.fixtures.pinned_bridge_covariance()
        grid = rb.GridSpec(8)
        f = rb.factor_psd(rb.build_grid_covariance(cov, grid))
        base = rb.simulate_null(f, 250, grid, seed=5)
        monkeypatch.setattr(limitsim, "_CHUNK", 7)
        small = rb.simulate_null(f, 250, grid, seed=5)
        assert np.array_equal(base.samples, small.samples)

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
            means.append(rb.simulate_null(f, 20_000, grid, seed=99).mean())
        assert abs(means[0] - means[1]) < 0.01

    def test_agrees_with_series_route(self):
        # Independent derivation of the same law: diagonalize the pinned
        # bridge analytically and sum the weighted chi-squares.
        grid = rb.GridSpec(100)
        cov = rb.fixtures.pinned_bridge_covariance()
        f = rb.factor_psd(rb.build_grid_covariance(cov, grid))
        null = rb.simulate_null(f, 20_000, grid, seed=31)
        series = series_statistic_samples(20_000, seed=32)
        assert abs(null.mean() - float(series.mean())) < 0.01
        assert abs(null.quantile(0.95) - float(np.quantile(series, 0.95))) < 0.02


# ======================================================================
# Null distribution and p-values
# ======================================================================

class TestNullDistribution:
    def make_null(self):
        samples = np.sort(np.linspace(0.01, 2.0, 200))
        return rb.NullDistribution(samples=samples, replicates=200,
                                   grid=rb.GridSpec(10), clip_count=0)

    def test_quantile_and_mean(self):
        null = self.make_null()
        assert null.mean() == pytest.approx(np.mean(null.samples))
        assert null.quantile(0.5) == pytest.approx(np.quantile(null.samples, 0.5))
        qs = null.quantile([0.25, 0.75])
        assert qs.shape == (2,)

    def test_sample_count_must_match(self):
        with pytest.raises(ValidationError):
            rb.NullDistribution(samples=np.zeros(5), replicates=6,
                                grid=rb.GridSpec(5), clip_count=0)


class TestPValue:
    def make_null(self):
        samples = np.sort(np.arange(1.0, 200.0 + 1.0))
        return rb.NullDistribution(samples=samples, replicates=200,
                                   grid=rb.GridSpec(10), clip_count=0)

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
