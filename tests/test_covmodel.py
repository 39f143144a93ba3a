"""Covariance kernel ingredients: running means, pairwise cdfs, khat."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import regbridge as rb
from regbridge.covmodel import (AnalyticLorentz, GridLorentz, EmpiricalJointCDF,
                                IndependenceFixture, ProductJointCDF)
from regbridge.errors import (SingularDesignError, UnsupportedModelError,
                              ValidationError)
from regbridge.limitsim import GridSpec

# Hand-inverted Gram matrix of the single-uniform design, kept explicit so
# the khat checks do not route through the code under test.
GINV_SINGLE_UNIFORM = np.array([[12.0, -6.0], [-6.0, 4.0]])


def single_column_dataset(xs, order=(0,)):
    xs = np.asarray(xs, dtype=float)
    reg = np.column_stack([xs, np.ones_like(xs)])
    return rb.Dataset(regressors=reg, response=np.zeros(xs.shape[0]),
                      order_columns=order, intercept_column=1)


def khat_single_uniform(s, t):
    """min(s, t) - L(s) Ginv L(t)' with L(x) = (x^2 / 2, x), by hand."""
    ls = np.array([s * s / 2.0, s])
    lt = np.array([t * t / 2.0, t])
    return min(s, t) - ls @ GINV_SINGLE_UNIFORM @ lt


# ======================================================================
# Running-mean curves
# ======================================================================

class TestGridLorentz:
    def test_hand_example_nodes(self):
        d = single_column_dataset([0.4, 0.2, 0.9])
        view = rb.order_by(d, None, 0)
        lz = rb.estimate_lorentz(view)
        assert lz.n == 3 and lz.p == 2
        expected = np.array([[0.0, 0.0],
                             [0.2 / 3, 1 / 3],
                             [0.6 / 3, 2 / 3],
                             [1.5 / 3, 1.0]])
        assert np.allclose(lz.grid_values, expected, atol=1e-15)
        assert np.allclose(lz.values([1 / 3, 2 / 3, 1.0]), expected[1:], atol=1e-15)

    def test_interpolates_between_nodes(self):
        d = single_column_dataset([0.4, 0.2, 0.9])
        lz = rb.estimate_lorentz(rb.order_by(d, None, 0))
        mid = lz.values(0.5)[0]
        assert mid == pytest.approx([(0.2 / 3 + 0.2) / 2, 0.5], abs=1e-15)

    def test_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            GridLorentz(np.array([[0.1], [0.5]]))
        with pytest.raises(ValidationError):
            GridLorentz(np.zeros((1, 2)))

    def test_levels_outside_unit_interval(self):
        lz = GridLorentz(np.array([[0.0], [1.0]]))
        with pytest.raises(ValidationError):
            lz.values(1.5)
        with pytest.raises(ValidationError):
            lz.values(-0.1)

    def test_converges_to_closed_form(self):
        # Sorted-uniform running mean approaches (t^2 / 2, t) at rate
        # O(1 / sqrt(n)); 0.02 leaves ample room at n = 10000.
        d = rb.sample_h0(rb.fixtures.single_uniform_model(), 10_000, 11)
        lz = rb.estimate_lorentz(rb.order_by(d, None, 0))
        ts = np.linspace(0.0, 1.0, 21)
        target = np.column_stack([ts ** 2 / 2.0, ts])
        assert np.max(np.abs(lz.values(ts) - target)) < 0.02


class TestAnalyticLorentz:
    def test_single_uniform_curve(self):
        fixture = IndependenceFixture(rb.fixtures.single_uniform_model().quantile_funcs)
        lz = AnalyticLorentz(fixture, 0)
        ts = np.array([0.0, 0.25, 0.5, 1.0])
        assert np.allclose(lz.values(ts), np.column_stack([ts ** 2 / 2, ts]),
                           atol=1e-15)

    def test_affine_curve(self):
        # q(u) = 2u - 1, so the partial integral is t^2 - t.
        fixture = IndependenceFixture(rb.fixtures.affine_model().quantile_funcs)
        lz = AnalyticLorentz(fixture, 0)
        ts = np.array([0.2, 0.5, 0.9])
        assert np.allclose(lz.values(ts)[:, 0], ts ** 2 - ts, atol=1e-12)
        assert np.allclose(lz.values(ts)[:, 1], ts, atol=1e-15)

    def test_unconditioned_slot_is_linear(self):
        fixture = IndependenceFixture(rb.fixtures.two_uniform_model().quantile_funcs)
        lz = AnalyticLorentz(fixture, 1)
        ts = np.array([0.3, 0.8])
        # Slot 0 integrates its mean 1/2; slot 1 carries the conditioning.
        assert np.allclose(lz.values(ts)[:, 0], 0.5 * ts, atol=1e-15)
        assert np.allclose(lz.values(ts)[:, 1], ts ** 2 / 2, atol=1e-15)

    def test_domain_check(self):
        lz = AnalyticLorentz(rb.fixtures.intercept_only_fixture(), 0)
        with pytest.raises(ValidationError):
            lz.values([0.5, 2.0])


# ======================================================================
# Closed-form conditional moments
# ======================================================================

class TestIndependenceFixture:
    def test_two_uniform_moments(self):
        fixture = IndependenceFixture(rb.fixtures.two_uniform_model().quantile_funcs)
        assert np.allclose(fixture.h(0, 0.7), [0.7, 0.5, 1.0], atol=1e-12)
        assert np.allclose(fixture.b2(0, 0.7), np.diag([0.0, 1 / 12, 0.0]),
                           atol=1e-12)
        expected_gram = np.array([[1 / 3, 1 / 4, 1 / 2],
                                  [1 / 4, 1 / 3, 1 / 2],
                                  [1 / 2, 1 / 2, 1.0]])
        assert np.allclose(fixture.gram(), expected_gram, atol=1e-12)

    def test_intercept_only_degenerates(self):
        fixture = rb.fixtures.intercept_only_fixture()
        assert fixture.d == 0 and fixture.p == 1
        assert np.allclose(fixture.h(0, 0.3), [1.0])
        assert np.allclose(fixture.b2(0, 0.3), [[0.0]])
        assert np.allclose(fixture.gram(), [[1.0]])
        assert np.allclose(fixture.lorentz(0, np.array([0.25, 1.0])),
                           [[0.25], [1.0]])

    def test_slot_bounds(self):
        fixture = IndependenceFixture(rb.fixtures.single_uniform_model().quantile_funcs)
        with pytest.raises(ValidationError):
            fixture.h(1, 0.5)
        with pytest.raises(ValidationError):
            fixture.lorentz(-1, np.array([0.5]))


# ======================================================================
# Pairwise cdfs
# ======================================================================

class TestProductJointCDF:
    def test_diagonal_is_min(self):
        joint = ProductJointCDF()
        assert joint.cdf_grid(0, 0, [0.3], [0.7])[0, 0] == pytest.approx(0.3)
        assert joint.cdf_grid(1, 1, [0.9], [0.4])[0, 0] == pytest.approx(0.4)

    def test_off_diagonal_is_product(self):
        joint = ProductJointCDF()
        assert joint.cdf_grid(0, 1, [0.3], [0.7])[0, 0] == pytest.approx(0.21)
        grid = joint.cdf_grid(0, 1, [0.5, 1.0], [0.2, 0.4, 1.0])
        assert grid.shape == (2, 3)
        assert np.allclose(grid, np.outer([0.5, 1.0], [0.2, 0.4, 1.0]))


def dense_cdf_grid(joint, i, j, svals, tvals):
    """Reference: product of the dense (levels, n) 0/1 indicator matrices."""
    def indicators(slot, levels):
        counts = rb.floor_index(joint.n, np.asarray(levels, dtype=float))
        out = np.zeros((len(levels), joint.n))
        nz = counts > 0
        thresholds = joint.sorted_columns[slot][counts[nz] - 1]
        out[nz] = joint.columns[slot][None, :] <= thresholds[:, None]
        return out

    return (indicators(i, svals) @ indicators(j, tvals).T) / joint.n


@st.composite
def two_column_joints(draw):
    """Two ordering columns of one length, either 5-level or tie-free."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        values = st.lists(st.integers(0, 4).map(float), min_size=n, max_size=n)
    else:
        values = st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                          min_size=n, max_size=n, unique=True)
    cols = (np.array(draw(values)), np.array(draw(values)))
    return EmpiricalJointCDF(columns=cols,
                             sorted_columns=tuple(np.sort(c) for c in cols))


LEVEL_LISTS = st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                       min_size=1, max_size=12)


class TestEmpiricalJointCDF:
    def make_joint(self):
        x = np.array([0.1, 0.5, 0.9, 0.7])
        y = np.array([0.8, 0.2, 0.3, 0.6])
        return EmpiricalJointCDF(columns=(x, y),
                                 sorted_columns=(np.sort(x), np.sort(y)))

    def test_hand_count(self):
        # At (1/2, 1/2) the thresholds are the 2nd order statistics 0.5
        # and 0.3; only the row (0.5, 0.2) is below both.
        joint = self.make_joint()
        assert joint.cdf_grid(0, 1, [0.5], [0.5])[0, 0] == pytest.approx(0.25)

    def test_boundary_levels(self):
        joint = self.make_joint()
        assert joint.cdf_grid(0, 1, [0.0], [0.8])[0, 0] == 0.0
        assert joint.cdf_grid(0, 1, [1.0], [1.0])[0, 0] == pytest.approx(1.0)

    def test_diagonal_matches_floor_counts(self):
        joint = self.make_joint()
        for t in (0.25, 0.5, 0.75, 1.0):
            assert joint.cdf_grid(0, 0, [t], [t])[0, 0] == pytest.approx(
                rb.floor_index(4, t) / 4)

    def test_converges_to_product_under_independence(self):
        d = rb.sample_h0(rb.fixtures.two_uniform_model(), 10_000, 12)
        joint = rb.empirical_covariance(
            d, rb.all_orderings(d, rb.fit_lse(d))).joint
        levels = np.linspace(0.1, 1.0, 10)
        grid = np.empty((10, 10))
        for a, s in enumerate(levels):
            for b, t in enumerate(levels):
                grid[a, b] = joint.cdf_grid(0, 1, [s], [t])[0, 0]
        assert np.max(np.abs(grid - np.outer(levels, levels))) < 0.03

    @given(joint=two_column_joints(), svals=LEVEL_LISTS, tvals=LEVEL_LISTS)
    @example(joint=EmpiricalJointCDF(
                 columns=(np.array([2.0, 0.0, 2.0, 1.0, 0.0]),
                          np.array([0.3, 0.1, 0.5, 0.2, 0.4])),
                 sorted_columns=(np.array([0.0, 0.0, 1.0, 2.0, 2.0]),
                                 np.array([0.1, 0.2, 0.3, 0.4, 0.5]))),
             svals=[0.6, 0.0, 1.0, 0.2], tvals=[1.0, 0.4, 0.0])
    def test_matches_dense_indicator_product(self, joint, svals, tvals):
        for i in range(2):
            for j in range(2):
                assert np.array_equal(joint.cdf_grid(i, j, svals, tvals),
                                      dense_cdf_grid(joint, i, j, svals, tvals))

    def test_kernel_memory_is_linear_in_n(self):
        # Every khat_grid block of a two-slot design at n = 10^5, m = 100.
        # The indicator product peaked at about 170 MB traced here; the
        # bucket histogram needs a few n-length integer arrays.
        d = rb.sample_h0(rb.fixtures.two_uniform_model(), 100_000, 3)
        fit = rb.fit_lse(d)
        cov = rb.empirical_covariance(d, rb.all_orderings(d, fit), gram=fit.gram)
        pts = GridSpec(100).points()
        tracemalloc.start()
        try:
            for i in range(2):
                for j in range(i, 2):
                    cov.khat_grid(i, j, pts, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


# ======================================================================
# Assembled kernel
# ======================================================================

class TestAnalyticKhat:
    def test_single_uniform_hand_values(self):
        cov = rb.analytic_covariance(rb.fixtures.single_uniform_model())
        for s, t in [(0.5, 0.5), (0.3, 0.7), (0.2, 0.9), (1.0, 0.4)]:
            assert cov.khat(0, 0, s, t) == pytest.approx(
                khat_single_uniform(s, t), abs=1e-12)

    def test_known_special_values(self):
        cov = rb.analytic_covariance(rb.fixtures.single_uniform_model())
        assert cov.khat(0, 0, 0.5, 0.5) == pytest.approx(1 / 16, abs=1e-14)
        # The intercept pins the process at t = 1: exact degeneracy.
        assert cov.khat(0, 0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_symmetry_across_slots(self):
        cov = rb.analytic_covariance(rb.fixtures.two_uniform_model())
        for (i, j, s, t) in [(0, 1, 0.3, 0.8), (1, 0, 0.6, 0.2), (0, 0, 0.9, 0.1)]:
            assert cov.khat(i, j, s, t) == pytest.approx(
                cov.khat(j, i, t, s), abs=1e-14)

    def test_grid_matches_scalar(self):
        cov = rb.analytic_covariance(rb.fixtures.two_uniform_model())
        levels = np.array([0.2, 0.5, 0.8])
        grid = cov.khat_grid(0, 1, levels, levels)
        assert grid.shape == (3, 3)
        for a, s in enumerate(levels):
            for b, t in enumerate(levels):
                assert grid[a, b] == pytest.approx(cov.khat(0, 1, s, t),
                                                   abs=1e-14)

    def test_slot_bounds(self):
        cov = rb.analytic_covariance(rb.fixtures.single_uniform_model())
        with pytest.raises(ValidationError):
            cov.khat(1, 0, 0.5, 0.5)

    def test_gaussian_copula_unsupported(self):
        model = rb.SyntheticModel(
            copula=rb.GaussianCopula(rb.exchangeable_correlation(2, 0.5)),
            quantile_funcs=(rb.IdentityQuantile(), rb.IdentityQuantile()),
            theta=(1.0, 1.0, 0.0), noise=rb.NoiseSpec("normal", 1.0))
        with pytest.raises(UnsupportedModelError):
            rb.analytic_covariance(model)

    def test_pinned_bridge_kernel(self):
        cov = rb.fixtures.pinned_bridge_covariance()
        for s, t in [(0.3, 0.7), (0.5, 0.5), (0.2, 0.2), (1.0, 1.0)]:
            assert cov.khat(0, 0, s, t) == pytest.approx(
                min(s, t) - s * t, abs=1e-15)


class TestEmpiricalCovariance:
    def test_matches_analytic_at_moderate_n(self):
        model = rb.fixtures.single_uniform_model()
        d = rb.sample_h0(model, 20_000, 14)
        fit = rb.fit_lse(d)
        emp = rb.empirical_covariance(d, rb.all_orderings(d, fit), gram=fit.gram)
        ana = rb.analytic_covariance(model)
        levels = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        diff = emp.khat_grid(0, 0, levels, levels) - ana.khat_grid(
            0, 0, levels, levels)
        assert np.max(np.abs(diff)) < 0.02

    def test_gram_default_is_estimated(self):
        d = rb.sample_h0(rb.fixtures.single_uniform_model(), 200, 15)
        views = rb.all_orderings(d, rb.fit_lse(d))
        cov = rb.empirical_covariance(d, views)
        assert np.allclose(cov.gram, rb.estimate_gram(d), atol=1e-15)
        assert np.allclose(cov.gram @ cov.gram_inv, np.eye(2), atol=1e-10)

    def test_views_must_cover_order_columns(self):
        d = rb.sample_h0(rb.fixtures.two_uniform_model(), 100, 16)
        fit = rb.fit_lse(d)
        views = rb.all_orderings(d, fit)
        with pytest.raises(ValidationError):
            rb.empirical_covariance(d, views[::-1])

    def test_collinear_design_is_singular(self):
        x = np.linspace(0.05, 0.95, 40)
        reg = np.column_stack([x, 2.0 * x, np.ones_like(x)])
        d = rb.Dataset(regressors=reg, response=x.copy(), order_columns=(0, 1),
                       intercept_column=2)
        views = tuple(rb.order_by(d, None, j) for j in (0, 1))
        with pytest.raises(SingularDesignError):
            rb.empirical_covariance(d, views)


# ======================================================================
# Gram identity
# ======================================================================

class TestGramIdentity:
    @pytest.mark.parametrize("name", sorted(rb.fixtures.GRAM_CASES))
    def test_identity_holds(self, name):
        case = rb.fixtures.get_gram_case(name)
        assert rb.verify_gram_identity(case) < 1e-8

    def test_rejects_unsupported_inputs(self):
        with pytest.raises(ValidationError):
            rb.verify_gram_identity(np.eye(2))
        model = rb.SyntheticModel(
            copula=rb.GaussianCopula(rb.exchangeable_correlation(2, 0.3)),
            quantile_funcs=(rb.IdentityQuantile(), rb.IdentityQuantile()),
            theta=(1.0, 1.0, 0.0), noise=rb.NoiseSpec("normal", 1.0))
        with pytest.raises(UnsupportedModelError):
            rb.verify_gram_identity(model)

