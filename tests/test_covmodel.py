"""Covariance kernel ingredients: running means, pairwise cdfs, khat."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import regbridge as rb
from regbridge.errors import (SingularDesignError, UnsupportedModelError,
                              ValidationError)
from regbridge.limitsim import GridSpec, build_grid_covariance

# Hand-inverted Gram matrix of the single-uniform design, kept explicit so
# the khat checks do not route through the code under test.
GINV_SINGLE_UNIFORM = np.array([[12.0, -6.0], [-6.0, 4.0]])


def single_column_dataset(xs, order=(0,)):
    xs = np.asarray(xs, dtype=float)
    reg = np.column_stack([xs, np.ones_like(xs)])
    return rb.Dataset(regressors=reg, response=np.zeros(xs.shape[0]),
                      order_columns=order, intercept_column=1)


def exact_fit(data, theta):
    """Fit whose coefficients `theta` reproduce the response exactly.

    Written out for designs `fit_lse` refuses (n <= p, collinear or tied
    columns) but the kernel code accepts; the kernel never reads residuals.
    """
    X = data.regressors
    theta = np.asarray(theta, dtype=float)
    resid = data.response - X @ theta
    assert not resid.any()
    return rb.FitResult(theta_hat=theta, residuals=resid, sigma2_hat=0.0,
                        gram=X.T @ X / data.n, condition=np.inf)


def khat_single_uniform(s, t):
    """min(s, t) - L(s) Ginv L(t)' with L(x) = (x^2 / 2, x), by hand."""
    ls = np.array([s * s / 2.0, s])
    lt = np.array([t * t / 2.0, t])
    return min(s, t) - ls @ GINV_SINGLE_UNIFORM @ lt


# ======================================================================
# Running-mean curves
# ======================================================================

def empirical_model(d):
    fit = rb.fit_lse(d)
    return rb.empirical_covariance(d, rb.all_orderings(d, fit), gram=fit.gram)


class TestGridLorentz:
    """The empirical running-mean curve on the nodes k/n."""

    def test_hand_example_nodes(self):
        cov = empirical_model(single_column_dataset([0.4, 0.2, 0.9]))
        curve = cov.curve(0, [0.0, 1 / 3, 2 / 3, 1.0])
        assert cov.n == 3 and curve.shape == (4, 2)
        expected = np.array([[0.0, 0.0],
                             [0.2 / 3, 1 / 3],
                             [0.6 / 3, 2 / 3],
                             [1.5 / 3, 1.0]])
        assert np.allclose(curve, expected, atol=1e-15)
        assert np.allclose(cov.curve(0, np.array([1 / 3, 2 / 3, 1.0])),
                           expected[1:], atol=1e-15)

    def test_steps_at_the_node_below(self):
        # [3 * 0.5] = 1: the curve reads node 1, as the bridge grid does.
        cov = empirical_model(single_column_dataset([0.4, 0.2, 0.9]))
        mid = cov.curve(0, np.array([0.5]))[0]
        assert mid == pytest.approx([0.2 / 3, 1 / 3], abs=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_levels_outside_unit_interval(self):
        cov = empirical_model(single_column_dataset([0.4, 0.2, 0.9]))
        for bad in (1.5, -0.1, np.nan):
            with pytest.raises(ValidationError, match="levels must lie"):
                cov.khat_grid(0, 0, [bad], [0.5])
            with pytest.raises(ValidationError, match="levels must lie"):
                cov.khat_grid(0, 0, [0.5], [bad])

    def test_converges_to_closed_form(self):
        # Sorted-uniform running mean approaches (t^2 / 2, t) at rate
        # O(1 / sqrt(n)); 0.02 leaves ample room at n = 10000.
        cov = empirical_model(rb.sample_h0(rb.fixtures.single_uniform_model(),
                                           10_000, 11))
        ts = np.linspace(0.0, 1.0, 21)
        target = np.column_stack([ts ** 2 / 2.0, ts])
        assert np.max(np.abs(cov.curve(0, ts) - target)) < 0.02


class TestAnalyticLorentz:
    """The closed-form running-mean curve of independent coordinates."""

    def test_single_uniform_curve(self):
        cov = rb.analytic_covariance(rb.fixtures.single_uniform_model())
        ts = np.array([0.0, 0.25, 0.5, 1.0])
        assert np.allclose(cov.curve(0, ts), np.column_stack([ts ** 2 / 2, ts]),
                           atol=1e-15)

    def test_affine_curve(self):
        # q(u) = 2u - 1, so the partial integral is t^2 - t.
        cov = rb.analytic_covariance(rb.fixtures.affine_model())
        ts = np.array([0.2, 0.5, 0.9])
        assert np.allclose(cov.curve(0, ts)[:, 0], ts ** 2 - ts, atol=1e-12)
        assert np.allclose(cov.curve(0, ts)[:, 1], ts, atol=1e-15)

    def test_unconditioned_slot_is_linear(self):
        cov = rb.analytic_covariance(rb.fixtures.two_uniform_model())
        ts = np.array([0.3, 0.8])
        # Slot 0 integrates its mean 1/2; slot 1 carries the conditioning.
        assert np.allclose(cov.curve(1, ts)[:, 0], 0.5 * ts, atol=1e-15)
        assert np.allclose(cov.curve(1, ts)[:, 1], ts ** 2 / 2, atol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_domain_check(self):
        cov = rb.fixtures.pinned_bridge_covariance()
        with pytest.raises(ValidationError):
            cov.khat_grid(0, 0, [0.5, 2.0], [0.5])
        with pytest.raises(ValidationError):
            cov.khat(0, 0, np.nan, 0.5)


# ======================================================================
# Closed-form conditional moments
# ======================================================================

class TestIndependenceFixture:
    """Closed-form moments of `IndependenceCovariance`."""

    def test_two_uniform_moments(self):
        cov = rb.analytic_covariance(rb.fixtures.two_uniform_model())
        assert np.allclose(cov.h(0, 0.7), [0.7, 0.5, 1.0], atol=1e-12)
        assert np.allclose(cov.b2(0, 0.7), np.diag([0.0, 1 / 12, 0.0]),
                           atol=1e-12)
        expected_gram = np.array([[1 / 3, 1 / 4, 1 / 2],
                                  [1 / 4, 1 / 3, 1 / 2],
                                  [1 / 2, 1 / 2, 1.0]])
        assert np.allclose(cov.gram(), expected_gram, atol=1e-12)

    def test_intercept_only_degenerates(self):
        cov = rb.fixtures.pinned_bridge_covariance()
        assert cov.d == 0 and cov.p == 1 and cov.d_order == 1
        assert np.allclose(cov.h(0, 0.3), [1.0])
        assert np.allclose(cov.b2(0, 0.3), [[0.0]])
        assert np.allclose(cov.gram(), [[1.0]])
        assert np.allclose(cov.curve(0, np.array([0.25, 1.0])), [[0.25], [1.0]])
        assert cov.gram_inv.tobytes() == np.eye(1).tobytes()

    def test_slot_bounds(self):
        cov = rb.analytic_covariance(rb.fixtures.single_uniform_model())
        with pytest.raises(ValidationError):
            cov.h(1, 0.5)
        with pytest.raises(ValidationError):
            cov.b2(-1, 0.5)


# ======================================================================
# Pairwise cdfs
# ======================================================================

class TestProductJointCDF:
    """The pairwise cdf of independent coordinates."""

    def test_diagonal_is_min(self):
        cov = rb.analytic_covariance(rb.fixtures.two_uniform_model())
        assert cov.cdf_grid(0, 0, [0.3], [0.7])[0, 0] == pytest.approx(0.3)
        assert cov.cdf_grid(1, 1, [0.9], [0.4])[0, 0] == pytest.approx(0.4)

    def test_off_diagonal_is_product(self):
        cov = rb.analytic_covariance(rb.fixtures.two_uniform_model())
        assert cov.cdf_grid(0, 1, [0.3], [0.7])[0, 0] == pytest.approx(0.21)
        grid = cov.cdf_grid(0, 1, [0.5, 1.0], [0.2, 0.4, 1.0])
        assert grid.shape == (2, 3)
        assert np.allclose(grid, np.outer([0.5, 1.0], [0.2, 0.4, 1.0]))


def columns_dataset(cols):
    """Dataset of the ordering columns `cols` plus an intercept."""
    d, n = len(cols), len(cols[0])
    reg = np.column_stack(list(cols) + [np.ones(n)])
    return rb.Dataset(regressors=reg, response=np.zeros(n),
                      order_columns=tuple(range(d)), intercept_column=d)


def columns_covariance(cols):
    """Empirical model of the ordering columns `cols`, plus an intercept.

    The Gram matrix is the identity, so that every draw is invertible;
    the kernel code never relies on which Gram it is given.
    """
    d = len(cols)
    data = columns_dataset(cols)
    fit = exact_fit(data, np.zeros(d + 1))
    return rb.empirical_covariance(data, rb.all_orderings(data, fit),
                                   gram=np.eye(d + 1))


def dense_indicators(data, slot, levels):
    """Dense (levels, n) 0/1 matrix of the rows at or below each threshold.

    The slot's column is read from the dataset, not from the model under
    test.
    """
    col = data.regressors[:, data.order_columns[slot]]
    counts = rb.floor_index(data.n, np.asarray(levels, dtype=float))
    out = np.zeros((len(levels), data.n))
    nz = counts > 0
    thresholds = np.sort(col)[counts[nz] - 1]
    out[nz] = col[None, :] <= thresholds[:, None]
    return out


def dense_cdf_grid(data, i, j, svals, tvals):
    """Reference: product of the dense (levels, n) 0/1 indicator matrices."""
    return (dense_indicators(data, i, svals)
            @ dense_indicators(data, j, tvals).T) / data.n


def dense_kernel(data, m):
    """Reference grid matrix A (I - H) A' / n.

    A stacks every slot's indicators on the grid k/m, slot-major, and H
    is the hat matrix of the design X, from its QR factor.
    """
    X = data.regressors
    A = np.vstack([dense_indicators(data, k, GridSpec(m).points())
                   for k in range(len(data.order_columns))])
    Q = np.linalg.qr(X)[0]
    return (A @ A.T - (A @ Q) @ (A @ Q).T) / X.shape[0]


def column_lists(n):
    """n values, either 5-level or tie-free."""
    return st.one_of(
        st.lists(st.integers(0, 4).map(float), min_size=n, max_size=n),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n,
                 max_size=n, unique=True))


@st.composite
def two_columns(draw):
    """Two ordering columns of one length, each either 5-level or tie-free."""
    n = draw(st.integers(1, 40))
    return [draw(column_lists(n)) for _ in range(2)]


@st.composite
def permuted_tied_columns(draw):
    """Two 5-level columns of one length and a permutation of their rows."""
    n = draw(st.integers(2, 40))
    cols = [draw(st.lists(st.integers(0, 4).map(float), min_size=n,
                          max_size=n)) for _ in range(2)]
    return cols, draw(st.permutations(range(n)))


LEVEL_LISTS = st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                       min_size=1, max_size=12)


class TestEmpiricalJointCDF:
    """The rank-based pairwise cdf estimate."""

    def make_cov(self):
        return columns_covariance([[0.1, 0.5, 0.9, 0.7], [0.8, 0.2, 0.3, 0.6]])

    def test_hand_count(self):
        # At (1/2, 1/2) the thresholds are the 2nd order statistics 0.5
        # and 0.3; only the row (0.5, 0.2) is below both.
        cov = self.make_cov()
        assert cov.cdf_grid(0, 1, [0.5], [0.5])[0, 0] == pytest.approx(0.25)

    def test_boundary_levels(self):
        cov = self.make_cov()
        assert cov.cdf_grid(0, 1, [0.0], [0.8])[0, 0] == 0.0
        assert cov.cdf_grid(0, 1, [1.0], [1.0])[0, 0] == pytest.approx(1.0)

    def test_diagonal_matches_floor_counts(self):
        cov = self.make_cov()
        for t in (0.25, 0.5, 0.75, 1.0):
            assert cov.cdf_grid(0, 0, [t], [t])[0, 0] == pytest.approx(
                rb.floor_index(4, t) / 4)

    def test_converges_to_product_under_independence(self):
        cov = empirical_model(rb.sample_h0(rb.fixtures.two_uniform_model(),
                                           10_000, 12))
        levels = np.linspace(0.1, 1.0, 10)
        grid = np.empty((10, 10))
        for a, s in enumerate(levels):
            for b, t in enumerate(levels):
                grid[a, b] = cov.cdf_grid(0, 1, [s], [t])[0, 0]
        assert np.max(np.abs(grid - np.outer(levels, levels))) < 0.03

    @given(cols=two_columns(), svals=LEVEL_LISTS, tvals=LEVEL_LISTS)
    @example(cols=[[2.0, 0.0, 2.0, 1.0, 0.0], [0.3, 0.1, 0.5, 0.2, 0.4]],
             svals=[0.6, 0.0, 1.0, 0.2], tvals=[1.0, 0.4, 0.0])
    def test_matches_dense_indicator_product(self, cols, svals, tvals):
        cov, data = columns_covariance(cols), columns_dataset(cols)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(cov.cdf_grid(i, j, svals, tvals),
                                      dense_cdf_grid(data, i, j, svals, tvals))

    @given(case=permuted_tied_columns(), svals=LEVEL_LISTS, tvals=LEVEL_LISTS)
    def test_cross_cells_invariant_under_row_permutation(self, case, svals,
                                                         tvals):
        # The cross-ordering cdf reads two orderings only through their
        # joint ranks, so reordering the rows moves no cell by one bit.
        cols, perm = case
        cov = columns_covariance(cols)
        moved = columns_covariance([np.asarray(c)[perm] for c in cols])
        for i, j in ((0, 1), (1, 0)):
            assert (moved.cdf_grid(i, j, svals, tvals).tobytes()
                    == cov.cdf_grid(i, j, svals, tvals).tobytes())

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


@st.composite
def ordering_covariances(draw):
    """Empirical covariance model of d = 1..3 tied or tie-free columns."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 40))
    cols = [draw(column_lists(n)) for _ in range(d)]
    return cols, columns_covariance(cols)


def khat_grid_twice(cov, i, j, svals, tvals):
    """Reference: each side's curve and thresholds evaluated on its own.

    `tvals` is copied, so `cdf_grid` never sees the same array twice.
    """
    svals = np.atleast_1d(np.asarray(svals, dtype=float))
    tvals = np.array(tvals, dtype=float, ndmin=1)
    li = cov.curve(i, svals)
    lj = cov.curve(j, tvals)
    return cov.cdf_grid(i, j, svals, tvals) - li @ cov.gram_inv @ lj.T


class TestSharedKernelIngredients:
    """Work done once per call gives the same bits as doing it twice."""

    @given(case=ordering_covariances(), levels=LEVEL_LISTS,
           m=st.integers(2, 30))
    def test_diagonal_blocks_match_separate_evaluation(self, case, levels, m):
        _, cov = case
        for pts in (GridSpec(m).points(), np.array(levels)):
            for i in range(cov.d_order):
                ref = khat_grid_twice(cov, i, i, pts, pts).tobytes()
                assert cov.khat_grid(i, i, pts, pts).tobytes() == ref
                assert cov.khat_grid(i, i, pts, pts.copy()).tobytes() == ref
                assert cov.khat_grid(i, i, list(pts), pts).tobytes() == ref

    @given(case=ordering_covariances())
    def test_sorted_columns_come_from_the_views(self, case):
        cols, cov = case
        for k, col in enumerate(cols):
            srt = cov.views[k].sorted_column
            assert srt.flags.c_contiguous
            assert np.array_equal(srt, np.sort(col))


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
            copula=rb.GaussianCopula(2, 0.5), margin=rb.AffineQuantile(),
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

    def test_views_must_cover_order_columns(self):
        d = rb.sample_h0(rb.fixtures.two_uniform_model(), 100, 16)
        fit = rb.fit_lse(d)
        views = rb.all_orderings(d, fit)
        with pytest.raises(ValidationError):
            rb.empirical_covariance(d, views[::-1], gram=fit.gram)

    def test_collinear_design_is_singular(self):
        x = np.linspace(0.05, 0.95, 40)
        reg = np.column_stack([x, 2.0 * x, np.ones_like(x)])
        d = rb.Dataset(regressors=reg, response=x.copy(), order_columns=(0, 1),
                       intercept_column=2)
        with pytest.raises(SingularDesignError):
            rb.fit_lse(d)
        fit = exact_fit(d, [1.0, 0.0, 0.0])
        views = tuple(rb.order_by(d, fit, j) for j in (0, 1))
        with pytest.raises(SingularDesignError):
            rb.empirical_covariance(d, views, gram=reg.T @ reg / 40)


@st.composite
def kernel_designs(draw):
    """d = 1..3 columns, each 5-level or tie-free, and m not dividing n."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 2, 60))
    cols = [draw(st.one_of(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.permutations(np.arange(1, n + 1) / n))) for _ in range(d)]
    return columns_dataset(cols), draw(st.integers(2, 150).filter(lambda m: n % m))


class TestEmpiricalGridMatrix:
    """The plug-in grid matrix is (1/n) A (I - H) A', so it is PSD."""

    @settings(deadline=None)
    @given(case=kernel_designs())
    @example(case=(columns_dataset([np.arange(34) % 5,
                                    (np.arange(34) * 7 % 34 + 1) / 34,
                                    np.arange(34) % 3]), 150))
    @example(case=(columns_dataset([[0.4, 0.2, 0.9, 0.1, 0.7]]), 3))
    def test_matches_dense_oracle_and_is_psd(self, case):
        data, m = case
        cond = np.linalg.cond(data.regressors)
        assume(cond < 1e3)
        cov = empirical_model(data)
        K = build_grid_covariance(cov, GridSpec(m))
        ref = dense_kernel(data, m)
        # Both bounds are relative to the cdf term, whose largest cell, at
        # t = 1, is 1: a design whose indicators all lie in its column
        # space has a zero kernel, and only roundoff to compare with.
        # Inverting the Gram matrix adds roundoff in proportion to its
        # condition number, the square of the design's.
        tol = max(1e-12, 1e-14 * cond ** 2)
        assert np.max(np.abs(K - ref)) <= tol
        w = np.linalg.eigvalsh(K)
        assert w[0] >= -tol * max(w[-1], 1.0)


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
            copula=rb.GaussianCopula(2, 0.3), margin=rb.AffineQuantile(),
            theta=(1.0, 1.0, 0.0), noise=rb.NoiseSpec("normal", 1.0))
        with pytest.raises(UnsupportedModelError):
            rb.verify_gram_identity(model)

