"""Ordering views: stable sorting, running sums, tie blocks, role checks."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import regbridge as rb
from regbridge.errors import ValidationError


def dataset_with_ties():
    x = np.array([0.5, 0.2, 0.5, 0.1, 0.2])
    X = np.column_stack([x, np.ones(5)])
    y = np.arange(5, dtype=float)
    return rb.Dataset(X, y, (0,), 1)


@st.composite
def tied_marks(draw):
    """Ordering values on one to five levels, any (n, k) marks, and a row
    permutation."""
    n = draw(st.integers(1, 40))
    levels = draw(st.integers(1, 5))
    values = np.array(draw(st.lists(st.integers(0, levels - 1), min_size=n,
                                    max_size=n)), dtype=float)
    marks = draw(arrays(np.float64, (n, draw(st.integers(1, 3))),
                        elements=st.floats(-1e3, 1e3)))
    return values, marks, np.array(draw(st.permutations(range(n))))


class TestOrderBy:
    def test_sorted_and_permutation_consistent(self):
        d = rb.sample_h0(rb.fixtures.two_uniform_model(), 64, 3)
        fit = rb.fit_lse(d)
        for v in rb.all_orderings(d, fit):
            j = v.column
            assert np.all(np.diff(v.sorted_column) >= 0)
            assert np.array_equal(v.sorted_column, d.regressors[v.perm, j])
            rows = np.column_stack([fit.residuals, d.regressors])[v.perm]
            assert np.array_equal(v.sums, np.vstack([np.zeros((1, 4)),
                                                     np.cumsum(rows, axis=0)]))

    def test_view_arrays_are_read_only_and_own_their_memory(self):
        d = rb.sample_h0(rb.fixtures.two_uniform_model(), 64, 4)
        fit = rb.fit_lse(d)
        for v in rb.all_orderings(d, fit):
            for a in (v.perm, v.sorted_column, v.sums):
                assert not a.flags.writeable
                for source in (d.regressors, d.response, fit.residuals):
                    assert not np.shares_memory(a, source)

    def test_stable_ties_keep_row_order(self):
        d = dataset_with_ties()
        v = rb.all_orderings(d, rb.fit_lse(d))[0]
        # ties at 0.2 (rows 1, 3 -> sorted as 3, 1) and 0.5 (rows 0, 2)
        assert np.array_equal(v.perm, [3, 1, 4, 0, 2])

    def test_repeated_calls_identical(self):
        d = dataset_with_ties()
        marks = np.column_stack([rb.fit_lse(d).residuals, d.regressors])
        a = rb.order_by(d.regressors[:, 0], marks, 0)
        b = rb.order_by(d.regressors[:, 0], marks, 0)
        assert np.array_equal(a.perm, b.perm)

    def test_mismatched_shapes_rejected(self):
        values = np.array([0.5, 0.2, 0.5])
        for marks in (np.ones((2, 2)), np.ones(3), np.ones((3, 1, 1))):
            with pytest.raises(ValidationError):
                rb.order_by(values, marks)
        with pytest.raises(ValidationError):
            rb.order_by(np.ones((3, 1)), np.ones((3, 2)))

    @given(case=tied_marks())
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_every_mark_at_or_below_the_node(self, case):
        values, marks, perm = case
        v = rb.order_by(values, marks)
        assert v.column == -1
        assert v.sums.shape == (len(values) + 1, marks.shape[1])
        assert not v.sums[0].any()
        for i in range(1, len(values) + 1):
            expect = marks[values <= v.sorted_column[i - 1]].sum(axis=0)
            assert np.allclose(v.sums[i], expect, rtol=0.0, atol=1e-9)
        moved = rb.order_by(values[perm], marks[perm])
        assert np.allclose(moved.sums, v.sums, rtol=0.0, atol=1e-9)

    def test_single_row(self):
        d = rb.Dataset(np.array([[0.4, 1.0]]), np.array([2.0]), (0,), 1)
        # `fit_lse` needs n > p, so the one-row fit is written out by hand.
        fit = rb.FitResult(theta_hat=np.array([0.0, 2.0]), residuals=np.zeros(1),
                           sigma2_hat=0.0, gram=d.regressors.T @ d.regressors,
                           condition=np.inf)
        v = rb.all_orderings(d, fit)[0]
        assert v.n == 1
        assert np.array_equal(v.perm, [0])


class TestAllOrderings:
    def test_covers_order_columns_in_order(self):
        d = rb.sample_h0(rb.fixtures.two_uniform_model(), 32, 5)
        fit = rb.fit_lse(d)
        views = rb.all_orderings(d, fit)
        assert tuple(v.column for v in views) == d.order_columns

    def test_views_reorder_same_rows(self):
        d = rb.sample_h0(rb.fixtures.two_uniform_model(), 32, 6)
        views = rb.all_orderings(d, rb.fit_lse(d))
        for v in views:
            assert np.array_equal(np.sort(v.perm), np.arange(d.n))

    def test_mismatched_fit_rejected(self):
        d = dataset_with_ties()
        other = rb.sample_h0(rb.fixtures.single_uniform_model(), 8, 0)
        fit = rb.fit_lse(other)
        with pytest.raises(ValidationError):
            rb.all_orderings(d, fit)


# ======================================================================
# Tied ordering values
# ======================================================================

def discrete_dataset(rng, n, levels, slope=0.5):
    """y = 1 + slope * x + N(0, 1), x uniform on `levels` equally spaced values."""
    x = rng.integers(0, levels, n).astype(float)
    X = np.column_stack([x, np.ones(n)])
    return rb.Dataset(X, 1.0 + slope * x + rng.standard_normal(n), (0,), 1)


@st.composite
def designs(draw):
    """d = 1 or 2 ordering columns, each 3- to 6-level or continuous, with
    an intercept and a response that the columns explain in part."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(20, 80))
    cols = []
    for _ in range(draw(st.integers(1, 2))):
        levels = draw(st.one_of(st.none(), st.integers(3, 6)))
        cols.append(rng.random(n) if levels is None
                    else rng.integers(0, levels, n).astype(float))
    X = np.column_stack(cols + [np.ones(n)])
    y = X @ rng.normal(size=X.shape[1]) + rng.standard_normal(n)
    return rb.Dataset(X, y, tuple(range(len(cols))), len(cols)), rng


def statistic_and_p(data):
    res = rb.run_adequacy_test(data, grid_m=20, replicates=100)
    return res.statistic, res.p_value


class TestTiedValues:
    def test_block_end_sums(self):
        # Sorted values 0.1 | 0.2 0.2 | 0.5 0.5: nodes 2 and 4 sit inside
        # a tie block and take the sum to its end.
        d = dataset_with_ties()
        v = rb.all_orderings(d, rb.fit_lse(d))[0]
        assert np.allclose(v.sums[:, 1], [0.0, 0.1, 0.5, 0.5, 1.5, 1.5],
                           rtol=0.0, atol=1e-15)
        assert np.array_equal(v.sums[:, 2], [0, 1, 3, 3, 5, 5])
        b = rb.residual_bridge(v, rb.fit_lse(d).sigma2_hat)
        assert b.values[2] == b.values[3] and b.values[4] == b.values[5]

    @given(case=designs())
    @settings(max_examples=25, deadline=None)
    def test_row_order_does_not_matter(self, case):
        data, rng = case
        perm = rng.permutation(data.n)
        shuffled = rb.Dataset(data.regressors[perm], data.response[perm],
                              data.order_columns, data.intercept_column)
        (s0, p0), (s1, p1) = statistic_and_p(data), statistic_and_p(shuffled)
        assert s1 == pytest.approx(s0, rel=1e-9, abs=1e-12)
        assert abs(p1 - p0) <= 1e-8

    @given(case=designs(), scale=st.floats(0.1, 10.0), shift=st.floats(-10.0, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_increasing_affine_map_does_not_matter(self, case, scale, shift):
        # With an intercept the residuals, the ranks and L G^-1 L' are all
        # unchanged by x -> scale * x + shift.
        data, _ = case
        X = data.regressors.copy()
        X[:, 0] = scale * X[:, 0] + shift
        assume(np.array_equal(np.argsort(X[:, 0], kind="stable"),
                              np.argsort(data.regressors[:, 0], kind="stable")))
        assume(np.unique(X[:, 0]).size == np.unique(data.regressors[:, 0]).size)
        moved = rb.Dataset(X, data.response, data.order_columns,
                           data.intercept_column)
        (s0, p0), (s1, p1) = statistic_and_p(data), statistic_and_p(moved)
        assert s1 == pytest.approx(s0, rel=1e-8, abs=1e-12)
        assert abs(p1 - p0) <= 1e-7

    @given(case=designs())
    @settings(max_examples=25, deadline=None)
    def test_bridge_pinned_with_intercept(self, case):
        data, _ = case
        fit = rb.fit_lse(data)
        for v in rb.all_orderings(data, fit):
            assert abs(rb.residual_bridge(v, fit.sigma2_hat).values[-1]) < 1e-9

    def test_size_on_a_discrete_regressor(self):
        # Five levels at n = 300: criterion 9's band at level 0.05 over
        # 1,000 null datasets.  Row order inside a tie block once set the
        # bridge, and this design rejected 0 of 300.
        rng = np.random.default_rng(20261019)
        rejections = sum(rb.run_adequacy_test(discrete_dataset(rng, 300, 5)).reject
                         for _ in range(1000))
        assert 0.035 <= rejections / 1000 <= 0.065
