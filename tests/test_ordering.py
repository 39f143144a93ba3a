"""Ordering views: stable sorting, role checks, degenerate sizes."""

import numpy as np
import pytest

import regbridge as rb
from regbridge.errors import ValidationError


def dataset_with_ties():
    x = np.array([0.5, 0.2, 0.5, 0.1, 0.2])
    X = np.column_stack([x, np.ones(5)])
    y = np.arange(5, dtype=float)
    return rb.Dataset(X, y, (0,), 1)


class TestOrderBy:
    def test_sorted_and_permutation_consistent(self):
        d = rb.sample_h0(rb.fixtures.two_uniform_model(), 64, 3)
        fit = rb.fit_lse(d)
        for j in (0, 1):
            v = rb.order_by(d, fit, j)
            col = v.sorted_regressors[:, j]
            assert np.all(np.diff(col) >= 0)
            assert np.array_equal(v.sorted_regressors, d.regressors[v.perm])
            assert np.array_equal(v.sorted_residuals, fit.residuals[v.perm])

    def test_view_arrays_are_read_only_and_own_their_memory(self):
        d = rb.sample_h0(rb.fixtures.two_uniform_model(), 64, 4)
        fit = rb.fit_lse(d)
        for v in rb.all_orderings(d, fit):
            for a in (v.sorted_regressors, v.sorted_residuals):
                assert not a.flags.writeable
                for source in (d.regressors, d.response, fit.residuals):
                    assert not np.shares_memory(a, source)

    def test_stable_ties_keep_row_order(self):
        d = dataset_with_ties()
        v = rb.order_by(d, rb.fit_lse(d), 0)
        # ties at 0.2 (rows 1, 3 -> sorted as 3, 1) and 0.5 (rows 0, 2)
        assert np.array_equal(v.perm, [3, 1, 4, 0, 2])

    def test_repeated_calls_identical(self):
        d = dataset_with_ties()
        fit = rb.fit_lse(d)
        a = rb.order_by(d, fit, 0)
        b = rb.order_by(d, fit, 0)
        assert np.array_equal(a.perm, b.perm)

    def test_non_ordering_column_rejected(self):
        d = dataset_with_ties()
        with pytest.raises(ValidationError):
            rb.order_by(d, rb.fit_lse(d), 1)

    def test_single_row(self):
        d = rb.Dataset(np.array([[0.4, 1.0]]), np.array([2.0]), (0,), 1)
        # `fit_lse` needs n > p, so the one-row fit is written out by hand.
        fit = rb.FitResult(theta_hat=np.array([0.0, 2.0]), residuals=np.zeros(1),
                           sigma2_hat=0.0, gram=d.regressors.T @ d.regressors,
                           condition=np.inf)
        v = rb.order_by(d, fit, 0)
        assert v.n == 1
        assert np.array_equal(v.perm, [0])

    def test_mismatched_fit_rejected(self):
        d = dataset_with_ties()
        other = rb.sample_h0(rb.fixtures.single_uniform_model(), 8, 0)
        fit = rb.fit_lse(other)
        with pytest.raises(ValidationError):
            rb.order_by(d, fit, 0)


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
