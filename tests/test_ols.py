"""Least-squares fit against explicit normal-equation oracles."""

import numpy as np
import pytest

import regbridge as rb
from regbridge.errors import SingularDesignError, ValidationError


def normal_equations_oracle(data):
    """Coefficients via the explicit Gram inverse (oracle route)."""
    X, y = data.regressors, data.response
    return np.linalg.inv(X.T @ X) @ (X.T @ y)


def random_dataset(rng, n=40, quad=False):
    x = rng.random(n)
    X = np.column_stack([x, np.ones(n)])
    y = 1.7 * x - 0.4 + 0.3 * rng.standard_normal(n)
    if quad:
        y = y + x ** 2
    return rb.Dataset(X, y, order_columns=(0,), intercept_column=1)


class TestFitLSE:
    def test_matches_normal_equations(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = random_dataset(rng)
            fit = rb.fit_lse(d)
            oracle = normal_equations_oracle(d)
            assert np.allclose(fit.theta_hat, oracle, rtol=1e-10, atol=1e-12)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = random_dataset(rng)
            fit = rb.fit_lse(d)
            grad = d.regressors.T @ fit.residuals
            assert np.max(np.abs(grad)) < 1e-8 * d.n

    def test_sigma2_is_rss_over_dof(self):
        d = random_dataset(np.random.default_rng(12))
        fit = rb.fit_lse(d)
        rss = float(fit.residuals @ fit.residuals)
        assert fit.sigma2_hat == pytest.approx(rss / (d.n - d.p), rel=1e-12)

    def test_gram_normalization(self):
        d = random_dataset(np.random.default_rng(13))
        fit = rb.fit_lse(d)
        assert np.allclose(fit.gram, d.regressors.T @ d.regressors / d.n)

    def test_exact_recovery_zero_noise(self):
        n = 30
        x = np.linspace(0.01, 0.99, n)
        X = np.column_stack([x, np.ones(n)])
        y = 2.0 * x + 1.0
        d = rb.Dataset(X, y, (0,), 1)
        fit = rb.fit_lse(d)
        assert np.allclose(fit.theta_hat, [2.0, 1.0], atol=1e-12)
        assert fit.sigma2_hat < 1e-24

    def test_known_gram_example(self):
        d = rb.Dataset(np.array([[0.0, 1.0], [1.0, 1.0], [0.5, 1.0]]),
                       np.array([0.0, 1.0, 0.5]), (0,), 1)
        g = rb.fit_lse(d).gram
        assert np.allclose(g, np.array([[1.25 / 3, 1.5 / 3], [1.5 / 3, 1.0]]))

    def test_singular_design_raises(self):
        n = 20
        x = np.linspace(0, 1, n)
        X = np.column_stack([x, 2.0 * x])  # exactly collinear
        d = rb.Dataset(X, np.zeros(n), (0,))
        with pytest.raises(SingularDesignError):
            rb.fit_lse(d)

    def test_near_singular_design_raises(self):
        rng = np.random.default_rng(14)
        x = rng.random(50)
        X = np.column_stack([x, x + 1e-14 * rng.standard_normal(50), np.ones(50)])
        d = rb.Dataset(X, rng.standard_normal(50), (0, 1), 2)
        with pytest.raises(SingularDesignError):
            rb.fit_lse(d)

    def test_needs_n_above_p(self):
        d = rb.Dataset(np.array([[0.2, 1.0], [0.4, 1.0]]), np.zeros(2), (0,), 1)
        with pytest.raises(ValidationError):
            rb.fit_lse(d)


class TestPermuteRows:
    def test_fit_invariant_under_permutation(self):
        rng = np.random.default_rng(15)
        d = random_dataset(rng, n=60)
        base = rb.fit_lse(d)
        for _ in range(25):
            perm = rng.permutation(d.n)
            fit = rb.fit_lse(rb.permute_rows(d, perm))
            assert np.allclose(fit.theta_hat, base.theta_hat, rtol=1e-10)
            assert fit.sigma2_hat == pytest.approx(base.sigma2_hat, rel=1e-10)

    def test_permutation_validated(self):
        d = random_dataset(np.random.default_rng(16), n=10)
        with pytest.raises(ValidationError):
            rb.permute_rows(d, np.zeros(10, dtype=int))
        with pytest.raises(ValidationError):
            rb.permute_rows(d, np.arange(9))

    def test_roles_preserved(self):
        d = random_dataset(np.random.default_rng(17), n=10)
        out = rb.permute_rows(d, np.arange(9, -1, -1))
        assert out.order_columns == d.order_columns
        assert out.intercept_column == d.intercept_column
        assert np.array_equal(out.response, d.response[::-1])
