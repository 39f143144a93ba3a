"""Dataset invariants, CSV round trips, and the synthetic samplers."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp

import regbridge as rb
from regbridge.errors import ParseError, SchemaError, ValidationError


def small_dataset():
    reg = np.array([[0.3, 1.0], [0.1, 1.0], [0.7, 1.0]])
    return rb.Dataset(reg, np.array([1.0, 2.0, 3.0]),
                      order_columns=(0,), intercept_column=1,
                      regressor_names=("x", "const"))


# ======================================================================
# Dataset invariants
# ======================================================================

class TestDataset:
    def test_roles_and_shapes(self):
        d = small_dataset()
        assert d.n == 3 and d.p == 2
        assert d.order_columns == (0,)
        assert d.intercept_column == 1
        assert d.regressor_names == ("x", "const")

    def test_arrays_read_only(self):
        d = small_dataset()
        with pytest.raises(ValueError):
            d.regressors[0, 0] = 9.0
        with pytest.raises(ValueError):
            d.response[0] = 9.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="n >= 1"):
            rb.Dataset(np.empty((0, 2)), np.empty(0), order_columns=(0,))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            rb.Dataset(np.array([[np.nan], [1.0]]), np.array([1.0, 2.0]), (0,))
        with pytest.raises(ValidationError):
            rb.Dataset(np.array([[0.0], [1.0]]), np.array([1.0, np.inf]), (0,))

    def test_response_length_mismatch(self):
        with pytest.raises(ValidationError):
            rb.Dataset(np.ones((3, 1)), np.ones(2), (0,))

    def test_intercept_must_be_ones(self):
        reg = np.array([[0.3, 1.0], [0.1, 2.0]])
        with pytest.raises(ValidationError, match="identically 1"):
            rb.Dataset(reg, np.zeros(2), (0,), intercept_column=1)

    def test_intercept_cannot_be_ordering(self):
        reg = np.ones((3, 1))
        with pytest.raises(ValidationError):
            rb.Dataset(reg, np.zeros(3), (0,), intercept_column=0)

    def test_order_columns_validated(self):
        with pytest.raises(ValidationError):
            rb.Dataset(np.ones((3, 1)), np.zeros(3), (2,))
        with pytest.raises(ValidationError, match="distinct"):
            rb.Dataset(np.random.default_rng(0).random((3, 2)), np.zeros(3), (0, 0))


# ======================================================================
# CSV
# ======================================================================

class TestCSV:
    def test_round_trip_bit_exact(self, tmp_path):
        model = rb.fixtures.MODELS["two-uniform"]
        data = rb.sample_h0(model, 37, 11)
        path = tmp_path / "d.csv"
        rb.write_csv(data, path)
        back = rb.load_csv(path, rb.ColumnSchema(order=("x1", "x2"),
                                                 response="y",
                                                 intercept="const"))
        assert np.array_equal(back.regressors, data.regressors)
        assert np.array_equal(back.response, data.response)
        assert back.order_columns == data.order_columns
        assert back.intercept_column == data.intercept_column

    def test_small_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,const,y\n0.1,1,2.0\n0.5,1,3.0\n0.3,1,2.5\n")
        d = rb.load_csv(path, rb.ColumnSchema(order=("x",), response="y",
                                              intercept="const"))
        assert d.n == 3 and d.p == 2
        assert d.regressor_names == ("x", "const")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,2\n")
        with pytest.raises(SchemaError, match="missing"):
            rb.load_csv(path, rb.ColumnSchema(order=("x",), response="y"))

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,x,y\n1,2,3\n")
        with pytest.raises(SchemaError, match="duplicated"):
            rb.load_csv(path, rb.ColumnSchema(order=("x",), response="y"))

    def test_bad_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\nabc,3\n")
        with pytest.raises(ParseError, match="row 3.*'x'"):
            rb.load_csv(path, rb.ColumnSchema(order=("x",), response="y"))

    def test_non_finite_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\nnan,2\n")
        with pytest.raises(ParseError, match="non-finite"):
            rb.load_csv(path, rb.ColumnSchema(order=("x",), response="y"))

    def test_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n")
        with pytest.raises(ValidationError, match="n >= 1"):
            rb.load_csv(path, rb.ColumnSchema(order=("x",), response="y"))

    def test_schema_role_clash(self):
        with pytest.raises(ValidationError):
            rb.ColumnSchema(order=("x",), response="x")


# ======================================================================
# Margins and copulas
# ======================================================================

def quad_integral(f, upper: float) -> float:
    # Default tolerances: the integrands are polynomials of degree <= 2,
    # which Gauss-Kronrod integrates exactly, and tighter ones only risk
    # an IntegrationWarning.
    return quad(f, 0.0, upper)[0]


class TestQuantiles:
    def test_identity_moments(self):
        q = rb.AffineQuantile()
        u = np.array([0.0, 0.25, 0.7, 1.0])
        assert np.array_equal(q(u), u)
        assert q.mean() == 0.5
        assert q.second_moment() == 1 / 3
        assert q.partial_integral(0.4) == pytest.approx(0.08)

    @given(shift=st.floats(-5.0, 5.0), scale=st.floats(0.0, 5.0),
           x=st.floats(0.0, 1.0))
    def test_affine_moments_match_quadrature(self, shift, scale, x):
        q = rb.AffineQuantile(shift=shift, scale=scale)

        def line(u):
            return shift + scale * u

        assert q.mean() == pytest.approx(quad_integral(line, 1.0), abs=1e-9)
        assert q.second_moment() == pytest.approx(
            quad_integral(lambda u: line(u) ** 2, 1.0), abs=1e-9)
        assert q.partial_integral(x) == pytest.approx(
            quad_integral(line, x), abs=1e-9)
        assert np.array_equal(q.partial_integral(np.array([x, x])),
                              np.full(2, q.partial_integral(x)))

    def test_monotone_check(self):
        for shift, scale in ((0.0, -1.0), (0.0, float("nan")),
                             (float("inf"), 1.0)):
            with pytest.raises(ValidationError, match="affine quantile"):
                rb.AffineQuantile(shift=shift, scale=scale)

    def test_model_refuses_other_margins(self):
        with pytest.raises(ValidationError, match="AffineQuantile"):
            rb.SyntheticModel(copula=rb.IndependenceCopula(1),
                              margin=np.sqrt, theta=(1.0, 0.0))


class TestCopulas:
    def test_independence_margins_uniform(self):
        cop = rb.IndependenceCopula(2)
        u = cop.sample(20000, rb.philox_stream(3))
        assert u.shape == (20000, 2)
        assert abs(u.mean() - 0.5) < 0.01
        corr = np.corrcoef(u.T)[0, 1]
        assert abs(corr) < 0.03

    def test_gaussian_copula_margins_and_dependence(self):
        cop = rb.GaussianCopula(2, 0.6)
        u = cop.sample(20000, rb.philox_stream(4))
        # uniform margins regardless of dependence
        for j in range(2):
            assert abs(u[:, j].mean() - 0.5) < 0.01
            assert abs(np.mean(u[:, j] ** 2) - 1 / 3) < 0.01
        assert np.corrcoef(u.T)[0, 1] > 0.4

    def test_gaussian_copula_validation(self):
        for dim, rho in ((2, 1.0), (3, -0.5), (2, float("nan"))):
            with pytest.raises(ValidationError, match="not valid"):
                rb.GaussianCopula(dim, rho)
        with pytest.raises(ValidationError, match="dimension"):
            rb.GaussianCopula(0, 0.0)
        # The first double above the bound -1/5 passes the range check, but
        # the Cholesky factor of its matrix fails from rounding.
        with pytest.raises(ValidationError, match="positive definite"):
            rb.GaussianCopula(6, -0.19999999999999998)


# ======================================================================
# Samplers
# ======================================================================

class TestSampleH0:
    def test_zero_noise_exact_linear(self):
        model = rb.SyntheticModel(copula=rb.IndependenceCopula(1),
                                  margin=rb.AffineQuantile(),
                                  theta=(2.0, 1.0),
                                  noise=rb.NoiseSpec("normal", 0.0))
        d = rb.sample_h0(model, 100, 5)
        assert np.allclose(d.response, 2.0 * d.regressors[:, 0] + 1.0)

    def test_roles(self):
        d = rb.sample_h0(rb.fixtures.MODELS["two-uniform"], 50, 1)
        assert d.order_columns == (0, 1)
        assert d.intercept_column == 2
        assert np.all(d.regressors[:, 2] == 1.0)

    def test_deterministic_in_seed(self):
        m = rb.fixtures.MODELS["single-uniform"]
        a = rb.sample_h0(m, 64, 9)
        b = rb.sample_h0(m, 64, 9)
        c = rb.sample_h0(m, 64, 10)
        assert np.array_equal(a.response, b.response)
        assert not np.array_equal(a.response, c.response)

    def test_independence_sample_correlation_small(self):
        d = rb.sample_h0(rb.fixtures.MODELS["two-uniform"], 100000, 21)
        corr = np.corrcoef(d.regressors[:, 0], d.regressors[:, 1])[0, 1]
        assert abs(corr) < 0.01

    def test_uniform_noise_variance(self):
        model = rb.SyntheticModel(copula=rb.IndependenceCopula(1),
                                  theta=(0.0, 0.0),
                                  noise=rb.NoiseSpec("uniform", 2.5))
        d = rb.sample_h0(model, 100000, 2)
        assert abs(np.var(d.response) - 2.5) < 0.05
        assert abs(d.response.mean()) < 0.02

    def test_theta_length_validated(self):
        with pytest.raises(ValidationError, match="theta"):
            rb.SyntheticModel(copula=rb.IndependenceCopula(2), theta=(1.0, 2.0))

    def test_tied_ordering_column_is_refused(self):
        # A zero-scale margin maps every uniform to 0.5, so every column
        # ties; the first one is named.
        model = rb.SyntheticModel(
            copula=rb.IndependenceCopula(2),
            margin=rb.AffineQuantile(shift=0.5, scale=0.0),
            theta=(1.0, 1.0, 0.0))
        with pytest.raises(ValidationError, match="ordering column 0 has ties"):
            rb.sample_h0(model, 50, 3)


class TestSampleAlternative:
    def test_quadratic_changes_response_only(self):
        m = rb.fixtures.MODELS["single-uniform"]
        h0 = rb.sample_h0(m, 200, 3)
        alt = rb.sample_alternative(m, rb.AddQuadratic(1.5, 0), 200, 3)
        assert np.array_equal(alt.regressors, h0.regressors)
        assert np.allclose(alt.response - h0.response,
                           1.5 * h0.regressors[:, 0] ** 2)

    def test_constant_scale_equals_h0_in_distribution(self):
        m = rb.fixtures.MODELS["single-uniform"]
        breach = rb.Heteroscedastic(0.0)
        a = rb.sample_alternative(m, breach, 10000, 100)
        b = rb.sample_h0(m, 10000, 200)
        stat = ks_2samp(a.response, b.response)
        assert stat.pvalue > 0.01

    def test_constant_scale_same_seed_bit_equal(self):
        m = rb.fixtures.MODELS["single-uniform"]
        breach = rb.Heteroscedastic(0.0)
        a = rb.sample_alternative(m, breach, 500, 77)
        b = rb.sample_h0(m, 500, 77)
        assert np.array_equal(a.response, b.response)

    def test_quadratic_breach_column_must_be_ordering_column(self):
        # Column d1 is the intercept: squaring it adds a constant that the
        # fit absorbs, so the draw would be a null labelled as a breach.
        m = rb.fixtures.MODELS["single-uniform"]
        for column in (m.d1, -1):
            with pytest.raises(ValidationError, match="breach column"):
                rb.sample_alternative(m, rb.AddQuadratic(1.0, column), 10, 0)

    def test_heteroscedastic_breach_column_must_be_ordering_column(self):
        m = rb.fixtures.MODELS["single-uniform"]
        for column in (m.d1, -1):
            with pytest.raises(ValidationError, match="breach column"):
                rb.sample_alternative(m, rb.Heteroscedastic(1.0, column), 10, 0)

    @pytest.mark.parametrize("coef", [3.0, -0.5])
    @pytest.mark.parametrize("column", [0, 1])
    def test_heteroscedastic_scales_the_null_noise(self, coef, column):
        m = rb.fixtures.MODELS["two-uniform"]
        h0 = rb.sample_h0(m, 300, 12)
        alt = rb.sample_alternative(m, rb.Heteroscedastic(coef, column), 300, 12)
        mean = h0.regressors @ np.asarray(m.theta)
        scale = np.sqrt(1.0 + coef * h0.regressors[:, column] ** 2)
        expected = mean + scale * (h0.response - mean)
        assert np.array_equal(alt.regressors, h0.regressors)
        assert (np.max(np.abs(alt.response - expected))
                <= 1e-12 * np.max(np.abs(expected)))
        assert not np.allclose(alt.response, h0.response)

    def test_breach_records_pickle(self):
        # A process pool sends them to its workers.
        for breach in (rb.AddQuadratic(1.5, 1), rb.Heteroscedastic(-0.5, 1)):
            assert pickle.loads(pickle.dumps(breach)) == breach

    def test_unknown_breach(self):
        m = rb.fixtures.MODELS["single-uniform"]
        with pytest.raises(ValidationError, match="breach"):
            rb.sample_alternative(m, object(), 10, 0)

    def test_negative_scale_rejected(self):
        m = rb.fixtures.MODELS["single-uniform"]
        breach = rb.Heteroscedastic(-100.0)
        with pytest.raises(ValidationError, match="positive"):
            rb.sample_alternative(m, breach, 10, 0)


class TestSampleConcomitant:
    def test_shapes_and_moments(self):
        model = rb.fixtures.MODELS["zero-mean-field"]
        X, Y = rb.sample_concomitant(model, 100000, 31)
        assert X.shape == (100000, 2) and Y.shape == (100000,)
        assert 0.98 < np.var(Y) < 1.02
        assert abs(Y.mean()) < 0.02

    def test_mean_map_applied(self):
        model = rb.fixtures.MODELS["field"]
        X, Y = rb.sample_concomitant(model, 200000, 8)
        # regressing Y on (x1 - 1/2) recovers slope 1
        g = X[:, 0] - 0.5
        slope = float(g @ Y) / float(g @ g)
        assert abs(slope - 1.0) < 0.03

    def test_requires_conditional_maps(self):
        with pytest.raises(ValidationError, match="field_slope"):
            rb.sample_concomitant(rb.fixtures.MODELS["single-uniform"],
                                  10, 0)

    @pytest.mark.parametrize("seed", [0, 8, 31])
    @pytest.mark.parametrize("name", ["field", "zero-mean-field"])
    def test_matches_the_conditional_moment_draw(self, name, seed):
        # The draw written with a conditional mean map m and a unit
        # conditional variance: m(U) + sqrt(1) * unit noise, bit for bit.
        model = rb.fixtures.get_model(name)
        n = 300
        rng = rb.philox_stream(*rb.as_seed_key(seed))
        U = model.copula.sample(n, rng)
        m = U[:, 0] - 0.5 if name == "field" else np.zeros(n)
        Y = m + np.sqrt(1.0) * model.noise.sample_unit(rng, n)
        got_U, got_Y = rb.sample_concomitant(model, n, seed)
        assert got_U.tobytes() == U.tobytes()
        assert got_Y.tobytes() == Y.tobytes()

    @pytest.mark.parametrize("slope", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_field_slope_is_refused(self, slope):
        with pytest.raises(ValidationError, match="field_slope must be finite"):
            rb.SyntheticModel(copula=rb.IndependenceCopula(2), field_slope=slope)


class TestNoiseSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            rb.NoiseSpec("cauchy", 1.0)
        with pytest.raises(ValidationError):
            rb.NoiseSpec("normal", -1.0)

    @pytest.mark.parametrize("variance", [float("nan"), float("inf")])
    def test_non_finite_variance_is_refused(self, variance):
        with pytest.raises(ValidationError, match="finite"):
            rb.NoiseSpec(variance=variance)

    def test_unit_variance_draws(self):
        for kind in ("normal", "uniform"):
            draws = rb.NoiseSpec(kind, 1.0).sample(rb.philox_stream(6), 200000)
            assert abs(np.var(draws) - 1.0) < 0.02, kind
