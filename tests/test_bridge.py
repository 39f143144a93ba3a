"""Bridge construction, exact integration, and the raw field blocks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

import regbridge as rb
from regbridge.errors import DegenerateModelError, ValidationError


# ======================================================================
# Oracles
# ======================================================================

def riemann_omega_sq(bridge, total_points=1_000_000):
    """Midpoint Riemann sum of the squared bridge, >= total_points samples.

    Points are laid out per segment so no subinterval straddles a kink;
    within a segment the integrand is a quadratic, for which the midpoint
    rule error is width * h^2 * f'' / 24.
    """
    n = bridge.n
    per = -(-total_points // n)
    offsets = (np.arange(per) + 0.5) / (per * n)
    ts = (np.arange(n)[:, None] / n + offsets[None, :]).ravel()
    vals = rb.evaluate(bridge, ts)
    return float(np.sum(vals ** 2)) / (n * per)


def interp_oracle(bridge, t):
    """Independent linear interpolation at scalar t."""
    n = bridge.n
    k = min(int(math.floor(t * n)), n - 1)
    w = t * n - k
    return (1.0 - w) * bridge.values[k] + w * bridge.values[k + 1]


def random_walk_bridge(rng, n, scale):
    steps = rng.standard_normal(n) * (scale / math.sqrt(n))
    z = np.concatenate(([0.0], np.cumsum(steps)))
    return rb.BridgeProcess(z)


# ======================================================================
# BridgeProcess and residual_bridge
# ======================================================================

class TestBridgeProcess:
    def test_node_values_and_pinning(self):
        b = rb.BridgeProcess(np.array([0.0, 1.0, 0.0]))
        assert b.n == 2
        assert np.allclose(b.nodes(), [0.0, 0.5, 1.0])
        assert rb.evaluate(b, 0.25) == pytest.approx(0.5)

    def test_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            rb.BridgeProcess(np.array([0.1, 0.0]))

    def test_residual_bridge_formula(self):
        d = rb.sample_h0(rb.fixtures.single_uniform_model(), 40, 2)
        fit = rb.fit_lse(d)
        view = rb.order_by(d, fit, 0)
        b = rb.residual_bridge(view, fit.sigma2_hat)
        manual = np.concatenate(([0.0], np.cumsum(fit.residuals[view.perm])))
        manual /= math.sqrt(40 * fit.sigma2_hat)
        assert np.allclose(b.values, manual, atol=1e-15)
        assert b.column == 0

    def test_endpoint_pinned_with_intercept(self):
        d = rb.sample_h0(rb.fixtures.two_uniform_model(), 80, 3)
        fit = rb.fit_lse(d)
        for view in rb.all_orderings(d, fit):
            b = rb.residual_bridge(view, fit.sigma2_hat)
            assert abs(b.values[-1]) < 1e-8

    def test_degenerate_variance_raises(self):
        d = rb.sample_h0(rb.fixtures.single_uniform_model(), 20, 4)
        fit = rb.fit_lse(d)
        view = rb.order_by(d, fit, 0)
        with pytest.raises(DegenerateModelError):
            rb.residual_bridge(view, 0.0)


class TestEvaluate:
    def test_matches_interp_oracle(self):
        rng = np.random.default_rng(42)
        b = random_walk_bridge(rng, 37, 2.0)
        for t in rng.random(1000):
            assert rb.evaluate(b, t) == pytest.approx(interp_oracle(b, t),
                                                      abs=1e-12)

    def test_endpoints(self):
        b = rb.BridgeProcess(np.array([0.0, 0.7, -0.2]))
        assert rb.evaluate(b, 0.0) == 0.0
        assert rb.evaluate(b, 1.0) == pytest.approx(-0.2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_domain_checked(self):
        b = rb.BridgeProcess(np.array([0.0, 1.0]))
        for bad in (1.5, np.nan, [0.5, np.nan]):
            with pytest.raises(ValidationError, match="evaluation points"):
                rb.evaluate(b, bad)


# ======================================================================
# omega_sq
# ======================================================================

class TestOmegaSq:
    def test_hand_value_tent(self):
        # (0, 1, 0): two segments, each integral 1/6, total 1/3
        b = rb.BridgeProcess(np.array([0.0, 1.0, 0.0]))
        assert rb.omega_sq([b]) == pytest.approx(1 / 3, abs=1e-15)

    def test_matches_riemann_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 500))
            b = random_walk_bridge(rng, n, float(rng.uniform(0.5, 3.0)))
            assert abs(rb.omega_sq([b]) - riemann_omega_sq(b)) < 1e-8

    def test_sums_over_bridges(self):
        rng = np.random.default_rng(8)
        b1 = random_walk_bridge(rng, 50, 1.0)
        b2 = random_walk_bridge(rng, 50, 2.0)
        assert rb.omega_sq([b1, b2]) == pytest.approx(
            rb.omega_sq([b1]) + rb.omega_sq([b2]), rel=1e-14)

    def test_scaling_quadratic(self):
        rng = np.random.default_rng(9)
        b = random_walk_bridge(rng, 30, 1.0)
        b3 = rb.BridgeProcess(3.0 * b.values)
        assert rb.omega_sq([b3]) == pytest.approx(9.0 * rb.omega_sq([b]),
                                                  rel=1e-13)

    def test_mismatched_n_rejected(self):
        b1 = rb.BridgeProcess(np.zeros(11))
        b2 = rb.BridgeProcess(np.zeros(12))
        with pytest.raises(ValidationError):
            rb.omega_sq([b1, b2])

    def test_zero_bridge(self):
        assert rb.omega_sq([rb.BridgeProcess(np.zeros(5))]) == 0.0


# ======================================================================
# floor_index
# ======================================================================

class TestFloorIndex:
    def test_fractional_products(self):
        # 0.3 * 10 in floats is 2.999...; the convention must still give 3
        assert rb.floor_index(10, 0.3) == 3
        assert rb.floor_index(7, np.array([0.0, 1.0])).tolist() == [0, 7]
        assert rb.floor_index(5, 0.39) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_domain(self):
        for bad in (1.2, np.nan, [0.5, np.nan]):
            with pytest.raises(ValidationError, match="grid levels"):
                rb.floor_index(5, bad)

    @given(n=st.integers(1, 10 ** 6),
           t=arrays(np.float64, st.integers(1, 50),
                    elements=st.one_of(st.sampled_from([0.0, 1.0]),
                                       st.floats(0.0, 1.0))))
    @example(n=100, t=np.array([0.0, 0.29, 0.57, 1.0]))
    def test_matches_clip_form(self, n, t):
        ref = np.clip(np.floor(n * t + 1e-9).astype(int), 0, n)
        out = rb.floor_index(n, t)
        assert out.dtype == ref.dtype and np.array_equal(out, ref)


# ======================================================================
# Raw field blocks
# ======================================================================

class TestEmpiricalField:
    def test_enumeration_oracle(self):
        X = np.array([[0.2, 0.9], [0.4, 0.3], [0.8, 0.1], [0.45, 0.45]])
        Y = np.array([1.0, 2.0, 4.0, 8.0])
        # u = (0.5, 0.5) dominates rows 1 and 3 exactly
        for u, raw in (((0.5, 0.5), 10.0), ((1.0, 1.0), 15.0),
                       ((0.0, 1.0), 0.0)):
            assert rb.empirical_field(X, Y, [u], 0.0)[0] == raw / math.sqrt(4)

    def test_normalized_values(self):
        X = np.array([[0.2, 0.9], [0.4, 0.3], [0.8, 0.1], [0.45, 0.45]])
        Y = np.array([1.0, 2.0, 4.0, 8.0])
        out = rb.empirical_field(X, Y, [[0.5, 0.5], [1.0, 1.0]], [2.0, 3.0])
        assert out[0] == pytest.approx((10.0 - 4 * 2.0) / 2.0)
        assert out[1] == pytest.approx((15.0 - 4 * 3.0) / 2.0)

    def test_full_corner_zero_mean(self):
        rng = np.random.default_rng(20)
        X = rng.random((100, 2))
        Y = rng.standard_normal(100)
        out = rb.empirical_field(X, Y, [[1.0, 1.0]], [0.0])
        assert out[0] == pytest.approx(Y.sum() / 10.0)

    def test_zero_coordinate_corner(self):
        rng = np.random.default_rng(21)
        X = rng.random((50, 2))
        Y = rng.standard_normal(50)
        out = rb.empirical_field(X, Y, [[0.0, 0.7]], [0.0])
        assert out[0] == 0.0


class TestConcomitantSumProcess:
    def test_full_level_is_total_sum(self):
        rng = np.random.default_rng(22)
        X = rng.random((40, 3))
        Y = rng.standard_normal(40)
        for k in range(3):
            v = rb.concomitant_sum_process(X, Y, k, [1.0])
            assert v[0] == pytest.approx(Y.sum() / math.sqrt(40))

    def test_matches_sorted_prefix_oracle(self):
        rng = np.random.default_rng(23)
        X = rng.random((25, 2))
        Y = rng.standard_normal(25)
        order = np.argsort(X[:, 1])
        for t in (0.0, 0.2, 0.48, 0.81, 1.0):
            k = int(math.floor(25 * t + 1e-9))
            expect = Y[order[:k]].sum() / math.sqrt(25)
            got = rb.concomitant_sum_process(X, Y, 1, [t])[0]
            assert got == pytest.approx(expect, abs=1e-12)

    def test_field_identity_at_order_statistics(self):
        # summing the first k concomitants equals the raw field evaluated
        # at the corner whose k-th coordinate is the k-th order statistic
        rng = np.random.default_rng(24)
        X = rng.random((30, 2))
        Y = rng.standard_normal(30)
        srt = np.sort(X[:, 0])
        for t in (0.1, 0.5, 0.9):
            k = int(math.floor(30 * t + 1e-9))
            corner = np.array([srt[k - 1], 1.0])
            assert rb.concomitant_sum_process(X, Y, 0, [t])[0] == pytest.approx(
                rb.empirical_field(X, Y, [corner], 0.0)[0], abs=1e-12)
