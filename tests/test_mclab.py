"""Monte Carlo lab: covariance experiments and the size/power study."""

import concurrent.futures
import csv
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import nquad

import regbridge as rb
from regbridge import mclab
from regbridge.errors import UnsupportedModelError, ValidationError
from regbridge.mclab import ErrorCell, VerificationReport

# Closed-form covariance values of the orthant field for the fixture with
# m(u) = u1 - 1/2 and unit conditional variance, derived by hand:
#   K(u, v) = vol(min box) + int_minbox (x1 - 1/2)^2 - M(u) M(v),
#   M(u) = int_box (x1 - 1/2),  so  M((.5, .5)) = -1/16,  M((1, 1)) = 0.
FIELD_TARGET_HALF_HALF = 0.25 + 1.0 / 48.0 - (1.0 / 16.0) ** 2
FIELD_TARGET_HALF_FULL = 0.25 + 1.0 / 48.0
FIELD_TARGET_FULL_FULL = 1.0 + 1.0 / 12.0


def cell_lookup(report):
    return {(c.row, c.col): c for c in report.cells}


# ======================================================================
# Orthant field experiment
# ======================================================================

class TestFieldExperiment:
    def test_targets_and_small_run(self):
        model = rb.fixtures.field_model()
        report = rb.verify_field_covariance(
            model, n=200, replicates=300,
            queries=[[0.5, 0.5], [1.0, 1.0]], seed=101, tolerance=0.12)
        cells = cell_lookup(report)
        half, full = "u=(0.5;0.5)", "u=(1;1)"
        assert cells[(half, half)].target == pytest.approx(
            FIELD_TARGET_HALF_HALF, abs=1e-9)
        assert cells[(half, full)].target == pytest.approx(
            FIELD_TARGET_HALF_FULL, abs=1e-9)
        assert cells[(full, full)].target == pytest.approx(
            FIELD_TARGET_FULL_FULL, abs=1e-9)
        assert report.passed
        assert report.experiment == "field"

    def test_zero_coordinate_query_is_exact(self):
        # An orthant with a zero edge is empty: the field value and the
        # covariance target both vanish identically.
        model = rb.fixtures.field_model()
        report = rb.verify_field_covariance(
            model, n=50, replicates=300, queries=[[0.0, 0.7]], seed=105)
        (cell,) = report.cells
        assert cell.empirical == 0.0 and cell.target == 0.0
        assert report.max_abs_error == 0.0

    def test_pure_mean_contribution(self):
        # With zero conditional variance the full-cube covariance is the
        # variance of the conditional mean alone: int m^2 - (int m)^2.
        model = rb.SyntheticModel(
            copula=rb.IndependenceCopula(2),
            noise=rb.NoiseSpec("normal", 0.0), field_slope=1.0)
        report = rb.verify_field_covariance(model, n=400, replicates=1500,
                                            queries=[[1.0, 1.0]], seed=109,
                                            tolerance=0.02)
        (cell,) = report.cells
        assert cell.target == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert report.passed

    def test_error_shrinks_under_refinement(self):
        model = rb.fixtures.field_model()
        queries = [[0.5, 0.5], [1.0, 1.0]]
        coarse = rb.verify_field_covariance(model, n=50, replicates=200,
                                            queries=queries, seed=102)
        fine = rb.verify_field_covariance(model, n=500, replicates=2000,
                                          queries=queries, seed=102)
        assert fine.max_abs_error < coarse.max_abs_error

    def test_requires_conditional_law(self):
        with pytest.raises(ValidationError):
            rb.verify_field_covariance(rb.fixtures.single_uniform_model(),
                                       n=50, replicates=100,
                                       queries=[[0.5]], seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_bad_queries(self):
        model = rb.fixtures.field_model()
        with pytest.raises(ValidationError):
            rb.verify_field_covariance(model, n=50, replicates=100,
                                       queries=[[0.5]], seed=0)
        for bad in (1.5, np.nan):
            with pytest.raises(ValidationError, match="unit cube"):
                rb.verify_field_covariance(model, n=50, replicates=100,
                                           queries=[[0.5, bad]], seed=0)

    def test_rejects_dependent_copula(self):
        model = rb.SyntheticModel(
            copula=rb.GaussianCopula(2, 0.4),
            noise=rb.NoiseSpec("normal", 1.0), field_slope=0.0)
        with pytest.raises(UnsupportedModelError):
            rb.verify_field_covariance(model, n=50, replicates=100,
                                       queries=[[0.5, 0.5]], seed=0)


# ======================================================================
# Closed-form box moments and replicate counts
# ======================================================================

class TestBoxMoments:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(slope=st.floats(-3.0, 3.0), variance=st.floats(0.0, 4.0),
           corner=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    def test_matches_quadrature(self, d, slope, variance, corner):
        # m(u) = slope * (u1 - 1/2) and sigma^2 + m^2, integrated over the
        # box [0, corner] by scipy's nested adaptive quadrature.
        model = rb.SyntheticModel(copula=rb.IndependenceCopula(d),
                                  noise=rb.NoiseSpec("normal", variance),
                                  field_slope=slope)
        upper = np.array(corner[:d])
        ranges = [(0.0, float(u)) for u in upper]

        def mean(*x):
            return slope * (x[0] - 0.5)

        want_mean = nquad(mean, ranges)[0]
        want_second = nquad(lambda *x: variance + mean(*x) ** 2, ranges)[0]
        got_mean, got_second = mclab._box_moments(model, upper)
        assert got_mean == pytest.approx(want_mean, abs=1e-9)
        assert got_second == pytest.approx(want_second, abs=1e-9)


@pytest.mark.parametrize("replicates", [0, -3])
@pytest.mark.parametrize("verify, model, points", [
    (rb.verify_field_covariance, rb.fixtures.field_model(), [[0.5, 0.5]]),
    (rb.verify_sum_covariance, rb.fixtures.zero_mean_field_model(), [0.5]),
    (rb.verify_bridge_covariance, rb.fixtures.single_uniform_model(), [0.5]),
], ids=["field", "sums", "bridges"])
def test_replicates_below_one_are_refused_before_sampling(
        verify, model, points, replicates, monkeypatch):
    def must_not_sample(*args):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr(mclab, "sample_concomitant", must_not_sample)
    monkeypatch.setattr(mclab, "sample_h0", must_not_sample)
    with pytest.raises(ValidationError, match="need at least one replicate"):
        verify(model, 50, replicates, points, seed=0)


# ======================================================================
# Coordinate sum experiment
# ======================================================================

class TestSumsExperiment:
    def test_targets_and_small_run(self):
        # Unit conditional variance makes the targets box volumes:
        # min(t1, t2) on the same coordinate, t1 * t2 across coordinates.
        report = rb.verify_sum_covariance(
            rb.fixtures.zero_mean_field_model(), n=200, replicates=400,
            levels=[0.5, 1.0], seed=103, tolerance=0.15)
        cells = cell_lookup(report)
        assert cells[("S1(0.5)", "S1(1)")].target == pytest.approx(0.5)
        assert cells[("S1(0.5)", "S2(0.5)")].target == pytest.approx(0.25)
        assert cells[("S1(1)", "S2(1)")].target == pytest.approx(1.0)
        assert report.passed
        assert report.experiment == "sums"

    def test_full_level_sums_coincide(self):
        # S1(1) and S2(1) are the same total, so their empirical moments
        # agree exactly across the two coordinates.
        report = rb.verify_sum_covariance(
            rb.fixtures.zero_mean_field_model(), n=100, replicates=150,
            levels=[0.5, 1.0], seed=106)
        cells = cell_lookup(report)
        assert cells[("S1(1)", "S1(1)")].empirical == pytest.approx(
            cells[("S2(1)", "S2(1)")].empirical, rel=1e-12)
        assert cells[("S1(0.5)", "S1(1)")].empirical == pytest.approx(
            cells[("S1(0.5)", "S2(1)")].empirical, rel=1e-12)

    def test_requires_zero_conditional_mean(self):
        with pytest.raises(ValidationError, match="field_slope 0"):
            rb.verify_sum_covariance(rb.fixtures.field_model(), n=50,
                                     replicates=100, levels=[0.5], seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_bad_levels(self):
        for bad in (1.2, np.nan):
            with pytest.raises(ValidationError, match=r"levels must lie"):
                rb.verify_sum_covariance(rb.fixtures.zero_mean_field_model(),
                                         n=50, replicates=100, levels=[bad],
                                         seed=0)


# ======================================================================
# Residual bridge experiment
# ======================================================================

class TestBridgesExperiment:
    def test_variance_at_midpoint(self):
        report = rb.verify_bridge_covariance(
            rb.fixtures.single_uniform_model(), n=100, replicates=300,
            levels=[0.5], seed=104, tolerance=0.02)
        (cell,) = report.cells
        assert cell.target == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert report.passed
        assert report.experiment == "bridges"

    def test_two_regressor_grid(self):
        report = rb.verify_bridge_covariance(
            rb.fixtures.two_uniform_model(), n=100, replicates=400,
            levels=[0.25, 0.75], seed=107, tolerance=0.05)
        assert len(report.cells) == 4 * 5 // 2
        assert report.passed

    def test_requires_regression_model(self):
        with pytest.raises(ValidationError):
            rb.verify_bridge_covariance(rb.fixtures.field_model(), n=50,
                                        replicates=100, levels=[0.5], seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_bad_levels(self):
        for bad in (-0.1, 1.2, np.nan):
            with pytest.raises(ValidationError, match=r"levels must lie"):
                rb.verify_bridge_covariance(rb.fixtures.single_uniform_model(),
                                            n=50, replicates=100,
                                            levels=[0.5, bad], seed=0)


# ======================================================================
# Report containers
# ======================================================================

class TestVerificationReport:
    def make_report(self):
        cells = (ErrorCell("a", "a", 1.02, 1.0),
                 ErrorCell("a", "b", 0.4, 0.47))
        return VerificationReport(experiment="field", params={"n": 10},
                                  cells=cells, tolerance=0.1)

    def test_error_summary(self):
        report = self.make_report()
        assert report.max_abs_error == pytest.approx(0.07)
        assert report.passed
        tight = VerificationReport(experiment="field", params={},
                                   cells=report.cells, tolerance=0.05)
        assert not tight.passed

    def test_repeat_runs_are_identical(self):
        kwargs = dict(n=60, replicates=120, queries=[[0.5, 0.5]], seed=108)
        a = rb.verify_field_covariance(rb.fixtures.field_model(), **kwargs)
        b = rb.verify_field_covariance(rb.fixtures.field_model(), **kwargs)
        assert a.to_json_dict() == b.to_json_dict()

    def test_cells_csv(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "cells.csv"
        report.write_cells_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["empirical"]) == pytest.approx(1.02)
        assert float(rows[1]["abs_error"]) == pytest.approx(0.07)


# ======================================================================
# Size and power study
# ======================================================================

class TestSizePowerStudy:
    def test_level_one_always_rejects(self):
        res = rb.size_power_study(rb.fixtures.single_uniform_model(), None,
                                  n_values=(30,), level=1.0, replicates=3,
                                  seed=7, inner_replicates=100, grid_m=10)
        assert res.mode == "size"
        assert res.rates == (1.0,)

    def test_common_randomness_across_sample_sizes(self):
        # Repeating a sample size reuses the same replicate keys, so the
        # counts agree exactly.
        res = rb.size_power_study(rb.fixtures.single_uniform_model(), None,
                                  n_values=(50, 50), level=0.5, replicates=6,
                                  seed=8, inner_replicates=100, grid_m=10)
        assert res.rejections[0] == res.rejections[1]
        assert 0 < res.rejections[0] < 6

    def test_deterministic_and_pool_invariant(self):
        kwargs = dict(n_values=(40,), level=0.05, replicates=4, seed=9,
                      inner_replicates=100, grid_m=10)
        model = rb.fixtures.single_uniform_model()
        serial = rb.size_power_study(model, None, **kwargs)
        again = rb.size_power_study(model, None, **kwargs)
        pooled = rb.size_power_study(model, None, n_jobs=2, **kwargs)
        assert serial.to_json_dict() == again.to_json_dict()
        assert serial.to_json_dict() == pooled.to_json_dict()
        json.dumps(serial.to_json_dict())

    def test_pooled_power_matches_in_process(self):
        # Two sample sizes share one pool; counts come back per n.
        kwargs = dict(n_values=(30, 60), level=0.2, replicates=4, seed=11,
                      inner_replicates=100, grid_m=10)
        model, breach = rb.fixtures.single_uniform_model(), rb.AddQuadratic(4.0)
        serial = rb.size_power_study(model, breach, **kwargs)
        pooled = rb.size_power_study(model, breach, n_jobs=2, **kwargs)
        assert serial.to_json_dict() == pooled.to_json_dict()

    def test_pool_restores_environment(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        before = dict(os.environ)
        rb.size_power_study(rb.fixtures.single_uniform_model(), None,
                            n_values=(30,), level=0.05, replicates=2, seed=12,
                            inner_replicates=100, grid_m=10, n_jobs=2)
        assert dict(os.environ) == before

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
        assert mclab._pinned_pool_map(os.getenv, names, 2) == ["1", "1", "1"]

    def test_study_starts_one_executor(self, monkeypatch):
        started = []

        class InlineExecutor:
            """Runs the map in process and records the BLAS pin it saw."""

            def __init__(self, max_workers, mp_context):
                started.append(os.environ["OPENBLAS_NUM_THREADS"])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlineExecutor)
        res = rb.size_power_study(rb.fixtures.single_uniform_model(),
                                  rb.AddQuadratic(4.0), n_values=(30, 60),
                                  level=0.2, replicates=3, seed=13,
                                  inner_replicates=100, grid_m=10, n_jobs=2)
        assert started == ["1"]
        assert len(res.rejections) == 2

    def test_breach_switches_mode(self):
        res = rb.size_power_study(rb.fixtures.single_uniform_model(),
                                  rb.AddQuadratic(4.0),
                                  n_values=(60,), level=0.2, replicates=5,
                                  seed=10, inner_replicates=100, grid_m=10)
        assert res.mode == "power"
        assert res.rates[0] > 0.0

    def test_parameter_validation(self):
        model = rb.fixtures.single_uniform_model()
        with pytest.raises(ValidationError):
            rb.size_power_study(model, None, n_values=(30,), level=0.0,
                                replicates=3, seed=0, inner_replicates=100)
        with pytest.raises(ValidationError):
            rb.size_power_study(model, None, n_values=(30,), level=0.05,
                                replicates=0, seed=0, inner_replicates=100)
