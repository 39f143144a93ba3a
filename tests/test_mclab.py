"""Monte Carlo lab: covariance experiments and the size/power study."""

import concurrent.futures
import csv
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
        model = rb.fixtures.MODELS["field"]
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
        model = rb.fixtures.MODELS["field"]
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
        model = rb.fixtures.MODELS["field"]
        queries = [[0.5, 0.5], [1.0, 1.0]]
        coarse = rb.verify_field_covariance(model, n=50, replicates=200,
                                            queries=queries, seed=102)
        fine = rb.verify_field_covariance(model, n=500, replicates=2000,
                                          queries=queries, seed=102)
        assert fine.max_abs_error < coarse.max_abs_error

    def test_requires_conditional_law(self):
        with pytest.raises(ValidationError):
            rb.verify_field_covariance(rb.fixtures.MODELS["single-uniform"],
                                       n=50, replicates=100,
                                       queries=[[0.5]], seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_bad_queries(self):
        model = rb.fixtures.MODELS["field"]
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
    @example(slope=1.5, variance=2.0,
             corner=[2.2250738585072014e-308, 1.0, 0.5])
    def test_matches_quadrature(self, d, slope, variance, corner):
        # m(u) = slope * (u1 - 1/2) and sigma^2 + m^2, integrated over the
        # box [0, corner] by scipy's nested adaptive quadrature.  The box
        # is mapped onto the unit cube, so that no quadrature edge is near
        # the smallest normal double, where nquad reports an unreliable
        # integral.
        model = rb.SyntheticModel(copula=rb.IndependenceCopula(d),
                                  noise=rb.NoiseSpec("normal", variance),
                                  field_slope=slope)
        upper = np.array(corner[:d])
        volume = float(np.prod(upper))
        unit = [(0.0, 1.0)] * d

        def mean(*t):
            return slope * (upper[0] * t[0] - 0.5)

        want_mean = volume * nquad(mean, unit)[0]
        want_second = volume * nquad(lambda *t: variance + mean(*t) ** 2,
                                     unit)[0]
        got_mean, got_second = mclab._box_moments(model, upper)
        assert got_mean == pytest.approx(want_mean, abs=1e-9)
        assert got_second == pytest.approx(want_second, abs=1e-9)


@pytest.mark.parametrize("replicates", [0, -3])
@pytest.mark.parametrize("verify, model, points", [
    (rb.verify_field_covariance, rb.fixtures.MODELS["field"], [[0.5, 0.5]]),
    (rb.verify_sum_covariance, rb.fixtures.MODELS["zero-mean-field"], [0.5]),
    (rb.verify_bridge_covariance, rb.fixtures.MODELS["single-uniform"],
     [0.5]),
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
            rb.fixtures.MODELS["zero-mean-field"], n=200, replicates=400,
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
            rb.fixtures.MODELS["zero-mean-field"], n=100, replicates=150,
            levels=[0.5, 1.0], seed=106)
        cells = cell_lookup(report)
        assert cells[("S1(1)", "S1(1)")].empirical == pytest.approx(
            cells[("S2(1)", "S2(1)")].empirical, rel=1e-12)
        assert cells[("S1(0.5)", "S1(1)")].empirical == pytest.approx(
            cells[("S1(0.5)", "S2(1)")].empirical, rel=1e-12)

    def test_requires_zero_conditional_mean(self):
        with pytest.raises(ValidationError, match="field_slope 0"):
            rb.verify_sum_covariance(rb.fixtures.MODELS["field"], n=50,
                                     replicates=100, levels=[0.5], seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_bad_levels(self):
        model = rb.fixtures.MODELS["zero-mean-field"]
        for bad in (1.2, np.nan):
            with pytest.raises(ValidationError, match=r"levels must lie"):
                rb.verify_sum_covariance(model, n=50, replicates=100,
                                         levels=[bad], seed=0)


# ======================================================================
# Residual bridge experiment
# ======================================================================

class TestBridgesExperiment:
    def test_variance_at_midpoint(self):
        report = rb.verify_bridge_covariance(
            rb.fixtures.MODELS["single-uniform"], n=100, replicates=300,
            levels=[0.5], seed=104, tolerance=0.02)
        (cell,) = report.cells
        assert cell.target == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert report.passed
        assert report.experiment == "bridges"

    def test_two_regressor_grid(self):
        report = rb.verify_bridge_covariance(
            rb.fixtures.MODELS["two-uniform"], n=100, replicates=400,
            levels=[0.25, 0.75], seed=107, tolerance=0.05)
        assert len(report.cells) == 4 * 5 // 2
        assert report.passed

    def test_requires_regression_model(self):
        with pytest.raises(ValidationError):
            rb.verify_bridge_covariance(rb.fixtures.MODELS["field"], n=50,
                                        replicates=100, levels=[0.5], seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_bad_levels(self):
        model = rb.fixtures.MODELS["single-uniform"]
        for bad in (-0.1, 1.2, np.nan):
            with pytest.raises(ValidationError, match=r"levels must lie"):
                rb.verify_bridge_covariance(model, n=50, replicates=100,
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
        a = rb.verify_field_covariance(rb.fixtures.MODELS["field"], **kwargs)
        b = rb.verify_field_covariance(rb.fixtures.MODELS["field"], **kwargs)
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

@pytest.fixture
def inline_pool(monkeypatch):
    """Run pool maps in process; record each pool's max_workers and BLAS pin."""
    started = []

    class InlineExecutor:
        def __init__(self, max_workers, mp_context):
            started.append((max_workers, os.environ["OPENBLAS_NUM_THREADS"]))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InlineExecutor)
    return started


class TestSizePowerStudy:
    def test_level_one_always_rejects(self):
        res = rb.size_power_study(rb.fixtures.MODELS["single-uniform"], None,
                                  n_values=(30,), level=1.0, replicates=3,
                                  seed=7, inner_replicates=100, grid_m=10)
        assert res.mode == "size"
        assert res.rates == (1.0,)

    def test_common_randomness_across_sample_sizes(self):
        # Repeating a sample size reuses the same replicate keys, so the
        # counts agree exactly.
        res = rb.size_power_study(rb.fixtures.MODELS["single-uniform"], None,
                                  n_values=(50, 50), level=0.5, replicates=6,
                                  seed=8, inner_replicates=100, grid_m=10)
        assert res.rejections[0] == res.rejections[1]
        assert 0 < res.rejections[0] < 6

    def test_deterministic_and_pool_invariant(self):
        kwargs = dict(n_values=(40,), level=0.05, replicates=4, seed=9,
                      inner_replicates=100, grid_m=10)
        model = rb.fixtures.MODELS["single-uniform"]
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
        model = rb.fixtures.MODELS["single-uniform"]
        breach = rb.AddQuadratic(4.0)
        serial = rb.size_power_study(model, breach, **kwargs)
        pooled = rb.size_power_study(model, breach, n_jobs=2, **kwargs)
        assert serial.to_json_dict() == pooled.to_json_dict()

    def test_pool_restores_environment(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        before = dict(os.environ)
        rb.size_power_study(rb.fixtures.MODELS["single-uniform"], None,
                            n_values=(30,), level=0.05, replicates=2, seed=12,
                            inner_replicates=100, grid_m=10, n_jobs=2)
        assert dict(os.environ) == before

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
        assert mclab._pinned_pool_map(os.getenv, names, 2) == ["1", "1", "1"]

    def test_study_starts_one_executor(self, inline_pool):
        res = rb.size_power_study(rb.fixtures.MODELS["single-uniform"],
                                  rb.AddQuadratic(4.0), n_values=(30, 60),
                                  level=0.2, replicates=3, seed=13,
                                  inner_replicates=100, grid_m=10, n_jobs=2)
        assert [pin for _, pin in inline_pool] == ["1"]
        assert len(res.rejections) == 2

    def test_pool_capped_by_usable_cpus(self, inline_pool, monkeypatch):
        # The affinity set, not the machine's CPU count, caps the pool.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert mclab._pinned_pool_map(abs, [-1, 2], 4) == [1, 2]
        # Without an affinity call the CPU count is the cap.
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert mclab._pinned_pool_map(abs, [-1, 2], 8) == [1, 2]
        assert [workers for workers, _ in inline_pool] == [1, 3]

    def test_breach_switches_mode(self):
        res = rb.size_power_study(rb.fixtures.MODELS["single-uniform"],
                                  rb.AddQuadratic(4.0),
                                  n_values=(60,), level=0.2, replicates=5,
                                  seed=10, inner_replicates=100, grid_m=10)
        assert res.mode == "power"
        assert res.rates[0] > 0.0

    def test_parameter_validation(self):
        model = rb.fixtures.MODELS["single-uniform"]
        with pytest.raises(ValidationError):
            rb.size_power_study(model, None, n_values=(30,), level=0.0,
                                replicates=3, seed=0, inner_replicates=100)
        with pytest.raises(ValidationError):
            rb.size_power_study(model, None, n_values=(30,), level=0.05,
                                replicates=0, seed=0, inner_replicates=100)

    @pytest.mark.parametrize("n_jobs", [0, -1, -3])
    def test_n_jobs_below_one_is_refused_before_sampling(self, n_jobs,
                                                         monkeypatch):
        # -1 means "all CPUs" to joblib; here it must not run serially.
        def must_not_run(*args):
            raise AssertionError("a study case ran")

        monkeypatch.setattr(mclab, "_study_case", must_not_run)
        with pytest.raises(ValidationError,
                           match=f"n_jobs must be >= 1, got {n_jobs}"):
            rb.size_power_study(rb.fixtures.MODELS["single-uniform"], None,
                                n_values=(30,), level=0.05, replicates=3,
                                seed=0, inner_replicates=100, n_jobs=n_jobs)


# ======================================================================
# Shipped fixture tables
# ======================================================================

def _arrays(obj):
    """Every numpy array reachable from obj's attributes and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            yield from _arrays(v)
    elif hasattr(obj, "__dict__"):
        for v in vars(obj).values():
            yield from _arrays(v)


class TestFixtureTables:
    defaults = rb.fixtures.load_experiment_defaults()
    named = {case["model"]
             for fixture in defaults.values()
             for case in fixture.get("cases", [fixture])
             if isinstance(case, dict) and "model" in case}

    def test_every_fixture_model_resolves(self):
        assert self.named
        for name in self.named:
            assert rb.fixtures.get_model(name) is rb.fixtures.MODELS[name]

    def test_every_gram_case_resolves(self):
        for name in self.defaults["gram-identity"]["cases"]:
            case = rb.fixtures.get_gram_case(name)
            assert isinstance(case, (rb.SyntheticModel,
                                     rb.IndependenceCovariance))

    def test_no_model_is_dead(self):
        cases = set(self.defaults["gram-identity"]["cases"])
        assert set(rb.fixtures.MODELS) <= self.named | cases
        assert set(rb.fixtures.GRAM_CASES) == cases

    def test_no_shared_value_holds_a_mutable_array(self):
        # The walk finds the arrays that a copula or kernel holds.
        assert list(_arrays(rb.GaussianCopula(2, 0.3)))
        assert list(_arrays(rb.fixtures.pinned_bridge_covariance()))
        shared = [*rb.fixtures.MODELS.values(),
                  *(v for v in rb.fixtures.GRAM_CASES.values()
                    if not callable(v))]
        for value in shared:
            assert all(not a.flags.writeable for a in _arrays(value))
        first = rb.fixtures.get_gram_case("intercept-only")
        assert first is not rb.fixtures.get_gram_case("intercept-only")

    def test_unknown_names_list_the_table(self):
        with pytest.raises(ValidationError, match="choose from .*'affine'"):
            rb.fixtures.get_model("sideways")
        with pytest.raises(ValidationError,
                           match="unknown identity case .*'intercept-only'"):
            rb.fixtures.get_gram_case("field")
