"""Acceptance gate: one test per shipped claim, with pinned tolerances.

Each criterion prints a single summary line (visible with ``pytest -v``
through the test name, and in captured output on failure) and asserts
both the numeric bound and its runtime budget.
"""

import json
import math
import time

import numpy as np

import regbridge as rb
from regbridge.cli import main


def report(label, ok, detail, elapsed, budget):
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} "
          f"({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"{label}: {detail}"
    assert elapsed < budget, f"{label}: runtime {elapsed:.1f}s over budget"


def riemann_omega_sq(bridge, total_points=1_000_000):
    """Midpoint Riemann oracle with points laid out inside each segment."""
    n = bridge.n
    per = -(-total_points // n)
    offsets = (np.arange(per) + 0.5) / (per * n)
    ts = (np.arange(n)[:, None] / n + offsets[None, :]).ravel()
    vals = rb.evaluate(bridge, ts)
    return float(np.sum(vals ** 2)) / (n * per)


def test_criterion_01_exact_integration():
    # 100 random partial-sum bridges, |z| <= 10, against a million-point
    # Riemann sum: the closed-form segment integral must agree to 1e-8.
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260801)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 1001))
        scale = float(rng.uniform(0.5, 3.0))
        z = np.concatenate(
            ([0.0], np.cumsum(rng.standard_normal(n) * scale / math.sqrt(n))))
        peak = float(np.max(np.abs(z)))
        if peak > 10.0:
            z *= 10.0 / peak
        b = rb.BridgeProcess(z)
        worst = max(worst, abs(rb.omega_sq([b]) - riemann_omega_sq(b)))
    report("1 exact integration", worst < 1e-8,
           f"max |closed form - oracle| = {worst:.3e} vs 1e-8",
           time.perf_counter() - t0, 10.0)


def test_criterion_02_fit_invariant_under_row_order():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260803)
    models = [rb.fixtures.MODELS[name]
              for name in ("single-uniform", "two-uniform")]
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(40, 121))
        data = rb.sample_h0(models[i % 2], n, (20260803, i))
        base = rb.fit_lse(data).theta_hat
        for _ in range(50):
            perm = rng.permutation(n)
            other = rb.fit_lse(rb.permute_rows(data, perm)).theta_hat
            worst = max(worst, float(np.max(np.abs(other - base)
                                            / np.abs(base))))
    report("2 fit invariance", worst < 1e-10,
           f"max relative deviation over 20 x 50 permutations = {worst:.3e}",
           time.perf_counter() - t0, 5.0)


def test_criterion_03_endpoint_pinning():
    t0 = time.perf_counter()
    models = [rb.fixtures.MODELS[name]
              for name in ("single-uniform", "two-uniform", "affine")]
    worst = 0.0
    for r in range(1000):
        data = rb.sample_h0(models[r % 3], 50, (20260802, r))
        fit = rb.fit_lse(data)
        for view in rb.all_orderings(data, fit):
            bridge = rb.residual_bridge(view, fit.sigma2_hat)
            worst = max(worst, abs(float(bridge.values[-1])))
    report("3 endpoint pinning", worst < 1e-8,
           f"max |z_n| over 1000 intercept fits = {worst:.3e}",
           time.perf_counter() - t0, 10.0)


def test_criterion_04_moment_identity():
    t0 = time.perf_counter()
    cfg = rb.fixtures.load_experiment_defaults()["gram-identity"]
    worst = 0.0
    for case in cfg["cases"]:
        worst = max(worst, rb.verify_gram_identity(
            rb.fixtures.get_gram_case(case)))
    report("4 moment identity", worst < cfg["tolerance"],
           f"max entrywise error over {len(cfg['cases'])} fixtures = {worst:.3e}",
           time.perf_counter() - t0, 5.0)


def test_criterion_05_field_covariance():
    # Zero conditional mean, unit variance: the orthant-field covariance
    # must match the product of coordinate minima.
    t0 = time.perf_counter()
    cfg = rb.fixtures.load_experiment_defaults()["field"]["cases"][0]
    assert cfg["model"] == "zero-mean-field"
    rep = rb.verify_field_covariance(
        rb.fixtures.get_model(cfg["model"]), cfg["n"], cfg["replicates"],
        np.asarray(cfg["queries"], dtype=float), cfg["seed"], cfg["tolerance"])
    lookup = {(c.row, c.col): c for c in rep.cells}
    probe = lookup[("u=(0.25;0.5)", "u=(0.5;0.25)")]
    assert abs(probe.target - 0.25 * 0.25) < 1e-9
    report("5 field covariance", rep.passed,
           f"max |emp - min-product| = {rep.max_abs_error:.4f} "
           f"vs {cfg['tolerance']:g} (n={cfg['n']}, R={cfg['replicates']})",
           time.perf_counter() - t0, 120.0)


def test_criterion_06_sum_covariance():
    t0 = time.perf_counter()
    cfg = rb.fixtures.load_experiment_defaults()["sums"]
    rep = rb.verify_sum_covariance(
        rb.fixtures.get_model(cfg["model"]), cfg["n"], cfg["replicates"],
        np.asarray(cfg["levels"], dtype=float), cfg["seed"], cfg["tolerance"])
    lookup = {(c.row, c.col): c for c in rep.cells}
    assert abs(lookup[("S1(0.4)", "S1(0.8)")].target - 0.4) < 1e-9
    assert abs(lookup[("S1(0.4)", "S2(0.8)")].target - 0.4 * 0.8) < 1e-9
    report("6 sum covariance", rep.passed,
           f"max error same/cross coordinate = {rep.max_abs_error:.4f} "
           f"vs {cfg['tolerance']:g} (n={cfg['n']}, R={cfg['replicates']})",
           time.perf_counter() - t0, 120.0)


def test_criterion_07_bridge_covariance():
    t0 = time.perf_counter()
    cases = rb.fixtures.load_experiment_defaults()["bridges"]["cases"]
    single, double = cases
    rep1 = rb.verify_bridge_covariance(
        rb.fixtures.get_model(single["model"]), single["n"],
        single["replicates"], np.asarray(single["levels"], dtype=float),
        single["seed"], single["tolerance"])
    (cell,) = rep1.cells
    assert abs(cell.target - 1.0 / 16.0) < 1e-9

    rep2 = rb.verify_bridge_covariance(
        rb.fixtures.get_model(double["model"]), double["n"],
        double["replicates"], np.asarray(double["levels"], dtype=float),
        double["seed"], double["tolerance"])
    lookup = {(c.row, c.col): c for c in rep2.cells}
    endpoint_var = lookup[("Z1(1)", "Z1(1)")].empirical
    assert endpoint_var < 1e-6

    ok = rep1.passed and rep2.passed
    report("7 bridge covariance", ok,
           f"var at level 1/2: |{cell.empirical:.4f} - 1/16| = "
           f"{cell.abs_error:.4f} vs {single['tolerance']:g}; two-regressor "
           f"grid max error = {rep2.max_abs_error:.4f} vs "
           f"{double['tolerance']:g}; endpoint var = {endpoint_var:.2e}",
           time.perf_counter() - t0, 300.0)


def test_criterion_08_null_calibration():
    # The simulator on the exactly known kernel min(s,t) - s*t must
    # reproduce the classical mean 1/6 and 95th percentile 0.4614.
    t0 = time.perf_counter()
    grid = rb.GridSpec(200)
    factor = rb.factor_psd(
        rb.build_grid_covariance(rb.fixtures.pinned_bridge_covariance(), grid))
    null = rb.simulate_null(factor, 100_000, grid, seed=20260821)
    mean = float(null.samples.mean())
    mean_err = abs(mean - 1.0 / 6.0)
    q95_err = abs(null.quantile(0.95) - 0.4614)
    ok = mean_err < 0.01 and q95_err < 0.02
    report("8 null calibration", ok,
           f"mean {mean:.5f} (err {mean_err:.4f} vs 0.01), "
           f"q95 {null.quantile(0.95):.5f} (err {q95_err:.4f} vs 0.02)",
           time.perf_counter() - t0, 60.0)


def test_criterion_09_test_size():
    t0 = time.perf_counter()
    cfg = rb.fixtures.load_experiment_defaults()["size"]
    study = rb.size_power_study(
        rb.fixtures.get_model(cfg["model"]), None, cfg["n_values"],
        cfg["level"], cfg["replicates"], cfg["seed"],
        inner_replicates=cfg["inner_replicates"], grid_m=cfg["grid_m"])
    rate = study.rates[study.n_values.index(500)]
    report("9 test size", 0.035 <= rate <= 0.065,
           f"rejection rate {rate:.4f} at level {cfg['level']:g} "
           f"(n=500, outer R={cfg['replicates']}, "
           f"inner R={cfg['inner_replicates']}), band [0.035, 0.065]",
           time.perf_counter() - t0, 1800.0)


def test_criterion_10_test_power():
    t0 = time.perf_counter()
    cfg = rb.fixtures.load_experiment_defaults()["power"]
    breach = rb.AddQuadratic(cfg["breach"]["coef"], cfg["breach"]["column"])
    study = rb.size_power_study(
        rb.fixtures.get_model(cfg["model"]), breach, cfg["n_values"],
        cfg["level"], cfg["replicates"], cfg["seed"],
        inner_replicates=cfg["inner_replicates"], grid_m=cfg["grid_m"])
    rate100 = study.rates[study.n_values.index(100)]
    rate500 = study.rates[study.n_values.index(500)]
    ok = rate500 > rate100 and rate500 > 2.0 * cfg["level"]
    report("10 test power", ok,
           f"rates {rate100:.4f} (n=100) -> {rate500:.4f} "
           f"(n=500); threshold {2.0 * cfg['level']:g}",
           time.perf_counter() - t0, 1800.0)


def test_criterion_11_report_determinism(tmp_path):
    t0 = time.perf_counter()
    data_path = tmp_path / "data.csv"
    rc = main(["simulate", "--model", "h0", "--n", "150", "--seed", "11",
               "--theta", "2,1", "--out", str(data_path)])
    assert rc == 0
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        rc = main(["test", "--input", str(data_path), "--response", "y",
                   "--order-columns", "x1", "--intercept", "const",
                   "--grid", "100", "--replicates", "10000", "--seed", "0",
                   "--level", "0.05", "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    report("11 report determinism", identical,
           f"two runs, {len(outputs[0])} bytes each, byte-identical: "
           f"{identical}; p_value {payload['p_value']:.4f}",
           time.perf_counter() - t0, 60.0)
