"""Child process of the benchmark: in-process loops and the traced run.

Started by run.py with the checkout's `src` on PYTHONPATH and BLAS
pinned.  The child prints `ready` once its set-up is done, then one JSON
line with its results.  Modes:

* ``loop``   the timed loop of size-study or lab-bridges (tracing off);
* ``trace``  the traced run of any workload: a stage-by-stage pipeline
  with one span per call into a layer's public function, direct calls
  into single layers, traced memory peaks and the decomposition checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402
from spans import Tracer  # noqa: E402

import regbridge as rb  # noqa: E402
from regbridge import fixtures  # noqa: E402
from regbridge.cli import TestReport  # noqa: E402

# Outer replicates of the mclab calls in the traced run, per workload: a
# fixed count, so `mclab.rejections` repeats exactly for a given seed.
TRACE_STUDY_REPS = {"cli-small": 4, "cli-large": 1, "size-study": 40,
                    "lab-bridges": 20}
TRACE_BRIDGE_REPS = {"cli-small": 200, "cli-large": 5, "size-study": 200,
                     "lab-bridges": 500}
# Pipeline repeats per traced run (the median of each stage is reported).
TRACE_REPEATS = {"cli-small": 7, "cli-large": 3, "size-study": 15,
                 "lab-bridges": 15}


def lab_config(workload: str) -> dict:
    """Sizes of a lab workload, read from the shipped verify fixtures."""
    defaults = fixtures.load_experiment_defaults()
    cfg = inputs.WORKLOADS[workload]
    if cfg["fixture"] == "size":
        size = defaults["size"]
        return {"model": size["model"], "n": size["n_values"][0],
                "level": size["level"], "inner": size["inner_replicates"],
                "grid_m": size["grid_m"], "seed": size["seed"]}
    case = next(c for c in defaults["bridges"]["cases"]
                if c["model"] == cfg["model"])
    return {"model": case["model"], "n": case["n"], "levels": case["levels"],
            "tolerance": case["tolerance"], "seed": case["seed"]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


# ======================================================================
# Timed loops (tracing off)
# ======================================================================

def lab_call(workload: str, cfg: dict, model, seed: int, i: int):
    """One timed call: returns (replicates done, rejections, problems)."""
    reps = inputs.WORKLOADS[workload]["reps_per_call"]
    key = (cfg["seed"], seed, i)
    if workload == "size-study":
        res = rb.size_power_study(model, None, [cfg["n"]], cfg["level"], reps,
                                  key, inner_replicates=cfg["inner"],
                                  grid_m=cfg["grid_m"], n_jobs=1)
        return reps, res.rejections[0], []
    rep = rb.verify_bridge_covariance(model, cfg["n"], reps, cfg["levels"], key,
                                      tolerance=cfg["tolerance"])
    problems = [] if rep.passed else [
        f"call {i}: max |emp - target| {rep.max_abs_error:.4g} exceeds "
        f"{rep.tolerance}"]
    return reps, 0, problems


def run_loop(args) -> None:
    cfg = lab_config(args.workload)
    model = fixtures.get_model(cfg["model"])
    lab_call(args.workload, cfg, model, args.seed, 0)  # warm-up, untimed
    emit("ready")
    if args.setup_only:
        return
    from oracle import size_band

    times, reps, rejections, failed, problems = [], 0, 0, 0, []
    start = time.perf_counter()
    i = 1
    while (time.perf_counter() - start < args.seconds
           or len(times) < inputs.MIN_SAMPLES):
        t0 = time.perf_counter()
        try:
            done, rej, bad = lab_call(args.workload, cfg, model, args.seed, i)
        except Exception:
            traceback.print_exc()
            failed += 1
            problems.append(f"call {i} raised")
            break
        times.append(time.perf_counter() - t0)
        reps += done
        rejections += rej
        failed += bool(bad)
        problems += bad
        i += 1
    attempted = len(times) + failed
    if args.workload == "size-study":
        attempted += 1  # the rejection-rate check over the whole run
        bad = size_band(rejections, max(reps, 1), cfg["level"])
        failed += bool(bad)
        problems += bad
    emit({"times": times, "reps": reps, "rejections": rejections,
          "attempted": attempted, "failed": failed, "problems": problems,
          "peak_rss_mb": peak_rss_mb(), "config": cfg})


# ======================================================================
# Traced run
# ======================================================================

def stage_test(tr: Tracer, data, grid_m: int, replicates: int, seed):
    """run_adequacy_test taken apart, one span per layer call."""
    with tr.span("ols.fit_lse"):
        fit = rb.fit_lse(data)
    with tr.span("ordering.all_orderings"):
        views = rb.all_orderings(data, fit)
    with tr.span("bridge.residual_bridge"):
        bridges = tuple(rb.residual_bridge(v, fit.sigma2_hat) for v in views)
    with tr.span("bridge.omega_sq"):
        stat = rb.omega_sq(bridges)
    with tr.span("covmodel.empirical_covariance"):
        cov = rb.empirical_covariance(data, views, gram=fit.gram)
    grid = rb.GridSpec(grid_m)
    with tr.span("limitsim.build_grid_covariance"):
        matrix = rb.build_grid_covariance(cov, grid)
    with tr.span("limitsim.factor_psd"):
        factor = rb.factor_psd(matrix)
    with tr.span("limitsim.simulate_null"):
        null = rb.simulate_null(factor, replicates, grid, seed)
    with tr.span("limitsim.p_value"):
        p = rb.p_value(stat, null)
    return rb.AdequacyResult(fit=fit, bridges=bridges, statistic=stat,
                             covariance=cov, null=null, p_value=p, level=0.05)


def cli_pipeline(tr: Tracer, csv_path, schema, grid_m: int, replicates: int,
                 seed: int) -> str:
    """What `regbridge test` does after start-up, one span per layer call."""
    tr.new_trace()
    with tr.span("pipeline"):
        with tr.span("dataset.load_csv"):
            data = rb.load_csv(csv_path, schema)
        result = stage_test(tr, data, grid_m, replicates, seed)
        with tr.span("cli.validated_json"):
            return TestReport(data=data, result=result, grid_m=grid_m,
                              replicates=replicates, seed=seed).validated_json()


def traced_peak_mb(fn) -> float:
    """Peak traced allocation of one call, in MB (numpy buffers included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def run_trace(args) -> None:
    w = args.workload
    wcfg = inputs.WORKLOADS[w]
    study = lab_config("size-study")
    bridge_cfg = lab_config("lab-bridges")
    levels = bridge_cfg["levels"]
    if wcfg["kind"] == "cli":
        # The lab calls run the CLI's law and sizes: two-uniform at n, m, R.
        n, grid_m, replicates = wcfg["n"], wcfg["grid_m"], wcfg["replicates"]
        data_model = study_model = bridge_model = fixtures.get_model(wcfg["lab_model"])
        study = {"n": n, "level": study["level"], "inner": replicates,
                 "grid_m": grid_m, "seed": study["seed"]}
        bridge_n = n
        csv_path = Path(args.csv)
    else:
        # Both lab workloads trace the shipped fixtures; the pipeline runs
        # on a dataset of the workload's own model at the size fixture's m, R.
        study_model = fixtures.get_model(study["model"])
        bridge_model = fixtures.get_model(bridge_cfg["model"])
        bridge_n = bridge_cfg["n"]
        own = study if w == "size-study" else bridge_cfg
        data_model = fixtures.get_model(own["model"])
        n, grid_m, replicates = own["n"], study["grid_m"], study["inner"]
        csv_path = Path(args.workdir) / "trace.csv"
        rb.write_csv(rb.sample_h0(data_model, n, (own["seed"], args.seed)), csv_path)
    schema = rb.ColumnSchema(order=tuple(f"x{k + 1}" for k in range(data_model.d1)),
                             response="y", intercept="const")
    emit("ready")

    checks, problems = 0, []
    tr = Tracer()
    off = Tracer(enabled=False)
    walls_on, walls_off, text = [], [], None
    for _ in range(TRACE_REPEATS[w]):
        for tracer, walls in ((off, walls_off), (tr, walls_on)):
            t0 = time.perf_counter()
            text = cli_pipeline(tracer, csv_path, schema, grid_m, replicates,
                                args.seed)
            walls.append(time.perf_counter() - t0)

    # Decomposition: the stages reproduce run_adequacy_test bit for bit.
    data = rb.load_csv(csv_path, schema)
    ref = rb.run_adequacy_test(data, grid_m=grid_m, replicates=replicates,
                               seed=args.seed)
    report = json.loads(text)
    checks += 1
    if (report["omega_sq"], report["p_value"]) != (ref.statistic, ref.p_value):
        problems.append(f"stages give omega_sq={report['omega_sq']!r}, "
                        f"p={report['p_value']!r}; run_adequacy_test gives "
                        f"{ref.statistic!r}, {ref.p_value!r}")
    if args.report:
        checks += 1
        if Path(args.report).read_text() != text:
            problems.append("traced pipeline's report differs from the CLI's")

    # Direct calls into single layers, on the same inputs.
    fit = rb.fit_lse(data)
    views = rb.all_orderings(data, fit)
    bridges = [rb.residual_bridge(v, fit.sigma2_hat) for v in views]
    cov = rb.empirical_covariance(data, views, gram=fit.gram)
    grid = rb.GridSpec(grid_m)
    pts = grid.points()
    factor = rb.factor_psd(rb.build_grid_covariance(cov, grid))
    pairs = [(i, j) for i in range(cov.d_order) for j in range(i, cov.d_order)]

    def khat_all():
        for i, j in pairs:
            cov.khat_grid(i, j, pts, pts)

    def streams():
        eff = rb.collapse_seed(args.seed)
        for r in range(replicates):
            rb.philox_stream(eff, r).standard_normal(factor.dim)

    direct = {
        "covmodel.khat_grid": khat_all,
        "rng.philox_stream": streams,
        "bridge.evaluate": lambda: [rb.evaluate(b, levels) for b in bridges],
        "dataset.sample_h0": lambda: rb.sample_h0(data_model, n, (args.seed, 1)),
        "adequacy.run_adequacy_test": lambda: rb.run_adequacy_test(
            data, grid_m=grid_m, replicates=replicates, seed=args.seed),
    }
    for _ in range(max(3, TRACE_REPEATS[w] // 2)):
        tr.new_trace()
        for name, fn in direct.items():
            with tr.span(name):
                fn()

    peaks = {
        "dataset.load_csv_peak_mb": traced_peak_mb(lambda: rb.load_csv(csv_path, schema)),
        "covmodel.khat_grid_peak_mb": traced_peak_mb(khat_all),
        "limitsim.simulate_null_peak_mb": traced_peak_mb(
            lambda: rb.simulate_null(factor, replicates, grid, args.seed)),
    }

    # mclab, and the size study's rejection count rebuilt from the stages.
    k = TRACE_STUDY_REPS[w]
    key = (study["seed"], args.seed)
    tr.new_trace()
    with tr.span("mclab.size_power_study"):
        res = rb.size_power_study(study_model, None, [study["n"]], study["level"],
                                  k, key, inner_replicates=study["inner"],
                                  grid_m=study["grid_m"], n_jobs=1)
    rejections = res.rejections[0]
    rebuilt = 0
    for r in range(k):
        sample = rb.sample_h0(study_model, study["n"], key + (r, 0))
        out = stage_test(off, sample, study["grid_m"], study["inner"], key + (r, 1))
        rebuilt += out.p_value <= study["level"]
    checks += 1
    if rebuilt != rejections:
        problems.append(f"stages reject {rebuilt} of {k}; size_power_study "
                        f"rejects {rejections}")
    kb = TRACE_BRIDGE_REPS[w]
    with tr.span("mclab.verify_bridge_covariance"):
        rep = rb.verify_bridge_covariance(bridge_model, bridge_n, kb, levels,
                                          (bridge_cfg["seed"], args.seed),
                                          tolerance=bridge_cfg["tolerance"])
    if w == "lab-bridges":
        checks += 1
        if not rep.passed:
            problems.append(f"verify_bridge_covariance max error "
                            f"{rep.max_abs_error:.4g} exceeds {rep.tolerance}")

    dim = factor.dim
    metrics = {name + "_s": (tr.median(name), "s") for name in (
        "dataset.load_csv", "dataset.sample_h0", "ols.fit_lse",
        "ordering.all_orderings", "bridge.residual_bridge", "bridge.omega_sq",
        "bridge.evaluate", "covmodel.empirical_covariance", "covmodel.khat_grid",
        "limitsim.build_grid_covariance", "limitsim.factor_psd",
        "limitsim.simulate_null", "limitsim.p_value", "rng.philox_stream",
        "adequacy.run_adequacy_test", "cli.validated_json")}
    metrics.update({name: (value, "MB") for name, value in peaks.items()})
    metrics.update({
        "dataset.rows": (data.n, "count"),
        "covmodel.indicator_mb_computed": (2 * grid_m * data.n * 8 / 1e6, "MB"),
        "limitsim.clip_count": (factor.clip_count, "count"),
        "limitsim.grid_dim": (dim, "count"),
        "limitsim.null_gflop_computed": (replicates * 2 * (dim * dim + dim) / 1e9,
                                         "GFLOP"),
        "mclab.size_power_study_s": (tr.median("mclab.size_power_study") / k, "s"),
        "mclab.verify_bridge_covariance_s": (
            tr.median("mclab.verify_bridge_covariance") / kb, "s"),
        "mclab.rejections": (rejections, "count"),
        # Median over adjacent traced/untraced pairs, so that drift in the
        # machine's speed cancels within each pair.
        "trace.overhead_frac": (statistics.median(
            on / off for on, off in zip(walls_on, walls_off)) - 1.0, "fraction"),
    })
    spans_path = Path(args.spans)
    tr.dump(spans_path)
    self_times = {}
    for s, st in zip(tr.spans, tr.self_times()):
        self_times.setdefault(s["name"], []).append(st)
    emit({"metrics": metrics, "attempted": checks, "failed": len(problems),
          "problems": problems, "spans": str(spans_path),
          "self_s": {k2: statistics.median(v) for k2, v in self_times.items()},
          "sizes": {"n": n, "grid_m": grid_m, "replicates": replicates,
                    "study_reps": k, "bridge_reps": kb,
                    "pipeline_repeats": TRACE_REPEATS[w]}})


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("loop", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", default=str(inputs.WORK))
    ap.add_argument("--csv", default=None)
    ap.add_argument("--report", default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    if args.mode == "loop":
        run_loop(args)
    else:
        run_trace(args)


if __name__ == "__main__":
    main()
