"""Benchmark of `regbridge test` and the Monte Carlo lab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 50 --trace 0

Workloads (see perfbench/WORKLOADS.md for why each exists):

* ``cli-small``    `regbridge test` processes in a closed loop, n=500, R=10^4
* ``cli-large``    the same loop at n=10^5, R=2000
                   (runnable by hand; not listed in BENCHMARK.json)
* ``size-study``   in-process `size_power_study` on the shipped size fixture
* ``lab-bridges``  in-process `verify_bridge_covariance`, two-uniform fixture
                   (runnable by hand; not listed in BENCHMARK.json)

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it makes the traced run and reports one set of
metrics per module of src/regbridge.  Every call into the program runs in
a fresh child process.  The last line of standard output is one JSON
object; a human-readable table goes to standard error, and the full
record (environment, sizes, samples) to .perfbench_out/.  The exit code
is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402
import oracle  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
CHILD_TIMEOUT = 170

# What the installed `regbridge` console script runs.
ENTRY = "import sys; from regbridge.cli import main; sys.exit(main())"
IMPORTS = {"import.python_s": "pass",
           "import.regbridge_s": "import regbridge",
           "import.cli_s": "import regbridge.cli"}


def run_child(cmd: list[str]) -> tuple[float, float, int]:
    """Run one child to completion: wall seconds, peak RSS in MB, exit code."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=inputs.child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def start_worker(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve().parent / "worker.py"), *args],
        env=inputs.child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        text=True)


def await_ready(proc: subprocess.Popen) -> None:
    line = proc.stdout.readline()
    if json.loads(line or "null") != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")


def finish_worker(proc: subprocess.Popen) -> dict:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def timing_summary(times: list[float]) -> dict:
    """Median and p90 of per-call wall times, with the sample count.

    p90 is the tail reported at every workload; `beyond_p90` says how
    many samples lie above it, which is below ten whenever a run holds
    fewer than about a hundred calls.
    """
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
    return {"p50": statistics.median(times), "p90": p90, "samples": len(times),
            "beyond_p90": sum(t > p90 for t in times)}


# ======================================================================
# End-to-end runs (tracing off)
# ======================================================================

def report_checker(w: str, index: int, X, y):
    """Checks of one `regbridge test` report on a catalogue dataset."""
    cfg = inputs.WORKLOADS[w]
    ref = json.loads((Path(__file__).resolve().parent / "reference.json")
                     .read_text())[w][index]
    omega = oracle.omega_sq(X, y, range(cfg["d"]))
    stale = ([] if abs(omega - ref["omega_sq"]) <= oracle.OMEGA_RTOL * omega
             else ["generated inputs differ from the stored catalogue"])
    schema = json.loads((inputs.SRC / "regbridge" / "data" /
                         "test_report.schema.json").read_text())
    expect = {"n": cfg["n"], "grid_m": cfg["grid_m"],
              "replicates": cfg["replicates"]}

    def check(text: str) -> list[str]:
        return stale + oracle.check_report(text, schema, expect, omega,
                                           ref["p_value"])
    return check, ref


def measure_cli(args, work: Path) -> dict:
    w = args.workload
    cfg = inputs.WORKLOADS[w]
    index = inputs.dataset_index(args.seed)
    csv_path, out_path = work / "data.csv", work / "report.json"

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        X, y = inputs.cli_arrays(w, index)
        inputs.write_cli_csv(X, y, csv_path)
        if run_child([sys.executable, "-c", IMPORTS["import.cli_s"]])[2] != 0:
            raise RuntimeError("regbridge.cli does not import")
        setups.append(time.perf_counter() - t0)

    check, ref = report_checker(w, index, X, y)
    cmd = [sys.executable, "-c", ENTRY,
           *inputs.cli_args(w, csv_path, out_path, args.seed)]

    times, rss, failed, first, problems = [], [], 0, None, []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(times) < inputs.MIN_SAMPLES):
        wall, peak, code = run_child(cmd)
        times.append(wall)
        rss.append(peak)
        bad = [f"exit code {code}"] if code != 0 else []
        if not bad:
            text = out_path.read_text()
            out_path.unlink()
            if first is None:
                first = text
                bad = check(text)
            elif text != first:
                bad = ["reports of repeated calls differ"]
        failed += bool(bad)
        problems += bad
        if code != 0 and len(times) >= inputs.MIN_SAMPLES:
            break
    return {"setups": setups, "times": times, "reps": len(times),
            "peak_rss_mb": max(rss), "attempted": len(times), "failed": failed,
            "problems": problems,
            "sizes": {"n": cfg["n"], "d": cfg["d"], "grid_m": cfg["grid_m"],
                      "replicates": cfg["replicates"], "dataset_index": index,
                      "p_value_reference": ref["p_value"]}}


def measure_lab(args, work: Path) -> dict:
    common = ["loop", "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--workdir", str(work)]
    # The last start is the measuring child; earlier ones stop once set up,
    # so no two children ever run at once.
    setups = []
    for k in range(SETUP_REPEATS):
        last = k == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        proc = start_worker(*common, *([] if last else ["--setup-only"]))
        await_ready(proc)
        setups.append(time.perf_counter() - t0)
        if not last:
            proc.communicate(timeout=CHILD_TIMEOUT)
    res = finish_worker(proc)
    sizes = dict(res["config"],
                 reps_per_call=inputs.WORKLOADS[args.workload]["reps_per_call"])
    return {"setups": setups, "times": res["times"], "reps": res["reps"],
            "peak_rss_mb": res["peak_rss_mb"], "attempted": res["attempted"],
            "failed": res["failed"], "problems": res["problems"],
            "sizes": sizes, "rejections": res["rejections"]}


def end_to_end(args, work: Path) -> dict:
    kind = inputs.WORKLOADS[args.workload]["kind"]
    res = (measure_cli if kind == "cli" else measure_lab)(args, work)
    summary = timing_summary(res["times"])
    res["timing"] = summary
    res["metrics"] = {
        "setup_s": (statistics.median(res["setups"]), "s"),
        "call_wall_s.tail": (summary["p90"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    # Printed and recorded, but left out of the result line and of
    # BENCHMARK.json: on a host whose speed drifts by up to 2x over tens of
    # seconds, their spread across seeds reaches the largest allowed bound
    # (see WORKLOADS.md).
    res["unbounded"] = {
        "call_wall_s.p50": (summary["p50"], "s"),
        "reps_per_s": (res["reps"] / sum(res["times"]), "1/s"),
    }
    return res


# ======================================================================
# Traced run
# ======================================================================

def traced(args, work: Path) -> dict:
    w = args.workload
    cfg = inputs.WORKLOADS[w]
    samples = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_REPEATS):
        for name, code in IMPORTS.items():
            wall, _, rc = run_child([sys.executable, "-c", code])
            if rc != 0:
                raise RuntimeError(f"`python -c {code!r}` failed")
            samples[name].append(wall)

    extra, problems, attempted = [], [], 0
    if cfg["kind"] == "cli":
        index = inputs.dataset_index(args.seed)
        X, y = inputs.cli_arrays(w, index)
        csv_path, report = work / "data.csv", work / "report.json"
        inputs.write_cli_csv(X, y, csv_path)
        cmd = [sys.executable, "-c", ENTRY,
               *inputs.cli_args(w, csv_path, report, args.seed)]
        attempted += 1
        if run_child(cmd)[2] != 0:
            problems.append("regbridge test failed")
        else:
            problems += report_checker(w, index, X, y)[0](report.read_text())
        extra = ["--csv", str(csv_path), "--report", str(report)]

    inputs.OUT.mkdir(exist_ok=True)
    spans = inputs.OUT / f"spans-{w}-seed{args.seed}.json"
    proc = start_worker("trace", "--workload", w, "--seed", str(args.seed),
                        "--workdir", str(work), "--spans", str(spans), *extra)
    await_ready(proc)
    res = finish_worker(proc)
    metrics = {name: (statistics.median(v), "s") for name, v in samples.items()}
    metrics.update({k: tuple(v) for k, v in res["metrics"].items()})
    res.update(metrics=metrics, attempted=res["attempted"] + attempted,
               failed=res["failed"] + bool(problems),
               problems=problems + res["problems"], import_samples=samples)
    return res


# ======================================================================
# Reporting
# ======================================================================

def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": inputs.BLAS_THREADS}


def as_json(metrics: dict) -> dict:
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def report(args, res: dict) -> int:
    metrics = as_json(res["metrics"])
    unbounded = as_json(res.get("unbounded", {}))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(),
              **{k: v for k, v in res.items() if k not in ("metrics", "unbounded")},
              "metrics": metrics, "unbounded_metrics": unbounded}
    inputs.OUT.mkdir(exist_ok=True)
    path = inputs.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    err = sys.stderr
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"(record: {path.relative_to(inputs.ROOT)})", file=err)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}", file=err)
    for name, m in unbounded.items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']} (no bound)", file=err)
    if "timing" in res:
        t = res["timing"]
        print(f"{'calls timed':36s} {t['samples']:14d} "
              f"(tail = p90, {t['beyond_p90']} samples beyond it)", file=err)
    attempted, failed = res["attempted"], res["failed"]
    print(f"{'failed_frac':36s} {failed / attempted:14.6g} "
          f"({failed} of {attempted})", file=err)
    for p in res["problems"]:
        print(f"CHECK FAILED: {p}", file=err)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (inputs.SRC / "regbridge" / "__init__.py").is_file():
        print(f"error: no regbridge sources under {inputs.SRC}", file=sys.stderr)
        return 2
    inputs.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=inputs.WORK))
    try:
        res = (traced if args.trace else end_to_end)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, res)


if __name__ == "__main__":
    sys.exit(main())
