"""Workload table and seeded input generation for the benchmark.

Nothing here imports regbridge: the benchmark process builds the inputs
and the program only ever sees the files and arguments made from them.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# BLAS and OpenMP pools are pinned to one thread in every child, so a run
# measures the same work on any core count (the limit is at most nproc).
BLAS_THREADS = 1

# Fewest timed calls in a run, whatever its length: p90 needs a few.
MIN_SAMPLES = 3

# The CLI workloads draw their data from a fixed catalogue of datasets so
# that each dataset's exact p-value can be stored in reference.json; the
# run seed picks the dataset and is also the CLI's null-simulation seed.
CATALOGUE = 16

# Same law as the shipped two-uniform fixture: two independent uniform
# ordering regressors, theta = (1, -1, 0.5), unit normal noise.  The
# regressors are continuous, so ordering columns have no ties.
CLI_THETA = (1.0, -1.0, 0.5)

WORKLOADS = {
    "cli-small": {"kind": "cli", "n": 500, "d": 2, "grid_m": 100,
                  "replicates": 10000, "lab_model": "two-uniform"},
    "cli-large": {"kind": "cli", "n": 100_000, "d": 2, "grid_m": 100,
                  "replicates": 2000, "lab_model": "two-uniform"},
    # Remaining sizes come from the shipped `size` fixture at run time.
    "size-study": {"kind": "lab", "fixture": "size", "reps_per_call": 1},
    # Remaining sizes come from the shipped `bridges` two-uniform case.
    "lab-bridges": {"kind": "lab", "fixture": "bridges",
                    "model": "two-uniform", "reps_per_call": 500},
}


def child_env() -> dict:
    """Environment of every child: the checkout's sources, pinned BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def dataset_index(seed: int) -> int:
    return seed % CATALOGUE


def cli_arrays(workload: str, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Regressors (x1, x2, const) and response of one catalogue dataset."""
    cfg = WORKLOADS[workload]
    n, d = cfg["n"], cfg["d"]
    rng = np.random.default_rng([n, d, index])
    X = np.ones((n, d + 1))
    X[:, :d] = rng.random((n, d))
    y = X @ np.asarray(CLI_THETA) + rng.standard_normal(n)
    return X, y


def write_cli_csv(X: np.ndarray, y: np.ndarray, path) -> None:
    """Headed CSV x1..xd,const,y with repr floats (an exact round trip)."""
    d = X.shape[1] - 1
    header = ",".join([f"x{k + 1}" for k in range(d)] + ["const", "y"])
    rows = np.column_stack([X, y]).tolist()
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(",".join(map(repr, r)) for r in rows))
        fh.write("\n")


def cli_args(workload: str, csv_path, out_path, seed: int) -> list[str]:
    """Arguments of one `regbridge test` call on a CLI workload."""
    cfg = WORKLOADS[workload]
    cols = ",".join(f"x{k + 1}" for k in range(cfg["d"]))
    return ["test", "--input", str(csv_path), "--response", "y",
            "--order-columns", cols, "--intercept", "const",
            "--grid", str(cfg["grid_m"]), "--replicates", str(cfg["replicates"]),
            "--seed", str(seed), "--out", str(out_path)]
