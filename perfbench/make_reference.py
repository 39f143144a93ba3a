"""Regenerate reference.json, the stored p-values of the CLI catalogue.

For each catalogue dataset the grid kernel is built with regbridge's
kernel estimate, its eigenvalues w_k are clipped at CLIP_FLOOR, and the
p-value of the dataset's omega-squared is the upper tail of
sum_k (w_k / m) chi2_1, inverted exactly by Imhof's formula.  A numpy
Monte Carlo draw of the same weighted sum cross-checks each value.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402
import oracle  # noqa: E402

MC_DRAWS = 200_000


def reference_row(workload: str, index: int) -> dict:
    import regbridge as rb

    cfg = inputs.WORKLOADS[workload]
    X, y = inputs.cli_arrays(workload, index)
    d = cfg["d"]
    data = rb.Dataset(X, y, tuple(range(d)), d)
    fit = rb.fit_lse(data)
    cov = rb.empirical_covariance(data, rb.all_orderings(data, fit), gram=fit.gram)
    m = cfg["grid_m"]
    w = np.linalg.eigvalsh(rb.build_grid_covariance(cov, rb.GridSpec(m)))
    weights = np.where(w < rb.CLIP_FLOOR, 0.0, w) / m
    stat = oracle.omega_sq(X, y, range(d))
    p = oracle.imhof_sf(stat, weights)

    rng = np.random.default_rng([index, 7])
    exceed = 0
    for _ in range(MC_DRAWS // 10_000):
        draws = rng.standard_normal((10_000, weights.size)) ** 2 @ weights
        exceed += int(np.count_nonzero(draws >= stat))
    p_mc = exceed / MC_DRAWS
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / MC_DRAWS)
    if abs(p - p_mc) > 4.0 * se + 1.0 / MC_DRAWS:
        raise SystemExit(f"{workload}[{index}]: Imhof {p} disagrees with MC {p_mc}")
    return {"index": index, "omega_sq": stat, "p_value": p, "p_value_mc": p_mc}


def main() -> None:
    ref = {"method": "imhof", "mc_draws": MC_DRAWS}
    for name, cfg in inputs.WORKLOADS.items():
        if cfg["kind"] == "cli":
            ref[name] = [reference_row(name, i) for i in range(inputs.CATALOGUE)]
            print(name, "done", file=sys.stderr)
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
