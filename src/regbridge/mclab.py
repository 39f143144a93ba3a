"""Built-in Monte Carlo lab checking the distributional claims at desk scale.

Three experiments compare empirical second moments of the partial-sum
processes against closed-form covariance targets:

* the raw multivariate field over lower-left orthants (general conditional
  mean and variance),
* the one-coordinate cumulative sum processes under a zero conditional
  mean (covariances across coordinates),
* the studentized residual bridges of the fitted regression against the
  plugged-in limit kernel.

The first two processes are built here (`empirical_field`,
`concomitant_sum_process`); the test itself never uses them.

A fourth experiment measures rejection rates of the full test pipeline
under the null and under model breaches.  All targets are integrals of the
conditional moments over boxes, computed by adaptive quadrature, and all
empirical moments are uncentered: each compared process has exact mean
zero by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .adequacy import run_adequacy_test
from .bridge import check_levels, evaluate, floor_index, residual_bridge
from .covmodel import analytic_covariance
from .dataset import (IndependenceCopula, SyntheticModel, sample_alternative,
                      sample_concomitant, sample_h0)
from .errors import UnsupportedModelError, ValidationError
from .ols import fit_lse
from .ordering import all_orderings
from .rng import as_seed_key

__all__ = [
    "empirical_field",
    "concomitant_sum_process",
    "ErrorCell",
    "VerificationReport",
    "SizePowerResult",
    "verify_field_covariance",
    "verify_sum_covariance",
    "verify_bridge_covariance",
    "size_power_study",
]

_NQUAD_OPTS = {"epsabs": 1e-10, "epsrel": 1e-10}


# ======================================================================
# Raw partial-sum processes
# ======================================================================

def empirical_field(X, Y, queries, centers) -> np.ndarray:
    """Normalized field (Q(u) - n * center(u)) / sqrt(n) at many queries.

    Q(u) is the partial sum of Y over the rows with X <= u coordinatewise.
    `queries` is (q, d); `centers` supplies the centering value per query
    (the integral of the conditional mean over the query's orthant, under
    whatever law the caller is studying).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.shape != (X.shape[0],):
        raise ValidationError("need X of shape (n, d) and Y of shape (n,)")
    n = X.shape[0]
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    centers = np.broadcast_to(np.asarray(centers, dtype=float), (queries.shape[0],))
    if queries.shape[1] != X.shape[1]:
        raise ValidationError("query dimension does not match X")
    # (q, n) orthant indicators resolved in one pass
    mask = np.all(X[None, :, :] <= queries[:, None, :], axis=2)
    raw = mask @ Y
    return (raw - n * centers) / math.sqrt(n)


def concomitant_sum_process(X, Y, k: int, grid) -> np.ndarray:
    """Cumulative sums of Y along coordinate k, read at grid levels.

    Rows are sorted by X[:, k] (stable) and the first [n * t] sorted Y
    values are summed and divided by sqrt(n), for each t in `grid`.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.shape != (X.shape[0],):
        raise ValidationError("need X of shape (n, d) and Y of shape (n,)")
    if not 0 <= k < X.shape[1]:
        raise ValidationError(f"coordinate {k} out of range")
    n = X.shape[0]
    order = np.argsort(X[:, k], kind="stable")
    csum = np.concatenate(([0.0], np.cumsum(Y[order])))
    idx = floor_index(n, grid)
    return csum[idx] / math.sqrt(n)


# ======================================================================
# Report containers
# ======================================================================

@dataclass(frozen=True)
class ErrorCell:
    """One empirical-versus-target comparison."""

    row: str
    col: str
    empirical: float
    target: float

    @property
    def abs_error(self) -> float:
        return abs(self.empirical - self.target)


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of one verification experiment.

    `max_abs_error` is the largest cell error; `passed` compares it to
    `tolerance`.  `elapsed_seconds` is wall-clock time and is excluded
    from reproducibility comparisons (see :meth:`comparable`).
    """

    experiment: str
    params: dict
    cells: tuple[ErrorCell, ...]
    tolerance: float
    elapsed_seconds: float
    checks: tuple[str, ...] = ()

    @property
    def max_abs_error(self) -> float:
        return max((c.abs_error for c in self.cells), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_abs_error <= self.tolerance

    def to_json_dict(self) -> dict:
        out = self.comparable()
        out["elapsed_seconds"] = self.elapsed_seconds
        return out

    def comparable(self) -> dict:
        """JSON-able content with wall-clock time stripped."""
        return {
            "experiment": self.experiment,
            "params": dict(self.params),
            "tolerance": self.tolerance,
            "max_abs_error": self.max_abs_error,
            "passed": self.passed,
            "checks": list(self.checks),
            "cells": [
                {"row": c.row, "col": c.col, "empirical": c.empirical,
                 "target": c.target, "abs_error": c.abs_error}
                for c in self.cells
            ],
        }

    def write_cells_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("row,col,empirical,target,abs_error\n")
            for c in self.cells:
                fh.write(f"{c.row},{c.col},{c.empirical!r},{c.target!r},"
                         f"{c.abs_error!r}\n")


# ======================================================================
# Closed-form targets (independent latent coordinates)
# ======================================================================

def _require_independence(model: SyntheticModel, what: str) -> None:
    if not isinstance(model.copula, IndependenceCopula):
        raise UnsupportedModelError(
            f"{what} targets need the independence copula (unit density)")


def _require_conditional(model: SyntheticModel) -> None:
    if model.cond_mean is None or model.cond_var is None:
        raise ValidationError("experiment needs cond_mean and cond_var")


def _box_integral(fn, upper: np.ndarray) -> float:
    """Integral of fn over the box [0, u1] x ... x [0, ud]."""
    if np.any(upper == 0.0):
        return 0.0
    from scipy.integrate import nquad

    def integrand(*coords):
        val = np.asarray(fn(np.array(coords)[None, :]), dtype=float)
        return float(val.reshape(-1)[0])

    return nquad(integrand, [(0.0, float(u)) for u in upper], opts=_NQUAD_OPTS)[0]


def _field_cov_target(model: SyntheticModel, u1: np.ndarray, u2: np.ndarray,
                      mean_boxes: dict) -> float:
    """Limit covariance of the normalized field between orthants u1, u2."""
    lower = np.minimum(u1, u2)
    m = model.cond_mean
    s2 = model.cond_var
    i_var = _box_integral(s2, lower)
    i_msq = _box_integral(lambda x: np.asarray(m(x)) ** 2, lower)
    return i_var + i_msq - mean_boxes[tuple(u1)] * mean_boxes[tuple(u2)]


def _sum_process_cov_target(model: SyntheticModel, k1: int, t1: float,
                            k2: int, t2: float) -> float:
    """Limit covariance of the coordinate sum processes (zero mean case).

    The covariance is the integral of cond_var over the box whose k1 and
    k2 edges stop at t1 and t2 (their minimum when k1 == k2) and whose
    other edges run to 1.
    """
    upper = np.ones(model.d1)
    if k1 == k2:
        upper[k1] = min(t1, t2)
    else:
        upper[k1] = t1
        upper[k2] = t2
    return _box_integral(model.cond_var, upper)


def _probe_zero_mean(model: SyntheticModel) -> None:
    grid = np.linspace(0.0, 1.0, 9)
    mesh = np.stack(np.meshgrid(*[grid] * model.d1, indexing="ij"), axis=-1)
    probe = mesh.reshape(-1, model.d1)
    vals = np.broadcast_to(np.asarray(model.cond_mean(probe), dtype=float),
                           (probe.shape[0],))
    if float(np.max(np.abs(vals))) > 1e-12:
        raise ValidationError("this experiment needs cond_mean identically 0")


def _fmt(x: float) -> str:
    return format(float(x), "g")


# ======================================================================
# Experiments
# ======================================================================

def _moment_report(experiment: str, vals: np.ndarray, labels, target,
                   params: dict, tolerance: float, t0: float) -> VerificationReport:
    """Compare the uncentered second moments of `vals` against their limits.

    `vals` holds one replicate per row and one probe per column; the cell
    for probes a <= b is labeled (labels[a], labels[b]) and its limit is
    target(a, b).
    """
    emp = (vals.T @ vals) / vals.shape[0]
    cells = tuple(ErrorCell(row=labels[a], col=labels[b],
                            empirical=float(emp[a, b]), target=float(target(a, b)))
                  for a in range(len(labels)) for b in range(a, len(labels)))
    return VerificationReport(experiment=experiment, params=params, cells=cells,
                              tolerance=tolerance,
                              elapsed_seconds=time.perf_counter() - t0)


def verify_field_covariance(model: SyntheticModel, n: int, replicates: int,
                       queries, seed, tolerance: float = 0.05) -> VerificationReport:
    """Compare the orthant field's covariance matrix to its limit.

    `queries` is a (q, d1) array of orthant corners.  Each replicate draws
    (X, Y) from the conditional law, evaluates the centered normalized
    field at every query, and the uncentered second-moment matrix over
    replicates is compared to the closed-form kernel.
    """
    t0 = time.perf_counter()
    _require_conditional(model)
    _require_independence(model, "orthant field")
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != model.d1:
        raise ValidationError("query dimension must match the model")
    check_levels(queries, "queries must lie in the unit cube")

    centers = np.array([_box_integral(model.cond_mean, u) for u in queries])
    mean_boxes = {tuple(u): c for u, c in zip(queries, centers)}

    vals = np.empty((replicates, queries.shape[0]))
    key = as_seed_key(seed)
    for r in range(replicates):
        X, Y = sample_concomitant(model, n, key + (r,))
        vals[r] = empirical_field(X, Y, queries, centers)
    return _moment_report(
        "field", vals, [f"u={_fmt_point(u)}" for u in queries],
        lambda a, b: _field_cov_target(model, queries[a], queries[b], mean_boxes),
        {"n": n, "replicates": replicates, "seed": list(key),
         "queries": queries.tolist()}, tolerance, t0)


def _fmt_point(u: np.ndarray) -> str:
    return "(" + ";".join(_fmt(v) for v in np.atleast_1d(u)) + ")"


def verify_sum_covariance(model: SyntheticModel, n: int, replicates: int,
                      levels, seed, tolerance: float = 0.05) -> VerificationReport:
    """Compare the coordinate sum processes' covariances to their limit.

    Requires cond_mean identically zero.  For every coordinate pair and
    level pair the uncentered empirical covariance of the normalized
    cumulative sums is compared to the integral of cond_var over the
    corresponding box.
    """
    t0 = time.perf_counter()
    _require_conditional(model)
    _require_independence(model, "coordinate sum process")
    _probe_zero_mean(model)
    levels = np.atleast_1d(check_levels(levels))
    d = model.d1
    nl = levels.shape[0]

    vals = np.empty((replicates, d * nl))
    key = as_seed_key(seed)
    for r in range(replicates):
        X, Y = sample_concomitant(model, n, key + (r,))
        for k in range(d):
            vals[r, k * nl:(k + 1) * nl] = concomitant_sum_process(X, Y, k, levels)
    probes = [(k, float(t)) for k in range(d) for t in levels]
    return _moment_report(
        "sums", vals, [f"S{k + 1}({_fmt(t)})" for k, t in probes],
        lambda a, b: _sum_process_cov_target(model, *probes[a], *probes[b]),
        {"n": n, "replicates": replicates, "seed": list(key),
         "levels": levels.tolist()}, tolerance, t0)


def verify_bridge_covariance(model: SyntheticModel, n: int, replicates: int,
                             levels, seed,
                             tolerance: float = 0.05) -> VerificationReport:
    """Compare residual-bridge covariances to the plugged-in limit kernel.

    Each replicate draws a null dataset, fits it, forms the studentized
    bridges, and evaluates them at the given levels; the uncentered
    second-moment matrix over replicates is compared to the closed-form
    kernel of the model.
    """
    t0 = time.perf_counter()
    if model.theta is None:
        raise ValidationError("bridge experiment needs a regression model (theta)")
    cov = analytic_covariance(model)
    levels = np.atleast_1d(check_levels(levels))
    d = model.d1
    nl = levels.shape[0]

    vals = np.empty((replicates, d * nl))
    key = as_seed_key(seed)
    for r in range(replicates):
        data = sample_h0(model, n, key + (r,))
        fit = fit_lse(data)
        for k, view in enumerate(all_orderings(data, fit)):
            b = residual_bridge(view, fit.sigma2_hat)
            vals[r, k * nl:(k + 1) * nl] = evaluate(b, levels)
    probes = [(k, float(t)) for k in range(d) for t in levels]
    return _moment_report(
        "bridges", vals, [f"Z{k + 1}({_fmt(t)})" for k, t in probes],
        lambda a, b: cov.khat(probes[a][0], probes[b][0], probes[a][1],
                              probes[b][1]),
        {"n": n, "replicates": replicates, "seed": list(key),
         "levels": levels.tolist()}, tolerance, t0)


# ======================================================================
# Size and power
# ======================================================================

@dataclass(frozen=True)
class SizePowerResult:
    """Rejection rates of the full pipeline per sample size."""

    mode: str
    n_values: tuple[int, ...]
    rejections: tuple[int, ...]
    level: float
    replicates: int
    inner_replicates: int
    grid_m: int
    seed: tuple[int, ...]
    elapsed_seconds: float

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(r / self.replicates for r in self.rejections)

    def comparable(self) -> dict:
        return {
            "experiment": self.mode,
            "params": {"n_values": list(self.n_values), "level": self.level,
                       "replicates": self.replicates,
                       "inner_replicates": self.inner_replicates,
                       "grid_m": self.grid_m, "seed": list(self.seed)},
            "rejections": list(self.rejections),
            "rates": list(self.rates),
        }

    def to_json_dict(self) -> dict:
        out = self.comparable()
        out["elapsed_seconds"] = self.elapsed_seconds
        return out


def _study_case(args) -> float:
    """One pipeline run; module level so process pools can pickle it."""
    model, breach, n, inner, grid_m, level, data_key, null_key = args
    if breach is None:
        data = sample_h0(model, n, data_key)
    else:
        data = sample_alternative(model, breach, n, data_key)
    res = run_adequacy_test(data, grid_m=grid_m, replicates=inner,
                            seed=null_key, level=level)
    return res.p_value


def size_power_study(model: SyntheticModel, breach, n_values, level: float,
                     replicates: int, seed, inner_replicates: int = 2000,
                     grid_m: int = 100, n_jobs: int = 1) -> SizePowerResult:
    """Rejection rate of the full test per sample size.

    `breach` None measures size under the null; otherwise power under the
    breach.  Replicate r at every n shares the stream key (seed, r, 0) for
    the data and (seed, r, 1) as the null law's seed (which nothing here
    reads: the p-value is exact), so rates across sample sizes are
    comparable under common randomness.  With n_jobs > 1 replicates run
    in a process pool; results are reduced in replicate order, so the
    output does not depend on scheduling.  The pool is
    imported only when n_jobs > 1, so callers that stay in-process never
    load `concurrent.futures` or `multiprocessing`.
    """
    t0 = time.perf_counter()
    if not 0.0 < level <= 1.0:
        raise ValidationError(f"level must lie in (0, 1], got {level}")
    if replicates < 1:
        raise ValidationError("need at least one replicate")
    n_values = tuple(int(n) for n in n_values)
    key = as_seed_key(seed)

    rejections = []
    for n in n_values:
        cases = [(model, breach, n, inner_replicates, grid_m, level,
                  key + (r, 0), key + (r, 1)) for r in range(replicates)]
        if n_jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=n_jobs) as pool:
                chunk = max(1, replicates // (n_jobs * 8))
                pvals = list(pool.map(_study_case, cases, chunksize=chunk))
        else:
            pvals = [_study_case(c) for c in cases]
        rejections.append(int(sum(1 for p in pvals if p <= level)))

    return SizePowerResult(
        mode="size" if breach is None else "power",
        n_values=n_values, rejections=tuple(rejections), level=level,
        replicates=replicates, inner_replicates=inner_replicates,
        grid_m=grid_m, seed=key,
        elapsed_seconds=time.perf_counter() - t0)
