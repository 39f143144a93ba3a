"""Built-in Monte Carlo lab checking the distributional claims at desk scale.

Three experiments compare empirical second moments of the partial-sum
processes against closed-form covariance targets:

* the raw multivariate field over lower-left orthants, for a conditional
  mean c * (u1 - 1/2) and a constant conditional variance,
* the one-coordinate cumulative sum processes under a zero conditional
  mean (covariances across coordinates),
* the studentized residual bridges of the fitted regression against the
  plugged-in limit kernel.

The raw field is built here (`empirical_field`); the test itself never
uses it.  The sum processes are the running sums of Y in
`ordering.order_by`'s table, the routine the test's bridges read.  Both
targets are integrals of the conditional moments over boxes, in closed
form, and all empirical moments are uncentered: each compared process
has exact mean zero by construction.

A fourth experiment measures rejection rates of the full test pipeline
under the null and under model breaches.  A fifth checks the closed-form
Gram identity of `fixtures.IndependenceCovariance` by quadrature, the
lab's only use of scipy's integrators.  `cmd_simulate` and
`cmd_verify` are the CLI's ``simulate`` and ``verify`` commands.  Each
``verify`` experiment is one row of `_EXPERIMENTS`: its runner beside the
flags it reads other than the fixture overrides.  The size and power
studies share one runner and differ only in their check lines.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .adequacy import run_adequacy_test
from .bridge import evaluate, residual_bridge
from .cli import EXIT_OK, EXIT_TOLERANCE, canonical_json, check_targets
from .dataset import write_csv
from .errors import UnsupportedModelError, ValidationError
from .fixtures import (AddQuadratic, AffineQuantile, GaussianCopula,
                       Heteroscedastic, IndependenceCopula,
                       IndependenceCovariance, NoiseSpec, SyntheticModel,
                       analytic_covariance, sample_alternative,
                       sample_concomitant, sample_h0)
from .ols import fit_lse
from .ordering import all_orderings, check_levels, floor_index, order_by
from .rng import as_seed_key

__all__ = [
    "empirical_field",
    "ErrorCell",
    "VerificationReport",
    "SizePowerResult",
    "verify_field_covariance",
    "verify_sum_covariance",
    "verify_bridge_covariance",
    "verify_gram_identity",
    "size_power_study",
]

_QUAD_TOL = 1e-11


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
    `tolerance`.
    """

    experiment: str
    params: dict
    cells: tuple[ErrorCell, ...]
    tolerance: float

    @property
    def max_abs_error(self) -> float:
        return max((c.abs_error for c in self.cells), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_abs_error <= self.tolerance

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": dict(self.params),
            "tolerance": self.tolerance,
            "max_abs_error": self.max_abs_error,
            "passed": self.passed,
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


def _box_moments(model: SyntheticModel, upper) -> tuple[float, float]:
    """Integrals of m and of sigma^2 + m^2 over the box [0, upper].

    Here m(u) = c * (u1 - 1/2) with c = field_slope and sigma^2 is the
    noise variance.  Over [0, a] the first coordinate gives
    int c (x - 1/2) dx = c a (a - 1) / 2 and
    int (x - 1/2)^2 dx = ((a - 1/2)^3 + 1/8) / 3; each is multiplied by
    the product of the other box edges.
    """
    c, a = model.field_slope, float(upper[0])
    rest = float(np.prod(upper[1:]))
    return (c * a * (a - 1.0) / 2.0 * rest,
            model.noise.variance * a * rest
            + c * c * ((a - 0.5) ** 3 + 0.125) / 3.0 * rest)


def _fmt(x: float) -> str:
    return format(float(x), "g")


# ======================================================================
# Experiments
# ======================================================================

def _moment_report(experiment: str, row, labels, target, n: int,
                   replicates: int, seed, points: dict,
                   tolerance: float) -> VerificationReport:
    """Compare the uncentered second moments of replicated probes to limits.

    Replicate r holds row(key) at the stream key (seed, r): one value per
    probe.  The cell for probes a <= b is labeled (labels[a], labels[b])
    and its limit is target(a, b).  `points` joins n, replicates and the
    seed key in the report's params.
    """
    if replicates < 1:
        raise ValidationError("need at least one replicate")
    key = as_seed_key(seed)
    vals = np.empty((replicates, len(labels)))
    for r in range(replicates):
        vals[r] = row(key + (r,))
    emp = (vals.T @ vals) / replicates
    cells = tuple(ErrorCell(row=labels[a], col=labels[b],
                            empirical=float(emp[a, b]), target=float(target(a, b)))
                  for a in range(len(labels)) for b in range(a, len(labels)))
    params = {"n": n, "replicates": replicates, "seed": list(key), **points}
    return VerificationReport(experiment=experiment, params=params, cells=cells,
                              tolerance=tolerance)


def verify_field_covariance(model: SyntheticModel, n: int, replicates: int,
                       queries, seed, tolerance: float = 0.05) -> VerificationReport:
    """Compare the orthant field's covariance matrix to its limit.

    `queries` is a (q, d1) array of orthant corners.  Each replicate draws
    (X, Y) from the conditional law, evaluates the centered normalized
    field at every query, and the uncentered second-moment matrix over
    replicates is compared to the closed-form kernel.
    """
    if model.field_slope is None:
        raise ValidationError("the field experiment needs model.field_slope")
    _require_independence(model, "orthant field")
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != model.d1:
        raise ValidationError("query dimension must match the model")
    check_levels(queries, "queries must lie in the unit cube")

    centers = np.array([_box_moments(model, u)[0] for u in queries])
    return _moment_report(
        "field",
        lambda key: empirical_field(*sample_concomitant(model, n, key),
                                    queries, centers),
        [f"u={_fmt_point(u)}" for u in queries],
        lambda a, b: (_box_moments(model, np.minimum(queries[a], queries[b]))[1]
                      - centers[a] * centers[b]),
        n, replicates, seed, {"queries": queries.tolist()}, tolerance)


def _fmt_point(u: np.ndarray) -> str:
    return "(" + ";".join(_fmt(v) for v in np.atleast_1d(u)) + ")"


def verify_sum_covariance(model: SyntheticModel, n: int, replicates: int,
                      levels, seed, tolerance: float = 0.05) -> VerificationReport:
    """Compare the coordinate sum processes' covariances to their limit.

    Requires field_slope 0, a zero conditional mean.  For every
    coordinate pair and level pair the uncentered empirical covariance of
    the normalized cumulative sums is compared to the noise variance times
    the volume of the corresponding box: sigma^2 min(t1, t2) on one
    coordinate, sigma^2 t1 t2 across two.
    """
    if model.field_slope != 0.0:
        raise ValidationError(
            "the sums experiment needs field_slope 0 (a zero conditional mean), "
            f"got {model.field_slope}")
    _require_independence(model, "coordinate sum process")
    levels = np.atleast_1d(check_levels(levels))
    idx = floor_index(n, levels)

    def row(key):
        X, Y = sample_concomitant(model, n, key)
        return np.concatenate([order_by(X[:, k], Y[:, None]).sums[idx, 0]
                               for k in range(model.d1)]) / math.sqrt(n)

    probes = [(k, float(t)) for k in range(model.d1) for t in levels]

    def target(a, b):
        (k1, t1), (k2, t2) = probes[a], probes[b]
        return model.noise.variance * (min(t1, t2) if k1 == k2 else t1 * t2)

    return _moment_report(
        "sums", row, [f"S{k + 1}({_fmt(t)})" for k, t in probes], target,
        n, replicates, seed, {"levels": levels.tolist()}, tolerance)


def verify_bridge_covariance(model: SyntheticModel, n: int, replicates: int,
                             levels, seed,
                             tolerance: float = 0.05) -> VerificationReport:
    """Compare residual-bridge covariances to the plugged-in limit kernel.

    Each replicate draws a null dataset, fits it, forms the studentized
    bridges, and evaluates them at the given levels; the uncentered
    second-moment matrix over replicates is compared to the closed-form
    kernel of the model.
    """
    if model.theta is None:
        raise ValidationError("bridge experiment needs a regression model (theta)")
    cov = analytic_covariance(model)
    levels = np.atleast_1d(check_levels(levels))

    def row(key):
        data = sample_h0(model, n, key)
        fit = fit_lse(data)
        return np.concatenate([evaluate(residual_bridge(v, fit.sigma2_hat), levels)
                               for v in all_orderings(data, fit)])

    probes = [(k, float(t)) for k in range(model.d1) for t in levels]
    return _moment_report(
        "bridges", row, [f"Z{k + 1}({_fmt(t)})" for k, t in probes],
        lambda a, b: cov.khat(probes[a][0], probes[b][0], probes[a][1],
                              probes[b][1]),
        n, replicates, seed, {"levels": levels.tolist()}, tolerance)


def verify_gram_identity(model) -> float:
    """Max entrywise error of integral(b2 + h'h) dx against the Gram matrix.

    Accepts a :class:`SyntheticModel` with independent latent coordinates
    or an :class:`IndependenceCovariance` directly.  The integral runs
    over coordinate 0, which stands for all of them under one margin.
    """
    if isinstance(model, SyntheticModel):
        model = analytic_covariance(model)
    elif not isinstance(model, IndependenceCovariance):
        raise ValidationError(f"unsupported model type {type(model).__name__}")
    from scipy.integrate import quad

    G = model.gram()
    err = 0.0
    for a in range(model.p):
        for b in range(a, model.p):
            def entry(x, a=a, b=b):
                h = model.h(0, x)
                return model.b2(0, x)[a, b] + h[a] * h[b]

            val = quad(entry, 0.0, 1.0, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)[0]
            err = max(err, float(abs(val - G[a, b])))
    return err


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

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(r / self.replicates for r in self.rejections)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.mode,
            "params": {"n_values": list(self.n_values), "level": self.level,
                       "replicates": self.replicates,
                       "inner_replicates": self.inner_replicates,
                       "grid_m": self.grid_m, "seed": list(self.seed)},
            "rejections": list(self.rejections),
            "rates": list(self.rates),
        }


def _study_case(args) -> float:
    """One pipeline run; module level so process pools can pickle it."""
    model, breach, n, inner, grid_m, level, key = args
    data = sample_alternative(model, breach, n, key)
    return run_adequacy_test(data, grid_m=grid_m, replicates=inner,
                             seed=key, level=level).p_value


# The thread-count variables of OpenBLAS, OpenMP and MKL.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pinned_pool_map(fn, items, n_jobs: int) -> list:
    """`map` over a pool of spawned workers, n_jobs but at most one per CPU
    this process may run on (its affinity set, where the platform has one).

    A forked worker keeps its parent's BLAS thread pool, so several of them
    oversubscribe the cores.  Spawned workers load BLAS afresh while the
    thread variables read "1", one thread each; `os.environ` is restored
    after.  Like any spawned pool, a calling script needs the
    ``if __name__ == "__main__":`` guard.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(n_jobs, cpus)
    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            chunk = max(1, len(items) // (workers * 8))
            return list(pool.map(fn, items, chunksize=chunk))
    finally:
        for k in _BLAS_THREAD_VARS:
            del os.environ[k]
        os.environ.update({k: v for k, v in saved.items() if v is not None})


def size_power_study(model: SyntheticModel, breach, n_values, level: float,
                     replicates: int, seed, inner_replicates: int = 2000,
                     grid_m: int = 100, n_jobs: int = 1) -> SizePowerResult:
    """Rejection rate of the full test per sample size.

    `breach` None measures size under the null; otherwise power under the
    breach.  Replicate r at every n draws its data from the stream key
    (seed, r, 0), which is also the test's seed (nothing reads it: the
    p-value is exact), so rates across sample sizes are comparable under
    common randomness.  With n_jobs > 1 every (n, r) case runs in one
    process pool (see `_pinned_pool_map`); results are reduced in case
    order, so the output does not depend on scheduling.  The pool is
    imported only when n_jobs > 1, so callers that stay in-process never
    load `concurrent.futures` or `multiprocessing`.
    """
    if not 0.0 < level <= 1.0:
        raise ValidationError(f"level must lie in (0, 1], got {level}")
    if replicates < 1:
        raise ValidationError("need at least one replicate")
    if n_jobs < 1:
        raise ValidationError(f"n_jobs must be >= 1, got {n_jobs}")
    n_values = tuple(int(n) for n in n_values)
    key = as_seed_key(seed)

    cases = [(model, breach, n, inner_replicates, grid_m, level, key + (r, 0))
             for n in n_values for r in range(replicates)]
    if n_jobs > 1:
        pvals = _pinned_pool_map(_study_case, cases, n_jobs)
    else:
        pvals = [_study_case(c) for c in cases]
    rejections = tuple(
        int(sum(1 for p in pvals[k:k + replicates] if p <= level))
        for k in range(0, len(pvals), replicates))

    return SizePowerResult(
        mode="size" if breach is None else "power",
        n_values=n_values, rejections=rejections, level=level,
        replicates=replicates, inner_replicates=inner_replicates,
        grid_m=grid_m, seed=key)


# ======================================================================
# simulate and verify subcommands
# ======================================================================

# Breach record of each `simulate --model` but h0, and power `breach.kind`.
_BREACHES = {"add-quadratic": AddQuadratic, "heteroscedastic": Heteroscedastic}


def _build_model(args) -> SyntheticModel:
    d = args.order_dim
    if d < 1:
        raise ValidationError("--order-dim must be >= 1")
    copula = (IndependenceCopula(d) if args.rho is None
              else GaussianCopula(d, args.rho))
    if args.theta is None:
        theta = tuple([1.0] * d + [0.0])
    else:
        try:
            theta = tuple(float(v) for v in args.theta.split(","))
        except ValueError:
            raise ValidationError(
                f"--theta must be comma-separated numbers, got {args.theta!r}"
            ) from None
    if args.noise not in ("normal", "uniform"):
        raise ValidationError(
            f"unknown --noise {args.noise!r} (use normal or uniform)")
    return SyntheticModel(
        copula=copula, theta=theta, noise=NoiseSpec(args.noise, args.noise_var),
        margin=AffineQuantile(args.q_shift, args.q_scale))


def _warn_ignored(flags, where: str) -> None:
    for flag in flags:
        print(f"warning: --{flag.replace('_', '-')} does not apply to "
              f"{where}; ignored", file=sys.stderr)


def cmd_simulate(args) -> int:
    check_targets([("--out", args.out)])
    if not (math.isfinite(args.noise_var) and args.noise_var >= 0):
        raise ValidationError(
            f"--noise-var must be finite and >= 0, got {args.noise_var}")
    model = _build_model(args)
    breach = None
    if args.model == "h0":
        _warn_ignored([flag for flag in ("coef", "breach_column")
                       if getattr(args, flag) is not None], "--model h0")
    elif args.model not in _BREACHES:
        raise ValidationError(
            f"unknown --model {args.model!r} "
            "(use h0, add-quadratic, or heteroscedastic)")
    else:
        coef = 1.0 if args.coef is None else args.coef
        column = args.breach_column or 0
        if not 0 <= column < model.d1:
            raise ValidationError(
                f"--breach-column must lie in 0..{model.d1 - 1}, got {column}")
        if not math.isfinite(coef):
            raise ValidationError(f"--coef must be finite, got {coef}")
        breach = _BREACHES[args.model](coef, column)
    write_csv(sample_alternative(model, breach, args.n, args.seed), args.out)
    return EXIT_OK

# Fixture fields that the verify flags override when given.
_OVERRIDES = {"n": "n", "replicates": "replicates", "seed": "seed",
              "alpha": "level", "grid": "grid_m"}


def _pass(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _cells(verify, points: str):
    """Runner of one case of the moment-comparison experiment `verify`."""
    def run(cfg: dict, args, table: str | None):
        rep = verify(
            fixtures.get_model(cfg["model"]), cfg["n"], cfg["replicates"],
            np.asarray(cfg[points], dtype=float), cfg["seed"], cfg["tolerance"])
        if table:
            rep.write_cells_csv(table)
        return rep.to_json_dict(), [
            f"{rep.experiment}[{cfg['model']}]: max |emp - target| = "
            f"{rep.max_abs_error:.4f} (tolerance {rep.tolerance:g}) "
            f"{_pass(rep.passed)}"], rep.passed
    return run


def _study(checks):
    """Runner of a study: power under the fixture's "breach", else size.
    `checks(study, cfg)` yields one (line, ok) pair per check."""
    def run(cfg: dict, args, table):
        breach = cfg.get("breach")
        if breach is not None:
            if breach["kind"] not in _BREACHES:
                raise ValidationError(f"unknown breach kind {breach['kind']!r}")
            breach = _BREACHES[breach["kind"]](breach["coef"], breach["column"])
        study = size_power_study(
            fixtures.get_model(cfg["model"]), breach, cfg["n_values"],
            cfg["level"], cfg["replicates"], cfg["seed"],
            inner_replicates=cfg["inner_replicates"], grid_m=cfg["grid_m"],
            n_jobs=args.n_jobs)
        lines, oks = map(list, zip(*checks(study, cfg)))
        payload = {**study.to_json_dict(), "checks": lines, "passed": all(oks)}
        return payload, lines, payload["passed"]
    return run


def _size_checks(study, cfg: dict):
    # Rate band around the level, scaled like a binomial deviation: it
    # shrinks to 0 at level 1 (every p-value is <= 1, so the rate must be
    # exactly 1 there) and is the fixture's halfwidth at the nominal level.
    level, nominal = cfg["level"], cfg["nominal_level"]
    band = cfg["band_halfwidth_at_nominal"] * math.sqrt(
        level * (1.0 - level) / (nominal * (1.0 - nominal)))
    for n, rate in zip(study.n_values, study.rates):
        ok = abs(rate - level) <= band
        yield (f"n={n}: rate {rate:.4f} vs level {level:g} "
               f"(band +/-{band:.4f}) {_pass(ok)}"), ok


def _power_checks(study, cfg: dict):
    rates = study.rates
    floor = cfg["min_rate_ratio"] * cfg["level"]
    mono = all(b >= a for a, b in zip(rates, rates[1:]))
    exceeds = rates[-1] > floor
    return [("rates " + " -> ".join(f"{r:.4f}" for r in rates)
             + f" nondecreasing {_pass(mono)}", mono),
            (f"rate at n={study.n_values[-1]} is {rates[-1]:.4f} > {floor:g} "
             f"{_pass(exceeds)}", exceeds)]


def _run_gram_identity(cfg: dict, args, table):
    tol = cfg["tolerance"]
    cells = [{"case": case, "max_abs_error": verify_gram_identity(
        fixtures.get_gram_case(case))} for case in cfg["cases"]]
    lines = [f"gram-identity[{c['case']}]: max error {c['max_abs_error']:.2e} "
             f"{_pass(c['max_abs_error'] <= tol)}" for c in cells]
    worst = max(c["max_abs_error"] for c in cells)
    return ({"experiment": "gram-identity", "tolerance": tol,
             "max_abs_error": worst, "passed": worst <= tol, "cells": cells},
            lines, worst <= tol)


# Each experiment's runner and the flags it reads besides the overrides.
# A runner takes one merged fixture case, the parsed arguments and the
# cell-table path (or None), and returns its payload, its printed lines
# and its pass flag.  An experiment that reads --emit-table writes one
# table per case: it runs once per entry of its fixture's "cases".  The
# others take their fixture whole.
_EXPERIMENTS = {
    "field": (_cells(verify_field_covariance, "queries"), {"emit_table"}),
    "sums": (_cells(verify_sum_covariance, "levels"), {"emit_table"}),
    "bridges": (_cells(verify_bridge_covariance, "levels"), {"emit_table"}),
    "size": (_study(_size_checks), {"n_jobs"}),
    "power": (_study(_power_checks), {"n_jobs"}),
    "gram-identity": (_run_gram_identity, set()),
}


def cmd_verify(args) -> int:
    name = args.experiment
    if name not in _EXPERIMENTS:
        raise ValidationError(
            f"unknown experiment {name!r}; choose from "
            f"{', '.join(_EXPERIMENTS)}")
    run, reads = _EXPERIMENTS[name]
    fixture = fixtures.load_experiment_defaults()[name]
    per_case = "emit_table" in reads
    cases = fixture.get("cases", [fixture]) if per_case else [fixture]
    table = args.emit_table if per_case else None
    tables = [table] * len(cases)
    if table and len(cases) > 1:
        root, ext = os.path.splitext(table)
        tables = [f"{root}_{case['model']}{ext or '.csv'}" for case in cases]
    if args.n_jobs < 1:
        raise ValidationError(f"--n-jobs must be >= 1, got {args.n_jobs}")
    check_targets([("--out", args.out)] + [("--emit-table", t) for t in tables],
                  ignored=[] if per_case else [("--emit-table", args.emit_table)])

    # An override applies when the fixture case has the field it sets
    # (--n sets n or n_values); the other flags, when the row reads them.
    fields = set(cases[0]) | ({"n"} if "n_values" in cases[0] else set())
    ignored = [flag for flag, key in _OVERRIDES.items()
               if getattr(args, flag) is not None and key not in fields]
    ignored += [flag for flag, unset in (("n_jobs", 1), ("emit_table", None))
                if flag not in reads and getattr(args, flag) != unset]
    _warn_ignored(ignored, f"experiment {name!r}")
    overrides = {key: getattr(args, flag) for flag, key in _OVERRIDES.items()
                 if getattr(args, flag) is not None}
    if args.n is not None:
        overrides["n_values"] = [args.n]

    reports, lines, oks = zip(*[run({**case, **overrides}, args, t)
                                for case, t in zip(cases, tables)])
    passed = all(oks)

    for case_lines in lines:
        for line in case_lines:
            print(line)
    if args.out:
        text = canonical_json(reports[0] if len(reports) == 1 else
                              {"experiment": name, "cases": list(reports)})
        with open(args.out, "w") as fh:
            fh.write(text)
    print(f"experiment {name!r}: {_pass(passed)}")
    return EXIT_OK if passed else EXIT_TOLERANCE
