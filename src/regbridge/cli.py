"""Command-line driver.

Three subcommands:

* ``test``      run the adequacy test on a CSV file and emit a JSON report
* ``simulate``  draw a synthetic dataset and write it as CSV
* ``verify``    run a shipped Monte Carlo verification experiment

Exit codes: 0 for a completed run (the test's accept/reject decision never
drives the exit code), 1 for I/O or validation problems (a `test` grid or
null sample too large for memory among them), 3 for a singular
design or a degenerate fit, 4 for a verification experiment that ran but
missed its tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .adequacy import AdequacyResult, run_adequacy_test
from .bridge import omega_sq, write_bridge_csv
from .dataset import (AddQuadratic, AffineQuantile, ColumnSchema,
                      GaussianCopula, Heteroscedastic, IndependenceCopula,
                      NoiseSpec, SyntheticModel, Dataset,
                      exchangeable_correlation, load_csv, sample_alternative,
                      write_csv)
from .covmodel import verify_gram_identity
from .errors import (DegenerateModelError, RegBridgeError, SingularDesignError,
                     ValidationError)
from .limitsim import write_null_samples_csv

__all__ = ["main", "TestReport", "canonical_json", "check_schema"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SINGULAR = 3
EXIT_TOLERANCE = 4

def canonical_json(obj) -> str:
    """Deterministic JSON rendering: sorted keys, fixed layout, newline end.

    NaN and infinities are not JSON, so a payload holding one raises
    ValueError (a program bug) instead of being written as ``NaN``.
    """
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False,
                      allow_nan=False) + "\n"


def _load_report_schema() -> dict:
    return json.loads(resources.files("regbridge").joinpath(
        "data/test_report.schema.json").read_text())


_SCHEMA_KEYWORDS = frozenset({
    "type", "required", "properties", "additionalProperties", "items",
    "minItems", "minimum", "exclusiveMinimum", "maximum"})
_SCHEMA_ANNOTATIONS = frozenset({"$schema", "title"})
_JSON_TYPES = {"null": type(None), "boolean": bool, "string": str,
               "array": list, "object": dict}


def _has_type(value, name: str) -> bool:
    """JSON Schema type test: a bool is no number, 1.0 is an integer."""
    if name in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return name == "number" or isinstance(value, int) or value.is_integer()
    if name not in _JSON_TYPES:
        raise ValueError(f"unsupported schema type {name!r}")
    return isinstance(value, _JSON_TYPES[name])


def check_schema(value, schema: dict, path: str = "$") -> None:
    """Raise ValueError, naming the JSON path, where `value` breaks `schema`.

    Interprets the keyword subset the shipped report schema uses: `type`
    (a name or a list of names), `required`, `properties`,
    `additionalProperties: false`, `items`, `minItems`, `minimum`,
    `exclusiveMinimum` and `maximum`, with JSON Schema's semantics (each
    keyword applies only to values of its own kind).  The annotations
    `$schema` and `title` are ignored; any other keyword, or an
    `additionalProperties` other than false, is refused, so the schema
    cannot silently outgrow the checker.
    """
    unknown = schema.keys() - _SCHEMA_KEYWORDS - _SCHEMA_ANNOTATIONS
    if schema.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties")
    if unknown:
        raise ValueError(f"{path}: unsupported schema keywords {sorted(unknown)}")

    def fail(message: str):
        raise ValueError(f"{path}: {message}")

    names = schema.get("type", ())
    names = [names] if isinstance(names, str) else names
    if names and not any(_has_type(value, name) for name in names):
        fail(f"{value!r} is not of type {' or '.join(names)}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        missing = [k for k in schema.get("required", ()) if k not in value]
        if missing:
            fail(f"missing required properties {missing}")
        extra = value.keys() - props.keys()
        if "additionalProperties" in schema and extra:
            fail(f"unexpected properties {sorted(extra)}")
        for key, sub in props.items():
            if key in value:
                check_schema(value[key], sub, f"{path}.{key}")
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fail(f"fewer than {schema['minItems']} items")
        if "items" in schema:
            for i, item in enumerate(value):
                check_schema(item, schema["items"], f"{path}[{i}]")
    elif _has_type(value, "number"):
        if "minimum" in schema and value < schema["minimum"]:
            fail(f"{value!r} is less than {schema['minimum']!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            fail(f"{value!r} is not above {schema['exclusiveMinimum']!r}")
        if "maximum" in schema and value > schema["maximum"]:
            fail(f"{value!r} is greater than {schema['maximum']!r}")


# ======================================================================
# test subcommand
# ======================================================================

@dataclass(frozen=True, eq=False)
class TestReport:
    """JSON-able summary of one adequacy test run."""

    data: Dataset
    result: AdequacyResult
    grid_m: int
    replicates: int
    seed: int

    def to_json_dict(self) -> dict:
        data, res = self.data, self.result
        names = data.regressor_names
        bridges = [{"column": names[b.column], "omega_sq_share": omega_sq([b]),
                    "max_abs": float(np.max(np.abs(b.values)))}
                   for b in res.bridges]
        intercept = (None if data.intercept_column is None
                     else names[data.intercept_column])
        return {
            "n": data.n,
            "p": data.p,
            "response": data.response_name,
            "order_columns": [names[j] for j in data.order_columns],
            "intercept": intercept,
            "theta_hat": [float(v) for v in res.fit.theta_hat],
            "sigma2_hat": float(res.fit.sigma2_hat),
            "omega_sq": float(res.statistic),
            "p_value": float(res.p_value),
            "level": float(res.level),
            "reject": bool(res.reject),
            "null_quantiles": res.null_quantiles(),
            "grid_m": self.grid_m,
            "replicates": self.replicates,
            "seed": self.seed,
            "clip_count": int(res.null.clip_count),
            "bridges": bridges,
        }

    def validated_json(self) -> str:
        """Canonical JSON of the report, checked against the shipped schema.

        Every call checks the payload against the shipped
        `data/test_report.schema.json` with `check_schema`.  A failure raises
        ValueError, which is a program bug rather than an input error, so
        it escapes `main` instead of mapping to an exit code.
        """
        payload = self.to_json_dict()
        check_schema(payload, _load_report_schema())
        return canonical_json(payload)


def _parse_columns(raw: str) -> tuple[str, ...]:
    cols = tuple(c.strip() for c in raw.split(",") if c.strip())
    if not cols:
        raise ValidationError("--order-columns needs at least one name")
    return cols


def _check_targets(args, order: tuple[str, ...]) -> None:
    """Refuse, before anything is written, a file target that is a directory
    or has no directory, and an --emit-bridges DIR that cannot be made."""
    if args.emit_bridges:
        for name in order:
            if os.sep in name or (os.altsep and os.altsep in name):
                raise ValidationError(f"--emit-bridges: ordering column "
                                      f"{name!r} holds a path separator")
        top = os.path.abspath(args.emit_bridges)
        while not os.path.lexists(top):
            top = os.path.dirname(top)
        if not os.path.isdir(top):
            raise ValidationError(f"--emit-bridges: {top!r} is not a directory")
    for flag, path in (("--out", args.out), ("--emit-null", args.emit_null)):
        if path and os.path.isdir(path):
            raise ValidationError(f"{flag}: {path!r} is a directory")
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValidationError(f"{flag}: no directory holds {path!r}")


def cmd_test(args) -> int:
    intercept = None if args.intercept.lower() == "none" else args.intercept
    if intercept is None:
        print("warning: no intercept column declared; the bridges are not "
              "pinned at t=1 and the statistic tends to run conservative",
              file=sys.stderr)
    schema = ColumnSchema(order=_parse_columns(args.order_columns),
                          response=args.response, intercept=intercept)
    _check_targets(args, schema.order)
    data = load_csv(args.input, schema)
    try:
        result = run_adequacy_test(data, grid_m=args.grid,
                                   replicates=args.replicates,
                                   seed=args.seed, level=args.level)
    except MemoryError:
        dim = len(schema.order) * args.grid
        raise ValidationError(
            f"not enough memory: at --grid {args.grid} the kernel matrix "
            f"alone takes {dim * dim * 8 / 1e9:.3g} GB") from None
    if args.emit_null:
        try:
            result.null.samples  # drawn before any output is written
        except MemoryError:
            raise ValidationError(
                f"not enough memory: --replicates {args.replicates} null "
                f"samples take {args.replicates * 8 / 1e9:.3g} GB") from None
    report = TestReport(data=data, result=result, grid_m=args.grid,
                        replicates=args.replicates, seed=args.seed)
    text = report.validated_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if args.emit_bridges:
        os.makedirs(args.emit_bridges, exist_ok=True)
        for b in result.bridges:
            name = data.regressor_names[b.column]
            write_bridge_csv(b, os.path.join(args.emit_bridges,
                                             f"bridge_{name}.csv"))
    if args.emit_null:
        write_null_samples_csv(result.null, args.emit_null)
    return EXIT_OK


# ======================================================================
# simulate subcommand
# ======================================================================

# Breach record of each `simulate --model` but h0, and power `breach.kind`.
_BREACHES = {"add-quadratic": AddQuadratic, "heteroscedastic": Heteroscedastic}


def _build_model(args) -> SyntheticModel:
    d = args.order_dim
    if d < 1:
        raise ValidationError("--order-dim must be >= 1")
    if args.copula == "independence":
        copula = IndependenceCopula(d)
    elif args.copula == "gaussian":
        copula = GaussianCopula(exchangeable_correlation(d, args.rho))
    else:
        raise ValidationError(
            f"unknown --copula {args.copula!r} (use independence or gaussian)")
    if args.quantile == "identity":
        qs = tuple(AffineQuantile() for _ in range(d))
    elif args.quantile == "affine":
        qs = tuple(AffineQuantile(shift=args.q_shift, scale=args.q_scale)
                   for _ in range(d))
    else:
        raise ValidationError(
            f"unknown --quantile {args.quantile!r} (use identity or affine)")
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
    return SyntheticModel(copula=copula, quantile_funcs=qs, theta=theta,
                          noise=NoiseSpec(args.noise, args.noise_var))


def cmd_simulate(args) -> int:
    if not (math.isfinite(args.noise_var) and args.noise_var >= 0):
        raise ValidationError(
            f"--noise-var must be finite and >= 0, got {args.noise_var}")
    model = _build_model(args)
    breach = None
    if args.model != "h0":
        if args.model not in _BREACHES:
            raise ValidationError(
                f"unknown --model {args.model!r} "
                "(use h0, add-quadratic, or heteroscedastic)")
        if not 0 <= args.breach_column < model.d1:
            raise ValidationError(
                f"--breach-column must lie in 0..{model.d1 - 1}, "
                f"got {args.breach_column}")
        if not math.isfinite(args.coef):
            raise ValidationError(f"--coef must be finite, got {args.coef}")
        breach = _BREACHES[args.model](args.coef, args.breach_column)
    write_csv(sample_alternative(model, breach, args.n, args.seed), args.out)
    return EXIT_OK


# ======================================================================
# verify subcommand
# ======================================================================

# Fixture fields that the verify flags override when given.
_OVERRIDES = {"n": "n", "replicates": "replicates", "seed": "seed",
              "alpha": "level", "grid": "grid_m"}


def _size_band(level: float, nominal: float, halfwidth: float) -> float:
    """Rate tolerance around `level`, scaled like a binomial deviation.

    Shrinks to 0 at level 1 (every p-value is <= 1, so the rate must be
    exactly 1 there) and reproduces `halfwidth` at the nominal level.
    """
    return halfwidth * math.sqrt(level * (1.0 - level)
                                 / (nominal * (1.0 - nominal)))


def _pass(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _cells(verify_name: str, points: str):
    """Runner of one case of a moment-comparison experiment in `mclab`."""
    def run(cfg: dict, args, table: str | None):
        from . import fixtures, mclab
        rep = getattr(mclab, verify_name)(
            fixtures.get_model(cfg["model"]), cfg["n"], cfg["replicates"],
            np.asarray(cfg[points], dtype=float), cfg["seed"], cfg["tolerance"])
        if table:
            rep.write_cells_csv(table)
        return rep.to_json_dict(), [
            f"{rep.experiment}[{cfg['model']}]: max |emp - target| = "
            f"{rep.max_abs_error:.4f} (tolerance {rep.tolerance:g}) "
            f"{_pass(rep.passed)}"], rep.passed
    return run


def _study(cfg: dict, args, breach=None):
    from . import fixtures, mclab
    return mclab.size_power_study(
        fixtures.get_model(cfg["model"]), breach, cfg["n_values"], cfg["level"],
        cfg["replicates"], cfg["seed"], inner_replicates=cfg["inner_replicates"],
        grid_m=cfg["grid_m"], n_jobs=args.n_jobs)


def _judged(study, checks: list[str], passed: bool):
    payload = {**study.to_json_dict(), "checks": checks, "passed": passed}
    return payload, checks, passed


def _run_size(cfg: dict, args, table):
    study, level = _study(cfg, args), cfg["level"]
    band = _size_band(level, cfg["nominal_level"],
                      cfg["band_halfwidth_at_nominal"])
    oks = [abs(rate - level) <= band for rate in study.rates]
    checks = [f"n={n}: rate {rate:.4f} vs level {level:g} "
              f"(band +/-{band:.4f}) {_pass(ok)}"
              for n, rate, ok in zip(study.n_values, study.rates, oks)]
    return _judged(study, checks, all(oks))


def _run_power(cfg: dict, args, table):
    breach = cfg["breach"]
    if breach["kind"] not in _BREACHES:
        raise ValidationError(f"unknown breach kind {breach['kind']!r}")
    study = _study(cfg, args,
                   _BREACHES[breach["kind"]](breach["coef"], breach["column"]))
    rates = study.rates
    floor = cfg["min_rate_ratio"] * cfg["level"]
    mono = all(b >= a for a, b in zip(rates, rates[1:]))
    exceeds = rates[-1] > floor
    checks = ["rates " + " -> ".join(f"{r:.4f}" for r in rates)
              + f" nondecreasing {_pass(mono)}",
              f"rate at n={study.n_values[-1]} is {rates[-1]:.4f} > {floor:g} "
              f"{_pass(exceeds)}"]
    return _judged(study, checks, mono and exceeds)


def _run_gram_identity(cfg: dict, args, table):
    from .fixtures import get_gram_case
    tol = cfg["tolerance"]
    cells = [{"case": case,
              "max_abs_error": verify_gram_identity(get_gram_case(case), 0)}
             for case in cfg["cases"]]
    lines = [f"gram-identity[{c['case']}]: max error {c['max_abs_error']:.2e} "
             f"{_pass(c['max_abs_error'] <= tol)}" for c in cells]
    worst = max(c["max_abs_error"] for c in cells)
    return ({"experiment": "gram-identity", "tolerance": tol,
             "max_abs_error": worst, "passed": worst <= tol, "cells": cells},
            lines, worst <= tol)


# Each runner takes one merged fixture case, the parsed arguments and the
# cell-table path (or None), and returns its payload, its printed lines
# and its pass flag.  Experiments in `_PER_CASE` run once per entry of
# their fixture's "cases"; the others take their fixture whole.
_EXPERIMENTS = {
    "field": _cells("verify_field_covariance", "queries"),
    "sums": _cells("verify_sum_covariance", "levels"),
    "bridges": _cells("verify_bridge_covariance", "levels"),
    "size": _run_size,
    "power": _run_power,
    "gram-identity": _run_gram_identity,
}
_PER_CASE = frozenset({"field", "sums", "bridges"})


def _ignored_flags(name: str, args, case: dict) -> list[str]:
    """The given verify flags that experiment `name` does not read.

    An override flag applies when the fixture case has the field it sets
    (``--n`` sets ``n`` or ``n_values``); only the size and power studies
    run a process pool, and only the per-case experiments write a cell
    table.
    """
    fields = set(case) | ({"n"} if "n_values" in case else set())
    flags = [flag for flag, key in _OVERRIDES.items()
             if getattr(args, flag) is not None and key not in fields]
    if args.n_jobs != 1 and name not in ("size", "power"):
        flags.append("n_jobs")
    if args.emit_table is not None and name not in _PER_CASE:
        flags.append("emit_table")
    return flags


def cmd_verify(args) -> int:
    name = args.experiment
    if name not in _EXPERIMENTS:
        raise ValidationError(
            f"unknown experiment {name!r}; choose from "
            f"{', '.join(_EXPERIMENTS)}")
    from .fixtures import load_experiment_defaults
    fixture = load_experiment_defaults()[name]
    cases = fixture.get("cases", [fixture]) if name in _PER_CASE else [fixture]
    for flag in _ignored_flags(name, args, cases[0]):
        print(f"warning: --{flag.replace('_', '-')} does not apply to "
              f"experiment {name!r}; ignored", file=sys.stderr)
    overrides = {key: getattr(args, flag) for flag, key in _OVERRIDES.items()
                 if getattr(args, flag) is not None}
    if args.n is not None:
        overrides["n_values"] = [args.n]

    results = []
    for case in cases:
        table = args.emit_table
        if table and len(cases) > 1:
            root, ext = os.path.splitext(table)
            table = f"{root}_{case['model']}{ext or '.csv'}"
        results.append(_EXPERIMENTS[name]({**case, **overrides}, args, table))
    reports, lines, oks = zip(*results)
    passed = all(oks)

    for case_lines in lines:
        for line in case_lines:
            print(line)
    if args.out:
        payload = reports[0] if len(reports) == 1 else {"experiment": name,
                                                        "cases": list(reports)}
        with open(args.out, "w") as fh:
            fh.write(canonical_json(payload))
    print(f"experiment {name!r}: {_pass(passed)}")
    return EXIT_OK if passed else EXIT_TOLERANCE


# ======================================================================
# parser and entry point
# ======================================================================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regbridge",
        description="Linear-model adequacy testing via residual partial-sum "
                    "bridges ordered by each regressor.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser(
        "test", help="run the adequacy test on a CSV file")
    p_test.add_argument("--input", required=True, help="CSV file with a header row")
    p_test.add_argument("--response", required=True, help="response column name")
    p_test.add_argument("--order-columns", required=True,
                        help="comma-separated ordering regressor names")
    p_test.add_argument("--intercept", default="none",
                        help="all-ones column name, or 'none' (default)")
    p_test.add_argument("--grid", type=int, default=100,
                        help="grid size M of the limit law (default 100)")
    p_test.add_argument("--replicates", type=int, default=10000,
                        help="size of the --emit-null sample (default 10000)")
    p_test.add_argument("--seed", type=int, default=0,
                        help="seed of the --emit-null sample")
    p_test.add_argument("--level", type=float, default=0.05,
                        help="rejection level for the report (default 0.05)")
    p_test.add_argument("--out", default=None,
                        help="write the JSON report here instead of stdout")
    p_test.add_argument("--emit-bridges", default=None, metavar="DIR",
                        help="write per-column bridge node CSVs to DIR")
    p_test.add_argument("--emit-null", default=None, metavar="PATH",
                        help="write a sorted Monte Carlo sample of the null "
                             "law as CSV")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset as CSV")
    p_sim.add_argument("--model", default="h0",
                       help="h0, add-quadratic, or heteroscedastic")
    p_sim.add_argument("--n", type=int, required=True, help="sample size")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--order-dim", type=int, default=1,
                       help="number of ordering regressors (default 1)")
    p_sim.add_argument("--theta", default=None,
                       help="comma-separated coefficients, intercept last "
                            "(default: unit slopes, zero intercept)")
    p_sim.add_argument("--copula", default="independence",
                       help="independence or gaussian")
    p_sim.add_argument("--rho", type=float, default=0.3,
                       help="exchangeable correlation for --copula gaussian")
    p_sim.add_argument("--quantile", default="identity",
                       help="identity or affine margin transform")
    p_sim.add_argument("--q-shift", type=float, default=0.0)
    p_sim.add_argument("--q-scale", type=float, default=1.0)
    p_sim.add_argument("--noise", default="normal", help="normal or uniform")
    p_sim.add_argument("--noise-var", type=float, default=1.0)
    p_sim.add_argument("--coef", type=float, default=1.0,
                       help="breach strength for the alternative models")
    p_sim.add_argument("--breach-column", type=int, default=0,
                       help="0-based ordering column the breach acts on")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser(
        "verify", help="run a shipped Monte Carlo verification experiment")
    p_ver.add_argument("--experiment", required=True,
                       help=", ".join(_EXPERIMENTS))
    p_ver.add_argument("--n", type=int, default=None,
                       help="override the fixture sample size")
    p_ver.add_argument("--replicates", type=int, default=None,
                       help="override the fixture replicate count")
    p_ver.add_argument("--seed", type=int, default=None,
                       help="override the fixture seed")
    p_ver.add_argument("--grid", type=int, default=None,
                       help="override the null-law grid size")
    p_ver.add_argument("--alpha", type=float, default=None,
                       help="override the rejection level (size/power)")
    p_ver.add_argument("--n-jobs", type=int, default=1,
                       help="process count for size/power replicates")
    p_ver.add_argument("--out", default=None, help="write a JSON report here")
    p_ver.add_argument("--emit-table", default=None, metavar="PATH",
                       help="write the cell table as CSV")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SingularDesignError, DegenerateModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (RegBridgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

if __name__ == "__main__":
    sys.exit(main())
