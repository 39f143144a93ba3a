"""Command-line driver.

Three subcommands:

* ``test``      run the adequacy test on a CSV file and emit a JSON report
* ``simulate``  draw a synthetic dataset and write it as CSV
* ``verify``    run a shipped Monte Carlo verification experiment

The last two live in `mclab`, which loads only when one of them runs.
Exit codes: 0 for a completed run (the test's accept/reject decision never
drives the exit code), 1 for I/O or validation problems (a `test` grid or
null sample too large for memory among them), 3 for a singular design or
a degenerate fit, 4 for a verification experiment that ran but missed
its tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .adequacy import AdequacyResult, run_adequacy_test
from .bridge import omega_sq, write_bridge_csv
from .dataset import ColumnSchema, Dataset, load_csv
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


def _bridge_path(folder: str, column: str) -> str:
    return os.path.join(folder, f"bridge_{column}.csv")


def _file_key(path: str):
    """One key per file: its device and inode, or, unmade, its real path."""
    try:
        stat = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return stat.st_dev, stat.st_ino


def check_targets(files, bridge_dir=None, columns=(), source=None) -> None:
    """Refuse, before anything is read or written, a bad output target.

    `files` holds (flag, path) pairs, a path of None unused: a file target
    that is a directory or has no directory is refused.  So is an
    --emit-bridges `bridge_dir` that cannot be made, or whose bridge file
    for one of `columns` is a directory.  No two targets, the bridge
    directory and its bridge files included, may name one file (through a
    symbolic or hard link too), and none may name `source`, the (flag,
    path) pair of the input.
    """
    files = [(flag, path) for flag, path in files if path]
    claimed = [source] if source else []
    if bridge_dir:
        for name in columns:
            if os.sep in name or (os.altsep and os.altsep in name):
                raise ValidationError(f"--emit-bridges: ordering column "
                                      f"{name!r} holds a path separator")
        top = os.path.abspath(bridge_dir)
        while not os.path.lexists(top):
            top = os.path.dirname(top)
        if not os.path.isdir(top):
            raise ValidationError(f"--emit-bridges: {top!r} is not a directory")
        claimed.append(("--emit-bridges", bridge_dir))
        if os.path.isdir(bridge_dir):
            files = [("--emit-bridges", _bridge_path(bridge_dir, name))
                     for name in columns] + files
    for flag, path in files:
        if os.path.isdir(path):
            raise ValidationError(f"{flag}: {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValidationError(f"{flag}: no directory holds {path!r}")
    seen = {}
    for flag, path in claimed + files:
        key = _file_key(path)
        if key in seen:
            raise ValidationError(f"{seen[key][0]} {seen[key][1]!r} and "
                                  f"{flag} {path!r} name one file")
        seen[key] = flag, path


def cmd_test(args) -> int:
    intercept = None if args.intercept.lower() == "none" else args.intercept
    if intercept is None:
        print("warning: no intercept column declared; the bridges are not "
              "pinned at t=1 and the statistic tends to run conservative",
              file=sys.stderr)
    schema = ColumnSchema(order=_parse_columns(args.order_columns),
                          response=args.response, intercept=intercept)
    check_targets([("--out", args.out), ("--emit-null", args.emit_null)],
                  args.emit_bridges, schema.order, ("--input", args.input))
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
            write_bridge_csv(b, _bridge_path(args.emit_bridges,
                                             data.regressor_names[b.column]))
    if args.emit_null:
        write_null_samples_csv(result.null, args.emit_null)
    return EXIT_OK


# ======================================================================
# parser and entry point
# ======================================================================

def _lab_command(name: str):
    """The `mclab` subcommand `name`, imported when it runs."""
    def run(args):
        from . import mclab
        return getattr(mclab, name)(args)
    return run


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
    p_sim.add_argument("--rho", type=float, default=None,
                       help="draw the ordering regressors from an exchangeable "
                            "Gaussian copula with this correlation "
                            "(default: independent)")
    p_sim.add_argument("--q-shift", type=float, default=0.0,
                       help="shift a of every margin x = a + b * u (default 0)")
    p_sim.add_argument("--q-scale", type=float, default=1.0,
                       help="scale b of every margin x = a + b * u (default 1)")
    p_sim.add_argument("--noise", default="normal", help="normal or uniform")
    p_sim.add_argument("--noise-var", type=float, default=1.0)
    p_sim.add_argument("--coef", type=float, default=None,
                       help="breach strength for the alternative models "
                            "(default 1)")
    p_sim.add_argument("--breach-column", type=int, default=None,
                       help="0-based ordering column the breach acts on "
                            "(default 0)")
    p_sim.set_defaults(func=_lab_command("cmd_simulate"))

    p_ver = sub.add_parser(
        "verify", help="run a shipped Monte Carlo verification experiment")
    p_ver.add_argument("--experiment", required=True,
                       help="field, sums, bridges, size, power, gram-identity")
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
                       help="worker processes for size/power replicates "
                            "(at most one per CPU)")
    p_ver.add_argument("--out", default=None, help="write a JSON report here")
    p_ver.add_argument("--emit-table", default=None, metavar="PATH",
                       help="write the cell table as CSV")
    p_ver.set_defaults(func=_lab_command("cmd_verify"))
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
