"""Observation tables and CSV ingestion.

The regression machinery consumes a :class:`Dataset`: a read-only design
matrix with marked column roles (ordering columns, optional intercept) and
a response vector.  Real data arrives through :func:`load_csv`; the Monte
Carlo lab draws its data from the synthetic models in `fixtures`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaError, ValidationError

__all__ = [
    "Dataset",
    "ColumnSchema",
    "load_csv",
    "write_csv",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


# ======================================================================
# Dataset
# ======================================================================

@dataclass(frozen=True)
class Dataset:
    """Immutable observation table with column roles.

    Parameters
    ----------
    regressors : ndarray, shape (n, p)
        Design matrix, intercept column included when present.
    response : ndarray, shape (n,)
        Observed responses.
    order_columns : tuple of int
        Indices of the regressor columns the test orders by.
    intercept_column : int or None
        Index of the all-ones column, if the design has one.
    regressor_names, response_name
        Labels used for reports and CSV round trips.
    """

    regressors: np.ndarray
    response: np.ndarray
    order_columns: tuple[int, ...]
    intercept_column: int | None = None
    regressor_names: tuple[str, ...] = ()
    response_name: str = "y"

    def __post_init__(self):
        reg = np.asarray(self.regressors, dtype=float)
        resp = np.asarray(self.response, dtype=float)
        if reg.ndim != 2:
            raise ValidationError("regressor matrix must be 2-dimensional")
        n, p = reg.shape
        if n < 1:
            raise ValidationError("n >= 1 required: data section is empty")
        if p < 1:
            raise ValidationError("at least one regressor column required")
        if resp.shape != (n,):
            raise ValidationError(
                f"response has shape {resp.shape}, expected ({n},)")
        if not (np.all(np.isfinite(reg)) and np.all(np.isfinite(resp))):
            raise ValidationError("all entries must be finite real numbers")

        order = tuple(int(j) for j in self.order_columns)
        if len(set(order)) != len(order):
            raise ValidationError("order columns must be distinct")
        for j in order:
            if not 0 <= j < p:
                raise ValidationError(f"order column {j} outside 0..{p - 1}")

        ic = self.intercept_column
        if ic is not None:
            ic = int(ic)
            if not 0 <= ic < p:
                raise ValidationError(f"intercept column {ic} outside 0..{p - 1}")
            if ic in order:
                raise ValidationError("the intercept cannot be an ordering column")
            if not np.all(reg[:, ic] == 1.0):
                raise ValidationError("intercept column must be identically 1")

        names = tuple(str(s) for s in self.regressor_names)
        if not names:
            names = tuple(f"x{j + 1}" for j in range(p))
        if len(names) != p:
            raise ValidationError(
                f"{len(names)} regressor names given for {p} columns")
        if len(set(names)) != p:
            raise ValidationError("regressor names must be distinct")

        object.__setattr__(self, "regressors", _readonly(reg))
        object.__setattr__(self, "response", _readonly(resp))
        object.__setattr__(self, "order_columns", order)
        object.__setattr__(self, "intercept_column", ic)
        object.__setattr__(self, "regressor_names", names)
        object.__setattr__(self, "response_name", str(self.response_name))

    @property
    def n(self) -> int:
        return self.regressors.shape[0]

    @property
    def p(self) -> int:
        return self.regressors.shape[1]


# ======================================================================
# CSV ingestion
# ======================================================================

@dataclass(frozen=True)
class ColumnSchema:
    """Column-role mapping used by :func:`load_csv`.

    `order` names the regressors the test orders by, `response` names the
    response column, and `intercept` optionally names an all-ones column.
    The design holds exactly the `order` and `intercept` columns.
    """

    order: tuple[str, ...]
    response: str
    intercept: str | None = None

    def __post_init__(self):
        order = tuple(str(s) for s in self.order)
        object.__setattr__(self, "order", order)
        if not order:
            raise ValidationError("schema needs at least one ordering column")
        roles = list(order) + [self.response]
        if self.intercept is not None:
            roles.append(self.intercept)
        if len(set(roles)) != len(roles):
            raise ValidationError("schema assigns one column two roles")


def load_csv(path, schema: ColumnSchema) -> Dataset:
    """Read a headed CSV file into a :class:`Dataset`.

    The file is UTF-8, with or without a byte-order mark.  Regressor
    columns keep the order they have in the file.  Columns not named by
    the schema are ignored.  Raises :class:`SchemaError` for missing or
    duplicated header names and :class:`ParseError` for bytes that are
    not UTF-8, for text the CSV reader refuses (such as a cell over its
    field size limit) and for cells that are not finite numbers.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: file is empty")
            header = [h.strip() for h in header]
            dupes = {h for h in header if header.count(h) > 1}
            if dupes:
                raise SchemaError(f"{path}: duplicated header names {sorted(dupes)}")

            wanted = list(schema.order)
            if schema.intercept is not None:
                wanted.append(schema.intercept)
            missing = [c for c in wanted + [schema.response] if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing columns {missing}")

            keep = [name for name in header if name in set(wanted)]
            reg_pos = [header.index(name) for name in keep]
            resp_pos = header.index(schema.response)

            reg_rows: list[list[float]] = []
            resp_rows: list[float] = []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}")
                reg_rows.append([_parse_cell(path, lineno, header[k], row[k])
                                 for k in reg_pos])
                resp_rows.append(_parse_cell(path, lineno, header[resp_pos], row[resp_pos]))
    except UnicodeDecodeError:
        raise ParseError(f"{path}: the file is not UTF-8 text") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None

    regressors = np.array(reg_rows, dtype=float).reshape(len(reg_rows), len(keep))
    response = np.array(resp_rows, dtype=float)
    order_idx = tuple(keep.index(name) for name in schema.order)
    icol = keep.index(schema.intercept) if schema.intercept is not None else None
    return Dataset(regressors, response, order_idx, icol,
                   regressor_names=tuple(keep), response_name=schema.response)


def _parse_cell(path, lineno: int, colname: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"{path}: row {lineno}, column {colname!r}: cannot parse {cell!r}")
    if not math.isfinite(value):
        raise ParseError(
            f"{path}: row {lineno}, column {colname!r}: non-finite value {cell!r}")
    return value


def write_csv(data: Dataset, path) -> None:
    """Write a dataset back to CSV (regressor columns, then the response).

    Floats are serialized with ``repr``, so a write/load round trip is
    bit-exact.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(data.regressor_names) + [data.response_name])
        for i in range(data.n):
            writer.writerow([repr(float(v)) for v in data.regressors[i]]
                            + [repr(float(data.response[i]))])

