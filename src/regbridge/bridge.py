"""Residual partial-sum bridges and the omega-squared statistic.

For a view sorted by one ordering column, the bridge is the running sum of
residuals at k/n, divided by sqrt(n * sigma2_hat); inside a block of tied
ordering values every node takes the sum to the end of the block, the
view's `ends` (see `ordering`).  With an intercept in the design the
residuals sum to zero, so each bridge is pinned at both ends.  The
statistic integrates the squared bridge over [0, 1], summed across
ordering columns; the integral of a piecewise-linear square has a closed
form, used here instead of any quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError, ValidationError
from .ordering import OrderedView, check_levels

__all__ = [
    "BridgeProcess",
    "residual_bridge",
    "evaluate",
    "omega_sq",
    "write_bridge_csv",
]


@dataclass(frozen=True)
class BridgeProcess:
    """Piecewise-linear process on the nodes k/n, k = 0..n.

    `values[k]` is the process value at k/n; `values[0]` is always 0.
    `column` records the ordering column the bridge came from (-1 for
    synthetic processes built directly from node values).
    """

    values: np.ndarray
    column: int = -1

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.shape[0] < 2:
            raise ValidationError("a bridge needs at least nodes 0 and 1")
        if v[0] != 0.0:
            raise ValidationError("bridge must start at 0")
        if not np.all(np.isfinite(v)):
            raise ValidationError("bridge values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0] - 1

    def nodes(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


def residual_bridge(view: OrderedView, sigma2_hat: float) -> BridgeProcess:
    """The view's running residual sums, divided by sqrt(n * sigma2_hat).

    Raises :class:`DegenerateModelError` when sigma2_hat <= 0 (a perfect
    fit leaves nothing to normalize by).
    """
    if not sigma2_hat > 0.0:
        raise DegenerateModelError(
            f"sigma2_hat={sigma2_hat:.3e}: residual variance is zero, "
            "the statistic is undefined")
    return BridgeProcess(view.sums[:, 0] / math.sqrt(view.n * sigma2_hat),
                         column=view.column)


def evaluate(bridge: BridgeProcess, t):
    """Linear interpolation of the bridge at t in [0, 1] (scalar or array)."""
    t_arr = check_levels(t, "evaluation points must lie in [0, 1]")
    out = np.interp(t_arr, bridge.nodes(), bridge.values)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def omega_sq(bridges) -> float:
    """Sum over bridges of the exact integral of the squared process.

    For each linear segment from a to b over width 1/n the integral of the
    square is (a*a + a*b + b*b) / (3n); summing segments is exact up to
    roundoff, so no quadrature error enters the statistic.
    """
    bridges = tuple(bridges)
    if not bridges:
        raise ValidationError("need at least one bridge")
    n = bridges[0].n
    total = 0.0
    for b in bridges:
        if b.n != n:
            raise ValidationError("all bridges must share the same n")
        a = b.values[:-1]
        c = b.values[1:]
        total += float(np.sum(a * a + a * c + c * c)) / (3.0 * n)
    return total


def write_bridge_csv(bridge: BridgeProcess, path) -> None:
    """Write the bridge nodes as CSV rows (t, value)."""
    nodes = bridge.nodes()
    with open(path, "w", newline="") as fh:
        fh.write("t,value\n")
        for t, v in zip(nodes, bridge.values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")
