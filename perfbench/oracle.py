"""Output checks that do not go through regbridge.

The omega-squared statistic is recomputed from the raw arrays with numpy
alone, and p-values are compared against references stored in
reference.json, computed by Imhof (1961) inversion of the weighted
chi-square law of the grid statistic.
"""

from __future__ import annotations

import json
import math

import numpy as np

OMEGA_RTOL = 1e-9
P_VALUE_SES = 4.0


def omega_sq(X: np.ndarray, y: np.ndarray, order_columns) -> float:
    """lstsq residuals, sorted per column, exact integral of the squared bridge."""
    n, p = X.shape
    theta = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ theta
    scale = math.sqrt(n * float(resid @ resid) / (n - p))
    total = 0.0
    for j in order_columns:
        z = np.concatenate(([0.0], np.cumsum(resid[np.argsort(X[:, j], kind="stable")])))
        z /= scale
        a, b = z[:-1], z[1:]
        total += float(np.sum(a * a + a * b + b * b)) / (3.0 * n)
    return total


def imhof_sf(x: float, weights: np.ndarray) -> float:
    """P(sum_k w_k chi2_1 > x) by Imhof's inversion formula."""
    from scipy.integrate import quad

    lam = np.asarray(weights, dtype=float)
    lam = lam[lam > 0.0]

    def integrand(u):
        theta = 0.5 * np.sum(np.arctan(lam * u)) - 0.5 * x * u
        rho = np.exp(0.25 * np.sum(np.log1p((lam * u) ** 2)))
        return math.sin(theta) / (u * rho)

    val = quad(integrand, 0.0, np.inf, limit=2000, epsabs=1e-12, epsrel=1e-10)[0]
    return 0.5 + val / math.pi


def p_value_tolerance(p_ref: float, replicates: int) -> float:
    """Four Monte Carlo standard errors, plus the 1/(R+1) resolution."""
    se = math.sqrt(p_ref * (1.0 - p_ref) / replicates)
    return P_VALUE_SES * se + 1.0 / (replicates + 1.0)


def check_report(text: str, schema: dict, expect: dict, omega: float,
                 p_ref: float) -> list[str]:
    """Problems found in one `regbridge test` report (empty when correct)."""
    import jsonschema

    problems = []
    try:
        report = json.loads(text)
        jsonschema.validate(report, schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        return [f"report is not valid: {exc}"]
    for key, want in expect.items():
        if report[key] != want:
            problems.append(f"report {key}={report[key]!r}, expected {want!r}")
    if abs(report["omega_sq"] - omega) > OMEGA_RTOL * abs(omega):
        problems.append(f"omega_sq {report['omega_sq']!r} differs from the "
                        f"independent recompute {omega!r}")
    tol = p_value_tolerance(p_ref, expect["replicates"])
    if abs(report["p_value"] - p_ref) > tol:
        problems.append(f"p_value {report['p_value']!r} is more than {tol:.4g} "
                        f"from the reference {p_ref!r}")
    return problems


def size_band(rejections: int, replicates: int, level: float) -> list[str]:
    """Rejection rate within three binomial standard deviations of the level."""
    sd = math.sqrt(level * (1.0 - level) / replicates)
    rate = rejections / replicates
    if abs(rate - level) > 3.0 * sd:
        return [f"rejection rate {rate:.4f} over {replicates} replicates is "
                f"outside {level} +- 3 x {sd:.4f}"]
    return []
