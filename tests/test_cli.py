"""Command-line driver: subcommands, report format, and exit codes."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from regbridge.cli import (EXIT_INPUT, EXIT_OK, EXIT_SINGULAR, EXIT_TOLERANCE,
                           canonical_json, main)


def run_simulate(tmp_path, name="data.csv", n=120, seed=3, extra=()):
    path = tmp_path / name
    rc = main(["simulate", "--model", "h0", "--n", str(n), "--seed", str(seed),
               "--theta", "2,1", "--out", str(path), *extra])
    assert rc == EXIT_OK
    return path


def run_test(tmp_path, data_path, extra=()):
    out = tmp_path / "report.json"
    rc = main(["test", "--input", str(data_path), "--response", "y",
               "--order-columns", "x1", "--intercept", "const",
               "--grid", "20", "--replicates", "200", "--seed", "1",
               "--out", str(out), *extra])
    return rc, out


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


# ======================================================================
# test subcommand
# ======================================================================

class TestTestCommand:
    def test_simulate_then_test_round_trip(self, tmp_path):
        data_path = run_simulate(tmp_path)
        rc, out = run_test(tmp_path, data_path)
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["n"] == 120
        assert report["order_columns"] == ["x1"]
        assert report["intercept"] == "const"
        assert 0.0 < report["p_value"] <= 1.0
        assert report["sigma2_hat"] > 0.0
        assert len(report["theta_hat"]) == 2
        assert report["clip_count"] >= 1
        assert len(report["bridges"]) == 1
        assert report["bridges"][0]["column"] == "x1"

    def test_reports_are_byte_identical(self, tmp_path):
        data_path = run_simulate(tmp_path)
        _, out1 = run_test(tmp_path, data_path)
        first = out1.read_bytes()
        _, out2 = run_test(tmp_path, data_path)
        assert out2.read_bytes() == first

    def test_report_layout_is_canonical(self, tmp_path):
        data_path = run_simulate(tmp_path)
        _, out = run_test(tmp_path, data_path)
        text = out.read_text()
        assert text == canonical_json(json.loads(text))

    def test_stdout_when_no_out(self, tmp_path, capsys):
        data_path = run_simulate(tmp_path, n=60)
        rc = main(["test", "--input", str(data_path), "--response", "y",
                   "--order-columns", "x1", "--intercept", "const",
                   "--grid", "10", "--replicates", "150", "--seed", "1"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 60

    def test_missing_intercept_warns(self, tmp_path, capsys):
        data_path = run_simulate(tmp_path, n=60)
        rc = main(["test", "--input", str(data_path), "--response", "y",
                   "--order-columns", "x1",
                   "--grid", "10", "--replicates", "150", "--seed", "1",
                   "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_OK
        assert "warning" in capsys.readouterr().err
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["intercept"] is None

    def test_emit_bridges_and_null(self, tmp_path):
        data_path = run_simulate(tmp_path, n=50)
        bridge_dir = tmp_path / "bridges"
        null_path = tmp_path / "null.csv"
        rc, _ = run_test(tmp_path, data_path,
                         extra=("--emit-bridges", str(bridge_dir),
                                "--emit-null", str(null_path)))
        assert rc == EXIT_OK
        bridge_file = bridge_dir / "bridge_x1.csv"
        assert bridge_file.exists()
        with open(bridge_file, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 51
        assert float(rows[0]["value"]) == 0.0
        null_lines = null_path.read_text().strip().split("\n")
        assert len(null_lines) == 201

    def test_multiple_ordering_columns(self, tmp_path):
        path = tmp_path / "two.csv"
        rc = main(["simulate", "--model", "h0", "--n", "80", "--seed", "5",
                   "--order-dim", "2", "--out", str(path)])
        assert rc == EXIT_OK
        out = tmp_path / "r.json"
        rc = main(["test", "--input", str(path), "--response", "y",
                   "--order-columns", "x1,x2", "--intercept", "const",
                   "--grid", "10", "--replicates", "150", "--seed", "2",
                   "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert [b["column"] for b in report["bridges"]] == ["x1", "x2"]


class TestTestExitCodes:
    def test_missing_column_is_input_error(self, tmp_path, capsys):
        data_path = run_simulate(tmp_path, n=40)
        rc = main(["test", "--input", str(data_path), "--response", "nope",
                   "--order-columns", "x1", "--intercept", "const"])
        assert rc == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        rc = main(["test", "--input", str(tmp_path / "absent.csv"),
                   "--response", "y", "--order-columns", "x1"])
        assert rc == EXIT_INPUT

    def test_too_few_replicates_is_input_error(self, tmp_path):
        data_path = run_simulate(tmp_path, n=40)
        rc = main(["test", "--input", str(data_path), "--response", "y",
                   "--order-columns", "x1", "--intercept", "const",
                   "--replicates", "50"])
        assert rc == EXIT_INPUT

    def test_collinear_design_exits_singular(self, tmp_path):
        path = tmp_path / "collinear.csv"
        rng = np.random.default_rng(0)
        xs = rng.uniform(size=12)
        write_rows(path, ["x1", "x2", "const", "y"],
                   [[x, 2.0 * x, 1.0, rng.uniform()] for x in xs])
        rc = main(["test", "--input", str(path), "--response", "y",
                   "--order-columns", "x1,x2", "--intercept", "const",
                   "--grid", "10", "--replicates", "150"])
        assert rc == EXIT_SINGULAR

    def test_zero_residuals_exit_degenerate(self, tmp_path):
        # A response that is exactly in the column span leaves zero
        # residual variance, so no bridge can be studentized.
        path = tmp_path / "exact.csv"
        xs = np.linspace(0.05, 0.95, 15)
        write_rows(path, ["x1", "const", "y"],
                   [[x, 1.0, 0.0] for x in xs])
        rc = main(["test", "--input", str(path), "--response", "y",
                   "--order-columns", "x1", "--intercept", "const",
                   "--grid", "10", "--replicates", "150"])
        assert rc == EXIT_SINGULAR


# ======================================================================
# simulate subcommand
# ======================================================================

class TestSimulateCommand:
    def test_writes_header_and_rows(self, tmp_path):
        path = run_simulate(tmp_path, n=25)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        assert set(rows[0]) == {"x1", "const", "y"}
        assert all(float(r["const"]) == 1.0 for r in rows)

    def test_same_seed_same_file(self, tmp_path):
        a = run_simulate(tmp_path, name="a.csv", seed=9)
        b = run_simulate(tmp_path, name="b.csv", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_breach_models_differ_from_h0(self, tmp_path):
        base = run_simulate(tmp_path, name="h0.csv", seed=4)
        alt = tmp_path / "alt.csv"
        rc = main(["simulate", "--model", "add-quadratic", "--coef", "2.0",
                   "--n", "120", "--seed", "4", "--theta", "2,1",
                   "--out", str(alt)])
        assert rc == EXIT_OK
        with open(base, newline="") as fh:
            rows_h0 = list(csv.DictReader(fh))
        with open(alt, newline="") as fh:
            rows_alt = list(csv.DictReader(fh))
        # Same latent draws, response shifted by coef * x^2.
        for r0, r1 in zip(rows_h0, rows_alt):
            assert r0["x1"] == r1["x1"]
            x = float(r0["x1"])
            assert float(r1["y"]) - float(r0["y"]) == pytest.approx(
                2.0 * x * x, abs=1e-12)

    def test_heteroscedastic_model_runs(self, tmp_path):
        path = tmp_path / "het.csv"
        rc = main(["simulate", "--model", "heteroscedastic", "--coef", "3.0",
                   "--n", "40", "--seed", "2", "--out", str(path)])
        assert rc == EXIT_OK
        assert path.exists()

    def test_unknown_copula_is_input_error(self, tmp_path, capsys):
        rc = main(["simulate", "--model", "h0", "--n", "10",
                   "--copula", "clayton", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_INPUT
        assert "copula" in capsys.readouterr().err

    def test_unknown_model_is_input_error(self, tmp_path):
        rc = main(["simulate", "--model", "cubic", "--n", "10",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_INPUT

    def test_gaussian_copula_round_trip(self, tmp_path):
        path = tmp_path / "dep.csv"
        rc = main(["simulate", "--model", "h0", "--n", "90", "--seed", "6",
                   "--order-dim", "2", "--copula", "gaussian", "--rho", "0.5",
                   "--out", str(path)])
        assert rc == EXIT_OK
        rc = main(["test", "--input", str(path), "--response", "y",
                   "--order-columns", "x1,x2", "--intercept", "const",
                   "--grid", "10", "--replicates", "150", "--seed", "3",
                   "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_OK


# ======================================================================
# verify subcommand
# ======================================================================

class TestVerifyCommand:
    def test_gram_identity_passes(self, tmp_path, capsys):
        out = tmp_path / "gram.json"
        rc = main(["verify", "--experiment", "gram-identity",
                   "--out", str(out)])
        captured = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "experiment 'gram-identity': PASS" in captured
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert len(payload["cells"]) == 4

    def test_bridges_with_overrides_and_tables(self, tmp_path, capsys):
        table = tmp_path / "cells.csv"
        rc = main(["verify", "--experiment", "bridges", "--n", "100",
                   "--replicates", "200", "--out", str(tmp_path / "b.json"),
                   "--emit-table", str(table)])
        assert rc == EXIT_OK
        captured = capsys.readouterr().out
        assert "bridges[single-uniform]" in captured
        assert "bridges[two-uniform]" in captured
        # Two fixture cases: the table path gets a per-model suffix.
        assert (tmp_path / "cells_single-uniform.csv").exists()
        assert (tmp_path / "cells_two-uniform.csv").exists()
        payload = json.loads((tmp_path / "b.json").read_text())
        assert {c["experiment"] for c in payload["cases"]} == {"bridges"}

    def test_tolerance_miss_exits_4(self, capsys):
        # 100 replicates cannot hit the shipped 5% tolerance.
        rc = main(["verify", "--experiment", "field", "--replicates", "100"])
        assert rc == EXIT_TOLERANCE
        assert "FAIL" in capsys.readouterr().out

    def test_size_banding_at_level_one(self, capsys):
        rc = main(["verify", "--experiment", "size", "--alpha", "1.0",
                   "--n", "40", "--replicates", "5",
                   "--inner-replicates", "100", "--grid", "10"])
        assert rc == EXIT_OK
        assert "rate 1.0000" in capsys.readouterr().out

    def test_power_checks_with_overrides(self, tmp_path, capsys):
        out = tmp_path / "power.json"
        rc = main(["verify", "--experiment", "power", "--n", "80",
                   "--replicates", "20", "--inner-replicates", "200",
                   "--alpha", "0.1", "--grid", "20", "--out", str(out)])
        assert rc == EXIT_OK
        captured = capsys.readouterr().out
        assert "nondecreasing PASS" in captured
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "power"
        assert payload["rates"][-1] > 0.2

    def test_unknown_experiment_is_input_error(self, capsys):
        rc = main(["verify", "--experiment", "sideways"])
        assert rc == EXIT_INPUT
        assert "unknown experiment" in capsys.readouterr().err


# ======================================================================
# entry point
# ======================================================================

class TestEntryPoint:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "regbridge.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "test" in proc.stdout and "simulate" in proc.stdout

    def test_import_path_skips_scipy_quadrature(self):
        # `regbridge test` never integrates, so start-up must not pay for
        # scipy.integrate or scipy.special; the lab imports them on use.
        code = ("import sys, regbridge, regbridge.cli; "
                "print(sorted(m for m in ('scipy.integrate', 'scipy.special') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
