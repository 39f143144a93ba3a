"""Command-line driver: subcommands, report format, and exit codes."""

import copy
import csv
import functools
import json
import operator
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import regbridge as rb
from regbridge import cli
from regbridge.cli import (EXIT_INPUT, EXIT_OK, EXIT_SINGULAR, EXIT_TOLERANCE,
                           canonical_json, check_schema, main)

# A numpy RuntimeWarning raised inside a command would reach a CLI user's
# terminal; here it fails the test instead.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


def tree_bytes(root):
    """Every path under `root`, with a file's bytes (None for a directory)."""
    return {path: path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


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

    def test_grid_too_large_for_memory_is_input_error(self, tmp_path, capsys,
                                                       monkeypatch):
        # A 10^5-point grid needs an 80 GB kernel matrix.  Its allocation
        # failure is stood in for, so that no host is asked for 80 GB.
        import regbridge.adequacy

        def no_memory(cov, grid):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(regbridge.adequacy, "build_grid_covariance",
                            no_memory)
        data_path = run_simulate(tmp_path, n=40)
        out = tmp_path / "r.json"
        rc = main(["test", "--input", str(data_path), "--response", "y",
                   "--order-columns", "x1", "--intercept", "const",
                   "--grid", "100000", "--out", str(out)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory: at --grid 100000")
        assert "takes 80 GB" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_replicates_only_cost_memory_when_sampled(self, tmp_path, capsys,
                                                      monkeypatch):
        # 10^11 replicates are 800 GB once drawn: only --emit-null draws,
        # and there the allocation failure (stood in for here, so that no
        # host is asked for 800 GB) is an input error.
        from regbridge.limitsim import NullDistribution

        data_path = run_simulate(tmp_path, n=40)
        base = ["test", "--input", str(data_path), "--response", "y",
                "--order-columns", "x1", "--intercept", "const",
                "--grid", "10", "--replicates", "100000000000"]
        out, null = tmp_path / "r.json", tmp_path / "null.csv"
        assert main(base + ["--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["replicates"] == 10 ** 11
        out.unlink()

        def no_memory(self):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(NullDistribution, "samples", property(no_memory))
        rc = main(base + ["--out", str(out), "--emit-null", str(null)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory: --replicates 100000000000")
        assert "Traceback" not in err
        assert not out.exists() and not null.exists()

    def test_missing_file_is_input_error(self, tmp_path):
        rc = main(["test", "--input", str(tmp_path / "absent.csv"),
                   "--response", "y", "--order-columns", "x1"])
        assert rc == EXIT_INPUT

    def test_byte_order_mark_is_read_past(self, tmp_path):
        # Spreadsheet programs save UTF-8 CSV with a leading BOM, which
        # once became part of the first header name.
        data_path = run_simulate(tmp_path)
        rc, out = run_test(tmp_path, data_path)
        plain = out.read_bytes()
        bom_path = tmp_path / "bom.csv"
        bom_path.write_bytes(b"\xef\xbb\xbf" + data_path.read_bytes())
        rc, out = run_test(tmp_path, bom_path)
        assert rc == EXIT_OK
        assert out.read_bytes() == plain

    def test_non_utf8_byte_is_input_error(self, tmp_path, capsys):
        data_path = run_simulate(tmp_path, n=40)
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(data_path.read_bytes() + b"0.5,1,\xe9\n")
        capsys.readouterr()
        rc, out = run_test(tmp_path, bad)
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err.startswith(f"error: {bad}: the file is not UTF-8 text")
        assert "Traceback" not in err
        assert not out.exists()

    def test_oversized_cell_is_input_error(self, tmp_path, capsys):
        data_path = run_simulate(tmp_path, n=40)
        big = tmp_path / "big.csv"
        big.write_text(data_path.read_text() + "1" * 131_073 + ",1,1\n")
        capsys.readouterr()
        rc, out = run_test(tmp_path, big)
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err.startswith(f"error: {big}: line 42: field larger than")
        assert "Traceback" not in err
        assert not out.exists()

    def test_path_separator_in_bridge_column_is_input_error(self, tmp_path,
                                                            capsys):
        data_path = tmp_path / "sep.csv"
        write_rows(data_path, ["a/b", "const", "y"],
                   [(k / 10, 1, k * 7 % 10) for k in range(10)])
        bridge_dir = tmp_path / "out"
        rc = main(["test", "--input", str(data_path), "--response", "y",
                   "--order-columns", "a/b", "--intercept", "const",
                   "--out", str(tmp_path / "report.json"),
                   "--emit-bridges", str(bridge_dir)])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err.startswith("error: --emit-bridges: ordering column 'a/b'")
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()
        assert not bridge_dir.exists()

    @pytest.mark.parametrize("target", [
        ("--emit-null", "nodir/null.csv", "--out", "r.json"),
        ("--emit-bridges", "data.csv"),
        ("--out", "."),
    ], ids=["emit-null-without-directory", "emit-bridges-onto-file",
            "out-onto-directory"])
    def test_unwritable_target_is_input_error(self, tmp_path, monkeypatch,
                                              capsys, target):
        # Every target is checked before the first write: the run writes
        # no report, on disk or stdout, and names the flag and path.
        run_simulate(tmp_path, n=50)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        rc = main(["test", "--input", "data.csv", "--response", "y",
                   "--order-columns", "x1", "--intercept", "const", *target])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: {target[0]}: ")
        assert target[1] in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_bridge_file_that_is_a_directory_is_input_error(
            self, tmp_path, monkeypatch, capsys):
        # An existing --emit-bridges DIR is looked into before the report
        # is written.
        run_simulate(tmp_path, n=50)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bdir" / "bridge_x1.csv").mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        rc = main(["test", "--input", "data.csv", "--response", "y",
                   "--order-columns", "x1", "--intercept", "const",
                   "--out", "r.json", "--emit-bridges", "bdir"])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert out == ""
        bridge = os.path.join("bdir", "bridge_x1.csv")
        assert err == f"error: --emit-bridges: {bridge!r} is a directory\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flags, named", [
        (("--out", "r.json", "--emit-null", "r.json"),
         "--out 'r.json' and --emit-null 'r.json'"),
        (("--out", "r.json", "--emit-null", "./r.json"),
         "--out 'r.json' and --emit-null './r.json'"),
        (("--emit-null", "bdir/bridge_x1.csv", "--emit-bridges", "bdir"),
         "--emit-bridges 'bdir/bridge_x1.csv' and "
         "--emit-null 'bdir/bridge_x1.csv'"),
        (("--out", "new", "--emit-bridges", "new"),
         "--emit-bridges 'new' and --out 'new'"),
    ], ids=["out-and-null", "out-and-null-spelled-apart",
            "null-onto-bridge-file", "out-onto-new-bridge-dir"])
    def test_outputs_naming_one_file_are_input_error(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     flags, named):
        # Two outputs of one run may not name one file, or one would be
        # lost; the run writes nothing.
        run_simulate(tmp_path, n=50)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bdir").mkdir()
        (tmp_path / "r.json").write_text("kept\n")
        before = tree_bytes(tmp_path)
        rc = main(["test", "--input", "data.csv", "--response", "y",
                   "--order-columns", "x1", "--intercept", "const",
                   "--replicates", "200", *flags])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == f"error: {named} name one file\n"
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("flags", [
        ("--out", "demo.csv"),
        ("--emit-null", "./demo.csv", "--replicates", "200"),
        ("--out", "r.json", "--emit-bridges", "."),
        ("--out", "link.csv"),
    ], ids=["out", "emit-null", "bridge-file", "hard-link"])
    def test_output_onto_input_is_input_error(self, tmp_path, monkeypatch,
                                              capsys, flags):
        # Checked before the input is read: the data keeps its bytes.
        monkeypatch.chdir(tmp_path)
        name = "bridge_x1.csv" if "--emit-bridges" in flags else "demo.csv"
        run_simulate(tmp_path, name=name, n=50)
        if "link.csv" in flags:
            os.link(name, "link.csv")
        before = tree_bytes(tmp_path)
        rc = main(["test", "--input", name, "--response", "y",
                   "--order-columns", "x1", "--intercept", "const", *flags])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: --input {name!r} and ")
        assert err.endswith(" name one file\n") and err.count("\n") == 1
        assert tree_bytes(tmp_path) == before

    def test_ragged_row_is_input_error(self, tmp_path, capsys):
        data_path = tmp_path / "ragged.csv"
        write_rows(data_path, ["x1", "const", "y"],
                   [(0.1, 1, 2.0), (0.2, 1, 3.0), (0.3, 1)])
        rc, out = run_test(tmp_path, data_path)
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {data_path}: row 4 has 2 cells, expected 3\n")
        assert not out.exists()

    def test_empty_file_is_input_error(self, tmp_path, capsys):
        data_path = tmp_path / "empty.csv"
        data_path.write_bytes(b"")
        rc, out = run_test(tmp_path, data_path)
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {data_path}: file is empty\n"
        assert not out.exists()

    def test_blank_rows_are_skipped(self, tmp_path):
        data_path = run_simulate(tmp_path, n=40)
        rc, out = run_test(tmp_path, data_path)
        plain = out.read_bytes()
        header, *rows = data_path.read_text().splitlines(keepends=True)
        gappy = tmp_path / "gappy.csv"
        gappy.write_text(header + "\n" + "".join(rows[:20]) + " , ,\t\n"
                         + "".join(rows[20:]) + "\n")
        rc, out = run_test(tmp_path, gappy)
        assert rc == EXIT_OK
        assert out.read_bytes() == plain

    def test_too_few_replicates_is_input_error(self, tmp_path, capsys):
        # The bound matches the report schema's minimum of 100.
        data_path = run_simulate(tmp_path, n=40)
        out = tmp_path / "r.json"
        rc = main(["test", "--input", str(data_path), "--response", "y",
                   "--order-columns", "x1", "--intercept", "const",
                   "--replicates", "99", "--out", str(out)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: need at least 100 replicates, got 99: they size only the "
            "Monte Carlo null sample, since the p-value is exact\n")
        assert not out.exists()

    @pytest.mark.parametrize("level", ["0", "1.5", "nan"])
    def test_level_outside_unit_interval_is_input_error(self, tmp_path, capsys,
                                                         level):
        data_path = run_simulate(tmp_path, n=40)
        capsys.readouterr()
        rc = main(["test", "--input", str(data_path), "--response", "y",
                   "--order-columns", "x1", "--intercept", "const",
                   "--grid", "10", "--replicates", "150", "--level", level])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err.startswith("error: level must lie in (0, 1], got ")
        assert "Traceback" not in err

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
        # The README's heteroscedastic dataset, end to end: the bridges
        # test the mean alone, so the variance trend is not rejected.
        path = tmp_path / "het.csv"
        rc = main(["simulate", "--model", "heteroscedastic", "--coef", "3",
                   "--n", "300", "--seed", "4", "--out", str(path)])
        assert rc == EXIT_OK
        assert path.exists()
        out = tmp_path / "het.json"
        rc = main(["test", "--input", str(path), "--response", "y",
                   "--order-columns", "x1", "--intercept", "const",
                   "--out", str(out)])
        assert rc == EXIT_OK
        p_value = json.loads(out.read_text())["p_value"]
        assert 0 < p_value <= 1
        assert round(p_value, 3) == 0.731

    @pytest.mark.parametrize("theta", ["a,b", "1,", ""])
    def test_non_numeric_theta_is_input_error(self, tmp_path, capsys, theta):
        path = tmp_path / "x.csv"
        rc = main(["simulate", "--model", "h0", "--n", "10",
                   "--theta", theta, "--out", str(path)])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err.startswith("error: --theta must be comma-separated numbers")
        assert "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize("model", ["add-quadratic", "heteroscedastic"])
    @pytest.mark.parametrize("column", ["1", "-1"])
    def test_breach_column_outside_ordering_columns_is_input_error(
            self, tmp_path, capsys, model, column):
        path = tmp_path / "x.csv"
        rc = main(["simulate", "--model", model, "--order-dim", "1",
                   "--breach-column", column, "--n", "10", "--out", str(path)])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err.startswith("error: --breach-column")
        assert "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize("flag, value", [("--q-scale", "nan"),
                                             ("--q-shift", "inf")])
    def test_non_finite_affine_margin_is_input_error(self, tmp_path, capsys,
                                                     flag, value):
        path = tmp_path / "x.csv"
        rc = main(["simulate", "--model", "h0", "--n", "10", flag, value,
                   "--out", str(path)])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err.startswith("error: affine quantile shift and scale")
        assert "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize("args", [
        ("--noise-var", "nan"), ("--noise-var", "inf"), ("--noise-var", "-1"),
        *[("--model", model, "--coef", value)
          for model in ("add-quadratic", "heteroscedastic")
          for value in ("nan", "inf")]], ids=" ".join)
    def test_bad_noise_variance_or_coefficient_is_input_error(
            self, tmp_path, capsys, args):
        path = tmp_path / "x.csv"
        rc = main(["simulate", "--n", "50", "--out", str(path), *args])
        err = capsys.readouterr().err
        flag = "--coef" if "--coef" in args else "--noise-var"
        assert rc == EXIT_INPUT
        assert err.startswith(f"error: {flag} must be finite")
        assert "Traceback" not in err
        assert not path.exists()

    def test_negative_heteroscedastic_coefficient(self, tmp_path, capsys):
        # 1 - 5 x^2 turns negative on [0, 1]: an input error, reported once
        # and without a numpy warning; 1 - 0.5 x^2 stays positive.
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        for coef, path in (("-5", bad), ("-0.5", good)):
            rc = main(["simulate", "--n", "50", "--model", "heteroscedastic",
                       "--coef", coef, "--out", str(path)])
            assert rc == (EXIT_INPUT if path is bad else EXIT_OK)
        err = capsys.readouterr().err
        assert err == "error: noise scale map must be positive and finite\n"
        assert not bad.exists() and good.exists()

    @pytest.mark.parametrize("target", ["nodir/x.csv", "."])
    def test_unwritable_out_is_input_error(self, tmp_path, monkeypatch, capsys,
                                           target):
        monkeypatch.chdir(tmp_path)
        rc = main(["simulate", "--n", "50", "--out", target])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: --out: ") and target in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_rho_alone_draws_a_gaussian_copula(self, tmp_path):
        path = run_simulate(tmp_path, n=2000, seed=5,
                            extra=("--order-dim", "2", "--theta", "1,1,0",
                                   "--rho", "0.9"))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        x = np.array([[float(r["x1"]), float(r["x2"])] for r in rows])
        assert np.corrcoef(x.T)[0, 1] > 0.5
        model = rb.SyntheticModel(
            copula=rb.GaussianCopula(2, 0.9),
            theta=(1.0, 1.0, 0.0))
        rb.write_csv(rb.sample_h0(model, 2000, 5), tmp_path / "lib.csv")
        assert path.read_bytes() == (tmp_path / "lib.csv").read_bytes()

    def test_rho_and_margin_flags_match_the_library_model(self, tmp_path):
        # The README's library spelling of `simulate --rho R --q-shift a
        # --q-scale b`.
        path = run_simulate(tmp_path, n=300, seed=2,
                            extra=("--order-dim", "3", "--theta", "1,1,1,0",
                                   "--rho", "0.5", "--q-shift", "-1",
                                   "--q-scale", "2"))
        model = rb.SyntheticModel(copula=rb.GaussianCopula(3, 0.5),
                                  margin=rb.AffineQuantile(-1.0, 2.0),
                                  theta=(1.0, 1.0, 1.0, 0.0))
        rb.write_csv(rb.sample_h0(model, 300, 2), tmp_path / "lib.csv")
        assert path.read_bytes() == (tmp_path / "lib.csv").read_bytes()
        # The drawn data runs through `test` with all three orderings.
        out = tmp_path / "d3.json"
        rc = main(["test", "--input", str(path), "--response", "y",
                   "--order-columns", "x1,x2,x3", "--intercept", "const",
                   "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert [b["column"] for b in report["bridges"]] == ["x1", "x2", "x3"]
        assert 0 < report["p_value"] <= 1

    def test_rho_rounding_below_positive_definite_is_input_error(
            self, tmp_path, capsys):
        # At d=6 the first double above the bound -1/5 passes the range
        # check, but the Cholesky factor of its matrix fails from rounding.
        path = tmp_path / "x.csv"
        rc = main(["simulate", "--n", "50", "--order-dim", "6",
                   "--rho", "-0.19999999999999998", "--out", str(path)])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert err == "error: correlation matrix must be positive definite\n"
        assert not path.exists()

    def test_margin_flags_alone_take_effect(self, tmp_path):
        plain = run_simulate(tmp_path, name="plain.csv")
        moved = run_simulate(tmp_path, name="moved.csv",
                             extra=("--q-shift", "-1", "--q-scale", "2"))
        with open(plain, newline="") as fh:
            u = [float(r["x1"]) for r in csv.DictReader(fh)]
        with open(moved, newline="") as fh:
            x = [float(r["x1"]) for r in csv.DictReader(fh)]
        assert min(x) < 0.0
        assert x == [-1.0 + 2.0 * v for v in u]

    def test_breach_flags_warn_under_h0(self, tmp_path, capsys):
        plain = run_simulate(tmp_path, name="plain.csv")
        capsys.readouterr()
        flagged = run_simulate(tmp_path, name="flagged.csv",
                               extra=("--coef", "7", "--breach-column", "3"))
        assert capsys.readouterr().err == (
            "warning: --coef does not apply to --model h0; ignored\n"
            "warning: --breach-column does not apply to --model h0; ignored\n")
        assert flagged.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("args, message", [
        (("--order-dim", "0"), "--order-dim must be >= 1"),
        (("--noise", "laplace"),
         "unknown --noise 'laplace' (use normal or uniform)")])
    def test_bad_design_flag_is_input_error(self, tmp_path, capsys, args,
                                            message):
        path = tmp_path / "x.csv"
        rc = main(["simulate", "--n", "10", "--out", str(path), *args])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not path.exists()

    def test_unknown_model_is_input_error(self, tmp_path):
        rc = main(["simulate", "--model", "cubic", "--n", "10",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_INPUT

    def test_gaussian_copula_round_trip(self, tmp_path):
        path = tmp_path / "dep.csv"
        rc = main(["simulate", "--model", "h0", "--n", "90", "--seed", "6",
                   "--order-dim", "2", "--rho", "0.5",
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

# Small overrides per experiment, keyed by fixture field; each run takes
# well under a second.
VERIFY_OVERRIDES = {
    "field": {"n": 50, "replicates": 20, "seed": 4},
    "sums": {"n": 50, "replicates": 30, "seed": 5},
    "bridges": {"n": 60, "replicates": 40, "seed": 6},
    "size": {"n": 40, "replicates": 6, "grid_m": 10, "level": 0.5,
             "seed": 7},
    "power": {"n": 60, "replicates": 6, "grid_m": 10, "level": 0.3,
              "seed": 8},
    "gram-identity": {},
}
VERIFY_FLAGS = {"n": "--n", "replicates": "--replicates", "seed": "--seed",
                "grid_m": "--grid", "level": "--alpha"}


def _verify_by_library(name, overrides):
    """What `verify` should write and print, rebuilt from direct lab calls.

    Returns the expected payloads (one per fixture case), the per-case
    lines, the overall pass flag, and the cell tables by file name.
    """
    from regbridge import fixtures, mclab
    fixture = fixtures.load_experiment_defaults()[name]
    if name == "gram-identity":
        tol = fixture["tolerance"]
        cells = [{"case": case, "max_abs_error": mclab.verify_gram_identity(
            fixtures.get_gram_case(case))} for case in fixture["cases"]]
        worst = max(c["max_abs_error"] for c in cells)
        lines = [f"gram-identity[{c['case']}]: max error "
                 f"{c['max_abs_error']:.2e} "
                 f"{'PASS' if c['max_abs_error'] <= tol else 'FAIL'}"
                 for c in cells]
        payload = {"experiment": name, "tolerance": tol, "max_abs_error": worst,
                   "passed": worst <= tol, "cells": cells}
        return [payload], lines, worst <= tol, {}
    if name in ("size", "power"):
        cfg = {**fixture, **overrides, "n_values": [overrides["n"]]}
        breach = None
        if name == "power":
            breach = fixtures.AddQuadratic(cfg["breach"]["coef"],
                                           cfg["breach"]["column"])
        study = mclab.size_power_study(
            fixtures.get_model(cfg["model"]), breach, cfg["n_values"],
            cfg["level"], cfg["replicates"], cfg["seed"],
            inner_replicates=cfg["inner_replicates"], grid_m=cfg["grid_m"],
            n_jobs=1)
        rates = study.rates
        if name == "size":
            band = cfg["band_halfwidth_at_nominal"] * np.sqrt(
                cfg["level"] * (1 - cfg["level"])
                / (cfg["nominal_level"] * (1 - cfg["nominal_level"])))
            oks = [abs(r - cfg["level"]) <= band for r in rates]
            checks = [f"n={n}: rate {r:.4f} vs level {cfg['level']:g} "
                      f"(band +/-{band:.4f}) {'PASS' if ok else 'FAIL'}"
                      for n, r, ok in zip(study.n_values, rates, oks)]
        else:
            floor = cfg["min_rate_ratio"] * cfg["level"]
            oks = [all(b >= a for a, b in zip(rates, rates[1:])),
                   rates[-1] > floor]
            checks = [
                "rates " + " -> ".join(f"{r:.4f}" for r in rates)
                + f" nondecreasing {'PASS' if oks[0] else 'FAIL'}",
                f"rate at n={study.n_values[-1]} is {rates[-1]:.4f} > "
                f"{floor:g} {'PASS' if oks[1] else 'FAIL'}"]
        payload = {**study.to_json_dict(), "checks": checks, "passed": all(oks)}
        return [payload], checks, all(oks), {}
    verify, points = {"field": (mclab.verify_field_covariance, "queries"),
                      "sums": (mclab.verify_sum_covariance, "levels"),
                      "bridges": (mclab.verify_bridge_covariance, "levels")}[name]
    cases = fixture.get("cases", [fixture])
    payloads, lines, tables = [], [], {}
    for case in cases:
        cfg = {**case, **overrides}
        rep = verify(fixtures.get_model(cfg["model"]), cfg["n"],
                     cfg["replicates"], np.asarray(cfg[points], dtype=float),
                     cfg["seed"], cfg["tolerance"])
        payloads.append(rep.to_json_dict())
        lines.append(f"{name}[{cfg['model']}]: max |emp - target| = "
                     f"{rep.max_abs_error:.4f} (tolerance {rep.tolerance:g}) "
                     f"{'PASS' if rep.passed else 'FAIL'}")
        fname = f"cells_{cfg['model']}.csv" if len(cases) > 1 else "cells.csv"
        tables[fname] = rep
    return payloads, lines, all(p["passed"] for p in payloads), tables



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

    def test_power_refuses_unknown_breach_kind(self, monkeypatch, capsys):
        from regbridge import fixtures
        defaults = fixtures.load_experiment_defaults()
        defaults["power"]["breach"]["kind"] = "cubic"
        monkeypatch.setattr(fixtures, "load_experiment_defaults",
                            lambda: defaults)
        rc = main(["verify", "--experiment", "power"])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == "error: unknown breach kind 'cubic'\n"

    def test_tolerance_miss_exits_4(self, capsys):
        # 100 replicates cannot hit the shipped 5% tolerance.
        rc = main(["verify", "--experiment", "field", "--replicates", "100"])
        assert rc == EXIT_TOLERANCE
        assert "FAIL" in capsys.readouterr().out

    def test_size_banding_at_level_one(self, capsys):
        rc = main(["verify", "--experiment", "size", "--alpha", "1.0",
                   "--n", "40", "--replicates", "5", "--grid", "10"])
        assert rc == EXIT_OK
        assert "rate 1.0000" in capsys.readouterr().out

    def test_power_checks_with_overrides(self, tmp_path, capsys):
        out = tmp_path / "power.json"
        rc = main(["verify", "--experiment", "power", "--n", "500",
                   "--replicates", "20", "--alpha", "0.1", "--grid", "20",
                   "--out", str(out)])
        assert rc == EXIT_OK
        captured = capsys.readouterr().out
        assert "nondecreasing PASS" in captured
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "power"
        assert payload["rates"][-1] > 0.2

    @pytest.mark.parametrize("name, flags, ignored", [
        ("size", ["--n", "40", "--replicates", "5", "--grid", "10",
                  "--emit-table", "t.csv"],
         ["emit-table"]),
        ("gram-identity", ["--n", "40", "--grid", "10"], ["n", "grid"]),
        ("bridges", ["--n", "100", "--replicates", "100",
                     "--emit-table", "t.csv"], []),
        ("gram-identity", ["--n-jobs", "2"], ["n-jobs"]),
        ("bridges", ["--n", "100", "--replicates", "100", "--n-jobs", "3",
                     "--emit-table", "t.csv"], ["n-jobs"]),
        ("size", ["--n", "40", "--replicates", "5", "--grid", "10",
                  "--n-jobs", "1"], []),
    ])
    def test_inapplicable_flags_warn_on_stderr(self, name, flags, ignored,
                                               tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        main(["verify", "--experiment", name, *flags])
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"warning: --{flag} does not apply to experiment '{name}'; ignored"
            for flag in ignored]
        assert captured.out.splitlines()[-1].startswith(f"experiment '{name}': ")
        assert (tmp_path / "t.csv").exists() is False

    def test_inner_replicates_flag_is_gone(self, capsys):
        # The p-value is exact, so no nested replicate count is read.
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--experiment", "size", "--inner-replicates", "100"])
        assert exc.value.code == 2
        assert "--inner-replicates" in capsys.readouterr().err

    @pytest.mark.parametrize("name, flags, flag, named", [
        ("gram-identity", ["--out", "nodir/x.json"], "--out", "nodir/x.json"),
        ("size", ["--out", "."], "--out", "'.'"),
        ("bridges", ["--emit-table", "nodir/t.csv"], "--emit-table",
         "nodir/t_single-uniform.csv"),
        ("bridges", ["--emit-table", "t.csv"], "--emit-table",
         "t_two-uniform.csv"),
        ("sums", ["--emit-table", "t_two-uniform.csv"], "--emit-table",
         "t_two-uniform.csv"),
    ], ids=["out-without-directory", "out-onto-directory",
            "derived-table-without-directory", "derived-table-onto-directory",
            "table-onto-directory"])
    def test_unwritable_target_is_input_error(self, name, flags, flag, named,
                                              tmp_path, monkeypatch, capsys):
        # Every output path, the derived per-model tables included, is
        # checked before any experiment runs.
        from regbridge import mclab

        def must_not_run(*args):
            raise AssertionError("the experiment ran")

        _, reads = mclab._EXPERIMENTS[name]
        monkeypatch.setitem(mclab._EXPERIMENTS, name, (must_not_run, reads))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t_two-uniform.csv").mkdir()
        before = sorted(tmp_path.rglob("*"))
        rc = main(["verify", "--experiment", name, *flags])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: {flag}: ") and named in err
        assert err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("name, flags", [
        ("bridges", ["--out", "t_two-uniform.csv", "--emit-table", "t.csv"]),
        ("sums", ["--out", "t.csv", "--emit-table", "./t.csv"]),
    ], ids=["out-onto-derived-table", "out-onto-table"])
    def test_outputs_naming_one_file_are_input_error(self, name, flags,
                                                     tmp_path, monkeypatch,
                                                     capsys):
        # The JSON payload would overwrite a cell table; refused before
        # any experiment runs.
        from regbridge import mclab

        def must_not_run(*args):
            raise AssertionError("the experiment ran")

        _, reads = mclab._EXPERIMENTS[name]
        monkeypatch.setitem(mclab._EXPERIMENTS, name, (must_not_run, reads))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t_two-uniform.csv").write_text("kept\n")
        before = tree_bytes(tmp_path)
        rc = main(["verify", "--experiment", name, *flags])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: --out {flags[1]!r} and --emit-table ")
        assert err.endswith(" name one file\n") and err.count("\n") == 1
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("name, n_jobs", [
        ("size", "0"), ("power", "-1"), ("bridges", "-1"),
        ("gram-identity", "-3"), ("field", "0"), ("sums", "-2")])
    def test_n_jobs_below_one_is_input_error(self, name, n_jobs, tmp_path,
                                             monkeypatch, capsys):
        # -1 asks joblib for every CPU; here it is refused with the output
        # targets, before any experiment runs or anything is written.
        from regbridge import mclab

        def must_not_run(*args):
            raise AssertionError("the experiment ran")

        _, reads = mclab._EXPERIMENTS[name]
        monkeypatch.setitem(mclab._EXPERIMENTS, name, (must_not_run, reads))
        monkeypatch.chdir(tmp_path)
        rc = main(["verify", "--experiment", name, "--n-jobs", n_jobs,
                   "--out", "z.json", "--emit-table", "t.csv"])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == f"error: --n-jobs must be >= 1, got {n_jobs}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, replicates", [
        ("sums", "0"), ("field", "0"), ("bridges", "-3")])
    def test_replicates_below_one_is_input_error(self, name, replicates,
                                                 tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["verify", "--experiment", name, "--replicates", replicates,
                   "--out", "z.json"])
        out, err = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == "error: need at least one replicate\n"
        assert list(tmp_path.iterdir()) == []

    def test_unrenderable_payload_leaves_no_out_file(self, tmp_path,
                                                     monkeypatch):
        # The payload is rendered before --out is opened, so a rendering
        # bug leaves no empty file behind.
        from regbridge import mclab

        def refuse(payload):
            raise ValueError("Out of range float values are not JSON compliant")

        monkeypatch.setattr(mclab, "canonical_json", refuse)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="not JSON compliant"):
            main(["verify", "--experiment", "gram-identity", "--out", "p.json"])
        assert not (tmp_path / "p.json").exists()

    def test_experiment_help_names_every_experiment(self, capsys):
        from regbridge import mclab
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        listed = "".join(", ".join(mclab._EXPERIMENTS).split())
        assert listed in "".join(capsys.readouterr().out.split())

    def test_unknown_experiment_is_input_error(self, capsys):
        rc = main(["verify", "--experiment", "sideways"])
        assert rc == EXIT_INPUT
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(VERIFY_OVERRIDES))
    def test_matches_direct_library_calls(self, name, tmp_path, capsys):
        overrides = VERIFY_OVERRIDES[name]
        argv = ["verify", "--experiment", name, "--out", str(tmp_path / "v.json"),
                "--emit-table", str(tmp_path / "cells.csv")]
        for key, value in overrides.items():
            argv += [VERIFY_FLAGS[key], str(value)]
        rc = main(argv)
        printed = capsys.readouterr().out.splitlines()

        payloads, lines, passed, tables = _verify_by_library(name, overrides)
        got = json.loads((tmp_path / "v.json").read_text())
        got_cases = got["cases"] if len(payloads) > 1 else [got]
        if len(payloads) > 1:
            assert got.keys() == {"experiment", "cases"}
            assert got["experiment"] == name
        assert len(got_cases) == len(payloads)
        for case, want in zip(got_cases, payloads):
            assert case == want
        assert printed == lines + [
            f"experiment {name!r}: {'PASS' if passed else 'FAIL'}"]
        assert rc == (EXIT_OK if passed else EXIT_TOLERANCE)
        written = sorted(p.name for p in tmp_path.glob("cells*.csv"))
        assert written == sorted(tables)
        for fname, report in tables.items():
            report.write_cells_csv(tmp_path / "want.csv")
            assert ((tmp_path / fname).read_bytes()
                    == (tmp_path / "want.csv").read_bytes())
            # Every number is written as a plain float literal.
            with open(tmp_path / fname, newline="") as fh:
                for row in csv.DictReader(fh):
                    for key in ("empirical", "target", "abs_error"):
                        float(row[key])

    @pytest.mark.parametrize("name", sorted(VERIFY_OVERRIDES))
    def test_out_is_byte_identical_across_runs(self, name, tmp_path):
        # The payload holds no wall-clock field, so equal flags give equal
        # bytes; the second run also takes a process pool where the
        # experiment has one.
        argv = ["verify", "--experiment", name]
        for key, value in VERIFY_OVERRIDES[name].items():
            argv += [VERIFY_FLAGS[key], str(value)]
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        main(argv + ["--out", str(outs[0])])
        main(argv + ["--n-jobs", "2", "--out", str(outs[1])])
        first = outs[0].read_bytes()
        assert outs[1].read_bytes() == first
        assert b"elapsed_seconds" not in first


# ======================================================================
# entry point
# ======================================================================

# Public lab names that once lived in the pipeline modules `dataset` and
# `covmodel`.
TEST_ARGS = ["test", "--input", "missing.csv", "--response", "y",
             "--order-columns", "x1", "--intercept", "const"]


@pytest.mark.parametrize("argv, flag", [
    (TEST_ARGS + ["--out", ""], "--out"),
    (TEST_ARGS + ["--emit-null", ""], "--emit-null"),
    (TEST_ARGS + ["--emit-bridges", ""], "--emit-bridges"),
    (["simulate", "--n", "50", "--out", ""], "--out"),
    (["verify", "--experiment", "gram-identity", "--out", ""], "--out"),
    (["verify", "--experiment", "sums", "--emit-table", ""], "--emit-table"),
    (["verify", "--experiment", "gram-identity", "--emit-table", ""],
     "--emit-table"),
], ids=["test-out", "test-emit-null", "test-emit-bridges", "simulate-out",
        "verify-out", "verify-emit-table", "verify-ignored-emit-table"])
def test_empty_output_path_is_input_error(argv, flag, tmp_path, monkeypatch,
                                          capsys):
    # Refused before the input is read (`test` names a missing file) or
    # any experiment runs, even where the experiment ignores the flag.
    from regbridge import mclab

    def must_not_run(*args):
        raise AssertionError("the experiment ran")

    for name, (_, reads) in mclab._EXPERIMENTS.items():
        monkeypatch.setitem(mclab._EXPERIMENTS, name, (must_not_run, reads))
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert out == ""
    assert err == f"error: {flag}: empty path\n"
    assert list(tmp_path.iterdir()) == []


LAB_NAMES = ("AffineQuantile", "IndependenceCopula", "GaussianCopula",
             "NoiseSpec", "SyntheticModel",
             "AddQuadratic", "Heteroscedastic", "sample_h0",
             "sample_alternative", "sample_concomitant",
             "IndependenceCovariance", "analytic_covariance",
             "verify_gram_identity")


class TestEntryPoint:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "regbridge.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "test" in proc.stdout and "simulate" in proc.stdout

    def test_import_path_skips_scipy_quadrature(self, tmp_path):
        # A whole `regbridge test` run, null sample and bridges included,
        # loads no scipy module: the exact p-value is numpy alone, and the
        # lab imports scipy's quadrature on use.
        data_path = run_simulate(tmp_path, n=60)
        argv = ["test", "--input", str(data_path), "--response", "y",
                "--order-columns", "x1", "--intercept", "const",
                "--grid", "10", "--replicates", "150",
                "--out", str(tmp_path / "r.json"),
                "--emit-null", str(tmp_path / "null.csv"),
                "--emit-bridges", str(tmp_path / "bridges")]
        code = ("import sys; from regbridge.cli import main; "
                f"rc = main({argv!r}); print(rc, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"{EXIT_OK} []"
        assert (tmp_path / "null.csv").exists()

    def test_import_path_skips_jsonschema_and_process_pool(self):
        # Reports are checked in-process and the lab imports its pool only
        # for n_jobs > 1, so start-up loads neither.
        code = ("import sys, regbridge, regbridge.cli; "
                "print(sorted(m for m in ('jsonschema', "
                "'concurrent.futures.process', 'multiprocessing') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_path_skips_lab(self):
        # `fixtures` and `mclab` load on first use of a lab name.
        code = ("import sys, regbridge, regbridge.cli; "
                "print(sorted(m for m in ('regbridge.mclab', "
                "'regbridge.fixtures') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_test_run_skips_lab_and_numpy_ma(self, tmp_path):
        data_path = run_simulate(tmp_path, n=60)
        argv = ["test", "--input", str(data_path), "--response", "y",
                "--order-columns", "x1", "--intercept", "const",
                "--grid", "10", "--replicates", "150",
                "--out", str(tmp_path / "r.json")]
        code = ("import sys; from regbridge.cli import main; "
                f"rc = main({argv!r}); print(rc, sorted(m for m in "
                "('numpy.ma', 'regbridge.mclab', 'regbridge.fixtures') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"{EXIT_OK} []"

    def test_simulate_run_skips_numpy_ma(self, tmp_path):
        # The tie check on the drawn design sorts instead of calling
        # np.unique, whose first call imports numpy.ma.
        argv = ["simulate", "--model", "h0", "--n", "60", "--seed", "3",
                "--order-dim", "2", "--out", str(tmp_path / "d.csv")]
        code = ("import sys; from regbridge.cli import main; "
                f"rc = main({argv!r}); print(rc, 'numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"{EXIT_OK} False"

    def test_public_names_resolve(self):
        import regbridge
        from regbridge import (adequacy, bridge, covmodel, dataset, errors,
                               fixtures, limitsim, mclab, ols, ordering, rng)
        pipeline = [name for module in (errors, rng, dataset, ols, ordering,
                                        bridge, covmodel, limitsim, adequacy)
                    for name in module.__all__]
        assert regbridge.__all__ == pipeline
        assert len(set(pipeline)) == len(pipeline) == 41
        listed = dir(regbridge)
        for name in regbridge.__all__:
            assert getattr(regbridge, name) is not None, name
            assert name in listed, name
        star = {}
        exec("from regbridge import *", star)
        assert set(regbridge.__all__) <= star.keys()
        assert not star.keys() & {*fixtures.__all__, *mclab.__all__}
        lab = {*fixtures.__all__, *mclab.__all__, "cmd_simulate", "cmd_verify"}
        for module in (dataset, covmodel, cli):
            assert not vars(module).keys() & lab, module.__name__
        assert regbridge.fixtures is fixtures and regbridge.mclab is mclab

    def test_unknown_attribute_raises(self):
        import regbridge
        with pytest.raises(AttributeError, match="no_such_name"):
            regbridge.no_such_name

    def test_lab_name_is_stored_on_first_access(self):
        # Later lookups, one per call in a lab loop, skip `__getattr__`.
        import regbridge
        from regbridge import fixtures, mclab
        for module in (fixtures, mclab):
            for name in module.__all__:
                value = getattr(regbridge, name)
                assert value is getattr(module, name), name
                assert vars(regbridge)[name] is value, name
        assert set(LAB_NAMES) <= vars(regbridge).keys()

    def test_private_name_raises_without_loading_lab(self):
        code = ("import sys, regbridge\n"
                "try:\n    regbridge._anything\n"
                "except AttributeError:\n"
                "    print(sorted(m for m in ('regbridge.mclab', "
                "'regbridge.fixtures') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_verify_runs_in_fresh_interpreter(self):
        # The lab imports inside `cmd_verify` must work from a cold start.
        proc = subprocess.run(
            [sys.executable, "-m", "regbridge.cli", "verify",
             "--experiment", "gram-identity"], capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "experiment 'gram-identity': PASS" in proc.stdout

    @pytest.mark.parametrize("name", ["field", "sums"])
    def test_moment_experiments_skip_scipy(self, name):
        # The field and sums targets are closed forms and their draws use
        # the independence copula, so neither run loads scipy.
        code = ("import sys; from regbridge.cli import main; "
                f"rc = main(['verify', '--experiment', {name!r}]); "
                "print(rc, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} []"

    @pytest.mark.parametrize("command", ["test", "simulate", "verify"])
    def test_test_run_never_imports_jsonschema(self, tmp_path, command):
        # Each command runs where only the runtime dependencies are
        # installed: none loads a test extra.
        data_path = run_simulate(tmp_path, n=60)
        argv = {"test": ["test", "--input", str(data_path), "--response", "y",
                         "--order-columns", "x1", "--intercept", "const",
                         "--grid", "10", "--replicates", "150",
                         "--out", str(tmp_path / "r.json")],
                "simulate": ["simulate", "--n", "60",
                             "--out", str(tmp_path / "s.csv")],
                "verify": ["verify", "--experiment", "gram-identity"]}[command]
        code = ("import sys; from regbridge.cli import main; "
                f"rc = main({argv!r}); print(rc, sorted(m for m in "
                "('jsonschema', 'hypothesis', 'pytest') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} []"


# ======================================================================
# staged pipeline
# ======================================================================

def staged_report(csv_path, schema, grid_m, replicates, seed):
    """`regbridge test` rebuilt from its layers, as the benchmark does."""
    data = rb.load_csv(csv_path, schema)
    fit = rb.fit_lse(data)
    views = rb.all_orderings(data, fit)
    bridges = tuple(rb.residual_bridge(v, fit.sigma2_hat) for v in views)
    stat = rb.omega_sq(bridges)
    cov = rb.empirical_covariance(data, views, gram=fit.gram)
    grid = rb.GridSpec(grid_m)
    null = rb.simulate_null(rb.factor_psd(rb.build_grid_covariance(cov, grid)),
                            replicates, grid, seed)
    result = rb.AdequacyResult(fit=fit, bridges=bridges, statistic=stat,
                               covariance=cov, null=null,
                               p_value=rb.p_value(stat, null), level=0.05)
    ref = rb.run_adequacy_test(data, grid_m=grid_m, replicates=replicates,
                               seed=seed)
    return cli.TestReport(data=data, result=result, grid_m=grid_m,
                          replicates=replicates, seed=seed).validated_json(), ref


class TestStagedPipeline:
    @pytest.mark.parametrize("fixture", ["size", "two-uniform"])
    def test_stages_reproduce_the_cli_report(self, tmp_path, fixture):
        # The layers called one by one give run_adequacy_test's p-value
        # bit for bit and the CLI's report byte for byte.
        import regbridge as rb

        if fixture == "size":
            cfg = rb.fixtures.load_experiment_defaults()["size"]
            model, n = cfg["model"], cfg["n_values"][0]
            grid_m, replicates = cfg["grid_m"], cfg["inner_replicates"]
        else:
            model, n, grid_m, replicates = fixture, 500, 100, 10000
        model = rb.fixtures.get_model(model)
        path = tmp_path / "data.csv"
        rb.write_csv(rb.sample_h0(model, n, (5, model.d1)), path)
        cols = [f"x{k + 1}" for k in range(model.d1)]
        out = tmp_path / "r.json"
        assert main(["test", "--input", str(path), "--response", "y",
                     "--order-columns", ",".join(cols), "--intercept", "const",
                     "--grid", str(grid_m), "--replicates", str(replicates),
                     "--seed", "3", "--out", str(out)]) == EXIT_OK
        schema = rb.ColumnSchema(order=tuple(cols), response="y",
                                 intercept="const")
        text, ref = staged_report(path, schema, grid_m, replicates, 3)
        assert json.loads(text)["p_value"] == ref.p_value
        assert text == out.read_text()


# ======================================================================
# report schema checker
# ======================================================================

REPORT_SCHEMA = cli._load_report_schema()
SUBSTITUTES = (None, True, 0, -1, 1.0, 2.5, -0.5, float("nan"), "s", [], {})


def _at(obj, path):
    return functools.reduce(operator.getitem, path, obj)


def _node_paths(value, path=()):
    yield path
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _mutants(report):
    """Every single-node substitution, key deletion and extra key."""
    for path in _node_paths(report):
        for sub in SUBSTITUTES:
            if not path:
                yield copy.deepcopy(sub)
                continue
            mutant = copy.deepcopy(report)
            _at(mutant, path[:-1])[path[-1]] = copy.deepcopy(sub)
            yield mutant
        if isinstance(_at(report, path), dict):
            for key in _at(report, path):
                mutant = copy.deepcopy(report)
                del _at(mutant, path)[key]
                yield mutant
            mutant = copy.deepcopy(report)
            _at(mutant, path)["extra"] = 0
            yield mutant


@pytest.fixture
def real_report(tmp_path):
    path = tmp_path / "two.csv"
    assert main(["simulate", "--model", "h0", "--n", "80", "--seed", "5",
                 "--order-dim", "2", "--out", str(path)]) == EXIT_OK
    out = tmp_path / "r.json"
    assert main(["test", "--input", str(path), "--response", "y",
                 "--order-columns", "x1,x2", "--intercept", "const",
                 "--grid", "10", "--replicates", "150", "--seed", "2",
                 "--out", str(out)]) == EXIT_OK
    return json.loads(out.read_text())


class TestReportSchemaChecker:
    def test_shipped_schema_passes_metaschema(self):
        jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)

    def test_agrees_with_jsonschema_on_every_mutant(self, real_report):
        validator = jsonschema.Draft202012Validator(REPORT_SCHEMA)
        check_schema(real_report, REPORT_SCHEMA)
        invalid = 0
        for mutant in _mutants(real_report):
            valid = validator.is_valid(mutant)
            try:
                check_schema(mutant, REPORT_SCHEMA)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == valid, repr(mutant)
            invalid += not valid
        assert invalid > 300

    def test_error_names_json_path(self, real_report):
        real_report["bridges"][1]["max_abs"] = -1.0
        with pytest.raises(ValueError, match=r"^\$\.bridges\[1\]\.max_abs: "):
            check_schema(real_report, REPORT_SCHEMA)

    @pytest.mark.parametrize("value, schema", [
        ("x", {"type": "string", "pattern": "^x"}),
        ({"a": "b"}, {"type": "object", "additionalProperties": {}}),
        ("x", {"type": "text"}),
    ])
    def test_unsupported_schema_is_refused(self, value, schema):
        with pytest.raises(ValueError, match="unsupported"):
            check_schema(value, schema)

    def test_broken_report_escapes_main(self, tmp_path, monkeypatch):
        # A report that fails its own schema is a program bug, not an
        # input error, so it must not become exit code 1.
        to_json_dict = cli.TestReport.to_json_dict
        monkeypatch.setattr(cli.TestReport, "to_json_dict",
                            lambda self: {**to_json_dict(self), "p_value": 1.5})
        data_path = run_simulate(tmp_path, n=60)
        with pytest.raises(ValueError, match=r"^\$\.p_value: "):
            run_test(tmp_path, data_path)

    @pytest.mark.parametrize("patch", [
        {"p_value": float("nan")},
        {"sigma2_hat": float("inf")},
        {"null_quantiles": {"0.9": float("nan"), "0.95": 1.0, "0.99": 2.0}},
    ])
    def test_non_finite_report_escapes_main(self, tmp_path, monkeypatch, patch):
        # NaN passes every schema bound and inf passes the lower ones, but
        # neither is JSON, so writing the report must fail, and write nothing.
        to_json_dict = cli.TestReport.to_json_dict
        monkeypatch.setattr(cli.TestReport, "to_json_dict",
                            lambda self: {**to_json_dict(self), **patch})
        data_path = run_simulate(tmp_path, n=60)
        with pytest.raises(ValueError, match="not JSON compliant"):
            run_test(tmp_path, data_path)
        assert not (tmp_path / "report.json").exists()
