"""The README's quick start, library example, planted breach and verify
block run as printed."""

import json
import shlex
from pathlib import Path

import pytest

from regbridge.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(lang):
    """Fenced blocks of one language, in document order."""
    blocks, lines, inside = [], [], False
    for line in README.read_text().splitlines(keepends=True):
        if not inside and line.rstrip() == "```" + lang:
            inside, lines = True, []
        elif inside and line.rstrip() == "```":
            inside = False
            blocks.append("".join(lines))
        elif inside:
            lines.append(line)
    return blocks


def shell_commands(block):
    """argv lists of a shell block, continuation lines joined."""
    return [shlex.split(cmd) for cmd in block.replace("\\\n", " ").splitlines()
            if cmd.strip()]


@pytest.fixture
def quick_start(tmp_path, monkeypatch, capsys):
    """Run the quick-start commands in tmp_path; return the printed report."""
    monkeypatch.chdir(tmp_path)
    block = next(b for b in code_blocks("sh") if "demo.csv" in b)
    simulate, test = shell_commands(block)
    assert simulate[:2] == ["regbridge", "simulate"]
    assert test[:2] == ["regbridge", "test"]
    assert main(simulate[1:]) == EXIT_OK
    capsys.readouterr()
    assert main(test[1:]) == EXIT_OK
    return capsys.readouterr().out


def test_quick_start_report_matches_readme(quick_start):
    (shown,) = code_blocks("json")
    assert quick_start == shown


def test_library_example_prints_the_cli_p_value(quick_start, capsys):
    (example,) = code_blocks("python")
    exec(compile(example, "README.md", "exec"), {})
    p_value, reject = capsys.readouterr().out.split()
    report = json.loads(quick_start)
    assert float(p_value) == report["p_value"]
    assert reject == str(report["reject"])


def test_planted_breach_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    block = next(b for b in code_blocks("sh") if "bad.csv" in b)
    simulate, test = shell_commands(block)
    assert simulate[:2] == ["regbridge", "simulate"]
    assert test[:2] == ["regbridge", "test"]
    assert main(simulate[1:]) == EXIT_OK
    capsys.readouterr()
    assert main(test[1:]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["reject"] is True


def test_verify_block_runs_as_printed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    block = next(b for b in code_blocks("sh") if "verify --experiment bridges" in b)
    commands = shell_commands(block)
    assert [argv[:2] for argv in commands] == [["regbridge", "verify"]] * 2
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK
    assert "experiment 'bridges': PASS" in capsys.readouterr().out
    assert json.loads((tmp_path / "size_report.json").read_text())["passed"]
