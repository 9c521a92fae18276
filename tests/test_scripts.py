"""Tests for scripts/code_lines.py, the code-line counter."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CODE_LINES_SAMPLE = '''"""Module docstring."""

# a comment
import os


def f(x):
    """A docstring
    over two lines."""
    s = """a string
that is no docstring"""
    "a string statement"
    return x  # a trailing comment
'''


def run_code_lines(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    # import, def, the two lines of the assigned string, return
    sample = tmp_path / "pkg" / "sample.py"
    sample.parent.mkdir()
    sample.write_text(CODE_LINES_SAMPLE)
    (tmp_path / "pkg" / "empty.py").write_text("# nothing but a comment\n")
    result = run_code_lines(str(tmp_path / "pkg"))
    assert result.returncode == 0, result.stderr
    assert [line.split() for line in result.stdout.splitlines()] == [
        ["0", str(tmp_path / "pkg" / "empty.py")],
        ["5", str(sample)],
        ["5", "total"],
    ]


def test_code_lines_refuses_a_missing_path(tmp_path):
    result = run_code_lines(str(tmp_path / "missing.py"))
    assert result.returncode == 2
    assert "error:" in result.stderr
    assert result.stdout == ""
