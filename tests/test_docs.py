"""The README's library example runs as written, and its commands parse."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from deltamatroid.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_level_four_count(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "5959\n"


def test_readme_commands_parse():
    # every dmtool line of the README's sh blocks, so a renamed or removed
    # flag in cli.py shows here
    text = README.read_text(encoding="utf-8")
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.splitlines()
        if line.startswith("dmtool ")
    ]
    assert len(lines) >= 15
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        parser.parse_args(argv)
