"""The README's library example runs as written, and its commands parse."""

from __future__ import annotations

import argparse
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


def test_readme_prose_flags_exist():
    # every --flag in an inline code span outside the fenced blocks, so a
    # flag removed from cli.py cannot stay documented in the prose
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    flags = {
        flag
        for span in re.findall(r"`([^`]+)`", prose)
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", span)
    }
    assert {"--cache-dir", "--max-n", "--verbose"} <= flags
    parser = build_parser()
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options.update(o for a in sub._actions for o in a.option_strings)
    assert sorted(flags - options) == []
