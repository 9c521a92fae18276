"""The README's library example and its commands run as written, and the
package root exports only what the example imports."""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import shlex
import types
from pathlib import Path

import deltamatroid
from deltamatroid import constructions, setsystem
from deltamatroid.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_level_four_count(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "5959\n"


def test_readme_commands_parse(tmp_path, monkeypatch, capsys):
    # every dmtool line of the README's sh blocks parses, so a renamed or
    # removed flag in cli.py shows here, and runs with exit 0 in README
    # order (a line may read the file an earlier one wrote) next to a
    # system.json; the level-6 count only with DM_SLOW_TESTS
    text = README.read_text(encoding="utf-8")
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.splitlines()
        if line.startswith("dmtool ")
    ]
    assert len(lines) >= 15
    parser = build_parser()
    layers = constructions.random_stacked_layers(6, 7)
    system = constructions.stacked_even_delta_matroid(6, layers)
    (tmp_path / "system.json").write_text(setsystem.dumps_system(system))
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        parser.parse_args(argv)
        if "--max-n 6" in line and not os.environ.get("DM_SLOW_TESTS"):
            continue
        assert main(argv) == 0, (line, capsys.readouterr().err)


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


def test_root_exports_only_the_library_example_names():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    imported = re.search(r"^from deltamatroid import (.+)$", section, re.M).group(1)
    public = {
        name
        for name, value in vars(deltamatroid).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name.strip() for name in imported.split(",")}
