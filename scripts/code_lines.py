#!/usr/bin/env python3
"""Count the code lines of Python files: per file, then the total.

A line counts if it holds a token other than a comment, a line break
(NL, NEWLINE), an INDENT or DEDENT, or a string that is a whole
statement (a docstring).  A token that spans lines, such as a
multi-line string argument, counts on each line it spans.  So blank
lines, comments and docstrings do not count.

Usage:
    python3 scripts/code_lines.py [PATH ...]    # default: src/deltamatroid

A directory stands for the ``*.py`` files under it.  A path that does not
exist exits 2.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_PATHS = [str(Path(__file__).resolve().parents[1] / "src" / "deltamatroid")]
SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = {
        (node.lineno, node.col_offset)
        for node in ast.walk(ast.parse(source, str(path)))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or DEFAULT_PATHS:
        path = Path(arg)
        if not path.exists():
            print(f"error: {arg}: no such file or directory", file=sys.stderr)
            return 2
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:>6}  {path}")
    print(f"{total:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
