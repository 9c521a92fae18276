"""Run the dmtool CLI in this process with spans around the package calls.

Traced count5-cold runs start this script in place of
``python -m deltamatroid.cli``:

    python3 perfbench/cli_child.py SPANS_OUT RUN_ID PARENT_SPAN PREFIX -- ARGS...

It records the package import, ``cli.main`` and the level-store calls
(see ``spans.instrument_levels``), writes the spans to SPANS_OUT and exits
with the CLI's exit code.  Standard output is the CLI's own.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer, instrument_levels  # noqa: E402


def main() -> int:
    out, run_id, parent, prefix, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_OUT RUN_ID PARENT_SPAN PREFIX -- ARGS...")
    tracer = Tracer(run_id, prefix=prefix, parent=parent)
    try:
        with tracer.span("cli.import"):
            from deltamatroid import cli
        instrument_levels(tracer)
        with tracer.span("cli.main"):
            return cli.main(argv)
    finally:
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
