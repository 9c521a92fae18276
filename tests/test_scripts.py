"""Smoke test for the research script that ships with the package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_construction_sweep_runs():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "construction_sweep.py"),
         "--samples", "5", "--max-n", "4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
