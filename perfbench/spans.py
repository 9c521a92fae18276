"""In-memory span recorder for traced benchmark runs.

A span is one call across a layer boundary: its name, start and end on the
``time.perf_counter`` clock (CLOCK_MONOTONIC on Linux, so spans written by
child processes line up with the parent's), the id of the span that was
open around it, and the run id shared by every span of one benchmark run.
Counts measured at a boundary are stored in the span's ``attrs``.  Spans
stay in memory and are written as JSON lines when the run ends.

All spans are recorded from the benchmark's own files: either around a
direct call, or by replacing a package function with a wrapper for the
duration of the process (``instrument_levels``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Callable, Iterator


class Tracer:
    def __init__(self, run_id: str, prefix: str = "s", parent: str | None = None):
        self.run_id = run_id
        self.prefix = prefix
        self.root_parent = parent
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        parent = self._stack[-1]["id"] if self._stack else self.root_parent
        rec = {
            "id": f"{self.prefix}{len(self.spans)}",
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "run": self.run_id,
            "attrs": dict(attrs),
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, **counts: float) -> None:
        """Add counts to the innermost open span."""
        if not self._stack:
            return
        attrs = self._stack[-1]["attrs"]
        for key, value in counts.items():
            attrs[key] = attrs.get(key, 0) + value

    def extend(self, spans: list[dict]) -> None:
        """Adopt spans recorded elsewhere (a child process) into this run."""
        self.spans.extend(spans)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def traced(tracer: Tracer, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
    """Wrap ``fn`` so that every call records one span named ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        extra = attrs(*args, **kwargs) if attrs is not None else {}
        with tracer.span(name, **extra):
            return fn(*args, **kwargs)

    return wrapper


def instrument_levels(tracer: Tracer) -> None:
    """Record spans around the public level-store calls for this process.

    ``build_levels`` and ``enumerate_level`` get one span per call, with the
    level number; ``LevelCache.save``/``load`` get one span per file.  The
    axiom checker is wrapped where ``levels`` imported it; its calls are too
    many and too short for one span each, so they are counted on the
    enclosing span instead (calls, accepted systems, busy seconds).
    """
    from deltamatroid import levels

    levels.build_levels = traced(
        tracer, "levels.build_levels", levels.build_levels,
        lambda n_max, *a, **k: {"n_max": n_max},
    )
    levels.enumerate_level = traced(
        tracer, "levels.enumerate_level", levels.enumerate_level,
        lambda prev, *a, **k: {"n": prev.n + 1},
    )
    save = levels.LevelCache.save
    load = levels.LevelCache.load

    def traced_save(self, path):
        with tracer.span("levels.cache_save", n=self.n):
            return save(self, path)

    def traced_load(path):
        with tracer.span("levels.cache_load"):
            return load(path)

    levels.LevelCache.save = traced_save
    levels.LevelCache.load = staticmethod(traced_load)

    check = levels.check_symmetric_exchange

    def counted_check(system):
        t0 = time.perf_counter()
        witness = check(system)
        tracer.add(
            check_calls=1,
            check_accepted=int(witness is None),
            check_busy_s=time.perf_counter() - t0,
        )
        return witness

    levels.check_symmetric_exchange = counted_check


def level_build_figures(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one levels 1..5 build recorded through
    ``instrument_levels``."""
    enum = {s["attrs"]["n"]: s for s in spans if s["name"] == "levels.enumerate_level"}
    checks = [s["attrs"] for s in enum.values()]
    l4 = enum[4]["attrs"]
    return {
        "levels.enumerate_l4_s": duration(enum[4]),
        "levels.enumerate_l5_s": duration(enum[5]),
        "levels.enumerate_l4_accept_frac": l4.get("check_accepted", 0) / l4["check_calls"],
        "setsystem.check_calls": sum(a.get("check_calls", 0) for a in checks),
        "setsystem.check_busy_s": sum(a.get("check_busy_s", 0.0) for a in checks),
    }
