"""count5-cold: the user's first-run command, then the same command again.

Each round starts ``python -m deltamatroid.cli --cache-dir DIR --format json
count --max-n 5 --with-even`` in a fresh process on an empty cache
directory (cold: levels 1..5 are enumerated and saved), then runs it
WARM_PER_COLD more times on the filled directory (warm: levels are
loaded).  Cold runs pit cache writes against warm runs' cache reads; the
level-4 build makes ~24 k small axiom-checker calls.  The command takes no
seeded input, so the seed only names the run's directories.  ``encoding``
and ``constructions`` stay idle.

Set-up primes the interpreter and bytecode caches with ``count --max-n 3``
on empty caches, SETUPS times.

End-to-end: ``job_ref`` is the median cold run, ``step_ref`` the median
warm run, both in units of the ``python`` plus ``numpy`` reference
(``common.Reference``: a run does interpreter-bound level-4 checks and
numpy level-5 passes; the same in seconds are printed above the JSON
line), ``setup_s`` the median set-up, ``peak_rss_mb`` the largest child
process.

Traced runs alternate traced and untraced rounds; traced rounds run the
CLI through ``cli_child.py``, which records spans inside the child.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time

from common import HERE, ROOT, Bench, Timing, load_pins, median
from spans import duration, level_build_figures, read_spans

REFERENCE = ("python", "numpy")
SETUPS = 9
WARM_PER_COLD = 2
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
TIMEOUT_S = 120


def _cli_args(cache_dir: str, max_n: int) -> list[str]:
    args = ["--cache-dir", cache_dir, "--format", "json", "count", "--max-n", str(max_n)]
    return args + ["--with-even"] if max_n == 5 else args


class _Runner:
    def __init__(self, bench: Bench):
        self.bench = bench
        self.env = bench.subprocess_env()
        self.pins = load_pins()["levels"]
        self.children = 0

    def run(self, cache_dir: str, max_n: int, traced: bool, phase: str) -> tuple[Timing, list[dict]]:
        """Run the CLI once; return its timing and, if traced, its spans."""
        bench = self.bench
        args = _cli_args(cache_dir, max_n)
        spans: list[dict] = []
        with bench.span("bench.cli", phase=phase, traced=traced) as rec:
            if traced:
                self.children += 1
                spans_out = os.path.join(bench.workdir, f"child{self.children}.jsonl")
                cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_out,
                       bench.run_id, rec["id"], f"c{self.children}.", "--", *args]
            else:
                cmd = [sys.executable, "-m", "deltamatroid.cli", *args]
            with bench.timed() as timing:
                proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                      text=True, timeout=TIMEOUT_S)
        if traced and os.path.exists(spans_out):
            spans = read_spans(spans_out)
            bench.tracer.extend(spans)
        self._verify(proc, max_n, phase)
        return timing, spans

    def _verify(self, proc: subprocess.CompletedProcess, max_n: int, phase: str) -> None:
        """One verified operation: exit 0 and the pinned counts on stdout."""
        want = [(n, self.pins["d"][n - 1], self.pins["e"][n - 1] if max_n == 5 else None)
                for n in range(1, max_n + 1)]
        try:
            got = [(r["n"], r["d"], r.get("e")) for r in json.loads(proc.stdout)["levels"]]
        except (ValueError, KeyError, TypeError) as exc:
            got = f"unreadable output ({exc})"
        self.bench.outcome.check(
            proc.returncode == 0 and got == want,
            f"{phase} count --max-n {max_n}: exit {proc.returncode}, got {got}, "
            f"want {want}; stderr {proc.stderr[-300:]!r}",
        )


def _cache_bytes(cache_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(cache_dir, f)) for f in os.listdir(cache_dir))


def _layer_figures(cold: list[dict], warm: list[list[dict]]) -> dict[str, float]:
    """Per-layer figures of one traced round (cold spans, warm spans)."""
    imports = [duration(s) for spans in [cold, *warm] for s in spans if s["name"] == "cli.import"]
    loads = [sum(duration(s) for s in spans if s["name"] == "levels.cache_load") for spans in warm]
    return {
        **level_build_figures(cold),
        "cli.import_s": median(imports),
        "levels.cache_save_s": sum(duration(s) for s in cold if s["name"] == "levels.cache_save"),
        "levels.cache_load_s": median(loads),
    }


def _verify_cache(bench: Bench, cache_dir: str) -> None:
    """The cache a cold run wrote holds level 5, and level 4 recounts it."""
    from deltamatroid import levels

    d5 = load_pins()["levels"]["d"][4]
    try:
        l4 = levels.LevelCache.load(levels.cache_path(cache_dir, 4))
        l5 = levels.LevelCache.load(levels.cache_path(cache_dir, 5))
        via = levels.count_next_level_via_classes(l4)
    except (OSError, ValueError, RuntimeError) as exc:
        bench.outcome.check(False, f"level cache check raised {exc!r}")
        return
    bench.outcome.check(len(l5) == d5, f"cached level 5 holds {len(l5)} systems")
    bench.outcome.check(via == d5, f"count_next_level_via_classes(level 4) = {via}")


def run(bench: Bench) -> tuple[dict[str, float], dict[str, float]]:
    runner = _Runner(bench)
    setups = []
    for i in range(SETUPS):
        with bench.span("bench.setup"):
            t, _ = runner.run(os.path.join(bench.workdir, f"setup{i}"), 3, False, "setup")
        setups.append(t.seconds)

    colds = {False: [], True: []}
    warms = {False: [], True: []}
    figures = []
    cache_bytes = 0
    start = time.perf_counter()
    rounds = 0
    cache_dir = None
    while True:
        traced = bench.traced and rounds % 2 == 0
        if cache_dir is not None:
            shutil.rmtree(cache_dir)
        cache_dir = os.path.join(bench.workdir, f"round{rounds}")
        t, cold_spans = runner.run(cache_dir, 5, traced, "cold")
        colds[traced].append(t)
        cache_bytes = _cache_bytes(cache_dir)
        warm_spans = []
        for _ in range(WARM_PER_COLD):
            t, spans = runner.run(cache_dir, 5, traced, "warm")
            warms[traced].append(t)
            warm_spans.append(spans)
        if traced and cold_spans:
            figures.append(_layer_figures(cold_spans, warm_spans))
        rounds += 1
        done = time.perf_counter() - start >= bench.seconds
        if bench.traced:
            if done and len(colds[True]) >= MIN_TRACED_ROUNDS and len(colds[False]) >= MIN_TRACED_ROUNDS:
                break
        elif done and rounds >= MIN_ROUNDS:
            break
    _verify_cache(bench, cache_dir)

    plain_cold = colds[False] or colds[True]
    plain_warm = warms[False] or warms[True]
    bench.note("count5_cold_s", median([t.seconds for t in plain_cold]), "s")
    bench.note("count5_warm_s", median([t.seconds for t in plain_warm]), "s")
    bench.note("cold_runs", len(plain_cold), "count")
    bench.note("warm_runs", len(plain_warm), "count")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_kb / 1024.0,
        "job_ref": median([t.units() for t in plain_cold]),
        "step_ref": median([t.units() for t in plain_warm]),
    }
    layers: dict[str, float] = {}
    if bench.traced:
        layers = {name: median([f[name] for f in figures]) for name in figures[0]} if figures else {}
        layers["levels.cache_bytes"] = cache_bytes
        layers["trace.overhead_s"] = (median([t.seconds for t in colds[True]])
                                      - median([t.seconds for t in colds[False]]))
    return e2e, layers
