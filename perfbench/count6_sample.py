"""count6-sample: the level-6 class count, timed in parts and projected.

``dmtool count --max-n 6 --allow-n6`` takes about ten minutes, too long to
repeat, so this workload times the three parts of
``levels.count_next_level_via_classes(level5)`` and projects the whole:

1. ``levels.twist_permutation_classes(level5)``: the 2 902 twist/relabel
   classes of level 5;
2. ``levels._ComposeKernel(level5)``: the compose kernel (~640 MB);
3. ``kernel.row_ok(i)`` for class representatives drawn uniformly over the
   classes, seeded, without replacement, until the run's time is up.

``job_ref`` = canonicalization + kernel init + 2 902 x the mean sampled
row; ``step_ref`` is the median row; both are in units of the ``numpy``
reference (``common.Reference``: rows are numpy passes over arrays larger
than the caches; the same in seconds are printed above the JSON line).  ``setsystem``, ``encoding`` and ``constructions`` stay idle
while this is measured.

The sample is uniform over classes on purpose.  The CLI visits classes in
order of their canonical vector, and the first of them admit on average
far fewer second components than a random class does, so a change that
prunes by survivors would look far better on them than on the whole count.

``_ComposeKernel(prev).row_ok(i)`` is a private seam: the package has no
public per-class entry point.  A change to the kernel must keep this call
working (same constructor argument, same boolean row over all parents).

Set-up builds levels 1..5 in memory with ``build_levels(5)``, SETUPS times;
``setup_s`` is the median.
Outputs are checked against the pinned level counts, the class count and
sizes, ``count_next_level_via_classes(level 4)``, and the set-based oracle
on sampled row entries, both admitted and rejected pairs.
"""

from __future__ import annotations

import random
import resource
import time

import numpy as np

import oracle
from common import Bench, Timing, load_pins, median, p90
from spans import instrument_levels, level_build_figures

REFERENCE = ("numpy",)
SETUPS = 3
MIN_ROWS = 24
SPOT_ROWS = 4
SPOT_PAIRS = 25


def _verify_levels(bench: Bench, store: dict, pins: dict) -> None:
    from deltamatroid import levels

    got = [(len(store[n]), levels.count_even(store[n])) for n in range(1, 6)]
    want = list(zip(pins["d"], pins["e"]))
    bench.outcome.check(got == want, f"level sizes and even counts {got}, want {want}")
    try:
        via = levels.count_next_level_via_classes(store[4])
    except (ValueError, RuntimeError) as exc:
        via = repr(exc)
    bench.outcome.check(via == pins["d"][4], f"count_next_level_via_classes(level 4) = {via}")


def _spot_check(bench: Bench, kernel, row: int, ok: np.ndarray, rng: random.Random) -> None:
    """Compose sampled (first, second) pairs into n = 6 systems and ask the
    oracle whether each is a delta-matroid; it must agree with the row."""
    d1 = int(kernel.parents[row])
    admitted = np.flatnonzero(ok).tolist()
    rejected = np.flatnonzero(~ok).tolist()
    picks = rng.sample(admitted, min(SPOT_PAIRS, len(admitted)))
    picks += rng.sample(rejected, min(SPOT_PAIRS, len(rejected)))
    half = 1 << (kernel.child_n - 1)
    for j in picks:
        bits = (d1 << half) | int(kernel.parents[j])
        verdict = oracle.is_delta_matroid(oracle.family_of(bits))
        bench.outcome.check(
            verdict == bool(ok[j]),
            f"row {row} entry {j}: kernel says {bool(ok[j])}, oracle says {verdict}",
        )


def run(bench: Bench) -> tuple[dict[str, float], dict[str, float]]:
    from deltamatroid import levels

    pins = load_pins()["levels"]
    if bench.traced:
        instrument_levels(bench.tracer)
    setups = []
    setup_figures = []
    for _ in range(SETUPS):
        store = None  # release the previous build before the next
        t0 = time.perf_counter()
        with bench.span("bench.setup") as rec:
            store = levels.build_levels(5)
        setups.append(time.perf_counter() - t0)
        if bench.traced:
            first = bench.tracer.spans.index(rec)
            setup_figures.append(level_build_figures(bench.tracer.spans[first:]))
    _verify_levels(bench, store, pins)
    level5 = store[5]
    del store

    start = time.perf_counter()
    with bench.timed() as canonical:
        with bench.span("levels.twist_permutation_classes"):
            reps, sizes = levels.twist_permutation_classes(level5)
    bench.outcome.check(
        len(reps) == pins["level5_classes"] and int(sizes.sum()) == pins["d"][4],
        f"{len(reps)} level-5 classes of total size {int(sizes.sum())}",
    )
    with bench.timed() as kernel_init:
        with bench.span("levels._ComposeKernel"):
            kernel = levels._ComposeKernel(level5)
    rep_rows = np.searchsorted(kernel.parents, reps)

    rng = random.Random(bench.seed)
    order = rng.sample(range(len(reps)), len(reps))
    times = {False: [], True: []}
    survivors = []
    spot = []
    for k, cls in enumerate(order):
        row = int(rep_rows[cls])
        traced = bench.traced and k % 2 == 0
        with bench.timed() as tm:
            if traced:
                with bench.span("levels.row_ok", row=row):
                    ok = kernel.row_ok(row)
            else:
                ok = kernel.row_ok(row)
        times[traced].append(tm)
        survivors.append(np.count_nonzero(ok) / len(ok))
        if k < SPOT_ROWS:
            spot.append((row, ok))
        if k + 1 >= MIN_ROWS and time.perf_counter() - start >= bench.seconds:
            break
    for row, ok in spot:
        _spot_check(bench, kernel, row, ok, rng)

    classes = len(reps)
    plain = times[False] or times[True]

    def projected(rows: list[Timing], units: bool = False) -> float:
        if units:
            return canonical.units() + kernel_init.units() + classes * float(np.mean([t.units() for t in rows]))
        return canonical.seconds + kernel_init.seconds + classes * float(np.mean([t.seconds for t in rows]))

    row_s = [t.seconds for t in plain]
    bench.note("count6_projected_s", projected(plain), "s")
    bench.note("count6_rows_per_s", len(row_s) / sum(row_s), "1/s")
    bench.note("row_ms", 1000.0 * median(row_s), "ms")
    bench.note("rows_sampled", len(plain), "count")
    e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "job_ref": projected(plain, units=True),
        "step_ref": median([t.units() for t in plain]),
    }
    layers: dict[str, float] = {}
    if bench.traced:
        traced_s = [t.seconds for t in times[True]]
        layers = {name: median([f[name] for f in setup_figures]) for name in setup_figures[0]}
        layers.update({
            "levels.canonical_s": canonical.seconds,
            "levels.kernel_init_s": kernel_init.seconds,
            "levels.row_s.p50": median(traced_s),
            "levels.row_s.p90": p90(traced_s),
            "levels.row_survivor_frac": float(np.mean(survivors)),
            "trace.overhead_s": projected(times[True]) - projected(times[False]),
        })
    return e2e, layers
