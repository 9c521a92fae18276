"""Shared pieces of the benchmark: paths, the run context, the reference
computation, statistics and the pinned reference values."""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
import uuid

from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench-run")
DEFAULT_SEED = 0
PYTHON_REFERENCE_ITERATIONS = 100_000
NUMPY_REFERENCE_ELEMENTS = 5_000_000


class Reference:
    """Fixed computations that the benchmark's times are expressed in.

    The shared host runs this process at speeds up to 2x apart, in spells
    from a fraction of a second to minutes, so a time in seconds says as
    much about the host's spell as about the program.  The host does not
    slow all work alike: interpreter-bound Python slows down the most,
    numpy passes over arrays much larger than the caches hardly at all.  So
    each workload names the kinds of work its operations do, and its
    reference runs one computation of each kind:

    * ``python``: dictionary lookups and integer and bit operations in the
      interpreter, like the axiom checker;
    * ``numpy``: a lookup of a 5 M-element uint16 array through a 64 K
      boolean table, like the level-6 compose kernel's rows.

    Timed just before and just after each measured operation, the reference
    slows down and speeds up with the host as the operation does; the
    operation's time over the mean of those two (a time in reference units,
    unit ``ref``) stays put from run to run.  The reference never calls the
    package, so a change to the package cannot move it.
    """

    def __init__(self, kinds: tuple[str, ...]):
        unknown = set(kinds) - {"python", "numpy"}
        if unknown or not kinds:
            raise ValueError(f"reference kinds {kinds}")
        self.kinds = kinds
        if "numpy" in kinds:
            import numpy as np

            rng = np.random.default_rng(0)
            self._table = rng.integers(0, 2, size=1 << 16, dtype=np.uint8).astype(bool)
            self._index = rng.integers(0, 1 << 16, size=NUMPY_REFERENCE_ELEMENTS, dtype=np.uint16)

    @staticmethod
    def _python() -> int:
        seen: dict[int, int] = {}
        acc = 0
        for i in range(PYTHON_REFERENCE_ITERATIONS):
            key = (i * 2654435761) & 4095
            old = seen.get(key)
            if old is None:
                seen[key] = i
            else:
                acc ^= old & -old
        return acc

    def _numpy(self) -> int:
        import numpy as np

        return int(np.count_nonzero(self._table[(np.uint16(1) << np.uint16(8)) | self._index]))

    def seconds(self) -> float:
        """Run the reference once; return its wall time."""
        t0 = time.perf_counter()
        for kind in self.kinds:
            getattr(self, "_" + kind)()
        return time.perf_counter() - t0


class Timing:
    """One measured operation, set when it ends: its wall time and the mean
    time of the reference just before and just after it."""

    seconds = 0.0
    reference = 0.0

    def units(self) -> float:
        """The operation's time in reference units."""
        return self.seconds / self.reference


class Outcome:
    """Verified operations: each check is one attempt, each mismatch a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


class Bench:
    """Everything one run needs: the seed its inputs derive from, its time
    budget, the reference its times are expressed in, a private scratch
    directory inside the checkout, and the tracer when the run is traced."""

    def __init__(self, seed: int, seconds: float, trace: bool, reference: tuple[str, ...]):
        self.seed = seed
        self.seconds = seconds
        self.run_id = uuid.uuid4().hex[:12]
        self.workdir = os.path.join(RUN_DIR, self.run_id)
        self.tracer = Tracer(self.run_id) if trace else None
        self.outcome = Outcome()
        self.report: list[tuple[str, float, str]] = []
        self.reference = Reference(reference)

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)

    @contextlib.contextmanager
    def untraced(self):
        """Record no spans inside this block."""
        tracer, self.tracer = self.tracer, None
        try:
            yield
        finally:
            self.tracer = tracer

    @contextlib.contextmanager
    def timed(self):
        """Time the reference computation, the block, and the reference
        computation again; the yielded Timing is filled in when the block
        ends."""
        timing = Timing()
        before = self.reference.seconds()
        t0 = time.perf_counter()
        yield timing
        timing.seconds = time.perf_counter() - t0
        timing.reference = (before + self.reference.seconds()) / 2

    def note(self, name: str, value: float, unit: str) -> None:
        """A figure shown in the human-readable table only."""
        self.report.append((name, value, unit))

    def subprocess_env(self) -> dict[str, str]:
        env = dict(os.environ)
        # DM_CACHE_DIR would override --cache-dir in the CLI
        env.pop("DM_CACHE_DIR", None)
        rest = env.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC + (os.pathsep + rest if rest else "")
        return env


def median(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def load_pins() -> dict:
    """Reference values that must not change (see README.md, "Pinned")."""
    with open(os.path.join(HERE, "pinned.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)
