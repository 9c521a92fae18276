"""check-compress: the axiom checker and the record encoding at large n.

``constructions`` builds seeded systems (set-up, SETUPS times; ``setup_s``
is the median).  A pass then runs three batches:

* ``check_symmetric_exchange`` on valid systems at n = 9..11 (full scan);
* the same call on violating systems at n = 9..11 (early exit);
* ``encode_even_system`` -> ``dumps_record`` -> ``loads_record`` ->
  ``reconstruct_system`` on stacked-even systems at n = 12 and 13.

Passes repeat until the run's time is up (at least MIN_PASSES); the
violating batch runs VIOLATING_PER_PASS times in each pass.  Each input's
time is its median over the run.  ``job_ref`` is the three batches once
each at those times; ``step_ref`` is the mean violating check, so the
early-exit path has a bound of its own even when full scans get faster.
Both are in units of the ``python`` reference (``common.Reference``: the
checker and the encoder are interpreter-bound); the same figures in
seconds are printed above the JSON line.  ``levels``
and ``cli`` stay idle.

n = 14 round trips (7-10 s per encode at this commit) are left out, and
the valid batch stays small (cut-sample and stable-complement at n = 9
only), so that a run repeats every input several times: one n = 14 encode
per run could not be repeated and carried the machine's drift straight
into the job time.

Violating inputs violate by construction, not by the checker's say-so:
take an even system, pick an infeasible even set L and an element e0, and
add the single odd set X = L ^ {e0}.  Then (X, Y, e0) violates for every
feasible Y that differs from X at e0, because X ^ {e0} = L is infeasible
and every other X ^ {e0, f} is odd and not X.  L and e0 are chosen so that
X sits at a fixed share of the ascending feasible order (VIOLATING_AT);
the checker scans X in that order, so the depth of its early exit, and
with it the call's cost, does not drift with the seed; X is also chosen so
that no earlier pair violates, which ``_exits_at`` decides without the
checker.

Checks: every valid system passes; every violating system fails with a
witness that the set-based oracle confirms; every round trip restores the
system; for the default seed the witnesses and each record's SHA-256 match
the pinned ones.  The pinned default-seed witnesses and n = 12 record are
recomputed on every run, outside the timed passes.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import resource
import time
from dataclasses import dataclass

import oracle
from common import DEFAULT_SEED, Bench, load_pins, median, p90

REFERENCE = ("python",)
SETUPS = 25
MIN_PASSES = 2
VIOLATING_PER_PASS = 3
VALID = (
    ("stacked-even", 9), ("stacked-even", 10), ("stacked-even", 11),
    ("cut-sample", 9), ("stable-complement", 9),
)
VIOLATING_N = (9, 10, 11)
VIOLATING_AT = (0.05, 0.15, 0.35)
ROUNDTRIP_N = (12, 13)


@dataclass
class Inputs:
    valid: list  # (label, SetSystem)
    violating: list  # (label, SetSystem, planted (x, y, e))
    roundtrip: list  # (label, SetSystem)


def _construct(bench: Bench, kind: str, n: int, seed: int):
    from deltamatroid import constructions as c

    with bench.span(f"constructions.{kind}", n=n):
        if kind == "stacked-even":
            return c.stacked_even_delta_matroid(n, c.random_stacked_layers(n, seed))
        if kind == "cut-sample":
            return c.sample_cut_construction(n, 1 + seed % n, seed)
        if kind == "stable-complement":
            return c.complement_delta_matroid(c.random_stable_set(n, seed))
    raise ValueError(kind)


def _exits_at(feasible: list[int], x: int, n: int) -> bool:
    """Whether the first violation in ascending order is at X itself: no
    feasible x' < X has an element e of x' ^ X whose every exchange
    x' ^ {e, f} (f in x' ^ X) is infeasible.  Pairs of two even sets never
    violate, because the even system is a delta-matroid."""
    present = set(feasible)
    for low in feasible:
        if low >= x:
            return True
        diff = [p for p in range(n) if ((low ^ x) >> p) & 1]
        if len(diff) < 3:
            continue
        for e in diff:
            if not any((low ^ (1 << e) ^ (1 << f)) in present for f in diff if f != e):
                return False
    return True


def _plant_violation(system, at: float, rng: random.Random):
    """Add one odd set X = L ^ {e0} to an even system (see module doc)."""
    from deltamatroid import SetSystem

    n, bits = system.n, system.bits
    feasible = [m for m in range(1 << n) if (bits >> m) & 1]
    target = at * len(feasible)
    candidates = []
    for low in range(1 << n):
        if (bits >> low) & 1 or bin(low).count("1") % 2:
            continue
        for p in range(n):
            x = low ^ (1 << p)
            candidates.append((abs(bisect.bisect_left(feasible, x) - target), x, p))
    candidates.sort()
    slack = max(2.0, 0.01 * len(feasible))
    near = [c for c in candidates if c[0] <= candidates[0][0] + slack]
    rng.shuffle(near)
    _, x, p = next((c for c in near + candidates if _exits_at(feasible, c[1], n)), near[0])
    y = next(m for m in feasible if ((m ^ x) >> p) & 1)
    return SetSystem(n, bits | (1 << x)), (x, y, p + 1)


def build_inputs(bench: Bench, seed: int) -> Inputs:
    rng = random.Random(seed)
    valid = [(f"{kind} n={n}", _construct(bench, kind, n, rng.randrange(1 << 31)))
             for kind, n in VALID]
    violating = []
    for n in VIOLATING_N:
        for at in VIOLATING_AT:
            base = _construct(bench, "stacked-even", n, rng.randrange(1 << 31))
            system, planted = _plant_violation(base, at, rng)
            violating.append((f"violating n={n} at {at}", system, planted))
    roundtrip = [(f"stacked-even n={n}", _construct(bench, "stacked-even", n, rng.randrange(1 << 31)))
                 for n in ROUNDTRIP_N]
    return Inputs(valid, violating, roundtrip)


def _as_sets(x: int, y: int) -> tuple[frozenset, frozenset]:
    return oracle.mask_to_set(x), oracle.mask_to_set(y)


def _check_witness(bench: Bench, label: str, family: set, witness) -> list | None:
    if witness is None:
        bench.outcome.check(False, f"{label}: checker found no violation")
        return None
    x, y = _as_sets(witness.x, witness.y)
    bench.outcome.check(
        oracle.is_violation(family, x, y, witness.e),
        f"{label}: witness {witness} is not a violation",
    )
    return [witness.x, witness.y, witness.e]


@dataclass
class Samples:
    """Every timing of every input, in input order, as (seconds, reference
    seconds) pairs, and the record figures of the last round trips."""

    valid: list
    violating: list
    encode: list
    serialize: list
    reconstruct: list
    witnesses: list
    shas: list
    record_bytes: int = 0
    s_len: int = 0
    s_bound: int = 0
    residual: int = 0
    alpha_n: float = 0.0

    @classmethod
    def empty(cls, inputs: Inputs) -> "Samples":
        def cols(k):
            return [[] for _ in range(k)]

        r = len(inputs.roundtrip)
        return cls(cols(len(inputs.valid)), cols(len(inputs.violating)),
                   cols(r), cols(r), cols(r), [], [])


def _roundtrip(bench: Bench, label: str, system):
    """Time encode, serialize + parse, reconstruct; verify; return figures."""
    from deltamatroid import encoding

    t0 = time.perf_counter()
    with bench.span("encoding.encode_even_system", input=label):
        record = encoding.encode_even_system(system)
    t1 = time.perf_counter()
    with bench.span("encoding.dumps_record+loads_record", input=label):
        text = encoding.dumps_record(record)
        parsed = encoding.loads_record(text)
    t2 = time.perf_counter()
    with bench.span("encoding.reconstruct_system", input=label):
        restored = encoding.reconstruct_system(parsed)
    t3 = time.perf_counter()
    bench.outcome.check(restored == system and parsed == record, f"{label}: round trip differs")
    return record, text, (t1 - t0, t2 - t1, t3 - t2)


def _valid_batch(bench: Bench, inputs: Inputs, out: Samples) -> None:
    from deltamatroid.setsystem import check_symmetric_exchange

    for (label, system), times in zip(inputs.valid, out.valid):
        with bench.timed() as tm:
            with bench.span("setsystem.check_symmetric_exchange", input=label, expect="valid"):
                witness = check_symmetric_exchange(system)
        times.append((tm.seconds, tm.reference))
        bench.outcome.check(witness is None, f"{label}: valid system rejected by {witness}")


def _violating_batch(bench: Bench, inputs: Inputs, families: dict, out: Samples) -> None:
    from deltamatroid.setsystem import check_symmetric_exchange

    witnesses = []
    for (label, system, _), times in zip(inputs.violating, out.violating):
        with bench.timed() as tm:
            with bench.span("setsystem.check_symmetric_exchange", input=label, expect="violating"):
                witness = check_symmetric_exchange(system)
        times.append((tm.seconds, tm.reference))
        witnesses.append(_check_witness(bench, label, families[label], witness))
    out.witnesses = witnesses


def _roundtrip_batch(bench: Bench, inputs: Inputs, out: Samples) -> None:
    from deltamatroid import encoding

    out.shas = []
    out.record_bytes = out.s_len = out.s_bound = out.residual = 0
    out.alpha_n = 0.0
    for k, (label, system) in enumerate(inputs.roundtrip):
        with bench.timed() as tm:
            record, text, (enc, ser, rec) = _roundtrip(bench, label, system)
        out.encode[k].append((enc, tm.reference))
        out.serialize[k].append((ser, tm.reference))
        out.reconstruct[k].append((rec, tm.reference))
        data = text.encode("utf-8")
        out.shas.append(hashlib.sha256(data).hexdigest())
        out.record_bytes += len(data)
        out.s_len += len(record.s)
        out.s_bound += encoding.s_length_bound(record.n)
        out.residual += len(record.residual)
        out.alpha_n += float(record.alpha) * (1 << (record.n - 1))


def one_pass(bench: Bench, inputs: Inputs, families: dict, out: Samples) -> None:
    """The violating batch runs VIOLATING_PER_PASS times, spread over the
    pass, so that each early-exit input gets as many timings as the valid
    inputs and round trips together get time."""
    _violating_batch(bench, inputs, families, out)
    _valid_batch(bench, inputs, out)
    for k in range(1, VIOLATING_PER_PASS):
        _violating_batch(bench, inputs, families, out)
        if k == 1:
            _roundtrip_batch(bench, inputs, out)


def _per_input(samples: Samples, units: bool = False) -> dict:
    """Each input's median time over the run, in seconds or in reference
    units."""
    def value(seconds: float, reference: float) -> float:
        return seconds / reference if units else seconds

    return {
        name: [median([value(*t) for t in times]) for times in getattr(samples, name)]
        for name in ("valid", "violating", "encode", "serialize", "reconstruct")
    }


def _job(t: dict) -> float:
    return sum(sum(v) for v in t.values())


def _verify_default_pins(bench: Bench, pins: dict) -> None:
    """Recompute the default seed's witnesses and n = 12 record."""
    from deltamatroid.setsystem import check_symmetric_exchange

    inputs = build_inputs(bench, DEFAULT_SEED)
    for (label, system, _), want in zip(inputs.violating, pins["witnesses"]):
        w = check_symmetric_exchange(system)
        got = None if w is None else [w.x, w.y, w.e]
        bench.outcome.check(got == want, f"default-seed {label}: witness {got}, pinned {want}")
    label, system = inputs.roundtrip[0]
    _, text, _ = _roundtrip(bench, label, system)
    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    bench.outcome.check(sha == pins["record_sha256"][0], f"default-seed {label}: record SHA-256 {sha}")


def run(bench: Bench) -> tuple[dict[str, float], dict[str, float]]:
    pins = load_pins()["check_compress"]
    setups = []
    build_s = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        with bench.span("bench.setup") as rec:
            inputs = build_inputs(bench, bench.seed)
        setups.append(time.perf_counter() - t0)
        if bench.traced:
            first = bench.tracer.spans.index(rec)
            build_s.append(sum(s["end"] - s["start"] for s in bench.tracer.spans[first:]
                               if s["name"].startswith("constructions.")))
    families = {}
    for label, system, (x, y, e) in inputs.violating:
        families[label] = oracle.family_of(system.bits)
        bench.outcome.check(
            oracle.is_violation(families[label], *_as_sets(x, y), e),
            f"{label}: planted triple {(x, y, e)} does not violate",
        )

    samples = {False: Samples.empty(inputs), True: Samples.empty(inputs)}
    passes = {False: 0, True: 0}
    start = time.perf_counter()
    k = 0
    while True:
        traced = bench.traced and k % 2 == 0
        if traced:
            one_pass(bench, inputs, families, samples[True])
        else:
            with bench.untraced():
                one_pass(bench, inputs, families, samples[False])
        passes[traced] += 1
        k += 1
        done = time.perf_counter() - start >= bench.seconds
        if done and passes[False] >= MIN_PASSES and passes[True] >= (MIN_PASSES if bench.traced else 0):
            break

    if bench.seed == DEFAULT_SEED:
        last = samples[False]
        bench.outcome.check(last.witnesses == pins["witnesses"], f"witnesses {last.witnesses}")
        bench.outcome.check(last.shas == pins["record_sha256"], f"record SHA-256 {last.shas}")
    else:
        with bench.untraced():
            _verify_default_pins(bench, pins)

    plain = _per_input(samples[False])
    ref = _per_input(samples[False], units=True)
    bench.note("check_valid_s", sum(plain["valid"]), "s")
    bench.note("check_violating_s", sum(plain["violating"]), "s")
    bench.note("roundtrip_s", sum(plain["encode"]) + sum(plain["serialize"]) + sum(plain["reconstruct"]), "s")
    bench.note("job_s", _job(plain), "s")
    bench.note("step_ms", 1000.0 * sum(plain["violating"]) / len(plain["violating"]), "ms")
    bench.note("passes", passes[False], "count")
    e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "job_ref": _job(ref),
        "step_ref": sum(ref["violating"]) / len(ref["violating"]),
    }
    layers: dict[str, float] = {}
    if bench.traced:
        t = _per_input(samples[True])
        last = samples[True]
        layers = {
            "setsystem.check_valid_s.p50": median(t["valid"]),
            "setsystem.check_valid_s.p90": p90(t["valid"]),
            "setsystem.check_violating_s.p50": median(t["violating"]),
            "setsystem.check_violating_s.p90": p90(t["violating"]),
            "constructions.build_s": median(build_s),
            "encoding.encode_s": sum(t["encode"]),
            "encoding.serialize_s": sum(t["serialize"]),
            "encoding.reconstruct_s": sum(t["reconstruct"]),
            "encoding.record_bytes": last.record_bytes,
            "encoding.s_over_bound": last.s_len / last.s_bound,
            "encoding.residual_over_alpha_n": last.residual / last.alpha_n,
            "trace.overhead_s": _job(t) - _job(plain),
        }
    return e2e, layers
