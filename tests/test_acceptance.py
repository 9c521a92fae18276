"""Acceptance suite: the ten headline guarantees, one test per criterion.

Each test prints an ACCEPT line (pass/fail) that survives pytest's capture,
so a plain ``pytest -v`` run leaves a visible scoreboard.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from deltamatroid.setsystem import SetSystem, is_delta_matroid, is_even, twist
from deltamatroid.levels import count_even, count_report
from deltamatroid.constructions import (
    complement_delta_matroid,
    cut_count_lower_bound,
    random_stable_set,
    random_stacked_layers,
    sample_cut_construction,
    stacked_even_delta_matroid,
)
from deltamatroid.encoding import (
    _pair_masks,
    component_alpha,
    decode_even_system,
    encode_even_system,
    even_masks,
    kw_reconstruct,
    s_length_bound,
    upper_bound_report,
)
from tests.conftest import (
    cache_systems,
    cover_certifies,
    distance_two_matrix_identity,
    kw_encode,
    local_cover,
    numeric_least_eigenvalue,
    oracle_is_delta_matroid,
)

EXPECTED_D = {1: 3, 2: 15, 3: 155, 4: 5959, 5: 4980259}
FROZEN_E = {3: 30, 4: 294, 5: 7966}


_capture: pytest.CaptureFixture | None = None


@pytest.fixture(autouse=True)
def _live_scoreboard(capfd):
    # lets report() momentarily lift output capture so the ACCEPT lines
    # land on the real stdout of any pytest run
    global _capture
    _capture = capfd
    yield
    _capture = None


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    line = f"ACCEPT {criterion}: {'pass' if ok else 'FAIL'}{tail}"
    if _capture is not None:
        with _capture.disabled():
            print(line, flush=True)
    else:  # pragma: no cover - fixture always active under pytest
        print(line, flush=True)
    assert ok, f"{criterion} failed: {detail}"


def popcount(x: int) -> int:
    return bin(x).count("1")


def test_ac01_exact_counts(tmp_path, capfd):
    # drive the real command against a cold cache directory
    from deltamatroid.cli import main

    start = time.monotonic()
    code = main(["--cache-dir", str(tmp_path), "--format", "json", "count", "--max-n", "5"])
    elapsed = time.monotonic() - start
    doc = json.loads(capfd.readouterr().out)
    counts = {row["n"]: row["d"] for row in doc["levels"]}
    ok = code == 0 and counts == EXPECTED_D and elapsed < 1800
    report(
        "1 exact counts d1..d5",
        ok,
        f"{[counts.get(n) for n in range(1, 6)]} in {elapsed:.1f}s",
    )


def test_ac02_gamma_regression():
    stated = {1: 1.0, 2: 1.0, 3: 0.865, 4: 0.649, 5: 0.476}
    reports = count_report(5)
    gammas = {r.n: r.gamma for r in reports}
    close = all(abs(gammas[n] - stated[n]) <= 5e-4 for n in stated)
    decreasing = all(
        gammas[n + 1] < gammas[n] for n in range(2, 5)
    )
    positive = all(g > 0 for g in gammas.values())
    report(
        "2 gamma regression",
        close and decreasing and positive,
        ", ".join(f"{gammas[n]:.6f}" for n in range(1, 6)),
    )


def test_ac03_recurrence_bound():
    ok = all(
        EXPECTED_D[n + 1] + 1 < (EXPECTED_D[n] + 1) ** 2 for n in (2, 3, 4)
    )
    report("3 recurrence d_{n+1}+1 < (d_n+1)^2", ok)


def test_ac04_brute_force_equivalence(levels5):
    start = time.monotonic()
    ok = True
    detail = ""
    for n in range(1, 5):
        expected = [int(v) for v in levels5[n].vectors]
        brute = [
            bits
            for bits in range(1, 1 << (1 << n))
            if oracle_is_delta_matroid(
                n, [m for m in range(1 << n) if bits >> m & 1]
            )
        ]
        if brute != expected:
            ok = False
            detail = f"mismatch at n={n}"
            break
    elapsed = time.monotonic() - start
    if ok:
        ok = elapsed < 120
        detail = f"all 2^(2^n) candidates, n<=4, {elapsed:.1f}s"
    report("4 oracle equivalence", ok, detail)


def test_ac05_construction_soundness():
    failures = 0
    # (a) every stable set of the 3-cube, exhaustively
    total_q3 = 0
    for bits in range(1 << 8):
        members = frozenset(m for m in range(8) if bits >> m & 1)
        if any((m ^ (1 << i)) in members for m in members for i in range(3)):
            continue
        total_q3 += 1
        d = complement_delta_matroid(SetSystem.from_masks(3, members))
        if not is_delta_matroid(d):
            failures += 1
    # (a') one thousand random stable sets of the 5-cube
    for seed in range(1000):
        d = complement_delta_matroid(random_stable_set(5, seed))
        if not is_delta_matroid(d):
            failures += 1
    # (b) one thousand seeded cut samples at n=5
    rng = random.Random(50505)
    for _ in range(1000):
        d = sample_cut_construction(5, rng.randint(1, 5), rng.randrange(1 << 30))
        if not is_delta_matroid(d):
            failures += 1
    # (c) one thousand random stacked systems at n=6
    for seed in range(1000):
        d = stacked_even_delta_matroid(6, random_stacked_layers(6, seed))
        if not is_even(d) or not is_delta_matroid(d):
            failures += 1
    report(
        "5 construction soundness",
        failures == 0,
        f"{total_q3} exhaustive Q3 stable sets + 3x1000 samples, {failures} failures",
    )


def test_ac06_lower_bounds():
    ok = all(
        (1 << (1 << (n - 1))) <= EXPECTED_D[n] for n in range(1, 6)
    ) and all(cut_count_lower_bound(n) <= EXPECTED_D[n] for n in range(2, 6))
    report("6 lower-bound consistency", ok)


def test_ac07_spectral_checks():
    start = time.monotonic()
    identity_ok = all(distance_two_matrix_identity(n) for n in range(2, 9))
    gaps = {n: -numeric_least_eigenvalue(n) for n in range(2, 12)}
    eig_ok = all(
        lam == n // 2 and component_alpha(n) == Fraction(lam, math.comb(n, 2) + lam)
        for n, lam in gaps.items()
    )
    elapsed = time.monotonic() - start
    report(
        "7 spectral checks",
        identity_ok and eig_ok and elapsed < 60,
        f"identity n<=8, least eigenvalue and alpha n<=11, {elapsed:.1f}s",
    )


def test_ac08_container_properties():
    failures = 0
    rng = random.Random(88888)
    for n in (5, 6, 7, 8):
        vertices = even_masks(n)
        alpha = component_alpha(n)
        bound = s_length_bound(n)
        for _ in range(500):
            density = rng.random()
            l_set = {v for v in vertices if rng.random() < density}
            s, a = kw_encode(n, l_set)
            covered = set(s) | set(a)
            for m in s:
                covered.update(m ^ f for f in _pair_masks(n))
            if not set(s) <= l_set:
                failures += 1
            elif not l_set <= covered:
                failures += 1
            elif len(a) > alpha * len(vertices):
                failures += 1
            elif len(s) > bound:
                failures += 1
            elif kw_reconstruct(n, s) != a:
                failures += 1
    report(
        "8 container-procedure properties",
        failures == 0,
        f"4 sizes x 500 targets, {failures} failures",
    )


def test_ac09_encoder_round_trip(levels4):
    failures = 0
    systems = 0
    covers_checked = 0
    for n in (2, 3, 4):
        for s in cache_systems(levels4[n]):
            if not is_even(s):
                continue
            systems += 1
            record = encode_even_system(s)
            normalized = s
            if popcount(next(s.feasible_masks())) & 1:
                normalized = twist(s, 1)
            expected = tuple(
                m
                for m in range(1 << n)
                if popcount(m) % 2 == 0 and not normalized.has_mask(m)
            )
            if decode_even_system(record) != expected:
                failures += 1
            # every local cover must classify all distance-2 neighbours
            for x in expected:
                cover = local_cover(normalized, x)
                for a, b in combinations(range(1, n + 1), 2):
                    covers_checked += 1
                    flip = (1 << (a - 1)) | (1 << (b - 1))
                    if cover_certifies(cover, a, b) != normalized.has_mask(x ^ flip):
                        failures += 1
    for seed in range(200):
        d = stacked_even_delta_matroid(6, random_stacked_layers(6, seed))
        record = encode_even_system(d)
        expected = tuple(
            m for m in range(64) if popcount(m) % 2 == 0 and not d.has_mask(m)
        )
        if decode_even_system(record) != expected:
            failures += 1
    report(
        "9 encoder round trip",
        failures == 0,
        f"{systems} exhaustive systems, {covers_checked} cover pairs, 200 sampled",
    )


def test_ac10_even_count_bounds(levels5):
    computed = {n: count_even(levels5[n]) for n in (3, 4, 5)}
    frozen_ok = computed == FROZEN_E
    lower_ok = all(
        math.log2(math.log2(e)) >= n - 1 - math.log2(n)
        for n, e in computed.items()
    )
    upper_ok = all(
        math.log2(e) <= upper_bound_report(n).log_e_n_bound + 1e-9
        for n, e in computed.items()
    )
    report(
        "10 even-count bounds",
        frozen_ok and lower_ok and upper_ok,
        f"e3..e5 = {[computed[n] for n in (3, 4, 5)]}",
    )
