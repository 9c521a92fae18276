"""Level enumeration, caches, counts, and the minor-membership fast path."""

from __future__ import annotations

import concurrent.futures
import hashlib
import logging
import os
import random
import re
import tracemalloc
import zlib

import numpy as np
import pytest

from deltamatroid import levels
from deltamatroid.setsystem import (
    MinorKind,
    SetSystem,
    check_symmetric_exchange,
    even_parity_indicator,
    is_delta_matroid,
)
from deltamatroid.levels import (
    CacheFormatError,
    CacheInvariantError,
    LevelCache,
    ResourceLimitError,
    _ComposeKernel,
    _minor_indices,
    build_levels,
    count_even,
    count_next_level_via_classes,
    count_report,
    enumerate_level,
    gamma_value,
    cache_path,
    twist_permutation_classes,
)
from tests.conftest import (
    LEVEL_FILE_SHA256,
    antipodal_systems,
    assert_canonical_files,
    batch_is_delta_matroid,
    cache_systems,
    compose,
    full_gather_row,
    minor,
    oracle_classes,
    oracle_is_delta_matroid,
    oracle_orbit,
    parent_minors,
    row_loop_level,
    searchsorted_orbits,
)

EXPECTED_D = {1: 3, 2: 15, 3: 155, 4: 5959, 5: 4980259}
EXPECTED_E = {1: 2, 2: 6, 3: 30, 4: 294, 5: 7966}
EXPECTED_D6 = 2746801811279


class TestEnumeration:
    def test_exact_counts(self, levels5):
        for n, d in EXPECTED_D.items():
            assert len(levels5[n]) == d

    def test_matches_raw_oracle(self, levels5, oracle_levels):
        for n, expected in oracle_levels.items():
            assert [int(v) for v in levels5[n].vectors] == expected

    def test_incomplete_cache_rejected(self):
        broken = LevelCache(2, np.array([3, 2], dtype="<u1"))
        with pytest.raises(CacheInvariantError):
            enumerate_level(broken)

    @pytest.mark.xfail(
        strict=True,
        reason="a level missing a multi-set system composes a short next level;"
        " see ROADMAP's level-store item",
    )
    def test_level_built_from_a_level_missing_a_system_is_refused(self, levels5):
        v = levels5[4].vectors
        with pytest.raises(CacheInvariantError):
            enumerate_level(LevelCache(4, v[v != 3]))

    def test_damaged_level_four_refused_in_memory(self, levels5):
        # the two damages a level file could once carry into the kernel: an
        # order-keeping bit flip (v[3001] is 0x9EF9) and {mask 5} dropped
        v = levels5[4].vectors.copy()
        v[3001] ^= 1
        with pytest.raises(CacheInvariantError, match="^a top-element deletion is not listed$"):
            enumerate_level(LevelCache(4, v))
        v = levels5[4].vectors
        with pytest.raises(CacheInvariantError, match="^a single-set system is not listed$"):
            enumerate_level(LevelCache(4, v[v != 1 << 5]))

    def test_listing_stops_at_level_five(self, levels5):
        with pytest.raises(ResourceLimitError):
            enumerate_level(levels5[5])

    def test_output_sorted_without_duplicates(self, levels5):
        v = levels5[5].vectors
        assert bool(np.all(v[:-1] < v[1:]))


class TestLevelFive:
    """The whole-level compose that lists level 5, against the row-by-row
    listing of the same kernel and the pinned cache files."""

    CACHE_SHA256 = LEVEL_FILE_SHA256

    def test_matches_row_loop(self, levels5):
        whole = enumerate_level(levels5[4])
        rows = row_loop_level(levels5[4])
        assert whole.vectors.dtype == rows.vectors.dtype == np.dtype("<u4")
        assert np.array_equal(whole.vectors, rows.vectors)

    def test_cache_files_pinned(self, levels5, tmp_path):
        for n, digest in self.CACHE_SHA256.items():
            path = tmp_path / f"level-{n}.dmlc"
            levels5[n].save(path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, n

    def test_tables_packed_once_from_the_kernel(self, levels5, tmp_path, monkeypatch):
        # the parents' minors come from the kernel's own tables, with no
        # second pass of the minor recursion: one packed table per
        # (element, kind), two at the top element and six below it
        kernel = _ComposeKernel(levels5[4])
        packed = []
        pack = levels._pack_columns

        def counting(table, minors):
            packed.append(len(minors))
            return pack(table, minors)

        def refused(*args):
            raise AssertionError("minor recursion repeated")

        monkeypatch.setattr(levels, "_pack_columns", counting)
        monkeypatch.setattr(levels, "_minor_indices", refused)
        path = tmp_path / "level-5.dmlc"
        LevelCache(5, kernel.compose_level()).save(path)
        assert packed == [len(kernel.parents)] * 8
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.CACHE_SHA256[5]

    def test_build_peak_bounded(self, levels5):
        # the output alone is 19 MB; the fill adds one tiled copy of the
        # parents and one unpacked chunk of rows, not a 2-D select's indices
        tracemalloc.start()
        try:
            built = enumerate_level(levels5[4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(built.vectors, levels5[5].vectors)
        assert peak <= 30 << 20

    @pytest.mark.parametrize("chunk", [1, 7, 10_000])
    def test_levels_do_not_depend_on_the_chunk(self, levels5, monkeypatch, chunk):
        # level 4 and the improper system are 5 960 parents: 7-row chunks
        # leave a last one of 3 rows, and one 10 000-row chunk holds them
        # all, with the parents tiled only as often as there are rows
        monkeypatch.setattr(levels, "_COMPOSE_CHUNK", chunk)
        for n in range(1, 6):
            built = enumerate_level(levels5[n - 1])
            assert np.array_equal(built.vectors, levels5[n].vectors), n

    def test_no_antipodal_pair_listed(self, levels5):
        v = levels5[5].vectors
        pairs = np.array([s.bits for s in antipodal_systems(5)], dtype=v.dtype)
        # the level is ascending: each pair's insertion point holds another system
        at = np.minimum(np.searchsorted(v, pairs), len(v) - 1)
        assert not np.any(v[at] == pairs)


def composite_candidates(prev: LevelCache) -> np.ndarray:
    """The composites of the next level whose minors are all listed, as
    compose_level lists them before the axiom checker: its output with a
    checker that accepts everything."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(levels, "check_symmetric_exchange", lambda system: None)
        return _ComposeKernel(prev).compose_level()


class TestOrbitDecidedLevels:
    """Below five elements compose_level checks one candidate per
    twist/relabel orbit and gives its verdict to the whole orbit."""

    def test_one_checker_call_per_orbit(self, levels5, monkeypatch):
        calls: dict[int, list[bool]] = {}

        def counting(system):
            witness = check_symmetric_exchange(system)
            calls.setdefault(system.n, []).append(witness is None)
            return witness

        monkeypatch.setattr(levels, "check_symmetric_exchange", counting)
        for n in range(1, 5):
            assert np.array_equal(enumerate_level(levels5[n - 1]).vectors, levels5[n].vectors)
        # one call per composite would be 3 + 15 + 255 + 6 239 = 6 512
        assert {n: len(v) for n, v in calls.items()} == {1: 2, 2: 5, 3: 21, 4: 95}
        assert sum(calls[4]) == 90

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_one_check_per_composite(self, levels5, n):
        candidates = composite_candidates(levels5[n - 1])
        keep = [check_symmetric_exchange(SetSystem(n, int(v))) is None for v in candidates]
        expected = candidates[np.array(keep, dtype=bool)]
        assert np.array_equal(_ComposeKernel(levels5[n - 1]).compose_level(), expected)
        if n <= 3:
            oracle = [
                v for v in candidates.tolist()
                if oracle_is_delta_matroid(n, [m for m in range(1 << n) if (v >> m) & 1])
            ]
            assert expected.tolist() == oracle

    def test_level_four_splits_no_composite(self, levels5, monkeypatch):
        # the orbit sweep walks compose_level's own table over pairs of
        # parents, so the 6 239 composites are not split into halves again
        split, calls = levels._split, []

        def recording(vectors, n):
            calls.append((n, len(vectors)))
            return split(vectors, n)

        monkeypatch.setattr(levels, "_split", recording)
        assert np.array_equal(enumerate_level(levels5[3]).vectors, levels5[4].vectors)
        assert calls and all(n < 4 for n, _ in calls), calls

    @pytest.mark.parametrize("n, candidates", [(3, False), (4, False), (4, True)])
    def test_orbits_partition(self, levels5, n, candidates):
        vals = composite_candidates(levels5[n - 1]) if candidates else levels5[n].vectors
        firsts, covered = [], np.zeros(len(vals), dtype=np.int64)
        for i, members in swept_orbits(vals, n):
            assert members[0] == i and np.all(members[1:] > members[:-1])
            firsts.append(i)
            covered[members] += 1
        assert np.all(covered == 1)
        assert firsts == sorted(firsts)

    @pytest.mark.parametrize(
        "n, candidates", [(1, False), (2, False), (3, False), (4, False), (4, True)]
    )
    def test_orbits_match_searchsorted(self, levels5, n, candidates):
        vals = composite_candidates(levels5[n - 1]) if candidates else levels5[n].vectors
        got = [(i, members.tolist()) for i, members in swept_orbits(vals, n)]
        assert got == [(i, members.tolist()) for i, members in searchsorted_orbits(vals, n)]

    def test_orbit_lookup_refuses_an_unlisted_half(self, levels5):
        # no system keeps {123} (mask 7, vector 1 << 7) as its top-element
        # contraction or deletion, but the single-set system {123} is an
        # image of {empty set}: its deletion is not listed
        v = levels5[4].vectors
        hi, lo = v >> 8, v & 255
        kept = v[(hi != 1 << 7) & (lo != 1 << 7)]
        assert 1 << 7 not in kept and 1 in kept
        with pytest.raises(CacheInvariantError, match="not closed.*image is not listed"):
            list(swept_orbits(kept, 4))
        # kept as a deletion only, it is refused before any table is built
        with pytest.raises(CacheInvariantError, match="deletion is not listed"):
            list(swept_orbits(v[hi != 1 << 7], 4))

    def test_orbit_lookup_refuses_an_unlisted_pair(self, levels5):
        # 1 << 15 is the single-set system {1234}: its halves {123} and the
        # improper system are both listed, but the pair is gone
        v = levels5[4].vectors
        kept = v[v != 1 << 15]
        assert 1 << 7 in kept >> 8 and 0 in kept & 255
        with pytest.raises(CacheInvariantError, match="not closed.*image is not listed"):
            list(swept_orbits(kept, 4))


def swept_orbits(vals: np.ndarray, n: int):
    """(i, members) per orbit of levels._orbits over the pair table of
    the ascending systems vals, with each cell turned into its index in
    vals: the rank of its system in row-major order."""
    below, _, _, pairs = levels._split(vals, n)
    rank = np.cumsum(pairs.ravel()) - 1
    for system, cells in levels._orbits(pairs, below, n):
        assert system == vals[rank[cells[0]]]
        yield int(rank[cells[0]]), rank[cells]
    # a whole sweep clears every cell
    assert not pairs.any()


class TestFastCheck:
    """The compose kernel's rows at child level 5, against the axiom checker."""

    @pytest.fixture(scope="class")
    def kernel(self, levels5):
        return _ComposeKernel(levels5[4])

    @staticmethod
    def admits(kernel: _ComposeKernel, d: SetSystem) -> bool:
        """Kernel verdict on d, split into its contraction and deletion by
        the top element (the row and the column)."""
        half = 1 << (d.n - 1)
        halves = (d.bits >> half, d.bits & ((1 << half) - 1))
        row, col = (int(np.searchsorted(kernel.parents, h)) for h in halves)
        assert [int(kernel.parents[row]), int(kernel.parents[col])] == list(halves)
        return bool(kernel.row_ok(row)[col])

    def test_requires_scale(self, levels5, monkeypatch):
        # below five elements the minor test is not sufficient: rows refuse,
        # and the class count refuses before it canonicalizes anything
        with pytest.raises(ResourceLimitError):
            _ComposeKernel(levels5[3]).row_ok(1)

        def canonicalize(cache):
            raise AssertionError("canonicalized before the scale gate")

        monkeypatch.setattr(levels, "twist_permutation_classes", canonicalize)
        with pytest.raises(ResourceLimitError):
            count_next_level_via_classes(levels5[3])

    def test_antipodal_family_is_rejected(self, kernel):
        for s in antipodal_systems(5):
            assert not self.admits(kernel, s)

    def test_rich_families_with_good_minors_pass(self, kernel):
        s = SetSystem.from_masks(5, [m for m in range(32) if bin(m).count("1") % 2 == 1])
        assert s.num_feasible >= 3
        assert self.admits(kernel, s)

    def test_agrees_with_axiom_on_random_composites(self, kernel):
        rng = random.Random(20260816)
        size = len(kernel.parents)
        for _ in range(2000):
            i, j = rng.randrange(size), rng.randrange(size)
            if i == j == 0:
                continue
            d = compose(SetSystem(4, int(kernel.parents[i])), SetSystem(4, int(kernel.parents[j])))
            assert bool(kernel.row_ok(i)[j]) == (check_symmetric_exchange(d) is None), d.bits

    @pytest.mark.skipif(
        not os.environ.get("DM_SLOW_TESTS"),
        reason="exhaustive level-5 cross-validation (minutes); set DM_SLOW_TESTS=1",
    )
    def test_agrees_with_axiom_on_all_level5_entries(self, levels5):
        for s in cache_systems(levels5[5]):
            assert check_symmetric_exchange(s) is None


class TestBatchOracle:
    """The bit-parallel axiom oracle (conftest.batch_is_delta_matroid),
    which needs no minor lemma, against the checker and the listed levels."""

    @staticmethod
    def rejected(vectors: np.ndarray) -> int:
        """How many systems on five elements the oracle rejects, checked
        2^16 at a time."""
        chunk = 1 << 16
        return sum(
            int(np.count_nonzero(~batch_is_delta_matroid(vectors[i:i + chunk], 5)))
            for i in range(0, len(vectors), chunk)
        )

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_agrees_with_checker_on_random_words(self, n):
        rng = random.Random(20261019 + n)
        words = [
            sum(1 << m for m in range(1 << n) if rng.random() < density)
            for density in (0.1, 0.5, 0.9)
            for _ in range(300)
        ]
        expected = [w != 0 and check_symmetric_exchange(SetSystem(n, w)) is None for w in words]
        assert 0 < sum(expected) < len(words)
        assert batch_is_delta_matroid(np.array(words, dtype=np.uint64), n).tolist() == expected

    def test_small_levels_from_all_words(self, levels5):
        for n in range(1, 5):
            verdicts = batch_is_delta_matroid(np.arange(1 << (1 << n)), n)
            assert int(np.count_nonzero(verdicts)) == EXPECTED_D[n]
            assert np.array_equal(np.flatnonzero(verdicts), levels5[n].vectors), n

    def test_passes_every_level5_system(self, levels5):
        assert self.rejected(levels5[5].vectors) == 0

    @pytest.mark.parametrize("defect", ["lower minor", "antipodal exclusion"])
    def test_catches_a_planted_kernel_defect(self, levels5, defect):
        # the whole-level check fails on a kernel that ignores one lower
        # minor, or lists the antipodal pairs
        kernel = _ComposeKernel(levels5[4])
        if defect == "lower minor":
            del kernel._lower[next(iter(kernel._lower))]
        else:
            kernel._excluded = tuple(side[:1] for side in kernel._excluded)
        listed = kernel.compose_level()
        assert len(listed) > len(levels5[5])
        assert self.rejected(listed) == len(listed) - len(levels5[5])

    @pytest.mark.skipif(
        not os.environ.get("DM_SLOW_TESTS"),
        reason="d5 from all 5 960^2 pairs of level-4 halves (~9 s); set DM_SLOW_TESTS=1",
    )
    def test_level5_count_from_pairs_of_halves(self, levels5):
        # a delta-matroid's top-element contraction and deletion are
        # delta-matroids or improper, so these pairs miss none
        halves = np.append(0, levels5[4].vectors).astype(np.uint32)
        count = 0
        for i in range(0, len(halves), 32):
            words = (halves[i:i + 32, None] << np.uint32(16)) | halves
            count += int(np.count_nonzero(batch_is_delta_matroid(words.ravel(), 5)))
        assert count == EXPECTED_D[5]


class TestMinorIndices:
    """Each parent's minors as indices into the level below, against the
    set-based minor of tests/conftest.py."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_match_set_minors(self, levels5, n):
        kernel = _ComposeKernel(levels5[n])
        below, _, by_combo = _minor_indices(kernel.parents, n)
        assert np.array_equal(below, kernel.below)
        assert set(by_combo) == {(p, kind) for p in range(n) for kind in MinorKind}
        rng = random.Random(n)
        picks = [0] + rng.sample(range(1, len(kernel.parents)), 150)
        for i in picks:
            s = SetSystem(n, int(kernel.parents[i]))
            for (p, kind), minors in by_combo.items():
                assert int(below[minors[i]]) == minor(s, p + 1, kind).bits, (i, p, kind)

    def test_unlisted_deletion_or_minor_refused(self, levels5):
        v = levels5[3].vectors
        hi, lo = v >> 4, v & 15
        # drop the systems whose top-element contraction is {empty set}:
        # it is no longer listed one level down, but still a deletion
        with pytest.raises(CacheInvariantError, match="deletion"):
            _ComposeKernel(LevelCache(3, v[hi != 1]))
        # and those whose deletion it is: it is still a minor by a lower element
        with pytest.raises(CacheInvariantError, match="minor"):
            _ComposeKernel(LevelCache(3, v[(hi != 1) & (lo != 1)]))


class TestLevel6Kernel:
    """The compose kernel over level 5 (the level-6 rows), against the
    full-gather formula and the set-based oracle."""

    # survivors per row, counted by the full-gather kernel
    PINNED = {0: 4980259, 1: 64, 2: 64, 17: 64, 1000: 1942, 123456: 19380,
              -2: 3231728, -1: 3697044}

    @pytest.fixture(scope="class")
    def kernel(self, levels5):
        return _ComposeKernel(levels5[5])

    @pytest.fixture(scope="class")
    def minors(self, kernel):
        return parent_minors(kernel)

    @pytest.fixture(scope="class")
    def rows(self, kernel):
        rng = random.Random(20261018)
        picks = [0, 1, len(kernel.parents) - 1] + rng.sample(range(len(kernel.parents)), 4)
        return {i: kernel.row_ok(i) for i in picks}

    def test_rows_match_full_gather(self, kernel, minors, rows):
        for i, ok in rows.items():
            assert np.array_equal(ok, full_gather_row(kernel, minors, i)), i

    def test_sampled_entries_match_oracle(self, kernel, rows):
        rng = random.Random(6)
        half = 1 << (kernel.child_n - 1)
        for i, ok in rows.items():
            picks = []
            for entries in (np.flatnonzero(ok).tolist(), np.flatnonzero(~ok).tolist()):
                picks += rng.sample(entries, min(3, len(entries)))
            for j in picks:
                bits = (int(kernel.parents[i]) << half) | int(kernel.parents[j])
                masks = [m for m in range(1 << kernel.child_n) if (bits >> m) & 1]
                assert oracle_is_delta_matroid(kernel.child_n, masks) == bool(ok[j]), (i, j)

    def test_survivor_counts_pinned(self, kernel):
        size = len(kernel.parents)
        got = {i: int(np.count_nonzero(kernel.row_ok(i % size))) for i in self.PINNED}
        assert got == self.PINNED
        # the count reads the packed row without the boolean one
        assert {i: kernel.row_count(i % size) for i in self.PINNED} == self.PINNED

    def test_tables_hold_only_the_rows_read(self, kernel, monkeypatch):
        built, widths = [], []
        pack = levels._pack_columns

        def recording(table, minors):
            built.append(len(table))
            widths.append(len(minors))
            return pack(table, minors)

        monkeypatch.setattr(levels, "_pack_columns", recording)
        # row 123456 admits 134 c, whose minors are 20 or 32 of the 156
        # systems two levels down, and its tables have one column per d
        # with member[b, d], not one per system of the level below
        assert kernel.row_count(123456) == self.PINNED[123456]
        a, b = kernel._halves(123456)
        cs = np.flatnonzero(kernel.member[a])
        read = [len(np.unique(m[cs])) for m in kernel._lower.values()]
        assert built == read and max(read) < len(kernel._compose), read
        ds = int(np.count_nonzero(kernel.member[b]))
        assert widths == [ds] * len(kernel._lower) and ds < len(kernel.below), ds
        # the improper first component admits every c and every d, so every
        # row and column is read
        built.clear()
        widths.clear()
        assert kernel.row_count(0) == self.PINNED[0]
        assert built == [len(kernel._compose)] * len(kernel._lower)
        assert widths == [len(kernel.below)] * len(kernel._lower)

    def test_nonparent_pairs_pinned(self, kernel, levels5):
        # the pairs (c, d) whose composite has every minor listed but is not
        # a parent: at child level 6 the antipodal pairs on five elements,
        # {A} on four elements with {[4] - A}, and 280 at child level 5,
        # where the minor test is not sufficient
        c, d = kernel._nonparents
        pairs = sorted(zip(kernel.below[c].tolist(), kernel.below[d].tolist()))
        assert pairs == sorted((1 << a, 1 << (a ^ 15)) for a in range(16))
        composites = [compose(SetSystem(4, x), SetSystem(4, y)).bits for x, y in pairs]
        assert sorted(composites) == sorted(s.bits for s in antipodal_systems(5))
        assert len(_ComposeKernel(levels5[4])._nonparents[0]) == 280

    def test_rows_need_the_nonparent_pairs(self, kernel, monkeypatch):
        # the improper first component admits every parent but itself; with
        # the list emptied, it also admits the 16 antipodal pairs
        monkeypatch.setattr(kernel, "_nonparents", (np.zeros(0, dtype=np.intp),) * 2)
        assert kernel.row_count(0) == EXPECTED_D[5] + 16
        # the boolean row reads the grid at parents only, so it misses them
        assert np.count_nonzero(kernel.row_ok(0)) == EXPECTED_D[5]

    def test_kernel_holds_no_per_parent_minors(self, levels5):
        # the tables are member (35 MB), the parents and their deletions:
        # ten 5 M-entry minor arrays would add 100 MB
        tracemalloc.start()
        try:
            kernel = _ComposeKernel(levels5[5])
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 80 * 2**20, held

    # (first, second component) pairs that only the top-contraction minor
    # rejects, found by comparing full_gather_row with and without it: the
    # composite is {B + 5 + 6, B' + 5} (or that plus {B'}), B' = {1..4} - B,
    # whose contraction by 5 is an antipodal pair on five elements
    TOP_ONLY = [(0x10000, 0x80000000), (0x10000, 0x80008000),
                (0x400000, 0x2000200), (0x80000000, 0x10001)]
    # and pairs that only the top-deletion minor rejects, found the same
    # way: the composite is {B + 6, B'} (or that plus {B' + 5}), whose
    # deletion by 5 is an antipodal pair on {1, 2, 3, 4, 6}
    TOP_DELETE_ONLY = [(0x1, 0x8000), (0x1, 0x80008000),
                       (0x40, 0x2000200), (0x800, 0x100010)]

    @staticmethod
    def assert_one_minor_rejects(kernel, level, pairs, rejecting) -> None:
        """Each composite is not a delta-matroid, every minor but
        ``rejecting`` is improper or listed, and its row rejects it."""

        def member(v: int) -> bool:
            k = int(np.searchsorted(level, v))
            return k < len(level) and int(level[k]) == v

        for d1, d2 in pairs:
            d = compose(SetSystem(5, d1), SetSystem(5, d2))
            assert not oracle_is_delta_matroid(6, list(d.feasible_masks())), (d1, d2)
            for e in range(1, 6):
                for kind in MinorKind:
                    m = minor(d, e, kind)
                    alone = (e, kind) == rejecting
                    assert (not m.is_proper or member(m.bits)) != alone, (d1, d2, e, kind)
            i, j = np.searchsorted(kernel.parents, [d1, d2])
            assert not kernel.row_ok(int(i))[j], (d1, d2)

    def test_top_contraction_alone_rejects(self, kernel, levels5):
        self.assert_one_minor_rejects(
            kernel, levels5[5].vectors, self.TOP_ONLY, (5, MinorKind.CONTRACT)
        )

    def test_top_deletion_alone_rejects(self, kernel, minors, levels5):
        self.assert_one_minor_rejects(
            kernel, levels5[5].vectors, self.TOP_DELETE_ONLY, (5, MinorKind.DELETE)
        )
        # and the full gather finds them only with that minor
        skip = {(4, MinorKind.DELETE)}
        for d1, d2 in self.TOP_DELETE_ONLY:
            i, j = np.searchsorted(kernel.parents, [d1, d2])
            assert full_gather_row(kernel, minors, int(i), skip)[j], (d1, d2)

    def test_whole_level_compose_refused(self, kernel):
        with pytest.raises(ResourceLimitError):
            kernel.compose_level()

    def test_unsorted_parents_refused(self, levels5):
        shuffled = LevelCache(4, levels5[4].vectors[::-1].copy())
        with pytest.raises(CacheInvariantError):
            _ComposeKernel(shuffled)


class TestAntipodal:
    def test_counts(self):
        assert len(antipodal_systems(5)) == 16
        assert len(antipodal_systems(1)) == 1
        assert antipodal_systems(1)[0] == SetSystem.from_sets(1, [[], [1]])
        with pytest.raises(ValueError):
            antipodal_systems(0)

    def test_each_has_complementary_pair(self):
        for s in antipodal_systems(4):
            masks = list(s.feasible_masks())
            assert len(masks) == 2
            assert masks[0] ^ masks[1] == 0b1111

    def test_none_pass_on_five_elements(self):
        for s in antipodal_systems(5):
            assert check_symmetric_exchange(s) is not None

    @pytest.mark.parametrize("n", [4, 5])
    def test_level_without_a_single_set_system_refused(self, levels5, n):
        # the antipodal pairs are read off the order of the single-set
        # parents, so a level that lacks one is refused, not composed
        v = levels5[n].vectors
        with pytest.raises(CacheInvariantError, match="single-set"):
            _ComposeKernel(LevelCache(n, v[v != 1 << 5]))

    def test_small_antipodal_are_delta_matroids(self):
        # pairs at distance <= 2 satisfy the axiom; from three elements on
        # the single-flip targets are all missing
        for n in (1, 2):
            for s in antipodal_systems(n):
                assert is_delta_matroid(s)
        for n in (3, 4):
            for s in antipodal_systems(n):
                assert not is_delta_matroid(s)


def flip_byte(data: bytes, offset: int, mask: int = 1) -> bytes:
    return data[:offset] + bytes([data[offset] ^ mask]) + data[offset + 1:]


class TestCacheFiles:
    def test_round_trip(self, levels5, tmp_path):
        for n in range(1, 5):
            path = tmp_path / f"lv{n}.dmlc"
            levels5[n].save(path)
            loaded = LevelCache.load(path)
            assert loaded.n == n
            assert np.array_equal(loaded.vectors, levels5[n].vectors)

    def test_header_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dmlc"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(CacheFormatError):
            LevelCache.load(path)

    def test_truncation_rejected(self, levels5, tmp_path):
        path = tmp_path / "trunc.dmlc"
        levels5[3].save(path)
        data = path.read_bytes()
        huge = data[:6] + (1 << 62).to_bytes(8, "little") + data[14:]
        for bad in (data[:-1], data + b"\x00", huge):
            path.write_bytes(bad)
            with pytest.raises(CacheFormatError):
                LevelCache.load(path)

    def test_load_holds_one_copy(self, levels5, tmp_path):
        path = tmp_path / "level-5.dmlc"
        levels5[5].save(path)
        tracemalloc.start()
        try:
            loaded = LevelCache.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.vectors, levels5[5].vectors)
        assert peak < 1.5 * levels5[5].vectors.nbytes

    def test_unsorted_payload_rejected(self, tmp_path):
        header = b"DMLC" + bytes([1, 1]) + (2).to_bytes(8, "little")
        path = tmp_path / "unsorted.dmlc"
        path.write_bytes(header + bytes([3, 2]))
        with pytest.raises(CacheFormatError):
            LevelCache.load(path)

    def test_unknown_level_byte_is_recomputed(self, levels5, tmp_path):
        build_levels(3, cache_dir=tmp_path)
        path = cache_path(tmp_path, 3)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[5] = 9
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(CacheFormatError):
            LevelCache.load(path)
        healed = build_levels(3, cache_dir=tmp_path)
        assert np.array_equal(healed[3].vectors, levels5[3].vectors)
        assert LevelCache.load(path).n == 3

    def test_build_levels_reuses_and_heals_cache(self, tmp_path, caplog):
        first = build_levels(3, cache_dir=tmp_path)
        stamp = os.path.getmtime(cache_path(tmp_path, 3))
        second = build_levels(3, cache_dir=tmp_path)
        assert os.path.getmtime(cache_path(tmp_path, 3)) == stamp
        assert np.array_equal(first[3].vectors, second[3].vectors)
        with open(cache_path(tmp_path, 2), "wb") as fh:
            fh.write(b"garbage")
        healed = build_levels(3, cache_dir=tmp_path)
        assert np.array_equal(healed[2].vectors, first[2].vectors)
        LevelCache.load(cache_path(tmp_path, 2))
        # a valid file holding another level, and one with an unknown
        # version byte: both are recomputed, and the reason logged
        with open(cache_path(tmp_path, 3), "rb") as fh:
            level3 = fh.read()
        with open(cache_path(tmp_path, 4), "wb") as fh:
            fh.write(level3)
        with open(cache_path(tmp_path, 1), "r+b") as fh:
            fh.seek(4)
            fh.write(bytes([2]))
        with caplog.at_level(logging.INFO, logger="deltamatroid.levels"):
            healed = build_levels(4, cache_dir=tmp_path)
        assert [r.getMessage() for r in caplog.records if "rejected" in r.getMessage()] == [
            f"level 1: cache file rejected, recomputing: {cache_path(tmp_path, 1)}:"
            " CRC-32 differs from the level-1 file",
            f"level 4: cache file rejected, recomputing: {cache_path(tmp_path, 4)}:"
            " holds level 3",
        ]
        assert np.array_equal(healed[1].vectors, first[1].vectors)
        assert len(healed[4]) == 5959
        assert LevelCache.load(cache_path(tmp_path, 1)).n == 1
        assert LevelCache.load(cache_path(tmp_path, 4)).n == 4

    def test_level_files_pinned_by_length_and_crc(self, levels5, tmp_path):
        path = tmp_path / "level.dmlc"
        for n in range(1, 6):
            levels5[n].save(path)
            data = path.read_bytes()
            assert levels._LEVEL_FILES[n] == (len(data), zlib.crc32(data)), n

    def test_every_bit_flip_refused(self, levels5, tmp_path):
        path = tmp_path / "level.dmlc"
        flips = 0
        for n in (1, 2, 3):
            levels5[n].save(path)
            data = path.read_bytes()
            for bit in range(8 * len(data)):
                bad = bytearray(data)
                bad[bit >> 3] ^= 1 << (bit & 7)
                path.write_bytes(bad)
                with pytest.raises(CacheFormatError):
                    LevelCache.load(path)
                flips += 1
        assert flips == 1720

    def test_every_dropped_system_refused(self, levels5, tmp_path):
        path = tmp_path / "level.dmlc"
        drops = [(n, i) for n in (1, 2, 3) for i in range(len(levels5[n]))]
        drops += [(4, i) for i in random.Random(0).sample(range(len(levels5[4])), 64)]
        for n, i in drops:
            LevelCache(n, np.delete(levels5[n].vectors, i)).save(path)
            with pytest.raises(CacheFormatError, match="pinned length"):
                LevelCache.load(path)
        assert len(drops) == 3 + 15 + 155 + 64

    def test_level_five_flipped_byte_refused(self, levels5, tmp_path):
        path = tmp_path / "level-5.dmlc"
        levels5[5].save(path)
        path.write_bytes(flip_byte(path.read_bytes(), 9_960_000, 0x40))
        with pytest.raises(CacheFormatError, match="CRC-32"):
            LevelCache.load(path)

    def test_bad_length_refused_before_allocation(self, levels5, tmp_path):
        path = tmp_path / "level-5.dmlc"
        levels5[5].save(path)
        with open(path, "r+b") as fh:
            fh.truncate(19_921_049)
        tracemalloc.start()
        try:
            with pytest.raises(CacheFormatError, match="pinned length"):
                LevelCache.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_build_levels_heals_to_the_pinned_bytes(self, tmp_path):
        build_levels(5, cache_dir=tmp_path)
        damages = {
            1: lambda data: b"garbage",
            2: lambda data: flip_byte(data, 6),  # the record count
            3: lambda data: data[:-1],
            4: lambda data: flip_byte(data, 14 + 2 * 3001),  # keeps the order
            5: lambda data: flip_byte(data, 9_960_000, 0x40),
        }
        for n, damage in damages.items():
            path = cache_path(tmp_path, n)
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(damage(data))
        healed = build_levels(5, cache_dir=tmp_path)
        assert [len(healed[n]) for n in range(1, 6)] == [EXPECTED_D[n] for n in range(1, 6)]
        assert_canonical_files(tmp_path, 5)

    def test_build_logs_tables_and_fill(self, caplog):
        with caplog.at_level(logging.INFO, logger="deltamatroid.levels"):
            build_levels(5)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 10
        for n in range(1, 6):
            split, built = messages[2 * n - 2:2 * n]
            assert re.fullmatch(rf"level {n}: tables \d+\.\d{{3}}s, fill \d+\.\d{{3}}s", split)
            assert built.startswith(f"level {n}: built {EXPECTED_D[n]} systems in ")


class TestCounts:
    def test_report_values_and_gammas(self):
        reports = count_report(5, with_even=True)
        stated = {1: 1.0, 2: 1.0, 3: 0.865, 4: 0.649, 5: 0.476}
        for r in reports:
            assert r.d == EXPECTED_D[r.n]
            assert r.e == EXPECTED_E[r.n]
            assert abs(r.gamma - stated[r.n]) <= 5e-4
        gammas = [r.gamma for r in reports]
        assert all(b < a for a, b in zip(gammas[1:], gammas[2:]))

    def test_floor_bound(self, levels5):
        for n, d in EXPECTED_D.items():
            assert d >= 1 << (1 << (n - 1))

    def test_recurrence(self):
        ds = list(EXPECTED_D.values())
        for i, (a, b) in enumerate(zip(ds, ds[1:]), start=1):
            assert b + 1 <= (a + 1) ** 2
            if i >= 2:
                assert b + 1 < (a + 1) ** 2

    def test_gamma_value_formula(self):
        assert gamma_value(1, 3) == 1.0
        assert gamma_value(2, 15) == 1.0

    def test_level7_refused(self, tmp_path, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("a level was built")

        monkeypatch.setattr(levels, "build_levels", build)
        with pytest.raises(ResourceLimitError):
            count_report(7, tmp_path / "cache")
        assert not (tmp_path / "cache").exists()

    def test_report_reads_and_writes_the_cache_dir(self, tmp_path, caplog):
        reports = count_report(4, tmp_path)
        assert [r.d for r in reports] == [3, 15, 155, 5959]
        assert sorted(os.listdir(tmp_path)) == [
            os.path.basename(cache_path(tmp_path, n)) for n in range(1, 5)
        ]
        with caplog.at_level(logging.INFO, logger="deltamatroid.levels"):
            again = count_report(4, tmp_path)
        assert again == reports
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 4
        for n, message in enumerate(messages, start=1):
            assert message.startswith(f"level {n}: loaded {EXPECTED_D[n]} systems in "), message

    def test_level6_counted_through_classes(self, monkeypatch):
        calls = []

        def counted(prev):
            calls.append(prev.n)
            return 10**12

        monkeypatch.setattr(levels, "count_next_level_via_classes", counted)
        reports = count_report(6)
        assert reports[-1].d == 10**12
        assert calls == [5]

    def test_even_counts_and_split(self, levels5):
        for n in range(1, 6):
            e = count_even(levels5[n])
            assert e == EXPECTED_E[n]

    def test_even_count_holds_no_level_size_temporaries(self, levels5):
        # a whole-level (v & mask) == 0 would allocate 20 MB at level 5
        tracemalloc.start()
        try:
            e = count_even(levels5[5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e == EXPECTED_E[5]
        assert peak < 8 * 2**20, peak

    def test_parity_indicator(self):
        assert even_parity_indicator(2) == 0b1001
        assert even_parity_indicator(3) == 0b01101001
        for n in range(13):
            brute = sum(1 << m for m in range(1 << n) if m.bit_count() % 2 == 0)
            assert even_parity_indicator(n) == brute, n


class TestClassCounting:
    def test_class_sizes_partition_level(self, levels5):
        for n in (3, 4):
            reps, sizes = twist_permutation_classes(levels5[n])
            assert int(sizes.sum()) == EXPECTED_D[n]
            assert len(reps) == len(set(int(r) for r in reps))

    def test_count_via_classes_matches_enumeration(self, levels5):
        assert count_next_level_via_classes(levels5[4]) == EXPECTED_D[5]

    def test_threaded_count_reports_progress_in_row_order(self, levels5, caplog):
        reps, _ = twist_permutation_classes(levels5[4])
        with caplog.at_level(logging.INFO, logger="deltamatroid.levels"):
            count = count_next_level_via_classes(levels5[4])
        assert count == EXPECTED_D[5]
        progress = [r.args[1:3] for r in caplog.records if "classes %d/%d" in r.msg]
        assert progress == [(50, len(reps)), (len(reps), len(reps))]

    # the affinity call, or the CPU count where the platform has none
    @pytest.mark.parametrize("affinity, cpu_count, threads", [
        ({0, 1, 2}, 8, 3),
        ({0}, 8, 1),
        (None, 2, 2),
        (None, None, 1),
    ], ids=["three-cpus", "one-cpu", "no-affinity-call", "no-cpu-count"])
    def test_pool_follows_the_cpu_set(
        self, levels5, affinity, cpu_count, threads, monkeypatch, caplog
    ):
        sizes = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        reps, _ = twist_permutation_classes(levels5[4])
        with caplog.at_level(logging.INFO, logger="deltamatroid.levels"):
            assert count_next_level_via_classes(levels5[4]) == EXPECTED_D[5]
        assert sizes == [threads]
        progress = [r.args[1:3] for r in caplog.records if "classes %d/%d" in r.msg]
        assert progress == [(50, len(reps)), (len(reps), len(reps))]
        assert caplog.records[-1].getMessage().endswith(f" (threads: {threads})")

    def test_progress_logged_every_50_rows_and_on_the_last(self, levels5, caplog):
        with caplog.at_level(logging.INFO, logger="deltamatroid.levels"):
            assert count_next_level_via_classes(levels5[4]) == EXPECTED_D[5]
        progress = [r.getMessage() for r in caplog.records if ": classes " in r.getMessage()]
        assert len(progress) == 2, progress
        assert re.fullmatch(r"level 5: classes 50/90 \d+\.\ds eta \d+s", progress[0])
        assert re.fullmatch(r"level 5: classes 90/90 \d+\.\ds eta 0s", progress[1])

    def test_classes_visited_in_one_fixed_shuffled_order(self, levels5, monkeypatch):
        # the rate of the rows done so far stands for the rows left only
        # if the rows are not visited in order of their cost
        visited: list[int] = []
        row_count = _ComposeKernel.row_count

        def recording_row_count(kernel, parent_index):
            visited.append(parent_index)
            return row_count(kernel, parent_index)

        monkeypatch.setattr(_ComposeKernel, "row_count", recording_row_count)
        assert count_next_level_via_classes(levels5[4]) == EXPECTED_D[5]
        first = visited[:]
        visited.clear()
        assert count_next_level_via_classes(levels5[4]) == EXPECTED_D[5]
        assert visited == first
        reps, _ = twist_permutation_classes(levels5[4])
        in_order = np.searchsorted(levels5[4].vectors, reps) + 1
        assert sorted(first) == in_order.tolist() != first

    @pytest.mark.skipif(
        not os.environ.get("DM_SLOW_TESTS"),
        reason="full level-6 class count (about half a minute, ~0.25 GB); set DM_SLOW_TESTS=1",
    )
    def test_level6_count_pinned(self, levels5):
        assert count_next_level_via_classes(levels5[5]) == EXPECTED_D6

    def test_count_needs_the_nonparent_pairs(self, levels5, monkeypatch):
        init = _ComposeKernel.__init__

        def emptied(kernel, prev):
            init(kernel, prev)
            kernel._nonparents = (np.zeros(0, dtype=np.intp),) * 2

        monkeypatch.setattr(_ComposeKernel, "__init__", emptied)
        assert count_next_level_via_classes(levels5[4]) > EXPECTED_D[5]

    def test_row_count_reads_the_boolean_row(self, levels5):
        kernel = _ComposeKernel(levels5[4])
        reps, _ = twist_permutation_classes(levels5[4])
        for i in np.searchsorted(kernel.parents, reps).tolist():
            assert kernel.row_count(i) == int(np.count_nonzero(kernel.row_ok(i))), i

    def test_phases_logged(self, levels5, caplog):
        with caplog.at_level(logging.INFO, logger="deltamatroid.levels"):
            assert count_next_level_via_classes(levels5[4]) == EXPECTED_D[5]
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 5, messages
        assert re.fullmatch(r"level 4: \d+ twist/relabel classes in \d+\.\d+s", messages[0])
        assert re.fullmatch(r"level 5: compose kernel built in \d+\.\d+s", messages[1])
        for message, done in zip(messages[2:4], (50, 90)):
            assert re.fullmatch(rf"level 5: classes {done}/90 \d+\.\ds eta \d+s", message)
        assert re.fullmatch(r"level 5: \d+ class rows in \d+\.\d+s \(threads: \d+\)", messages[4])

    def test_row_counts_constant_on_classes(self, levels5):
        # the compatibility count of a first component depends only on its
        # twist/relabel class; spot-check several classes directly
        kernel = _ComposeKernel(levels5[4])
        rng = random.Random(7)
        values = levels5[4].vectors
        by_class: dict[int, list[int]] = {}
        for idx in rng.sample(range(len(values)), 400):
            rep = min(oracle_orbit(SetSystem(4, int(values[idx]))))
            by_class.setdefault(rep, []).append(idx)
        checked = 0
        for members in by_class.values():
            if len(members) < 2:
                continue
            counts = {
                int(np.count_nonzero(kernel.row_ok(i + 1))) for i in members[:3]
            }
            assert len(counts) == 1
            checked += 1
        assert checked >= 20

    def test_classes_match_orbit_oracle(self, levels5):
        for n in (3, 4):
            reps, sizes = twist_permutation_classes(levels5[n])
            assert (reps.tolist(), sizes.tolist()) == oracle_classes(levels5[n])
            assert reps.dtype == levels5[n].vectors.dtype and sizes.dtype == np.int64

    def test_level5_classes_pinned(self, levels5):
        reps, sizes = twist_permutation_classes(levels5[5])
        assert len(reps) == 2902
        assert int(sizes.sum()) == EXPECTED_D[5]
        digest = hashlib.sha256(reps.tobytes() + sizes.tobytes()).hexdigest()
        assert digest == "99eafca1173b9c65589edba750bb70875e6821882e077eed33c7128a6f33cd29"

    def test_classes_refuse_a_level_not_closed(self, levels5):
        # 1 is the class minimum of the single-set systems and 1 << 15 one
        # more member of that class, reached only as an image
        vectors = levels5[4].vectors
        for missing in (1, 1 << 15):
            kept = LevelCache(4, vectors[vectors != missing])
            with pytest.raises(CacheInvariantError, match="not closed"):
                twist_permutation_classes(kept)

    def test_classes_closed_under_generators(self, levels5):
        reps, _ = twist_permutation_classes(levels5[3])
        rep_set = {int(r) for r in reps}
        assert all(int(r) in {int(v) for v in levels5[3].vectors} for r in reps)
        assert len(rep_set) == len(reps)
