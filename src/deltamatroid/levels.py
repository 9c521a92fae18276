"""Level-by-level exhaustive enumeration of labelled delta-matroids.

Level n is built from level n-1 by composing every ordered pair of
parents (each parent a delta-matroid or the improper system, excluding the
improper/improper pair) and keeping the composites that are delta-matroids.
One kernel (_ComposeKernel) serves every level.  It writes each parent as
its contraction and deletion by the top element, two indices into the
level below, so whether a composite's minor is a parent is one lookup in
one boolean table over pairs of the level below.  That is the
minor-membership criterion: a proper system on five or more elements whose
single-element deletions and contractions are all improper or
delta-matroids is itself a delta-matroid unless its feasible family is a
single antipodal pair.  Below five elements the criterion is necessary but
not sufficient, so the axiom checker filters the composites that pass it.
Both are invariant under twist and relabelling, so the checker decides one
twist/relabel orbit of them at a time: 95 checks for the 6 239 composites
that pass it at level 4, where checking every composite took 24 335.  The
orbits come from one sweep (_orbits) over a boolean table of (contraction,
deletion) index pairs: its row-major order is the ascending order of the
systems, and an image's cell is read from the indices of its two halves.
The same sweep over level 5 gives the twist/relabel classes that level 6
is counted by.

Levels 1..5 are listed whole, from one packed bit table per minor over all
parents.  Level 6 is counted one row per first component d1 = (a, b), its
top-element contraction and deletion, and a row is a grid over the halves
(c, d) of the second components it can admit: the c with member[a, c] by
the d with member[b, d], 1 847 of the 5 960 d for a class representative
on average.  The grid is the AND of one table per lower minor.  A table
has one row per system two levels down that is the minor there of some
admitted c (about 50 of the 156 on average) and one column per admitted
d.  It is False where the minor of the second component is unlisted, so
the grid keeps only second components whose minors are all listed; the
16 of those that are not parents, the antipodal pairs on five elements,
are cleared one bit each.  A row's work grows with its grid, not with
the ~5 M parents, so the kernel needs no per-parent minor arrays.

Caches of whole levels are numpy arrays of feasibility vectors, sorted
ascending, and can be persisted in a small binary format (see LevelCache).
"""

from __future__ import annotations

import concurrent.futures
import itertools
import logging
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .setsystem import (
    MinorKind,
    SetSystem,
    atomic_write_bytes,
    check_symmetric_exchange,
    even_parity_indicator,
)

logger = logging.getLogger(__name__)

MAX_LISTED_LEVEL = 5
MAX_COUNTED_LEVEL = 6

_DTYPES = {0: "<u1", 1: "<u1", 2: "<u1", 3: "<u1", 4: "<u2", 5: "<u4"}


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds the supported enumeration scale."""


class CacheFormatError(ValueError):
    """Raised on malformed or corrupt level-cache files."""


class CacheInvariantError(ValueError):
    """Raised when a level cache fails its structural invariants."""


def _dtype_for(n: int) -> np.dtype:
    try:
        return np.dtype(_DTYPES[n])
    except KeyError:
        raise ResourceLimitError(
            f"level caches support n <= {MAX_LISTED_LEVEL}, got {n}"
        ) from None


@dataclass(frozen=True)
class LevelCache:
    """All labelled delta-matroids on {1..n}, as sorted feasibility vectors."""

    n: int
    vectors: np.ndarray

    MAGIC = b"DMLC"
    VERSION = 1

    def __len__(self) -> int:
        return len(self.vectors)

    def validate(self) -> None:
        """Check structural invariants."""
        v = self.vectors
        if v.dtype != _dtype_for(self.n):
            raise CacheInvariantError(f"dtype {v.dtype} wrong for level {self.n}")
        if len(v) == 0:
            raise CacheInvariantError("empty level cache")
        if np.any(v[:-1] >= v[1:]):
            raise CacheInvariantError("vectors not strictly ascending")
        if int(v[0]) == 0:
            raise CacheInvariantError("improper system stored in cache")
        limit = 1 << (1 << self.n)
        if int(v[-1]) >= limit:
            raise CacheInvariantError("vector out of range for level")

    def save(self, path: str | os.PathLike) -> None:
        header = (
            self.MAGIC
            + bytes([self.VERSION, self.n])
            + len(self.vectors).to_bytes(8, "little")
        )
        atomic_write_bytes(path, header, np.ascontiguousarray(self.vectors))

    @classmethod
    def load(cls, path: str | os.PathLike) -> LevelCache:
        """Read a level file into one preallocated array, after checking
        its header and its length against the record count."""
        with open(path, "rb") as fh:
            header = fh.read(14)
            if len(header) < 14 or header[:4] != cls.MAGIC:
                raise CacheFormatError(f"{path}: missing DMLC header")
            version, n = header[4], header[5]
            if version != cls.VERSION:
                raise CacheFormatError(f"{path}: unsupported version {version}")
            if n > MAX_LISTED_LEVEL:
                raise CacheFormatError(f"{path}: unknown level {n}")
            count = int.from_bytes(header[6:14], "little")
            dtype = _dtype_for(n)
            expected = 14 + count * dtype.itemsize
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise CacheFormatError(
                    f"{path}: expected {expected} bytes for {count} records, got {size}"
                )
            vectors = np.empty(count, dtype=dtype)
            if fh.readinto(vectors.view(np.uint8)) != vectors.nbytes or fh.read(1):
                raise CacheFormatError(f"{path}: file changed while it was read")
        cache = cls(n, vectors)
        try:
            cache.validate()
        except CacheInvariantError as exc:
            raise CacheFormatError(f"{path}: {exc}") from None
        return cache


# --- the compose kernel ------------------------------------------------------

def _split(
    vectors: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(below, block_len, lo, pairs) for ascending systems on n >= 1
    elements: the systems one level down (improper first), the number of
    systems whose contraction by the top element is each of them in turn,
    each system's deletion by the top element, as an index into them, and
    the boolean table ``pairs[r, d]`` over pairs of indices into them that
    marks the systems, each as its (contraction, deletion).

    The contraction is the high half of a vector, so it is non-decreasing
    along the systems, and below is its distinct values: on a complete
    level every system d one level down is the contraction of
    compose(d, improper).  A deletion's index is read from one table over
    all values of a half (_half_index), not searched for.  Read in
    row-major order, pairs lists the systems in ascending order."""
    half = 1 << (n - 1)
    hi = vectors >> half
    if np.any(hi[1:] < hi[:-1]):
        raise CacheInvariantError("parents not sorted by their top-element contraction")
    starts = np.flatnonzero(np.concatenate([[True], hi[1:] != hi[:-1]]))
    below = hi[starts]
    block_len = np.diff(np.append(starts, len(hi)))
    # freed before the pair table, which is larger than the level at level 5
    del hi
    lo = _half_index(below, n)[vectors & ((1 << half) - 1)]
    if np.any(lo == len(below)):
        raise CacheInvariantError("a top-element deletion is not listed")
    pairs = np.zeros((len(below), len(below)), dtype=bool)
    pairs[np.repeat(np.arange(len(below), dtype=np.uint16), block_len), lo] = True
    return below, block_len, lo, pairs


def _half_index(below: np.ndarray, n: int) -> np.ndarray:
    """The index in below (ascending systems on n - 1 elements) of each
    value of a half of a system on n elements, or len(below) where that
    system is not listed; below has fewer than 2^16 systems (level 4 and
    the improper one: 5 960)."""
    index = np.full(1 << (1 << (n - 1)), len(below), dtype=np.uint16)
    index[below] = np.arange(len(below), dtype=np.uint16)
    return index


def _minor_indices(
    vectors: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, dict[tuple[int, MinorKind], np.ndarray]]:
    """(below, block_len, minors) for ascending systems on n >= 1 elements,
    improper first: the level below and the block lengths, as _split
    gives them, and per (element, kind) each system's minor as an index
    into below.

    A system is compose(hi, lo), and away from the top element a minor is
    compose(minor of hi, minor of lo).  So the minors come by recursion:
    the minors of the level below, as indices one level further down, and
    one table ``compose[x, y]`` -> index in below (see _compose_table)."""
    below, block_len, lo, _ = _split(vectors, n)
    hi = np.repeat(np.arange(len(below), dtype=np.uint16), block_len)
    minors = {(n - 1, MinorKind.CONTRACT): hi, (n - 1, MinorKind.DELETE): lo}
    if n == 1:
        return below, block_len, minors
    below_minors, compose = _compose_table(below, n - 1)
    for (p, kind), m in below_minors.items():
        minors[(p, kind)] = compose[m[hi], m[lo]]
        if np.any(minors[(p, kind)] == len(below)):
            raise CacheInvariantError(f"a ({p + 1}, {kind.value}) minor is not listed")
    return below, block_len, minors


def _compose_table(
    vectors: np.ndarray, n: int
) -> tuple[dict[tuple[int, MinorKind], np.ndarray], np.ndarray]:
    """(minors, compose) for ascending systems on n >= 1 elements, improper
    first: each system's minors as indices one level down, as
    _minor_indices gives them, and ``compose[x, y]``, the index of
    compose(x, y) among the systems, or len(vectors) where that is not
    listed."""
    down, _, minors = _minor_indices(vectors, n)
    compose = np.full((len(down), len(down)), len(vectors), dtype=np.uint16)
    compose[minors[(n - 1, MinorKind.CONTRACT)], minors[(n - 1, MinorKind.DELETE)]] = (
        np.arange(len(vectors), dtype=np.uint16)
    )
    return minors, compose


def _pack_columns(table: np.ndarray, minors: np.ndarray) -> np.ndarray:
    """Row x packs ``table[x, minors[d]]`` over every d of the level below,
    for a boolean table over pairs of the level one further down."""
    return np.packbits(np.take(table.view(np.uint8), minors, axis=1), axis=1, bitorder="little")


def _set_bits(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of the set bits of a 2-D table packed along its rows
    (little bit order), in row-major order."""
    r, byte = np.nonzero(packed)
    bits = np.unpackbits(packed[r, byte][:, None], axis=1, bitorder="little")
    k, bit = np.nonzero(bits)
    return r[k], byte[k] * 8 + bit


# the minor-membership criterion decides delta-matroids from five elements on
_CRITERION_FROM = 5
_COMPOSE_CHUNK = 128
_READ_CHUNK = 64
_EVEN_CHUNK = 1 << 16


def _require_criterion(child_n: int) -> None:
    if child_n < _CRITERION_FROM:
        raise ResourceLimitError(
            f"compose rows decide child levels {_CRITERION_FROM} and up, got {child_n}"
        )


class _ComposeKernel:
    """Compatibility of every ordered pair of parents, for one child level
    (1..6).

    The parents are the previous level with the improper system prepended.
    Each is a pair (a, b), its contraction and deletion by its top element,
    two indices into the level below, and the parents are ascending in
    (a, b).  ``member[a, b]`` marks the pairs that are parents.  A
    composite compose(d1, d2), d1 = (a, b) and d2 = (c, d), has d1 and d2
    as its top-element minors and (a, c) and (b, d) as its minors by the
    parents' top element.  At each lower (element, kind) its minor is the
    composite of the minors of d1 and d2 there; a system one level down has
    its minors as indices one level further down, and ``compose[x, y]``
    gives back the index of compose(x, y) in the level below.  So every
    minor is a parent iff member[c, d] (d2 is a parent), member[a, c],
    member[b, d] and, per lower (element, kind),
    ``member[m1, compose[c_p, d_p]]``, with m1 the minor of d1 and c_p,
    d_p those of c and d.  The kernel holds member, those small tables and
    each parent's b: no per-parent minors.

    The rows (child levels 5 and 6) test member[a, c] and member[b, d] by
    their grid's extent and the lower minors by their tables, which are
    False where a minor of d2 is unlisted.  That leaves member[c, d]: of
    the pairs whose minors are all listed, the ones that are not parents
    (``_nonparents``, found at init from the same packed tables that check
    the level) are cleared in every row that holds them, 16 at child level
    6 and 280 at child level 5.

    From five elements on, a proper system whose minors are all parents is
    a delta-matroid unless its feasible family is a single antipodal pair
    (``_excluded_pairs``).  Those pairs are read off the order of the
    single-set parents, all of which a level must list: init raises
    CacheInvariantError when one is missing.  Below five elements that
    test is necessary but not sufficient, so compose_level filters its
    survivors through the axiom checker, one call per twist/relabel orbit
    of them (123 calls over child levels 1..4), and the rows refuse.
    """

    def __init__(self, prev: LevelCache):
        self.child_n = prev.n + 1
        if self.child_n > MAX_COUNTED_LEVEL:
            raise ResourceLimitError(
                f"compose kernel supports child levels up to {MAX_COUNTED_LEVEL}"
            )
        dtype = prev.vectors.dtype
        self.parents = np.concatenate([np.zeros(1, dtype=dtype), prev.vectors])
        self._lower = {}
        if prev.n:
            # one block of parents per system below: their top-element contraction
            self.below, self._block_len, self._lo, self.member = _split(self.parents, prev.n)
        self._nonparents = (np.zeros(0, dtype=np.intp),) * 2
        if prev.n > 1:
            self._lower, self._compose = _compose_table(self.below, prev.n - 1)
            unlisted = self._compose == len(self.below)
            packed = np.packbits(self.member, axis=1, bitorder="little")
            # the pairs (c, d) that are parents or have an unlisted lower minor
            ruled_out = packed.copy()
            for (p, kind), m in self._lower.items():
                table = _pack_columns(unlisted, m)[m]
                if np.any(packed & table):
                    raise CacheInvariantError(f"a ({p + 1}, {kind.value}) minor is not listed")
                ruled_out |= table
            # the others have every minor listed but are not parents
            pad = np.packbits(np.ones(len(self.below), dtype=bool), bitorder="little")
            self._nonparents = _set_bits(~ruled_out & pad)
        self._excluded = self._excluded_pairs()

    def _excluded_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, second) parent indices of the pairs every row excludes:
        improper with improper and, from five elements on, each single-set
        first component {A} with the second component {complement of A},
        the antipodal pair {A + top, complement}.  Antipodal pairs are
        delta-matroids at two elements.

        Every single-set system is a delta-matroid, so all 2^(child_n - 1)
        of them are parents, ascending in A, and A -> complement of A
        reverses that order: the i-th single-set parent pairs with the i-th
        from the end.  A level that lacks one raises CacheInvariantError."""
        if self.child_n < _CRITERION_FROM:
            return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        single = np.flatnonzero(np.bitwise_count(self.parents) == 1)
        if len(single) != 1 << (self.child_n - 1):
            raise CacheInvariantError("a single-set system is not listed")
        return np.append(0, single), np.append(0, single[::-1])

    def _halves(self, parents):
        """The (a, b) of a parent, or of an array of parents, as indices
        into the level below."""
        a = np.searchsorted(self.below, self.parents[parents] >> (1 << (self.child_n - 2)))
        return a, self._lo[parents]

    def _row(self, parent_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cs, ds, rows): the row of d1 = (a, b) as a grid over the second
        components d2 = (c, d) with c in ``cs``, the c with member[a, c],
        and d marked in ``ds``, the d with member[b, d].  ``rows`` holds,
        per c in cs, the packed bits over those d, by rank, of the d2 that
        make a delta-matroid with d1.

        Each row is the AND of one table per lower (element, kind),
        gathered by c's minor there.  A table has a row only for the
        minors there of the c in cs, ranked in ascending order, and a
        column per d: about 50 of the 156 systems two levels down by
        1 847 of the 5 960 d for a class representative on average, and
        all of them when a and b are improper.  A table is False where
        the minor of d2 is unlisted, so the grid also requires every
        minor of d2 to be listed; the pairs that pass that but are not
        parents (``_nonparents``) are cleared with the excluded ones.
        Work grows with the grid, not with the ~5 M parents."""
        _require_criterion(self.child_n)
        a, b = map(int, self._halves(parent_index))
        cs = np.flatnonzero(self.member[a])
        ds = self.member[b]
        rows = None
        for m in self._lower.values():
            mc = m[cs]
            read = np.zeros(len(self._compose), dtype=bool)
            read[mc] = True
            # whether d1's minor here composes to a parent with each system
            # one level down, the unlisted ones included as False, for the
            # minors that some c has here
            w = np.append(self.member[self._compose[m[a], m[b]]], False)
            table = _pack_columns(w[self._compose[read]], m[ds])[(np.cumsum(read) - 1)[mc]]
            if rows is None:
                rows = table
            else:
                rows &= table
        # clear the pairs that are not parents and the excluded pairs
        first, second = self._excluded
        c, d = map(np.append, self._nonparents, self._halves(second[first == parent_index]))
        keep = self.member[a, c] & ds[d]
        r, col = np.searchsorted(cs, c[keep]), (np.cumsum(ds) - 1)[d[keep]]
        np.bitwise_and.at(rows, (r, col >> 3), ~np.left_shift(1, col & 7).astype(np.uint8))
        return cs, ds, rows

    def row_count(self, parent_index: int) -> int:
        """The number of second components that make a delta-matroid with
        the given first component (child levels 5 and 6)."""
        return int(np.bitwise_count(self._row(parent_index)[2]).sum())

    def row_ok(self, parent_index: int) -> np.ndarray:
        """Boolean array over all parents-as-second-component: True where
        the composed system is a delta-matroid (child levels 5 and 6).

        The parents whose contraction is some c of the grid form one
        contiguous block per c, and they are read _READ_CHUNK c at a time.
        The chunk's grid rows are unpacked with one more column, a padding
        bit and so False, for the d outside the grid, and each parent of
        the chunk's blocks reads its verdict at its row and its deletion's
        column: the gathers and the write stay within those blocks."""
        cs, ds, rows = self._row(parent_index)
        width = int(np.count_nonzero(ds)) + 1
        column = np.where(ds, np.cumsum(ds) - 1, width - 1)
        starts = np.cumsum(self._block_len) - self._block_len
        ok = np.zeros(len(self.parents), dtype=bool)
        for k in range(0, len(cs), _READ_CHUNK):
            chunk = slice(k, k + _READ_CHUNK)
            grid = np.unpackbits(rows[chunk], axis=1, count=width, bitorder="little").view(bool)
            lengths = self._block_len[cs[chunk]]
            # the chunk's parents, block after block, and where each reads
            spans = np.repeat(starts[cs[chunk]] - np.cumsum(lengths) + lengths, lengths)
            spans += np.arange(len(spans))
            at = np.repeat(np.arange(0, grid.size, width), lengths)
            at += np.take(column, self._lo[spans])
            ok[spans] = grid.ravel()[at]
        return ok

    def compose_level(self) -> np.ndarray:
        """Every delta-matroid on child_n <= 5 elements, ascending, from all
        rows at once.

        Each parent's minor per (element, kind) c comes from the kernel's
        own tables: its halves at the top element, and
        ``compose[m[a], m[b]]`` below it.  ``T_c[x]`` packs the column
        ``member[x, minors_c]`` over all parents, so the packed verdicts of
        every row are the AND over c of ``T_c[minors_c]``: one byte-row
        gather per minor and row.  Their bit counts size the output, and
        its high halves are the first components, repeated.  The low
        halves are filled _COMPOSE_CHUNK (128) rows at a time by one flat
        ``np.compress`` of the chunk's unpacked rows, raveled, over one
        copy of the parents tiled that many times.  A 2-D boolean select
        of the rows costs about a 2-D ``nonzero``, two to three times the
        flat compress at level 5, and 128 rows keep the fill's temporaries
        near 2 MB beside the 19 MB output.  At child level 6 one such
        table would hold 5 960 x 5 M bits: level 6 is counted row by row.

        Below five elements the rows' verdicts are a union of twist/relabel
        orbits, since the minor criterion is symmetric.  The rows, unpacked,
        are the child level's table over (contraction, deletion) pairs of
        parents, so _orbits sweeps a copy of it, the axiom checker decides
        each orbit by its minimum, and a rejected orbit's cells are cleared
        before the table is repacked: the fill lists only delta-matroids.
        The seconds of the tables (with those checks) and of the fill are
        logged at INFO, such as ``level 5: tables 0.030s, fill 0.060s``.
        """
        if self.child_n > MAX_LISTED_LEVEL:
            raise ResourceLimitError(
                f"the whole-level compose lists child levels up to {MAX_LISTED_LEVEL}"
            )
        began = time.perf_counter()
        count = len(self.parents)
        packed = np.tile(np.packbits(np.ones(count, dtype=bool), bitorder="little"), (count, 1))
        minors = []
        if self.child_n > 1:
            hi = np.repeat(np.arange(len(self.below), dtype=np.uint16), self._block_len)
            lo = self._lo
            minors = [hi, lo, *(self._compose[m[hi], m[lo]] for m in self._lower.values())]
        for m in minors:
            packed &= _pack_columns(self.member, m)[m]
        first, second = self._excluded
        # each first component has at most one excluded second component
        packed[first, second >> 3] &= ~np.left_shift(1, second & 7).astype(np.uint8)
        if self.child_n < _CRITERION_FROM:
            verdicts = np.unpackbits(packed, axis=1, count=count, bitorder="little").view(bool)
            for system, cells in _orbits(verdicts.copy(), self.parents, self.child_n):
                if check_symmetric_exchange(SetSystem(self.child_n, system)) is not None:
                    verdicts.ravel()[cells] = False
            packed = np.packbits(verdicts, axis=1, bitorder="little")
        sizes = np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
        tables = time.perf_counter()
        dtype = _dtype_for(self.child_n)
        wide = self.parents.astype(dtype)
        # parents are ascending and the first component occupies the high
        # bits, so the output in row order is already sorted
        vectors = np.repeat(wide << dtype.type(1 << (self.child_n - 1)), sizes)
        tiled = np.tile(self.parents, min(count, _COMPOSE_CHUNK))
        end = 0
        for start in range(0, count, _COMPOSE_CHUNK):
            rows = slice(start, start + _COMPOSE_CHUNK)
            ok = np.unpackbits(packed[rows], axis=1, count=count, bitorder="little").view(bool)
            begin, end = end, end + int(sizes[rows].sum())
            vectors[begin:end] |= np.compress(ok.ravel(), tiled[:ok.size])
        fill = time.perf_counter() - tables
        logger.info("level %d: tables %.3fs, fill %.3fs", self.child_n, tables - began, fill)
        return vectors


def enumerate_level(prev: LevelCache) -> LevelCache:
    """Build the complete next level from the previous one."""
    prev.validate()
    n = prev.n + 1
    if n > MAX_LISTED_LEVEL:
        raise ResourceLimitError(
            f"level {n} cannot be materialized as a list; use class counting"
        )
    return LevelCache(n, _ComposeKernel(prev).compose_level())


# --- counts and reports ------------------------------------------------------

@dataclass(frozen=True)
class CountReport:
    n: int
    d: int
    gamma: float
    e: int | None = None


def gamma_value(n: int, d: int) -> float:
    return math.log2(math.log2(d + 1)) - (n - 1)


def _verify_count_invariants(reports: list[CountReport]) -> None:
    for r in reports:
        if r.gamma <= 0:
            raise ValueError(f"gamma at level {r.n} not positive: {r.gamma}")
        if r.d < 1 << (1 << (r.n - 1)):
            raise ValueError(f"level {r.n} count below the even-family floor")
    for a, b in zip(reports, reports[1:]):
        if b.d + 1 > (a.d + 1) ** 2:
            raise ValueError(f"recurrence violated between levels {a.n} and {b.n}")
        if a.n >= 2 and b.d + 1 >= (a.d + 1) ** 2:
            raise ValueError(f"strict recurrence violated at level {a.n}")
        if a.n >= 2 and b.gamma >= a.gamma:
            raise ValueError(f"gamma not decreasing at level {b.n}")


def check_count_limits(n_max: int) -> None:
    """Refuse a count request beyond the supported levels, before any work."""
    if n_max > MAX_COUNTED_LEVEL:
        raise ResourceLimitError(f"counts beyond level {MAX_COUNTED_LEVEL} unsupported")


def count_report(
    n_max: int,
    levels: dict[int, LevelCache],
    with_even: bool = False,
) -> list[CountReport]:
    """Exact counts and gamma statistics for levels 1..n_max.

    ``levels`` must hold caches for 1..min(n_max, 5).  Level 6 is counted,
    not listed, so its report has no e: count_next_level_via_classes counts
    it from level 5 in seconds, on a thread per CPU the process may run
    on, and logs its progress.
    """
    check_count_limits(n_max)
    reports = []
    for n in range(1, n_max + 1):
        if n <= MAX_LISTED_LEVEL:
            d = len(levels[n])
            e = count_even(levels[n]) if with_even else None
        else:
            d = count_next_level_via_classes(levels[5])
            e = None
        reports.append(CountReport(n=n, d=d, gamma=gamma_value(n, d), e=e))
    _verify_count_invariants(reports)
    return reports


def count_even(cache: LevelCache) -> int:
    """Number of cached systems in which all feasible sizes share a parity.

    Counted chunk by chunk, so that the temporaries stay a few hundred KB
    however large the level."""
    ind = even_parity_indicator(cache.n)
    ev = np.array(ind, dtype=cache.vectors.dtype)
    odd = np.array(ind ^ ((1 << (1 << cache.n)) - 1), dtype=cache.vectors.dtype)
    chunks = (cache.vectors[i:i + _EVEN_CHUNK] for i in range(0, len(cache.vectors), _EVEN_CHUNK))
    return sum(int(np.count_nonzero(((v & ev) == 0) | ((v & odd) == 0))) for v in chunks)


# --- equivalence classes under twist and relabelling -------------------------
#
# Two labelled delta-matroids are equivalent when one is a relabelling of a
# twist of the other.  The compatibility count of a first component is
# constant on classes, so one exhaustive scan per class representative
# suffices to count the next level.

def _symmetries(n: int) -> np.ndarray:
    """One row per (relabelling sigma, twist t) of {1..n}: column m holds
    sigma(m) ^ t, the mask that subset m goes to.  n! * 2^n rows."""
    masks = np.arange(1 << n)
    relabel = np.zeros((math.factorial(n), 1 << n), dtype=masks.dtype)
    for row, sigma in zip(relabel, itertools.permutations(range(n))):
        for q, p in enumerate(sigma):
            row |= ((masks >> q) & 1) << p
    return (relabel[:, None, :] ^ masks[None, :, None]).reshape(-1, 1 << n)


def _orbits(
    pairs: np.ndarray, below: np.ndarray, n: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(system, cells) per twist/relabel orbit of the systems on n >= 1
    elements that ``pairs`` marks, in ascending order of the orbit minima:
    the minimum, and the cells of every member in the flattened table,
    ascending.  ``pairs[r, d]`` marks compose(below[r], below[d]), as
    _split builds it, and the sweep clears each orbit's cells.

    Row-major order is the ascending order of the systems, so the first
    cell still marked is the minimum of its orbit: every other member is
    also marked and so comes later.  Its whole orbit is the images under
    every symmetry, deduplicated by a sort and an adjacent-difference mask
    (np.unique would import numpy.ma, which nothing else on the count path
    needs), and each image's cell is read from the indices of its two
    halves (_half_index).  Orbits are disjoint, so the marked systems are
    closed under twist and relabelling iff every image's cell is still
    marked when its orbit is swept."""
    group = _symmetries(n)
    dtype = _dtype_for(n)
    half, width = 1 << (n - 1), len(below)
    index = _half_index(below, n)
    flat = pairs.ravel()
    for r in range(width):
        row = flat[r * width:(r + 1) * width]
        while row[k := int(row.argmax())]:
            system = int(below[r]) << half | int(below[k])
            bits = np.unpackbits(np.array([system], dtype=dtype).view(np.uint8), bitorder="little")
            images = np.packbits(bits[group], axis=1, bitorder="little").view(dtype)
            images = np.sort(images.ravel())
            images = images[np.append(True, images[1:] != images[:-1])]
            hi, lo = index[images >> half], index[images & ((1 << half) - 1)]
            cells = hi.astype(np.intp) * width + lo
            if max(hi.max(), lo.max()) == width or not flat[cells].all():
                raise CacheInvariantError(
                    "cache not closed under twist/relabel: an image is not listed"
                )
            flat[cells] = False
            yield system, cells


def twist_permutation_classes(cache: LevelCache) -> tuple[np.ndarray, np.ndarray]:
    """(representatives, class sizes); representatives are orbit minima,
    ascending, from one sweep (_orbits) over the level's table of
    (contraction, deletion) pairs (_split)."""
    below, _, _, pairs = _split(cache.vectors, cache.n)
    reps, sizes = [], []
    for system, cells in _orbits(pairs, below, cache.n):
        reps.append(system)
        sizes.append(len(cells))
    return np.array(reps, dtype=cache.vectors.dtype), np.array(sizes, dtype=np.int64)


_CLASS_ORDER_SEED = 0


def count_next_level_via_classes(prev: LevelCache) -> int:
    """Count the next level without listing it.

    The classes come from one sweep over the previous level's table of
    (contraction, deletion) pairs (_orbits), which finds each orbit's
    members from the indices of their halves.  One compatibility row is
    counted per equivalence class representative (``row_count``: the bit
    count of its grid over the admitted halves) and weighted by class
    size; the improper first component contributes one full previous
    level.  Requires child level 5 or 6.  The rows run in a pool of one
    thread per CPU the process may run on (the kernel's numpy gathers
    release the GIL), so ``taskset`` limits it.  Each phase is logged at
    INFO with its seconds: the canonicalization (with the class count),
    the kernel init and the rows (with the thread count).  In between,
    every 50th row and the last are logged at INFO, in row order, with the
    seconds since the count began and the time left at the rate since the
    first row, such as
    ``level 6: classes 50/2902 2.0s eta 7s``.

    Rows cost more the more second components a class admits, and that
    grows along the ascending representatives, so the classes are visited
    in one fixed pseudo-random order: then the rate of the rows done so far
    is an unbiased guide to the rows left.
    """
    child_n = prev.n + 1
    _require_criterion(child_n)
    clock = time.perf_counter
    began = start = clock()
    reps, sizes = twist_permutation_classes(prev)
    logger.info("level %d: %d twist/relabel classes in %.3fs", prev.n, len(reps), clock() - start)
    start = clock()
    kernel = _ComposeKernel(prev)
    logger.info("level %d: compose kernel built in %.3fs", child_n, clock() - start)
    rep_indices = np.searchsorted(kernel.parents, reps)

    def row(k: int) -> int:
        return int(sizes[k]) * kernel.row_count(int(rep_indices[k]))

    indices = random.Random(_CLASS_ORDER_SEED).sample(range(len(reps)), len(reps))
    total = len(prev)
    affinity = getattr(os, "sched_getaffinity", None)
    threads = len(affinity(0)) if affinity else os.cpu_count() or 1
    start = first_row = clock()
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        for done, subtotal in enumerate(pool.map(row, indices), start=1):
            total += subtotal
            if done == 1:
                first_row = clock()
            if (done % 50 == 0 or done == len(reps)) and logger.isEnabledFor(logging.INFO):
                now = clock()
                eta = (now - first_row) / max(done - 1, 1) * (len(reps) - done)
                logger.info(
                    "level %d: classes %d/%d %.1fs eta %.0fs",
                    child_n, done, len(reps), now - began, eta,
                )
    logger.info(
        "level %d: %d class rows in %.3fs (threads: %d)",
        child_n, len(reps), clock() - start, threads,
    )
    return total


# --- on-disk level store ------------------------------------------------------

def cache_path(cache_dir: str | os.PathLike, n: int) -> str:
    return os.path.join(os.fspath(cache_dir), f"level-{n:02d}.v{LevelCache.VERSION}.dmlc")


def build_levels(
    n_max: int, cache_dir: str | os.PathLike | None = None
) -> dict[int, LevelCache]:
    """Load or compute level caches 0..n_max, persisting computed ones.

    Corrupt cache files are detected by header, length and invariant
    checks and are recomputed rather than trusted.  Each level is logged at
    INFO: loaded or built, with the seconds taken, and for a rejected file
    the reason (which names the file).
    """
    if n_max > MAX_LISTED_LEVEL:
        raise ResourceLimitError(f"level lists stop at {MAX_LISTED_LEVEL}")
    levels = {0: LevelCache(0, np.array([1], dtype=_dtype_for(0)))}
    for n in range(1, n_max + 1):
        cache = None
        start = time.perf_counter()
        if cache_dir is not None:
            path = cache_path(cache_dir, n)
            if os.path.exists(path):
                try:
                    cache = LevelCache.load(path)
                    if cache.n != n:
                        raise CacheFormatError(f"{path}: holds level {cache.n}")
                except CacheFormatError as exc:
                    logger.info("level %d: cache file rejected, recomputing: %s", n, exc)
                    cache = None
                else:
                    logger.info(
                        "level %d: loaded %d systems in %.3fs",
                        n, len(cache), time.perf_counter() - start,
                    )
        if cache is None:
            start = time.perf_counter()
            cache = enumerate_level(levels[n - 1])
            logger.info(
                "level %d: built %d systems in %.3fs", n, len(cache), time.perf_counter() - start
            )
            if cache_dir is not None:
                os.makedirs(cache_dir, exist_ok=True)
                cache.save(cache_path(cache_dir, n))
        levels[n] = cache
    return levels
