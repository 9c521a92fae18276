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
that pass it at level 4, where checking every composite took 24 335.

Levels 1..5 are listed whole, from one packed bit table per minor over all
parents.  Level 6 is counted one row per first component, and a row is a
grid over the pairs (c, d) of the level below: one packed row over d per
admitted c, ANDed with one table per lower minor.  A table has one row per
system two levels down that is the minor there of some admitted c: about
50 of the 156 for a class representative on average.  A row's work grows
with the c it admits (a few thousand), not with the ~5 M parents, so the
kernel needs no per-parent minor arrays, and no step that first rejects
whole blocks of parents and then gathers minors for the survivors.

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

    @classmethod
    def level_zero(cls) -> LevelCache:
        return cls(0, np.array([1], dtype=_dtype_for(0)))

    def __len__(self) -> int:
        return len(self.vectors)

    def systems(self) -> Iterator[SetSystem]:
        for v in self.vectors:
            yield SetSystem(self.n, int(v))

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

def _split(vectors: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(below, block_len, lo) for ascending systems on n >= 1 elements, the
    improper one first: the systems one level down (improper first), the
    number of systems whose contraction by the top element is each of them
    in turn, and each system's deletion by the top element, as an index
    into them.

    The contraction is the high half of a vector, so it is non-decreasing
    along the systems, and below is its distinct values: on a complete
    level every system d one level down is the contraction of
    compose(d, improper)."""
    half = 1 << (n - 1)
    hi = vectors >> half
    if np.any(hi[1:] < hi[:-1]):
        raise CacheInvariantError("parents not sorted by their top-element contraction")
    starts = np.flatnonzero(np.concatenate([[True], hi[1:] != hi[:-1]]))
    below = hi[starts]
    block_len = np.diff(np.append(starts, len(hi)))
    lo = vectors & ((1 << half) - 1)
    j = np.searchsorted(below, lo)
    if np.any(below[np.minimum(j, len(below) - 1)] != lo):
        raise CacheInvariantError("a top-element deletion is not listed")
    return below, block_len, j.astype(np.uint16)


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
    below, block_len, lo = _split(vectors, n)
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


# the minor-membership criterion decides delta-matroids from five elements on
_CRITERION_FROM = 5
_COMPOSE_CHUNK = 1024
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
    minor is a parent iff member[a, c], member[b, d] and, per lower
    (element, kind), ``member[m1, compose[c_p, d_p]]``, with m1 the minor
    of d1 and c_p, d_p those of c and d.  The kernel holds member, its rows
    packed, those small tables and each parent's b: no per-parent minors.

    From five elements on, a proper system whose minors are all parents is
    a delta-matroid unless its feasible family is a single antipodal pair
    (``_excluded_pairs``).  Below five elements that test is necessary but
    not sufficient, so compose_level filters its survivors through the
    axiom checker, one call per twist/relabel orbit of them (123 calls over
    child levels 1..4), and the rows refuse.
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
            self.below, self._block_len, self._lo = _split(self.parents, prev.n)
            hi = np.repeat(np.arange(len(self.below), dtype=np.uint16), self._block_len)
            self.member = np.zeros((len(self.below), len(self.below)), dtype=bool)
            self.member[hi, self._lo] = True
            self._packed = np.packbits(self.member, axis=1, bitorder="little")
        if prev.n > 1:
            self._lower, self._compose = _compose_table(self.below, prev.n - 1)
            unlisted = self._compose == len(self.below)
            for (p, kind), m in self._lower.items():
                if np.any(self._packed & _pack_columns(unlisted, m)[m]):
                    raise CacheInvariantError(f"a ({p + 1}, {kind.value}) minor is not listed")
        self._excluded = self._excluded_pairs()

    def _excluded_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, second) parent indices of the pairs every row excludes:
        improper with improper and, from five elements on, each single-set
        first component {A} with the second component {complement of
        A + top}.  Antipodal pairs are delta-matroids at two elements."""
        first, second = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        if self.child_n < _CRITERION_FROM:
            return first, second
        parents = self.parents
        single = np.flatnonzero((parents != 0) & ((parents & (parents - 1)) == 0))
        a = np.log2(parents[single]).astype(np.int64)
        partner = np.left_shift(1, a ^ ((1 << (self.child_n - 1)) - 1)).astype(parents.dtype)
        j = np.minimum(np.searchsorted(parents, partner), len(parents) - 1)
        found = parents[j] == partner
        return np.append(first, single[found]), np.append(second, j[found])

    def _halves(self, parent_index: int) -> tuple[int, int]:
        """A parent's (a, b) as indices into the level below."""
        a = np.searchsorted(self.below, self.parents[parent_index] >> (1 << (self.child_n - 2)))
        return int(a), int(self._lo[parent_index])

    def _row(self, parent_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(admitted, rows): the row of d1 = (a, b) as a grid over the
        second components d2 = (c, d).  ``admitted`` marks the c with
        member[a, c]; ``rows`` holds, per admitted c in turn, the packed
        bits over d of the d2 that make a delta-matroid with d1.

        Each row starts as the AND of the packed member[c] (d2 is a
        parent) and member[b], then ANDs in one table per lower
        (element, kind), gathered by c's minor there.  A table has a row
        only for the minors there of the admitted c, ranked in ascending
        order: about 50 of the 156 systems two levels down on average, and
        all of them when a is improper and admits every c.  Work grows with
        the admitted c, not with the ~5 M parents."""
        _require_criterion(self.child_n)
        a, b = self._halves(parent_index)
        admitted = self.member[a]
        cs = np.flatnonzero(admitted)
        rows = self._packed[cs] & self._packed[b]
        for m in self._lower.values():
            mc = m[cs]
            read = np.zeros(len(self._compose), dtype=bool)
            read[mc] = True
            # whether d1's minor here composes to a parent with each system
            # one level down, the unlisted ones included as False, for the
            # minors that some admitted c has here
            w = np.append(self.member[self._compose[m[a], m[b]]], False)
            table = _pack_columns(w[self._compose[read]], m)
            rows &= table[(np.cumsum(read) - 1)[mc]]
        first, second = self._excluded
        for c, d in map(self._halves, second[first == parent_index]):
            if admitted[c]:
                rows[np.searchsorted(cs, c), d >> 3] &= ~np.uint8(1 << (d & 7))
        return admitted, rows

    def row_count(self, parent_index: int) -> int:
        """The number of second components that make a delta-matroid with
        the given first component (child levels 5 and 6)."""
        return int(np.bitwise_count(self._row(parent_index)[1]).sum())

    def row_ok(self, parent_index: int) -> np.ndarray:
        """Boolean array over all parents-as-second-component: True where
        the composed system is a delta-matroid (child levels 5 and 6).

        The parents whose contraction c is admitted form contiguous blocks,
        and each of them reads its verdict in c's grid row at its deletion
        d: one gather at the admitted parents, with no mask over the
        whole grid."""
        admitted, rows = self._row(parent_index)
        width = len(self.below)
        grid = np.unpackbits(rows, axis=1, count=width, bitorder="little").view(bool).ravel()
        block = np.repeat(admitted, self._block_len)
        row_start = np.arange(0, grid.size, width, dtype=np.int32)
        ok = np.zeros(len(self.parents), dtype=bool)
        ok[block] = grid[self._lo[block] + np.repeat(row_start, self._block_len[admitted])]
        return ok

    def compose_level(self) -> np.ndarray:
        """Every delta-matroid on child_n <= 5 elements, ascending, from all
        rows at once.

        Each parent's minor per (element, kind) c comes from the kernel's
        own tables: its halves at the top element, and
        ``compose[m[a], m[b]]`` below it.  ``T_c[x]`` packs the column
        ``member[x, minors_c]`` over all parents, so the packed verdicts of
        every row are the AND over c of ``T_c[minors_c]``: one byte-row
        gather per minor and row.  Their bit counts size the output, which
        is filled chunk by chunk of unpacked rows.  At child level 6 one
        such table would hold 5 960 x 5 M bits: level 6 is counted row by
        row.  Below five elements the output is a union of twist/relabel
        orbits, since the minor criterion is symmetric, and the axiom
        checker decides each orbit by its minimum.
        """
        if self.child_n > MAX_LISTED_LEVEL:
            raise ResourceLimitError(
                f"the whole-level compose lists child levels up to {MAX_LISTED_LEVEL}"
            )
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
        sizes = np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
        dtype = _dtype_for(self.child_n)
        wide = self.parents.astype(dtype)
        # parents are ascending and the first component occupies the high
        # bits, so the output in row order is already sorted
        vectors = np.repeat(wide << dtype.type(1 << (self.child_n - 1)), sizes)
        end = 0
        for start in range(0, count, _COMPOSE_CHUNK):
            rows = slice(start, start + _COMPOSE_CHUNK)
            ok = np.unpackbits(packed[rows], axis=1, count=count, bitorder="little").view(bool)
            begin, end = end, end + int(sizes[rows].sum())
            vectors[begin:end] |= np.broadcast_to(wide, ok.shape)[ok]
        if self.child_n < _CRITERION_FROM:
            n = self.child_n
            keep = np.zeros(len(vectors), dtype=bool)
            for i, members in _orbits(vectors, n):
                keep[members] = check_symmetric_exchange(SetSystem(n, int(vectors[i]))) is None
            vectors = vectors[keep]
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


def check_count_limits(n_max: int, allow_n6: bool) -> None:
    """Refuse a count request beyond the supported levels, before any work."""
    if n_max > MAX_COUNTED_LEVEL:
        raise ResourceLimitError(f"counts beyond level {MAX_COUNTED_LEVEL} unsupported")
    if n_max > MAX_LISTED_LEVEL and not allow_n6:
        raise ResourceLimitError("level 6 counting requires the explicit opt-in flag")


def count_report(
    n_max: int,
    levels: dict[int, LevelCache],
    with_even: bool = False,
    allow_n6: bool = False,
    threads: int = 1,
) -> list[CountReport]:
    """Exact counts and gamma statistics for levels 1..n_max.

    ``levels`` must hold caches for 1..min(n_max, 5).  Level 6 is count-only
    and gated behind allow_n6; it is counted from level 5 by
    equivalence-class counting (slow), with ``threads`` passed to
    count_next_level_via_classes, which logs its progress.
    """
    check_count_limits(n_max, allow_n6)
    reports = []
    for n in range(1, n_max + 1):
        if n <= MAX_LISTED_LEVEL:
            d = len(levels[n])
            e = count_even(levels[n]) if with_even else None
        else:
            d = count_next_level_via_classes(levels[5], threads=threads)
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

_SWEEP_WINDOW = 1024


def _symmetries(n: int) -> np.ndarray:
    """One row per (relabelling sigma, twist t) of {1..n}: column m holds
    sigma(m) ^ t, the mask that subset m goes to.  n! * 2^n rows."""
    masks = np.arange(1 << n)
    relabel = np.zeros((math.factorial(n), 1 << n), dtype=masks.dtype)
    for row, sigma in zip(relabel, itertools.permutations(range(n))):
        for q, p in enumerate(sigma):
            row |= ((masks >> q) & 1) << p
    return (relabel[:, None, :] ^ masks[None, :, None]).reshape(-1, 1 << n)


def _orbits(vals: np.ndarray, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """(i, members) per twist/relabel orbit of ascending systems on n
    elements, in ascending order of the orbit minima: the index of the
    minimum and the indices of every member, ascending.

    The sweep visits the systems in ascending order.  The first one not
    yet seen is the minimum of its orbit, since every other member is
    also unseen and so comes later; its whole orbit is the images under
    every symmetry, and is marked seen.  The next unseen system is found
    by argmin over a window of the seen flags at a time.  The images are
    deduplicated by a sort and an adjacent-difference mask (np.unique
    would import numpy.ma, which nothing else on the count path needs)."""
    group = _symmetries(n)
    seen = np.zeros(len(vals), dtype=bool)
    for start in range(0, len(vals), _SWEEP_WINDOW):
        window = seen[start:start + _SWEEP_WINDOW]
        while not window[k := int(window.argmin())]:
            i = start + k
            bits = np.unpackbits(vals[i:i + 1].view(np.uint8), bitorder="little")
            images = np.packbits(bits[group], axis=1, bitorder="little").view(vals.dtype)
            images = np.sort(images.ravel())
            orbit = images[np.append(True, images[1:] != images[:-1])]
            j = np.searchsorted(vals, orbit)
            if np.any(vals[np.minimum(j, len(vals) - 1)] != orbit):
                raise CacheInvariantError("cache not closed under twist/relabel")
            seen[j] = True
            yield i, j


def twist_permutation_classes(cache: LevelCache) -> tuple[np.ndarray, np.ndarray]:
    """(representatives, class sizes); representatives are orbit minima,
    ascending (see _orbits)."""
    vals = cache.vectors
    reps, sizes = [], []
    for i, members in _orbits(vals, cache.n):
        reps.append(vals[i])
        sizes.append(len(members))
    return np.array(reps, dtype=vals.dtype), np.array(sizes, dtype=np.int64)


_CLASS_ORDER_SEED = 0


def count_next_level_via_classes(prev: LevelCache, threads: int = 1) -> int:
    """Count the next level without listing it.

    One compatibility row is counted per equivalence class representative
    (``row_count``) and weighted by class size; the improper first component
    contributes one full previous level.  Requires child level 5 or 6.  The
    rows run in a pool of ``threads`` threads (the kernel's numpy gathers
    release the GIL).  Each phase is logged at INFO with its seconds: the
    canonicalization (with the class count), the kernel init and the rows.
    In between, every 50th row and the last are logged at INFO, in row
    order, with the seconds since the count began and the time left at
    the rate since the first row, such as
    ``level 6: classes 50/2902 5.1s eta 22s``.

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
    logger.info("level %d: %d class rows in %.3fs", child_n, len(reps), clock() - start)
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
    levels: dict[int, LevelCache] = {0: LevelCache.level_zero()}
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
