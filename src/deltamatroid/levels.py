"""Level-by-level exhaustive enumeration of labelled delta-matroids.

Level n is built from level n-1 by composing every ordered pair of
parents (each parent a delta-matroid or the improper system, excluding the
improper/improper pair) and keeping the composites that are delta-matroids.
Up to level 4 compatibility is decided by the axiom checker directly.  At
levels 5 and 6 it is decided by one kernel and the minor-membership
criterion: a proper system on five or more elements whose single-element
deletions and contractions are all improper or delta-matroids is itself a
delta-matroid unless its feasible family is a single antipodal pair.

Caches of whole levels are numpy arrays of feasibility vectors, sorted
ascending, and can be persisted in a small binary format (see LevelCache).
"""

from __future__ import annotations

import concurrent.futures
import functools
import logging
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .setsystem import (
    MinorKind,
    SetSystem,
    atomic_write_bytes,
    check_symmetric_exchange,
    even_parity_indicator,
    popcount,
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
        atomic_write_bytes(path, header + self.vectors.tobytes())

    @classmethod
    def load(cls, path: str | os.PathLike) -> LevelCache:
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < 14 or data[:4] != cls.MAGIC:
            raise CacheFormatError(f"{path}: missing DMLC header")
        version, n = data[4], data[5]
        if version != cls.VERSION:
            raise CacheFormatError(f"{path}: unsupported version {version}")
        if n > MAX_LISTED_LEVEL:
            raise CacheFormatError(f"{path}: unknown level {n}")
        count = int.from_bytes(data[6:14], "little")
        dtype = _dtype_for(n)
        expected = 14 + count * dtype.itemsize
        if len(data) != expected:
            raise CacheFormatError(
                f"{path}: expected {expected} bytes for {count} records, got {len(data)}"
            )
        vectors = np.frombuffer(data[14:], dtype=dtype).copy()
        cache = cls(n, vectors)
        try:
            cache.validate()
        except CacheInvariantError as exc:
            raise CacheFormatError(f"{path}: {exc}") from None
        return cache


# --- direct compatibility testing (levels 1..4) -----------------------------

def _enumerate_small(prev: LevelCache) -> LevelCache:
    n = prev.n + 1
    half = 1 << prev.n
    parents = [0] + [int(v) for v in prev.vectors]
    out = []
    for d1 in parents:
        shifted = d1 << half
        for d2 in parents:
            bits = shifted | d2
            if bits == 0:
                continue
            if check_symmetric_exchange(SetSystem(n, bits)) is None:
                out.append(bits)
    return LevelCache(n, np.array(out, dtype=_dtype_for(n)))


# --- minor-membership compatibility kernel (levels >= 5) ---------------------

@functools.cache
def _minor_table(p: int, kind: MinorKind) -> np.ndarray:
    """Lookup table: feasibility vector on {1..4} -> vector of its minor.

    2^16 entries; vectors on five elements are split into halves.
    """
    v = np.arange(1 << 16, dtype=np.uint32)
    out = np.zeros(1 << 16, dtype=np.uint16)
    want = 0 if kind is MinorKind.DELETE else 1
    for j in range(8):
        m = (j & ((1 << p) - 1)) | ((j >> p) << (p + 1)) | (want << p)
        out |= (((v >> m) & 1) << j).astype(np.uint16)
    return out.astype(np.uint8)


def _parent_minor_array(vectors: np.ndarray, parent_n: int, p: int, kind: MinorKind) -> np.ndarray:
    """Minor vectors of every parent, as a uint16 array (parent_n in {4, 5})."""
    if parent_n == 4:
        return _minor_table(p, kind)[vectors].astype(np.uint16)
    lo = (vectors & np.uint32(0xFFFF)).astype(np.uint16)
    hi = (vectors >> np.uint32(16)).astype(np.uint16)
    if p < 4:
        t = _minor_table(p, kind)
        return (t[hi].astype(np.uint16) << np.uint16(8)) | t[lo]
    return hi if kind is MinorKind.CONTRACT else lo


_ROW_SLICE = 1 << 18
_COMPOSE_CHUNK = 1024


class _ComposeKernel:
    """Vectorized compatibility rows for one child level (5 or 6).

    Holds the parent vectors (improper prepended), each parent's minor
    vectors per (element, kind), and a packed membership bitmap of the
    parents.  A row tests one first component against every second
    component at once: the composed system is a delta-matroid iff every
    joined minor is a parent (improper included) and the pair is not
    antipodal.

    A row never gathers over all parents.  The parents are ascending, and
    a parent's contraction by its top element is its high half, so that
    minor ("hi") is non-decreasing along the parents: they fall into
    contiguous blocks with one hi each, at most one block per
    grandparent.  A row first admits or rejects whole blocks by one
    window bit each, then filters the indices of the admitted parents
    through the other minors one at a time, so each later minor is
    gathered only for the parents that survived the earlier ones.

    Rows serve class counting (level 6, and level 5 from level-4
    classes).  The listing of level 5 takes all rows at once from dense
    per-minor bit tables (compose_level); that form cannot serve level 6,
    whose 16-bit minors would need tables of 65 536 x 5 M bits.
    """

    def __init__(self, prev: LevelCache):
        self.child_n = prev.n + 1
        if self.child_n not in (5, 6):
            raise ResourceLimitError("compose kernel supports child levels 5 and 6")
        dtype = prev.vectors.dtype
        self.parents = np.concatenate([np.zeros(1, dtype=dtype), prev.vectors])
        self.combos = [(p, kind) for p in range(prev.n) for kind in MinorKind]
        self.parent_minors = {
            combo: _parent_minor_array(self.parents, prev.n, *combo)
            for combo in self.combos
        }
        # a joined minor is (first minor) << half | (second minor), so the
        # bitmap is read in windows of 2^half bits, one per first minor
        half = 1 << (prev.n - 1)
        self._window_shift = half - 3
        packed = np.zeros(1 << ((1 << prev.n) - 3), dtype=np.uint8)
        for b in range(8):
            packed[self.parents[(self.parents & 7) == b] >> 3] |= np.uint8(1 << b)
        self._packed = packed
        self._top = (prev.n - 1, MinorKind.CONTRACT)
        hi = self.parent_minors[self._top]
        if np.any(hi[1:] < hi[:-1]):
            raise CacheInvariantError("parents not sorted by their top-element contraction")
        starts = np.concatenate([[0], np.flatnonzero(hi[1:] != hi[:-1]) + 1])
        self._block_hi = hi[starts]
        self._block_len = np.diff(np.append(starts, len(hi)))

    def _window(self, combo: tuple[int, MinorKind], parent_index: int) -> np.ndarray:
        """Boolean table over second minors: True where the joined minor
        with the first component's minor at ``combo`` is a parent."""
        m1 = int(self.parent_minors[combo][parent_index])
        shift = self._window_shift
        return np.unpackbits(
            self._packed[m1 << shift:(m1 + 1) << shift], bitorder="little"
        ).view(bool)

    def row_ok(self, parent_index: int) -> np.ndarray:
        """Boolean array over all parents-as-second-component: True where
        the composed system is a delta-matroid."""
        d1 = int(self.parents[parent_index])
        ok = np.repeat(self._window(self._top, parent_index)[self._block_hi], self._block_len)
        later = [
            (self._window(combo, parent_index), self.parent_minors[combo])
            for combo in self.combos
            if combo != self._top
        ]
        # slice by slice, so that the index temporaries stay a few MB
        for start in range(0, len(ok), _ROW_SLICE):
            part = ok[start:start + _ROW_SLICE]
            idx = np.flatnonzero(part) + start
            part[:] = False
            for window, minors in later:
                idx = idx[window[minors[idx]]]
            ok[idx] = True
        if d1 == 0:
            ok[0] = False
        elif popcount(d1) == 1:
            a = d1.bit_length() - 1
            partner = 1 << (a ^ ((1 << (self.child_n - 1)) - 1))
            j = int(np.searchsorted(self.parents, partner))
            if j < len(self.parents) and int(self.parents[j]) == partner:
                ok[j] = False
        return ok

    def _excluded_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, second) parent indices of the pairs every row excludes:
        improper with improper, and each single-set first component {A}
        with the second component {complement of A + top}."""
        parents = self.parents.astype(np.int64)
        single = np.flatnonzero((parents != 0) & ((parents & (parents - 1)) == 0))
        a = np.log2(parents[single]).astype(np.int64)
        partner = np.left_shift(1, a ^ ((1 << (self.child_n - 1)) - 1))
        j = np.minimum(np.searchsorted(parents, partner), len(parents) - 1)
        found = parents[j] == partner
        return np.append(0, single[found]), np.append(0, j[found])

    def compose_level(self) -> np.ndarray:
        """Every delta-matroid on child_n = 5 elements, ascending, from all
        rows at once.

        Each minor of a level-4 parent is a vector on three elements, so
        the joined minor at a combo is one cell of the 256 x 256 membership
        table ``member[first minor, second minor]``, which is the packed
        bitmap unpacked.  Per combo c, ``T_c[a]`` packs the column
        ``member[a, minors_c]`` over all parents, so a row's verdicts are
        the AND over c of ``T_c[first minor at c]``: 8 byte-row gathers per
        row, done for chunks of rows.  At child level 6 the minors are
        16-bit, so one such table would hold 65 536 x 5 M bits: level 6
        keeps ``row_ok``.
        """
        if self.child_n != 5:
            raise ResourceLimitError("the whole-level compose lists child level 5 only")
        member = np.unpackbits(self._packed, bitorder="little").reshape(256, 256)
        count = len(self.parents)
        minors = [self.parent_minors[combo] for combo in self.combos]
        tables = [np.packbits(member[:, m], axis=1, bitorder="little") for m in minors]
        ex_first, ex_second = self._excluded_pairs()
        dtype = _dtype_for(self.child_n)
        wide = self.parents.astype(dtype)
        half = dtype.type(1 << (self.child_n - 1))
        # parents are ascending and the first component occupies the high
        # bits, so the output in row order is already sorted
        pieces = []
        for start in range(0, count, _COMPOSE_CHUNK):
            rows = slice(start, start + _COMPOSE_CHUNK)
            packed = tables[0][minors[0][rows]]
            for table, m in zip(tables[1:], minors[1:]):
                packed &= table[m[rows]]
            ok = np.unpackbits(packed, axis=1, count=count, bitorder="little").view(bool)
            here = (ex_first >= start) & (ex_first < start + _COMPOSE_CHUNK)
            ok[ex_first[here] - start, ex_second[here]] = False
            first = np.repeat(wide[rows] << half, np.count_nonzero(ok, axis=1))
            pieces.append(first | np.broadcast_to(wide, ok.shape)[ok])
        return np.concatenate(pieces)


def enumerate_level(prev: LevelCache) -> LevelCache:
    """Build the complete next level from the previous one."""
    prev.validate()
    n = prev.n + 1
    if n > MAX_LISTED_LEVEL:
        raise ResourceLimitError(
            f"level {n} cannot be materialized as a list; use class counting"
        )
    if n < 5:
        return _enumerate_small(prev)
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
    progress: Callable[[int, int], None] | None = None,
) -> list[CountReport]:
    """Exact counts and gamma statistics for levels 1..n_max.

    ``levels`` must hold caches for 1..min(n_max, 5).  Level 6 is count-only
    and gated behind allow_n6; it is counted from level 5 by
    equivalence-class counting (slow), with ``threads`` and ``progress``
    passed to count_next_level_via_classes.
    """
    check_count_limits(n_max, allow_n6)
    reports = []
    for n in range(1, n_max + 1):
        if n <= MAX_LISTED_LEVEL:
            d = len(levels[n])
            e = count_even(levels[n]) if with_even else None
        else:
            d = count_next_level_via_classes(levels[5], threads=threads, progress=progress)
            e = None
        reports.append(CountReport(n=n, d=d, gamma=gamma_value(n, d), e=e))
    _verify_count_invariants(reports)
    return reports


def count_even(cache: LevelCache) -> int:
    """Number of cached systems in which all feasible sizes share a parity."""
    ind = even_parity_indicator(cache.n)
    v = cache.vectors
    ev = np.array(ind, dtype=v.dtype)
    odd = np.array(ind ^ ((1 << (1 << cache.n)) - 1), dtype=v.dtype)
    return int(np.count_nonzero(((v & ev) == 0) | ((v & odd) == 0)))


# --- equivalence classes under twist and relabelling -------------------------
#
# Two labelled delta-matroids are equivalent when one is a relabelling of a
# twist of the other.  The compatibility count of a first component is
# constant on classes, so one exhaustive scan per class representative
# suffices to count the next level.

def _position_xor_transform(vals: np.ndarray, n: int, q: int) -> np.ndarray:
    """Twist by element q+1: permute vector bits by mask-XOR with 2^q."""
    s = 1 << q
    low = 0
    for m in range(1 << n):
        if not (m >> q) & 1:
            low |= 1 << m
    lo = np.array(low, dtype=vals.dtype)
    sh = np.array(s, dtype=vals.dtype)
    return ((vals & lo) << sh) | ((vals >> sh) & lo)


def _position_swap_transform(vals: np.ndarray, n: int, q: int) -> np.ndarray:
    """Transpose elements q+1 and q+2: swap the two index bits of each mask."""
    s = 1 << q
    move = 0
    keep = 0
    for m in range(1 << n):
        b1, b2 = (m >> q) & 1, (m >> (q + 1)) & 1
        if b1 == 1 and b2 == 0:
            move |= 1 << m
        elif b1 == b2:
            keep |= 1 << m
    mv = np.array(move, dtype=vals.dtype)
    kp = np.array(keep, dtype=vals.dtype)
    sh = np.array(s, dtype=vals.dtype)
    return (vals & kp) | ((vals & mv) << sh) | ((vals >> sh) & mv)


def twist_permutation_canonical(cache: LevelCache) -> np.ndarray:
    """Per-entry canonical form: the minimum vector in its orbit under
    twists and relabellings.  Computed by minimum propagation along the
    orbit graph of involutive generators."""
    vals = cache.vectors
    n = cache.n
    transforms: list[Callable[[np.ndarray], np.ndarray]] = []
    for q in range(n):
        transforms.append(lambda v, q=q: _position_xor_transform(v, n, q))
    for q in range(n - 1):
        transforms.append(lambda v, q=q: _position_swap_transform(v, n, q))
    index_maps = []
    for t in transforms:
        images = t(vals)
        idx = np.searchsorted(vals, images)
        if np.any(vals[np.minimum(idx, len(vals) - 1)] != images):
            raise CacheInvariantError("cache not closed under twist/relabel")
        index_maps.append(idx)
    canon = vals.copy()
    while True:
        new = canon.copy()
        for idx in index_maps:
            np.minimum(new, canon[idx], out=new)
        if np.array_equal(new, canon):
            return canon
        canon = new


def twist_permutation_classes(cache: LevelCache) -> tuple[np.ndarray, np.ndarray]:
    """(representatives, class sizes); representatives are orbit minima."""
    canon = twist_permutation_canonical(cache)
    return np.unique(canon, return_counts=True)


_CLASS_ORDER_SEED = 0


def count_next_level_via_classes(
    prev: LevelCache,
    threads: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> int:
    """Count the next level without listing it.

    One compatibility row is evaluated per equivalence class representative
    and weighted by class size; the improper first component contributes one
    full previous level.  Requires child level >= 5.  With threads > 1 the
    rows run in a thread pool (the kernel's numpy gathers release the GIL);
    ``progress(done, total)`` is called after each row, in row order.

    Rows cost more the more second components a class admits, and that
    grows along the ascending representatives, so the classes are visited
    in one fixed pseudo-random order: then the rate of the rows done so far
    is an unbiased guide to the rows left.
    """
    reps, sizes = twist_permutation_classes(prev)
    kernel = _ComposeKernel(prev)
    rep_indices = np.searchsorted(kernel.parents, reps)

    def row(k: int) -> int:
        ok = kernel.row_ok(int(rep_indices[k]))
        return int(sizes[k]) * int(np.count_nonzero(ok))

    indices = random.Random(_CLASS_ORDER_SEED).sample(range(len(reps)), len(reps))
    total = len(prev)
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        rows = pool.map(row, indices) if threads > 1 else map(row, indices)
        for done, subtotal in enumerate(rows, start=1):
            total += subtotal
            if progress is not None:
                progress(done, len(reps))
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
