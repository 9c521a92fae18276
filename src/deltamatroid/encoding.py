"""Compression of even delta-matroids and the matching upper bound.

The even-size subsets of {1..n} form one component of the distance-2 graph
of the hypercube; infeasible even sets of an even delta-matroid are a
vertex subset L of that component.  A container-style peeling procedure
(Kleitman-Winston) shrinks the graph to a small residue A while extracting
a short list S of L-vertices; each member of S carries a "local cover",
a partition of the ground set plus a point z from which the feasibility of
all its distance-2 neighbours can be read back.  A cover is held as its
block-id row: entry e (z = 0) is the lowest element of e's block.  S, the
covers, and the verbatim list of L inside A suffice to reconstruct L
exactly, and counting the possible records yields an upper bound on the
number of even delta-matroids.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations

import numpy as np

from .setsystem import (
    MAX_GROUND_SIZE,
    ImproperSystemError,
    SetSystem,
    SystemFormatError,
    is_even,
    parse_document,
    read_document,
    require_as_written,
    twist,
)


logger = logging.getLogger(__name__)


class EncodingError(ValueError):
    """Invalid input to the encoding machinery."""


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


# --- the distance-2 graph ------------------------------------------------------
#
# The peel runs on the even component of the distance-2 graph of the n-cube
# (the halved cube) without building it: vertex m has index m >> 1 and its
# C(n, 2) neighbours are m ^ f over the pair masks f.

@functools.lru_cache(maxsize=4)
def even_masks(n: int) -> tuple[int, ...]:
    """The 2^(n-1) even-size masks below 2^n, ascending.

    The i-th is (i << 1) | parity(i), so mask m sits at index m >> 1.
    """
    return tuple((i << 1) | (i.bit_count() & 1) for i in range(1 << (n - 1)))


@functools.lru_cache(maxsize=4)
def _pair_masks(n: int) -> tuple[int, ...]:
    """Masks of the C(n, 2) two-element subsets, in lexicographic order."""
    return tuple((1 << i) | (1 << j) for i, j in combinations(range(n), 2))


@functools.lru_cache(maxsize=1)
def _feasibility_bytes(d: SetSystem) -> bytes:
    """One byte per mask of d, 1 where the mask is feasible and 0 where not.

    Read from the feasibility int in one pass, so a lookup costs no shift of
    the whole 2^n-bit int; cached for the last system, since an encode looks
    up one system for its target list and every local cover.
    """
    packed = np.frombuffer(d.bits.to_bytes(max(1 << d.n >> 3, 1), "little"), dtype=np.uint8)
    return np.unpackbits(packed, bitorder="little").tobytes()


# --- the peeling procedure -----------------------------------------------------

def _peel(n: int, members: set[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Peel the halved cube on n elements against the vertex set ``members``
    and return the selection S and the residue A.

    At each step the highest-degree vertex of the surviving induced
    subgraph is examined (ties to the smallest mask).  A member is appended
    to S and removed together with its surviving neighbours; a non-member
    is removed alone.  Stops once the survivor count is at most alpha * N,
    with alpha = component_alpha(n).

    Vertex m >> 1 has the neighbours (m >> 1) ^ (pair >> 1), computed per
    pick.  ``degree`` holds the live degree of every survivor and a
    negative value for every removed vertex, which later removals only
    lower, so the first maximum (argmax) is the vertex to examine.
    """
    if n < 2:
        raise EncodingError("component graph needs n >= 2")
    start = time.perf_counter()
    # intp, so that indexing ``degree`` with ``steps ^ i`` casts nothing
    steps = np.array(_pair_masks(n), dtype=np.intp) >> 1
    masks = even_masks(n)
    count = len(masks)
    degree = np.full(count, len(steps), dtype=np.int16)
    survivors = count
    threshold = math.floor(component_alpha(n) * count)
    s: list[int] = []
    while survivors > threshold:
        i = int(degree.argmax())
        mask = masks[i]
        neighbours = steps ^ i
        if mask in members:
            s.append(mask)
            neighbours = neighbours[degree[neighbours] >= 0]
            degree[neighbours] = -1
            survivors -= 1 + len(neighbours)
            # every vertex loses one degree per removed neighbour
            degree -= np.bincount((neighbours[:, None] ^ steps).ravel(), minlength=count)
        else:
            survivors -= 1
            degree[neighbours] -= 1
        degree[i] = -1
    a = tuple(m for m, live in zip(masks, degree.tolist()) if live >= 0)
    if logger.isEnabledFor(logging.INFO):
        logger.info(
            "peel n=%d: |S|=%d (bound %d), |A|=%d (alpha*N=%.1f), %.3fs",
            n, len(s), s_length_bound(n), len(a),
            float(component_alpha(n) * count), time.perf_counter() - start,
        )
    return tuple(s), a


def kw_reconstruct(n: int, s: tuple[int, ...]) -> tuple[int, ...]:
    """Replay the procedure from S alone and return the residue A.

    Peeling against S itself selects S again, in order, whenever S came
    from some L; so the residue is independent of which L produced S, and
    the record does not need to transmit it.
    """
    selected, a = _peel(n, set(s))
    if selected != tuple(s):
        raise EncodingError("the claimed selection is not reproduced by peeling against it")
    return a


def s_length_bound(n: int) -> int:
    """ceil(sigma * N) for the even component parameters."""
    return math.ceil(component_sigma(n) * (1 << (n - 1)))


def _degree_plus_gap(n: int) -> int:
    """d + lambda for the halved cube on n elements, which is n*n // 2.

    The eigenvalues are (mu^2 - n)/2 over mu = -n, -n+2, ..., n, least at
    |mu| <= 1, so lambda = -min = n // 2; with the degree d = C(n, 2) the
    sum is n*n // 2.
    """
    if n < 2:
        raise EncodingError("the halved cube needs n >= 2")
    return n * n // 2


def component_alpha(n: int) -> Fraction:
    """alpha = lambda/(d + lambda) = (n // 2)/(n*n // 2): 1/n for even n,
    1/(n+1) for odd n."""
    return Fraction(n // 2, _degree_plus_gap(n))


def component_sigma(n: int) -> Fraction:
    """sigma = ln(d + 1)/(d + lambda) = ln(C(n, 2) + 1)/(n*n // 2),
    canonicalized as the exact rational value of its double-precision
    evaluation."""
    return Fraction(math.log(math.comb(n, 2) + 1) / _degree_plus_gap(n))


# --- local covers ---------------------------------------------------------------

def _lowest_mask(d: SetSystem) -> int:
    """The smallest feasible mask, without listing the feasible sets."""
    return (d.bits & -d.bits).bit_length() - 1


def local_covers(d: SetSystem, xs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The local cover of each infeasible even set X in ``xs``: a partition
    of the ground set plus z recording which sets X symmetric-difference
    {a, b} are feasible, as its block-id row of length n + 1 naming each
    of 0..n (z = 0) by the lowest element of its block.

    The twist D*X is even with no empty set, so its minimum feasible sets
    have size 2 exactly when some distance-2 neighbour X ^ {a, b} is
    feasible.  Those pairs {a, b} are the bases of a rank-2 matroid; the
    blocks are its parallel classes, with loops and z merged into one
    block.  With no such pair every element is a loop, so the partition
    is that one block.

    All covers come from one |xs| x C(n, 2) matrix of those feasibility
    bits: a non-loop e's block is the non-loops f with {e, f} not a basis,
    named by its lowest element, and each row must certify exactly its
    bases.
    """
    if not is_even(d):
        raise EncodingError("local covers require an even delta-matroid")
    if _lowest_mask(d).bit_count() & 1:
        raise EncodingError("system must be all-even (twist by {1} first)")
    for x in xs:
        if x.bit_count() & 1:
            raise EncodingError(f"target set {x} has odd size")
        if d.has_mask(x):
            raise EncodingError(f"target set {x} is feasible")
    n = d.n
    first, second = _pair_elements(n)
    feasible = np.frombuffer(_feasibility_bytes(d), dtype=bool)
    bases = feasible[np.array(xs, dtype=np.intp).reshape(-1, 1) ^ np.array(_pair_masks(n))]
    adjacent = np.zeros((len(xs), n + 1, n + 1), dtype=bool)
    adjacent[:, first, second] = adjacent[:, second, first] = bases
    non_loops = adjacent.any(axis=2)
    # the lowest f in e's block, or 0 (z's block) for a loop and for z
    ids = np.where(non_loops, (non_loops[:, None, :] & ~adjacent).argmax(axis=2), 0)
    if not np.array_equal(_certified(ids), bases):
        raise EncodingError(
            "the pairs {a, b} with X ^ {a, b} feasible are not the bases of a rank-2 matroid"
        )
    return tuple(map(tuple, ids.tolist()))


@functools.lru_cache(maxsize=4)
def _pair_elements(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The elements a < b of each pair of _pair_masks(n), numbered from 1."""
    pairs = np.array(list(combinations(range(1, n + 1), 2)), dtype=np.intp).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _certified(ids: np.ndarray) -> np.ndarray:
    """Which pairs of _pair_masks each block-id row certifies: a and b in two
    distinct blocks, neither the block holding z (so at least three blocks)."""
    first, second = _pair_elements(ids.shape[1] - 1)
    a, b = ids[:, first], ids[:, second]
    return (a != b) & (a != 0) & (b != 0)


# --- whole-system records -------------------------------------------------------

@dataclass(frozen=True)
class EncodingRecord:
    """Everything needed to reconstruct an even delta-matroid.

    ``s`` is the ordered peeling selection, ``covers`` one block-id row
    per member of s (see local_covers), ``residual`` the infeasible even
    sets surviving in the residue A, ascending.  ``parity`` records whether
    the original system was twisted by {1} to make all sizes even.  The
    peeling parameters alpha and sigma are functions of n.
    """

    n: int
    parity: Parity
    s: tuple[int, ...]
    covers: tuple[tuple[int, ...], ...]
    residual: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.s) != len(self.covers):
            raise EncodingError("one cover required per selected vertex")
        # a row names a partition exactly when each entry is the lowest
        # element holding its value
        for row in self.covers:
            if len(row) != self.n + 1 or any(
                not 0 <= low <= e or row[low] != low for e, low in enumerate(row)
            ):
                raise EncodingError(f"every cover must be a block-id row over 0..{self.n}")
        if len(self.s) > s_length_bound(self.n):
            raise EncodingError("selection exceeds its guaranteed length bound")
        if any(a >= b for a, b in zip(self.residual, self.residual[1:])):
            raise EncodingError("residual must be strictly ascending")

    @property
    def alpha(self) -> Fraction:
        return component_alpha(self.n)

    @property
    def sigma(self) -> Fraction:
        return component_sigma(self.n)


def encode_even_system(d: SetSystem) -> EncodingRecord:
    """Compress an even delta-matroid into an EncodingRecord.

    Systems whose feasible sizes are all odd are first twisted by {1}
    (recorded in the parity flag) so the infeasible target family lives in
    the even component.
    """
    if d.n < 2:
        raise EncodingError("encoding needs n >= 2")
    if not is_even(d):
        raise EncodingError("system is not even")
    parity = Parity.EVEN
    if _lowest_mask(d).bit_count() & 1:
        parity = Parity.ODD
        d = twist(d, 1)
    feasible = _feasibility_bytes(d)
    s, a = _peel(d.n, {m for m in even_masks(d.n) if not feasible[m]})
    start = time.perf_counter()
    covers = local_covers(d, s)
    if logger.isEnabledFor(logging.INFO):
        logger.info("covers n=%d: %d read, %.3fs", d.n, len(covers), time.perf_counter() - start)
    return EncodingRecord(
        n=d.n,
        parity=parity,
        s=s,
        covers=covers,
        # A is ascending, so its infeasible members are too
        residual=tuple(m for m in a if not feasible[m]),
    )


def decode_even_system(record: EncodingRecord) -> tuple[int, ...]:
    """Reconstruct the infeasible even-mask family from a record."""
    residue = set(kw_reconstruct(record.n, record.s))
    for m in record.residual:
        if m not in residue:
            raise EncodingError(f"residual mask {m} is outside the residue set")
    start = time.perf_counter()
    s = np.array(record.s, dtype=np.intp)
    # every neighbour x ^ {a, b} whose pair the cover of x does not certify
    neighbours = s.reshape(-1, 1) ^ np.array(_pair_masks(record.n))
    ids = np.array(record.covers, dtype=np.intp).reshape(len(s), record.n + 1)
    flips = neighbours[~_certified(ids)]
    infeasible = np.zeros(1 << record.n, dtype=bool)
    infeasible[s] = infeasible[np.array(record.residual, dtype=np.intp)] = infeasible[flips] = True
    if logger.isEnabledFor(logging.INFO):
        logger.info("flips n=%d: %d covers, %.3fs", record.n, len(s), time.perf_counter() - start)
    return tuple(np.flatnonzero(infeasible).tolist())


def reconstruct_system(record: EncodingRecord) -> SetSystem:
    """Rebuild the original delta-matroid a record was produced from."""
    feasible = np.zeros(1 << record.n, dtype=np.uint8)
    feasible[np.array(even_masks(record.n), dtype=np.intp)] = 1
    feasible[np.array(decode_even_system(record), dtype=np.intp)] = 0
    bits = int.from_bytes(np.packbits(feasible, bitorder="little").tobytes(), "little")
    if bits == 0:
        raise ImproperSystemError("record decodes to an empty family")
    system = SetSystem(record.n, bits)
    if record.parity is Parity.ODD:
        system = twist(system, 1)
    return system


# --- record serialization -------------------------------------------------------

def _blocks(row: tuple[int, ...]) -> list[list[int]]:
    """The blocks a block-id row names, each ascending, in ascending order
    of their lowest element."""
    blocks: dict[int, list[int]] = {}
    for e, low in enumerate(row):
        blocks.setdefault(low, []).append(e)
    return list(blocks.values())


def record_to_dict(record: EncodingRecord) -> dict:
    return {
        "n": record.n,
        "parity": record.parity.value,
        "alpha": str(record.alpha),
        "sigma": str(record.sigma),
        "s": list(record.s),
        "covers": [_blocks(row) for row in record.covers],
        "residual": list(record.residual),
    }


def record_from_dict(doc: object) -> EncodingRecord:
    if not isinstance(doc, dict):
        raise SystemFormatError("record document must be an object")
    n = doc.get("n")
    if type(n) is not int or not 2 <= n <= MAX_GROUND_SIZE:
        raise SystemFormatError(f"field 'n' must be an integer in 2..{MAX_GROUND_SIZE}, got {n!r}")
    try:
        s, covers, residual = doc["s"], doc["covers"], doc["residual"]
        if len(s) > s_length_bound(n) or len(covers) != len(s) or len(residual) > 1 << (n - 1):
            raise SystemFormatError(f"'s', 'covers' or 'residual' too long for n={n}, or unpaired")
        # an element left out keeps its own id and one listed twice takes the
        # later block's; require_as_written refuses both below
        rows = []
        for blocks in covers:
            row = list(range(n + 1))
            for block in blocks:
                low = min(block)
                for e in block:
                    row[e] = low
            rows.append(tuple(row))
        record = EncodingRecord(
            n, Parity(doc["parity"]), tuple(map(int, s)), tuple(rows), tuple(map(int, residual))
        )
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise SystemFormatError(f"bad record document: {exc}") from None
    require_as_written(doc, record_to_dict(record))
    return record


def dumps_record(record: EncodingRecord) -> str:
    return json.dumps(record_to_dict(record), indent=2, sort_keys=True) + "\n"


def loads_record(text: str) -> EncodingRecord:
    return parse_document(text, record_from_dict)


def load_record(path: str | os.PathLike) -> EncodingRecord:
    return read_document(path, record_from_dict)


# --- the counting bound ----------------------------------------------------------

def bell_number(k: int) -> int:
    """Bell number by the standard triangle recurrence."""
    if k < 0:
        raise EncodingError("Bell numbers need k >= 0")
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


@dataclass(frozen=True)
class BoundReport:
    """Ingredients of the even-count upper bound at one ground-set size."""

    n: int
    alpha: Fraction
    sigma: float
    sigma_prime: Fraction
    bell_bound: int
    log_e_n_bound: float


def upper_bound_report(n: int) -> BoundReport:
    """Evaluate the record-counting upper bound on log2 of the even count.

    The record space is bounded by (number of possible S) x (covers per
    member, at most the Bell number of n+1 points, itself at most
    (n+1)^(n+1)) x (subsets of the residue).  sigma is rounded up to the
    grid rational sigma' with sigma <= sigma' <= sigma + 2^-(n-2).
    """
    if n < 3:
        raise EncodingError("bound evaluation needs n >= 3")
    alpha = component_alpha(n)
    sigma = float(component_sigma(n))
    half = 1 << (n - 1)
    sigma_prime = Fraction(1 + math.ceil(sigma * half), half)
    if not Fraction(sigma) <= sigma_prime <= Fraction(sigma) + Fraction(1, 1 << (n - 2)):
        raise EncodingError("rounded sigma fell outside its bracket")
    bell = bell_number(n + 1)
    if bell > (n + 1) ** (n + 1):
        raise EncodingError("Bell bound violated")
    sp = float(sigma_prime)
    log_bound = (
        math.log2(sp * (1 << n))
        + sp * half * (math.log2(math.e) - math.log2(sp))
        + (n + 1) * sp * half * math.log2(n + 1)
        + half / n
    )
    return BoundReport(
        n=n,
        alpha=alpha,
        sigma=sigma,
        sigma_prime=sigma_prime,
        bell_bound=bell,
        log_e_n_bound=log_bound,
    )
