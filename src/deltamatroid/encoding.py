"""Compression of even delta-matroids and the matching upper bound.

The even-size subsets of {1..n} form one component of the distance-2 graph
of the hypercube; infeasible even sets of an even delta-matroid are a
vertex subset L of that component.  A container-style peeling procedure
(Kleitman-Winston) shrinks the graph to a small residue A while extracting
a short list S of L-vertices; each member of S carries a "local cover"
partition from which the feasibility of all its distance-2 neighbours can
be read back.  S, the covers, and the verbatim list of L inside A suffice
to reconstruct L exactly, and counting the possible records yields an
upper bound on the number of even delta-matroids.
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


class InconsistentPrefixError(EncodingError):
    """A claimed peeling prefix S cannot be replayed on the graph."""


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


# --- the distance-2 graph and its spectrum ------------------------------------
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


def halved_cube_spectrum(n: int) -> list[int]:
    """Eigenvalues (lambda^2 - n)/2 for lambda = -n, -n+2, ..., n."""
    if n < 2:
        raise EncodingError("spectrum needs n >= 2")
    return [(lam * lam - n) // 2 for lam in range(-n, n + 1, 2)]


def smallest_eigenvalue(n: int) -> int:
    """Smallest distance-2 component eigenvalue: -n/2 for even n,
    (1-n)/2 for odd n."""
    return min(halved_cube_spectrum(n))


def eigenvalue_gap(n: int) -> Fraction:
    """lambda = |smallest eigenvalue| as an exact rational."""
    return Fraction(-smallest_eigenvalue(n))


# --- the peeling procedure -----------------------------------------------------

@dataclass(frozen=True)
class KWResult:
    s: tuple[int, ...]
    a: tuple[int, ...]


def _peel(n: int, members: set[int]) -> KWResult:
    """Peel the halved cube on n elements against the vertex set ``members``.

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
    steps = np.array(_pair_masks(n), dtype=np.uint16) >> 1
    masks = np.array(even_masks(n), dtype=np.uint16)
    count = len(masks)
    degree = np.full(count, len(steps), dtype=np.int16)
    survivors = count
    threshold = math.floor(component_alpha(n) * count)
    s: list[int] = []
    while survivors > threshold:
        i = int(degree.argmax())
        mask = int(masks[i])
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
    a = tuple(masks[degree >= 0].tolist())
    if logger.isEnabledFor(logging.INFO):
        logger.info(
            "peel n=%d: |S|=%d (bound %d), |A|=%d (alpha*N=%.1f), %.3fs",
            n, len(s), s_length_bound(n), len(a),
            float(component_alpha(n) * count), time.perf_counter() - start,
        )
    return KWResult(tuple(s), a)


def kw_reconstruct(n: int, s: tuple[int, ...]) -> tuple[int, ...]:
    """Replay the procedure from S alone and return the residue A.

    Peeling against S itself selects S again, in order, whenever S came
    from some L; so the residue is independent of which L produced S, and
    the record does not need to transmit it.
    """
    result = _peel(n, set(s))
    if result.s != tuple(s):
        raise InconsistentPrefixError(
            "the claimed selection is not reproduced by peeling against it"
        )
    return result.a


def s_length_bound(n: int) -> int:
    """ceil(sigma * N) for the even component parameters."""
    return math.ceil(component_sigma(n) * (1 << (n - 1)))


def component_alpha(n: int) -> Fraction:
    """alpha = lambda/(d + lambda): 1/n for even n, 1/(n+1) for odd n."""
    lam = eigenvalue_gap(n)
    return lam / (math.comb(n, 2) + lam)


# --- local covers ---------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Partition of {0, 1, ..., n}, where 0 stands for the extra point z."""

    n: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise EncodingError("empty block")
            if block & seen:
                raise EncodingError("blocks are not disjoint")
            seen |= block
        if seen != set(range(self.n + 1)):
            raise EncodingError(f"blocks do not cover 0..{self.n}")

    def sorted_blocks(self) -> list[list[int]]:
        return sorted(sorted(b) for b in self.blocks)


def single_block_partition(n: int) -> Partition:
    return Partition(n, (frozenset(range(n + 1)),))


def _lowest_mask(d: SetSystem) -> int:
    """The smallest feasible mask, without listing the feasible sets."""
    return (d.bits & -d.bits).bit_length() - 1


def local_cover(d: SetSystem, x: int) -> Partition:
    """Partition of the ground set plus z recording, for the infeasible
    even set X, which sets X symmetric-difference {a, b} are feasible.

    The twist D*X is even with no empty set, so its minimum feasible sets
    have size 2 exactly when some distance-2 neighbour X ^ {a, b} is
    feasible.  If none is, the partition is a single block.  Otherwise
    those pairs {a, b} are the bases of a rank-2 matroid; the blocks are
    its parallel classes, with loops and z merged into one block.
    """
    if not is_even(d):
        raise EncodingError("local covers require an even delta-matroid")
    if _lowest_mask(d).bit_count() & 1:
        raise EncodingError("system must be all-even (twist by {1} first)")
    if x.bit_count() & 1:
        raise EncodingError(f"target set {x} has odd size")
    if d.has_mask(x):
        raise EncodingError(f"target set {x} is feasible")
    feasible = _feasibility_bytes(d)
    bases = {pair for pair in _pair_masks(d.n) if feasible[x ^ pair]}
    if not bases:
        return single_block_partition(d.n)
    bits = {e: 1 << (e - 1) for e in range(1, d.n + 1)}
    non_loops = [e for e in bits if any(basis & bits[e] for basis in bases)]
    # e's block: the non-loops f with {e, f} not a basis, e itself included
    classes = sorted(
        {frozenset(f for f in non_loops if bits[e] | bits[f] not in bases) for e in non_loops},
        key=min,
    )
    # every non-loop is in its own block: the blocks are disjoint iff their sizes add up
    if sum(map(len, classes)) == len(non_loops):
        loops = frozenset(bits) - frozenset(non_loops)
        cover = Partition(d.n, (loops | {0}, *classes))
        if certified_flips(cover) == bases:
            return cover
    raise EncodingError(
        "the pairs {a, b} with X ^ {a, b} feasible are not the bases of a rank-2 matroid"
    )


def certified_flips(p: Partition) -> frozenset[int]:
    """The pair masks {a, b} for which the cover marks X symmetric-difference
    {a, b} feasible: at least three blocks and a, b in two distinct blocks,
    neither the block holding z."""
    if len(p.blocks) < 3:
        return frozenset()
    marked = [block for block in p.blocks if 0 not in block]
    return frozenset(
        (1 << (a - 1)) | (1 << (b - 1))
        for block_a, block_b in combinations(marked, 2)
        for a in block_a
        for b in block_b
    )


# --- whole-system records -------------------------------------------------------

@dataclass(frozen=True)
class EncodingRecord:
    """Everything needed to reconstruct an even delta-matroid.

    ``s`` is the ordered peeling selection, ``covers`` one partition per
    member of s, ``residual`` the infeasible even sets surviving in the
    residue A, ascending.  ``parity`` records whether the original system
    was twisted by {1} to make all sizes even.  The peeling parameters
    alpha and sigma are functions of n.
    """

    n: int
    parity: Parity
    s: tuple[int, ...]
    covers: tuple[Partition, ...]
    residual: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.s) != len(self.covers):
            raise EncodingError("one cover required per selected vertex")
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


def component_sigma(n: int) -> Fraction:
    """sigma = ln(d+1)/(d+lambda), canonicalized as the exact rational
    value of its double-precision evaluation."""
    d = math.comb(n, 2)
    lam = eigenvalue_gap(n)
    return Fraction(math.log(d + 1) / float(d + lam))


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
    l_set = [m for m in even_masks(d.n) if not feasible[m]]
    result = _peel(d.n, set(l_set))
    in_a = set(result.a)
    covers = tuple(local_cover(d, x) for x in result.s)
    residual = tuple(m for m in l_set if m in in_a)
    return EncodingRecord(
        n=d.n,
        parity=parity,
        s=result.s,
        covers=covers,
        residual=residual,
    )


def decode_even_system(record: EncodingRecord) -> tuple[int, ...]:
    """Reconstruct the infeasible even-mask family from a record."""
    residue = set(kw_reconstruct(record.n, record.s))
    for m in record.residual:
        if m not in residue:
            raise EncodingError(f"residual mask {m} is outside the residue set")
    infeasible: set[int] = set(record.s)
    infeasible.update(record.residual)
    flips = _pair_masks(record.n)
    for x, cover in zip(record.s, record.covers):
        certified = certified_flips(cover)
        infeasible.update(x ^ f for f in flips if f not in certified)
    return tuple(sorted(infeasible))


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

def record_to_dict(record: EncodingRecord) -> dict:
    return {
        "n": record.n,
        "parity": record.parity.value,
        "alpha": str(record.alpha),
        "sigma": str(record.sigma),
        "s": list(record.s),
        "covers": [cover.sorted_blocks() for cover in record.covers],
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
        record = EncodingRecord(
            n,
            Parity(doc["parity"]),
            tuple(map(int, s)),
            tuple(Partition(n, tuple(frozenset(map(int, b)) for b in c)) for c in covers),
            tuple(map(int, residual)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
