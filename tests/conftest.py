"""Shared fixtures and the independent axiom oracle.

The oracle below re-states the symmetric exchange axiom directly over
Python sets, with none of the package's bitvector machinery, so that
package results can be checked against a second, independently written
decision procedure.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations, compress
from typing import Iterator

import numpy as np
import pytest

from deltamatroid.constructions import ConstructionError, cut_count_lower_bound_exact
from deltamatroid.levels import (
    LevelCache,
    _ComposeKernel,
    _dtype_for,
    _minor_indices,
    _symmetries,
    build_levels,
    cache_path,
)
from deltamatroid.encoding import (
    EncodingError,
    EncodingRecord,
    _certified,
    _pair_masks,
    _peel,
    component_alpha,
    even_masks,
    local_covers,
)
from deltamatroid.setsystem import (
    ImproperSystemError,
    MinorKind,
    SetSystem,
    check_symmetric_exchange,
    even_parity_indicator,
    twist,
)


def mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def set_to_mask(s) -> int:
    out = 0
    for e in s:
        out |= 1 << (e - 1)
    return out


def oracle_is_delta_matroid(n: int, feasible_masks) -> bool:
    """Raw triple-loop symmetric exchange test over explicit sets.

    For every ordered pair of feasible sets X, Y and every element e of
    the symmetric difference, some f in the symmetric difference (f = e
    allowed) must make X symmetric-difference {e, f} feasible.
    """
    family = {mask_to_set(m) for m in feasible_masks}
    if not family:
        return False
    for x in family:
        for y in family:
            diff = x ^ y
            for e in diff:
                if not any((x ^ {e, f}) in family for f in diff):
                    return False
    return True


def oracle_first_witness(n: int, feasible_masks) -> tuple[int, int, int] | None:
    """First violation (X, Y, e) of symmetric exchange, or None.

    Triples are ordered by X, then Y (both by subset mask), then e, all
    ascending; X and Y are returned as masks and e as a 1-based element.
    """
    family = {mask_to_set(m) for m in feasible_masks}
    ordered = sorted(family, key=set_to_mask)
    for x in ordered:
        for y in ordered:
            diff = x ^ y
            for e in sorted(diff):
                if not any((x ^ {e, f}) in family for f in diff):
                    return set_to_mask(x), set_to_mask(y), e
    return None


def oracle_violates(feasible_masks, x: int, y: int, e: int) -> bool:
    """Whether (X, Y, e) violates symmetric exchange, over explicit sets:
    X and Y feasible, e in their symmetric difference, and no f in it
    (f = e allowed) makes X symmetric-difference {e, f} feasible."""
    family = {mask_to_set(m) for m in feasible_masks}
    xs, ys = mask_to_set(x), mask_to_set(y)
    diff = xs ^ ys
    return (
        xs in family and ys in family and e in diff
        and not any((xs ^ {e, f}) in family for f in diff)
    )


def _xorperm_step(words: np.ndarray, e: int, n: int) -> np.ndarray:
    """Each word with bit X moved to bit X ^ {e}: one shift-and-mask."""
    step = words.dtype.type(1 << e)
    low = words.dtype.type(sum(1 << x for x in range(1 << n) if not x >> e & 1))
    return ((words & low) << step) | ((words >> step) & low)


def batch_is_delta_matroid(words, n: int) -> np.ndarray:
    """Symmetric exchange decided for an array of feasibility words on
    n <= 6 elements at once, with word operations only: no minor lemma
    and none of the package's code.

    xorperm_S(v) has bit X equal to bit X ^ S of v.  For each e and each
    D containing e, W[e, D] = v & xorperm_D(v) & AND over f in D of
    ~xorperm_{e,f}(v) (f = e meaning xorperm_{e}) has bit X set exactly
    when X and Y = X ^ D are feasible and no X ^ {e, f} with f in D is.
    A word is a delta-matroid iff it is nonzero and every W[e, D] is 0."""
    v = np.asarray(words, dtype=np.uint64 if n > 5 else np.uint32)
    xorperm = [v]
    for s in range(1, 1 << n):
        # xorperm_S from xorperm of S less its lowest element
        xorperm.append(_xorperm_step(xorperm[s & (s - 1)], (s & -s).bit_length() - 1, n))
    violated = np.zeros_like(v)
    for e in range(n):
        # blocked[R], for R without e: AND over f in D = R + e of ~xorperm_{e,f}
        blocked = {0: ~xorperm[1 << e]}
        for r in range(1, 1 << n):
            if not r >> e & 1:
                f = r & -r
                blocked[r] = blocked[r ^ f] & ~xorperm[(1 << e) | f]
        for r, b in blocked.items():
            violated |= v & xorperm[r | 1 << e] & b
    return (v != 0) & (violated == 0)


def oracle_level_list(n: int) -> list[int]:
    """All delta-matroid feasibility vectors on {1..n} by brute force."""
    out = []
    for bits in range(1, 1 << (1 << n)):
        masks = [m for m in range(1 << n) if (bits >> m) & 1]
        if oracle_is_delta_matroid(n, masks):
            out.append(bits)
    return out


def cube_distances(n: int) -> np.ndarray:
    """Hamming distance between every pair of the 2^n masks."""
    masks = np.arange(1 << n, dtype=np.uint32)
    pop = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        pop += ((masks >> i) & 1).astype(np.uint8)
    return pop[masks[:, None] ^ masks[None, :]]


def cube_adjacency_matrix(n: int) -> np.ndarray:
    """Adjacency matrix of the n-cube on all 2^n masks (exact integers)."""
    return (cube_distances(n) == 1).astype(np.int64)


def distance_two_matrix_identity(n: int) -> bool:
    """Exact check that the distance-2 adjacency matrix equals
    (A(Q_n)^2 - n*I)/2, which encodes that any two cube vertices at
    distance two have exactly two common neighbours."""
    if not 2 <= n <= 8:
        raise EncodingError("dense matrix identity limited to 2 <= n <= 8")
    dist = cube_distances(n)
    a = (dist == 1).astype(np.int64)
    lhs = 2 * (dist == 2).astype(np.int64)
    rhs = a @ a - n * np.eye(1 << n, dtype=np.int64)
    return bool(np.array_equal(lhs, rhs))


def numeric_least_eigenvalue(n: int) -> int:
    """The least eigenvalue of the distance-2 adjacency matrix on the even
    masks, by a dense numeric eigensolver, rounded to the integer it is."""
    even = np.array([m for m in range(1 << n) if m.bit_count() % 2 == 0])
    mat = (cube_distances(n)[np.ix_(even, even)] == 2).astype(float)
    least = float(np.linalg.eigvalsh(mat)[0])
    assert abs(least - round(least)) < 1e-9
    return round(least)


def antipodal_systems(n: int) -> list[SetSystem]:
    """All systems whose feasible family is {F, complement of F}."""
    if n < 1:
        raise ValueError("antipodal systems need n >= 1")
    full = (1 << n) - 1
    out = []
    for f in range(1 << (n - 1)):
        out.append(SetSystem(n, (1 << f) | (1 << (f ^ full))))
    return out


# --- level files ------------------------------------------------------------------

# SHA-256 of each level file as LevelCache.save writes it
LEVEL_FILE_SHA256 = {
    1: "e1cadfab1a4ecffaba5f255edf78663127fb0551d24dd1aee0e34c3a54516931",
    2: "78727c17110d835bb0252b6725793ab95e4fb75857222710efb7c9c566c3fa9e",
    3: "b6b1629dd403e8f5b17c3fbb872046384dee21ba48f3264b8c2476c7b382ff01",
    4: "a95942ec95b3e7b44bb9bed6cff95d96ac9b060f264803ab608dbb62a32ddb74",
    5: "e92f3f8b9e9852276f04febdf5d75e73a2cb148db2dadfb614ca8fa097fa441b",
}


def assert_canonical_files(cache_dir, n_max: int) -> None:
    """Levels 1..n_max under cache_dir are the bytes save writes."""
    for n in range(1, n_max + 1):
        with open(cache_path(cache_dir, n), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == LEVEL_FILE_SHA256[n], n


# --- set-system operations only the tests use ---------------------------------

def cache_systems(cache: LevelCache) -> Iterator[SetSystem]:
    """Every system of a level cache, ascending."""
    for v in cache.vectors:
        yield SetSystem(cache.n, int(v))


def dual(s: SetSystem) -> SetSystem:
    return twist(s, (1 << s.n) - 1)


def _squeeze(mask: int, p: int) -> int:
    """Drop bit position p from a mask, shifting higher bits down."""
    return (mask & ((1 << p) - 1)) | ((mask >> (p + 1)) << p)


def minor(s: SetSystem, e: int, kind: MinorKind) -> SetSystem:
    """Delete or contract element e, relabelling {1..n}-e onto {1..n-1}.

    Deletion keeps the feasible sets avoiding e; contraction keeps those
    containing e and removes e from them.  Either may be improper.
    """
    if s.n < 1 or not 1 <= e <= s.n:
        raise ValueError(f"element {e} out of range for n={s.n}")
    p = e - 1
    want = 0 if kind is MinorKind.DELETE else 1
    out = 0
    for m in s.feasible_masks():
        if (m >> p) & 1 == want:
            out |= 1 << _squeeze(m, p)
    return SetSystem(s.n - 1, out)


def compose(d1: SetSystem, d2: SetSystem) -> SetSystem:
    """Inverse of splitting off the top element.

    Builds the system D on one more element whose contraction by the top
    element is d1 and whose deletion is d2.  This pairing is a bijection
    between systems on {1..n} and ordered pairs of systems on {1..n-1}.
    """
    if d1.n != d2.n:
        raise ValueError(f"ground-set sizes differ: {d1.n} != {d2.n}")
    half = 1 << d1.n
    return SetSystem(d1.n + 1, d2.bits | (d1.bits << half))


def is_matroid(b: SetSystem) -> bool:
    """True iff the feasible sets are equicardinal and exchange holds."""
    if not b.is_proper:
        raise ImproperSystemError("matroid test is undefined for improper systems")
    sizes = {m.bit_count() for m in b.feasible_masks()}
    if len(sizes) != 1:
        return False
    return check_symmetric_exchange(b) is None


# --- constructions and covers only the tests use ------------------------------

def evens_plus_all_odds(n: int, a: SetSystem) -> SetSystem:
    """Delta-matroid with feasible family a ∪ {every odd-size subset}.

    Every choice of even-size family works, and distinct choices give
    distinct systems, so there are 2^(2^(n-1)) outputs.
    """
    if a.n != n:
        raise ConstructionError(f"vertex set is over n={a.n}, expected {n}")
    for m in a.feasible_masks():
        if m.bit_count() & 1:
            raise ConstructionError(f"member {m} has odd size")
    odd = even_parity_indicator(n) ^ ((1 << (1 << n)) - 1)
    bits = a.bits | odd
    if bits == 0:
        raise ImproperSystemError("empty family (n=0 with no sets chosen)")
    return SetSystem(n, bits)


def cut_bound_certifies(n: int, eps: Fraction | float | str) -> bool:
    """Whether the exact cut bound reaches (1 - eps) * n * 2^(2^(n-1))."""
    eps_f = Fraction(eps)
    target = (1 - eps_f) * n * Fraction(2) ** (1 << (n - 1))
    return cut_count_lower_bound_exact(n) >= target


def local_cover(d: SetSystem, x: int) -> tuple[int, ...]:
    """The block-id row of the one infeasible even X, by the package's
    batched local_covers."""
    return local_covers(d, (x,))[0]


def certified_flips(row: tuple[int, ...]) -> frozenset[int]:
    """The pair masks {a, b} that a block-id row certifies, by the package's
    batched rule."""
    return frozenset(compress(_pair_masks(len(row) - 1), _certified(np.array([row]))[0].tolist()))


def single_block_partition(n: int) -> tuple[int, ...]:
    """The block-id row of the one-block partition of 0..n."""
    return (0,) * (n + 1)


def block_of(row: tuple[int, ...], element: int) -> frozenset[int]:
    """The elements of 0..n sharing element's entry in a block-id row."""
    if not 0 <= element < len(row):
        raise EncodingError(f"element {element} not covered")
    return frozenset(f for f, low in enumerate(row) if low == row[element])


def cover_certifies(row: tuple[int, ...], a: int, b: int) -> bool:
    """True when the cover marks X symmetric-difference {a, b} feasible: a
    and b in two distinct blocks, neither the block holding z (so the cover
    has at least three blocks)."""
    n = len(row) - 1
    if a == b or not (1 <= a <= n and 1 <= b <= n):
        raise EncodingError(f"invalid pair ({a}, {b})")
    block_a, block_b = block_of(row, a), block_of(row, b)
    return block_a != block_b and 0 not in block_a and 0 not in block_b


def oracle_certified_flips(row: tuple[int, ...]) -> set[int]:
    """The pair masks that cover_certifies marks, pair by pair."""
    return {
        set_to_mask(pair)
        for pair in combinations(range(1, len(row)), 2)
        if cover_certifies(row, *pair)
    }


def oracle_local_cover(d: SetSystem, x: int) -> tuple[int, ...]:
    """encoding.local_covers over Python sets, one infeasible even X at a
    time, as a block-id row.

    The pairs {a, b} with X ^ {a, b} feasible must be the bases of a rank-2
    matroid: a non-loop e's block is the non-loops f with {e, f} not a
    basis, the loops join z's block, and the distinct blocks must be
    disjoint and certify exactly the bases.
    """
    bases = {
        set_to_mask(pair)
        for pair in combinations(range(1, d.n + 1), 2)
        if d.has_mask(x ^ set_to_mask(pair))
    }
    bits = {e: 1 << (e - 1) for e in range(1, d.n + 1)}
    non_loops = [e for e in bits if any(basis & bits[e] for basis in bases)]
    classes = {
        frozenset(f for f in non_loops if bits[e] | bits[f] not in bases) for e in non_loops
    }
    # every non-loop is in its own block: the blocks are disjoint iff their sizes add up
    if sum(map(len, classes)) == len(non_loops):
        # z and the loops keep the id 0
        row = [0] * (d.n + 1)
        for block in classes:
            for e in block:
                row[e] = min(block)
        if oracle_certified_flips(tuple(row)) == bases:
            return tuple(row)
    raise EncodingError(
        "the pairs {a, b} with X ^ {a, b} feasible are not the bases of a rank-2 matroid"
    )


def loop_decode(record: EncodingRecord) -> tuple[int, ...]:
    """encoding.decode_even_system's family, one cover at a time over Python
    sets: S, the residual, and each x ^ {a, b} the cover of x does not
    certify.  The residue check is left to the package."""
    infeasible = set(record.s) | set(record.residual)
    for x, cover in zip(record.s, record.covers):
        certified = oracle_certified_flips(cover)
        infeasible.update(x ^ f for f in _pair_masks(record.n) if f not in certified)
    return tuple(sorted(infeasible))


# --- compose-kernel oracles --------------------------------------------------

def parent_minors(kernel) -> dict:
    """Each parent's minor per (element, kind), as an index into the level
    below, from _minor_indices over the kernel's parents: the kernel itself
    holds no per-parent minors."""
    return _minor_indices(kernel.parents, kernel.child_n - 1)[2]


def full_gather_row(kernel, minors: dict, parent_index: int, skip=()) -> np.ndarray:
    """A compose-kernel row computed the direct way: every (element, kind)
    minor not in ``skip`` gathered over all parents (``minors`` as
    parent_minors gives them) and ANDed, then the antipodal pair
    excluded."""
    ok = np.ones(len(kernel.parents), dtype=bool)
    for combo, m in minors.items():
        if combo not in skip:
            ok &= kernel.member[m[parent_index]][m]
    d1 = int(kernel.parents[parent_index])
    if d1 == 0:
        ok[0] = False
    elif d1 & (d1 - 1) == 0:
        # the composite's one set with the top element is a plus the top;
        # its complement is a set of the second component
        full = (1 << kernel.child_n) - 1
        top = 1 << (kernel.child_n - 1)
        complement = ((d1.bit_length() - 1) | top) ^ full
        ok[kernel.parents == 1 << complement] = False
    return ok


def row_loop_level(prev: LevelCache) -> LevelCache:
    """The next level listed one compose-kernel row at a time: each first
    component's admitted second components, by ``row_ok``."""
    kernel = _ComposeKernel(prev)
    dtype = _dtype_for(kernel.child_n)
    half = np.array(1 << (kernel.child_n - 1), dtype=dtype)
    # parents are ascending and the first component occupies the high bits,
    # so concatenation in row order is already globally sorted
    pieces = []
    for i, d1 in enumerate(kernel.parents.tolist()):
        second = kernel.parents[kernel.row_ok(i)].astype(dtype)
        pieces.append(second | (np.array(d1, dtype=dtype) << half))
    return LevelCache(kernel.child_n, np.concatenate(pieces))


# --- twist/relabel class oracle ----------------------------------------------

def searchsorted_orbits(vals: np.ndarray, n: int):
    """(i, members) per twist/relabel orbit of ascending systems: the
    index in vals of the orbit minimum and of every member, ascending, in
    the order levels._orbits sweeps them, with each orbit found in vals by
    np.searchsorted over the whole of vals and deduplicated as a Python
    set."""
    group = _symmetries(n)
    seen = np.zeros(len(vals), dtype=bool)
    for i in range(len(vals)):
        if seen[i]:
            continue
        bits = np.unpackbits(vals[i:i + 1].view(np.uint8), bitorder="little")
        images = np.packbits(bits[group], axis=1, bitorder="little").view(vals.dtype)
        orbit = np.array(sorted(set(images.ravel().tolist())), dtype=vals.dtype)
        j = np.searchsorted(vals, orbit)
        assert np.array_equal(vals[np.minimum(j, len(vals) - 1)], orbit), "not closed"
        seen[j] = True
        yield i, j


def _generators(n: int) -> list:
    """The twists by {e} and the transpositions of e and e + 1, acting on
    each feasible set as a Python set of 1-based elements."""
    twists = [lambda f, e=e: f ^ {e} for e in range(1, n + 1)]
    swaps = [lambda f, e=e: {{e: e + 1, e + 1: e}.get(x, x) for x in f} for e in range(1, n)]
    return twists + swaps


def oracle_orbit(s: SetSystem) -> set[int]:
    """Feasibility vectors of every twist of every relabelling of s, by
    closing {s} under the generators."""
    moves = _generators(s.n)
    orbit, frontier = {s.bits}, [s]
    while frontier:
        sets = frontier.pop().feasible_sets()
        for move in moves:
            image = SetSystem.from_sets(s.n, (move(set(f)) for f in sets))
            if image.bits not in orbit:
                orbit.add(image.bits)
                frontier.append(image)
    return orbit


def oracle_classes(cache: LevelCache) -> tuple[list[int], list[int]]:
    """(representatives, class sizes) of a level's twist/relabel classes,
    representatives the orbit minima, ascending."""
    seen: set[int] = set()
    reps, sizes = [], []
    for bits in cache.vectors.tolist():
        if bits not in seen:
            orbit = oracle_orbit(SetSystem(cache.n, bits))
            seen |= orbit
            reps.append(min(orbit))
            sizes.append(len(orbit))
    return reps, sizes


def kw_encode(n: int, l_set) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Run the peeling procedure against a target set L of even masks and
    return the selection S and the residue A.

    Postconditions: S is a subsequence of L; every L-vertex is in S, a
    neighbour of S, or the residue A; |A| <= alpha * N.
    """
    members = set(l_set)
    for m in members:
        if not 0 <= m < (1 << n) or bin(m).count("1") & 1:
            raise EncodingError(f"mask {m} is not an even mask below 2^{n}")
    return _peel(n, members)


def list_scan_peel(n: int, members: set[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The peel of ``encoding._peel`` written over Python lists, one vertex
    removed at a time, with a linear scan for the maximum degree.

    At each step the highest-degree vertex of the surviving induced
    subgraph is examined (ties to the smallest mask).  A member is appended
    to S and removed together with its surviving neighbours; a non-member
    is removed alone.  Stops once the survivor count is at most alpha * N,
    with alpha = component_alpha(n).  A removed vertex has degree -1, so
    the first maximum of ``degree`` is the vertex to examine.
    """
    if n < 2:
        raise EncodingError("component graph needs n >= 2")
    flips = _pair_masks(n)
    vertices = even_masks(n)
    count = len(vertices)
    degree = [len(flips)] * count
    survivors = count
    threshold = component_alpha(n) * count
    s: list[int] = []

    def remove(mask: int) -> None:
        nonlocal survivors
        degree[mask >> 1] = -1
        survivors -= 1
        for f in flips:
            j = (mask ^ f) >> 1
            if degree[j] >= 0:
                degree[j] -= 1

    while survivors > threshold:
        mask = vertices[degree.index(max(degree))]
        if mask in members:
            s.append(mask)
            neighbours = [mask ^ f for f in flips if degree[(mask ^ f) >> 1] >= 0]
            remove(mask)
            for nb in neighbours:
                remove(nb)
        else:
            remove(mask)
    a = tuple(m for m in vertices if degree[m >> 1] >= 0)
    return tuple(s), a


RECORD_TAMPERS = (
    "float-mask",
    "s-object",
    "string-residual",
    "float-element",
    "bool-element",
    "repeated-element",
    "unreduced-alpha",
    "unsorted-residual",
    "repeated-residual",
    "unsorted-block",
    "reordered-blocks",
    "extra-field",
    "missing-element",
    "overlapping-blocks",
    "empty-block",
    "negative-element",
    "element-past-n",
)


def tamper_record(doc: dict, how: str) -> dict:
    """A copy of a record document rewritten so that it is not the writer's
    own output.  Most rewrites would read back as the same system to a parser
    coercing with int(), frozenset() or Fraction(), or reading the residual
    and the cover blocks as sets; the last five leave a cover naming no
    partition of 0..n.

    Needs a record with a non-empty selection, at least two residual masks,
    a cover of two or more blocks and a cover block of two or more elements.
    """
    doc = json.loads(json.dumps(doc))
    if how == "float-mask":
        doc["s"][0] += 0.9
    elif how == "s-object":
        doc["s"] = {str(m): i for i, m in enumerate(doc["s"])}
    elif how == "string-residual":
        doc["residual"] = [str(m) for m in doc["residual"]]
    elif how == "unreduced-alpha":
        num, den = doc["alpha"].split("/")
        doc["alpha"] = f"{2 * int(num)}/{2 * int(den)}"
    elif how == "unsorted-residual":
        doc["residual"].reverse()
    elif how == "repeated-residual":
        doc["residual"].append(doc["residual"][-1])
    elif how == "unsorted-block":
        next(b for cover in doc["covers"] for b in cover if len(b) > 1).reverse()
    elif how == "reordered-blocks":
        doc["covers"][0].reverse()
    elif how == "extra-field":
        doc["note"] = "x"
    elif how == "missing-element":
        next(b for cover in doc["covers"] for b in cover if len(b) > 1).pop()
    elif how == "overlapping-blocks":
        first, second = next(cover for cover in doc["covers"] if len(cover) > 1)[:2]
        first[:] = sorted(first + second[:1])
    elif how == "empty-block":
        doc["covers"][0].append([])
    else:
        block = next(b for b in doc["covers"][0] if 1 in b)
        if how == "repeated-element":
            block.append(1)
        else:
            block[block.index(1)] = {
                "float-element": 1.0,
                "bool-element": True,
                "negative-element": -1,
                "element-past-n": doc["n"] + 1,
            }[how]
    return doc


@pytest.fixture(scope="session")
def levels5():
    """Complete level caches 0..5 (a few seconds, shared per session)."""
    return build_levels(5)


@pytest.fixture(scope="session")
def levels4(levels5):
    return {n: levels5[n] for n in range(5)}


@pytest.fixture(scope="session")
def oracle_levels():
    """Brute-force delta-matroid lists for n = 1..3 from the raw oracle."""
    return {n: oracle_level_list(n) for n in range(1, 4)}
