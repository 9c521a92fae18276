"""Constructions of large delta-matroid families.

Three routes produce delta-matroids wholesale:

* complements of induced subgraphs of the hypercube with maximum degree at
  most one (stable sets being the degree-zero case);
* an arbitrary family of even-size sets joined with every odd-size set;
* unions of sparse paving matroid basis families, one per even rank, which
  give even delta-matroids.

Sparse paving matroids are in bijection with stable sets in the Johnson
graph J(n, r); a residue-class construction supplies stable sets of size at
least C(n, r)/n.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Mapping

from .setsystem import (
    ImproperSystemError,
    Matroid,
    SetSystem,
    mask_of,
)


class ConstructionError(ValueError):
    """Base class for invalid construction inputs."""


class DegreeViolationError(ConstructionError):
    """Vertex set induces a subgraph of the hypercube with a degree above one."""


class StabilityViolationError(ConstructionError):
    """A claimed Johnson-graph stable set contains two adjacent vertices."""


class LayerError(ConstructionError):
    """A stacked construction is missing a layer or has an invalid one."""


@dataclass(frozen=True)
class VertexSet:
    """A set of hypercube vertices, each a subset mask of {1..n}."""

    n: int
    members: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ConstructionError("ground-set size must be nonnegative")
        limit = 1 << self.n
        for m in self.members:
            if not 0 <= m < limit:
                raise ConstructionError(f"vertex mask {m} out of range for n={self.n}")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    def sorted_masks(self) -> list[int]:
        return sorted(self.members)


def hypercube_neighbors(mask: int, n: int) -> Iterator[int]:
    for i in range(n):
        yield mask ^ (1 << i)


def qn_degree(v: VertexSet) -> int:
    """Maximum degree of the subgraph of the hypercube induced by v."""
    best = 0
    for m in v.members:
        deg = sum(1 for w in hypercube_neighbors(m, v.n) if w in v.members)
        best = max(best, deg)
    return best


def complement_delta_matroid(v: VertexSet) -> SetSystem:
    """Delta-matroid whose feasible sets are the hypercube vertices NOT in v.

    Requires the subgraph induced by v to have maximum degree at most one
    (stable sets are the degree-zero case).
    """
    degree = qn_degree(v)
    if degree > 1:
        raise DegreeViolationError(f"induced degree {degree} exceeds 1")
    bits = (1 << (1 << v.n)) - 1
    for m in v.members:
        bits &= ~(1 << m)
    if bits == 0:
        raise ImproperSystemError("complement of the full vertex set is empty")
    return SetSystem(v.n, bits)


# --- randomized cut construction ---------------------------------------------

def sample_cut_vertices(n: int, cut: int, seed: int) -> VertexSet:
    """Random vertex set inducing a subgraph of maximum degree <= 1.

    The edge cut of coordinate ``cut`` splits the hypercube into two
    halves.  Even-size vertices with the cut coordinate absent and odd-size
    vertices with it present are each kept independently with probability
    one half, scanned in ascending mask order.  Any edge inside the sample
    joins two vertices of different size parity differing in exactly the
    cut coordinate, so degrees stay at most one.
    """
    if n < 2:
        raise ConstructionError("cut construction requires n >= 2")
    if not 1 <= cut <= n:
        raise ConstructionError(f"cut element {cut} out of range 1..{n}")
    rng = random.Random(seed)
    cut_bit = 1 << (cut - 1)
    chosen = []
    for m in range(1 << n):
        parity = m.bit_count() & 1
        if parity == 0 and not (m & cut_bit):
            if rng.getrandbits(1):
                chosen.append(m)
    for m in range(1 << n):
        parity = m.bit_count() & 1
        if parity == 1 and (m & cut_bit):
            if rng.getrandbits(1):
                chosen.append(m)
    return VertexSet(n, frozenset(chosen))


def sample_cut_construction(n: int, cut: int, seed: int) -> SetSystem:
    """Delta-matroid sampled from the cut construction (complement of a
    random degree-<=1 vertex set concentrated on one edge cut)."""
    v = sample_cut_vertices(n, cut, seed)
    return complement_delta_matroid(v)


def cut_count_lower_bound_exact(n: int) -> Fraction:
    """Exact value of n * 2^t * 2^t * (1 - (3/4)^t) with t = 2^(n-2)."""
    if n < 2:
        raise ConstructionError("cut bound requires n >= 2")
    t = 1 << (n - 2)
    return n * Fraction(2) ** t * Fraction(2) ** t * (1 - Fraction(3, 4) ** t)


def cut_count_lower_bound(n: int) -> int:
    """The cut-construction counting bound, floored to an integer."""
    return math.floor(cut_count_lower_bound_exact(n))


# --- Johnson graph stable sets and sparse paving matroids ---------------------

def graham_sloane_stable_set(n: int, r: int) -> VertexSet:
    """A stable set in the Johnson graph J(n, r) of size >= C(n, r)/n.

    The r-subsets of {1..n} are split by the residue of their element sum
    modulo n; two sets sharing r-1 elements have distinct residues, so each
    class is stable.  Returns the largest class (ties to smallest residue).
    """
    if not 0 < r < n:
        raise ConstructionError(f"rank {r} out of range for n={n}")
    classes: dict[int, list[int]] = {res: [] for res in range(n)}
    for combo in combinations(range(1, n + 1), r):
        classes[sum(combo) % n].append(mask_of(combo))
    best = max(range(n), key=lambda res: (len(classes[res]), -res))
    return VertexSet(n, frozenset(classes[best]))


@dataclass(frozen=True)
class SparsePavingSpec:
    """Sparse paving matroid data: the circuit-hyperplane family.

    Every r-set is either a basis or a circuit-hyperplane; realizability is
    exactly stability of the circuit-hyperplane family in J(n, r).
    """

    n: int
    r: int
    circuit_hyperplanes: VertexSet

    def __post_init__(self) -> None:
        if not 0 <= self.r <= self.n:
            raise ConstructionError(f"rank {self.r} out of range for n={self.n}")
        ch = self.circuit_hyperplanes
        if ch.n != self.n:
            raise ConstructionError("circuit-hyperplane set over wrong ground set")
        for m in ch.members:
            if m.bit_count() != self.r:
                raise ConstructionError(f"circuit-hyperplane {m} is not an {self.r}-set")

    def validate_stability(self) -> None:
        masks = self.circuit_hyperplanes.sorted_masks()
        for i, x in enumerate(masks):
            for y in masks[i + 1:]:
                if (x & y).bit_count() == self.r - 1:
                    raise StabilityViolationError(
                        f"{x} and {y} share {self.r - 1} elements"
                    )


def sparse_paving_matroid(spec: SparsePavingSpec) -> Matroid:
    """Matroid whose bases are the r-sets outside the circuit-hyperplanes."""
    spec.validate_stability()
    bits = 0
    forbidden = spec.circuit_hyperplanes.members
    for combo in combinations(range(spec.n), spec.r):
        m = sum(1 << i for i in combo)
        if m not in forbidden:
            bits |= 1 << m
    if bits == 0:
        raise LayerError(
            "every r-set is a circuit-hyperplane; the basis family is empty"
        )
    return Matroid(SetSystem(spec.n, bits), spec.r)


def stacked_even_delta_matroid(
    n: int, layers: Mapping[int, SparsePavingSpec]
) -> SetSystem:
    """Even delta-matroid from one sparse paving matroid per even rank.

    ``layers`` maps each even rank 0, 2, ..., 2*floor(n/2) to a spec on
    {1..n} of that rank; the feasible family is the union of the layers'
    basis families.
    """
    required = list(range(0, 2 * (n // 2) + 1, 2))
    bits = 0
    for rank in required:
        if rank not in layers:
            raise LayerError(f"missing layer for rank {rank}")
        spec = layers[rank]
        if spec.n != n or spec.r != rank:
            raise LayerError(
                f"layer for rank {rank} has n={spec.n}, r={spec.r}"
            )
        bits |= sparse_paving_matroid(spec).system.bits
    extra = set(layers) - set(required)
    if extra:
        raise LayerError(f"unexpected layer ranks {sorted(extra)}")
    return SetSystem(n, bits)


def random_residue_stable_subset(n: int, r: int, rng: random.Random) -> VertexSet:
    """Random subset of a random residue class of r-sets (stable in J(n, r)).

    Ranks 0 and n have a single vertex and always give the empty set so the
    layer keeps at least one basis.
    """
    if r == 0 or r == n:
        return VertexSet(n)
    residue = rng.randrange(n)
    members = [
        mask_of(combo)
        for combo in combinations(range(1, n + 1), r)
        if sum(combo) % n == residue
    ]
    chosen = frozenset(m for m in members if rng.getrandbits(1))
    return VertexSet(n, chosen)


def random_stacked_layers(n: int, seed: int) -> dict[int, SparsePavingSpec]:
    """Seeded random layer family for the stacked even construction."""
    rng = random.Random(seed)
    layers = {}
    for rank in range(0, 2 * (n // 2) + 1, 2):
        ch = random_residue_stable_subset(n, rank, rng)
        layers[rank] = SparsePavingSpec(n, rank, ch)
    return layers


def random_stable_set(n: int, seed: int) -> VertexSet:
    """Seeded random stable set in the hypercube: a shuffle of the vertices,
    each kept with probability one half unless a neighbour was kept."""
    rng = random.Random(seed)
    order = list(range(1 << n))
    rng.shuffle(order)
    chosen: set[int] = set()
    for m in order:
        if rng.random() < 0.5 and not any(
            w in chosen for w in hypercube_neighbors(m, n)
        ):
            chosen.add(m)
    return VertexSet(n, frozenset(chosen))


def even_lower_bound(n: int) -> float:
    """The value n - 1 - log2(n), a lower bound for log2 log2 of the even
    count (meaningful for n >= 3; holds trivially below)."""
    if n < 1:
        raise ConstructionError("bound needs n >= 1")
    return n - 1 - math.log2(n)
