"""Constructions of large delta-matroid families.

Two routes produce delta-matroids wholesale:

* complements of induced subgraphs of the hypercube with maximum degree at
  most one (stable sets being the degree-zero case), one of them sampled
  on a single edge cut;
* stacked even systems: the even sets minus one circuit-hyperplane family,
  whose members of each even size r are the circuit-hyperplanes of a
  sparse paving matroid of rank r, so the system is the union of one
  sparse paving basis family per even rank.

Sparse paving matroids are in bijection with stable sets in the Johnson
graph J(n, r); a residue-class construction supplies stable sets of size at
least C(n, r)/n.  Every family of subsets here, whether a vertex set of the
hypercube, a circuit-hyperplane family or a basis family, is a
``SetSystem``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .setsystem import (
    ImproperSystemError, SetSystem, even_parity_indicator, mask_of, rank_indicator,
)


class ConstructionError(ValueError):
    """Base class for invalid construction inputs."""


def hypercube_neighbors(mask: int, n: int) -> Iterator[int]:
    for i in range(n):
        yield mask ^ (1 << i)


def qn_degree(v: SetSystem) -> int:
    """Maximum degree of the subgraph of the hypercube induced by the
    members of v."""
    members = set(v.feasible_masks())
    return max(
        (sum(w in members for w in hypercube_neighbors(m, v.n)) for m in members),
        default=0,
    )


def complement_delta_matroid(v: SetSystem) -> SetSystem:
    """Delta-matroid whose feasible sets are the hypercube vertices NOT in v.

    Requires the subgraph induced by v to have maximum degree at most one
    (stable sets are the degree-zero case).
    """
    degree = qn_degree(v)
    if degree > 1:
        raise ConstructionError(f"induced degree {degree} exceeds 1")
    bits = v.bits ^ ((1 << (1 << v.n)) - 1)
    if bits == 0:
        raise ImproperSystemError("complement of the full vertex set is empty")
    return SetSystem(v.n, bits)


# --- randomized cut construction ---------------------------------------------

def sample_cut_vertices(n: int, cut: int, seed: int) -> SetSystem:
    """Random vertex set inducing a subgraph of maximum degree <= 1.

    The edge cut of coordinate ``cut`` splits the hypercube into two
    halves.  Even-size vertices with the cut coordinate absent, then
    odd-size vertices with it present, each side in ascending mask order,
    are each kept independently with probability one half.  Any edge
    inside the sample joins two vertices of different size parity
    differing in exactly the cut coordinate, so degrees stay at most one.
    """
    if n < 2:
        raise ConstructionError("cut construction requires n >= 2")
    if not 1 <= cut <= n:
        raise ConstructionError(f"cut element {cut} out of range 1..{n}")
    rng = random.Random(seed)
    p = cut - 1
    return SetSystem.from_masks(n, (
        m
        for side in (0, 1)
        for m in range(1 << n)
        if (m.bit_count() & 1) == side == (m >> p & 1) and rng.getrandbits(1)
    ))


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

def graham_sloane_stable_set(n: int, r: int) -> SetSystem:
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
    return SetSystem.from_masks(n, classes[best])


def sparse_paving_matroid(r: int, circuit_hyperplanes: SetSystem) -> SetSystem:
    """The bases of the sparse paving matroid of rank r on {1..n} with the
    given circuit-hyperplanes: the r-sets outside them.

    Every r-set is either a basis or a circuit-hyperplane; a family of
    r-sets is the circuit-hyperplane family of such a matroid exactly when
    it is stable in J(n, r) and leaves at least one basis.
    """
    n = circuit_hyperplanes.n
    if not 0 <= r <= n:
        raise ConstructionError(f"rank {r} out of range for n={n}")
    rsets = rank_indicator(n, r)
    stray = circuit_hyperplanes.bits & ~rsets
    if stray:
        m = (stray & -stray).bit_length() - 1
        raise ConstructionError(f"circuit-hyperplane {m} is not an {r}-set")
    for x, y in combinations(circuit_hyperplanes.feasible_masks(), 2):
        if (x & y).bit_count() == r - 1:
            raise ConstructionError(f"{x} and {y} share {r - 1} elements")
    if circuit_hyperplanes.bits == rsets:
        raise ConstructionError("every r-set is a circuit-hyperplane; the basis family is empty")
    return SetSystem(n, rsets ^ circuit_hyperplanes.bits)


def stacked_even_delta_matroid(n: int, circuit_hyperplanes: SetSystem) -> SetSystem:
    """Even delta-matroid on {1..n}: the even sets minus a family of
    circuit-hyperplanes.

    The members of each even size r are the circuit-hyperplanes of a sparse
    paving matroid of rank r; the feasible family is the union of those
    matroids' basis families, one per even rank.
    """
    if circuit_hyperplanes.n != n:
        raise ConstructionError(f"circuit-hyperplanes over n={circuit_hyperplanes.n}, not {n}")
    odd = circuit_hyperplanes.bits & ~even_parity_indicator(n)
    if odd:
        m = (odd & -odd).bit_length() - 1
        raise ConstructionError(f"circuit-hyperplane {m} has odd size")
    bits = 0
    for r in range(0, n + 1, 2):
        layer = SetSystem(n, circuit_hyperplanes.bits & rank_indicator(n, r))
        bits |= sparse_paving_matroid(r, layer).bits
    return SetSystem(n, bits)


def random_residue_stable_subset(n: int, r: int, rng: random.Random) -> SetSystem:
    """Random subset of a random residue class of r-sets (stable in J(n, r)).

    Ranks 0 and n have a single vertex and always give the empty set so the
    layer keeps at least one basis.
    """
    if r == 0 or r == n:
        return SetSystem(n, 0)
    residue = rng.randrange(n)
    return SetSystem.from_masks(n, (
        mask_of(combo)
        for combo in combinations(range(1, n + 1), r)
        if sum(combo) % n == residue and rng.getrandbits(1)
    ))


def random_stacked_layers(n: int, seed: int) -> SetSystem:
    """Seeded random circuit-hyperplane family for the stacked even
    construction: one family holding, for each even rank in ascending
    order, a random stable subset of a residue class of that rank (the
    ranks' sets are disjoint, so their bits add)."""
    rng = random.Random(seed)
    layers = (random_residue_stable_subset(n, r, rng) for r in range(0, n + 1, 2))
    return SetSystem(n, sum(layer.bits for layer in layers))


def random_stable_set(n: int, seed: int) -> SetSystem:
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
    return SetSystem.from_masks(n, chosen)


def even_lower_bound(n: int) -> float:
    """The value n - 1 - log2(n), a lower bound for log2 log2 of the even
    count (meaningful for n >= 3; holds trivially below)."""
    if n < 1:
        raise ConstructionError("bound needs n >= 1")
    return n - 1 - math.log2(n)
