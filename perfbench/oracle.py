"""Independent statement of the symmetric exchange axiom over Python sets.

Nothing here calls the package's checker or uses its bitvector helpers:
feasible sets are frozensets of 1-based elements, and the axiom is tested
literally.  The benchmark uses it to spot-check level-6 compatibility rows
and to confirm that every violation witness the checker returns is real.
"""

from __future__ import annotations


def mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def family_of(bits: int) -> set[frozenset[int]]:
    """Feasible family of a feasibility integer (bit m set = mask m feasible)."""
    return {mask_to_set(m) for m in range(bits.bit_length()) if (bits >> m) & 1}


def is_delta_matroid(family: set[frozenset[int]]) -> bool:
    """For all feasible X, Y and e in X^Y some f in X^Y (f = e allowed)
    makes X^{e, f} feasible; the empty family is not a delta-matroid."""
    if not family:
        return False
    for x in family:
        for y in family:
            diff = x ^ y
            for e in diff:
                if not any((x ^ {e, f}) in family for f in diff):
                    return False
    return True


def is_violation(family: set[frozenset[int]], x: frozenset[int], y: frozenset[int], e: int) -> bool:
    """True iff (X, Y, e) breaks the axiom: X and Y are feasible, e is in
    X^Y, and no f in X^Y makes X^{e, f} feasible."""
    if x not in family or y not in family:
        return False
    diff = x ^ y
    if e not in diff:
        return False
    return not any((x ^ {e, f}) in family for f in diff)
