#!/usr/bin/env python3
"""Sweep the lower-bound constructions and compare their yields to d_n.

Three families are sampled and verified against the symmetric exchange
axiom:

  * complements of random hypercube stable sets (never fails; the sweep
    measures family sizes),
  * the seeded cut construction, whose distinct-output count is bounded
    below by n * 4^(2^(n-2)) * (1 - (3/4)^(2^(n-2))),
  * stacked even systems built from one sparse paving layer per even rank.

The script prints, per ground-set size from 2 to --max-n (at most 16), the
sample pass rate, the number of distinct systems seen, and the
cut-construction bound next to the true count where the latter is known.
The bound is exact while it fits its column, else the power of two 2^k
just below it.

Usage:
    python3 scripts/construction_sweep.py [--samples 300] [--max-n 6] [--seed 0]
"""

from __future__ import annotations

import argparse
import random
import sys

from deltamatroid import (
    complement_delta_matroid,
    cut_count_lower_bound,
    is_delta_matroid,
    is_even,
    random_stable_set,
    random_stacked_layers,
    sample_cut_construction,
    stacked_even_delta_matroid,
)
from deltamatroid.setsystem import MAX_GROUND_SIZE

TRUE_COUNTS = {1: 3, 2: 15, 3: 155, 4: 5959, 5: 4980259, 6: 2746801811279}
BOUND_WIDTH = 12

# (name, builder from n, rng; acceptance of the built system)
FAMILIES = (
    ("stable-compl",
     lambda n, rng: complement_delta_matroid(random_stable_set(n, rng.randrange(1 << 30))),
     is_delta_matroid),
    ("cut-sample",
     lambda n, rng: sample_cut_construction(n, rng.randint(1, n), rng.randrange(1 << 30)),
     is_delta_matroid),
    ("stacked-even",
     lambda n, rng: stacked_even_delta_matroid(
         n, random_stacked_layers(n, rng.randrange(1 << 30))),
     lambda d: is_delta_matroid(d) and is_even(d)),
)


def bound_text(bound: int) -> str:
    """The bound exactly while it fits its column, else the lower bound 2^k
    with k = bound.bit_length() - 1."""
    if bound < 10 ** BOUND_WIDTH:
        return str(bound)
    return f"2^{bound.bit_length() - 1}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if not 2 <= args.max_n <= MAX_GROUND_SIZE:
        parser.error(f"--max-n must be in 2..{MAX_GROUND_SIZE}, got {args.max_n}")
    if args.samples < 1:
        parser.error(f"--samples must be at least 1, got {args.samples}")

    rng = random.Random(args.seed)
    print(
        f"{'n':>2}  {'family':<16}  {'pass':>9}  {'distinct':>8}"
        f"  {'cut bound':>{BOUND_WIDTH}}  {'d_n':>13}"
    )
    for n in range(2, args.max_n + 1):
        true = TRUE_COUNTS.get(n, "-")
        failures = 0
        for name, build, accept in FAMILIES:
            seen = set()
            passed = 0
            for _ in range(args.samples):
                d = build(n, rng)
                passed += accept(d)
                seen.add(d.bits)
            failures += args.samples - passed
            bound_s = bound_text(cut_count_lower_bound(n)) if name == "cut-sample" else ""
            print(
                f"{n:>2}  {name:<16}  {passed:>4}/{args.samples:<4}"
                f"  {len(seen):>8}  {bound_s:>{BOUND_WIDTH}}  {true:>13}"
            )
        if failures:
            print(f"!! {failures} failures at n={n}")
            return 1
    print("all sampled constructions satisfy their axioms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
