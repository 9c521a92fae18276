"""Delta-matroid toolkit: exact enumeration, constructions, and encodings.

A delta-matroid is a nonempty family of subsets of a finite ground set
satisfying the symmetric exchange axiom.  This package represents set
systems as feasibility bitvectors, enumerates all labelled delta-matroids
level by level, builds large families from hypercube stable sets and cuts,
and compresses even families with container-style encodings that yield
matching upper bounds.
"""

# Only the names that the README and the scripts use; everything else is
# imported from its submodule.
from .setsystem import SetSystem, check_symmetric_exchange, is_delta_matroid, is_even
from .levels import build_levels
from .constructions import (
    complement_delta_matroid,
    cut_count_lower_bound,
    random_stable_set,
    random_stacked_layers,
    sample_cut_construction,
    stacked_even_delta_matroid,
)

__version__ = "0.1.0"
