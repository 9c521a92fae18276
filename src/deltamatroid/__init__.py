"""Delta-matroid toolkit: exact enumeration, constructions, and encodings.

A delta-matroid is a nonempty family of subsets of a finite ground set
satisfying the symmetric exchange axiom.  This package represents set
systems as feasibility bitvectors, enumerates all labelled delta-matroids
level by level, builds large families from hypercube stable sets and cuts,
and compresses even families with container-style encodings that yield
matching upper bounds.
"""

# Only the names that the README's library example uses; everything else
# is imported from its submodule.
from .setsystem import SetSystem, check_symmetric_exchange
from .levels import build_levels

__version__ = "0.1.0"
