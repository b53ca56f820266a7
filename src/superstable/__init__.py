"""Super-stable matchings in bipartite preference systems with ties.

Solvers, compact representations (edge-minimal matchings and the rotation
poset), full enumeration, maximum-weight optimization, and exact rational
verification of the associated matching polytopes.
"""

from .instance import (
    MEN,
    WOMEN,
    Instance,
    ParseError,
    load_weights,
    parse_edge_values,
    parse_instance,
    random_instance,
    serialize_instance,
)
from .stability import (
    STRONG,
    SUPER,
    NoSuperStableMatching,
    blocking_edges,
    matching_to_json,
    optimal_super_stable,
    validate_matching,
)
from .fixed_edge import (
    IrreducibleElement,
    IrreduciblePoset,
    irreducible_poset,
    optimal_with_edge,
    p_set,
    reduce_for_edge,
)
from .rotations import (
    Rotation,
    RotationPoset,
    maximal_sequence,
    precedence_digraph,
    rotations_of,
)
from .lattice import (
    build_poset,
    closed_subsets,
    dominates,
    enumerate_all,
    join_meet,
    matching_of,
    max_weight,
)
from .polytope import (
    DualCertificate,
    Violation,
    check_point,
    convex_combination,
    incidence_vector,
    self_dual,
    vertices,
)
from .oracle import brute_stable_set, enumerate_matchings

__version__ = "0.1.0"
