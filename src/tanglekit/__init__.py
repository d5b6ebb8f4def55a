"""Tangles of connectivity functions: enumeration, queries, decompositions."""

from .bases import (
    Base,
    base_for_set,
    enumerate_bases,
    enumerate_lattices,
    free_subset,
    is_base,
    lattice_bottom,
    lattice_top,
)
from .connectivity import (
    AxiomReport,
    ConnectivityOracle,
    Graph,
    GroundSet,
    cut_rank_fn,
    edge_boundary_fn,
    matroid_connectivity_fn,
    normalize,
    verify_axioms,
    vertex_cut_fn,
)
from .decomposition import (
    Contraction,
    DirectedTreeDecomposition,
    PartialDecomposition,
    TangleTreeDecomposition,
    TreeDecomposition,
    VerificationReport,
    assign_tangle_nodes,
    canonical_decomposition,
    check_nested,
    coherent_nested_family,
    contract_at,
    directed_decomposition,
    exactify,
    maximal_indices,
    nested_to_tree,
    project_tangle,
    prune_empty_hubs,
    refine_single_tangle,
    verify_tangle_decomposition,
    width,
)
from .errors import (
    DomainError,
    IntegrityError,
    OutOfOrderError,
    ParseError,
    SizeGuardError,
    StructuralError,
)
from .separations import (
    MinSeparationResult,
    kappa_min,
    leftmost_min_separation,
    rightmost_min_separation,
)
from .tangle_ds import TangleDataStructure, build_structure
from .tangles import (
    ExplicitTangle,
    Tangle,
    check_axioms,
    empty_tangle,
    exists_tangle_avoiding,
    has_tangle_of_order,
    leftmost_tangle_separation,
    leftmost_tangle_set_separation,
    max_tangle_order,
    minimal_member_in_box,
    minimal_member_in_lattice,
    tangle_lattice_bottom,
    truncate,
)

__version__ = "0.1.0"
