"""dislat: lower dismantlable lattices, their zero-divisor graphs, and a
constructive solution of the isomorphism problem for that class.

The package builds finite bounded lattices from cover relations or from a
small text DSL of adjunct representations, computes zero-divisor graphs and
basic blocks, converts to and from rooted trees, and decides lattice
isomorphism through canonical tree codes, with brute-force oracles for
verification at desk scale.
"""

from .errors import (
    BadGraph,
    BadOption,
    BadPartition,
    BudgetExceeded,
    ClassHasAdjunct,
    CycleDetected,
    DislatError,
    DslError,
    DslSyntaxError,
    DuplicateElement,
    EmptyGraph,
    HypothesisViolated,
    InternalInconsistency,
    LabelClash,
    NoSuchElement,
    NotALattice,
    NotInClass,
    NotLowerDismantlable,
    NotReduced,
    PairNotAdjunctable,
    UnknownElement,
)
from .lattice import (
    Adjunction,
    AdjunctExpr,
    ElementClassification,
    Lattice,
    adjunct,
    adjunct_representation,
    build_from_covers,
    chain_lattice,
    classify,
    induced_sublattice,
    is_lower_dismantlable,
    relabel,
)
from .dsl import elaborate, parse, parse_file, serialize
from .zdg import (
    LabeledGraph,
    complete_multipartite_parts,
    connectivity_report,
    lattice_from_complete_multipartite,
    zero_divisor_graph,
)
from .blocks import (
    ClassPartition,
    PeelStep,
    VertexClass,
    basic_block,
    class_has_adjunct,
    explore_deletion_orders,
    is_ssc,
    is_structurally_deletable,
    neighborhood_classes,
    peel_decomposition,
    peel_order,
    reassemble,
    ssc_equivalence_report,
)
from .treeiso import (
    CanonicalCode,
    IsoWitness,
    RootedTree,
    align_adjuncts,
    canonical_code,
    iso_decide,
    lattice_of_tree,
    lift_to_lattice_iso,
    non_ancestor_graph,
    recognize,
    tree_of_lattice,
)
from .oracle import (
    brute_graph_iso,
    brute_graph_iso_all,
    brute_lattice_iso,
    enumerate_lower_dismantlable,
    enumerate_rooted_trees,
)

__version__ = "0.1.0"
