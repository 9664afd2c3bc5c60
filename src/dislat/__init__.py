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
    Lattice,
    adjunct_elements,
    build_from_covers,
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
    basic_block,
    fixed_point_form,
    is_ssc,
    peel_order,
    ssc_equivalence_report,
)
from .treeiso import (
    CanonicalCode,
    RootedTree,
    adjunct_representation,
    canonical_code,
    graph_iso,
    lattice_of_tree,
    lift_to_lattice_iso,
    recognize,
    tree_of_lattice,
)
from .oracle import (
    brute_lattice_iso,
    enumerate_rooted_trees,
)

__version__ = "0.1.0"
