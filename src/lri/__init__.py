"""Reasonable inference over possibly inconsistent normative rule bases.

The package separates four layers: the formula language (`formula`), the
satisfiability engine that decides classical consistency and entailment
(`cnf`, `sat`), the reasoning layer of positions, justifications, and
contexts (`engine`), and the component algebra of calculi and varieties
(`variety`).  Knowledge-base files (`kb`) and the command line (`cli`) sit
on top.
"""

from .engine import (
    Context,
    DomainOfRules,
    Justification,
    Position,
    in_reasonable_theory,
    is_consistent_context,
    justifications,
    maximal_consistent_contexts,
    maximal_positions,
    new_domain,
    reasonably_infers,
)
from .errors import (
    ArityMismatch,
    AxiomHypothesisOverlap,
    DuplicateHypothesis,
    EmptyDomain,
    FormulaSyntaxError,
    IncompleteRenaming,
    InconsistentAxioms,
    LriError,
    MixedDomains,
    ResourceLimit,
    UnknownSymbol,
)
from .formula import (
    And,
    Atom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    atoms_of,
    ground,
    is_ground,
    parse_formula,
    parse_statements,
    print_formula,
)
from .variety import (
    Calculus,
    DepthCheckResult,
    PartitionNode,
    ProbeUniverse,
    RenamingMap,
    Variety,
    apply_renaming,
    check_variety_depth,
    discretize,
    is_compatible,
    is_connected,
    is_discrete,
    overlap_dot,
    partition_dot,
    partition_graph,
    theorem_in,
    upper_level,
    variety_of,
    witness_variety,
)

__version__ = "0.1.0"

__all__ = [
    "And", "ArityMismatch", "Atom", "AxiomHypothesisOverlap", "Calculus",
    "Context", "DepthCheckResult", "DomainOfRules", "DuplicateHypothesis",
    "EmptyDomain", "Formula", "FormulaSyntaxError", "Iff", "Implies",
    "IncompleteRenaming", "InconsistentAxioms", "Justification", "LriError",
    "MixedDomains", "Not", "Or", "PartitionNode", "Position", "ProbeUniverse",
    "RenamingMap", "ResourceLimit", "Signature", "UnknownSymbol", "Variety",
    "apply_renaming", "atoms_of", "check_variety_depth", "discretize",
    "ground", "in_reasonable_theory", "is_compatible", "is_connected",
    "is_consistent_context", "is_discrete", "is_ground", "justifications",
    "maximal_consistent_contexts", "maximal_positions", "new_domain",
    "overlap_dot", "parse_formula", "parse_statements", "partition_dot",
    "partition_graph", "print_formula", "reasonably_infers", "theorem_in",
    "upper_level", "variety_of", "witness_variety",
]
