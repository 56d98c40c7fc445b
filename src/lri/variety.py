"""Calculi, varieties of components, and their structural algebra.

A calculus is a finite axiom set; its theorems are never materialized,
membership being decided by classical entailment on demand.  A variety
indexes several calculi over one shared language as components (a calculus
over other names enters through `apply_renaming`), and the operations here
ask structural questions about the family: whether components overlap
(connectedness), whether they fit inside one consistent calculus together
(compatibility), and what changes when components are kept apart by
labeling (discretization).

Every such question is a consistency or entailment question about the
components' axiom sets, so a variety is held as one domain of rules and, per
component, an ordered selection of that domain's hypotheses.  A component's
axioms are derived, not stored: the domain's axioms, then the hypotheses its
selection lists.  The variety of a domain is that domain itself, with the
selections of its maximal positions, so nothing is built, checked or
translated a second time.  A variety given as a list of calculi gets an
axiom-free domain whose hypotheses are the distinct component formulas, with
the default decision budget.  Upper levels, compatibility and depth are
asked of the domain, island by island, with its consistency memo, its memo
of the latest conclusion's refutations, and the domain's own budget for each
question: the budget a domain is built with is the one its variety spends.

Theorem sets are infinite, so theorem-level comparisons are relativized to a
finite probe universe of ground formulas.  Discretization labels are
metadata: they qualify formulas in the set comparisons behind discreteness
and connectedness, and they are erased before anything reaches the
satisfiability engine, so upper levels and compatibility never see them.

Set intersections for connectedness and the depth check are taken on axiom
(generator) sets rather than theorem sets: classical theorem sets always
share the tautologies, which would make those notions vacuous.
"""

from __future__ import annotations

import itertools
from functools import cached_property, reduce
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from .engine import DomainOfRules, maximal_selections
from .errors import IncompleteRenaming
from .formula import (
    And,
    Atom,
    Formula,
    Not,
    Record,
    Signature,
    atom_groups,
    atoms_of,
    distinct_ground,
    map_atoms,
    print_formula,
)

Label = Optional[Hashable]


class Calculus:
    """A finite axiom set of classical propositional logic and its lazy
    theorem set.

    Theorem membership is `theorem_in`, decided by classical entailment.
    Construction leaves the signature alone: a variety holding the calculus
    checks the atoms of its (renamed) axioms there, and its domain's clause
    builder numbers them.  Equality compares the axiom sets, ignoring the
    signature, so structurally equal calculi over the same language compare
    equal no matter where they were built.
    """

    def __init__(self, axioms: Iterable[Formula], signature: Signature) -> None:
        self.axioms = distinct_ground(axioms, "calculus axiom")
        self.signature = signature

    @property
    def axiom_set(self) -> frozenset[Formula]:
        return frozenset(self.axioms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Calculus):
            return NotImplemented
        return self.axiom_set == other.axiom_set

    def __hash__(self) -> int:
        return hash(self.axiom_set)

    def __repr__(self) -> str:
        return f"Calculus({len(self.axioms)} axioms)"


def theorem_in(c: Calculus, phi: Formula) -> bool:
    """Whether phi belongs to the calculus's theorem set.

    Asked of a one-component variety, so with the default decision budget.
    """
    return bool(upper_level(Variety([c], c.signature), [phi]))


class RenamingMap:
    """A bijective renaming of predicate and constant names.

    Applying the map atom-wise turns formulas over the source names into
    formulas over the target names; names the map does not cover raise
    IncompleteRenaming on use.  Arity preservation is enforced where the
    renamed atoms are declared, since the target signature knows both
    arities.  A calculus over the source names enters a variety over the
    target names through `apply_renaming`.
    """

    def __init__(
        self,
        predicates: Optional[Mapping[str, str]] = None,
        constants: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.predicates = dict(predicates or {})
        self.constants = dict(constants or {})
        for table, kind in (
            (self.predicates, "predicate"),
            (self.constants, "constant"),
        ):
            if len(set(table.values())) != len(table):
                raise ValueError(f"{kind} renaming is not injective: {table}")

    def rename_atom(self, atom: Atom) -> Atom:
        try:
            predicate = self.predicates[atom.predicate]
            args = tuple(self.constants[a] for a in atom.args)
        except KeyError as missing:
            raise IncompleteRenaming(
                f"renaming does not cover {missing.args[0]!r} "
                f"in atom {atom}"
            ) from None
        return Atom(predicate, args)

    def rename_formula(self, formula: Formula) -> Formula:
        return map_atoms(formula, self.rename_atom)


def apply_renaming(m: RenamingMap, c: Calculus) -> Calculus:
    """The calculus with every axiom renamed atom-wise.

    The map must cover every predicate and constant name occurring in the
    axioms (IncompleteRenaming otherwise).  Theorem membership commutes:
    renamed theorems of the renamed calculus are exactly the renamed
    theorems of the original.
    """
    return Calculus([m.rename_formula(f) for f in c.axioms], c.signature)


class ProbeUniverse:
    """A finite, ordered, duplicate-free window onto infinite theorem sets.

    Comparisons between theorem sets quantify over a probe instead of the
    whole language.  `covering` builds the default probe for a variety: every
    component axiom, plus whatever extra formulas the caller wants observed.
    Custom probes may be narrower than the covering one.
    """

    def __init__(self, formulas: Iterable[Formula]) -> None:
        self.formulas = distinct_ground(formulas, "probe formula")

    @classmethod
    def covering(
        cls, variety: "Variety", extra: Iterable[Formula] = ()
    ) -> "ProbeUniverse":
        collected: list[Formula] = []
        for i in range(len(variety)):
            collected.extend(variety.renamed_axioms(i))
        collected.extend(extra)
        return cls(collected)

    def __iter__(self):
        return iter(self.formulas)

    def __len__(self) -> int:
        return len(self.formulas)

    def __contains__(self, formula: object) -> bool:
        return formula in self.formulas


class Variety:
    """An indexed family of calculi over one shared language.

    Every component is included as it is, with an optional discretization
    label; a calculus over other names enters through `apply_renaming`.

    A variety is one domain of rules plus, per component, an ordered
    selection of its hypotheses: `_selections[i]` is a tuple of hypothesis
    indices, and component i's axioms are the domain's axioms followed by
    the hypotheses it lists (`renamed_axioms`).  Built from calculi, the
    domain is axiom-free, its hypotheses are the distinct component
    formulas in first-occurrence order, and each selection follows its
    calculus's axiom order; `variety_of` instead holds the domain it is
    given, with the join's ascending index tuples (`maximal_selections`),
    one per maximal position.  The calculi are made from the derived
    axioms when `components` is first read.  Every operation below reads
    the domain and the selections alone, so it never asks which kind of
    variety it has: a component has `len(domain.axioms)` axioms more than
    its selection, and two components share an axiom exactly when the
    domain has axioms or their selections intersect.
    """

    def __init__(
        self,
        components: Sequence[Calculus],
        signature: Signature,
        labels: Optional[Sequence[Label]] = None,
    ) -> None:
        axioms = tuple(calculus.axioms for calculus in components)
        if not axioms:
            raise ValueError("a variety needs at least one component")
        labels = tuple(labels) if labels is not None else (None,) * len(axioms)
        if len(labels) != len(axioms):
            raise ValueError("one label entry per component required")
        domain = DomainOfRules(
            (), dict.fromkeys(f for a in axioms for f in a), signature
        )
        index = {f: i for i, f in enumerate(domain.hypotheses)}
        selections = tuple(tuple(index[f] for f in a) for a in axioms)
        self._hold(domain, selections, labels)

    def _hold(
        self,
        domain: DomainOfRules,
        selections: tuple[tuple[int, ...], ...],
        labels: tuple[Label, ...],
    ) -> "Variety":
        """Keep each component as an ordered selection of hypotheses."""
        self._domain = domain
        self._selections = selections
        self.signature = domain.signature
        self.labels = labels
        return self

    @cached_property
    def components(self) -> tuple[Calculus, ...]:
        """The calculi, made from the components' axioms on first read."""
        made = map(self.renamed_axioms, range(len(self)))
        return tuple(Calculus(axioms, self.signature) for axioms in made)

    def __len__(self) -> int:
        return len(self._selections)

    def renamed_axioms(self, i: int) -> tuple[Formula, ...]:
        """Component i's axioms, in the shared language.

        They are the domain's axioms, then the hypotheses its selection lists.
        """
        domain = self._domain
        selected = (domain.hypotheses[k] for k in self._selections[i])
        return domain.axioms + tuple(selected)


def variety_of(domain: DomainOfRules) -> Variety:
    """The variety whose components close the domain's maximal positions.

    One component per maximal position, in the positions' order; component
    axioms are the position's formulas (shared axioms included), no labels.
    The variety holds the domain itself, with the ascending index tuples of
    `maximal_selections`, which list each position's formulas in order; no
    `Position` is built.
    """
    selections = tuple(maximal_selections(domain))
    return Variety.__new__(Variety)._hold(
        domain, selections, (None,) * len(selections)
    )


def upper_level(v: Variety, probe: Iterable[Formula]) -> tuple[Formula, ...]:
    """Probe formulas that are theorems of at least one component.

    Labels never matter here: theorems are decided on plain formulas.  The
    result keeps the probe's order, making aggregation deterministic.  Each
    formula is asked of the components in turn, so the domain searches once
    per distinct part of their selections in the islands it touches, within
    the domain's own decision budget.
    """
    domain = v._domain
    return tuple(
        phi for phi in ProbeUniverse(probe).formulas
        if any(domain.selection_entails(s, phi) for s in v._selections)
    )


def _overlaps(v: Variety) -> Iterator[bool]:
    """Whether each pair of components shares a label-qualified axiom."""
    labels, chosen = v.labels, [frozenset(s) for s in v._selections]
    shared = bool(v._domain.axioms)
    for i, j in itertools.combinations(range(len(v)), 2):
        yield labels[i] == labels[j] and (
            shared or not chosen[i].isdisjoint(chosen[j])
        )


def is_discrete(v: Variety) -> bool:
    """Whether the label-qualified component axiom sets are pairwise disjoint."""
    return not any(_overlaps(v))


def is_connected(v: Variety) -> bool:
    """Whether every pair of components shares an axiom.

    Components share one when their labels are equal and they share the
    domain's axioms or a selected hypothesis, so a discretized variety with
    several components is never connected.  A single-component variety is
    vacuously connected.
    """
    return all(_overlaps(v))


def is_compatible(v: Variety, subset: Iterable[int]) -> bool:
    """Whether the selected components fit into one consistent calculus.

    Decided as consistency of the union of their (label-erased) axiom sets:
    a consistent union generates a consistent classical calculus containing
    every selected component, and an inconsistent union embeds in none.
    The domain asks it within its own decision budget.
    """
    indices = tuple(subset)
    if not indices:
        raise ValueError("empty component subset")
    if len(set(indices)) != len(indices):
        raise ValueError(f"repeated component index in {indices}")
    for i in indices:
        if not 0 <= i < len(v):
            raise IndexError(f"component index out of range: {i}")
    union = frozenset().union(*(v._selections[i] for i in indices))
    return v._domain.consistent(union)


def discretize(v: Variety) -> Variety:
    """The same components kept apart by per-component labels.

    The result is discrete by construction, and since labels are erased at
    every observation point (upper levels, compatibility, depth checks),
    those verdicts are unchanged.  It holds the same domain and selections.
    """
    return Variety.__new__(Variety)._hold(
        v._domain, v._selections, tuple(range(len(v)))
    )


class DepthCheckResult(Record):
    """Outcome of check_variety_depth; falsy when a subset fails.

    On failure, `failing_components` is the first bad k-subset in index
    order and `counterexample` the first probe formula the candidate
    calculus cannot reach.
    """

    holds: bool
    failing_components: Optional[tuple[int, ...]] = None
    counterexample: Optional[Formula] = None

    def __bool__(self) -> bool:
        return self.holds


def check_variety_depth(
    v: Variety, k: int, probe: Iterable[Formula]
) -> DepthCheckResult:
    """Verify that k-wise component intersections are calculus-generated.

    For every k-subset of components, either the axiom-set intersection and
    the probed theorem-set intersection are both empty, or the calculus
    generated by the axiom-set intersection entails every probe formula the
    components' theorem sets share.  Labels are erased throughout.

    A subset that shares no probed theorem has nothing to check, whatever
    its axiom intersection (the domain's axioms plus the intersection of
    its selections).  Each probe formula is asked of every component, and
    then the walk visits, in index order, only the k-subsets of the
    components that hold it, before the next formula is asked; the domain
    searches once per distinct part of a selection in the formula's
    islands, within its own decision budget.
    """
    n = len(v)
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    domain, selections = v._domain, [frozenset(s) for s in v._selections]
    failure: Optional[tuple[tuple[int, ...], Formula]] = None
    for phi in ProbeUniverse(probe).formulas:
        holding = [
            i for i, s in enumerate(selections)
            if domain.selection_entails(s, phi)
        ]
        for combo in itertools.combinations(holding, k):
            if failure is not None and combo >= failure[0]:
                break
            common = frozenset.intersection(*(selections[i] for i in combo))
            if not domain.selection_entails(common, phi):
                failure = (combo, phi)
                break
    if failure is None:
        return DepthCheckResult(True)
    return DepthCheckResult(False, *failure)


def witness_variety(n: int) -> Variety:
    """A connected n-component variety compatible in every proper part only.

    Component i holds {q, p_i, -(p_1 & ... & p_n)}.  Dropping any one
    component leaves the excluded p_j free to be false, so every
    (n-1)-subset is compatible; all n components together force every p_i
    true against the shared negation, so the whole family is not.  The
    certification leans on classical logic: compatibility is decided by
    classical consistency of the union.
    """
    if n < 2:
        raise ValueError(f"need at least 2 components, got {n}")
    signature = Signature()
    q = Atom("q")
    ps = [Atom(f"p{i}") for i in range(1, n + 1)]
    veto = Not(reduce(And, ps))
    components = [Calculus((q, p, veto), signature) for p in ps]
    return Variety(components, signature)


# ---------------------------------------------------------------------------
# Partition graphs
# ---------------------------------------------------------------------------


class PartitionNode(Record):
    index: int
    formulas: tuple[Formula, ...]
    atoms: tuple[Atom, ...]


def _atom_key(atom: Atom) -> tuple:
    return (atom.predicate, atom.args)


def partition_graph(formulas: Sequence[Formula]) -> tuple[PartitionNode, ...]:
    """Partition formulas into groups connected through shared atoms.

    Two formulas land in the same group exactly when a chain of formulas,
    each sharing an atom with the next, links them; repeated formulas count
    once.  No two groups share an atom, so the groups of a domain's axioms
    and hypotheses are its islands.  Groups come in the order of their first
    formula, each listing its formulas in the given order and its atoms by
    predicate, then arguments.
    """
    ordered = tuple(dict.fromkeys(formulas))
    atom_sets = [atoms_of(f) for f in ordered]
    nodes = []
    for index, group in enumerate(atom_groups(atom_sets)):
        atoms = set().union(*(atom_sets[i] for i in group))
        nodes.append(PartitionNode(
            index,
            tuple(ordered[i] for i in group),
            tuple(sorted(atoms, key=_atom_key)),
        ))
    return tuple(nodes)


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def partition_dot(nodes: Sequence[PartitionNode]) -> str:
    """Graphviz source with one node per partition, labeled by its formulas.

    A label lists its partition's formulas one per line: each formula is
    escaped for a DOT string on its own, and DOT's `\\n` joins them.
    Partitions share no atom, so the graph has no edges.
    """
    lines = ["graph partitions {"]
    for node in nodes:
        label = "\\n".join(_dot_escape(print_formula(f)) for f in node.formulas)
        lines.append(f'  n{node.index} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def overlap_dot(v: Variety) -> str:
    """Graphviz source for the component overlap graph of a variety.

    Nodes are components; an edge appears where two components' (plain)
    axiom sets intersect, labeled with the intersection size.
    """
    selections = [frozenset(s) for s in v._selections]
    shared_axioms = len(v._domain.axioms)
    lines = ["graph components {"]
    for i, selection in enumerate(selections):
        size = shared_axioms + len(selection)
        lines.append(f'  c{i} [label="component {i} ({size} axioms)"];')
    for i, j in itertools.combinations(range(len(v)), 2):
        shared = shared_axioms + len(selections[i] & selections[j])
        if shared:
            lines.append(f'  c{i} -- c{j} [label="{shared}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
