"""Calculi, varieties of components, and their structural algebra.

A calculus is a finite axiom set; its theorems are never materialized,
membership being decided by classical entailment on demand.  A variety
indexes several calculi as components, optionally renaming each component's
symbols into the shared language, and the operations here ask structural
questions about the family: whether components overlap (connectedness),
whether they fit inside one consistent calculus together (compatibility),
and what changes when components are kept apart by labeling
(discretization).

Every such question is a consistency or entailment question about the
components' axiom sets, so a variety is held as one domain of rules and,
per component, a selection of that domain's hypotheses: the component's
axioms are the domain's axioms plus the selected hypotheses.  The variety
of a domain is that domain itself, with the selections of its maximal
positions, so nothing is built, registered or translated a second time.  A
variety given as a list of calculi gets an axiom-free domain whose
hypotheses are the distinct component formulas.  Upper levels,
compatibility and depth are asked of the domain, island by island, with its
consistency memo, its memo of the latest conclusion's refutations, and one
decision budget per question.

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

import copy
import itertools
from contextlib import contextmanager
from functools import reduce
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .engine import DomainOfRules, maximal_positions
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
    is_ground,
    print_formula,
)

Label = Optional[Hashable]


class Calculus:
    """A finite axiom set of classical propositional logic and its lazy
    theorem set.

    Theorem membership is `theorem_in`, decided by classical entailment.
    Construction leaves the signature alone: a variety holding the calculus
    checks and registers the atoms of its (renamed) axioms there.  Equality
    compares the axiom sets, ignoring the signature, so structurally equal
    calculi over the same language compare equal no matter where they were
    built.
    """

    def __init__(self, axioms: Iterable[Formula], signature: Signature) -> None:
        self.axioms = tuple(dict.fromkeys(axioms))
        for f in self.axioms:
            if not is_ground(f):
                raise ValueError(
                    f"calculus axiom contains variables: {print_formula(f)}"
                )
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


def theorem_in(
    c: Calculus, phi: Formula, max_decisions: Optional[int] = None
) -> bool:
    """Whether phi belongs to the calculus's theorem set."""
    return bool(upper_level(Variety([c], c.signature), [phi], max_decisions))


class RenamingMap:
    """A bijective renaming of predicate and constant names.

    Applying the map atom-wise turns formulas over the source names into
    formulas over the target names; names the map does not cover raise
    IncompleteRenaming on use.  Arity preservation is enforced where the
    renamed atoms are declared, since the target signature knows both
    arities.
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

    @classmethod
    def identity(cls, signature: Signature) -> "RenamingMap":
        return cls(
            {name: name for name, _ in signature.predicates},
            {name: name for name in signature.constants},
        )

    def inverse(self) -> "RenamingMap":
        return RenamingMap(
            {new: old for old, new in self.predicates.items()},
            {new: old for old, new in self.constants.items()},
        )

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
        if isinstance(formula, Atom):
            return self.rename_atom(formula)
        if isinstance(formula, Not):
            return Not(self.rename_formula(formula.operand))
        return type(formula)(
            self.rename_formula(formula.left),
            self.rename_formula(formula.right),
        )


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
        unique = tuple(dict.fromkeys(formulas))
        for f in unique:
            if not is_ground(f):
                raise ValueError(f"probe formula not ground: {print_formula(f)}")
        self.formulas = unique

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


Probe = Union[ProbeUniverse, Sequence[Formula]]


def _probe_formulas(probe: Probe) -> tuple[Formula, ...]:
    if isinstance(probe, ProbeUniverse):
        return probe.formulas
    return ProbeUniverse(probe).formulas


class Variety:
    """An indexed family of calculi amalgamated into one language.

    Each component may carry a renaming map (None means inclusion: the
    component's formulas are already in the shared language) and an optional
    discretization label.  Renamed axiom tuples are computed eagerly, so an
    incomplete renaming fails at construction time, not at first query.

    A variety is one domain of rules plus, per component, a selection of
    its hypotheses: component i's axioms are the domain's axioms and the
    hypotheses selected by `_selections[i]`.  Built from calculi, the
    domain is axiom-free and its hypotheses are the distinct renamed
    formulas, in first-occurrence order; `variety_of` instead holds the
    domain it is given, with its positions' selections, and makes the
    calculi only when `components` is first read.  Every operation below
    reads the domain and the selections alone, so it never asks which kind
    of variety it has: a component has `len(domain.axioms)` axioms more
    than its selection, and two components share an axiom exactly when the
    domain has axioms or their selections intersect.
    """

    def __init__(
        self,
        components: Sequence[Calculus],
        signature: Signature,
        maps: Optional[Sequence[Optional[RenamingMap]]] = None,
        labels: Optional[Sequence[Label]] = None,
    ) -> None:
        components = tuple(components)
        if not components:
            raise ValueError("a variety needs at least one component")
        n = len(components)
        maps = tuple(maps) if maps is not None else (None,) * n
        labels = tuple(labels) if labels is not None else (None,) * n
        if len(maps) != n:
            raise ValueError("one renaming map entry per component required")
        if len(labels) != n:
            raise ValueError("one label entry per component required")
        renamed = tuple(
            calculus.axioms if mapping is None
            else tuple(mapping.rename_formula(f) for f in calculus.axioms)
            for calculus, mapping in zip(components, maps)
        )
        domain = DomainOfRules(
            (), dict.fromkeys(f for r in renamed for f in r), signature
        )
        index = {f: i for i, f in enumerate(domain.hypotheses)}
        selections = tuple(frozenset(index[f] for f in r) for r in renamed)
        self._hold(domain, selections, renamed, maps, labels, components)

    def _hold(
        self,
        domain: DomainOfRules,
        selections: tuple[frozenset[int], ...],
        renamed: tuple[tuple[Formula, ...], ...],
        maps: tuple[Optional[RenamingMap], ...],
        labels: tuple[Label, ...],
        components: Optional[tuple[Calculus, ...]],
    ) -> "Variety":
        """Keep the components as selections of the domain's hypotheses.

        `components` may be None only when every map is an inclusion, so
        that the renamed axioms are the calculi's own.
        """
        self._domain = domain
        self._selections = selections
        self._renamed = renamed
        self._components = components
        self.signature = domain.signature
        self.maps = maps
        self.labels = labels
        return self

    @property
    def components(self) -> tuple[Calculus, ...]:
        """The calculi, made from the renamed axioms if not given."""
        if self._components is None:
            self._components = tuple(
                Calculus(axioms, self.signature) for axioms in self._renamed
            )
        return self._components

    def __len__(self) -> int:
        return len(self._selections)

    def renamed_axioms(self, i: int) -> tuple[Formula, ...]:
        """Component i's axioms, carried into the shared language."""
        return self._renamed[i]

    def check_indices(self, subset: Iterable[int]) -> tuple[int, ...]:
        indices = tuple(subset)
        if not indices:
            raise ValueError("empty component subset")
        if len(set(indices)) != len(indices):
            raise ValueError(f"repeated component index in {indices}")
        for i in indices:
            if not 0 <= i < len(self):
                raise IndexError(f"component index out of range: {i}")
        return indices

    @contextmanager
    def _asking(self, max_decisions: Optional[int]) -> Iterator[DomainOfRules]:
        """The variety's domain, spending max_decisions on each question.

        The domain may be the caller's own, so its budget is put back
        afterwards, also when a question runs out of it.
        """
        domain = self._domain
        kept = domain.max_decisions
        domain.max_decisions = max_decisions
        try:
            yield domain
        finally:
            domain.max_decisions = kept


def variety_of(domain: DomainOfRules) -> Variety:
    """The variety whose components close the domain's maximal positions.

    One component per maximal position, in the positions' order; component
    axioms are the position's formulas (shared axioms included), inclusion
    maps, no labels.  The variety holds the domain itself, with the
    positions' selections.
    """
    positions = maximal_positions(domain)
    unset = (None,) * len(positions)
    return Variety.__new__(Variety)._hold(
        domain,
        tuple(position.chosen for position in positions),
        tuple(position.formulas for position in positions),
        maps=unset,
        labels=unset,
        components=None,
    )


def upper_level(
    v: Variety, probe: Probe, max_decisions: Optional[int] = None
) -> tuple[Formula, ...]:
    """Probe formulas that are theorems of at least one component.

    Labels never matter here: theorems are decided on plain formulas.  The
    result keeps the probe's order, making aggregation deterministic.  Each
    formula is asked of the components in turn, so the domain searches once
    per distinct part of their selections in the islands it touches.
    """
    with v._asking(max_decisions) as domain:
        return tuple(
            phi for phi in _probe_formulas(probe)
            if any(domain.selection_entails(s, phi) for s in v._selections)
        )


def _overlaps(v: Variety) -> Iterator[bool]:
    """Whether each pair of components shares a label-qualified axiom."""
    labels, chosen = v.labels, v._selections
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


def is_compatible(
    v: Variety,
    subset: Iterable[int],
    max_decisions: Optional[int] = None,
) -> bool:
    """Whether the selected components fit into one consistent calculus.

    Decided as consistency of the union of their (label-erased) axiom sets:
    a consistent union generates a consistent classical calculus containing
    every selected component, and an inconsistent union embeds in none.
    """
    indices = v.check_indices(subset)
    union = frozenset().union(*(v._selections[i] for i in indices))
    with v._asking(max_decisions) as domain:
        return domain.consistent(union)


def discretize(v: Variety) -> Variety:
    """The same components kept apart by per-component labels.

    The result is discrete by construction, and since labels are erased at
    every observation point (upper levels, compatibility, depth checks),
    those verdicts are unchanged.  It holds the same domain and selections.
    """
    discrete = copy.copy(v)
    discrete.labels = tuple(range(len(v)))
    return discrete


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
    v: Variety,
    k: int,
    probe: Probe,
    max_decisions: Optional[int] = None,
) -> DepthCheckResult:
    """Verify that k-wise component intersections are calculus-generated.

    For every k-subset of components, either the axiom-set intersection and
    the probed theorem-set intersection are both empty, or the calculus
    generated by the axiom-set intersection entails every probe formula the
    components' theorem sets share.  Labels are erased throughout.

    A subset that shares no probed theorem has nothing to check, whatever
    its axiom intersection (the domain's axioms plus the intersection of
    its selections).  Each probe formula is asked of every component and
    then of every k-subset sharing it before the next formula is asked, so
    the domain searches once per distinct part of a selection in the
    formula's islands.
    """
    n = len(v)
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    selections = v._selections
    failure: Optional[tuple[tuple[int, ...], Formula]] = None
    with v._asking(max_decisions) as domain:
        for phi in _probe_formulas(probe):
            holding = {
                i for i, s in enumerate(selections)
                if domain.selection_entails(s, phi)
            }
            for combo in itertools.combinations(range(n), k):
                if failure is not None and combo >= failure[0]:
                    break
                if not holding.issuperset(combo):
                    continue
                common = frozenset.intersection(
                    *(selections[i] for i in combo)
                )
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


class PartitionEdge(Record):
    left: int
    right: int
    shared: tuple[Atom, ...]


class PartitionGraph(Record):
    nodes: tuple[PartitionNode, ...]
    edges: tuple[PartitionEdge, ...]


def _atom_key(atom: Atom) -> tuple:
    return (atom.predicate, atom.args)


def _node(index: int, formulas: Sequence[Formula]) -> PartitionNode:
    atoms: set[Atom] = set()
    for f in formulas:
        atoms |= atoms_of(f)
    return PartitionNode(
        index, tuple(formulas), tuple(sorted(atoms, key=_atom_key))
    )


def partition_graph(
    formulas: Sequence[Formula] = (),
    groups: Optional[Sequence[Sequence[Formula]]] = None,
) -> PartitionGraph:
    """Partition formulas by atom co-occurrence, or relate given groups.

    With no pre-grouping, formulas land in the same partition exactly when
    they are connected through shared atoms; partitions become nodes and the
    edge set is empty by construction.  With a pre-grouping, each group is a
    node and edges link groups sharing at least one atom, labeled by the
    shared atoms.
    """
    if groups is not None:
        nodes = [
            _node(i, tuple(dict.fromkeys(group)))
            for i, group in enumerate(groups)
        ]
        edges = []
        for i, j in itertools.combinations(range(len(nodes)), 2):
            shared = set(nodes[i].atoms) & set(nodes[j].atoms)
            if shared:
                edges.append(
                    PartitionEdge(i, j, tuple(sorted(shared, key=_atom_key)))
                )
        return PartitionGraph(tuple(nodes), tuple(edges))

    ordered = tuple(dict.fromkeys(formulas))
    nodes = [
        _node(index, [ordered[i] for i in group])
        for index, group in enumerate(
            atom_groups([atoms_of(f) for f in ordered])
        )
    ]
    return PartitionGraph(tuple(nodes), ())


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def partition_dot(graph: PartitionGraph) -> str:
    """Graphviz source for a partition graph, deterministically ordered."""
    lines = ["graph partitions {"]
    for node in graph.nodes:
        label = "\\n".join(print_formula(f) for f in node.formulas)
        lines.append(f'  n{node.index} [label="{_dot_escape(label)}"];')
    for edge in graph.edges:
        label = ", ".join(str(a) for a in edge.shared)
        lines.append(
            f'  n{edge.left} -- n{edge.right} [label="{_dot_escape(label)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def overlap_dot(v: Variety) -> str:
    """Graphviz source for the component overlap graph of a variety.

    Nodes are components; an edge appears where two components' (plain)
    axiom sets intersect, labeled with the intersection size.
    """
    selections = v._selections
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
