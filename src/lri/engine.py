"""Reasoning over rule bases that need not be consistent as a whole.

A domain of rules pairs a consistent set of axioms (formulas every line of
reasoning must respect) with an indexed list of hypotheses (defeasible rules
that may be adopted or left aside).  A position adopts a consistent selection
of hypotheses; a conclusion is reasonably inferable when at least one
position classically entails it.  Because each inference is carried by a
consistent position, an inconsistent rule base never licenses arbitrary
conclusions: the explosion of classical logic stays confined to selections
nobody can consistently hold.

Justifications pin each conclusion to minimal support: positions entailing
the conclusion whose hypothesis selection has no entailing proper subset.
Contexts combine conclusions drawn simultaneously and are consistent only
when their justifications can be adopted together, which is how reasoning
tracks that two individually reasonable conclusions may rest on mutually
exclusive readings of the rules.

Hypothesis selections are represented throughout as frozen sets of indices
into the domain's hypothesis list, so equality of positions is equality of
selections, and minimality is measured over selections, never over the
shared axioms.

Every question is answered per island: a group of axioms and hypotheses
that shares no atom with the rest of the domain.  A selection is consistent
exactly when its part in each island is, so maximal positions are products
of per-island maximal selections, and a conclusion depends only on the
islands whose atoms it mentions.

Every search is a `sat.solve` over the domain's one clause store: it assumes
the top literals of the rules (and the negated conclusion) a question needs,
and only the clauses those literals reach take part.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from . import sat
from .cnf import CnfBuilder
from .errors import (
    AxiomHypothesisOverlap,
    DuplicateHypothesis,
    InconsistentAxioms,
    MixedDomains,
)
from .formula import (
    Atom,
    Formula,
    Record,
    Signature,
    atom_groups,
    atoms_of,
    is_ground,
    print_formula,
)

# Context extraction enumerates justification choices per query formula, which
# grows exponentially with the query count; refuse silly sizes outright.
MAX_CONTEXT_QUERIES = 12


class _Island:
    """Axioms and hypotheses sharing atoms only among themselves.

    `axiom_tops` are the axioms' top literals; `hypotheses` holds
    domain-wide hypothesis indices, ascending; `maximal` caches the island's
    maximal consistent selections once swept.
    """

    def __init__(self, axiom_tops, hypotheses) -> None:
        self.axiom_tops: tuple[int, ...] = axiom_tops
        self.hypotheses: tuple[int, ...] = hypotheses
        self.maximal: Optional[tuple[frozenset[int], ...]] = None


class DomainOfRules:
    """A consistent axiom set plus an indexed list of hypotheses.

    Axioms are deduplicated preserving order; hypotheses must be duplicate
    free and disjoint from the axioms, since a hypothesis that is also an
    axiom would make selections ambiguous.  All formulas must be ground.
    Construction verifies axiom consistency and fails with
    InconsistentAxioms otherwise.

    Construction also splits the rules into islands, groups connected
    through shared atoms.  One clausifier holds the rules' clauses in a
    persistent store, and every search assumes the top literals of the
    axioms and selected hypotheses of the islands its question touches, so
    only their definitions take part.  The decisions of one question are
    summed over its searches against `max_decisions`.  Consistency is
    memoized per island and selection within the island, because the
    position and context machinery revisits the same selections many times;
    entailment is memoized for the latest conclusion only (see
    `selection_entails`).
    """

    def __init__(
        self,
        axioms: Iterable[Formula],
        hypotheses: Iterable[Formula],
        signature: Signature,
        max_decisions: Optional[int] = None,
    ) -> None:
        self.axioms: tuple[Formula, ...] = tuple(dict.fromkeys(axioms))
        for formula in self.axioms:
            _require_ground(formula, "axiom")

        hyp_list = list(hypotheses)
        axiom_set = set(self.axioms)
        seen: set[Formula] = set()
        for formula in hyp_list:
            _require_ground(formula, "hypothesis")
            if formula in seen:
                raise DuplicateHypothesis(
                    f"hypothesis repeated: {print_formula(formula)}"
                )
            seen.add(formula)
            if formula in axiom_set:
                raise AxiomHypothesisOverlap(
                    f"formula is both axiom and hypothesis: "
                    f"{print_formula(formula)}"
                )
        self.hypotheses: tuple[Formula, ...] = tuple(hyp_list)

        self.signature = signature
        self.max_decisions = max_decisions
        rules = self.axioms + self.hypotheses
        # Register atoms in rule order so registry indices, and with them the
        # solver's branching order, follow the order rules were stated in.
        rule_atoms = [signature.register_formula(f) for f in rules]
        self._builder = CnfBuilder(signature)
        tops = [self._builder.add(f) for f in rules]
        first_hyp = len(self.axioms)
        self._hyp_tops = tuple(tops[first_hyp:])
        self._rules_only = self._builder.mark()
        self._asked: Optional[Formula] = None
        self._countered: dict[frozenset[int], bool] = {}

        self._islands: list[_Island] = []
        self._island_of_hyp = [0] * len(self.hypotheses)
        self._island_of_atom: dict[Atom, int] = {}
        for number, group in enumerate(atom_groups(rule_atoms)):
            members = tuple(i - first_hyp for i in group if i >= first_hyp)
            self._islands.append(_Island(
                tuple(tops[i] for i in group if i < first_hyp), members
            ))
            for i in members:
                self._island_of_hyp[i] = number
            for i in group:
                self._island_of_atom.update(
                    dict.fromkeys(rule_atoms[i], number)
                )

        self._consistency: dict[tuple[int, frozenset[int]], bool] = {}
        self._maximal: Optional[tuple["Position", ...]] = None
        self._question()
        for number in range(len(self._islands)):
            if not self._island_consistent(number, frozenset()):
                raise InconsistentAxioms("the axioms are jointly unsatisfiable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DomainOfRules):
            return NotImplemented
        return (
            self.axioms == other.axioms
            and self.hypotheses == other.hypotheses
        )

    def __hash__(self) -> int:
        return hash((self.axioms, self.hypotheses))

    def __repr__(self) -> str:
        return (
            f"DomainOfRules({len(self.axioms)} axioms, "
            f"{len(self.hypotheses)} hypotheses)"
        )

    def selection_formulas(self, chosen: frozenset[int]) -> tuple[Formula, ...]:
        """Axioms plus the selected hypotheses, in stated order."""
        return self.axioms + tuple(
            self.hypotheses[i] for i in sorted(chosen)
        )

    def _parts(self, chosen: frozenset[int]) -> dict[int, frozenset[int]]:
        """The selection split by island, for the islands it touches."""
        parts: dict[int, set[int]] = {}
        for i in chosen:
            parts.setdefault(self._island_of_hyp[i], set()).add(i)
        return {number: frozenset(parts[number]) for number in sorted(parts)}

    def _islands_of(self, formula: Formula) -> frozenset[int]:
        """Islands sharing an atom with the formula."""
        return frozenset(
            self._island_of_atom[atom]
            for atom in atoms_of(formula)
            if atom in self._island_of_atom
        )

    def _question(self) -> None:
        """Start a question: its searches share one decision budget.

        A question (is this selection consistent, does it entail that
        formula) may need one search per island it touches; together they
        get the budget one search over the whole domain would have had.
        """
        self._builder.store.spent = 0

    def _satisfiable(self, tops: list[int]) -> bool:
        """Whether the top literals are satisfiable together."""
        problem = self._builder.problem(tops)
        return sat.solve(problem, self.max_decisions).satisfiable

    def _island_consistent(self, number: int, part: frozenset[int]) -> bool:
        """Whether the island's axioms and the hypotheses in part are satisfiable.

        Nothing asserted (an island without axioms, asked of no hypotheses)
        is satisfiable without a search.
        """
        key = (number, part)
        known = self._consistency.get(key)
        if known is None:
            island = self._islands[number]
            if island.maximal is not None:
                known = any(part <= m for m in island.maximal)
            else:
                tops = list(island.axiom_tops)
                tops += [self._hyp_tops[i] for i in sorted(part)]
                known = not tops or self._satisfiable(tops)
            self._consistency[key] = known
        return known

    def _island_maximal(self, number: int) -> tuple[frozenset[int], ...]:
        """The island's maximal consistent selections, swept once.

        Selections are tried largest first so that every accepted one prunes
        its subsets; each consistency check is its own question.
        """
        island = self._islands[number]
        if island.maximal is None:
            accepted: list[frozenset[int]] = []
            for size in range(len(island.hypotheses), -1, -1):
                for combo in itertools.combinations(island.hypotheses, size):
                    selection = frozenset(combo)
                    if any(selection <= bigger for bigger in accepted):
                        continue
                    self._question()
                    if self._island_consistent(number, selection):
                        accepted.append(selection)
            island.maximal = tuple(accepted)
        return island.maximal

    def consistent(self, chosen: frozenset[int]) -> bool:
        """Whether axioms plus this hypothesis selection are satisfiable.

        Only the islands the selection touches are asked; the axioms of every
        island were found consistent at construction.
        """
        self._question()
        return all(
            self._island_consistent(number, part)
            for number, part in self._parts(chosen).items()
        )

    def selection_entails(
        self, chosen: frozenset[int], conclusion: Formula
    ) -> bool:
        """Whether axioms plus the selection classically entail conclusion.

        One search refutes the negated conclusion over the islands sharing
        its atoms, so its outcome depends only on the selection's part in
        those islands.  When that search finds a counter-model, the rest of
        the selection, which shares no atom with it, entails the conclusion
        only by being inconsistent.

        The domain remembers the latest conclusion asked only: the
        clausifier keeps its definitions as the top layer of the clause
        store, and whether each refutation found a counter-model is kept by
        the part it depended on.  Asking another conclusion drops both, so a long-lived
        domain keeps its size, while asking the same conclusion of many
        selections, or asking it again, searches once per distinct part.
        """
        self._question()
        if conclusion != self._asked:
            self._builder.rollback(self._rules_only)
            self._countered.clear()
            self._asked = conclusion
        touched = self._islands_of(conclusion)
        inside = frozenset(
            i for i in chosen if self._island_of_hyp[i] in touched
        )
        countered = self._countered.get(inside)
        if countered is None:
            tops = [
                top for number in sorted(touched)
                for top in self._islands[number].axiom_tops
            ]
            tops += [self._hyp_tops[i] for i in sorted(inside)]
            tops.append(-self._builder.add(conclusion))
            countered = self._countered[inside] = self._satisfiable(tops)
        if not countered:
            return True
        return not all(
            self._island_consistent(number, part)
            for number, part in self._parts(chosen).items()
            if number not in touched
        )


def _require_ground(formula: Formula, role: str) -> None:
    if not is_ground(formula):
        raise ValueError(
            f"{role} contains variables: {print_formula(formula)}; "
            "ground it over the constant domain first"
        )


class Position(Record):
    """A consistent hypothesis selection within a domain of rules.

    Construction re-checks consistency (a cache hit when the selection came
    out of the domain's own enumeration), so no inconsistent Position can
    exist.
    """

    domain: DomainOfRules
    chosen: frozenset[int]

    def __init__(self, domain: DomainOfRules, chosen: frozenset[int]) -> None:
        super().__init__(domain, chosen)
        for i in chosen:
            if not 0 <= i < len(domain.hypotheses):
                raise IndexError(f"hypothesis index out of range: {i}")
        if not domain.consistent(chosen):
            raise ValueError(
                f"selection is inconsistent with the axioms: {sorted(chosen)}"
            )

    @property
    def formulas(self) -> tuple[Formula, ...]:
        return self.domain.selection_formulas(self.chosen)

    def entails(self, conclusion: Formula) -> bool:
        _require_ground(conclusion, "conclusion")
        return self.domain.selection_entails(self.chosen, conclusion)


class Justification(Record):
    """A minimal position entailing a particular conclusion.

    Minimality: no proper subset of the chosen hypothesis indices still
    entails the conclusion.  The constructor verifies entailment; minimality
    is the producer's obligation (see `justifications`).
    """

    conclusion: Formula
    position: Position

    def __init__(self, conclusion: Formula, position: Position) -> None:
        super().__init__(conclusion, position)
        if not position.entails(conclusion):
            raise ValueError(
                f"position does not entail the conclusion: {print_formula(conclusion)}"
            )


class Context(Record):
    """Conclusions drawn together, each carried by a justification."""

    pairs: frozenset[tuple[Formula, Justification]]


# ---------------------------------------------------------------------------
# Positions and reasonable inference
# ---------------------------------------------------------------------------


def new_domain(
    axioms: Iterable[Formula],
    hypotheses: Iterable[Formula],
    signature: Optional[Signature] = None,
    max_decisions: Optional[int] = None,
) -> DomainOfRules:
    """Build a domain of rules, creating a fresh signature when none is given."""
    if signature is None:
        signature = Signature()
    return DomainOfRules(axioms, hypotheses, signature, max_decisions)


def _index_tuple(selection: frozenset[int]) -> tuple[int, ...]:
    return tuple(sorted(selection))


def _joined(
    domain: DomainOfRules, numbers: Iterable[int]
) -> list[frozenset[int]]:
    """Unions of one maximal selection per listed island, by index tuple."""
    return sorted(
        (
            frozenset().union(*parts)
            for parts in itertools.product(
                *(domain._island_maximal(number) for number in numbers)
            )
        ),
        key=_index_tuple,
    )


def maximal_positions(domain: DomainOfRules) -> list[Position]:
    """All positions whose selection no consistent selection properly extends.

    A selection is maximal exactly when its part in every island is, so the
    positions are the products of the islands' maximal selections.  They are
    returned sorted by their index tuples in ascending order and cached on
    the domain.
    """
    if domain._maximal is None:
        domain._maximal = tuple(
            Position(domain, selection)
            for selection in _joined(domain, range(len(domain._islands)))
        )
    return list(domain._maximal)


def reasonably_infers(
    domain: DomainOfRules, conclusion: Formula
) -> Optional[Position]:
    """First maximal position entailing the conclusion, or None.

    A conclusion entailed by any consistent selection is also entailed by
    every maximal extension of it, so checking maximal positions suffices,
    and whether one entails it depends only on its part in the islands the
    conclusion touches.  Each island's maximal selections form an antichain,
    so changing one island's part while the rest stay fixed orders positions
    as it orders the parts.  The first entailing position therefore joins
    the first entailing part over the touched islands with the first
    maximal selection of every other island, and no other position is built.
    """
    _require_ground(conclusion, "conclusion")
    touched = domain._islands_of(conclusion)
    part = next(
        (
            candidate
            for candidate in _joined(domain, sorted(touched))
            if domain.selection_entails(candidate, conclusion)
        ),
        None,
    )
    if part is None:
        return None
    rest = (
        min(domain._island_maximal(number), key=_index_tuple)
        for number in range(len(domain._islands))
        if number not in touched
    )
    return Position(domain, part.union(*rest))


def in_reasonable_theory(domain: DomainOfRules, conclusion: Formula) -> bool:
    """Whether some position of the domain classically entails the conclusion."""
    return reasonably_infers(domain, conclusion) is not None


def justifications(
    domain: DomainOfRules, conclusion: Formula
) -> list[Justification]:
    """All minimal positions entailing the conclusion.

    A consistent selection entails the conclusion exactly when its part in
    the islands sharing the conclusion's atoms does, so only those islands'
    hypotheses are enumerated, smallest first and by index tuple.  A
    selection is skipped when it extends an already-found justification
    (not minimal) or fits inside no maximal selection of its islands
    (inconsistent).  Survivors get one entailment check each.
    """
    _require_ground(conclusion, "conclusion")
    touched = sorted(domain._islands_of(conclusion))
    for number in touched:
        domain._island_maximal(number)
    candidates = sorted(
        i for number in touched for i in domain._islands[number].hypotheses
    )
    found: list[frozenset[int]] = []
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            selection = frozenset(combo)
            if any(small <= selection for small in found):
                continue
            if not domain.consistent(selection):
                continue
            if domain.selection_entails(selection, conclusion):
                found.append(selection)
    return [
        Justification(conclusion, Position(domain, selection))
        for selection in found
    ]


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------


def _context_domain(context: Context) -> Optional[DomainOfRules]:
    domains = []
    for _, justification in context.pairs:
        domain = justification.position.domain
        if not any(domain == d for d in domains):
            domains.append(domain)
    if len(domains) > 1:
        raise MixedDomains(
            "context mixes justifications from different domains of rules"
        )
    return domains[0] if domains else None


def is_consistent_context(context: Context) -> bool:
    """Whether the union of the context's selections is itself consistent.

    An empty context is vacuously consistent.  All justifications must come
    from the same domain of rules; otherwise MixedDomains is raised.
    """
    domain = _context_domain(context)
    if domain is None:
        return True
    union = frozenset().union(
        *(j.position.chosen for _, j in context.pairs)
    )
    return domain.consistent(union)


def maximal_consistent_contexts(
    domain: DomainOfRules, queries: Sequence[Formula]
) -> list[Context]:
    """Largest consistent ways to justify the query formulas together.

    Each query is either covered by one of its justifications or left out;
    a combination is a candidate when the union of its selections is
    consistent, and kept when no left-out query could be covered by any of
    its justifications without breaking consistency.  Queries with no
    justification at all (not reasonably inferable) are simply never covered.

    The result order follows the enumeration: for each query in input order,
    covering justifications in their `justifications` order before leaving
    the query out.
    """
    query_list = list(queries)
    for q in query_list:
        _require_ground(q, "query")
    if len(set(query_list)) != len(query_list):
        raise ValueError("duplicate query formulas")
    if len(query_list) > MAX_CONTEXT_QUERIES:
        raise ValueError(
            f"too many query formulas (limit {MAX_CONTEXT_QUERIES})"
        )

    options = [justifications(domain, q) for q in query_list]

    def union_of(choice: tuple[int, ...]) -> frozenset[int]:
        parts = [
            options[i][j].position.chosen
            for i, j in enumerate(choice)
            if j < len(options[i])
        ]
        return frozenset().union(*parts) if parts else frozenset()

    contexts: list[Context] = []
    # Choice i == len(options[i]) means query i is left uncovered.
    for choice in itertools.product(
        *(range(len(opts) + 1) for opts in options)
    ):
        union = union_of(choice)
        if not domain.consistent(union):
            continue
        maximal = True
        for i, j in enumerate(choice):
            if j < len(options[i]):
                continue
            for alternative in options[i]:
                extended = union | alternative.position.chosen
                if domain.consistent(extended):
                    maximal = False
                    break
            if not maximal:
                break
        if maximal:
            pairs = frozenset(
                (query_list[i], options[i][j])
                for i, j in enumerate(choice)
                if j < len(options[i])
            )
            contexts.append(Context(pairs))
    return contexts


# ---------------------------------------------------------------------------
# Conflict cores
# ---------------------------------------------------------------------------


def minimal_inconsistent_subset(
    formulas: Sequence[Formula],
    signature: Signature,
    max_decisions: Optional[int] = None,
) -> list[Formula]:
    """Shrink an inconsistent list to a subset-minimal inconsistent core.

    Deletion based: drop each member in turn and keep the removal whenever
    the rest stays inconsistent.  Which core comes out depends on input
    order, which is deterministic, not on any global minimality criterion.
    The distinct formulas are the hypotheses of one axiom-free domain, and
    each list position stands for its formula's index there, so a repeated
    formula is dropped like any other member.
    """
    distinct = tuple(dict.fromkeys(formulas))
    domain = DomainOfRules((), distinct, signature, max_decisions)
    index = {f: i for i, f in enumerate(distinct)}
    core = [index[f] for f in formulas]
    if domain.consistent(frozenset(core)):
        raise ValueError("formulas are consistent; there is no core to find")
    i = 0
    while i < len(core):
        candidate = core[:i] + core[i + 1 :]
        if not domain.consistent(frozenset(candidate)):
            core = candidate
        else:
            i += 1
    return [distinct[j] for j in core]
