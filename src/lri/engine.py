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

Hypothesis selections are represented as frozen sets of indices into the
domain's hypothesis list, and listed as ascending index tuples, so equality
of positions is equality of selections, and minimality is measured over
selections, never over the shared axioms.

Every question is answered per island: a group of axioms and hypotheses
that shares no atom with the rest of the domain.  A selection is consistent
exactly when its part in each island is, so maximal positions are products
of per-island maximal selections, and a conclusion depends only on the
islands whose atoms it mentions.  Likewise contexts are chosen per group of
queries whose justifications share an island.  Every such product is one
`_join`: the unions of one member of each part, as sorted tuples, in sorted
order.  It lists the positions, the parts a conclusion's witness is sought
among and the contexts.  The number of positions alone is `position_count`,
the product of the islands' counts, which lists nothing.

Maximal positions and justifications are two calls of one subset sweep,
`_sweep`: an island's maximal selections are swept largest first, a
conclusion's justifications smallest first, and either way a selection that
contains, or lies inside, an accepted one is never asked about.  A
conclusion is walked once, when the domain first asks it (`_ask`); the
islands it touches are then read by every step of the question.

Every answer is a selection, an ascending index tuple: `maximal_selections`,
`witness_selection`, `justifying_selections`, and `context_selections`,
whose contexts are tuples of (query index, selection) pairs.  The command
line lists these tuples.  Records are library API, made only at its edge:
`maximal_positions`, `reasonably_infers`, `justifications` and
`maximal_consistent_contexts` wrap the tuples, which the engine has proved,
with `_proved` and `Context` without asking the domain again.

Every search is built by one method, `DomainOfRules._problem`, and run by
another, `_search`: a `sat.solve` over the domain's one clause store that
assumes the top literals of the rules (and the negated conclusion) a
question needs, so only the clauses those literals reach take part.  The
problem over every island and every hypothesis is the one `check --dimacs`
lists.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from . import formula as syntax, sat
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
    distinct_ground,
    print_formula,
    require_ground,
)

# Context extraction enumerates justification choices per query formula, which
# grows exponentially with the query count; refuse silly sizes outright.
MAX_CONTEXT_QUERIES = 12


class _Island:
    """Axioms and hypotheses sharing atoms only among themselves.

    `axiom_tops` are the axioms' top literals; `hypotheses` holds
    domain-wide hypothesis indices, ascending; `maximal` caches the island's
    maximal consistent selections once swept, sorted by index tuple.  Until
    then `consistency` memoizes the answers that point questions' searches
    gave, by the selection's part in the island.  The sweep reads it but
    adds nothing, since it asks no part twice, and empties it at the end,
    since `maximal` answers every part.
    """

    def __init__(self, axiom_tops, hypotheses) -> None:
        self.axiom_tops: tuple[int, ...] = axiom_tops
        self.hypotheses: tuple[int, ...] = hypotheses
        self.maximal: Optional[tuple[frozenset[int], ...]] = None
        self.consistency: dict[frozenset[int], bool] = {}


class DomainOfRules:
    """A consistent axiom set plus an indexed list of hypotheses.

    Axioms are deduplicated preserving order; hypotheses must be duplicate
    free and disjoint from the axioms, since a hypothesis that is also an
    axiom would make selections ambiguous.  All formulas must be ground.
    Without a signature, the domain makes a fresh one.
    Construction verifies axiom consistency and fails with
    InconsistentAxioms otherwise.

    Construction walks each rule once, left first, in the order the rules
    were stated: the walk numbers the atoms, checks those the signature did
    not make, and lists each rule's variables, which `atom_groups` splits
    into islands, groups of rules connected through shared atoms.  One
    clausifier holds the rules' clauses in a persistent store, and every
    search assumes the top literals of the axioms and selected hypotheses of
    the islands its question touches, so only their definitions take part.
    The decisions of one question are summed over its searches against
    `max_decisions`.  Each island answers consistency from its maximal
    selections once swept, and from a memo of its searches before, because
    the position and context machinery revisits the same selections many
    times; entailment is memoized for the latest conclusion only (see
    `selection_entails`).  Every conclusion is checked to be ground when
    first asked (`_ask`).
    """

    def __init__(
        self,
        axioms: Iterable[Formula],
        hypotheses: Iterable[Formula],
        signature: Optional[Signature] = None,
        max_decisions: Optional[int] = None,
    ) -> None:
        self.axioms = distinct_ground(axioms, "axiom")

        hyp_list = list(hypotheses)
        axiom_set = set(self.axioms)
        seen: set[Formula] = set()
        for formula in hyp_list:
            require_ground(formula, "hypothesis")
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
        # Both tuples are fixed, so the hash is taken once.
        self._hash = hash((self.axioms, self.hypotheses))

        if signature is None:
            signature = Signature()
        self.signature = signature
        self.max_decisions = max_decisions
        rules = self.axioms + self.hypotheses
        # One walk per rule, in the order the rules were stated and left
        # first, numbers the atoms before any definition, so the solver
        # branches in that order.  It checks each new atom against the
        # signature and lists the variables of the rule's atoms, which
        # `atom_groups` groups into islands, as `lri partition` groups the
        # rules by their atoms.  `first_rule[v - 1]` is the first rule of
        # atom v.
        self._builder = builder = CnfBuilder()
        rule_vars: list[list[int]] = []
        first_rule: list[int] = []
        for i, rule in enumerate(rules):
            new, variables = builder.number_atoms(syntax.walk(rule))
            signature.check_atoms(new)
            first_rule += [i] * len(new)
            rule_vars.append(variables)
        tops = [builder.add(f) for f in rules]
        first_hyp = len(self.axioms)
        self._hyp_tops = tuple(tops[first_hyp:])
        self._rules_only = builder.mark()
        self._asked: Optional[Formula] = None
        self._touched: frozenset[int] = frozenset()
        self._countered: dict[frozenset[int], bool] = {}

        island_of_rule = [0] * len(rules)
        self._islands: list[_Island] = []
        for number, group in enumerate(atom_groups(rule_vars)):
            self._islands.append(_Island(
                tuple(tops[i] for i in group if i < first_hyp),
                tuple(i - first_hyp for i in group if i >= first_hyp),
            ))
            for i in group:
                island_of_rule[i] = number
        self._island_of_hyp = island_of_rule[first_hyp:]
        self._island_of_atom: dict[Atom, int] = {
            atom: island_of_rule[i]
            for atom, i in zip(builder.store.names, first_rule)
        }

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
        return self._hash

    def __repr__(self) -> str:
        return (
            f"DomainOfRules({len(self.axioms)} axioms, "
            f"{len(self.hypotheses)} hypotheses)"
        )

    def _parts_consistent(
        self, chosen: Iterable[int], skipped: frozenset[int] = frozenset()
    ) -> bool:
        """Whether each island's part of the selection fits its axioms.

        Islands in `skipped` are not asked; the others are, in island order.
        """
        parts: dict[int, set[int]] = {}
        for i in chosen:
            number = self._island_of_hyp[i]
            if number not in skipped:
                parts.setdefault(number, set()).add(i)
        return all(
            self._island_consistent(number, frozenset(parts[number]))
            for number in sorted(parts)
        )

    def _question(self) -> None:
        """Start a question: its searches share one decision budget.

        A question (is this selection consistent, does it entail that
        formula) may need one search per island it touches; together they
        get the budget one search over the whole domain would have had.
        """
        self._builder.store.spent = 0

    def _problem(
        self, islands: Iterable[int], part: Iterable[int], *extra: int
    ) -> sat.Problem:
        """The search over the islands' axioms, the hypotheses in part and extra.

        It assumes the top literals of the islands' axioms, island by island
        in the order given, then of the hypotheses in part, ascending, then
        the extra literals.  Every search of the domain is built here.
        """
        tops = [top for n in islands for top in self._islands[n].axiom_tops]
        tops += [self._hyp_tops[i] for i in sorted(part)]
        tops += extra
        return self._builder.problem(tops)

    def _search(self, problem: sat.Problem) -> bool:
        """Whether the problem is satisfiable, under the domain's budget.

        Nothing assumed (an island without axioms, asked of no hypotheses)
        is satisfiable without a search.
        """
        return not problem.assumptions or sat.solve(
            problem, self.max_decisions
        ).satisfiable

    def _island_consistent(self, number: int, part: frozenset[int]) -> bool:
        """Whether the island's axioms and the hypotheses in part are satisfiable.

        A swept island answers from its maximal selections; before that a
        search answers once and the memo keeps its answer.
        """
        island = self._islands[number]
        if island.maximal is not None:
            return any(map(part.issubset, island.maximal))
        known = island.consistency.get(part)
        if known is None:
            known = self._search(self._problem([number], part))
            island.consistency[part] = known
        return known

    def _island_maximal(self, number: int) -> tuple[frozenset[int], ...]:
        """The island's maximal consistent selections, swept once.

        The subset sweep tries selections largest first, so a consistent one
        is maximal unless an accepted one contains it, and then it is never
        asked; each consistency check is its own question.  The sweep never
        asks a selection twice, so it reads the island's memo but adds
        nothing to it, and empties it once the sweep ends.  The selections
        are kept sorted by index tuple.
        """
        island = self._islands[number]
        if island.maximal is None:

            def fits(selection: frozenset[int]) -> bool:
                self._question()
                known = island.consistency.get(selection)
                if known is None:
                    return self._search(self._problem([number], selection))
                return known

            sizes = range(len(island.hypotheses), -1, -1)
            swept = _sweep(island.hypotheses, sizes, fits)
            island.maximal = tuple(sorted(swept, key=sorted))
            island.consistency.clear()
        return island.maximal

    def consistent(self, chosen: frozenset[int]) -> bool:
        """Whether axioms plus this hypothesis selection are satisfiable.

        Only the islands the selection touches are asked; the axioms of every
        island were found consistent at construction.
        """
        self._question()
        return self._parts_consistent(chosen)

    def _ask(self, conclusion: Formula) -> frozenset[int]:
        """Make conclusion the latest one asked; the islands sharing its atoms.

        Only a conclusion other than the latest replaces the remembered
        state (see `selection_entails`), so each is walked, and checked to
        be ground, once.
        """
        if conclusion != self._asked:
            require_ground(conclusion, "conclusion")
            self._builder.rollback(self._rules_only)
            self._countered.clear()
            self._touched = frozenset(
                self._island_of_atom[atom]
                for atom in atoms_of(conclusion)
                if atom in self._island_of_atom
            )
            self._asked = conclusion
        return self._touched

    def selection_entails(
        self, chosen: Collection[int], conclusion: Formula
    ) -> bool:
        """Whether axioms plus the selection classically entail conclusion.

        One search refutes the negated conclusion over the islands sharing
        its atoms, so its outcome depends only on the selection's part in
        those islands.  When that search finds a counter-model, the rest of
        the selection, which shares no atom with it, entails the conclusion
        only by being inconsistent.

        The domain remembers the latest conclusion asked only: the islands
        it touches, the clausifier's definitions of it as the top layer of
        the clause store, and whether each refutation found a counter-model,
        kept by the part it depended on.  Asking another conclusion replaces
        all three, so a long-lived domain keeps its size, while asking the
        same conclusion of many selections, or asking it again, walks it
        once and searches once per distinct part.
        """
        self._question()
        touched = self._ask(conclusion)
        inside = frozenset(
            i for i in chosen if self._island_of_hyp[i] in touched
        )
        countered = self._countered.get(inside)
        if countered is None:
            problem = self._problem(
                sorted(touched), inside, -self._builder.add(conclusion)
            )
            countered = self._countered[inside] = self._search(problem)
        return not countered or not self._parts_consistent(chosen, touched)


class Position(Record):
    """A consistent hypothesis selection within a domain of rules.

    Construction checks the indices and asks the domain whether the
    selection is consistent, so no inconsistent Position can exist.  The
    positions the domain's own enumeration has proved consistent are wrapped
    by `_proved`, which does not ask again.
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
        """Axioms plus the selected hypotheses, in stated order."""
        hypotheses = self.domain.hypotheses
        return self.domain.axioms + tuple(
            hypotheses[i] for i in sorted(self.chosen)
        )

    def entails(self, conclusion: Formula) -> bool:
        return self.domain.selection_entails(self.chosen, conclusion)


class Justification(Record):
    """A minimal position entailing a particular conclusion.

    Minimality: no proper subset of the chosen hypothesis indices still
    entails the conclusion.  The constructor verifies entailment; minimality
    is the producer's obligation (see `justifications`, whose answers are
    proved by its sweep and wrapped by `_proved`).
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


def _proved(cls, *fields):
    """A record of an answer the domain has proved, made without checks."""
    record = object.__new__(cls)
    Record.__init__(record, *fields)
    return record


def _justified(domain, conclusion, chosen) -> Justification:
    """A justification the domain has proved, as records made without checks."""
    position = _proved(Position, domain, frozenset(chosen))
    return _proved(Justification, conclusion, position)


# ---------------------------------------------------------------------------
# Positions and reasonable inference
# ---------------------------------------------------------------------------


new_domain = DomainOfRules  # the library's name for building a domain


def _sweep(
    items: Sequence[int],
    sizes: Iterable[int],
    accept: Callable[[frozenset[int]], bool],
) -> tuple[frozenset[int], ...]:
    """The subsets of items that accept takes, in the order they were tried.

    Subsets are tried by the given sizes, then by index tuple; one that
    contains, or lies inside, an accepted subset is skipped unasked.  Sizes
    largest first give maximal selections, smallest first minimal ones.
    """
    accepted: list[frozenset[int]] = []
    for size in sizes:
        for combo in itertools.combinations(items, size):
            selection = frozenset(combo)
            if not any(
                selection <= taken or taken <= selection for taken in accepted
            ) and accept(selection):
                accepted.append(selection)
    return tuple(accepted)


def _join(parts: Iterable[Iterable[Collection]]) -> list[tuple]:
    """The unions of one member of each part, each a sorted tuple, sorted.

    This is the engine's one product of per-part answers: the positions
    join the islands' maximal selections, a witness is sought among the
    joined parts of the islands a conclusion touches, and the contexts join
    the groups' kept choices.
    """
    return sorted(
        tuple(sorted(itertools.chain(*members)))
        for members in itertools.product(*parts)
    )


def _every_island(domain: DomainOfRules) -> Iterator[tuple[frozenset, ...]]:
    """Each island's maximal selections, in island order, swept as read."""
    return map(domain._island_maximal, range(len(domain._islands)))


def maximal_selections(domain: DomainOfRules) -> list[tuple[int, ...]]:
    """The maximal positions' selections, as ascending index tuples, in order.

    A selection is maximal exactly when its part in every island is, so the
    selections are the join of the islands' maximal selections, sorted by
    index tuple.  Each island caches its selections, and every call joins
    them again.  `lri positions` and `lri variety` print these tuples as
    they are; `maximal_positions` wraps them as records for the library.
    """
    return _join(_every_island(domain))


def position_count(domain: DomainOfRules) -> int:
    """How many maximal positions the domain has, without listing them.

    It is the product of the islands' counts of maximal selections.
    """
    return math.prod(map(len, _every_island(domain)))


def maximal_positions(domain: DomainOfRules) -> list[Position]:
    """All positions whose selection no consistent selection properly extends.

    They are `maximal_selections` as records, in its order: sorted by their
    index tuples in ascending order.  Nothing the domain holds refers back
    to them, so they are freed by reference counting.  This is library API:
    the command line lists `maximal_selections` and builds no record.
    """
    return [
        _proved(Position, domain, frozenset(chosen))
        for chosen in maximal_selections(domain)
    ]


def witness_selection(
    domain: DomainOfRules, conclusion: Formula
) -> Optional[tuple[int, ...]]:
    """The first maximal selection entailing the conclusion, or None.

    The selection is an ascending index tuple, the empty one when the
    axioms alone entail the conclusion.  A conclusion entailed by any
    consistent selection is also entailed by every maximal extension of it,
    so checking maximal selections suffices, and whether one entails it
    depends only on its part in the islands the conclusion touches.  Each
    island's maximal selections form an antichain, so changing one island's
    part while the rest stay fixed orders selections as it orders the parts.
    The first entailing selection therefore joins the first entailing part
    of the join over the touched islands with the first maximal selection of
    every other island, whose other selections are never joined.
    """
    touched = domain._ask(conclusion)
    parts = _join(map(domain._island_maximal, sorted(touched)))
    part = next((p for p in parts if domain.selection_entails(p, conclusion)), None)
    if part is None:
        return None
    rest = (
        maximal[0] for number, maximal in enumerate(_every_island(domain))
        if number not in touched
    )
    return tuple(sorted(itertools.chain(part, *rest)))


def reasonably_infers(domain: DomainOfRules, conclusion: Formula) -> Optional[Position]:
    """First maximal position entailing the conclusion, or None.

    It is `witness_selection` as a record.  This is library API: `lri
    infer` lists `witness_selection` and builds no record.
    """
    chosen = witness_selection(domain, conclusion)
    return None if chosen is None else _proved(Position, domain, frozenset(chosen))


def in_reasonable_theory(domain: DomainOfRules, conclusion: Formula) -> bool:
    """Whether some position of the domain classically entails the conclusion.

    It asks `witness_selection` and builds no record.
    """
    return witness_selection(domain, conclusion) is not None


def justifying_selections(
    domain: DomainOfRules, conclusion: Formula
) -> list[tuple[int, ...]]:
    """The minimal selections entailing the conclusion, by (size, tuple).

    Each is an ascending index tuple; the empty one alone answers a
    conclusion the axioms entail.  A consistent selection entails the
    conclusion exactly when its part in the islands sharing the
    conclusion's atoms does, so the subset sweep runs over only those
    islands' hypotheses, smallest first and by index tuple.  It skips a
    selection that extends an already-found justification (not minimal); a
    selection that fits inside no maximal selection of its islands
    (inconsistent) is answered from the swept islands without a search.
    Survivors get one entailment check each.
    """
    touched = sorted(domain._ask(conclusion))
    for number in touched:
        domain._island_maximal(number)
    candidates = sorted(
        i for number in touched for i in domain._islands[number].hypotheses
    )
    found = _sweep(
        candidates,
        range(len(candidates) + 1),
        lambda selection: domain.consistent(selection)
        and domain.selection_entails(selection, conclusion),
    )
    return [tuple(sorted(chosen)) for chosen in found]


def justifications(domain: DomainOfRules, conclusion: Formula) -> list[Justification]:
    """All minimal positions entailing the conclusion.

    They are `justifying_selections` as records, in its order.  This is
    library API: `lri justify` and `lri infer` list `justifying_selections`
    and build no record.
    """
    found = justifying_selections(domain, conclusion)
    return [_justified(domain, conclusion, chosen) for chosen in found]


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------


def is_consistent_context(context: Context) -> bool:
    """Whether the union of the context's selections is itself consistent.

    An empty context is vacuously consistent.  All justifications must come
    from the same domain of rules; otherwise MixedDomains is raised.
    """
    domains = {j.position.domain for _, j in context.pairs}
    if len(domains) > 1:
        raise MixedDomains(
            "context mixes justifications from different domains of rules"
        )
    union = frozenset().union(*(j.position.chosen for _, j in context.pairs))
    return not domains or domains.pop().consistent(union)


def context_selections(
    domain: DomainOfRules, queries: Sequence[Formula]
) -> list[tuple[tuple[int, tuple[int, ...]], ...]]:
    """Largest consistent ways to justify the query formulas together.

    Each context is a tuple of (query index, selection) pairs, by query
    index, where the selection is one of the query's `justifying_selections`.
    Each query is either covered by one of its justifications or left out;
    a combination is a candidate when the union of its selections is
    consistent, and kept when no left-out query could be covered by any of
    its justifications without breaking consistency.  Queries with no
    justification at all (not reasonably inferable) are simply never covered.

    Queries whose justifications share an island form a group (a query
    with none, or only the empty one, stands alone).  A union is consistent
    exactly when each island's part is, and covering a left-out query
    changes only its own group's islands, so the combinations are tried
    within each group only, and the contexts are the `_join` of the groups'
    kept combinations, whose members are `(query, slot, selection)`
    triples.

    The result order is that of one product over all queries: for each
    query in input order, covering justifications in their
    `justifying_selections` order before leaving the query out.
    """
    query_list = list(queries)
    for q in query_list:
        require_ground(q, "query")
    if len(set(query_list)) != len(query_list):
        raise ValueError("duplicate query formulas")
    if len(query_list) > MAX_CONTEXT_QUERIES:
        raise ValueError(
            f"too many query formulas (limit {MAX_CONTEXT_QUERIES})"
        )

    # Slot c of query k covers it by its c-th justification, or leaves it
    # out when it is the last slot, None.
    slots = [justifying_selections(domain, q) + [None] for q in query_list]
    kept = []
    for group in atom_groups([
        {domain._island_of_hyp[i] for s in ss[:-1] for i in s} for ss in slots
    ]):
        kept.append([])
        for choice in itertools.product(*(range(len(slots[k])) for k in group)):
            picked = [(k, c, slots[k][c]) for k, c in zip(group, choice)]
            union = frozenset().union(
                *(s for _, _, s in picked if s is not None)
            )
            if domain.consistent(union) and not any(
                domain.consistent(union.union(alt))
                for k, _, s in picked if s is None
                for alt in slots[k][:-1]
            ):
                kept[-1].append(picked)
    # A joined choice lists every query once, in input order, so the joined
    # choices sort by their slots.
    return [
        tuple((k, s) for k, _, s in choice if s is not None)
        for choice in _join(kept)
    ]


def maximal_consistent_contexts(
    domain: DomainOfRules, queries: Sequence[Formula]
) -> list[Context]:
    """Largest consistent ways to justify the query formulas together.

    They are `context_selections` as records, in its order, each pair a
    query and its justification.  This is library API: `lri context` lists
    `context_selections` and builds no record.
    """
    query_list = list(queries)
    return [
        Context(frozenset(
            (query_list[k], _justified(domain, query_list[k], chosen))
            for k, chosen in pairs
        ))
        for pairs in context_selections(domain, query_list)
    ]


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
