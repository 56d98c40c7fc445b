"""Satisfiability core: deterministic backtracking search.

`solve` is the one search entry point.  It decides either a `Problem`, a set
of assumption literals over a persistent `ClauseStore`, or a one-shot clause
set (`cnf.ClauseSet`, as `check --dimacs` lists it), which is searched as a
store holding all of its clauses.  Every consistency and entailment question
in the package is asked of a domain of rules (`engine.DomainOfRules`), whose
clausifier keeps one store: each definition's clauses go in once, and a
search activates only the definitions its assumptions reach.

The search order is pinned down so that results, including reported models,
are reproducible: branch on the unassigned atom with the lowest registry
index, try False before True, and propagate unit clauses exhaustively
between decisions.  Assumptions act exactly as unit clauses would, so a
search under assumptions makes the same decisions as a one-shot search of
the clause set it activates.  There is deliberately no pure-literal rule and
no learned-clause machinery; at the problem sizes this package targets, a
predictable search beats a clever one.

Every assignment attempt at a branch point counts as one decision against a
budget (10 million by default); exceeding the budget raises ResourceLimit
rather than returning a wrong answer.  A store sums the decisions of its
searches in `spent`, so a question asked in several searches shares one
budget.

The package holds no second procedure to check `solve` against: the
truth-table reference lives with the tests, in `tests/bruteforce.py`.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Optional, Union

from .errors import ResourceLimit
from .formula import Atom, Record

if TYPE_CHECKING:
    from .cnf import ClauseSet

DEFAULT_MAX_DECISIONS = 10_000_000


class SatResult(Record):
    """Outcome of a satisfiability search.

    `model` is None when unsatisfiable, and also for a `Problem`, whose
    store keeps no atoms to report.  A satisfiable one-shot clause set gets
    a total assignment over its non-auxiliary atoms (atoms the search never
    touched default to False).  `decisions` counts branch attempts and is
    purely diagnostic.
    """

    satisfiable: bool
    model: Optional[Mapping[Atom, bool]]
    decisions: int

    def __init__(self, satisfiable, model, decisions) -> None:
        object.__setattr__(self, "satisfiable", satisfiable)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "decisions", decisions)


class ClauseStore:
    """Clauses kept across searches, with their occurrence lists.

    Clauses are literal tuples numbered in the order they were added, and
    `truncate` cuts off the latest ones, so a store grows and shrinks as a
    stack of layers.  `spent` sums the decisions of the searches over the
    store since it was last set to zero, for a budget shared between them.
    """

    def __init__(self) -> None:
        self.clauses: list[tuple[int, ...]] = []
        self.occurrences: dict[int, list[int]] = {}
        self.spent = 0

    def add(self, clause: Iterable[int]) -> int:
        """Store a clause and return its number."""
        number = len(self.clauses)
        literals = tuple(clause)
        self.clauses.append(literals)
        for lit in literals:
            self.occurrences.setdefault(lit, []).append(number)
        return number

    def truncate(self, size: int) -> None:
        """Forget every clause numbered size or above."""
        occurrences = self.occurrences
        while len(self.clauses) > size:
            for lit in self.clauses.pop():
                numbers = occurrences[lit]
                numbers.pop()
                if not numbers:
                    del occurrences[lit]


class Problem:
    """Assumption literals over a store, with the clauses they activate.

    `active` numbers the store's clauses this search takes into account;
    `clauses` lists them with one unit clause per assumption, as one sorted
    clause set, and is built only when asked.
    """

    def __init__(self, store, assumptions, active) -> None:
        self.store: ClauseStore = store
        self.assumptions: tuple[int, ...] = assumptions
        self.active: Collection[int] = active

    @property
    def clauses(self) -> tuple[frozenset[int], ...]:
        """Sorted by size, then literal tuple, so equal problems list equally."""
        found = {frozenset((lit,)) for lit in self.assumptions}
        found.update(frozenset(self.store.clauses[n]) for n in self.active)
        return tuple(sorted(found, key=lambda c: (len(c), sorted(c))))


def solve(
    problem: Union[Problem, "ClauseSet"], max_decisions: Optional[int] = None
) -> SatResult:
    cap = DEFAULT_MAX_DECISIONS if max_decisions is None else int(max_decisions)
    if isinstance(problem, Problem):
        satisfiable, decisions, _ = _search(problem, cap)
        return SatResult(satisfiable, None, decisions)
    clause_set = problem
    if any(not c for c in clause_set.clauses):
        return SatResult(False, None, 0)
    store = ClauseStore()
    units = []
    for clause in clause_set.clauses:
        if len(clause) == 1:
            units.extend(clause)
        else:
            store.add(clause)
    satisfiable, decisions, value = _search(
        Problem(store, tuple(units), range(len(store.clauses))), cap
    )
    if not satisfiable:
        return SatResult(False, None, decisions)
    model = {
        clause_set.atoms[var]: value.get(var, False)
        for var in sorted(clause_set.atoms)
        if var not in clause_set.aux
    }
    return SatResult(True, model, decisions)


def _search(problem: Problem, cap: int) -> tuple[bool, int, dict[int, bool]]:
    """(satisfiable, decisions, assignment) for the problem.

    The assignment leaves out atoms the search did not touch; they are
    False.  The decisions are added to the store's `spent`, and the budget
    counts from there.
    """
    store = problem.store
    clauses = store.clauses
    occurrences = store.occurrences
    active = problem.active
    unassigned = {n: len(clauses[n]) for n in active}
    satisfied = dict.fromkeys(active, 0)
    target = len(unassigned)
    spent = store.spent
    value: dict[int, bool] = {}
    trail: list[int] = []
    covered = 0  # active clauses with at least one true literal
    decisions = 0
    variables: list[int] = []

    def propagate(queue: deque[int]) -> bool:
        """Assign queued literals and all unit consequences.

        False on conflict.  A literal's clauses are all updated before the
        conflict is reported, so that `undo` can restore them.
        """
        nonlocal covered
        while queue:
            lit = queue.popleft()
            var = abs(lit)
            if var in value:
                if value[var] != (lit > 0):
                    return False
                continue
            value[var] = lit > 0
            trail.append(var)
            for n in occurrences.get(lit, ()):
                if n in satisfied:
                    unassigned[n] -= 1
                    if satisfied[n] == 0:
                        covered += 1
                    satisfied[n] += 1
            conflict = False
            for n in occurrences.get(-lit, ()):
                if n in satisfied:
                    unassigned[n] -= 1
                    if satisfied[n] or unassigned[n] > 1:
                        continue
                    if unassigned[n] == 0:
                        conflict = True
                    elif not conflict:
                        queue.append(
                            next(c for c in clauses[n] if abs(c) not in value)
                        )
            if conflict:
                return False
        return True

    def undo(mark: int) -> None:
        nonlocal covered
        while len(trail) > mark:
            var = trail.pop()
            was_true = value.pop(var)
            lit = var if was_true else -var
            for n in occurrences.get(lit, ()):
                if n in satisfied:
                    unassigned[n] += 1
                    satisfied[n] -= 1
                    if satisfied[n] == 0:
                        covered -= 1
            for n in occurrences.get(-lit, ()):
                if n in satisfied:
                    unassigned[n] += 1

    def decide(lit: int) -> bool:
        """Count one decision against the budget and propagate lit."""
        nonlocal decisions
        decisions += 1
        if spent + decisions > cap:
            raise ResourceLimit(
                f"satisfiability search exceeded {cap} decisions"
            )
        return propagate(deque([lit]))

    satisfiable = propagate(deque(problem.assumptions))
    # Decision frames: [variable, trail mark, already flipped to True].
    stack: list[list] = []
    while satisfiable and covered < target:
        if not variables:
            found = {abs(lit) for n in active for lit in clauses[n]}
            found.update(abs(lit) for lit in problem.assumptions)
            variables = sorted(found)
        branch_var = next((v for v in variables if v not in value), None)
        if branch_var is None:
            break
        stack.append([branch_var, len(trail), False])
        ok = decide(-branch_var)
        while not ok:
            while stack and stack[-1][2]:
                undo(stack[-1][1])
                stack.pop()
            if not stack:
                satisfiable = False
                break
            frame = stack[-1]
            undo(frame[1])
            frame[2] = True
            ok = decide(frame[0])

    store.spent = spent + decisions
    if satisfiable:
        true = {var if v else -var for var, v in value.items()}
        for clause in chain(
            (clauses[n] for n in active),
            ((lit,) for lit in problem.assumptions),
        ):
            if true.isdisjoint(clause) and not any(
                lit < 0 and -lit not in value for lit in clause
            ):
                raise RuntimeError("internal error: model fails verification")
    return satisfiable, decisions, value
