"""Satisfiability core: deterministic backtracking search.

`solve` is the one search entry point.  It decides a `Problem`: a set of
assumption literals over a persistent `ClauseStore`, with the clauses of
the store those assumptions activate.  Every consistency and entailment
question in the package is asked of a domain of rules
(`engine.DomainOfRules`), whose clausifier keeps one store: each
definition's clauses go in once, and a search activates only the
definitions its assumptions reach.

The search order is pinned down so that results are reproducible: branch
on the unassigned variable with the lowest number, try False before True,
and propagate unit clauses exhaustively between decisions, reading each
active clause a literal falsifies rather than keeping counts.  The
assumptions are propagated before the first decision, as unit clauses would
be.  There is deliberately no pure-literal rule and no learned-clause
machinery; at the problem sizes this package targets, a predictable search
beats a clever one.

Every assignment attempt at a branch point counts as one decision against a
budget (10 million by default); exceeding the budget raises ResourceLimit
rather than returning a wrong answer.  A store sums the decisions of its
searches in `spent`, so a question asked in several searches shares one
budget.

The package holds no second procedure to check `solve` against: the
truth-table reference, and a plain form of the search, live with the tests,
in `tests/bruteforce.py`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import ResourceLimit
from .formula import Record

DEFAULT_MAX_DECISIONS = 10_000_000


class SatResult(Record):
    """Outcome of a satisfiability search.

    `decisions` counts branch attempts and is purely diagnostic.
    """

    satisfiable: bool
    decisions: int

    def __init__(self, satisfiable, decisions) -> None:
        object.__setattr__(self, "satisfiable", satisfiable)
        object.__setattr__(self, "decisions", decisions)


class ClauseStore:
    """Clauses kept across searches, with their occurrence lists.

    Clauses are literal tuples numbered in the order they were added, and
    `truncate` cuts off the latest ones, so a store grows and shrinks as a
    stack of layers.  `names` holds the name of each variable, variable v
    at `names[v - 1]`; the clause builder that fills the store numbers the
    variables and keeps the list.  `spent` sums the decisions of the
    searches over the store since it was last set to zero, for a budget
    shared between them.
    """

    def __init__(self) -> None:
        self.clauses: list[tuple[int, ...]] = []
        self.occurrences: dict[int, list[int]] = {}
        self.names: list[object] = []
        self.spent = 0

    def add(self, clause: Iterable[int]) -> int:
        """Store a clause and return its number; an empty one is refused."""
        literals = tuple(clause)
        if not literals:
            raise ValueError("an empty clause cannot be stored")
        number = len(self.clauses)
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

    `active` is the set of the numbers of the store's clauses this search
    takes into account; the search asks it of every clause a falsified
    literal occurs in.  `clauses` lists them with one unit clause per
    assumption, as one sorted clause set, and is built only when asked.
    """

    def __init__(self, store, assumptions, active) -> None:
        self.store: ClauseStore = store
        self.assumptions: tuple[int, ...] = assumptions
        self.active: set[int] = active

    @property
    def clauses(self) -> tuple[frozenset[int], ...]:
        """Sorted by size, then literal tuple, so equal problems list equally."""
        found = {frozenset((lit,)) for lit in self.assumptions}
        found.update(frozenset(self.store.clauses[n]) for n in self.active)
        return tuple(sorted(found, key=lambda c: (len(c), sorted(c))))


def solve(problem: Problem, max_decisions: Optional[int] = None) -> SatResult:
    cap = DEFAULT_MAX_DECISIONS if max_decisions is None else int(max_decisions)
    satisfiable, decisions, _ = _search(problem, cap)
    return SatResult(satisfiable, decisions)


def _search(problem: Problem, cap: int) -> tuple[bool, int, dict[int, bool]]:
    """(satisfiable, decisions, assignment) for the problem.

    The assignment leaves out atoms the search did not touch; they are
    False.  The decisions are added to the store's `spent`, and the budget
    counts from there.  The search keeps no per-clause state, only the
    assignment and its trail: a clause is read whenever one of its literals
    turns false, backtracking pops the trail, and the search ends once no
    active clause is left without a true literal.  Most searches propagate
    a handful of clauses, so the search sets up no more than it must:
    propagation walks a list as its queue, a decision is counted where it
    is made, and the model is checked clause by clause against the
    assignment.  `reference_search` in `tests/bruteforce.py` is the same
    search written plainly, with a counter per clause.
    """
    store = problem.store
    clauses = store.clauses
    occurrences = store.occurrences
    active = problem.active
    spent = store.spent
    value: dict[int, bool] = {}
    get = value.get
    trail: list[int] = []
    decisions = 0
    variables: list[int] = []

    def propagate(queue: list[int]) -> bool:
        """Assign queued literals and their unit consequences, in FIFO order.

        Each active clause a new literal falsifies is read: it holds a true
        literal, or its one unassigned literal is appended to the list being
        walked, or it is a conflict and the answer is False.
        """
        for lit in queue:
            var = abs(lit)
            known = get(var)
            if known is not None:
                if known != (lit > 0):
                    return False
                continue
            value[var] = lit > 0
            trail.append(var)
            for n in occurrences.get(-lit, ()):
                if n not in active:
                    continue
                unit = 0
                for other in clauses[n]:
                    held = get(abs(other))
                    if held is None:
                        if unit:
                            break
                        unit = other
                    elif held == (other > 0):
                        break
                else:
                    if not unit:
                        return False
                    queue.append(unit)
        return True

    def undo(mark: int) -> None:
        for var in trail[mark:]:
            del value[var]
        del trail[mark:]

    def open_clause_left() -> bool:
        """Whether some active clause has no true literal yet."""
        for n in active:
            for lit in clauses[n]:
                if get(abs(lit)) == (lit > 0):
                    break
            else:
                return True
        return False

    satisfiable = propagate(list(problem.assumptions))
    # Decision frames: [variable, trail mark, already flipped to True].
    stack: list[list] = []
    while satisfiable and open_clause_left():
        if not variables:
            # Assumptions stay assigned, so only clause atoms can branch.
            variables = sorted({abs(c) for n in active for c in clauses[n]})
        branch_var = next((v for v in variables if v not in value), None)
        if branch_var is None:
            break
        stack.append([branch_var, len(trail), False])
        lit = -branch_var
        while True:
            decisions += 1
            if spent + decisions > cap:
                raise ResourceLimit(
                    f"satisfiability search exceeded {cap} decisions"
                )
            if propagate([lit]):
                break
            while stack and stack[-1][2]:
                undo(stack.pop()[1])
            if not stack:
                satisfiable = False
                break
            frame = stack[-1]
            undo(frame[1])
            frame[2] = True
            lit = frame[0]

    store.spent = spent + decisions
    if satisfiable:
        for lit in problem.assumptions:
            if get(abs(lit), False) != (lit > 0):
                raise RuntimeError("internal error: model fails verification")
        for n in active:
            for lit in clauses[n]:
                if get(abs(lit), False) == (lit > 0):
                    break
            else:
                raise RuntimeError("internal error: model fails verification")
    return satisfiable, decisions, value
