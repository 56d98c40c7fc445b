"""Satisfiability core: deterministic backtracking search.

`solve` is the raw clause-set entry point: it decides one clause set and
knows nothing of formulas.  Every consistency and entailment question in the
package is asked of a domain of rules (`engine.DomainOfRules`), which builds
the clause sets for the islands a question touches and is the only caller.

The search order is pinned down so that results, including reported models,
are reproducible: branch on the unassigned atom with the lowest registry
index, try False before True, and propagate unit clauses exhaustively
between decisions.  There is deliberately no
pure-literal rule and no learned-clause machinery; at the problem sizes this
package targets, a predictable search beats a clever one.

Every assignment attempt at a branch point counts as one decision against a
budget (10 million by default); exceeding the budget raises ResourceLimit
rather than returning a wrong answer.

The package holds no second procedure to check `solve` against: the
truth-table reference lives with the tests, in `tests/bruteforce.py`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional

from .cnf import ClauseSet
from .errors import ResourceLimit
from .formula import Atom

DEFAULT_MAX_DECISIONS = 10_000_000


@dataclass(frozen=True)
class SatResult:
    """Outcome of a satisfiability search.

    `model` is None exactly when unsatisfiable; otherwise it is a total
    assignment over the clause set's non-auxiliary atoms (atoms the search
    never touched default to False).  `decisions` counts branch attempts and
    is purely diagnostic.
    """

    satisfiable: bool
    model: Optional[Mapping[Atom, bool]]
    decisions: int


def solve(
    clause_set: ClauseSet, max_decisions: Optional[int] = None
) -> SatResult:
    cap = DEFAULT_MAX_DECISIONS if max_decisions is None else int(max_decisions)
    clauses = [tuple(c) for c in clause_set.clauses]
    if any(not c for c in clauses):
        return SatResult(False, None, 0)

    occurrences: dict[int, list[int]] = {}
    for ci, clause in enumerate(clauses):
        for lit in clause:
            occurrences.setdefault(lit, []).append(ci)

    variables = sorted({abs(lit) for c in clauses for lit in c})
    value: dict[int, bool] = {}
    unassigned_count = [len(c) for c in clauses]
    satisfied_count = [0] * len(clauses)
    covered = 0  # clauses with at least one true literal
    trail: list[int] = []
    decisions = 0

    def assign(lit: int) -> bool:
        """Record lit as true, updating counters.  False on conflict."""
        nonlocal covered
        var = abs(lit)
        value[var] = lit > 0
        trail.append(var)
        for ci in occurrences.get(lit, ()):
            unassigned_count[ci] -= 1
            if satisfied_count[ci] == 0:
                covered += 1
            satisfied_count[ci] += 1
        conflict = False
        for ci in occurrences.get(-lit, ()):
            unassigned_count[ci] -= 1
            if satisfied_count[ci] == 0 and unassigned_count[ci] == 0:
                conflict = True
        return not conflict

    def propagate(queue: deque[int]) -> bool:
        """Assign queued literals and all unit consequences."""
        while queue:
            lit = queue.popleft()
            var = abs(lit)
            if var in value:
                if value[var] != (lit > 0):
                    return False
                continue
            if not assign(lit):
                return False
            for ci in occurrences.get(-lit, ()):
                if satisfied_count[ci] == 0 and unassigned_count[ci] == 1:
                    for candidate in clauses[ci]:
                        if abs(candidate) not in value:
                            queue.append(candidate)
                            break
        return True

    def undo(mark: int) -> None:
        nonlocal covered
        while len(trail) > mark:
            var = trail.pop()
            was_true = value.pop(var)
            lit = var if was_true else -var
            for ci in occurrences.get(lit, ()):
                unassigned_count[ci] += 1
                satisfied_count[ci] -= 1
                if satisfied_count[ci] == 0:
                    covered -= 1
            for ci in occurrences.get(-lit, ()):
                unassigned_count[ci] += 1

    def finish() -> SatResult:
        assignment = {var: value.get(var, False) for var in variables}
        for clause in clauses:
            if not any(assignment[abs(l)] == (l > 0) for l in clause):
                raise RuntimeError("internal error: model fails verification")
        model = {
            clause_set.atoms[var]: assignment.get(var, False)
            for var in sorted(clause_set.atoms)
            if var not in clause_set.aux
        }
        return SatResult(True, model, decisions)

    if not propagate(deque(c[0] for c in clauses if len(c) == 1)):
        return SatResult(False, None, 0)

    # Decision frames: [variable, trail mark, already flipped to True].
    stack: list[list] = []
    while True:
        if covered == len(clauses):
            return finish()
        branch_var = next((v for v in variables if v not in value), None)
        if branch_var is None:
            return finish()
        decisions += 1
        if decisions > cap:
            raise ResourceLimit(
                f"satisfiability search exceeded {cap} decisions"
            )
        stack.append([branch_var, len(trail), False])
        ok = propagate(deque([-branch_var]))
        while not ok:
            while stack and stack[-1][2]:
                undo(stack[-1][1])
                stack.pop()
            if not stack:
                return SatResult(False, None, decisions)
            frame = stack[-1]
            undo(frame[1])
            frame[2] = True
            decisions += 1
            if decisions > cap:
                raise ResourceLimit(
                    f"satisfiability search exceeded {cap} decisions"
                )
            ok = propagate(deque([frame[0]]))
