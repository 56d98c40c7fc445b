"""Clause-form translation for the satisfiability engine.

Ground formulas become clauses by introducing one defining atom per
non-literal subformula, so the translation grows linearly with formula size
and the result is equisatisfiable with (and, over the source atoms,
model-equivalent to) the input set.  Negations fold onto the literal of the
negated subformula instead of spending a definition.

Structurally equal subformulas share their defining atom within one builder,
which is what makes incremental use cheap: a domain of rules adds every rule
once and then asserts different subsets of their top literals per query.
Each definition's clauses go into the builder's `sat.ClauseStore` once, when
the definition is made.  A search under assumptions (`problem`) activates
only the definitions its literals reach, its cone, and a query's own
definitions can be rolled back once it is answered.  `clause_set` finds the
same problem by a walk that no memo takes part in, for `check --dimacs` and
for tests.

Defining atoms live in a reserved namespace (`$0`, `$1`, ...).  `$` is not an
identifier character in the formula grammar, so no parsed input can collide
with them.

Literals are signed integers: registry index + 1, negative for negation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .formula import And, Atom, Formula, Iff, Implies, Not, Or, Signature
from .sat import ClauseStore, Problem

AUX_PREFIX = "$"


def is_aux(atom: Atom) -> bool:
    return atom.predicate.startswith(AUX_PREFIX)


class CnfBuilder:
    """Incremental clausifier over one signature.

    `add` translates a formula and returns its top literal without asserting
    it; callers choose which top literals to assume in a search.
    Definitions accumulate across calls (until a `rollback`) and are shared
    between formulas with common subtrees.  The builder keeps two tables:
    each translated formula's literal, and each defining variable's
    definition, as the numbers of its clauses in `store` and the variables
    of its operands, so a search can take just the definitions it depends
    on.  Variables are the signature's registry indices plus one, so the
    registry decodes them.  A variable's cone, the clauses of every
    definition it reaches, is computed the first time a search assumes it.
    """

    def __init__(self, signature: Signature) -> None:
        self._sig = signature
        self.store = ClauseStore()
        self._literal: dict[Formula, int] = {}
        self._defs: dict[int, tuple[range, tuple[int, int]]] = {}
        self._cones: dict[int, tuple[int, ...]] = {}

    def _var(self, atom: Atom) -> int:
        return self._sig.index_of(atom) + 1

    def _fresh_aux(self) -> int:
        return self._var(Atom(f"{AUX_PREFIX}{len(self._defs)}"))

    def mark(self) -> tuple[int, int, int]:
        """The builder's current extent, for `rollback` to return to."""
        return len(self._literal), len(self._defs), len(self.store.clauses)

    def rollback(self, mark: tuple[int, int, int]) -> None:
        """Forget every translation made since the mark was taken.

        Both tables keep insertion order, so the newer entries are the last
        ones.  Defining atoms are numbered from the mark again, so the cone of
        each variable whose literal goes is forgotten (an older one is just
        computed again), and the store drops the forgotten clauses.
        """
        literals, defs, stored = mark
        while len(self._literal) > literals:
            _, lit = self._literal.popitem()
            self._cones.pop(abs(lit), None)
        while len(self._defs) > defs:
            self._defs.popitem()
        self.store.truncate(stored)

    def add(self, formula: Formula) -> int:
        """Translate a ground formula and return its top literal."""
        known = self._literal.get(formula)
        if known is not None:
            return known
        if isinstance(formula, Atom):
            if is_aux(formula):
                raise ValueError(
                    f"atom {formula} uses the reserved '{AUX_PREFIX}' namespace"
                )
            lit = self._var(formula)
        elif isinstance(formula, Not):
            lit = -self.add(formula.operand)
        else:
            left = self.add(formula.left)
            right = self.add(formula.right)
            out = self._fresh_aux()
            if isinstance(formula, And):
                defs = [(-out, left), (-out, right), (out, -left, -right)]
            elif isinstance(formula, Or):
                defs = [(-out, left, right), (out, -left), (out, -right)]
            elif isinstance(formula, Implies):
                defs = [(-out, -left, right), (out, left), (out, -right)]
            elif isinstance(formula, Iff):
                defs = [
                    (-out, -left, right),
                    (-out, left, -right),
                    (out, left, right),
                    (out, -left, -right),
                ]
            else:
                raise TypeError(f"not a formula: {formula!r}")
            if abs(left) == abs(right):
                # Only x op x and x op -x give repeated or tautologous clauses.
                defs = [
                    c for c in dict.fromkeys(map(frozenset, defs))
                    if not any(-lit in c for lit in c)
                ]
            first = len(self.store.clauses)
            for clause in defs:
                self.store.add(clause)
            self._defs[out] = (
                range(first, len(self.store.clauses)), (abs(left), abs(right))
            )
            lit = out
        self._literal[formula] = lit
        return lit

    def _reach(self, top: int) -> tuple[int, ...]:
        """Numbers of the clauses of every definition variable top reaches.

        A definition is reached when its defining variable is top or an
        operand of another reached definition.
        """
        found: list[int] = []
        reached: set[int] = set()
        pending = [top]
        while pending:
            var = pending.pop()
            if var in reached:
                continue
            reached.add(var)
            clauses, operands = self._defs.get(var, ((), ()))
            found.extend(clauses)
            pending.extend(operands)
        return tuple(found)

    def problem(self, asserted: Sequence[int]) -> Problem:
        """A search assuming the literals, over the definitions they reach.

        The rest are left out, which keeps satisfiability since a
        definition constrains only its own fresh variable.
        """
        cones = self._cones
        active: set[int] = set()
        for lit in asserted:
            cone = cones.get(abs(lit))
            if cone is None:
                cone = cones[abs(lit)] = self._reach(abs(lit))
            active.update(cone)
        return Problem(self.store, tuple(asserted), active)

    def clause_set(self, asserted: Iterable[int]) -> Problem:
        """The `problem` over the literals, found by a fresh walk.

        Its clauses are those `problem` activates for the same literals,
        found here by a walk that no memo takes part in.  Like any problem
        it reads the live store, so its clauses must be read before a
        `rollback`.
        """
        asserted = tuple(asserted)
        active = set().union(*(self._reach(abs(lit)) for lit in asserted))
        return Problem(self.store, asserted, active)


def clausify(formulas: Sequence[Formula], signature: Signature) -> Problem:
    """The problem asserting every formula in the sequence.

    A fresh builder translates the formulas, so no definition carries over
    from one call to the next; atoms are numbered by `signature`'s registry.
    """
    builder = CnfBuilder(signature)
    return builder.clause_set([builder.add(f) for f in formulas])


def to_dimacs(problem: Problem, signature: Signature) -> str:
    """DIMACS-style listing with a comment table decoding the variables.

    Each variable the clauses use is named by its atom in `signature`'s
    registry, defining atoms included.
    """
    clauses = problem.clauses
    used = sorted({abs(lit) for clause in clauses for lit in clause})
    lines = [f"c {var} = {signature.atom_at(var - 1)}" for var in used]
    lines.append(f"p cnf {max(used, default=0)} {len(clauses)}")
    for clause in clauses:
        lines.append(" ".join(str(lit) for lit in sorted(clause)) + " 0")
    return "\n".join(lines) + "\n"
