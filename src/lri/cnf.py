"""Clause-form translation for the satisfiability engine.

Ground formulas become clauses by introducing one defining variable per
non-literal subformula, so the translation grows linearly with formula size
and the result is equisatisfiable with (and, over the source atoms,
model-equivalent to) the input set.  Negations fold onto the literal of the
negated subformula instead of spending a definition.

Structurally equal subformulas share their defining variable within one
builder, which is what makes incremental use cheap: a domain of rules adds
every rule once and then asserts different subsets of their top literals per
query.  Each definition's clauses go into the builder's `sat.ClauseStore`
once, when the definition is made.  A search under assumptions (`problem`)
activates only the definitions its literals reach, its cone, and a query's
own definitions can be rolled back once it is answered.  `clause_set` finds
the same problem by a walk that no memo takes part in, for `clausify` and
for tests; `check --dimacs` lists the problem a domain of rules builds in
its own store instead.

The builder is the one place variables are numbered.  An atom is numbered
when it is first met, by `number_atoms` or by translation, and a definition
when it is made, counting from 1, and the store's `names` decode them: the
atom, or `$n` for the n-th definition.  Literals are signed variable
numbers, negative for negation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .formula import And, Atom, Formula, Iff, Implies, Not, Or, walk
from .sat import ClauseStore, Problem


class CnfBuilder:
    """Incremental clausifier that numbers its own variables.

    `add` translates a formula and returns its top literal without asserting
    it; callers choose which top literals to assume in a search.
    Definitions accumulate across calls (until a `rollback`) and are shared
    between formulas with common subtrees.  The builder keeps two tables:
    each translated formula's literal, and each defining variable's
    definition, as the numbers of its clauses in `store` and the variables
    of its operands, so a search can take just the definitions it depends
    on.  Each new variable takes the next number and appends its name to
    `store.names`, so the order of translation is the order of the
    variables, and with it the solver's branching order.  A variable's
    cone, the clauses of every definition it reaches, is computed the first
    time a search assumes it.
    """

    def __init__(self) -> None:
        self.store = ClauseStore()
        self._literal: dict[Formula, int] = {}
        self._defs: dict[int, tuple[range, tuple[int, int]]] = {}
        self._cones: dict[int, tuple[int, ...]] = {}

    def _number(self, name: object) -> int:
        self.store.names.append(name)
        return len(self.store.names)

    def mark(self) -> tuple[int, int, int, int]:
        """The builder's current extent, for `rollback` to return to.

        It counts the translations, the definitions, the stored clauses and
        the numbered variables.
        """
        store = self.store
        return (
            len(self._literal), len(self._defs),
            len(store.clauses), len(store.names),
        )

    def rollback(self, mark: tuple[int, int, int, int]) -> None:
        """Forget every translation made since the mark was taken.

        Both tables keep insertion order, so the newer entries are the last
        ones.  Variables are numbered from the mark again, so the cone of
        each variable whose literal goes is forgotten (an older one is just
        computed again), the store drops the forgotten clauses, and its
        `names` the forgotten variables.
        """
        literals, defs, stored, named = mark
        while len(self._literal) > literals:
            _, lit = self._literal.popitem()
            self._cones.pop(abs(lit), None)
        while len(self._defs) > defs:
            self._defs.popitem()
        self.store.truncate(stored)
        del self.store.names[named:]

    def number_atoms(
        self, nodes: Iterable[Formula]
    ) -> tuple[list[Atom], list[int]]:
        """Number the atoms among the nodes, in order, that are new to it.

        It returns the new atoms, in the order first met, and the variable
        of every atom it met, in order and repeats included.
        """
        new: list[Atom] = []
        variables: list[int] = []
        literal = self._literal
        for node in nodes:
            if isinstance(node, Atom):
                var = literal.get(node)
                if var is None:
                    var = literal[node] = self._number(node)
                    new.append(node)
                variables.append(var)
        return new, variables

    def add(self, formula: Formula) -> int:
        """Translate a ground formula and return its top literal."""
        known = self._literal.get(formula)
        if known is not None:
            return known
        if isinstance(formula, Atom):
            lit = self._number(formula)
        elif isinstance(formula, Not):
            lit = -self.add(formula.operand)
        else:
            left = self.add(formula.left)
            right = self.add(formula.right)
            out = self._number(f"${len(self._defs)}")
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


def clausify(formulas: Sequence[Formula]) -> Problem:
    """The problem asserting every formula in the sequence.

    A fresh builder numbers the formulas' atoms first, in order and left
    first, as a domain of rules numbers its rules' atoms, and then
    translates the formulas, so no definition carries over from one call
    to the next.
    """
    builder = CnfBuilder()
    for formula in formulas:
        builder.number_atoms(walk(formula))
    return builder.clause_set([builder.add(f) for f in formulas])


def to_dimacs(problem: Problem) -> str:
    """DIMACS-style listing with a comment table decoding the variables.

    Each variable the clauses use is named as its builder named it in the
    problem's store: by its atom, or `$n` for the n-th definition.
    """
    clauses = problem.clauses
    names = problem.store.names
    used = sorted({abs(lit) for clause in clauses for lit in clause})
    lines = [f"c {var} = {names[var - 1]}" for var in used]
    lines.append(f"p cnf {max(used, default=0)} {len(clauses)}")
    for clause in clauses:
        lines.append(" ".join(str(lit) for lit in sorted(clause)) + " 0")
    return "\n".join(lines) + "\n"
