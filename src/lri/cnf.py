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
definitions can be rolled back once it is answered.  `clause_set` lists the
same clauses as one immutable set, for `check --dimacs` and for tests.

Defining atoms live in a reserved namespace (`$0`, `$1`, ...).  `$` is not an
identifier character in the formula grammar, so no parsed input can collide
with them, and models are reported with the namespace filtered out.

Literals are signed integers: registry index + 1, negative for negation.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .formula import And, Atom, Formula, Iff, Implies, Not, Or, Record, Signature
from .sat import ClauseStore, Problem

AUX_PREFIX = "$"

Clause = frozenset[int]


def is_aux(atom: Atom) -> bool:
    return atom.predicate.startswith(AUX_PREFIX)


class ClauseSet(Record):
    """An immutable clause collection with its literal decoding tables.

    `atoms` maps every variable number occurring in the clauses (signed
    literal magnitudes) back to its atom; `aux` lists the variable numbers of
    defining atoms, which solvers exclude from reported models.  Equality
    and hashing look at the clauses alone.
    """

    clauses: tuple[Clause, ...]
    atoms: Mapping[int, Atom]
    aux: frozenset[int]

    def _compared(self) -> tuple:
        return (self.clauses,)


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
        return self._literal_for(formula)

    def _literal_for(self, formula: Formula) -> int:
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
            lit = -self._literal_for(formula.operand)
        else:
            left = self._literal_for(formula.left)
            right = self._literal_for(formula.right)
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
            first = len(self.store.clauses)
            for clause in dict.fromkeys(map(frozenset, defs)):
                if not _tautologous(clause):
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

    def clause_set(self, asserted: Iterable[int] = ()) -> ClauseSet:
        """Unit assertions plus the definitions their literals reach.

        The clauses are those a `problem` over the same literals activates,
        found here by a fresh walk that no memo takes part in.  Tautologous
        clauses were dropped when stored, duplicates collapse, and the rest
        is sorted (by size, then literal tuple) so equal inputs give
        identical clause sets.
        """
        asserted = tuple(asserted)
        active = set().union(*(self._reach(abs(lit)) for lit in asserted))
        clauses = Problem(self.store, asserted, active).clauses
        reached = {abs(lit) for clause in clauses for lit in clause}
        return ClauseSet(
            clauses=clauses,
            atoms={var: self._sig.atom_at(var - 1) for var in reached},
            aux=frozenset(reached & self._defs.keys()),
        )


def _tautologous(clause: Clause) -> bool:
    return any(-lit in clause for lit in clause)


def clausify(formulas: Sequence[Formula], signature: Signature) -> ClauseSet:
    """Clause set asserting every formula in the sequence.

    A fresh builder translates the formulas, so no definition carries over
    from one call to the next; atoms are numbered by `signature`'s registry.
    """
    builder = CnfBuilder(signature)
    return builder.clause_set([builder.add(f) for f in formulas])


def to_dimacs(clause_set: ClauseSet) -> str:
    """DIMACS-style listing with a comment table decoding the variables."""
    lines = []
    for var in sorted(clause_set.atoms):
        atom = clause_set.atoms[var]
        lines.append(f"c {var} = {atom}")
    num_vars = max(clause_set.atoms, default=0)
    lines.append(f"p cnf {num_vars} {len(clause_set.clauses)}")
    for clause in clause_set.clauses:
        lines.append(" ".join(str(lit) for lit in sorted(clause)) + " 0")
    return "\n".join(lines) + "\n"
