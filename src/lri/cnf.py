"""Clause-form translation for the satisfiability engine.

Ground formulas become clause sets by introducing one defining atom per
non-literal subformula, so the translation grows linearly with formula size
and the result is equisatisfiable with (and, over the source atoms,
model-equivalent to) the input set.  Negations fold onto the literal of the
negated subformula instead of spending a definition.

Structurally equal subformulas share their defining atom within one builder,
which is what makes incremental use cheap: a domain of rules adds every rule
once and then asserts different subsets of their top literals per query.  A
clause set carries only the definitions its asserted literals reach, and a
query's own definitions can be rolled back once it is answered.

Defining atoms live in a reserved namespace (`$0`, `$1`, ...).  `$` is not an
identifier character in the formula grammar, so no parsed input can collide
with them, and models are reported with the namespace filtered out.

Literals are signed integers: registry index + 1, negative for negation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .formula import And, Atom, Formula, Iff, Implies, Not, Or, Signature

AUX_PREFIX = "$"

Clause = frozenset[int]


def is_aux(atom: Atom) -> bool:
    return atom.predicate.startswith(AUX_PREFIX)


@dataclass(frozen=True)
class ClauseSet:
    """An immutable clause collection with its literal decoding tables.

    `atoms` maps every variable number occurring in the clauses (signed
    literal magnitudes) back to its atom; `aux` lists the variable numbers of
    defining atoms, which solvers exclude from reported models.
    """

    clauses: tuple[Clause, ...]
    atoms: Mapping[int, Atom] = field(compare=False)
    aux: frozenset[int] = field(compare=False)


class CnfBuilder:
    """Incremental clausifier over one signature.

    `add` translates a formula and returns its top literal without asserting
    it; callers choose which top literals to turn into unit clauses when
    assembling a ClauseSet.  Definitions accumulate across calls (until a
    `rollback`) and are shared between formulas with common subtrees; each
    is kept under the defining variable it introduces, with the variables of
    its operands, so a clause set can take just the ones it depends on.
    """

    def __init__(self, signature: Signature) -> None:
        self._sig = signature
        self._defs: dict[int, tuple[Clause, ...]] = {}
        self._operands: dict[int, tuple[int, int]] = {}
        self._literal: dict[Formula, int] = {}
        self._atoms: dict[int, Atom] = {}
        self._tables = (self._literal, self._defs, self._operands, self._atoms)

    def _var(self, atom: Atom) -> int:
        var = self._sig.index_of(atom) + 1
        self._atoms[var] = atom
        return var

    def _fresh_aux(self) -> int:
        return self._var(Atom(f"{AUX_PREFIX}{len(self._defs)}"))

    def mark(self) -> tuple[int, ...]:
        """The builder's current extent, for `rollback` to return to."""
        return tuple(map(len, self._tables))

    def rollback(self, mark: tuple[int, ...]) -> None:
        """Forget every translation made since the mark was taken.

        The tables keep insertion order, so the newer entries are the last
        ones; defining atoms are numbered from the mark again.
        """
        for table, size in zip(self._tables, mark):
            while len(table) > size:
                table.popitem()

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
            self._defs[out] = tuple(
                clause
                for clause in map(frozenset, defs)
                if not _tautologous(clause)
            )
            self._operands[out] = (abs(left), abs(right))
            lit = out
        self._literal[formula] = lit
        return lit

    def clause_set(self, asserted: Iterable[int] = ()) -> ClauseSet:
        """Unit assertions plus the definitions their literals reach.

        A definition is reached when its defining variable occurs in an
        assertion or as an operand of another reached definition; the rest
        are left out, which keeps satisfiability since a definition
        constrains only its own fresh variable.  Tautologous clauses are
        dropped, duplicates collapse, and the rest is sorted (by size, then
        literal tuple) so equal inputs give identical clause sets.
        """
        clauses = {frozenset((lit,)) for lit in asserted}
        reached: set[int] = set()
        pending = [abs(lit) for unit in clauses for lit in unit]
        while pending:
            var = pending.pop()
            if var in reached:
                continue
            reached.add(var)
            clauses.update(self._defs.get(var, ()))
            pending.extend(self._operands.get(var, ()))
        ordered = sorted(clauses, key=lambda c: (len(c), sorted(c)))
        return ClauseSet(
            clauses=tuple(ordered),
            atoms={var: self._atoms[var] for var in reached},
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
