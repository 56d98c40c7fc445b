"""Formula language: signatures, syntax trees, parsing, printing, grounding.

The language is function free.  An atom is a propositional name or a predicate
applied to constants and variables; identifiers starting with an upper-case
letter are variables, everything else names a predicate or constant.  The
connectives, from tightest to loosest, are `-` (negation), `&`, `|`, `->`
(right associative) and `<->`.  Statements in multi-formula input each end
with a period, and `#` starts a comment that runs to end of line.

A formula whose atoms contain no variables is ground.  Formulas with
variables are schemas: they stand for the set of ground instances obtained by
substituting declared constants for variables in every combination, which is
the only quantification the language supports (implicit universal prefixes).

The Signature owns every name.  It also acts as the atom registry: each
distinct ground atom receives a dense integer index in first-seen order, and
those indices drive clause literals and the branching order of the
satisfiability engine, so index assignment is append-only.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    ArityMismatch,
    EmptyDomain,
    FormulaSyntaxError,
    UnknownSymbol,
)

# ---------------------------------------------------------------------------
# Syntax trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """A predicate applied to argument names (possibly none).

    Arguments are stored as plain strings; an upper-case initial marks a
    variable, anything else is a constant.  Structural equality and hashing
    come from the dataclass fields, so atoms are usable as dict keys.
    """

    predicate: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(self.args)})"


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Not, And, Or, Implies, Iff]

_BINARY = (And, Or, Implies, Iff)
_CONNECTIVE_TEXT = {And: "&", Or: "|", Implies: "->", Iff: "<->"}


def is_variable(name: str) -> bool:
    """Upper-case initial means variable; the grammar guarantees non-empty."""
    return name[:1].isupper()


def walk(formula: Formula) -> Iterator[Formula]:
    """Yield every subformula, parents before children, left before right."""
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, _BINARY):
            stack.append(node.right)
            stack.append(node.left)


def atoms_of(formula: Formula) -> frozenset[Atom]:
    return frozenset(node for node in walk(formula) if isinstance(node, Atom))


def atom_groups(atom_sets: Sequence[Iterable[Atom]]) -> list[list[int]]:
    """Indices of atom sets grouped by atoms shared directly or through others.

    Given the atoms of each formula in a list, the groups are the formulas
    connected through shared atoms.  Groups list their indices ascending and
    come ordered by their first index, so the grouping is deterministic.
    """
    parent = list(range(len(atom_sets)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first_use: dict[Atom, int] = {}
    for i, atoms in enumerate(atom_sets):
        for atom in atoms:
            if atom in first_use:
                root, other = find(first_use[atom]), find(i)
                if root != other:
                    parent[max(root, other)] = min(root, other)
            else:
                first_use[atom] = i

    groups: dict[int, list[int]] = {}
    for i in range(len(atom_sets)):
        groups.setdefault(find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


def variables_of(formula: Formula) -> tuple[str, ...]:
    """All variable names in the formula, sorted for reproducible grounding."""
    names = {
        arg
        for atom in atoms_of(formula)
        for arg in atom.args
        if is_variable(arg)
    }
    return tuple(sorted(names))


def is_ground(formula: Formula) -> bool:
    return not variables_of(formula)


def substitute(formula: Formula, binding: Mapping[str, str]) -> Formula:
    """Replace variables by the names bound to them, leaving the rest alone."""
    if isinstance(formula, Atom):
        if not formula.args:
            return formula
        return Atom(
            formula.predicate,
            tuple(binding.get(a, a) for a in formula.args),
        )
    if isinstance(formula, Not):
        return Not(substitute(formula.operand, binding))
    return type(formula)(
        substitute(formula.left, binding),
        substitute(formula.right, binding),
    )


def evaluate(formula: Formula, assignment: Mapping[Atom, bool]) -> bool:
    """Classical truth value under a total assignment of the formula's atoms."""
    if isinstance(formula, Atom):
        return assignment[formula]
    if isinstance(formula, Not):
        return not evaluate(formula.operand, assignment)
    left = evaluate(formula.left, assignment)
    right = evaluate(formula.right, assignment)
    if isinstance(formula, And):
        return left and right
    if isinstance(formula, Or):
        return left or right
    if isinstance(formula, Implies):
        return (not left) or right
    return left == right


def print_formula(formula: Formula) -> str:
    """Render with explicit parentheses around every binary connective.

    The output is unambiguous regardless of precedence, reparses to an equal
    tree, and is identical for equal trees, which makes it usable as a
    canonical form in reports and saved knowledge bases.
    """
    if isinstance(formula, Atom):
        return str(formula)
    if isinstance(formula, Not):
        return "-" + print_formula(formula.operand)
    op = _CONNECTIVE_TEXT[type(formula)]
    return f"({print_formula(formula.left)} {op} {print_formula(formula.right)})"


# ---------------------------------------------------------------------------
# Signatures and the atom registry
# ---------------------------------------------------------------------------


class Signature:
    """Declared predicates and constants, plus the ground-atom index registry.

    Parsing text against a signature declares new predicates (with the
    arity of their first use) and new constants on sight, and checks the
    arities of known ones.

    Indices for ground atoms, clausifiers' defining atoms among them, are
    handed out densely in first-seen order and never change afterwards.
    """

    def __init__(
        self,
        predicates: Iterable[tuple[str, int]] = (),
        constants: Iterable[str] = (),
    ) -> None:
        self._arities: dict[str, int] = {}
        self._constants: dict[str, None] = {}
        for name, arity in predicates:
            self.declare_predicate(name, arity)
        for name in constants:
            self.declare_constant(name)
        self._atom_index: dict[Atom, int] = {}
        self._atoms: list[Atom] = []

    # -- declarations -------------------------------------------------------

    def declare_predicate(self, name: str, arity: int) -> None:
        known = self._arities.get(name)
        if known is not None:
            if known != arity:
                raise ArityMismatch(
                    f"predicate '{name}' declared with arity {known}, "
                    f"used with arity {arity}"
                )
            return
        if name in self._constants:
            raise FormulaSyntaxError(
                f"name '{name}' is already a constant", 0
            )
        self._arities[name] = arity

    def declare_constant(self, name: str) -> None:
        if name in self._constants:
            return
        if name in self._arities:
            raise FormulaSyntaxError(
                f"name '{name}' is already a predicate", 0
            )
        self._constants[name] = None

    # -- lookups ------------------------------------------------------------

    @property
    def predicates(self) -> tuple[tuple[str, int], ...]:
        return tuple(self._arities.items())

    @property
    def constants(self) -> tuple[str, ...]:
        """Declared constants, in declaration order (the grounding order)."""
        return tuple(self._constants)

    def has_predicate(self, name: str) -> bool:
        return name in self._arities

    def arity_of(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise UnknownSymbol(f"undeclared predicate '{name}'") from None

    def check_atom(self, atom: Atom) -> None:
        """Validate an atom against the declarations, declaring new names."""
        self.declare_predicate(atom.predicate, len(atom.args))
        for arg in atom.args:
            if not is_variable(arg):
                self.declare_constant(arg)

    # -- atom registry ------------------------------------------------------

    def index_of(self, atom: Atom) -> int:
        """Dense index of a ground atom, allocated on first sight."""
        found = self._atom_index.get(atom)
        if found is None:
            found = len(self._atoms)
            self._atoms.append(atom)
            self._atom_index[atom] = found
        return found

    def atom_at(self, index: int) -> Atom:
        return self._atoms[index]

    def registered_atoms(self) -> tuple[Atom, ...]:
        return tuple(self._atoms)

    def register_formula(self, formula: Formula) -> frozenset[Atom]:
        """Validate a formula's atoms and index the ground ones, left first.

        Returns the atoms walked, the formula's `atoms_of`.
        """
        atoms = [node for node in walk(formula) if isinstance(node, Atom)]
        for atom in atoms:
            self.check_atom(atom)
            if not any(is_variable(a) for a in atom.args):
                self.index_of(atom)
        return frozenset(atoms)


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<SKIP>\s+|\#[^\n]*)
    | (?P<IFF><->)
    | (?P<IMPLIES>->)
    | (?P<NOT>-)
    | (?P<AND>&)
    | (?P<OR>\|)
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<COMMA>,)
    | (?P<DOT>\.)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise FormulaSyntaxError(
                f"unexpected character {text[pos]!r}", pos
            )
        kind = match.lastgroup or ""
        if kind != "SKIP":
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token stream, one formula at a time."""

    def __init__(self, tokens: Sequence[_Token], signature: Signature) -> None:
        self._tokens = tokens
        self._pos = 0
        self._sig = signature

    def peek(self) -> _Token:
        return self._tokens[self._pos]

    def take(self) -> _Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def expect(self, kind: str, expected: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise FormulaSyntaxError(
                f"unexpected token {token.text!r}" if token.kind != "EOF"
                else "unexpected end of input",
                token.position,
                expected,
            )
        return self.take()

    def at_end(self) -> bool:
        return self.peek().kind == "EOF"

    # precedence, loosest first: IFF, IMPLIES, OR, AND, NOT

    def formula(self) -> Formula:
        left = self.implication()
        if self.peek().kind == "IFF":
            self.take()
            return Iff(left, self.formula())
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "IMPLIES":
            self.take()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        node = self.conjunction()
        while self.peek().kind == "OR":
            self.take()
            node = Or(node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.unary()
        while self.peek().kind == "AND":
            self.take()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        token = self.peek()
        if token.kind == "NOT":
            self.take()
            return Not(self.unary())
        if token.kind == "LPAREN":
            self.take()
            inner = self.formula()
            self.expect("RPAREN", "')'")
            return inner
        if token.kind == "IDENT":
            return self.atom()
        raise FormulaSyntaxError(
            f"unexpected token {token.text!r}" if token.kind != "EOF"
            else "unexpected end of input",
            token.position,
            "an atom, '-', or '('",
        )

    def atom(self) -> Atom:
        name_token = self.expect("IDENT", "a predicate name")
        name = name_token.text
        if is_variable(name):
            raise FormulaSyntaxError(
                f"variable {name!r} cannot stand alone as a formula",
                name_token.position,
                "a predicate name (lower-case initial)",
            )
        args: tuple[str, ...] = ()
        if self.peek().kind == "LPAREN":
            self.take()
            parts = [self.expect("IDENT", "a constant or variable").text]
            while self.peek().kind == "COMMA":
                self.take()
                parts.append(self.expect("IDENT", "a constant or variable").text)
            self.expect("RPAREN", "')' or ','")
            args = tuple(parts)
        atom = Atom(name, args)
        self._sig.check_atom(atom)
        return atom


def parse_formula(text: str, signature: Optional[Signature] = None) -> Formula:
    """Parse a single formula; an optional trailing period is accepted."""
    sig = signature if signature is not None else Signature()
    parser = _Parser(_tokenize(text), sig)
    node = parser.formula()
    if parser.peek().kind == "DOT":
        parser.take()
    if not parser.at_end():
        token = parser.peek()
        raise FormulaSyntaxError(
            f"unexpected token {token.text!r}", token.position, "end of input"
        )
    return node


def parse_statements(
    text: str, signature: Optional[Signature] = None
) -> list[Formula]:
    """Parse zero or more period-terminated formulas."""
    sig = signature if signature is not None else Signature()
    parser = _Parser(_tokenize(text), sig)
    out: list[Formula] = []
    while not parser.at_end():
        out.append(parser.formula())
        parser.expect("DOT", "'.' after the statement")
    return out


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


def ground(schema: Formula, signature: Signature) -> list[Formula]:
    """All ground instances of a schema over the declared constants.

    Variables are substituted in every combination, iterating the constants
    in declaration order with the alphabetically last variable varying
    fastest.  The result is duplicate free (distinct bindings of a variable
    that occurs in the formula give distinct instances) and returned as a
    list so the instance order, which downstream code turns into hypothesis
    indices, is reproducible.
    """
    names = variables_of(schema)
    if not names:
        return [schema]
    constants = signature.constants
    if not constants:
        raise EmptyDomain(
            f"cannot ground '{print_formula(schema)}': no constants declared"
        )
    out: list[Formula] = []
    for combo in itertools.product(constants, repeat=len(names)):
        out.append(substitute(schema, dict(zip(names, combo))))
    return out
