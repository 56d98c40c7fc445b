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
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    ArityMismatch,
    EmptyDomain,
    FormulaSyntaxError,
    UnknownSymbol,
)

_set = object.__setattr__  # past Record.__setattr__; looked up once, for speed

# ---------------------------------------------------------------------------
# Syntax trees
# ---------------------------------------------------------------------------


class Record:
    """An immutable value made of the fields its class annotates.

    The fields are the class's own annotations, or its base's if it has
    none; a class attribute named after a field is its default.  Records of
    one class with equal fields are equal, a record hashes as the tuple of
    its fields, prints as `Name(field=value, ...)`, and refuses assignment
    and deletion with AttributeError.  A subclass with checks defines its
    own `__init__` and sets fields with `object.__setattr__`.  Formula
    nodes compute their hash once, at construction, from their children's
    kept hashes, and copy and pickle by calling their class on the fields.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__) or cls._fields

    def __init__(self, *values: object, **named: object) -> None:
        cls, fields = type(self), self._fields
        for field in fields[len(values):]:
            if field not in named and not hasattr(cls, field):
                break
            values += (named.pop(field, getattr(cls, field, None)),)
        if len(values) != len(fields) or named:
            raise TypeError(f"{cls.__name__} takes {', '.join(fields)}")
        for field, value in zip(fields, values):
            object.__setattr__(self, field, value)

    def _compared(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self) -> int:
        return hash(self._compared())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field '{name}'")

    __delattr__ = __setattr__

    def replace(self, **changes: object):
        """A copy of this record with the named fields changed."""
        return self.__class__(**{f: getattr(self, f) for f in self._fields} | changes)


class _Node(Record):
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return self.__class__, self._key


class Atom(_Node):
    """A predicate applied to argument names (possibly none).

    Arguments are stored as plain strings; an upper-case initial marks a
    variable, anything else is a constant.  Equality and hashing are those
    of a `Record`, so atoms are usable as dict keys.
    """

    predicate: str
    args: tuple[str, ...]

    def __init__(self, predicate: str, args: tuple[str, ...] = ()) -> None:
        _set(self, "predicate", predicate)
        _set(self, "args", args)
        _set(self, "_key", (predicate, args))
        _set(self, "_hash", hash(self._key))

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(self.args)})"


class Not(_Node):
    operand: Formula

    def __init__(self, operand: Formula) -> None:
        _set(self, "operand", operand)
        _set(self, "_key", (operand,))
        _set(self, "_hash", hash(self._key))


class _Binary(_Node):
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_key", (left, right))
        _set(self, "_hash", hash(self._key))


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Implies(_Binary):
    pass


class Iff(_Binary):
    pass


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


class _Token(Record):
    kind: str
    text: str
    position: int

    def __init__(self, kind: str, text: str, position: int) -> None:
        _set(self, "kind", kind)
        _set(self, "text", text)
        _set(self, "position", position)


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
