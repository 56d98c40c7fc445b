"""Formula language: signatures, syntax trees, parsing, printing, grounding.

The language is function free.  An atom is a propositional name or a predicate
applied to constants and variables; identifiers starting with an upper-case
letter are variables, everything else names a predicate or constant.  The
connectives, from tightest to loosest, are `-` (negation), `&`, `|`, `->`
and `<->`; the last two group to the right.  Statements in multi-formula
input each end with a period, and `#` starts a comment that runs to end of
line.  The lexer reads a text in one scan into `(kind, text, position)`
tuples.  The parser climbs precedence: one table gives each binary
connective its node class, binding power and grouping, and one loop reads
it, so a level of parentheses costs the parser two Python frames.

A formula whose atoms contain no variables is ground, and every node records
whether it is when it is made.  Formulas with variables are schemas: they
stand for the set of ground instances obtained by substituting declared
constants for variables in every combination, which is the only
quantification the language supports (implicit universal prefixes).

The Signature owns every name and keeps one node per distinct atom, which
the parser and grounding take their atoms from, so equal atoms are one
object.  It numbers nothing: the clause builder (`cnf.CnfBuilder`) numbers
the variables of each translation itself.
"""

from __future__ import annotations

import itertools
import re
from typing import (
    Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union,
)

from .errors import ArityMismatch, EmptyDomain, FormulaSyntaxError

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
    nodes compute their hash and whether they are ground once, at
    construction, from their children's kept values, and copy and pickle by
    calling their class on the fields.
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
        _set(self, "_ground", not any(map(is_variable, args)))

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
        _set(self, "_ground", operand._ground)


class _Binary(_Node):
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_key", (left, right))
        _set(self, "_hash", hash(self._key))
        _set(self, "_ground", left._ground and right._ground)


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
    """Whether no atom of the formula has a variable; read off the node."""
    return formula._ground


def require_ground(formula: Formula, role: str) -> None:
    """Refuse a formula with variables where the role needs a ground one."""
    if not formula._ground:
        raise ValueError(f"{role} not ground: {print_formula(formula)}")


def distinct_ground(
    formulas: Iterable[Formula], role: str
) -> tuple[Formula, ...]:
    """The formulas without repeats, in order, each required to be ground."""
    distinct = tuple(dict.fromkeys(formulas))
    for formula in distinct:
        require_ground(formula, role)
    return distinct


def map_atoms(formula: Formula, atom: Callable[[Atom], Formula]) -> Formula:
    """The formula with every atom `a` replaced by `atom(a)`.

    Every connective is kept, and every node above an atom is built anew,
    ground or not.  Grounding and renaming are both this rebuild.
    """
    if isinstance(formula, Atom):
        return atom(formula)
    if isinstance(formula, Not):
        return Not(map_atoms(formula.operand, atom))
    return type(formula)(
        map_atoms(formula.left, atom), map_atoms(formula.right, atom)
    )


def substitute(
    formula: Formula,
    binding: Mapping[str, str],
    atom: Callable[[str, tuple[str, ...]], Atom] = Atom,
) -> Formula:
    """Replace variables by the names bound to them, leaving the rest alone.

    A ground formula is returned as it is.  In any other formula every atom
    is rebuilt through `map_atoms`, so its ground subformulas come back as
    equal new nodes, not as the same objects.  `atom` makes each atom;
    grounding passes `Signature.atom`, so that equal instances of an atom
    are one node.
    """
    if formula._ground:
        return formula
    return map_atoms(formula, lambda a: atom(
        a.predicate, tuple([binding.get(x, x) for x in a.args])))


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
# Signatures
# ---------------------------------------------------------------------------


class Signature:
    """Declared predicates and constants, and one node per atom.

    Parsing text against a signature declares new predicates (with the
    arity of their first use) and new constants on sight, and checks the
    arities of known ones.  `mark` and `rollback` undo the declarations
    and atom nodes of a parse that was refused.

    `atom` hands out one node per distinct predicate and arguments, checked
    when it is made; the parser and grounding take their atoms from it.
    """

    def __init__(self, constants: Iterable[str] = ()) -> None:
        self._arities: dict[str, int] = {}
        self._constants: dict[str, None] = {}
        for name in constants:
            self.declare_constant(name)
        self._nodes: dict[tuple[str, tuple[str, ...]], Atom] = {}

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

    def mark(self) -> tuple[int, int, int]:
        """The declarations' current extent, for `rollback` to return to."""
        return len(self._arities), len(self._constants), len(self._nodes)

    def rollback(self, mark: tuple[int, int, int]) -> None:
        """Forget the predicates, constants and atom nodes made since the mark.

        All three tables keep insertion order, so the newer entries are the
        last ones.
        """
        tables = self._arities, self._constants, self._nodes
        for table, size in zip(tables, mark):
            while len(table) > size:
                table.popitem()

    # -- lookups ------------------------------------------------------------

    @property
    def predicates(self) -> tuple[tuple[str, int], ...]:
        return tuple(self._arities.items())

    @property
    def constants(self) -> tuple[str, ...]:
        """Declared constants, in declaration order (the grounding order)."""
        return tuple(self._constants)

    def check_atom(self, atom: Atom) -> None:
        """Validate an atom against the declarations, declaring new names."""
        self.declare_predicate(atom.predicate, len(atom.args))
        for arg in atom.args:
            if not is_variable(arg):
                self.declare_constant(arg)

    def atom(self, predicate: str, args: tuple[str, ...] = ()) -> Atom:
        """The signature's one node for an atom, checked on first sight."""
        key = (predicate, args)
        node = self._nodes.get(key)
        if node is None:
            node = Atom(predicate, args)
            self.check_atom(node)
            self._nodes[key] = node
        return node

    def check_atoms(self, atoms: Iterable[Atom]) -> None:
        """Validate the atoms, in order, declaring new names.

        Atoms the signature made itself were checked then and are not
        checked again.
        """
        nodes = self._nodes
        for atom in atoms:
            if nodes.get(atom._key) is not atom:
                self.check_atom(atom)


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
    | (?P<ERROR>.)
    """,
    re.VERBOSE | re.DOTALL,
)


# Binary connectives by token kind: node class, binding power, and whether
# the connective groups to the right.  `-` binds tighter than all of them.
_BINARY_OPS = {
    "IFF": (Iff, 1, True),
    "IMPLIES": (Implies, 2, True),
    "OR": (Or, 3, False),
    "AND": (And, 4, False),
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token in one scan, then EOF.

    Every character falls in some group of the pattern.
    """
    tokens: list[tuple[str, str, int]] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "SKIP":
            continue
        if kind == "ERROR":
            raise FormulaSyntaxError(
                f"unexpected character {match.group()!r}", match.start()
            )
        tokens.append((kind, match.group(), match.start()))
    tokens.append(("EOF", "", len(text)))
    return tokens


def _unexpected(
    token: tuple[str, str, int], expected: str
) -> FormulaSyntaxError:
    """The error for a token the grammar does not allow where it stands."""
    kind, text, position = token
    return FormulaSyntaxError(
        f"unexpected token {text!r}" if kind != "EOF"
        else "unexpected end of input",
        position,
        expected,
    )


class _Parser:
    """Precedence climbing over the token stream, one formula at a time."""

    def __init__(self, text: str, signature: Optional[Signature]) -> None:
        self._tokens = _tokenize(text)
        self._pos = 0
        self._sig = signature if signature is not None else Signature()

    def take(
        self, kind: str, expected: str = ""
    ) -> Optional[tuple[str, str, int]]:
        """The next token, consumed, if it is of this kind.

        Otherwise None, or, when something was `expected`, the error naming
        it.
        """
        token = self._tokens[self._pos]
        if token[0] == kind:
            self._pos += 1
            return token
        if expected:
            raise _unexpected(token, expected)
        return None

    def formula(self, floor: int = 1) -> Formula:
        """The longest formula whose connectives bind at least floor tightly."""
        node = self.unary()
        while True:
            op = _BINARY_OPS.get(self._tokens[self._pos][0])
            if op is None or op[1] < floor:
                return node
            self._pos += 1
            cls, power, right = op
            node = cls(node, self.formula(power if right else power + 1))

    def unary(self) -> Formula:
        if self.take("NOT"):
            return Not(self.unary())
        if self.take("LPAREN"):
            inner = self.formula()
            self.take("RPAREN", "')'")
            return inner
        _, name, position = self.take("IDENT", "an atom, '-', or '('")
        if is_variable(name):
            raise FormulaSyntaxError(
                f"variable {name!r} cannot stand alone as a formula",
                position,
                "a predicate name (lower-case initial)",
            )
        args: tuple[str, ...] = ()
        if self.take("LPAREN"):
            parts = [self.take("IDENT", "a constant or variable")[1]]
            while self.take("COMMA"):
                parts.append(self.take("IDENT", "a constant or variable")[1])
            self.take("RPAREN", "')' or ','")
            args = tuple(parts)
        try:
            return self._sig.atom(name, args)
        except FormulaSyntaxError as clash:
            raise FormulaSyntaxError(clash.core, position) from None


def parse_formula(text: str, signature: Optional[Signature] = None) -> Formula:
    """Parse a single formula; an optional trailing period is accepted."""
    parser = _Parser(text, signature)
    node = parser.formula()
    parser.take("DOT")
    parser.take("EOF", "end of input")
    return node


def parse_statements(
    text: str, signature: Optional[Signature] = None
) -> list[Formula]:
    """Parse zero or more period-terminated formulas."""
    parser = _Parser(text, signature)
    out: list[Formula] = []
    while not parser.take("EOF"):
        out.append(parser.formula())
        parser.take("DOT", "'.' after the statement")
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
    if is_ground(schema):
        return [schema]
    names = variables_of(schema)
    constants = signature.constants
    if not constants:
        raise EmptyDomain(
            f"cannot ground '{print_formula(schema)}': no constants declared"
        )
    out: list[Formula] = []
    for combo in itertools.product(constants, repeat=len(names)):
        out.append(substitute(schema, dict(zip(names, combo)), signature.atom))
    return out
