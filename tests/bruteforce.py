"""Brute-force oracles and seeded corpus generators for the test suite.

The oracle answers every logic question by enumerating truth-table rows,
with formulas encoded as row bitmasks.  It shares the syntax-tree types with
the package but none of the decision machinery (no clause translation, no
search), so the two routes can disagree whenever either is wrong.  A
reference lexer that matches one token at a time is what the package's
one-scan lexer is checked against, and a recursive-descent parser with one
method per precedence level over its tokens is what the package's parser is
checked against, and a search that keeps its state in closures over a
`deque` is what the package's `sat._search` is checked against.  A depth
check that walks every k-subset of components is what the package's
`check_variety_depth` walk is checked against.  A build that lists each
rule's atoms, numbers them, translates the rules and then groups the atom
lists is what the package's one walk per rule in `DomainOfRules` is
checked against; it shares the clause translation (`CnfBuilder.add`) but
groups by `reference_groups`, a merge of overlapping sets that is what the
package's union-find `atom_groups` is checked against.
"""

from __future__ import annotations

import random
import re
from collections import deque
from itertools import chain, combinations, product
from typing import Iterable, Optional, Sequence

from lri import And, Atom, Calculus, Iff, Implies, Not, Or, Signature, Variety
from lri import DepthCheckResult, Formula, FormulaSyntaxError, ProbeUniverse
from lri import ResourceLimit, atoms_of
from lri.cnf import CnfBuilder
from lri.errors import (
    AxiomHypothesisOverlap, DuplicateHypothesis, InconsistentAxioms,
)
from lri.formula import (
    distinct_ground, map_atoms, print_formula, require_ground, walk,
)

ATOM_NAMES = "abcdefghijkl"


def _atom_key(atom: Atom) -> tuple:
    return (atom.predicate, atom.args)


class TableOracle:
    """Truth tables over a fixed atom universe; formulas as row bitmasks.

    Row r assigns True to atom i exactly when bit i of r is set; the mask of
    a formula has bit r set when row r satisfies it.
    """

    def __init__(self, universe: Iterable[Formula]) -> None:
        atoms: set[Atom] = set()
        for f in universe:
            atoms |= atoms_of(f)
        self.atoms = sorted(atoms, key=_atom_key)
        self.index = {a: i for i, a in enumerate(self.atoms)}
        self.rows = 1 << len(self.atoms)
        self.full = (1 << self.rows) - 1
        self._masks: dict[Formula, int] = {}
        for a, i in self.index.items():
            mask = 0
            for row in range(self.rows):
                if row >> i & 1:
                    mask |= 1 << row
            self._masks[a] = mask

    def mask(self, formula: Formula) -> int:
        found = self._masks.get(formula)
        if found is not None:
            return found
        if isinstance(formula, Atom):
            raise KeyError(f"atom outside the oracle universe: {formula}")
        if isinstance(formula, Not):
            mask = ~self.mask(formula.operand) & self.full
        else:
            left = self.mask(formula.left)
            right = self.mask(formula.right)
            if isinstance(formula, And):
                mask = left & right
            elif isinstance(formula, Or):
                mask = left | right
            elif isinstance(formula, Implies):
                mask = (~left | right) & self.full
            elif isinstance(formula, Iff):
                mask = ~(left ^ right) & self.full
            else:
                raise TypeError(formula)
        self._masks[formula] = mask
        return mask

    def satisfiable(self, formulas: Sequence[Formula]) -> bool:
        mask = self.full
        for f in formulas:
            mask &= self.mask(f)
        return mask != 0

    def entails(self, premises: Sequence[Formula], phi: Formula) -> bool:
        mask = self.full
        for f in premises:
            mask &= self.mask(f)
        return mask & ~self.mask(phi) & self.full == 0


class DomainOracle:
    """Exhaustive position analysis of an (axioms, hypotheses) pair.

    Hypothesis selections are bitmask ints; selection masks come from a
    subset-lattice sweep so each costs one AND on top of its parent.
    """

    def __init__(
        self,
        axioms: Sequence[Formula],
        hypotheses: Sequence[Formula],
        extra: Sequence[Formula] = (),
    ) -> None:
        self.axioms = list(axioms)
        self.hypotheses = list(hypotheses)
        self.table = TableOracle(self.axioms + self.hypotheses + list(extra))
        base = self.table.full
        for f in self.axioms:
            base &= self.table.mask(f)
        n = len(self.hypotheses)
        hyp_masks = [self.table.mask(h) for h in self.hypotheses]
        self.selection_masks = [0] * (1 << n)
        self.selection_masks[0] = base
        for s in range(1, 1 << n):
            low = (s & -s).bit_length() - 1
            self.selection_masks[s] = (
                self.selection_masks[s & (s - 1)] & hyp_masks[low]
            )
        self.consistent_selections = [
            s for s in range(1 << n) if self.selection_masks[s] != 0
        ]

    def axioms_consistent(self) -> bool:
        return self.selection_masks[0] != 0

    def consistent(self, selection: int) -> bool:
        return self.selection_masks[selection] != 0

    def maximal_positions(self) -> list[frozenset[int]]:
        sets = self.consistent_selections
        maximal = [
            s for s in sets if not any(t != s and t & s == s for t in sets)
        ]
        return sorted(
            (frozenset(_bits(s)) for s in maximal),
            key=lambda fs: tuple(sorted(fs)),
        )

    def entails(self, selection: int, phi: Formula) -> bool:
        phi_mask = self.table.mask(phi)
        return self.selection_masks[selection] & ~phi_mask & self.table.full == 0

    def reasonable(self, phi: Formula) -> bool:
        phi_mask = self.table.mask(phi)
        return any(
            self.selection_masks[s] & ~phi_mask & self.table.full == 0
            for s in self.consistent_selections
        )

    def justifications(self, phi: Formula) -> set[frozenset[int]]:
        phi_mask = self.table.mask(phi)
        entailing = [
            s
            for s in self.consistent_selections
            if self.selection_masks[s] & ~phi_mask & self.table.full == 0
        ]
        minimal = [
            s
            for s in entailing
            if not any(t != s and t & s == t for t in entailing)
        ]
        return {frozenset(_bits(s)) for s in minimal}

    def ordered_justifications(self, phi: Formula) -> list[list[int]]:
        """The justifications as index lists, by size, then index tuple."""
        return sorted(
            (sorted(s) for s in self.justifications(phi)),
            key=lambda s: (len(s), s),
        )

    def contexts(
        self, queries: Sequence[Formula]
    ) -> list[list[tuple[int, list[int]]]]:
        """Maximal consistent contexts in lri's documented order.

        One product over the queries in input order: each query is covered
        by one of its ordered justifications, or left out after them.  A
        choice is kept when the union of its selections is consistent and
        no left-out query can be covered without breaking that.  Each
        context lists its (query index, selection) pairs in query order.
        """
        options = [self.ordered_justifications(q) for q in queries]
        out = []
        for choice in product(*(range(len(o) + 1) for o in options)):
            covered = [
                (k, options[k][c]) for k, c in enumerate(choice)
                if c < len(options[k])
            ]
            union = selection_mask(i for _, s in covered for i in s)
            if self.consistent(union) and not any(
                self.consistent(union | selection_mask(alternative))
                for k, c in enumerate(choice) if c == len(options[k])
                for alternative in options[k]
            ):
                out.append(covered)
        return out


def selection_mask(indices: Iterable[int]) -> int:
    """The selection bitmask of some hypothesis indices."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _bits(selection: int):
    i = 0
    while selection:
        if selection & 1:
            yield i
        selection >>= 1
        i += 1


# ---------------------------------------------------------------------------
# Reference lexer
# ---------------------------------------------------------------------------

_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<SKIP>\s+|\#[^\n]*)
    | (?P<IFF><->) | (?P<IMPLIES>->) | (?P<NOT>-) | (?P<AND>&) | (?P<OR>\|)
    | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,) | (?P<DOT>\.)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def reference_tokens(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, one match per position, then EOF."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "SKIP":
            tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class ReferenceParser:
    """Recursive descent over `reference_tokens`, one method per level.

    Precedence, loosest first: `<->` and `->` (both grouping to the right),
    then `|` and `&` (both grouping to the left), then `-`.  Atoms come from
    the signature, so declarations and their errors follow the package's.
    """

    def __init__(self, text: str, signature: Signature) -> None:
        self._tokens = reference_tokens(text)
        self._pos = 0
        self._sig = signature

    def peek(self) -> tuple[str, str, int]:
        return self._tokens[self._pos]

    def take(self) -> tuple[str, str, int]:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def expect(self, kind: str, expected: str) -> tuple[str, str, int]:
        token = self.peek()
        if token[0] != kind:
            raise FormulaSyntaxError(
                f"unexpected token {token[1]!r}" if token[0] != "EOF"
                else "unexpected end of input",
                token[2],
                expected,
            )
        return self.take()

    def at_end(self) -> bool:
        return self.peek()[0] == "EOF"

    def formula(self) -> Formula:
        left = self.implication()
        if self.peek()[0] == "IFF":
            self.take()
            return Iff(left, self.formula())
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "IMPLIES":
            self.take()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        node = self.conjunction()
        while self.peek()[0] == "OR":
            self.take()
            node = Or(node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.unary()
        while self.peek()[0] == "AND":
            self.take()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        kind, text, position = self.peek()
        if kind == "NOT":
            self.take()
            return Not(self.unary())
        if kind == "LPAREN":
            self.take()
            inner = self.formula()
            self.expect("RPAREN", "')'")
            return inner
        if kind == "IDENT":
            return self.atom()
        raise FormulaSyntaxError(
            f"unexpected token {text!r}" if kind != "EOF"
            else "unexpected end of input",
            position,
            "an atom, '-', or '('",
        )

    def atom(self) -> Atom:
        _, name, position = self.expect("IDENT", "a predicate name")
        if name[:1].isupper():
            raise FormulaSyntaxError(
                f"variable {name!r} cannot stand alone as a formula",
                position,
                "a predicate name (lower-case initial)",
            )
        args: tuple[str, ...] = ()
        if self.peek()[0] == "LPAREN":
            self.take()
            parts = [self.expect("IDENT", "a constant or variable")[1]]
            while self.peek()[0] == "COMMA":
                self.take()
                parts.append(self.expect("IDENT", "a constant or variable")[1])
            self.expect("RPAREN", "')' or ','")
            args = tuple(parts)
        try:
            return self._sig.atom(name, args)
        except FormulaSyntaxError as clash:
            raise FormulaSyntaxError(clash.core, position) from None


def reference_formula(text: str, signature: Signature) -> Formula:
    """One formula, an optional period, then the end of the text."""
    parser = ReferenceParser(text, signature)
    node = parser.formula()
    if parser.peek()[0] == "DOT":
        parser.take()
    if not parser.at_end():
        _, token_text, position = parser.peek()
        raise FormulaSyntaxError(
            f"unexpected token {token_text!r}", position, "end of input"
        )
    return node


def reference_statements(text: str, signature: Signature) -> list[Formula]:
    """Zero or more formulas, each ended by a period."""
    parser = ReferenceParser(text, signature)
    out: list[Formula] = []
    while not parser.at_end():
        out.append(parser.formula())
        parser.expect("DOT", "'.' after the statement")
    return out


# ---------------------------------------------------------------------------
# Reference search
# ---------------------------------------------------------------------------


def reference_search(problem, cap: int) -> tuple[bool, int, dict[int, bool]]:
    """The search `sat._search` must repeat, written plainly.

    The same branching order, FIFO unit propagation, choice of unit literal,
    decision count, budget and model check, with the queue a `deque`, each
    decision a call of `decide`, and the model checked against a set of the
    true literals.
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
        nonlocal decisions
        decisions += 1
        if spent + decisions > cap:
            raise ResourceLimit(
                f"satisfiability search exceeded {cap} decisions"
            )
        return propagate(deque([lit]))

    satisfiable = propagate(deque(problem.assumptions))
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


# ---------------------------------------------------------------------------
# Reference grouping and build
# ---------------------------------------------------------------------------


def reference_groups(item_sets: Sequence[Iterable]) -> list[list[int]]:
    """Indices of item sets grouped by shared items, merged to a fixpoint.

    Each index starts as a group of its own holding its items; a pass moves
    every group into the first earlier kept group whose items meet its
    own, and passes repeat until one merges nothing.  Groups list their
    indices ascending and come ordered by their first index.
    """
    groups = [({i}, set(items)) for i, items in enumerate(item_sets)]
    merged = True
    while merged:
        merged = False
        kept: list[tuple[set, set]] = []
        for indices, items in groups:
            for other_indices, other_items in kept:
                if items & other_items:
                    other_indices |= indices
                    other_items |= items
                    merged = True
                    break
            else:
                kept.append((indices, items))
        groups = kept
    return sorted(sorted(indices) for indices, _ in groups)


def reference_build(
    axioms: Iterable[Formula],
    hypotheses: Iterable[Formula],
    signature: Signature,
) -> dict[str, object]:
    """What building a `DomainOfRules` must make, by four passes.

    The rules are checked as the domain checks them; then each rule's
    distinct atoms are listed left first and checked against the signature
    (those it did not make, in every rule they occur in), the atoms are
    numbered in the order of the lists, the rules translated in order, and
    the lists grouped by `reference_groups` into islands, whose axioms
    must be satisfiable by `reference_search`.  The result names what
    `built` reads of a domain, in `tests/test_domain_build.py`.
    """
    axioms = distinct_ground(axioms, "axiom")
    hyp_list = list(hypotheses)
    seen: set[Formula] = set()
    for formula in hyp_list:
        require_ground(formula, "hypothesis")
        if formula in seen:
            raise DuplicateHypothesis(
                f"hypothesis repeated: {print_formula(formula)}"
            )
        seen.add(formula)
        if formula in axioms:
            raise AxiomHypothesisOverlap(
                f"formula is both axiom and hypothesis: "
                f"{print_formula(formula)}"
            )
    rules = axioms + tuple(hyp_list)
    rule_atoms = []
    for rule in rules:
        atoms = tuple(dict.fromkeys(
            node for node in walk(rule) if isinstance(node, Atom)
        ))
        for atom in atoms:
            if signature._nodes.get(atom._key) is not atom:
                signature.check_atom(atom)
        rule_atoms.append(atoms)
    builder = CnfBuilder()
    for atom in chain(*rule_atoms):
        builder.add(atom)
    tops = [builder.add(rule) for rule in rules]
    first_hyp = len(axioms)
    islands = []
    island_of_hyp = [0] * len(hyp_list)
    island_of_atom = {}
    for number, group in enumerate(reference_groups(rule_atoms)):
        members = tuple(i - first_hyp for i in group if i >= first_hyp)
        axiom_tops = tuple(tops[i] for i in group if i < first_hyp)
        islands.append({
            "axiom_tops": axiom_tops,
            "hypotheses": members,
            "maximal": None,
            "consistency": {frozenset(): True},
        })
        for i in members:
            island_of_hyp[i] = number
        for i in group:
            island_of_atom.update(dict.fromkeys(rule_atoms[i], number))
    for island in islands:
        problem = builder.problem(island["axiom_tops"])
        if problem.assumptions and not reference_search(problem, 10**9)[0]:
            raise InconsistentAxioms("the axioms are jointly unsatisfiable")
    store = builder.store
    return {
        "names": list(store.names),
        "clauses": list(store.clauses),
        "occurrences": list(store.occurrences.items()),
        "literal": list(builder._literal.items()),
        "defs": list(builder._defs.items()),
        "hyp_tops": tuple(tops[first_hyp:]),
        "islands": islands,
        "island_of_hyp": island_of_hyp,
        "island_of_atom": island_of_atom,
        "predicates": signature.predicates,
        "constants": signature.constants,
    }


# ---------------------------------------------------------------------------
# Reference depth check
# ---------------------------------------------------------------------------


def reference_depth(
    v: Variety, k: int, probe: Iterable[Formula]
) -> DepthCheckResult:
    """The depth check `check_variety_depth` must repeat, walking every
    k-subset of the components in index order.

    A subset is checked only when every component in it holds the formula,
    and a formula's walk stops at the first failing subset or at the
    earliest failure found so far.  Entailment is asked of the variety's
    own domain, so this checks the walk, not the answers: varieties too big
    for truth tables can be compared with it.
    """
    selections = [frozenset(s) for s in v._selections]
    domain = v._domain
    failure: Optional[tuple[tuple[int, ...], Formula]] = None
    for phi in ProbeUniverse(probe).formulas:
        holding = {
            i for i, s in enumerate(selections)
            if domain.selection_entails(s, phi)
        }
        for combo in combinations(range(len(v)), k):
            if failure is not None and combo >= failure[0]:
                break
            if not holding.issuperset(combo):
                continue
            common = frozenset.intersection(*(selections[i] for i in combo))
            if not domain.selection_entails(common, phi):
                failure = (combo, phi)
                break
    if failure is None:
        return DepthCheckResult(True)
    return DepthCheckResult(False, *failure)


# ---------------------------------------------------------------------------
# Seeded corpus generators
# ---------------------------------------------------------------------------


def make_atoms(count: int) -> list[Atom]:
    return [Atom(name) for name in ATOM_NAMES[:count]]


def random_formula(
    rng: random.Random, atoms: Sequence[Atom], depth: int = 3
) -> Formula:
    if depth == 0 or rng.random() < 0.35:
        atom = rng.choice(atoms)
        return atom if rng.random() < 0.5 else Not(atom)
    kind = rng.randrange(5)
    if kind == 4:
        return Not(random_formula(rng, atoms, depth - 1))
    left = random_formula(rng, atoms, depth - 1)
    right = random_formula(rng, atoms, depth - 1)
    return (And, Or, Implies, Iff)[kind](left, right)


def random_domain(
    rng: random.Random,
    max_atoms: int = 10,
    max_hypotheses: int = 8,
    overall: Optional[str] = None,
) -> tuple[list[Formula], list[Formula]]:
    """A random (axioms, hypotheses) pair with consistent axioms.

    `overall` constrains the satisfiability of axioms plus all hypotheses:
    "consistent", "inconsistent", or None for no constraint.
    """
    while True:
        atoms = make_atoms(rng.randint(2, max_atoms))
        axioms: list[Formula] = []
        for _ in range(rng.randint(0, 2)):
            for _ in range(20):
                candidate = random_formula(rng, atoms, depth=2)
                if candidate in axioms:
                    continue
                if TableOracle(axioms + [candidate]).satisfiable(
                    axioms + [candidate]
                ):
                    axioms.append(candidate)
                    break
        hypotheses: list[Formula] = []
        want = rng.randint(1, max_hypotheses)
        for _ in range(60):
            if len(hypotheses) == want:
                break
            candidate = random_formula(rng, atoms, depth=2)
            if candidate in hypotheses or candidate in axioms:
                continue
            hypotheses.append(candidate)
        if not hypotheses:
            continue
        everything = axioms + hypotheses
        satisfiable = TableOracle(everything).satisfiable(everything)
        if overall == "consistent" and not satisfiable:
            continue
        if overall == "inconsistent" and satisfiable:
            continue
        return axioms, hypotheses


def random_variety(
    rng: random.Random,
    max_components: int = 6,
    max_atoms: int = 12,
    force_compatible: bool = False,
) -> Variety:
    """A random unlabeled variety over a fresh signature.

    With `force_compatible`, all component axioms are drawn true under one
    hidden assignment, so their union is satisfiable by construction.
    """
    atoms = make_atoms(rng.randint(2, max_atoms))
    table = TableOracle(atoms)
    row = rng.randrange(table.rows) if force_compatible else None
    signature = Signature()
    components = []
    for _ in range(rng.randint(1, max_components)):
        axioms: list[Formula] = []
        want = rng.randint(1, 4)
        for _ in range(80):
            if len(axioms) == want:
                break
            candidate = random_formula(rng, atoms, depth=2)
            if candidate in axioms:
                continue
            if row is not None and not table.mask(candidate) >> row & 1:
                continue
            axioms.append(candidate)
        if not axioms:
            axioms = [rng.choice(atoms)]
        components.append(Calculus(axioms, signature))
    return Variety(components, signature)


def rename_apart(formula: Formula, tag: int) -> Formula:
    """The formula with `tag` appended to every predicate name."""
    return map_atoms(formula, lambda a: Atom(f"{a.predicate}{tag}"))


def glued_corpus(seed: int):
    """(axioms, hypotheses, per-island atoms, rng) of a 2-4 island corpus.

    A few seeded random domains, renamed apart so they share no atom, are
    concatenated; the hypotheses are shuffled so that islands interleave in
    the index order.  The returned rng continues the seeded stream.
    """
    rng = random.Random(seed)
    count = rng.randint(2, 4)
    axioms, hypotheses, island_atoms = [], [], []
    for tag in range(count):
        ax, hyps = random_domain(
            rng, max_atoms=4, max_hypotheses=3 if count < 4 else 2
        )
        axioms += [rename_apart(f, tag) for f in ax]
        hypotheses += [rename_apart(f, tag) for f in hyps]
        atoms = set()
        for f in ax + hyps:
            atoms |= {rename_apart(a, tag) for a in atoms_of(f)}
        island_atoms.append(sorted(atoms, key=str))
    rng.shuffle(hypotheses)
    return axioms, hypotheses, island_atoms, rng
