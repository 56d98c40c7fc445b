"""Formula language: parsing, printing, grounding, signatures."""

import copy
import pickle
import random

import pytest

from lri import (
    And,
    ArityMismatch,
    Atom,
    EmptyDomain,
    FormulaSyntaxError,
    Iff,
    Implies,
    LriError,
    Not,
    Or,
    Signature,
    atoms_of,
    ground,
    is_ground,
    parse_formula,
    parse_statements,
    print_formula,
)
from lri.formula import (
    _tokenize, atom_groups, map_atoms, substitute, variables_of, walk,
)

from bruteforce import (
    make_atoms,
    random_formula,
    reference_formula,
    reference_groups,
    reference_statements,
    reference_tokens,
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("p", Atom("p")),
        ("act -> perm", Implies(Atom("act"), Atom("perm"))),
        (
            "-(a & b) | c -> d",
            Implies(
                Or(Not(And(Atom("a"), Atom("b"))), Atom("c")),
                Atom("d"),
            ),
        ),
        ("-p", Not(Atom("p"))),
        ("--p", Not(Not(Atom("p")))),
        ("p & q & r", And(And(Atom("p"), Atom("q")), Atom("r"))),
        ("p | q | r", Or(Or(Atom("p"), Atom("q")), Atom("r"))),
        ("p -> q -> r", Implies(Atom("p"), Implies(Atom("q"), Atom("r")))),
        ("p <-> q <-> r", Iff(Atom("p"), Iff(Atom("q"), Atom("r")))),
        ("p & q | r", Or(And(Atom("p"), Atom("q")), Atom("r"))),
        ("p | q -> r & s", Implies(Or(Atom("p"), Atom("q")),
                                   And(Atom("r"), Atom("s")))),
        ("p -> q <-> r", Iff(Implies(Atom("p"), Atom("q")), Atom("r"))),
        ("-p & q", And(Not(Atom("p")), Atom("q"))),
        ("(p | q) & r", And(Or(Atom("p"), Atom("q")), Atom("r"))),
        ("holds(a, b)", Atom("holds", ("a", "b"))),
        ("holds(X) -> legal(X)", Implies(Atom("holds", ("X",)),
                                         Atom("legal", ("X",)))),
        ("p.", Atom("p")),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_parse(text, expected):
    assert parse_formula(text, Signature()) == expected


def test_parse_statements_with_comments():
    text = """
    # a comment
    act.        # trailing comment
    act -> perm.
    """
    sig = Signature()
    assert parse_statements(text, sig) == [
        Atom("act"),
        Implies(Atom("act"), Atom("perm")),
    ]
    assert parse_statements("# nothing here", Signature()) == []


@pytest.mark.parametrize(
    "text",
    ["", "p &", "(p", "p q", "p.q", "&p", "p(", "p(a,)", "p()", "->", "P"],
)
def test_syntax_errors(text):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(text, Signature())


def test_syntax_error_carries_position_and_expected():
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula("p & ", Signature())
    assert info.value.position == 4
    assert info.value.expected
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula("(p | q", Signature())
    assert info.value.position == 6
    assert "')'" in info.value.expected


def test_unlexable_character_is_positioned():
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula("p ? q", Signature())
    assert info.value.position == 2


# Symbols of the grammar, comments and layout, and characters it refuses.
LEXER_PIECES = [
    "p", "q_1", "X", "_z", "holds", "(", ")", ",", ".", "-", "&", "|",
    "->", "<->", "<", ">", " ", "\t", "\n", "\r\n", "# note", "#", "\xa0",
    ":", "$", "@", "?", "1", "\u00e9", "\u03a9", "\u00df", "\\",
]


def _lexed(lexer, text):
    try:
        return lexer(text)
    except FormulaSyntaxError as err:
        return ("error", str(err), err.position)


def test_lexer_matches_one_match_per_position():
    rng = random.Random(13)
    errors = 0
    for _ in range(3000):
        text = "".join(rng.choices(LEXER_PIECES, k=rng.randint(0, 14)))
        found = _lexed(_tokenize, text)
        assert found == _lexed(reference_tokens, text), repr(text)
        errors += found[0] == "error"
    assert 300 < errors < 2700


# Names (an upper-case initial is a variable) and every grammar symbol.
PARSER_PIECES = [
    "p", "q", "holds", "a", "b", "X", "Y", "-", "&", "|", "->", "<->",
    "(", ")", ",", ".", " ",
]


def _formula_text(rng, depth):
    """A well-formed formula, sometimes with arities or roles that clash."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.05:
            return rng.choice(["a", "holds", "holds(a)", "p(b)"])
        if rng.random() < 0.3:
            return f"holds({', '.join(rng.choices('abXY', k=2))})"
        return rng.choice(["p", "q", "r"])
    if roll < 0.45:
        return "-" + _formula_text(rng, depth - 1)
    if roll < 0.55:
        return "(" + _formula_text(rng, depth - 1) + ")"
    op = rng.choice(["&", "|", "->", "<->"])
    left = _formula_text(rng, depth - 1)
    return f"{left} {op} {_formula_text(rng, depth - 1)}"


def _parser_input(rng):
    """Random pieces, statements, truncated or spliced ones, deep nesting."""
    kind = rng.randrange(5)
    if kind == 0:
        return "".join(rng.choices(PARSER_PIECES, k=rng.randint(0, 12)))
    count = rng.choice([1, 1, 1, 2, 3])
    text = ". ".join(
        _formula_text(rng, rng.randint(0, 5)) for _ in range(count)
    ) + rng.choice(["", ".", " ."])
    if kind == 2:
        text = text[: rng.randint(0, len(text))]
    elif kind == 3:
        cut = rng.randint(0, len(text))
        piece = " ".join(rng.choices(PARSER_PIECES, k=rng.randint(1, 2)))
        text = text[:cut] + f" {piece} " + text[cut + rng.randint(0, 3):]
    elif kind == 4:
        depth = rng.randint(1, 150)
        opening = "".join(rng.choices(["(", "-", "-("], k=depth))
        closing = ")" * (opening.count("(") + rng.choice([0, 0, 0, -1, 1]))
        text = opening + _formula_text(rng, 2) + closing
    return text


def _parsed(parse, text):
    try:
        return parse(text, Signature())
    except LriError as err:
        return (type(err), str(err), getattr(err, "position", None),
                getattr(err, "expected", None))


def test_parser_matches_recursive_descent_reference():
    rng = random.Random(14)
    trees = errors = deep = 0
    for _ in range(3000):
        text = _parser_input(rng)
        deep += text.count("(") >= 60
        for parse, reference in (
            (parse_formula, reference_formula),
            (parse_statements, reference_statements),
        ):
            found = _parsed(parse, text)
            assert found == _parsed(reference, text), repr(text)
            if isinstance(found, tuple):
                errors += 1
            else:
                trees += 1
    assert trees > 1000 and errors > 1000 and deep > 100


def test_deep_nesting_parses():
    # a parenthesis level costs the parser two frames
    assert parse_formula("(" * 300 + "p" + ")" * 300) == Atom("p")
    assert parse_formula("-(" * 200 + "p" + ")" * 200) == parse_formula(
        "-" * 200 + "p"
    )


def test_open_signature_declares_on_sight():
    sig = Signature()
    parse_formula("holds(a) -> q", sig)
    assert dict(sig.predicates) == {"holds": 1, "q": 0}
    assert sig.constants == ("a",)


def test_arity_mismatch():
    sig = Signature()
    parse_formula("holds(a)", sig)
    with pytest.raises(ArityMismatch):
        parse_formula("holds(a, b)", sig)
    with pytest.raises(ArityMismatch):
        parse_formula("holds", sig)


def test_predicate_and_constant_namespaces_are_disjoint():
    sig = Signature()
    parse_formula("p(a)", sig)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("a", sig)


@pytest.mark.parametrize(
    "text,position",
    [("q & -(r | a)", 10), ("q & s(p)", 4), ("q(b, p)", 0)],
)
def test_a_name_clash_is_reported_at_the_clashing_atom(text, position):
    sig = Signature()
    parse_formula("p(a)", sig)
    with pytest.raises(FormulaSyntaxError, match="is already a") as err:
        parse_formula(text, sig)
    assert err.value.position == position


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def test_print_is_fully_parenthesized():
    f = parse_formula("-(a & b) | c -> d", Signature())
    assert print_formula(f) == "((-(a & b) | c) -> d)"
    assert print_formula(Atom("holds", ("a", "b"))) == "holds(a, b)"


def test_parse_print_round_trip_random():
    rng = random.Random(101)
    atoms = make_atoms(6)
    for _ in range(300):
        f = random_formula(rng, atoms, depth=4)
        assert parse_formula(print_formula(f), Signature()) == f


def test_round_trip_with_variables():
    sig = Signature()
    f = parse_formula("holds(X, a) -> legal(X)", sig)
    assert parse_formula(print_formula(f), Signature()) == f


# ---------------------------------------------------------------------------
# Grounding and evaluation
# ---------------------------------------------------------------------------


def test_ground_no_variables_is_identity():
    sig = Signature(constants=["a", "b"])
    f = parse_formula("perm", sig)
    assert ground(f, sig) == [f]


def test_ground_one_variable():
    sig = Signature(constants=["a", "b"])
    schema = parse_formula("holds(X) -> legal(X)", sig)
    assert [print_formula(f) for f in ground(schema, sig)] == [
        "(holds(a) -> legal(a))",
        "(holds(b) -> legal(b))",
    ]


def test_ground_two_variables_full_product():
    sig = Signature(constants=["a", "b"])
    schema = parse_formula("r(X, Y)", sig)
    assert [str(f) for f in ground(schema, sig)] == [
        "r(a, a)", "r(a, b)", "r(b, a)", "r(b, b)",
    ]


def test_ground_cardinality_property():
    rng = random.Random(7)
    sig = Signature(constants=["a", "b", "c"])
    for _ in range(50):
        n_vars = rng.randint(1, 3)
        variables = ["X", "Y", "Z"][:n_vars]
        parts = [
            Atom("q", tuple(rng.choice(variables) for _ in range(2)))
            for _ in range(3)
        ]
        schema = And(And(parts[0], parts[1]), parts[2])
        used = variables_of(schema)
        instances = ground(schema, sig)
        assert len(instances) == 3 ** len(used)
        assert len(set(instances)) == len(instances)


def test_ground_empty_domain():
    sig = Signature()
    schema = parse_formula("holds(X)", sig)
    with pytest.raises(EmptyDomain):
        ground(schema, sig)


def _schema_atoms():
    names = ["a", "b", "X", "Y"]
    return [Atom("p")] + [
        Atom(predicate, (first, second))
        for predicate in ("r", "s")
        for first in names
        for second in names
    ]


def _ground_flags_hold(formula):
    return all(
        is_ground(node) == (not variables_of(node)) for node in walk(formula)
    )


def test_groundness_is_kept_on_every_node():
    rng = random.Random(5)
    sig = Signature(constants=["a", "b"])
    atoms = _schema_atoms()
    for _ in range(300):
        f = random_formula(rng, atoms, depth=3)
        bound = rng.sample("XY", rng.randint(0, 2))
        binding = {v: rng.choice("ab") for v in bound}
        made = [
            f,
            substitute(f, binding),
            substitute(f, binding, sig.atom),
            copy.copy(f),
            copy.deepcopy(f),
            pickle.loads(pickle.dumps(f)),
            *ground(f, sig),
        ]
        for g in made:
            assert _ground_flags_hold(g), print_formula(g)
        assert all(is_ground(g) for g in made[6:])


def test_grounding_shares_atom_nodes():
    sig = Signature(constants=["a", "b"])
    schema = parse_formula("r(X, a) -> (p & r(a, X))", sig)
    first, second = ground(schema, sig)
    assert first.right.right is first.left is sig.atom("r", ("a", "a"))
    assert first.right.left is second.right.left is parse_formula("p", sig)
    assert second.left is sig.atom("r", ("b", "a"))


def test_substitute_and_groundness():
    sig = Signature(constants=["a"])
    schema = parse_formula("holds(X) & p", sig)
    assert not is_ground(schema)
    instance = substitute(schema, {"X": "a"})
    assert is_ground(instance)
    assert print_formula(instance) == "(holds(a) & p)"


def test_map_atoms_rebuilds_every_connective():
    rng = random.Random(9)
    atoms = _schema_atoms()
    renaming = {"p": "q", "r": "t", "s": "u"}
    inverse = {new: old for old, new in renaming.items()}

    def renamed(table):
        return lambda atom: Atom(table[atom.predicate], atom.args)

    for _ in range(200):
        f = random_formula(rng, atoms, depth=4)
        assert map_atoms(f, lambda atom: atom) == f
        there = map_atoms(f, renamed(renaming))
        assert {atom.predicate for atom in atoms_of(there)} <= set(inverse)
        assert map_atoms(there, renamed(inverse)) == f


@pytest.mark.parametrize(
    "text,expected",
    [
        ("p", {Atom("p")}),
        ("act -> perm", {Atom("act"), Atom("perm")}),
        ("p & -p", {Atom("p")}),
    ],
)
def test_atoms_of(text, expected):
    assert atoms_of(parse_formula(text, Signature())) == expected


def test_atom_groups_match_the_reference_grouping():
    """`atom_groups` groups as `reference_groups` merges, over any hashable.

    Seeded random lists of int sets and of atom sets, with empty sets,
    repeated items and singletons, give the same groups: members
    ascending, groups in the order of their first members.
    """
    # The join makes set 2 the root of the first group, so a grouping in
    # root order would list the lone empty set first.
    assert atom_groups([{1, 2}, set(), {3}, {2, 3}, {4}, {4}]) == [
        [0, 2, 3], [1], [4, 5],
    ]
    atoms = make_atoms(8)
    for seed in range(300):
        rng = random.Random(seed)
        pool = range(12) if seed % 2 else atoms
        item_sets = [
            [rng.choice(pool) for _ in range(rng.choice([0, 1, 1, 2, 3, 5]))]
            for _ in range(rng.randrange(13))
        ]
        assert atom_groups(item_sets) == reference_groups(item_sets), seed
