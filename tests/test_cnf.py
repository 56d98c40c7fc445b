"""Clause-form translation: hygiene, sharing, and equisatisfiability."""

import random

import pytest

from lri import Atom, FormulaSyntaxError, Not, Signature, parse_formula, sat
from lri.cli import check_doc
from lri.cnf import CnfBuilder, clausify, to_dimacs
from lri.formula import walk
from lri.kb import load

from bruteforce import TableOracle, make_atoms, random_formula
from conftest import RULE_FILES, solver_problem


def _parse_all(texts, sig):
    return [parse_formula(t, sig) for t in texts]


def _atoms(problem):
    """Each variable the problem's clauses use, by its name in the store."""
    used = {abs(lit) for clause in problem.clauses for lit in clause}
    return {var: problem.store.names[var - 1] for var in used}


def _satisfiable(texts):
    return sat.solve(solver_problem(_parse_all(texts, Signature()))).satisfiable


def test_single_literal_passes_through():
    cs = clausify(_parse_all(["p"], Signature()))
    assert cs.clauses == (frozenset({1}),)
    assert _atoms(cs) == {1: Atom("p")}


def test_negated_literal_folds():
    cs = clausify(_parse_all(["-p"], Signature()))
    assert cs.clauses == (frozenset({-1}),)
    assert _atoms(cs) == {1: Atom("p")}


def test_direct_contradiction_unsat():
    assert not _satisfiable(["p", "-p"])


def test_biconditional_forces_value():
    assert not _satisfiable(["a <-> b", "a", "-b"])
    problem = solver_problem(_parse_all(["a <-> b", "a"], Signature()))
    satisfiable, decisions, value = sat._search(problem, 0)
    assert satisfiable and decisions == 0
    assert value[problem.store.names.index(Atom("b")) + 1] is True


def test_shared_subformulas_share_definitions():
    sig = Signature()
    f, g = _parse_all(["p & q", "(p & q) | r"], sig)
    builder = CnfBuilder()
    top_f = builder.add(f)
    top_g = builder.add(g)
    assert builder.add(f) == top_f
    cs = builder.clause_set([top_f, top_g])
    # one definition for the conjunction, one for the disjunction
    names = _atoms(cs).values()
    assert sorted(n for n in names if isinstance(n, str)) == ["$0", "$1"]


def test_tautologous_clauses_dropped():
    cs = clausify(_parse_all(["p | -p"], Signature()))
    for clause in cs.clauses:
        assert not any(-lit in clause for lit in clause)
    assert _satisfiable(["p | -p"])


def test_aux_namespace_not_parseable():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("$0", Signature())


def test_a_dollar_atom_built_in_code_is_an_ordinary_atom():
    """No text parses to `Atom("$3")`, but one made in code is an atom.

    It takes a variable of its own, which is no definition's, not even
    that of the fourth definition, named `$3` too.
    """
    builder = CnfBuilder()
    rules = _parse_all(["(p & q) | (q -> r)", "r <-> p"], Signature())
    tops = [builder.add(f) for f in rules]
    names = builder.store.names
    assert names[-1] == "$3"
    aux = Atom("$3")
    var = builder.add(aux)
    assert names[var - 1] is aux and var not in builder._defs
    assert builder.add(Not(aux)) == -var
    assert sat.solve(builder.problem(tops + [var])).satisfiable
    assert sat.solve(builder.problem(tops + [-var])).satisfiable
    assert not sat.solve(builder.problem([var, -var])).satisfiable


def test_clause_sets_deterministic():
    def build():
        return clausify(
            _parse_all(["(p -> q) <-> (r | -s)", "q & -r"], Signature())
        )

    assert build().clauses == build().clauses


def test_rollback_forgets_later_translations():
    sig = Signature()
    builder = CnfBuilder()
    names = builder.store.names
    kept = builder.add(parse_formula("p & q", sig))
    mark = builder.mark()
    later = parse_formula("(p | r) -> (p & q)", sig)
    # a problem reads the live store, so its clauses are read before rollback
    first = builder.clause_set([kept, builder.add(later)])
    first_clauses, first_atoms = first.clauses, _atoms(first)
    assert len(names) == 6
    builder.rollback(mark)
    assert builder.mark() == mark
    assert names == [Atom("p"), Atom("q"), "$0"]
    assert _atoms(builder.clause_set([kept])).keys() == {1, 2, 3}
    # the variables are numbered from the mark again
    again = builder.clause_set([kept, builder.add(later)])
    assert again.clauses == first_clauses and _atoms(again) == first_atoms
    assert names == [Atom("p"), Atom("q"), "$0", Atom("r"), "$1", "$2"]


def test_number_atoms_lists_every_atoms_variable():
    """`number_atoms` lists the variable of every atom it meets.

    It numbers the new atoms in the order first met, and lists every atom's
    variable in walk order, repeats included.
    """
    sig = Signature()
    builder = CnfBuilder()
    builder.add(parse_formula("q", sig))
    formula = parse_formula("(p -> q) & (r | -p) & q", sig)
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert builder.number_atoms(walk(formula)) == ([p, r], [2, 1, 3, 2, 1])
    assert builder.store.names == [q, p, r]
    # a second call numbers nothing new and lists the same variables
    assert builder.number_atoms(walk(formula)) == ([], [2, 1, 3, 2, 1])
    assert builder.store.names == [q, p, r]


def test_random_equisatisfiability_small():
    rng = random.Random(202)
    atoms = make_atoms(4)
    for _ in range(250):
        formulas = [
            random_formula(rng, atoms, depth=3)
            for _ in range(rng.randint(1, 4))
        ]
        expected = TableOracle(formulas).satisfiable(formulas)
        assert sat.solve(solver_problem(formulas)).satisfiable is expected


def test_dimacs_listing():
    cs = clausify(_parse_all(["p & q"], Signature()))
    text = to_dimacs(cs)
    lines = text.splitlines()
    assert lines[0] == "c 1 = p"
    assert lines[1] == "c 2 = q"
    assert lines[2] == "c 3 = $0"
    assert lines[3] == f"p cnf 3 {len(cs.clauses)}"
    assert all(line.endswith(" 0") for line in lines[4:])


@pytest.mark.parametrize(
    "path", RULE_FILES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_dimacs_lists_the_domains_own_store(path, tmp_path):
    """A fresh translation of the rules lists as the domain's own store.

    Both builders number the rules' atoms first and then translate the same
    rules in the same order, so they number and name the same variables:
    the listing over the domain's rule tops, and the file `check --dimacs`
    writes from the domain's search over every island and hypothesis, equal
    the fresh translation's byte for byte.  Listing adds nothing to the
    domain's store.
    """
    base = load(str(path))
    domain = base.domain()
    rules = domain.axioms + domain.hypotheses
    store = domain._builder.store
    extent = (len(store.clauses), len(store.names))
    tops = [domain._builder.add(f) for f in rules]
    own = to_dimacs(domain._builder.clause_set(tops))
    target = tmp_path / "clauses.cnf"
    check_doc(base, domain, str(target))
    assert (len(store.clauses), len(store.names)) == extent
    fresh = to_dimacs(clausify(rules))
    assert fresh == own
    assert target.read_bytes() == fresh.encode("utf-8")
