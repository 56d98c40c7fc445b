"""Clause-form translation: hygiene, sharing, and equisatisfiability."""

import random

import pytest

from lri import Atom, FormulaSyntaxError, Not, Signature, parse_formula, sat
from lri.cnf import AUX_PREFIX, CnfBuilder, clausify, is_aux, to_dimacs
from lri.kb import load

from bruteforce import TableOracle, make_atoms, random_formula
from conftest import RULE_FILES, solver_problem


def _parse_all(texts, sig):
    return [parse_formula(t, sig) for t in texts]


def _atoms(problem, sig):
    """Each variable the problem's clauses use, decoded by the registry."""
    used = {abs(lit) for clause in problem.clauses for lit in clause}
    return {var: sig.atom_at(var - 1) for var in used}


def _satisfiable(texts):
    sig = Signature()
    return sat.solve(solver_problem(_parse_all(texts, sig), sig)).satisfiable


def test_single_literal_passes_through():
    sig = Signature()
    cs = clausify(_parse_all(["p"], sig), sig)
    assert cs.clauses == (frozenset({1}),)
    assert _atoms(cs, sig) == {1: Atom("p")}


def test_negated_literal_folds():
    sig = Signature()
    cs = clausify(_parse_all(["-p"], sig), sig)
    assert cs.clauses == (frozenset({-1}),)
    assert _atoms(cs, sig) == {1: Atom("p")}


def test_direct_contradiction_unsat():
    assert not _satisfiable(["p", "-p"])


def test_biconditional_forces_value():
    assert not _satisfiable(["a <-> b", "a", "-b"])
    sig = Signature()
    problem = solver_problem(_parse_all(["a <-> b", "a"], sig), sig)
    satisfiable, decisions, value = sat._search(problem, 0)
    assert satisfiable and decisions == 0
    assert value[sig.index_of(Atom("b")) + 1] is True


def test_shared_subformulas_share_definitions():
    sig = Signature()
    f, g = _parse_all(["p & q", "(p & q) | r"], sig)
    builder = CnfBuilder(sig)
    top_f = builder.add(f)
    top_g = builder.add(g)
    assert builder.add(f) == top_f
    cs = builder.clause_set([top_f, top_g])
    # one definition for the conjunction, one for the disjunction
    assert sum(map(is_aux, _atoms(cs, sig).values())) == 2


def test_tautologous_clauses_dropped():
    sig = Signature()
    cs = clausify(_parse_all(["p | -p"], sig), sig)
    for clause in cs.clauses:
        assert not any(-lit in clause for lit in clause)
    assert _satisfiable(["p | -p"])


def test_aux_namespace_not_parseable():
    aux = Atom(f"{AUX_PREFIX}0")
    assert is_aux(aux)
    with pytest.raises(FormulaSyntaxError):
        parse_formula(str(aux), Signature())


def test_aux_atoms_rejected_as_input():
    sig = Signature()
    builder = CnfBuilder(sig)
    with pytest.raises(ValueError):
        builder.add(Not(Atom("$3")))


def test_clause_sets_deterministic():
    def build():
        sig = Signature()
        return clausify(
            _parse_all(["(p -> q) <-> (r | -s)", "q & -r"], sig), sig
        )

    assert build().clauses == build().clauses


def test_rollback_forgets_later_translations():
    sig = Signature()
    builder = CnfBuilder(sig)
    kept = builder.add(parse_formula("p & q", sig))
    mark = builder.mark()
    later = parse_formula("(p | r) -> (p & q)", sig)
    # a problem reads the live store, so its clauses are read before rollback
    first = builder.clause_set([kept, builder.add(later)])
    first_clauses, first_atoms = first.clauses, _atoms(first, sig)
    builder.rollback(mark)
    assert builder.mark() == mark
    assert _atoms(builder.clause_set([kept]), sig).keys() == {1, 2, 3}
    # the defining atoms are numbered from the mark again
    again = builder.clause_set([kept, builder.add(later)])
    assert again.clauses == first_clauses and _atoms(again, sig) == first_atoms
    assert sig.registered_atoms() == tuple(
        Atom(name) for name in ("p", "q", "$0", "r", "$1", "$2")
    )


def test_random_equisatisfiability_small():
    rng = random.Random(202)
    atoms = make_atoms(4)
    for _ in range(250):
        formulas = [
            random_formula(rng, atoms, depth=3)
            for _ in range(rng.randint(1, 4))
        ]
        expected = TableOracle(formulas).satisfiable(formulas)
        sig = Signature()
        assert sat.solve(solver_problem(formulas, sig)).satisfiable is expected


def test_dimacs_listing():
    sig = Signature()
    cs = clausify(_parse_all(["p & q"], sig), sig)
    text = to_dimacs(cs, sig)
    lines = text.splitlines()
    assert lines[0] == "c 1 = p"
    assert lines[1] == "c 2 = q"
    assert lines[2] == "c 3 = $0"
    assert lines[3] == f"p cnf 3 {len(cs.clauses)}"
    assert all(line.endswith(" 0") for line in lines[4:])


@pytest.mark.parametrize(
    "path", RULE_FILES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_dimacs_lists_the_domains_own_store(path):
    """A fresh translation of the rules lists as the domain's own store.

    Both builders translate the same rules in the same order over one
    signature, so they name the same defining atoms, and the listing over
    the domain's rule tops equals `check --dimacs` byte for byte.
    """
    base = load(str(path))
    domain = base.domain()
    rules = domain.axioms + domain.hypotheses
    tops = [domain._builder.add(f) for f in rules]
    own = to_dimacs(domain._builder.clause_set(tops), base.signature)
    assert to_dimacs(clausify(rules, base.signature), base.signature) == own
