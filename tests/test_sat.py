"""Decision procedure: branching contract, limits, and oracle agreement."""

import random

import pytest

import lri.engine
from lri import (
    Atom,
    DomainOfRules,
    Not,
    Or,
    ResourceLimit,
    Signature,
    atoms_of,
    parse_formula,
)
from lri import sat
from lri.engine import minimal_inconsistent_subset

from bruteforce import (
    DomainOracle,
    TableOracle,
    glued_corpus,
    make_atoms,
    random_domain,
    random_formula,
    reference_search,
)
from conftest import solver_problem


def _problem(texts):
    sig = Signature()
    return solver_problem([parse_formula(t, sig) for t in texts])


def _search(problem):
    return sat._search(problem, sat.DEFAULT_MAX_DECISIONS)


def _model(value, problem):
    """The search's assignment of the source atoms; untouched ones are False."""
    return {
        atom: value.get(var, False)
        for var, atom in enumerate(problem.store.names, 1)
        if isinstance(atom, Atom)
    }


def _premises(formulas, sig):
    """An axiom-free domain over the formulas, and the selection of all."""
    domain = DomainOfRules((), dict.fromkeys(formulas), sig)
    return domain, frozenset(range(len(domain.hypotheses)))


def is_consistent(formulas, sig):
    domain, everything = _premises(formulas, sig)
    return domain.consistent(everything)


def entails(premises, conclusion, sig):
    domain, everything = _premises(premises, sig)
    return domain.selection_entails(everything, conclusion)


def test_empty_clause_set_satisfiable():
    result = sat.solve(_problem([]))
    assert result.satisfiable
    assert result.decisions == 0


def test_store_refuses_an_empty_clause():
    """No search can be handed an empty clause: the store refuses it."""
    store = sat.ClauseStore()
    store.add((1,))
    for empty in ((), iter(())):
        with pytest.raises(ValueError, match="empty clause"):
            store.add(empty)
    assert store.clauses == [(1,)]
    assert store.occurrences == {1: [0]}


def test_contradictory_assumptions_are_unsatisfiable_without_decisions():
    result = sat.solve(_problem(["p", "q", "-p"]))
    assert not result.satisfiable
    assert result.decisions == 0


def test_unit_propagation_needs_no_decisions():
    # a chain of implications with the head asserted resolves by
    # propagation alone
    problem = _problem(["a", "a -> b", "b -> c", "c -> d"])
    satisfiable, decisions, value = _search(problem)
    assert satisfiable
    assert decisions == 0
    assert all(_model(value, problem)[Atom(n)] for n in "abcd")


def test_model_totalized_with_false_defaults():
    # q is mentioned only inside a dropped tautology, so no clause
    # constrains it and the search never assigns it
    problem = _problem(["p", "q | -q"])
    satisfiable, _, value = _search(problem)
    assert satisfiable
    assert problem.store.names.index(Atom("q")) + 1 not in value
    assert _model(value, problem)[Atom("q")] is False


def test_branch_order_lowest_index_false_first():
    # p | q alone: branching on p=False propagates q=True
    problem = _problem(["p | q"])
    satisfiable, decisions, value = _search(problem)
    assert satisfiable and decisions == 1
    assert _model(value, problem) == {Atom("p"): False, Atom("q"): True}
    # forcing p leaves q at its False default under the same ordering
    problem = _problem(["p | q", "p"])
    _, decisions, value = _search(problem)
    assert decisions == 0
    assert _model(value, problem) == {Atom("p"): True, Atom("q"): False}


def test_decision_limit_raises():
    texts = [f"a{i} | b{i}" for i in range(8)]
    with pytest.raises(ResourceLimit):
        sat.solve(_problem(texts), max_decisions=3)


def test_decision_limit_generous_cap_succeeds():
    texts = [f"a{i} | b{i}" for i in range(8)]
    assert sat.solve(_problem(texts), max_decisions=100).satisfiable


def test_is_consistent_and_entails():
    sig = Signature()
    axioms = [parse_formula(t, sig) for t in ["p -> q", "p"]]
    assert is_consistent(axioms, sig)
    assert entails(axioms, parse_formula("q", sig), sig)
    assert not entails(axioms, parse_formula("-q", sig), sig)
    contradictory = axioms + [parse_formula("-q", sig)]
    assert not is_consistent(contradictory, sig)
    # an inconsistent premise set entails anything
    assert entails(contradictory, parse_formula("r", sig), sig)


def test_entailment_monotone_under_extra_premises():
    rng = random.Random(77)
    atoms = make_atoms(4)
    checked = 0
    while checked < 120:
        premises = [random_formula(rng, atoms, 2) for _ in range(2)]
        extra = random_formula(rng, atoms, 2)
        goal = random_formula(rng, atoms, 2)
        sig = Signature()
        if entails(premises, goal, sig):
            assert entails(premises + [extra], goal, sig)
            checked += 1


def test_random_agreement_with_truth_tables():
    rng = random.Random(4099)
    atoms = make_atoms(4)
    for _ in range(200):
        formulas = [
            random_formula(rng, atoms, 3) for _ in range(rng.randint(1, 3))
        ]
        goal = random_formula(rng, atoms, 3)
        oracle = TableOracle(formulas + [goal])
        sig = Signature()
        assert is_consistent(formulas, sig) is oracle.satisfiable(formulas)
        assert entails(formulas, goal, sig) is oracle.entails(formulas, goal)


def test_minimal_inconsistent_subset():
    sig = Signature()
    texts = ["x", "p", "p -> q", "-q", "y | z"]
    formulas = [parse_formula(t, sig) for t in texts]
    core = minimal_inconsistent_subset(formulas, sig)
    assert set(core) == set(formulas[1:4])
    # dropping any member restores consistency
    for skip in range(len(core)):
        rest = [f for i, f in enumerate(core) if i != skip]
        assert is_consistent(rest, sig)


def test_minimal_inconsistent_subset_requires_conflict():
    sig = Signature()
    with pytest.raises(ValueError):
        minimal_inconsistent_subset([parse_formula("p", sig)], sig)


def test_verified_model_satisfies_every_formula():
    rng = random.Random(9001)
    atoms = make_atoms(5)
    for _ in range(100):
        formulas = [
            random_formula(rng, atoms, 3) for _ in range(rng.randint(1, 4))
        ]
        problem = solver_problem(formulas)
        satisfiable, _, value = _search(problem)
        if not satisfiable:
            continue
        literals = [
            atom if true else Not(atom)
            for atom, true in _model(value, problem).items()
        ]
        oracle = TableOracle(formulas)
        for formula in formulas:
            assert oracle.entails(literals, formula)


def _store_corpus(seed):
    """(axioms, hypotheses, atoms, rng): a random domain, or a glued one."""
    if seed % 2:
        axioms, hypotheses, island_atoms, rng = glued_corpus(seed)
        return axioms, hypotheses, sum(island_atoms, []), rng
    rng = random.Random(seed)
    axioms, hypotheses = random_domain(rng, max_atoms=5, max_hypotheses=6)
    atoms = {a for f in axioms + hypotheses for a in atoms_of(f)}
    return axioms, hypotheses, sorted(atoms, key=str), rng


@pytest.mark.parametrize("seed", range(24))
def test_store_searches_match_one_shot_clause_sets(seed, monkeypatch):
    """Each search under assumptions activates its one-shot clause set.

    Consistency and entailment questions come in random order on one
    domain, so satisfiable and unsatisfiable searches follow each other,
    and conclusions are asked anew, asked again and rolled back.  Every
    search's problem must list the clauses of the one-shot clause set the
    builder assembles, by a walk no memo takes part in, for the same top
    literals, and every answer must match the truth tables.
    """
    axioms, hypotheses, atoms, rng = _store_corpus(seed)
    conclusions = [random_formula(rng, atoms, depth=3) for _ in range(5)]
    fresh = Atom("fresh")
    conclusions += [fresh, Or(fresh, Not(atoms[0])), Or(fresh, Not(fresh))]
    domain = DomainOfRules(axioms, hypotheses, Signature())
    oracle = DomainOracle(axioms, hypotheses, extra=conclusions)
    real_solve = lri.engine.sat.solve
    verdicts = []

    def checked_solve(problem, max_decisions=None):
        result = real_solve(problem, max_decisions)
        clause_set = domain._builder.clause_set(problem.assumptions)
        assert problem.clauses == clause_set.clauses
        verdicts.append(result.satisfiable)
        return result

    monkeypatch.setattr(lri.engine.sat, "solve", checked_solve)
    for _ in range(80):
        chosen = [i for i in range(len(hypotheses)) if rng.random() < 0.5]
        mask = sum(1 << i for i in chosen)
        if rng.random() < 0.4:
            expected = oracle.consistent(mask)
            assert domain.consistent(frozenset(chosen)) is expected
        else:
            phi = rng.choice(conclusions)
            expected = oracle.entails(mask, phi)
            assert domain.selection_entails(frozenset(chosen), phi) is expected
    assert True in verdicts and False in verdicts


def _random_problem(rng):
    """A store of random clauses, a random part of it active, assumptions.

    Up to 16 variables and 45 clauses of 1 to 5 literals, over distinct
    variables as the clause builder writes them, so that some searches
    backtrack deep; up to 4 assumptions, which may contradict each other.
    """
    atoms = rng.randint(1, 16)
    store = sat.ClauseStore()
    for _ in range(rng.randint(0, 45)):
        chosen = rng.sample(range(1, atoms + 1), rng.randint(1, min(5, atoms)))
        store.add(v if rng.random() < 0.5 else -v for v in chosen)
    active = {n for n in range(len(store.clauses)) if rng.random() < 0.7}
    assumptions = tuple(
        rng.choice((v, -v))
        for v in rng.choices(range(1, atoms + 1), k=rng.randint(0, 4))
    )
    return sat.Problem(store, assumptions, active)


@pytest.mark.parametrize("seed", range(8))
def test_search_repeats_the_reference_search(seed):
    """`_search` gives the reference's answer, decisions and assignment.

    Random stores, active parts, assumptions and spent decisions, each
    searched under a small cap and under the default one; each search must
    leave the store's `spent` where the reference leaves it, and run out of
    budget at the same cap.  Each seed meets a problem the reference needs
    100 decisions or more for, so deep backtracking is covered too.
    """
    rng = random.Random(seed)
    limited = deepest = 0
    for _ in range(250):
        problem = _random_problem(rng)
        start = rng.randint(0, 3)
        small = rng.choice([0, 1, 2, 3, 5, 8, 30])
        for cap in (small, sat.DEFAULT_MAX_DECISIONS):
            outcomes = []
            for search in (reference_search, sat._search):
                problem.store.spent = start
                try:
                    outcomes.append(search(problem, cap))
                except ResourceLimit as err:
                    outcomes.append(str(err))
                outcomes.append(problem.store.spent)
            assert outcomes[:2] == outcomes[2:]
            limited += isinstance(outcomes[0], str)
        deepest = max(deepest, outcomes[0][1])  # the default cap's decisions
    assert 0 < limited < 250
    assert deepest >= 100
