"""The variety layer checked against the truth-table oracle.

Upper levels, compatibility, theorem membership and the depth law are
consistency and entailment questions about components' axiom sets, so each
is answered here a second time from truth tables, on seeded random
varieties (some renamed) and on the varieties of seeded random domains.
"""

import itertools
import random

from bruteforce import (
    ATOM_NAMES,
    DomainOracle,
    TableOracle,
    random_domain,
    random_formula,
    random_variety,
)
from families import paired_exceptions
from lri import (
    Atom,
    Calculus,
    Not,
    Or,
    ProbeUniverse,
    RenamingMap,
    Signature,
    Variety,
    apply_renaming,
    atoms_of,
    check_variety_depth,
    in_reasonable_theory,
    is_compatible,
    new_domain,
    theorem_in,
    upper_level,
    variety_of,
)
from lri.cnf import clausify

VARIETY_SEEDS = range(40)
DOMAIN_SEEDS = range(40)


def _renamed(rng: random.Random, v: Variety) -> Variety:
    """The variety with a random atom permutation applied to some components."""
    names = list(ATOM_NAMES)
    shuffled = names[:]
    rng.shuffle(shuffled)
    m = RenamingMap(dict(zip(names, shuffled)))
    components = [
        apply_renaming(m, c) if rng.random() < 0.5 else c
        for c in v.components
    ]
    return Variety(components, v.signature)


def _extra(rng: random.Random, v: Variety) -> list:
    atoms = sorted(
        {a for i in range(len(v)) for f in v.renamed_axioms(i)
         for a in atoms_of(f)},
        key=str,
    )
    return [random_formula(rng, atoms, depth=2) for _ in range(4)]


def _expected_depth(oracle, axiom_sets, probed, formulas, k):
    """(holds, failing components, counterexample) by the depth law's text."""
    for combo in itertools.combinations(range(len(axiom_sets)), k):
        shared_axioms = frozenset.intersection(*(axiom_sets[i] for i in combo))
        shared = [
            phi for phi in formulas if all(phi in probed[i] for i in combo)
        ]
        if not shared_axioms and not shared:
            continue
        for phi in shared:
            if not oracle.entails(list(shared_axioms), phi):
                return False, combo, phi
    return True, None, None


def _varieties():
    for seed in VARIETY_SEEDS:
        rng = random.Random(seed)
        v = random_variety(rng, max_components=4, max_atoms=6)
        yield rng, v
        yield rng, _renamed(rng, v)


def test_variety_questions_agree_with_truth_tables():
    checked = 0
    for rng, v in _varieties():
        n = len(v)
        probe = ProbeUniverse.covering(v, _extra(rng, v))
        formulas = probe.formulas
        oracle = TableOracle(formulas)
        axioms = [list(v.renamed_axioms(i)) for i in range(n)]
        probed = [
            frozenset(phi for phi in formulas if oracle.entails(axioms[i], phi))
            for i in range(n)
        ]

        assert upper_level(v, probe) == tuple(
            phi for phi in formulas if any(phi in p for p in probed)
        )
        for r in range(1, n + 1):
            for subset in itertools.combinations(range(n), r):
                union = [f for i in subset for f in axioms[i]]
                assert is_compatible(v, subset) is oracle.satisfiable(union)
        for i in range(n):
            calculus = Calculus(axioms[i], v.signature)
            for phi in formulas:
                assert theorem_in(calculus, phi) is (phi in probed[i])
        axiom_sets = [frozenset(a) for a in axioms]
        for k in range(1, n + 1):
            result = check_variety_depth(v, k, probe)
            expected = _expected_depth(oracle, axiom_sets, probed, formulas, k)
            assert (
                result.holds, result.failing_components, result.counterexample
            ) == expected
        checked += 1
    assert checked == 2 * len(VARIETY_SEEDS)


def test_domain_variety_upper_level_is_the_reasonable_theory():
    for seed in DOMAIN_SEEDS:
        rng = random.Random(seed)
        axioms, hypotheses = random_domain(rng, max_atoms=6, max_hypotheses=5)
        domain = new_domain(axioms, hypotheses)
        atoms = sorted(
            {a for f in axioms + hypotheses for a in atoms_of(f)}, key=str
        )
        probe = ProbeUniverse(
            axioms + hypotheses
            + [random_formula(rng, atoms, depth=2) for _ in range(6)]
        )
        oracle = DomainOracle(axioms, hypotheses, probe.formulas)
        expected = tuple(p for p in probe if oracle.reasonable(p))
        assert tuple(p for p in probe if in_reasonable_theory(domain, p)) == (
            expected
        )
        assert upper_level(variety_of(domain), probe) == expected


def test_all_four_clauses_over_two_atoms_are_incompatible():
    sig = Signature()
    p, q = Atom("p"), Atom("q")
    clauses = [Or(p, q), Or(Not(p), q), Or(p, Not(q)), Or(Not(p), Not(q))]
    v = Variety([Calculus([f], sig) for f in clauses], sig)
    assert not is_compatible(v, range(4))


def test_variety_questions_stay_inside_islands(solves):
    """No search of a domain's variety spans a whole component.

    Six paired-exception islands give 64 components of 12 formulas each;
    a question about one island's atom, or about two components that
    differ in one island, needs only that island's clauses.
    """
    sig = Signature()
    axioms, hypotheses, *_ = paired_exceptions(6)
    v = variety_of(new_domain(axioms, hypotheses, sig))
    assert len(v) == 64
    whole = len(clausify(v.renamed_axioms(0)).clauses)

    solves.clear()
    assert upper_level(v, [Atom("q0")]) == (Atom("q0"),)
    assert not is_compatible(v, [0, 1])
    sizes = [len(problem.clauses) for problem in solves]
    assert sizes
    assert max(sizes) < whole, (max(sizes), whole)
