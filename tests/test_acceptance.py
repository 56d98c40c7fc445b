"""Acceptance gate: ten checks pinning the package's externally promised behavior.

Each test prints one PASS line with its measured counts when it succeeds;
a failure is an ordinary pytest failure.  Criteria 1 and 2 share one seeded
200-domain corpus; every randomized check runs on fixed seeds, so reruns are
byte-for-byte repeatable.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from lri import (
    And,
    Atom,
    Not,
    ProbeUniverse,
    Signature,
    atoms_of,
    check_variety_depth,
    discretize,
    in_reasonable_theory,
    is_compatible,
    is_connected,
    is_discrete,
    justifications,
    maximal_consistent_contexts,
    maximal_positions,
    new_domain,
    parse_formula,
    print_formula,
    upper_level,
    variety_of,
    witness_variety,
)
from lri.kb import dump_domain, load, loads

from bruteforce import (
    DomainOracle,
    TableOracle,
    random_domain,
    random_formula,
    random_variety,
)
from conftest import build_domain

GOLDEN = Path(__file__).parent / "data" / "golden"
TRANSCRIPT = Path(__file__).parent / "data" / "repl_transcript.txt"

# criteria 1 and 2 evaluate the same corpus; built once, kept here
_corpus = None


def _rule_atoms(axioms, hypotheses):
    atoms = set()
    for f in axioms + hypotheses:
        atoms |= atoms_of(f)
    return sorted(atoms, key=lambda a: (a.predicate, a.args))


def _inference_corpus():
    global _corpus
    if _corpus is None:
        rng = random.Random(640201)
        corpus = []
        for _ in range(200):
            axioms, hypotheses = random_domain(
                rng, max_atoms=10, max_hypotheses=8
            )
            atoms = _rule_atoms(axioms, hypotheses)
            probes = list(dict.fromkeys(
                hypotheses
                + axioms
                + [random_formula(rng, atoms, depth=2) for _ in range(4)]
            ))
            oracle = DomainOracle(axioms, hypotheses, extra=probes)
            domain = new_domain(axioms, hypotheses)
            corpus.append((axioms, hypotheses, domain, oracle, probes))
        _corpus = corpus
    return _corpus


def test_criterion_01_reasonable_inference_matches_oracle():
    started = time.perf_counter()
    corpus = _inference_corpus()
    checks = 0
    for axioms, hypotheses, domain, oracle, probes in corpus:
        for phi in probes:
            assert in_reasonable_theory(domain, phi) is oracle.reasonable(
                phi
            ), (axioms, hypotheses, print_formula(phi))
            checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"corpus run took {elapsed:.1f}s, budget is 60s"
    print(
        f"ACCEPTANCE 1 PASS: {len(corpus)} domains, {checks} inference "
        f"checks agree with the subset-enumeration oracle in {elapsed:.1f}s"
    )


def test_criterion_02_justifications_match_oracle():
    rng = random.Random(640202)
    corpus = _inference_corpus()
    checks = 0
    for axioms, hypotheses, domain, oracle, probes in corpus:
        queries = [hypotheses[rng.randrange(len(hypotheses))], probes[-1]]
        for phi in queries:
            found = {
                frozenset(j.position.chosen)
                for j in justifications(domain, phi)
            }
            assert found == oracle.justifications(phi), (
                axioms, hypotheses, print_formula(phi),
            )
            checks += 1
    print(
        f"ACCEPTANCE 2 PASS: {checks} justification sets equal the "
        f"oracle's minimal entailing subsets on the same {len(corpus)} domains"
    )


def test_criterion_03_inconsistent_bases_never_explode():
    rng = random.Random(640203)
    fresh = Atom("fresh_probe_atom")
    domains = 0
    while domains < 100:
        axioms, hypotheses = random_domain(rng, overall="inconsistent")
        domain = new_domain(axioms, hypotheses)
        assert not in_reasonable_theory(domain, fresh)
        atoms = _rule_atoms(axioms, hypotheses)
        for _ in range(3):
            phi = random_formula(rng, atoms, depth=2)
            assert not in_reasonable_theory(domain, And(phi, Not(phi)))
        domains += 1
    print(
        "ACCEPTANCE 3 PASS: 100 inconsistent domains infer neither a fresh "
        "atom nor any contradiction over their own atoms"
    )


def test_criterion_04_conservative_over_consistent_bases():
    rng = random.Random(640204)
    domains = 0
    checks = 0
    while domains < 100:
        axioms, hypotheses = random_domain(rng, overall="consistent")
        atoms = _rule_atoms(axioms, hypotheses)
        probes = [random_formula(rng, atoms, depth=3) for _ in range(50)]
        table = TableOracle(axioms + hypotheses + probes)
        domain = new_domain(axioms, hypotheses)
        everything = axioms + hypotheses
        for phi in probes:
            assert in_reasonable_theory(domain, phi) is table.entails(
                everything, phi
            ), (axioms, hypotheses, print_formula(phi))
            checks += 1
        domains += 1
    print(
        f"ACCEPTANCE 4 PASS: on 100 consistent domains reasonable inference "
        f"equals classical entailment on {checks} probe formulas"
    )


def test_criterion_05_running_example_values():
    axiom_texts = ["act"]
    hypothesis_texts = ["act -> perm", "ex", "ex -> -perm"]
    domain = build_domain(axiom_texts, hypothesis_texts)
    sig = domain.signature
    perm = parse_formula("perm", sig)
    neg_perm = parse_formula("-perm", sig)

    # the oracle fixes every value independently of the engine
    oracle = DomainOracle(
        list(domain.axioms), list(domain.hypotheses), extra=[perm, neg_perm]
    )
    assert [sorted(s) for s in oracle.maximal_positions()] == [
        [0, 1], [0, 2], [1, 2],
    ]
    assert oracle.justifications(perm) == {frozenset({0})}
    assert oracle.justifications(neg_perm) == {frozenset({1, 2})}

    positions = maximal_positions(domain)
    assert [sorted(p.chosen) for p in positions] == [[0, 1], [0, 2], [1, 2]]
    assert [
        sorted(j.position.chosen) for j in justifications(domain, perm)
    ] == [[0]]
    assert [
        sorted(j.position.chosen) for j in justifications(domain, neg_perm)
    ] == [[1, 2]]
    contexts = maximal_consistent_contexts(domain, [perm, neg_perm])
    assert len(contexts) == 2
    print(
        "ACCEPTANCE 5 PASS: permit example has 3 maximal positions, "
        "justifications {act -> perm} and {ex, ex -> -perm}, and 2 maximal "
        "consistent contexts, all equal to the oracle's values"
    )


def test_criterion_06_discretize_preserves_observations():
    rng = random.Random(640206)
    compatible_inputs = 0
    subset_checks = 0
    for i in range(100):
        v = random_variety(
            rng, max_components=6, max_atoms=12,
            force_compatible=(i % 2 == 0),
        )
        d = discretize(v)
        assert is_discrete(d)
        probe = ProbeUniverse.covering(v)
        assert upper_level(v, probe) == upper_level(d, probe)
        n = len(v)
        if n <= 4:
            subsets = [
                combo
                for r in range(1, n + 1)
                for combo in itertools.combinations(range(n), r)
            ]
        else:
            subsets = (
                [(i,) for i in range(n)]
                + list(itertools.combinations(range(n), 2))
                + [tuple(range(n))]
            )
        for subset in subsets:
            before = is_compatible(v, subset)
            assert is_compatible(d, subset) is before
            compatible_inputs += before
            subset_checks += 1
    print(
        f"ACCEPTANCE 6 PASS: 100 varieties stay discrete-correct under "
        f"discretize; upper levels unchanged; compatibility equal on "
        f"{subset_checks} subsets ({compatible_inputs} compatible)"
    )


def test_criterion_07_witness_family_boundary():
    for n in range(2, 7):
        started = time.perf_counter()
        v = witness_variety(n)
        assert is_connected(v)
        for subset in itertools.combinations(range(n), n - 1):
            assert is_compatible(v, subset), (n, subset)
        assert not is_compatible(v, range(n)), n
        elapsed = time.perf_counter() - started
        if n == 6:
            assert elapsed < 5.0, f"n=6 took {elapsed:.2f}s, budget is 5s"
    print(
        "ACCEPTANCE 7 PASS: witness families n=2..6 are classical, "
        "connected, compatible in every proper part, incompatible in full; "
        "n=6 within 5s"
    )


def test_criterion_08_domain_varieties_have_full_depth():
    rng = random.Random(640208)
    domains = 0
    while domains < 100:
        axioms, hypotheses = random_domain(rng, max_hypotheses=5)
        domain = new_domain(axioms, hypotheses)
        v = variety_of(domain)
        probe = ProbeUniverse(list(domain.axioms) + list(domain.hypotheses))
        for k in range(1, len(v) + 1):
            result = check_variety_depth(v, k, probe)
            assert result, (axioms, hypotheses, k, result)
        domains += 1
    print(
        "ACCEPTANCE 8 PASS: 100 domain varieties satisfy the depth law for "
        "every k up to their component count"
    )


def test_criterion_09_exhaustive_consistency_ground_truth():
    texts = [
        "a", "-a", "b", "-b | c", "a -> b", "b -> c", "c -> a",
        "a | b | c", "-(a & b)", "a <-> -c", "(a & b) -> -c",
        "-(a | b | c)",
    ]
    sig = Signature()
    pool = [parse_formula(t, sig) for t in texts]
    assert len(pool) == 12
    oracle = TableOracle(pool)
    agreements = 0
    for mask in range(1 << len(pool)):
        subset = [pool[i] for i in range(len(pool)) if mask >> i & 1]
        expected = oracle.satisfiable(subset)
        domain = new_domain((), subset)
        consistent = domain.consistent(frozenset(range(len(subset))))
        assert consistent is expected, subset
        agreements += 1
    assert agreements == 4096
    print(
        "ACCEPTANCE 9 PASS: consistency agrees with truth tables on all "
        "4096 subsets of the 12-formula pool"
    )


def _run_cli(*argv, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "lri", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_criterion_10_cli_determinism_and_round_trip():
    files = sorted(GOLDEN.glob("*.lri"))
    assert len(files) == 21

    runs = 0
    for path in files:
        first = _run_cli("positions", str(path))
        second = _run_cli("positions", str(path))
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        json.loads(first.stdout)
        runs += 1

    spot_checks = {
        "check": ["permit.lri", "empty.lri", "wide.lri", "exclusive.lri",
                  "grounded_pairs.lri"],
        "context": ["permit.lri", "duty.lri", "defaults.lri", "chain.lri",
                    "conflict_core.lri"],
    }
    for verb, names in spot_checks.items():
        for name in names:
            path = str(GOLDEN / name)
            first = _run_cli(verb, path)
            second = _run_cli(verb, path)
            assert first.returncode == 0, first.stderr
            assert first.stdout == second.stdout
            runs += 1

    # save/load: the dumped text reloads to the identical domain of rules
    round_trips = 0
    for path in files:
        base = load(str(path))
        domain = base.domain()
        again = loads(dump_domain(domain, base.queries))
        assert again.domain() == domain, path
        assert again.queries == base.queries, path
        round_trips += 1

    # the interactive session reproduces batch inference documents
    permit = str(GOLDEN / "permit.lri")
    transcript = TRANSCRIPT.read_text(encoding="utf-8")
    repl = _run_cli("repl", permit, stdin_text=transcript)
    assert repl.returncode == 0, repl.stderr
    batch = "".join(
        _run_cli("infer", permit, formula).stdout
        for formula in ["perm", "-perm", "ex & -perm"]
    )
    assert repl.stdout == batch
    print(
        f"ACCEPTANCE 10 PASS: {runs} deterministic command pairs, "
        f"{round_trips} save/load round-trips, and a REPL transcript "
        f"byte-equal to batch inference"
    )
