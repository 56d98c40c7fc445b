"""Varieties of logical calculi: structure, levels, depth, and witnesses."""

import itertools
import random
from collections import Counter

import pytest

import lri.sat
import lri.variety
from lri.cnf import CnfBuilder
from lri import (
    Atom,
    Calculus,
    DepthCheckResult,
    DomainOfRules,
    Implies,
    IncompleteRenaming,
    ProbeUniverse,
    RenamingMap,
    ResourceLimit,
    Signature,
    Variety,
    apply_renaming,
    atoms_of,
    check_variety_depth,
    discretize,
    is_compatible,
    is_connected,
    is_discrete,
    maximal_positions,
    new_domain,
    overlap_dot,
    parse_formula,
    partition_dot,
    partition_graph,
    print_formula,
    theorem_in,
    upper_level,
    variety_of,
    witness_variety,
)

from bruteforce import random_domain, random_formula, random_variety
from bruteforce import reference_depth
from conftest import build_domain
from families import paired_exceptions


def _calc(texts, sig=None):
    sig = sig or Signature()
    return Calculus([parse_formula(t, sig) for t in texts], sig), sig


# ---------------------------------------------------------------------------
# calculi


def test_calculus_deduplicates_axioms():
    c, _ = _calc(["p", "q", "p"])
    assert len(c.axioms) == 2
    assert [print_formula(f) for f in c.axioms] == ["p", "q"]


def test_calculus_rejects_open_formulas():
    sig = Signature(constants=("a",))
    with pytest.raises(ValueError):
        Calculus([parse_formula("p(X)", sig)], sig)


def test_calculus_equality_ignores_signature_and_order():
    c1, _ = _calc(["p", "q"])
    c2, _ = _calc(["q", "p"])
    assert c1 == c2
    assert hash(c1) == hash(c2)
    c3, _ = _calc(["p"])
    assert c1 != c3


def test_theorem_membership():
    c, sig = _calc(["p", "p -> q"])
    assert theorem_in(c, parse_formula("q", sig))
    assert theorem_in(c, parse_formula("p & q", sig))
    assert not theorem_in(c, parse_formula("-q", sig))
    # theorems include every tautology
    assert theorem_in(c, parse_formula("r | -r", sig))


def test_theorem_membership_refuses_open_formulas():
    c, sig = _calc(["p", "p -> q"])
    with pytest.raises(ValueError, match="probe formula not ground: holds\\(X\\)"):
        theorem_in(c, parse_formula("holds(X)", sig))


# ---------------------------------------------------------------------------
# renaming


def test_renaming_maps_atoms_pointwise():
    sig = Signature()
    f = parse_formula("likes(alice) & -happy(bob)", sig)
    m = RenamingMap(
        {"likes": "admires", "happy": "content"},
        {"alice": "carol", "bob": "dan"},
    )
    g = m.rename_formula(f)
    assert print_formula(g) == "(admires(carol) & -content(dan))"


def test_renaming_must_be_injective():
    with pytest.raises(ValueError):
        RenamingMap({"p": "x", "q": "x"})


def test_renaming_must_cover_all_names():
    sig = Signature()
    f = parse_formula("p & r", sig)
    m = RenamingMap({"p": "a"})
    with pytest.raises(IncompleteRenaming):
        m.rename_formula(f)


def test_renaming_commutes_with_theorem_membership():
    c, sig = _calc(["p", "p -> q", "q -> r"])
    m = RenamingMap({"p": "x", "q": "y", "r": "z"})
    renamed = apply_renaming(m, c)
    for text in ["q", "r", "p & q", "-p", "s"]:
        phi = parse_formula(text, sig)
        try:
            image = m.rename_formula(phi)
        except IncompleteRenaming:
            continue
        assert theorem_in(c, phi) is theorem_in(renamed, image)


# ---------------------------------------------------------------------------
# probes


def test_probe_preserves_order_and_drops_duplicates():
    sig = Signature()
    p, q = parse_formula("p", sig), parse_formula("q", sig)
    probe = ProbeUniverse([q, p, q])
    assert probe.formulas == (q, p)
    assert len(probe) == 2
    assert p in probe


def test_probe_rejects_open_formulas():
    sig = Signature(constants=("a",))
    with pytest.raises(ValueError):
        ProbeUniverse([parse_formula("p(X)", sig)])


def test_covering_probe_spans_components(permit_domain):
    v = variety_of(permit_domain)
    extra = parse_formula("perm", permit_domain.signature)
    probe = ProbeUniverse.covering(v, [extra])
    texts = {print_formula(f) for f in probe}
    assert texts == {"act", "(act -> perm)", "ex", "(ex -> -perm)", "perm"}


# ---------------------------------------------------------------------------
# the variety of a domain of rules


def test_variety_components_follow_position_order(permit_domain):
    v = variety_of(permit_domain)
    assert len(v) == 3
    expected = [
        {"act", "(act -> perm)", "ex"},
        {"act", "(act -> perm)", "(ex -> -perm)"},
        {"act", "ex", "(ex -> -perm)"},
    ]
    for i, texts in enumerate(expected):
        assert {print_formula(f) for f in set(v.renamed_axioms(i))} == texts


def test_variety_components_all_contain_the_axioms():
    rng = random.Random(21)
    for _ in range(15):
        axioms, hypotheses = random_domain(rng, max_hypotheses=5)
        domain = new_domain(axioms, hypotheses)
        v = variety_of(domain)
        for i in range(len(v)):
            assert set(domain.axioms) <= set(v.renamed_axioms(i))


def test_a_domains_variety_builds_nothing(permit_domain, monkeypatch):
    """The variety of a swept domain holds the domain itself.

    Neither it nor its discretization builds a domain, translates a
    formula, or checks groundness; the calculi are made when `components`
    is first read.
    """
    positions = maximal_positions(permit_domain)
    expected = tuple(
        Calculus(p.formulas, permit_domain.signature) for p in positions
    )
    calls: Counter = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(DomainOfRules, "__init__")
    count(CnfBuilder, "add")
    count(lri.variety, "distinct_ground")
    v = variety_of(permit_domain)
    d = discretize(v)
    assert calls == Counter()
    for w in (v, d):
        assert w.components == expected
        assert [c.axioms for c in w.components] == [
            p.formulas for p in positions
        ]
        assert w.signature is permit_domain.signature
    assert (v.labels, d.labels) == ((None,) * 3, (0, 1, 2))
    assert set(calls) == {"distinct_ground"}


def test_variety_questions_spend_their_domains_budget(monkeypatch):
    """A domain's variety asks its domain with the budget it was built with.

    Building the domain takes one decision, and refuting the negation of a
    tautology over both atoms of `a | b` takes two, so that question runs
    out of a budget of 1 and is answered within a budget of 2.
    """
    texts = (["a | b"], ["p", "p -> q", "-p", "c"])
    domain = build_domain(*texts, max_decisions=1)
    v = variety_of(domain)
    sig = domain.signature
    probe = [parse_formula(t, sig) for t in ["q", "-p", "c", "q & c", "a"]]
    budgets = []
    for name in ("consistent", "selection_entails"):
        real = getattr(DomainOfRules, name)

        def recording(self, *args, _real=real):
            budgets.append(self.max_decisions)
            return _real(self, *args)

        monkeypatch.setattr(DomainOfRules, name, recording)
    upper_level(v, probe)
    is_compatible(v, [0, 1])
    check_variety_depth(v, 2, probe)
    assert budgets and set(budgets) == {1}
    split = "(a & b) | (a & -b) | (-a & b) | (-a & -b)"
    roomy = build_domain(*texts, max_decisions=2)
    for ask in (
        lambda v, f: upper_level(v, [f]),
        lambda v, f: check_variety_depth(v, 1, [f]),
    ):
        with pytest.raises(ResourceLimit, match="exceeded 1 decisions"):
            ask(v, parse_formula(split, sig))
        assert ask(variety_of(roomy), parse_formula(split, roomy.signature))


def test_permit_variety_connected_but_not_discrete(permit_domain):
    v = variety_of(permit_domain)
    assert not is_discrete(v)
    assert is_connected(v)


def test_permit_variety_compatibility(permit_domain):
    v = variety_of(permit_domain)
    for i in range(3):
        assert is_compatible(v, [i])
    # any two maximal positions already cover all of H, so every pair
    # (and the triple) amalgamates the whole inconsistent rule set
    for pair in itertools.combinations(range(3), 2):
        assert not is_compatible(v, pair)
    assert not is_compatible(v, [0, 1, 2])


def test_compatibility_subset_validation(permit_domain):
    v = variety_of(permit_domain)
    with pytest.raises(ValueError):
        is_compatible(v, [])
    with pytest.raises(ValueError):
        is_compatible(v, [0, 0])
    with pytest.raises(IndexError):
        is_compatible(v, [0, 5])


def test_upper_level_follows_probe_order(permit_domain):
    v = variety_of(permit_domain)
    sig = permit_domain.signature
    probe = [
        parse_formula(t, sig)
        for t in ["perm", "-perm", "act", "perm & -perm"]
    ]
    level = upper_level(v, probe)
    assert [print_formula(f) for f in level] == ["perm", "-perm", "act"]


def test_a_variety_of_calculi_holds_equal_components():
    """Each component equals its calculus and keeps its axiom order.

    A calculus over other names enters renamed into the shared language.
    """
    c, sig = _calc(["q", "p", "p -> q"])
    d, _ = _calc(["r", "q"], sig)
    m = RenamingMap({"p": "s", "q": "q"})
    calculi = [c, d, apply_renaming(m, c)]
    v = Variety(calculi, sig)
    assert v.components == tuple(calculi)
    assert [[print_formula(f) for f in k.axioms] for k in v.components] == [
        ["q", "p", "(p -> q)"], ["r", "q"], ["q", "s", "(s -> q)"],
    ]
    for i, calculus in enumerate(calculi):
        assert v.renamed_axioms(i) == calculus.axioms


def test_variety_requires_components():
    with pytest.raises(ValueError):
        Variety([], Signature())


def test_variety_validates_parallel_lengths():
    c, sig = _calc(["p"])
    with pytest.raises(ValueError):
        Variety([c], sig, labels=[0, 1])


# ---------------------------------------------------------------------------
# discretization


def test_discretize_separates_components(permit_domain):
    v = variety_of(permit_domain)
    d = discretize(v)
    assert is_discrete(d)
    assert not is_connected(d)
    assert d.labels == (0, 1, 2)


def test_partly_shared_labels_qualify_overlaps():
    """Components overlap when their labels agree and they share an axiom.

    Every pair of components shares a formula, but labels [0, 0, 1] keep
    component 2 apart from the others; the overlap graph ignores labels.
    """
    sig = Signature()
    a, b, c, d = (parse_formula(t, sig) for t in "abcd")
    components = [
        Calculus([a, b], sig), Calculus([b, c], sig), Calculus([a, b, d], sig)
    ]
    expected = {
        None: (False, True),
        (0, 0, 1): (False, False),
        (1, 0, 1): (False, False),
        (0, 1, 2): (True, False),
        ("x", "x", "x"): (False, True),
    }
    for labels, verdicts in expected.items():
        v = Variety(components, sig, labels=labels)
        assert (is_discrete(v), is_connected(v)) == verdicts, labels
        assert overlap_dot(v) == (
            "graph components {\n"
            '  c0 [label="component 0 (2 axioms)"];\n'
            '  c1 [label="component 1 (2 axioms)"];\n'
            '  c2 [label="component 2 (3 axioms)"];\n'
            '  c0 -- c1 [label="1"];\n'
            '  c0 -- c2 [label="2"];\n'
            '  c1 -- c2 [label="1"];\n'
            "}\n"
        )
    apart = Variety(components[1:], sig, labels=(0, 0))
    assert not is_discrete(apart) and is_connected(apart)


def test_discretize_preserves_observations():
    rng = random.Random(22)
    for _ in range(12):
        v = random_variety(rng, max_components=4, max_atoms=8)
        d = discretize(v)
        probe = ProbeUniverse.covering(v)
        assert upper_level(d, probe) == upper_level(v, probe)
        indices = range(len(v))
        for r in range(1, len(v) + 1):
            for subset in itertools.combinations(indices, r):
                assert is_compatible(d, subset) is is_compatible(v, subset)


# ---------------------------------------------------------------------------
# depth


def test_depth_counterexample_reported():
    sig = Signature()
    shared = Calculus([parse_formula("p", sig), parse_formula("q", sig)], sig)
    derived = Calculus(
        [parse_formula("p", sig), parse_formula("p -> q", sig)], sig
    )
    v = Variety([shared, derived], sig)
    probe = [parse_formula("p", sig), parse_formula("q", sig)]
    result = check_variety_depth(v, 2, probe)
    assert not result
    assert result.failing_components == (0, 1)
    assert print_formula(result.counterexample) == "q"
    # at k=1 each component trivially regenerates its own theorems
    assert check_variety_depth(v, 1, probe)


def test_depth_bounds_validated(permit_domain):
    v = variety_of(permit_domain)
    probe = ProbeUniverse.covering(v)
    with pytest.raises(ValueError):
        check_variety_depth(v, 0, probe)
    with pytest.raises(ValueError):
        check_variety_depth(v, 4, probe)


def test_permit_variety_has_full_depth(permit_domain):
    v = variety_of(permit_domain)
    probe = ProbeUniverse.covering(v)
    for k in (1, 2, 3):
        assert check_variety_depth(v, k, probe)


def test_domain_varieties_have_full_depth():
    rng = random.Random(23)
    for _ in range(10):
        axioms, hypotheses = random_domain(rng, max_hypotheses=4)
        domain = new_domain(axioms, hypotheses)
        v = variety_of(domain)
        probe = ProbeUniverse(list(domain.axioms) + list(domain.hypotheses))
        for k in range(1, len(v) + 1):
            result = check_variety_depth(v, k, probe)
            assert result, (axioms, hypotheses, result)


def _depth_cases():
    """(name, variety, probe, depths) of seeded varieties and random probes.

    Paired exceptions are probed over their `q` atoms, which the axioms
    leave open, so a formula such as `q0 | -q1` holds in some components
    through one choice per island and fails the depth law in others.
    Random domains and random varieties make up the rest.
    """
    rng = random.Random(41)
    for size, depths in ((5, (1, 2, 3)), (6, (1, 2))):
        axioms, hypotheses, *_ = paired_exceptions(size)
        v = variety_of(new_domain(axioms, hypotheses))
        atoms = [Atom(f"q{i}") for i in range(size)]
        probe = [random_formula(rng, atoms, depth=2) for _ in range(12)]
        yield f"paired {size}", v, probe, depths
    for seed in range(24):
        if seed % 2:
            v = random_variety(rng, max_components=10, max_atoms=5)
        else:
            v = variety_of(new_domain(*random_domain(rng, max_hypotheses=8)))
        rules = (*v._domain.axioms, *v._domain.hypotheses)
        atoms = sorted({a for f in rules for a in atoms_of(f)}, key=str)
        probe = [random_formula(rng, atoms, depth=2) for _ in range(6)]
        yield f"random {seed}", v, probe, range(1, min(len(v), 4) + 1)


def test_depth_check_walks_like_the_reference():
    """Every verdict, failing subset and counterexample is the plain walk's."""
    outcomes = Counter()
    for name, v, probe, depths in _depth_cases():
        for k in depths:
            result = check_variety_depth(v, k, probe)
            assert result == reference_depth(v, k, probe), (name, k)
            outcomes[result.holds] += 1
    assert outcomes[True] and outcomes[False], outcomes


def test_depth_check_draws_only_subsets_of_the_holders(monkeypatch):
    """Of 60 components 3 hold q, so depth 3 draws C(3, 3) = 1 subset.

    Walking every 3-subset and skipping the rest would draw C(60, 3) =
    34,220 of them.
    """
    sig = Signature()
    q = parse_formula("q", sig)
    components = [
        Calculus([q, parse_formula(f"a{i}", sig)] if i < 3 else
                 [parse_formula(f"a{i}", sig)], sig)
        for i in range(60)
    ]
    v = Variety(components, sig)
    drawn = []

    class Counting:
        def __getattr__(self, name):
            return getattr(itertools, name)

        def combinations(self, iterable, r):
            for combo in itertools.combinations(iterable, r):
                drawn.append(combo)
                yield combo

    monkeypatch.setattr(lri.variety, "itertools", Counting())
    assert check_variety_depth(v, 3, [q]) == DepthCheckResult(True)
    assert drawn == [(0, 1, 2)]


# ---------------------------------------------------------------------------
# witness family


@pytest.mark.parametrize("n", [2, 3, 4])
def test_witness_variety_shape(n):
    v = witness_variety(n)
    assert len(v) == n
    assert is_connected(v)
    assert not is_discrete(v)
    for i in range(n):
        assert len(set(v.renamed_axioms(i))) == 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_witness_variety_compatibility_boundary(n):
    v = witness_variety(n)
    for subset in itertools.combinations(range(n), n - 1):
        assert is_compatible(v, subset)
    assert not is_compatible(v, range(n))


def test_witness_compatibility_takes_no_decision(monkeypatch):
    """Unit propagation alone decides every search of a witness question.

    That is why `witness` needs no decision budget.
    """
    spent = []
    real = lri.sat.solve

    def recording(problem, max_decisions=None):
        result = real(problem, max_decisions)
        spent.append(result.decisions)
        return result

    monkeypatch.setattr(lri.sat, "solve", recording)
    for n in range(2, 13):
        v = witness_variety(n)
        for out in range(n + 1):
            is_compatible(v, [i for i in range(n) if i != out])
    assert spent and set(spent) == {0}


def test_witness_variety_needs_two_components():
    with pytest.raises(ValueError):
        witness_variety(1)


# ---------------------------------------------------------------------------
# partition graphs


def test_partition_by_shared_atoms():
    sig = Signature()
    texts = ["p -> q", "q -> r", "s -> t"]
    nodes = partition_graph([parse_formula(t, sig) for t in texts])
    assert len(nodes) == 2
    first, second = nodes
    assert [print_formula(f) for f in first.formulas] == [
        "(p -> q)",
        "(q -> r)",
    ]
    assert [print_formula(f) for f in second.formulas] == ["(s -> t)"]
    assert [a.predicate for a in first.atoms] == ["p", "q", "r"]


def test_partition_singleton_for_isolated_formula():
    sig = Signature()
    nodes = partition_graph([parse_formula("p", sig)])
    assert len(nodes) == 1
    assert nodes[0].index == 0


def test_partition_dot_snapshot():
    sig = Signature()
    texts = ["p -> q", "s", "q", "p -> q"]
    nodes = partition_graph([parse_formula(t, sig) for t in texts])
    assert partition_dot(nodes) == (
        "graph partitions {\n"
        '  n0 [label="(p -> q)\\nq"];\n'
        '  n1 [label="s"];\n'
        "}\n"
    )
    quoted, slashed = Atom('say"'), Atom("back\\slash")
    nodes = partition_graph([Implies(quoted, slashed), slashed])
    assert partition_dot(nodes) == (
        "graph partitions {\n"
        '  n0 [label="(say\\" -> back\\\\slash)\\nback\\\\slash"];\n'
        "}\n"
    )


def test_overlap_dot_snapshot(permit_domain):
    v = variety_of(permit_domain)
    text = overlap_dot(v)
    lines = text.splitlines()
    assert lines[0] == "graph components {"
    assert lines[1] == '  c0 [label="component 0 (3 axioms)"];'
    # every pair of maximal positions shares the axiom plus one hypothesis
    assert '  c0 -- c1 [label="2"];' in lines
    assert '  c1 -- c2 [label="2"];' in lines
    assert lines[-1] == "}"
