"""Varieties of logical calculi: structure, levels, depth, and witnesses."""

import itertools
import random

import pytest

from lri import (
    Calculus,
    IncompleteRenaming,
    ProbeUniverse,
    RenamingMap,
    Signature,
    Variety,
    apply_renaming,
    check_variety_depth,
    discretize,
    is_compatible,
    is_connected,
    is_discrete,
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

from bruteforce import random_domain, random_variety


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


def test_identity_renaming_fixes_formulas():
    sig = Signature()
    f = parse_formula("likes(alice, bob) -> happy(alice)", sig)
    ident = RenamingMap.identity(sig)
    assert ident.rename_formula(f) == f


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


def test_inverse_renaming_round_trips():
    sig = Signature()
    f = parse_formula("likes(alice) | happy(bob)", sig)
    m = RenamingMap(
        {"likes": "admires", "happy": "content"},
        {"alice": "carol", "bob": "dan"},
    )
    assert m.inverse().rename_formula(m.rename_formula(f)) == f


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
        assert {print_formula(f) for f in v.axiom_set(i)} == texts


def test_variety_components_all_contain_the_axioms():
    rng = random.Random(21)
    for _ in range(15):
        axioms, hypotheses = random_domain(rng, max_hypotheses=5)
        domain = new_domain(axioms, hypotheses)
        v = variety_of(domain)
        for i in range(len(v)):
            assert set(domain.axioms) <= v.axiom_set(i)


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


def test_variety_requires_components():
    with pytest.raises(ValueError):
        Variety([], Signature())


def test_variety_validates_parallel_lengths():
    c, sig = _calc(["p"])
    with pytest.raises(ValueError):
        Variety([c], sig, maps=[None, None])
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


# ---------------------------------------------------------------------------
# witness family


@pytest.mark.parametrize("n", [2, 3, 4])
def test_witness_variety_shape(n):
    v = witness_variety(n)
    assert len(v) == n
    assert is_connected(v)
    assert not is_discrete(v)
    for i in range(n):
        assert len(v.axiom_set(i)) == 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_witness_variety_compatibility_boundary(n):
    v = witness_variety(n)
    for subset in itertools.combinations(range(n), n - 1):
        assert is_compatible(v, subset)
    assert not is_compatible(v, range(n))


def test_witness_variety_needs_two_components():
    with pytest.raises(ValueError):
        witness_variety(1)


# ---------------------------------------------------------------------------
# partition graphs


def test_partition_by_shared_atoms():
    sig = Signature()
    texts = ["p -> q", "q -> r", "s -> t"]
    graph = partition_graph([parse_formula(t, sig) for t in texts])
    assert len(graph.nodes) == 2
    assert graph.edges == ()
    first, second = graph.nodes
    assert [print_formula(f) for f in first.formulas] == [
        "(p -> q)",
        "(q -> r)",
    ]
    assert [print_formula(f) for f in second.formulas] == ["(s -> t)"]
    assert [a.predicate for a in first.atoms] == ["p", "q", "r"]


def test_partition_singleton_for_isolated_formula():
    sig = Signature()
    graph = partition_graph([parse_formula("p", sig)])
    assert len(graph.nodes) == 1
    assert graph.nodes[0].index == 0


def test_pregrouped_partition_links_overlaps():
    sig = Signature()
    groups = [
        [parse_formula("p -> q", sig)],
        [parse_formula("q -> r", sig)],
        [parse_formula("s", sig)],
    ]
    graph = partition_graph(groups=groups)
    assert len(graph.nodes) == 3
    assert len(graph.edges) == 1
    edge = graph.edges[0]
    assert (edge.left, edge.right) == (0, 1)
    assert [a.predicate for a in edge.shared] == ["q"]


def test_partition_dot_snapshot():
    sig = Signature()
    groups = [
        [parse_formula("p -> q", sig)],
        [parse_formula("q", sig)],
    ]
    graph = partition_graph(groups=groups)
    assert partition_dot(graph) == (
        "graph partitions {\n"
        '  n0 [label="(p -> q)"];\n'
        '  n1 [label="q"];\n'
        '  n0 -- n1 [label="q"];\n'
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
