"""Building a domain of rules, held to the four-pass build it replaced.

`DomainOfRules` walks each rule once: the walk numbers the atoms, checks
those the signature did not make, and lists each rule's variables, which
`atom_groups` groups into islands.  `bruteforce.reference_build` makes the
same parts the old way, one pass each, and groups the rules' atoms by
`reference_groups`, a merge written apart from `atom_groups`, so the
islands are checked independently.  Every part must come out equal, in
order: the store's variables, clauses and occurrence lists, the builder's
tables, the hypotheses' top literals, the islands, and the signature's
declarations.  A bad input must fail both builds with the same error.
"""

from __future__ import annotations

import random

import pytest

from bruteforce import glued_corpus, random_domain, reference_build
from families import exclusions, exclusive_tags, paired_exceptions, shared_tags
from lri import (
    And,
    ArityMismatch,
    Atom,
    AxiomHypothesisOverlap,
    Calculus,
    DomainOfRules,
    DuplicateHypothesis,
    FormulaSyntaxError,
    InconsistentAxioms,
    Not,
    Or,
    Signature,
    Variety,
    parse_formula,
)
from lri.kb import loads
from lri.variety import RenamingMap, apply_renaming


def built(domain: DomainOfRules) -> dict[str, object]:
    """The parts of a built domain `reference_build` makes, by its names."""
    builder = domain._builder
    store = builder.store
    return {
        "names": list(store.names),
        "clauses": list(store.clauses),
        "occurrences": list(store.occurrences.items()),
        "literal": list(builder._literal.items()),
        "defs": list(builder._defs.items()),
        "hyp_tops": domain._hyp_tops,
        "islands": [vars(island) for island in domain._islands],
        "island_of_hyp": list(domain._island_of_hyp),
        "island_of_atom": domain._island_of_atom,
        "predicates": domain.signature.predicates,
        "constants": domain.signature.constants,
    }


def assert_builds_alike(axioms, hypotheses, make_signature=Signature):
    """Both builds, each over a fresh signature, make equal parts."""
    domain = DomainOfRules(axioms, hypotheses, make_signature())
    assert built(domain) == reference_build(
        axioms, hypotheses, make_signature()
    )


def test_random_domains_build_as_the_reference_does():
    for seed in range(300):
        assert_builds_alike(*random_domain(random.Random(seed)))


def test_glued_corpora_build_as_the_reference_does():
    for seed in range(100):
        axioms, hypotheses, _, _ = glued_corpus(seed)
        assert_builds_alike(axioms, hypotheses)


@pytest.mark.parametrize("family", [
    exclusions(7), exclusions(6, ring=True), paired_exceptions(5),
    shared_tags(4), exclusive_tags(4),
], ids=["path", "ring", "paired", "shared", "exclusive"])
def test_family_bases_build_as_the_reference_does(family):
    assert_builds_alike(family.axioms, family.hypotheses)


GROUNDED = """\
constants: a b c d e f
axioms:
    r(X, Y) -> u(X).
    u(X) -> v(X).
hypotheses:
    r(a, b).
    -u(a).
    r(c, d).
    -u(c).
    u(e) -> u(f).
    w(e).
"""


def test_a_loaded_grounded_base_builds_as_the_reference_does():
    """Each side loads the text, so every atom is its signature's own."""
    base, again = loads(GROUNDED), loads(GROUNDED)
    assert len(base.axioms) == 42
    assert built(base.domain()) == reference_build(
        again.axioms, again.hypotheses, again.signature
    )


def test_a_variety_of_renamed_calculi_builds_as_the_reference_does():
    """Renamed atoms are new nodes, which the variety's signature checks."""
    source = Signature()
    calculi = [
        Calculus([parse_formula(t, source) for t in texts], source)
        for texts in (["p(a) -> q", "-q | r(a, b)"], ["q & -p(b)", "s"])
    ]
    renaming = RenamingMap(
        {"p": "p2", "q": "q2", "r": "r2", "s": "s2"}, {"a": "k", "b": "m"}
    )
    renamed = [apply_renaming(renaming, c) for c in calculi]

    def target() -> Signature:
        sig = Signature()
        parse_formula("p2(k) & t", sig)
        return sig

    domain = Variety(renamed, target())._domain
    assert domain.hypotheses == tuple(
        f for c in renamed for f in c.axioms
    )
    assert built(domain) == reference_build((), domain.hypotheses, target())


p, q = Atom("p"), Atom("q")
p_a = Atom("p", ("a",))

# Each bad base with the error both builds must raise first.
BAD = {
    "non-ground hypothesis": (ValueError, [p], [q, Atom("p", ("X",))]),
    "repeated hypothesis": (DuplicateHypothesis, [p], [q, Or(p, q), q]),
    "axiom and hypothesis": (AxiomHypothesisOverlap, [p, q], [Not(p), q]),
    "arity clash": (ArityMismatch, [Or(q, p)], [Not(q), And(q, p_a)]),
    "name clash": (FormulaSyntaxError, [q], [Or(Atom("a"), p_a)]),
    "inconsistent axioms": (
        InconsistentAxioms, [p, Or(q, p), Atom("r"), Not(Atom("r"))], [q],
    ),
    "repeat before clash": (DuplicateHypothesis, [], [p_a, p, p]),
}


@pytest.mark.parametrize("error,axioms,hypotheses", BAD.values(), ids=BAD)
def test_a_bad_base_fails_both_builds_alike(error, axioms, hypotheses):
    new, old = Signature(), Signature()
    with pytest.raises(error) as raised:
        DomainOfRules(axioms, hypotheses, new)
    with pytest.raises(error) as again:
        reference_build(axioms, hypotheses, old)
    assert (again.type, str(again.value)) == (raised.type, str(raised.value))
    assert (new.predicates, new.constants) == (old.predicates, old.constants)


def test_building_a_domain_checks_atoms_the_signature_did_not_make():
    sig = Signature()
    parse_formula("p(a) & q", sig)
    with pytest.raises(ArityMismatch):
        DomainOfRules([], [Atom("p")], sig)
    rule = And(Atom("q"), Or(Atom("r", ("b",)), Atom("q")))
    domain = DomainOfRules([], [rule], sig)
    assert domain._builder.store.names[:2] == [Atom("q"), Atom("r", ("b",))]
    assert sig.predicates == (("p", 1), ("q", 0), ("r", 1))
    assert sig.constants == ("a", "b")
