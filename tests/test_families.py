"""The closed-form families, checked by truth tables and held at scale.

Every family in `tests/families.py` is checked against `DomainOracle` at
sizes a truth table reaches (ten hypotheses at most); the engine is then
held to the closed forms at sizes no truth table does.
"""

import pytest

from bruteforce import DomainOracle
from conftest import context_pairs
from families import exclusions, exclusive_tags, paired_exceptions, shared_tags
from lri import justifications, maximal_positions, new_domain
from lri import reasonably_infers

SMALL = (
    [(f"path {n}", exclusions(n)) for n in range(1, 11)]
    + [(f"ring {n}", exclusions(n, ring=True)) for n in range(1, 11)]
    + [(f"paired {k}", paired_exceptions(k)) for k in range(1, 5)]
    + [(f"shared tags {k}", shared_tags(k)) for k in range(1, 4)]
    + [(f"exclusive tags {k}", exclusive_tags(k)) for k in range(1, 3)]
)


def _positions(domain):
    return [sorted(p.chosen) for p in maximal_positions(domain)]


def _justifications(domain, phi):
    return [sorted(j.position.chosen) for j in justifications(domain, phi)]


@pytest.mark.parametrize(
    "family", [f for _, f in SMALL], ids=[name for name, _ in SMALL]
)
def test_closed_forms_match_the_oracle(family):
    oracle = DomainOracle(
        family.axioms, family.hypotheses,
        list(family.justifications) + family.queries,
    )
    assert [sorted(s) for s in oracle.maximal_positions()] == family.positions
    for phi, expected in family.justifications.items():
        assert oracle.ordered_justifications(phi) == expected, phi
    assert oracle.contexts(family.queries) == family.contexts


def test_exclusions_are_counted_by_padovan_and_perrin_numbers():
    path = [len(exclusions(n).positions) for n in (10, 12, 14, 16, 18)]
    ring = [len(exclusions(n, ring=True).positions) for n in (8, 10, 12)]
    assert path == [16, 28, 49, 86, 151]
    assert ring == [10, 17, 29]


@pytest.mark.parametrize("ring", [False, True], ids=["path", "ring"])
def test_exclusions_at_twelve(ring):
    family = exclusions(12, ring)
    domain = new_domain(family.axioms, family.hypotheses)
    assert _positions(domain) == family.positions
    for phi, expected in family.justifications.items():
        assert _justifications(domain, phi) == expected


def test_paired_exceptions_at_ten():
    family = paired_exceptions(10)
    domain = new_domain(family.axioms, family.hypotheses)
    assert len(family.positions) == 1024
    assert _positions(domain) == family.positions
    _, unreasonable = family.justifications
    assert family.justifications[unreasonable] == []
    assert reasonably_infers(domain, unreasonable) is None


def test_paired_conjunction_at_six():
    family = paired_exceptions(6)
    domain = new_domain(family.axioms, family.hypotheses)
    conjunction, _ = family.justifications
    expected = family.justifications[conjunction]
    assert expected == [[0, 2, 4, 6, 8, 10]]
    assert _justifications(domain, conjunction) == expected


def test_shared_tags_contexts_at_four():
    family = shared_tags(4)
    domain = new_domain(family.axioms, family.hypotheses)
    assert len(family.contexts) == 3
    assert context_pairs(domain, family.queries) == family.contexts
