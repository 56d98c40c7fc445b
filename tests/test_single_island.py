"""Domains whose rules form one island, checked against the oracle.

Island factoring leaves nothing to split here, so every answer comes from
the subset sweep over all hypotheses.  Paths and rings of exclusions
(axioms `-(a_i & a_(i+1))`, hypotheses `a_i`) and connected random bases
pin the sweep's output order: maximal positions by index tuple,
justifications by size, then index tuple.
"""

import random

import pytest

import lri.engine
import lri.sat
from bruteforce import DomainOracle, random_domain, random_formula
from families import exclusions
from lri import (
    atoms_of,
    in_reasonable_theory,
    justifications,
    maximal_positions,
    new_domain,
)
from lri.formula import atom_groups


def _one_island(rules) -> bool:
    return len(atom_groups([atoms_of(f) for f in rules])) == 1


def _connected(seed: int):
    rng = random.Random(seed)
    while True:
        axioms, hypotheses = random_domain(rng, max_atoms=6, max_hypotheses=10)
        if _one_island(axioms + hypotheses):
            return axioms, hypotheses, rng


def _check(axioms, hypotheses, conclusions):
    assert _one_island(axioms + hypotheses)
    domain = new_domain(axioms, hypotheses)
    oracle = DomainOracle(axioms, hypotheses, conclusions)
    positions = [p.chosen for p in maximal_positions(domain)]
    assert positions == oracle.maximal_positions()
    for phi in conclusions:
        found = [sorted(j.position.chosen) for j in justifications(domain, phi)]
        assert found == oracle.ordered_justifications(phi), phi
        assert in_reasonable_theory(domain, phi) == oracle.reasonable(phi)
    return positions


def _hypothesis_atoms(hypotheses):
    return sorted(set().union(*map(atoms_of, hypotheses)), key=str)


@pytest.mark.parametrize("ring", [False, True], ids=["path", "ring"])
@pytest.mark.parametrize("n", range(1, 11))
def test_exclusion_chains_match_the_oracle(n, ring):
    axioms, hypotheses, *_ = exclusions(n, ring)
    rng = random.Random(n * 2 + ring)
    conclusions = hypotheses + [
        random_formula(rng, hypotheses, depth=2) for _ in range(3)
    ]
    positions = _check(axioms, hypotheses, list(dict.fromkeys(conclusions)))
    if n == 10 and not ring:
        assert len(positions) == 16


def test_a_swept_island_keeps_only_its_maximal_selections(monkeypatch):
    """The sweep empties the island's memo; its selections answer the rest.

    Before the sweep the memo holds what construction asked (the empty
    selection); the sweep of the n = 10 path asks 896 more, and none is
    kept, yet every selection is then answered without a search.
    """
    axioms, hypotheses, *_ = exclusions(10)
    domain = new_domain(axioms, hypotheses)
    (island,) = domain._islands
    assert island.consistency == {frozenset(): True}
    assert len(maximal_positions(domain)) == 16
    assert island.consistency == {}
    solves = []
    monkeypatch.setattr(lri.sat, "solve", lambda *args: solves.append(args))
    oracle = DomainOracle(axioms, hypotheses)
    for mask in range(1 << 10):
        chosen = frozenset(i for i in range(10) if mask >> i & 1)
        assert domain.consistent(chosen) is oracle.consistent(mask), chosen
    assert solves == []
    assert island.consistency == {}


def test_the_sweep_adds_nothing_to_the_memo(monkeypatch):
    """The sweep asks no selection twice, so it stores none of its answers.

    At every search of the n = 12 path's sweep the memo holds at most what
    construction asked (the empty selection).
    """
    axioms, hypotheses, positions, *_ = exclusions(12)
    domain = new_domain(axioms, hypotheses)
    (island,) = domain._islands
    sizes = []
    search = lri.engine.DomainOfRules._search

    def recording(self, problem):
        sizes.append(len(island.consistency))
        return search(self, problem)

    monkeypatch.setattr(lri.engine.DomainOfRules, "_search", recording)
    found = [sorted(p.chosen) for p in maximal_positions(domain)]
    assert found == positions
    assert len(sizes) == 3747
    assert max(sizes) <= 1


@pytest.mark.parametrize("seed", range(12))
def test_connected_random_bases_match_the_oracle(seed):
    axioms, hypotheses, rng = _connected(seed)
    atoms = _hypothesis_atoms(hypotheses)
    conclusions = atoms + [random_formula(rng, atoms, depth=2) for _ in range(3)]
    _check(axioms, hypotheses, list(dict.fromkeys(conclusions)))
