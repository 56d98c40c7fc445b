"""Certificates for the engine's positions, at sizes no truth table reaches.

A list of consistent selections is exactly the maximal positions of a base
when

- no selection on it stays consistent with one more hypothesis added, and
- every minimal hitting set of their complements is inconsistent.

The first makes each listed selection maximal.  The second makes the list
complete: a consistent selection inside no listed one meets every
complement, so it contains a minimal hitting set of them, and that set
would be consistent too (Reiter, *AI* 1987; Gunopulos et al., *ACM TODS*
2003).  Hitting sets come from Berge's algorithm below.  The certificate
asks only `DomainOfRules.consistent`, of a domain built afresh, so no answer
comes from the enumeration it checks.
"""

from __future__ import annotations

import random
from functools import cache

import pytest

from bruteforce import make_atoms, random_formula
from families import exclusions
from lri import DomainOfRules, Formula, maximal_positions


def minimal_hitting_sets(sets) -> list[frozenset[int]]:
    """The minimal sets meeting every one of the given sets (Berge, 1989).

    The sets are taken one at a time: a hitting set of the earlier ones
    that misses the next grows by each of its elements, and the
    non-minimal results are dropped.  An empty set in the input leaves no
    hitting set; no sets leave the empty one.
    """
    hitting = [frozenset()]
    for current in sets:
        grown = set()
        for chosen in hitting:
            if chosen & current:
                grown.add(chosen)
            else:
                grown.update(chosen | {item} for item in current)
        hitting = [h for h in grown if not any(o < h for o in grown)]
    return sorted(hitting, key=sorted)


def certifies_positions(
    axioms: list[Formula],
    hypotheses: list[Formula],
    selections: list[frozenset[int]],
) -> bool:
    """Whether the selections are exactly the base's maximal positions."""
    domain = DomainOfRules(axioms, hypotheses)
    everything = frozenset(range(len(hypotheses)))
    if len(set(selections)) != len(selections):
        return False
    for chosen in selections:
        if not domain.consistent(chosen) or any(
            domain.consistent(chosen | {extra}) for extra in everything - chosen
        ):
            return False
    complements = [everything - chosen for chosen in selections]
    return not any(map(domain.consistent, minimal_hitting_sets(complements)))


@cache
def _random_case(seed: int) -> tuple[list[Formula], list[frozenset[int]]]:
    """Fourteen distinct random hypotheses over twelve atoms, no axioms.

    The engine's maximal positions come with them, found once per seed.
    """
    rng = random.Random(seed)
    atoms = make_atoms(12)
    hypotheses: list[Formula] = []
    while len(hypotheses) < 14:
        candidate = random_formula(rng, atoms, depth=2)
        if candidate not in hypotheses:
            hypotheses.append(candidate)
    return hypotheses, _engine_positions([], hypotheses)


def _engine_positions(axioms, hypotheses) -> list[frozenset[int]]:
    domain = DomainOfRules(axioms, hypotheses)
    return [p.chosen for p in maximal_positions(domain)]


def _sets(lists) -> list[frozenset[int]]:
    return [frozenset(items) for items in lists]


def test_berge_finds_the_minimal_hitting_sets():
    assert minimal_hitting_sets([]) == [frozenset()]
    assert minimal_hitting_sets(_sets([[0, 1], []])) == []
    assert minimal_hitting_sets(_sets([[0, 1], [1, 2]])) == _sets([[0, 2], [1]])
    assert minimal_hitting_sets(_sets([[0, 1], [2, 3], [0, 3]])) == _sets(
        [[0, 2], [0, 3], [1, 3]]
    )


SEEDS = range(20)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_positions_are_certified(seed):
    hypotheses, positions = _random_case(seed)
    assert certifies_positions([], hypotheses, positions)


def test_path_positions_are_certified():
    axioms, hypotheses, expected, *_ = exclusions(14)
    positions = _engine_positions(axioms, hypotheses)
    assert [sorted(p) for p in positions] == expected
    assert certifies_positions(axioms, hypotheses, positions)


@pytest.mark.parametrize("seed", SEEDS)
def test_dropping_any_position_fails_the_certificate(seed):
    hypotheses, positions = _random_case(seed)
    for i in range(len(positions)):
        rest = positions[:i] + positions[i + 1:]
        assert not certifies_positions([], hypotheses, rest), i


def test_a_non_maximal_or_repeated_selection_fails_the_certificate():
    axioms, hypotheses, expected, *_ = exclusions(8)
    positions = [frozenset(p) for p in expected]
    assert certifies_positions(axioms, hypotheses, positions)
    assert not certifies_positions(axioms, hypotheses, positions + positions[:1])
    shrunk = [positions[0] - {min(positions[0])}] + positions[1:]
    assert not certifies_positions(axioms, hypotheses, shrunk)
    assert not certifies_positions(axioms, hypotheses, [])
