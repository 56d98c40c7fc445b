"""Bases whose answers are known in closed form, at any size.

Each family returns a `Family`: a base plus its maximal positions, the
ordered justifications of a few conclusions, and the contexts of its
queries, all written down from the shape of the base instead of found by a
truth table.  They are what the engine is held to at sizes no truth table
reaches; `tests/test_families.py` checks every family against
`bruteforce.DomainOracle` at small sizes.  Selections are sorted index
lists, justifications come by size, then index tuple, and contexts come in
lri's documented order as (query index, selection) pairs, as the oracle
gives them.

This module needs only the standard library and `lri`.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import NamedTuple

from lri import And, Atom, Formula, Implies, Not, Or


class Family(NamedTuple):
    axioms: list[Formula]
    hypotheses: list[Formula]
    positions: list[list[int]]
    justifications: dict[Formula, list[list[int]]]
    queries: list[Formula]
    contexts: list[list[tuple[int, list[int]]]]


def exclusions(n: int, ring: bool = False) -> Family:
    """Hypotheses `a_i`, axioms `-(a_i & a_(i+1))`, closed into a ring if asked.

    Maximal positions are the maximal independent sets of the path or ring
    (a ring needs n > 2): gaps of 2 or 3 between chosen atoms, and ends that
    leave no atom free.  They are counted by the Padovan numbers on a path
    and by the Perrin numbers on a ring (Füredi, J. Graph Theory 1987).  The
    query `a0 | a(n-1)` is justified by each end alone.
    """
    ring = ring and n > 2
    atoms = [Atom(f"a{i}") for i in range(n)]
    pairs = [(i, i + 1) for i in range(n - 1)]
    if ring:
        pairs.append((n - 1, 0))
    positions: list[list[int]] = []

    def grow(chosen: list[int]) -> None:
        if ring:
            closed = chosen[0] + n - chosen[-1] in (2, 3)
        else:
            closed = chosen[-1] >= n - 2
        if closed:
            positions.append(chosen)
        for step in (2, 3):
            if chosen[-1] + step < n:
                grow(chosen + [chosen[-1] + step])

    for first in range(min(n, 3 if ring else 2)):
        grow([first])
    query = Or(atoms[0], atoms[-1])
    ends = [[i] for i in sorted({0, n - 1})]
    return Family(
        [Not(And(atoms[i], atoms[j])) for i, j in pairs], atoms, positions,
        {query: ends}, [query], [[(0, s)] for s in ends],
    )


def paired_exception_rules(k: int) -> tuple[list[Formula], list[Formula]]:
    """The axioms and hypotheses of `paired_exceptions(k)` alone.

    They list nothing per position, so k may be too large to list the 2^k
    positions.
    """
    axioms, hypotheses = [], []
    for i in range(k):
        p, e, q = Atom(f"p{i}"), Atom(f"e{i}"), Atom(f"q{i}")
        axioms.append(And(p, e))
        hypotheses += [Implies(p, q), Implies(e, Not(q))]
    return axioms, hypotheses


def paired_exceptions(k: int) -> Family:
    """k islands {p_i & e_i; p_i -> q_i, e_i -> -q_i}: 2^k positions.

    Island i's position holds hypothesis 2i or 2i + 1, and the positions
    are their products in index order.  `q0 & ... & q(k-1)` has the single
    justification of the even hypotheses, and with `r`, which is in no
    rule, it is not reasonable.  The contexts of the queries `q_i` and
    `-q_i`, in that order, cover by the positions' own hypotheses.
    """
    axioms, hypotheses = paired_exception_rules(k)
    positions = [
        [2 * i + side for i, side in enumerate(sides)]
        for sides in itertools.product((0, 1), repeat=k)
    ]
    conjunction = reduce(And, (Atom(f"q{i}") for i in range(k)))
    return Family(
        axioms, hypotheses, positions,
        {
            conjunction: [list(range(0, 2 * k, 2))],
            And(conjunction, Atom("r")): [],
        },
        [f for i in range(k) for f in (Atom(f"q{i}"), Not(Atom(f"q{i}")))],
        [[(h, [h]) for h in position] for position in positions],
    )


def _excluded(tags: list[Atom]) -> list[Formula]:
    return [Not(And(s, t)) for s, t in itertools.combinations(tags, 2)]


def shared_tags(k: int) -> Family:
    """Hypotheses `q_i & t_j` for j < 3, every pair of `t` atoms excluded.

    One island.  Each query `q_i` has three justifications, hypotheses
    3i + j, and a consistent context uses one tag j, so the 3 contexts and
    the 3 positions are the tags.
    """
    tags = [Atom(f"t{j}") for j in range(3)]
    queries = [Atom(f"q{i}") for i in range(k)]
    return Family(
        _excluded(tags),
        [And(q, t) for q in queries for t in tags],
        [list(range(j, 3 * k, 3)) for j in range(3)],
        {q: [[3 * i + j] for j in range(3)] for i, q in enumerate(queries)},
        queries,
        [[(i, [3 * i + j]) for i in range(k)] for j in range(3)],
    )


def exclusive_tags(k: int) -> Family:
    """Hypotheses `q_i & x_i & t_ix` and `q_i & y_i & t_iy`, tags excluded.

    One island in which every pair of the 2k `t` atoms is excluded, so a
    consistent selection holds at most one hypothesis: the 2k positions and
    the 2k contexts of the queries `q_i` are the single hypotheses.
    """
    hypotheses, tags = [], []
    for i in range(k):
        for side in "xy":
            tags.append(Atom(f"t{i}{side}"))
            q, other = Atom(f"q{i}"), Atom(f"{side}{i}")
            hypotheses.append(And(And(q, other), tags[-1]))
    queries = [Atom(f"q{i}") for i in range(k)]
    return Family(
        _excluded(tags), hypotheses,
        [[h] for h in range(2 * k)],
        {q: [[2 * i], [2 * i + 1]] for i, q in enumerate(queries)},
        queries,
        [[(h // 2, [h])] for h in range(2 * k)],
    )
