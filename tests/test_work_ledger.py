"""The work of each path that grows exponentially, pinned at small sizes.

Every row runs one question on a base from `tests/families.py`, at two or
three sizes, and counts its searches (`lri.sat.solve` calls), its
consistency questions (`DomainOfRules.consistent` calls) and the k-subsets
a depth check draws.  Building the domain is part of each row's work,
except in the depth rows, which count the depth check alone on a built
variety; the `build` row counts the building alone.  The counts follow
from the algorithms, not from the host, so a change that makes a path
cheaper or dearer moves its row, and the change states the row's old and
new counts.

The sizes are small enough to run in tier-1, and large enough that each
row's growth shows.  Run as a script, the module prints every row with its
growth between sizes, and the wall time of each size's work in
milliseconds: the best of three runs with nothing counting, which is
printed and never pinned:

    PYTHONPATH=src python tests/test_work_ledger.py
"""

from __future__ import annotations

import itertools
import sys
import time

import pytest

import lri.variety
from families import (
    exclusions, paired_exception_rules, paired_exceptions, shared_tags,
)
from lri import (
    Atom,
    DomainOfRules,
    check_variety_depth,
    justifications,
    maximal_consistent_contexts,
    maximal_positions,
    reasonably_infers,
    variety_of,
)


def _domain(family):
    return DomainOfRules(family.axioms, family.hypotheses)


def _depth_check(k, depth):
    """The depth check on paired exceptions' variety, probing q0..q2, p0..p2.

    Every `p_i` holds in all 2^k components, so its walk draws all of
    C(2^k, depth) subsets.
    """
    v = variety_of(_domain(paired_exceptions(k)))
    probe = [Atom(f"{name}{i}") for name in "qp" for i in range(3)]
    return lambda: check_variety_depth(v, depth, probe)


# Each row maps a size to the work to count: a closure run after any
# building the row leaves out.
ROWS = {
    # building paired exceptions' domain alone: one search per island
    "build": lambda k: lambda: DomainOfRules(*paired_exception_rules(k)),
    # positions on the path of exclusions
    "path_positions": lambda n: lambda: maximal_positions(
        _domain(exclusions(n))
    ),
    # a cold `justify a0 | a(n-1)` on the path
    "path_justify": lambda n: lambda: justifications(
        _domain(family := exclusions(n)), family.queries[0]
    ),
    # `justify q0 & ... & q(k-1)` on paired exceptions
    "paired_justify": lambda k: lambda: justifications(
        _domain(family := paired_exceptions(k)),
        list(family.justifications)[0],
    ),
    # `infer q0 & ... & q(k-1) & r` on paired exceptions
    "paired_infer": lambda k: lambda: reasonably_infers(
        _domain(family := paired_exceptions(k)),
        list(family.justifications)[1],
    ),
    # the contexts of shared_tags' queries
    "tags_contexts": lambda k: lambda: maximal_consistent_contexts(
        _domain(family := shared_tags(k)), family.queries
    ),
    "depth_2": lambda k: _depth_check(k, 2),
    "depth_3": lambda k: _depth_check(k, 3),
}

# Per row and size: (searches, consistency questions, k-subsets drawn).
LEDGER = {
    "build": {8: (8, 0, 0), 16: (16, 0, 0), 32: (32, 0, 0)},
    "path_positions": {10: (897, 0, 0), 12: (3748, 0, 0)},
    "path_justify": {10: (954, 258, 0), 12: (3894, 1026, 0)},
    "paired_justify": {
        5: (263, 993, 0), 6: (753, 4033, 0), 7: (2215, 16257, 0),
    },
    "paired_infer": {
        5: (52, 0, 0), 6: (88, 0, 0), 7: (156, 0, 0),
    },
    "tags_contexts": {3: (533, 302, 0), 4: (4154, 2401, 0)},
    "depth_2": {5: (15, 0, 1848), 6: (15, 0, 7536)},
    "depth_3": {5: (15, 0, 16560)},
}


def measure(row, monkeypatch, solves):
    """Each size of the row with its (searches, questions, draws).

    `solves` is the list `record_solves` fills; consistency questions and
    the depth check's draws are counted here.
    """
    counts = {"questions": 0, "draws": 0}
    consistent = DomainOfRules.consistent

    def asking(self, chosen):
        counts["questions"] += 1
        return consistent(self, chosen)

    class Drawing:
        def __getattr__(self, name):
            return getattr(itertools, name)

        def combinations(self, iterable, r):
            for combo in itertools.combinations(iterable, r):
                counts["draws"] += 1
                yield combo

    monkeypatch.setattr(DomainOfRules, "consistent", asking)
    monkeypatch.setattr(lri.variety, "itertools", Drawing())
    measured = {}
    for size in LEDGER[row]:
        work = ROWS[row](size)
        solves.clear()
        counts.update(questions=0, draws=0)
        work()
        measured[size] = (len(solves), counts["questions"], counts["draws"])
    return measured


@pytest.mark.parametrize("row", LEDGER)
def test_each_exponential_path_does_the_pinned_work(row, monkeypatch, solves):
    assert measure(row, monkeypatch, solves) == LEDGER[row]


def wall_time(row, size) -> float:
    """The best of three timings of the row's work at one size, unwrapped."""
    best = float("inf")
    for _ in range(3):
        work = ROWS[row](size)
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    from conftest import record_solves

    print(f"{'row':16} {'size':>4} {'searches':>15} {'questions':>15} "
          f"{'draws':>15} {'ms':>9}")
    for row in LEDGER:
        with pytest.MonkeyPatch.context() as monkeypatch:
            measured = measure(row, monkeypatch, record_solves(monkeypatch))
        previous = None
        for size, counts in measured.items():
            cells = []
            for i, count in enumerate(counts):
                growth = ""
                if previous and previous[i]:
                    growth = f"x{count / previous[i]:.2f}"
                cells.append(f"{count:>8,} {growth:>6}")
            cells.append(f"{wall_time(row, size) * 1000:>9.2f}")
            print(f"{row:16} {size:>4} " + " ".join(cells))
            previous = counts
    return 0


if __name__ == "__main__":
    sys.exit(main())
