"""The `session` workload: one long-lived domain answering many reads.

The base is one island over 8 atoms.  Six of them, x_0..x_5, form a ring:
hypothesis h_i says x_i and not x_(i+1), so h_i conflicts with its two
neighbours and nothing else, and the maximal positions are the 5 maximal
independent sets of a 6-cycle.  Two axioms tie the other two atoms to the
ring.  Each atom plays the same part for every seed, so every seed
registers the atoms in the same order; the seed picks how each h_i is
written (four equivalent forms), the reads and the writes.

Reads are distinct random formulas over the 8 atoms, from the generators of
tests/bruteforce.py: `reasonably_infers` on every read, plus
`justifications` on every tenth.  After every 50 reads comes a write: it
retracts one hypothesis, asserts it again at the end of the list in a form
drawn afresh, rebuilds the domain over the same signature as the REPL does,
and computes its maximal positions.  The hypothesis indices move, but every
domain is the same ring of 6 hypotheses and 5 positions whatever the seed,
so writes and stretches of reads cost about the same throughout.

Every query adds its clause definitions to the domain's builder for good, so
the cost of a read grows with the number of reads since the last write; the
writes are rare enough for that growth to show in `late_p50_ref`, about
twice `latency_p50_ref`.  Stretches of 50 reads, rather than more, give a
30-second run about 100 of them: the cost of a stretch's late reads depends
on the reads before them and varies by 40 % from one stretch to the next,
so fewer stretches would leave each run's medians to a few draws.
"""

from __future__ import annotations

import random

from bruteforce import DomainOracle, make_atoms, random_formula
from common import Spec, time_in_child
from lri import (
    And,
    DomainOfRules,
    Iff,
    Implies,
    Not,
    Or,
    justifications,
    maximal_positions,
    print_formula,
    reasonably_infers,
)
from lri import kb

RING = 6
READS_PER_WRITE = 50
JUSTIFY_EVERY = 10

SETUP = (
    "import sys, time\n"
    "text = sys.stdin.read()\n"
    "t = time.perf_counter()\n"
    "import lri, lri.kb\n"
    "lri.maximal_positions(lri.kb.loads(text).domain())\n"
    "print(repr(time.perf_counter() - t))\n"
)


class Session:
    name = "session"
    reads_only = True
    tail_percentile = 95
    tracer = None

    def __init__(self, seed: int, work) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.atoms = make_atoms(RING + 2)
        ring, (y, z) = self.atoms[:RING], self.atoms[RING:]
        self.axioms = (Or(y, ring[0]), Iff(z, y))
        self._ring = ring
        self._place: dict = {}
        self.hypotheses = tuple(self._link(rng, i) for i in range(RING))
        self.text = "axioms:\n" + "".join(
            f"    {print_formula(f)}.\n" for f in self.axioms
        ) + "hypotheses:\n" + "".join(
            f"    {print_formula(f)}.\n" for f in self.hypotheses
        )
        self._oracles: dict[tuple, DomainOracle] = {}

    def setup_once(self) -> float:
        return time_in_child(SETUP, self.text)

    def start(self) -> None:
        """Load the base and build the long-lived domain afresh."""
        self._rng = random.Random(self.seed * 7919 + 1)
        self._seen: set[str] = set()
        base = kb.loads(self.text)
        self._signature = base.signature
        self._rules = list(base.hypotheses)
        self.domain = base.domain()
        maximal_positions(self.domain)

    def plan(self, number: int) -> list[Spec]:
        rng = self._rng
        state = tuple(self._rules)
        specs = []
        for i in range(READS_PER_WRITE):
            phi = random_formula(rng, self.atoms, depth=3)
            while print_formula(phi) in self._seen:
                phi = random_formula(rng, self.atoms, depth=3)
            self._seen.add(print_formula(phi))
            verb = "justify" if i % JUSTIFY_EVERY == JUSTIFY_EVERY - 1 else "infer"
            specs.append(Spec("read", verb, (state, phi)))
        rules = list(state)
        place = self._place[rules.pop(rng.randrange(len(rules)))]
        rules.append(self._link(rng, place))
        self._rules = rules
        specs.append(Spec("write", "rebuild", (tuple(rules), None)))
        return specs

    def execute(self, spec: Spec):
        rules, phi = spec.payload
        if spec.kind == "write":
            self.domain = DomainOfRules(self.axioms, rules, self._signature)
            return [sorted(p.chosen) for p in maximal_positions(self.domain)]
        witness = reasonably_infers(self.domain, phi)
        answer = None if witness is None else sorted(witness.chosen)
        if spec.verb == "infer":
            return answer
        found = justifications(self.domain, phi)
        return answer, [sorted(j.position.chosen) for j in found]

    def _link(self, rng: random.Random, i: int):
        """h_i: x_i and not x_(i+1), in one of four equivalent forms."""
        x, nxt = self._ring[i], self._ring[(i + 1) % RING]
        link = (
            And(x, Not(nxt)),
            And(Not(nxt), x),
            Not(Implies(x, nxt)),
            Not(Or(Not(x), nxt)),
        )[rng.randrange(4)]
        self._place[link] = i
        return link

    def digest(self, spec: Spec, raw):
        return raw

    def agrees(self, spec: Spec, answer) -> bool:
        rules, phi = spec.payload
        oracle = self._oracles.get(rules)
        if oracle is None:
            oracle = DomainOracle(self.axioms, rules, self.atoms)
            self._oracles[rules] = oracle
        positions = [sorted(s) for s in oracle.maximal_positions()]
        if spec.kind == "write":
            return answer == positions
        phi_mask = oracle.table.mask(phi)
        full = oracle.table.full
        witness = next(
            (
                p
                for p in positions
                if oracle.selection_masks[sum(1 << i for i in p)]
                & ~phi_mask & full == 0
            ),
            None,
        )
        if spec.verb == "infer":
            return answer == witness
        found = sorted(
            oracle.justifications(phi), key=lambda s: (len(s), sorted(s))
        )
        return answer == (witness, [sorted(s) for s in found])
