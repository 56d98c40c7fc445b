"""The `islands` workload: paired exceptions, one in-process lri run per request.

Axioms are `p_i & e_i`; hypotheses are `p_i -> q_i` and `e_i -> -q_i`.  The
k pairs are atom-disjoint islands, so a base has 2k hypotheses and 2^k
maximal positions.  A run has three bases with k = 5, and the seed picks
their atom names, the order of axioms and hypotheses, and the queries; the
work per pass is the same for every seed.  A single k keeps the three verbs
at three distinct costs, so each latency median falls inside a group of
like requests, of which a run has dozens.

Each request does in-process what one `lri positions | justify | context`
command does: `cli.main` reads the file, builds a fresh domain and runs the
verb.  The enumeration sweeps, clause-set rebuilds and SAT calls dominate.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import string

from bruteforce import DomainOracle
from common import IMPORT_CLI, Spec, time_in_child
from lri import And, Atom, Implies, Not, cli, print_formula

PAIRS = 5
BASES = 3
CONTEXT_PAIRS = 2


class Islands:
    name = "islands"
    reads_only = False
    tail_percentile = 80
    setup_code = IMPORT_CLI
    tracer = None

    def __init__(self, seed: int, work) -> None:
        rng = random.Random(seed)
        self.bases = [
            _base(rng, PAIRS, work / f"islands-{i}.lri") for i in range(BASES)
        ]
        self._oracles: dict[int, DomainOracle] = {}
        self._expected: dict[Spec, object] = {}

    def setup_once(self) -> float:
        return time_in_child(self.setup_code)

    def start(self) -> None:
        pass

    def plan(self, number: int) -> list[Spec]:
        specs = []
        for i, base in enumerate(self.bases):
            path = str(base["path"])
            specs.append(Spec("write", "positions", (i, ("positions", path))))
            specs.append(
                Spec("read", "justify", (i, ("justify", path, base["justify"])))
            )
            specs.append(
                Spec("read", "context", (i, ("context", path, *base["context"])))
            )
        return specs

    def execute(self, spec: Spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(spec.payload[1]))
        return code, out.getvalue()

    def digest(self, spec: Spec, raw):
        code, text = raw
        if code != 0:
            return ("exit", code)
        doc = json.loads(text)
        if spec.verb == "positions":
            return [p["indices"] for p in doc["positions"]]
        if spec.verb == "justify":
            return (doc["verdict"], [j["indices"] for j in doc["justifications"]])
        return [
            sorted((p["conclusion"], p["indices"]) for p in c["pairs"])
            for c in doc["contexts"]
        ]

    def agrees(self, spec: Spec, answer) -> bool:
        if spec not in self._expected:
            self._expected[spec] = self._reference(spec)
        return answer == self._expected[spec]

    def _reference(self, spec: Spec):
        index, argv = spec.payload
        base = self.bases[index]
        oracle = self._oracles.get(index)
        if oracle is None:
            oracle = DomainOracle(base["axioms"], base["hypotheses"])
            self._oracles[index] = oracle
        if spec.verb == "positions":
            return [sorted(s) for s in oracle.maximal_positions()]
        if spec.verb == "justify":
            found = _justifications(oracle, base["queries"][argv[2]])
            return ("reasonable" if found else "not-reasonable", found)
        return _contexts(oracle, base, argv[2:])


def _names(rng: random.Random, count: int) -> list[str]:
    tags: set[str] = set()
    while len(tags) < count:
        tags.add("".join(rng.choice(string.ascii_lowercase) for _ in range(4)))
    return sorted(tags)


def _base(rng: random.Random, k: int, path) -> dict:
    """One paired-exceptions base of k islands, written to `path`."""
    tags = _names(rng, k)
    rng.shuffle(tags)
    axioms, hypotheses, queries = [], [], {}
    for tag in tags:
        p, e, q = Atom(f"p_{tag}"), Atom(f"e_{tag}"), Atom(f"q_{tag}")
        axioms.append(And(p, e) if rng.random() < 0.5 else And(e, p))
        hypotheses += [Implies(p, q), Implies(e, Not(q))]
        queries[q.predicate] = q
        queries["-" + q.predicate] = Not(q)
    rng.shuffle(hypotheses)
    text = "axioms:\n" + "".join(f"    {print_formula(f)}.\n" for f in axioms)
    text += "hypotheses:\n"
    text += "".join(f"    {print_formula(f)}.\n" for f in hypotheses)
    path.write_text(text, encoding="utf-8")
    chosen = rng.sample(tags, CONTEXT_PAIRS)
    context = [s + f"q_{t}" for t in chosen for s in ("", "-")]
    rng.shuffle(context)
    return {
        "path": path,
        "axioms": axioms,
        "hypotheses": hypotheses,
        "queries": queries,
        "justify": rng.choice(sorted(queries)),
        "context": context,
    }


def _mask(selection) -> int:
    return sum(1 << i for i in selection)


def _justifications(oracle: DomainOracle, phi) -> list[list[int]]:
    """Minimal entailing selections, smallest first, then by index tuple."""
    found = oracle.justifications(phi)
    return [sorted(s) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]


def _contexts(oracle: DomainOracle, base: dict, texts) -> list[list]:
    """Maximal consistent contexts in lri's documented enumeration order.

    For each query in input order, its justifications come before leaving
    the query uncovered; a combination is kept when its union is consistent
    and no uncovered query could be added without breaking consistency.
    """
    options = [_justifications(oracle, base["queries"][t]) for t in texts]
    out = []
    for choice in itertools.product(*(range(len(o) + 1) for o in options)):
        covered = [
            (i, options[i][j]) for i, j in enumerate(choice) if j < len(options[i])
        ]
        union = 0
        for _, selection in covered:
            union |= _mask(selection)
        if not oracle.consistent(union):
            continue
        if any(
            oracle.consistent(union | _mask(alternative))
            for i, j in enumerate(choice)
            if j == len(options[i])
            for alternative in options[i]
        ):
            continue
        out.append(sorted((texts[i], selection) for i, selection in covered))
    return out
