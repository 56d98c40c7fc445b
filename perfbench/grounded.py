"""The `grounded` workload: one `python -m lri` process per request.

Each run writes one generated base and one probe file.  The base declares
20 constants and the axiom schemas `r(X, Y) -> u(X)` and `u(X) -> v(X)`,
which ground to 420 axioms; its five ground hypotheses are two conflicting
pairs `r(a, b)` / `-u(a)`, one link `u(c) -> u(d)` and one free fact `w(e)`.  The seed picks every name and the order of hypotheses and
probe statements, so answers are known by construction: 4 maximal positions,
the partition count, the upper level of the probe, and the witness matrix.

A pass runs `check`, `positions`, `partition --dot`, `variety --probe`,
`compat` and `witness 16` once each, one process at a time.  Parsing,
grounding, domain construction, the variety algebra (with its quadratic
deduplication of 420 axioms) and interpreter start-up dominate;
enumeration is trivial.
"""

from __future__ import annotations

import itertools
import json
import random
import string
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from common import SRC, Spec
from lri import And, Atom, Implies, Not, print_formula

CONSTANTS = 20
CONFLICTS = 2
WITNESS = 16
TRACED_CHILD = Path(__file__).resolve().parent / "lri_traced.py"


class Grounded:
    name = "grounded"
    reads_only = False
    tail_percentile = 75
    tracer = None

    def __init__(self, seed: int, work) -> None:
        rng = random.Random(seed)
        self.work = work
        tags = _tags(rng, CONSTANTS + 4)
        consts = tags[:CONSTANTS]
        r, u, v, w = (f"{p}_{t}" for p, t in zip("ruvw", tags[CONSTANTS:]))
        picked = rng.sample(consts, 2 * CONFLICTS + 5)
        pairs = [picked[2 * j: 2 * j + 2] for j in range(CONFLICTS)]
        c, d, e, x, y = picked[2 * CONFLICTS:]

        conflicts = [(Atom(r, (a, b)), Not(Atom(u, (a,)))) for a, b in pairs]
        link, fact = Implies(Atom(u, (c,)), Atom(u, (d,))), Atom(w, (e,))
        hypotheses = [f for pair in conflicts for f in pair] + [link, fact]
        rng.shuffle(hypotheses)
        base = work / "grounded.lri"
        base.write_text(
            f"constants: {' '.join(consts)}\naxioms:\n"
            f"    {r}(X, Y) -> {u}(X).\n    {u}(X) -> {v}(X).\nhypotheses:\n"
            + "".join(f"    {print_formula(f)}.\n" for f in hypotheses),
            encoding="utf-8",
        )
        index = {f: i for i, f in enumerate(hypotheses)}
        positions = sorted(
            sorted([index[link], index[fact]] + [index[f] for f in choice])
            for choice in itertools.product(*conflicts)
        )

        a0 = pairs[0][0]
        probe = [(Atom(v, (a,)), True) for a, _ in pairs]
        probe += [(Not(Atom(u, (a,))), True) for a, _ in pairs]
        probe += [
            (And(Atom(v, (a0,)), Not(Atom(u, (a0,)))), False),
            (Atom(u, (x,)), False),
            (Implies(Atom(r, (x, y)), Atom(v, (x,))), True),
            (link, True),
            (fact, True),
        ]
        rng.shuffle(probe)
        probe_file = work / "grounded-probe.lri"
        probe_file.write_text(
            "".join(f"{print_formula(f)}.\n" for f, _ in probe), encoding="utf-8"
        )

        compat = sorted(rng.sample(range(len(positions)), rng.choice((1, 2))))
        # One partition per constant: the link merges two of them, and the
        # fact, over a predicate of its own, adds one.
        partitions = CONSTANTS
        matrix = [
            {"indices": [i for i in range(WITNESS) if i != out], "compatible": True}
            for out in range(WITNESS)
        ]
        matrix.append({"indices": list(range(WITNESS)), "compatible": False})
        self._expected = {
            "check": {
                "axioms_consistent": True,
                "overall_consistent": False,
                "maximal_position_count": len(positions),
            },
            "positions": positions,
            "partition": (partitions, partitions),
            "variety": {
                "component_count": len(positions),
                "discrete": False,
                "connected": True,
                "upper_level": [print_formula(f) for f, holds in probe if holds],
            },
            "compat": {"compatible": len(compat) == 1},
            "witness": {"n": WITNESS, "connected": True, "matrix": matrix},
        }
        self.dot = work / "grounded-partition.dot"
        path = str(base)
        self._plan = [
            Spec("write", "check", ("check", path)),
            Spec("read", "positions", ("positions", path)),
            Spec("read", "partition", ("partition", path, "--dot", str(self.dot))),
            Spec("read", "variety", ("variety", path, "--probe", str(probe_file))),
            Spec("read", "compat", ("compat", path, *map(str, compat))),
            Spec("read", "witness", ("witness", str(WITNESS))),
        ]

    def setup_once(self) -> float:
        """Wall time of a fresh interpreter that imports lri and exits."""
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import lri"], cwd=SRC, check=True)
        return perf_counter() - start

    def start(self) -> None:
        pass

    def plan(self, number: int) -> list[Spec]:
        return self._plan

    def execute(self, spec: Spec):
        if self.tracer is None:
            command = [sys.executable, "-m", "lri", *spec.payload]
        else:
            spans = self.work / "child-spans.json"
            command = [sys.executable, str(TRACED_CHILD), str(spans), *spec.payload]
        done = subprocess.run(command, cwd=SRC, capture_output=True, text=True)
        if self.tracer is not None:
            self.tracer.add_child(str(spans))
        dot = None
        if spec.verb == "partition":
            dot = self.dot.read_text(encoding="utf-8")
            self.dot.unlink()
        return done.returncode, done.stdout, dot

    def digest(self, spec: Spec, raw):
        code, text, dot = raw
        if code != 0:
            return ("exit", code)
        doc = json.loads(text)
        if spec.verb == "positions":
            return [p["indices"] for p in doc["positions"]]
        if spec.verb == "partition":
            nodes = sum(1 for line in dot.splitlines() if "[label=" in line)
            return doc["verdict"]["partition_count"], nodes
        return doc["verdict"]

    def agrees(self, spec: Spec, answer) -> bool:
        return answer == self._expected[spec.verb]


def _tags(rng: random.Random, count: int) -> list[str]:
    """Distinct four-letter lower-case names, in random order."""
    tags: set[str] = set()
    while len(tags) < count:
        tags.add("".join(rng.choice(string.ascii_lowercase) for _ in range(4)))
    out = sorted(tags)
    rng.shuffle(out)
    return out
