"""Pieces the workloads share: request records, statistics, child timing."""

from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


@dataclass(frozen=True)
class Spec:
    """One request of a workload's plan.

    `kind` is "write" for a request that builds a domain from scratch and
    computes its maximal positions, and "read" for every other request.
    `payload` is whatever the workload needs to run and check it.
    """

    kind: str
    verb: str
    payload: Any


@dataclass
class Request:
    """What a run keeps of one request: no inputs, only a compact answer."""

    kind: str
    verb: str
    latency: float
    answer: Any
    error: Optional[str]
    slot: int = 0


class Reference:
    """Host speed, read from a fixed loop of pure-Python work between requests.

    The host's speed changes by up to 1.7x within seconds, as other tenants
    load the machine.  So after every REF_EVERY_S seconds of requests the
    benchmark times `reference_loop` once, outside any timed request.  A
    request's latency divided by the median of the REF_NEAR loop times taken
    closest to it is its latency in *refs*: multiples of what the reference
    loop took at that moment.  The loop touches no lri code, so a change to
    lri moves refs as it moves milliseconds, while host speed mostly cancels.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self._pending = 0.0

    def after(self, latency: float) -> int:
        """Account for one request; return the slot of its loop time."""
        self._pending += latency
        if self._pending >= REF_EVERY_S:
            self.times.append(reference_loop())
            self._pending = 0.0
            return len(self.times) - 1
        return len(self.times)

    def finish(self) -> None:
        """Time the loop once more, so the last requests have a slot."""
        self.times.append(reference_loop())
        self._pending = 0.0

    def scale(self, slot: int) -> float:
        """Median loop time around `slot`, in seconds."""
        low = max(0, min(slot, len(self.times) - 1) - REF_NEAR // 2)
        return median(self.times[low:low + REF_NEAR])


REF_EVERY_S = 0.05
REF_NEAR = 7
REF_ROUNDS = 2000
# The loop's time on the host the benchmark was written on: converts refs to
# seconds where a metric has to be in seconds (setup_s).
REF_LOOP_S = 0.005


def reference_loop() -> float:
    """Seconds taken by a fixed mix of calls, tuples, sets and dict updates.

    Everything it allocates is freed before it returns, so it leaves no work
    for the garbage collector to the requests that follow.
    """
    start = perf_counter()
    table: dict = {}
    total = 0
    for i in range(REF_ROUNDS):
        key = frozenset((i % 61, i % 17, -(i % 5)))
        clause = tuple(sorted(key))
        table[key] = table.get(key, ()) + clause[:1]
        total += len(clause) + _bits(i)
    total += sum(map(len, table.values()))
    table.clear()
    return perf_counter() - start


def _bits(n: int) -> int:
    return bin(n).count("1")


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, p: float) -> int:
    """How many of `count` samples lie above the nearest-rank p-th percentile."""
    return count - max(1, math.ceil(p / 100 * count))


def time_in_child(code: str, stdin: str = "") -> float:
    """Run `code` in a fresh interpreter from src/ and return what it prints.

    The code prints one float: the seconds it measured itself, so interpreter
    start-up is left out.
    """
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=SRC,
        input=stdin,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(out.stdout)


IMPORT_CLI = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import lri.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)
