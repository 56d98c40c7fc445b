"""Benchmark for lri, standard library only.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload islands|session|grounded \
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client and no threads: a request is
sent only when the previous one has finished.  Inputs come from the seed.
With `--trace 0` the loop runs whole passes until S seconds have gone by,
checks every answer against a reference that does not come from lri (after
the timed loop), and reports the end-to-end metrics.  With `--trace 1` it
replays the first pass of the plan from fresh state, untraced for half of S
seconds and then twice with every layer wrapped (see tracer.py), checks that
the exact counts agree between the two traced replays, and reports the
per-layer metrics of the first one.

Timings in the JSON, but for `setup_s`, are in refs: multiples of the time a
fixed reference loop took next to the request (see common.Reference), so
that the host's changes of speed mostly cancel.  The run and every child it
starts are kept on one CPU, the one the reference loop times.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
every metric with its unit.  README.md in this directory defines each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

from common import (
    REF_LOOP_S,
    ROOT,
    SRC,
    TESTS,
    Reference,
    Request,
    beyond,
    percentile,
)

WORKLOADS = ("islands", "session", "grounded")
SETUP_REPS = 11
TRACE_SETUP_REPS = 5
WORK = ROOT / ".perfbench_work"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so a running child is killed and waited
    # for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "lri" / "__init__.py").is_file():
        print(f"error: no lri package under {SRC}", file=sys.stderr)
        return 2
    if not (TESTS / "bruteforce.py").is_file():
        print(f"error: no reference oracle at {TESTS}/bruteforce.py",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    # One CPU for the run and every child it starts, so that the reference
    # loop (see common.Reference) times the CPU the requests run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = _load(args.workload, args.seed, work)
        if args.trace:
            result = traced(workload, args)
        else:
            result = measured(workload, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def _load(name: str, seed: int, work: Path):
    if name == "islands":
        from islands import Islands as cls
    elif name == "session":
        from session import Session as cls
    else:
        from grounded import Grounded as cls
    return cls(seed, work)


def run_pass(workload, specs, ref: Reference | None = None) -> list[Request]:
    """Run requests one after another; only `execute` is timed.

    With `ref`, the reference loop is timed between requests as it falls due.
    """
    out = []
    for spec in specs:
        start = perf_counter()
        try:
            raw, error = workload.execute(spec), None
        except Exception as err:  # a failed request is counted, not fatal
            raw, error = None, f"{type(err).__name__}: {err}"
        latency = perf_counter() - start
        answer = None if error else workload.digest(spec, raw)
        out.append(Request(spec.kind, spec.verb, latency, answer, error))
        if ref is not None:
            out[-1].slot = ref.after(latency)
    return out


def count_failures(workload, specs, requests: list[Request]) -> int:
    failed = 0
    for spec, req in zip(specs, requests, strict=True):
        if req.error is not None or not workload.agrees(spec, req.answer):
            failed += 1
            if failed <= 3:
                detail = req.error or repr(req.answer)[:300]
                print(f"  failed {req.verb}: {detail}", file=sys.stderr)
    return failed


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------


def measured(workload, args) -> dict:
    # One set-up after each pass, so that the set-ups sample the host over
    # the whole run rather than over the second it would take to run them
    # back to back.  Set-ups are never inside a timed request.
    setups: list[tuple[float, int]] = []
    workload.start()
    who = resource.RUSAGE_CHILDREN if workload.name == "grounded" else resource.RUSAGE_SELF
    ref = Reference()
    passes: list[list[Request]] = []
    peak_rss_mb = None
    deadline = perf_counter() + args.seconds
    while peak_rss_mb is None or perf_counter() < deadline:
        passes.append(run_pass(workload, workload.plan(len(passes)), ref))
        if len(setups) < SETUP_REPS:
            setups.append((workload.setup_once(), len(ref.times)))
        # The high-water mark creeps up with every pass, so it is read after
        # a fixed number of passes: the first at which the tail percentile
        # has ten samples beyond it.
        if peak_rss_mb is None and _enough(workload, passes):
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
            rss_passes = len(passes)
    ref.finish()
    while len(setups) < SETUP_REPS:
        setups.append((workload.setup_once(), len(ref.times)))

    # The plan is a function of the seed, so it is made again for checking
    # instead of being kept in memory during the timed loop.
    workload.start()
    failed = sum(
        count_failures(workload, workload.plan(number), reqs)
        for number, reqs in enumerate(passes)
    )
    requests = [r for reqs in passes for r in reqs]
    pool = _pool(workload, requests)
    writes = [r for r in requests if r.kind == "write"]
    late = _late(passes)
    p = workload.tail_percentile
    # Each timing twice: in refs (see common.Reference), which go into the
    # JSON, and in seconds, which are only printed.
    timings = {}
    for unit, cost in (
        ("ref", lambda r: r.latency / ref.scale(r.slot)),
        ("s", lambda r: r.latency),
    ):
        timings[unit] = {
            "wall": median([sum(map(cost, reqs)) for reqs in passes]),
            "latency_p50": median(map(cost, pool)),
            "latency_tail": percentile(list(map(cost, pool)), p),
            "write_p50": median(map(cost, writes)),
            "late_p50": median(map(cost, late)),
        }
    notes = {
        "wall": f"median of {len(passes)} passes of {len(passes[0])} requests",
        "latency_p50": f"over {len(pool)} {'reads' if workload.reads_only else 'requests'}",
        "latency_tail": f"p{p} over {len(pool)}, {beyond(len(pool), p)} beyond it",
        "write_p50": f"over {len(writes)} writes",
        "late_p50": f"over {len(late)} reads",
    }
    # setup_s must be in seconds, so it is set-up time in refs times the
    # loop's nominal time: seconds on a host where the loop takes REF_LOOP_S.
    setup_s = median(t / ref.scale(slot) for t, slot in setups) * REF_LOOP_S
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update(
        (f"{name}_ref", (value, "ref")) for name, value in timings["ref"].items()
    )
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}")
    print(f"  {'setup_s':<18} {setup_s:12.4f} {'s':<4} "
          f"{median(t for t, _ in setups):9.4f} s   median of {SETUP_REPS} set-ups")
    for name, value in timings["ref"].items():
        seconds = timings["s"][name]
        shown = f"{seconds:9.4f} s " if name == "wall" else f"{seconds * 1e3:9.2f} ms"
        print(f"  {name + '_ref':<18} {value:12.4f} ref  {shown}  {notes[name]}")
    print(f"  {'peak_rss_mb':<18} {peak_rss_mb:12.4f} MB   "
          + ("children" if workload.name == "grounded" else "this process")
          + f", first {rss_passes} passes")
    print(f"  {'failed_ratio':<18} {failed / len(requests):12.4f} {'':<4} "
          f"{failed} failed / {len(requests)} attempted")
    print(f"  reference loop: median {median(ref.times) * 1e3:.3f} ms, "
          f"{len(ref.times)} timings")
    verbs: dict[str, list[float]] = {}
    for r in requests:
        verbs.setdefault(r.verb, []).append(r.latency * 1e3)
    print("  median ms by verb: " + ", ".join(
        f"{verb} {median(v):.1f}" for verb, v in verbs.items()))
    return {
        "correct": failed == 0,
        "attempted": len(requests),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _pool(workload, requests: list[Request]) -> list[Request]:
    """The requests behind latency_p50 and latency_tail."""
    return [r for r in requests if r.kind == "read" or not workload.reads_only]


def _late(passes: list[list[Request]]) -> list[Request]:
    """The reads in the second half of each stretch of reads between writes."""
    late: list[Request] = []
    for reqs in passes:
        stretch: list[Request] = []
        for r in reqs + [None]:
            if r is not None and r.kind == "read":
                stretch.append(r)
            else:
                late.extend(stretch[len(stretch) // 2:])
                stretch = []
    return late


def _enough(workload, passes) -> bool:
    """Whether the tail percentile has at least ten samples beyond it."""
    n = len(_pool(workload, [r for reqs in passes for r in reqs]))
    return beyond(n, workload.tail_percentile) >= 10


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def traced(workload, args) -> dict:
    from common import IMPORT_CLI, time_in_child
    from tracer import EXACT, METRICS, Tracer

    attempted = failed = 0

    def replay() -> float:
        """The first pass from fresh state, checked; returns its time."""
        nonlocal attempted, failed
        start = perf_counter()
        workload.start()
        specs = workload.plan(0)
        requests = []
        for spec in specs:
            requests += run_pass(workload, [spec])
            if workload.tracer is not None:
                workload.tracer.request += 1
        elapsed = perf_counter() - start
        attempted += len(requests)
        failed += count_failures(workload, specs, requests)
        return elapsed

    plain: list[float] = []
    deadline = perf_counter() + args.seconds / 2
    while not plain or perf_counter() < deadline:
        plain.append(replay())

    replays = []
    for _ in range(2):
        tracer = Tracer()
        workload.tracer = tracer
        tracer.install()
        try:
            elapsed = replay()
        finally:
            tracer.uninstall()
            workload.tracer = None
        replays.append((elapsed, tracer))

    first, second = (t.layer_metrics() for _, t in replays)
    mismatched = [k for k in EXACT if first[k] != second[k]]
    for k in mismatched:
        print(f"  count {k} differs: {first[k]} then {second[k]}", file=sys.stderr)
    tracer = replays[0][1]
    if not tracer.import_s:
        tracer.import_s = [
            time_in_child(IMPORT_CLI) for _ in range(TRACE_SETUP_REPS)
        ]
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (
        median(t for t, _ in replays) / median(plain)
    )
    tracer.dump(str(WORK / f"spans-{workload.name}-seed{args.seed}.json"))

    units = dict(METRICS)
    print(f"workload {workload.name}  seed {args.seed}  traced replay of one "
          f"pass, {len(tracer.spans)} spans")
    for name, _ in METRICS:
        print(f"  {name:<32} {metrics[name]:14.6g} {units[name]}")
    print(f"  exact counts repeat: {'yes' if not mismatched else 'NO'}")
    print(f"  failed_ratio {failed / attempted:.4f}: "
          f"{failed} failed / {attempted} attempted")
    return {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name, _ in METRICS
        },
    }


if __name__ == "__main__":
    sys.exit(main())
