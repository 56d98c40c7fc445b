"""Run one lri command line under the tracer, then write its spans.

Usage: python perfbench/lri_traced.py SPANS.json ARG...

ARG... is what `python -m lri` would take.  The child times its own import
of `lri.cli`, runs `cli.main` with every layer wrapped, and writes the spans
and counters to SPANS.json for the parent to merge.
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(HERE.parent / "src"))
    start = perf_counter()
    import lri.cli

    import_s = perf_counter() - start
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    tracer = Tracer()
    tracer.import_s.append(import_s)
    tracer.install()
    try:
        return lri.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
