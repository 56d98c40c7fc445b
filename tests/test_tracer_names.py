"""Every name the benchmark tracer wraps exists in the package.

`perfbench/tracer.py` patches functions and methods by (module, attribute
path).  A renamed one would otherwise show only when the benchmark runs,
as a wrong answer, so the tracer's tables are checked here.  The tracer is
loaded from its file without being registered as a module.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("lri_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    assert tracer.SPANS and tracer.COUNTED
    for module, path, _ in tracer.SPANS + tracer.COUNTED:
        owner = importlib.import_module(module)
        for name in path.split("."):
            assert hasattr(owner, name), f"{module}.{path}"
            owner = getattr(owner, name)
        assert callable(owner), f"{module}.{path}"
