"""The benchmark's traced runner wraps triphoton functions by module attribute.

perfbench/tracer.py lists them in TARGETS; a name that no longer resolves
breaks every traced benchmark run, so it is checked here, where the test
suite sees it.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [f"{module}.{attr}" for module, attr, *_ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert not missing, f"perfbench/tracer.py wraps missing names: {missing}"
