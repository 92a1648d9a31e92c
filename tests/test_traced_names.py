"""The benchmark's tracer finds every package name it wraps.

dimonbench/tracer.py reports a name it cannot find as an absent layer
instead of failing, so a rename or deletion in the package would
silently empty one of the benchmark's per-layer metrics.
"""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "dimonbench" / "tracer.py"


def test_tracer_finds_every_traced_name():
    spec = importlib.util.spec_from_file_location("dimonbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == []
    finally:
        t.uninstall()
