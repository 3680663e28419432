"""The benchmark's tracer wraps engine functions by owner and attribute
name, so a rename in the engine would crash ``perfbench/run.py --trace 1``.
This reads ``perfbench/tracer.py`` as it is and checks every target."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.SPANS + tracer.COUNTED
    assert targets
    for owner, attr, name in targets:
        # the tracer reads owner.__dict__[attr]
        assert attr in vars(owner), name
