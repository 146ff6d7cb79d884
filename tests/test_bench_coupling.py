"""The benchmark's tracer wraps program functions by name; a rename or
deletion must fail here rather than crash a traced benchmark run."""

import importlib.util
import inspect
import os

import pytest

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py"
)

spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
TRACED = [(owner, attr) for owner, attr, _ in tracer.SPANS + tracer.COUNTS]


@pytest.mark.parametrize(
    "owner, attr", TRACED, ids=[f"{owner.__name__}.{attr}" for owner, attr in TRACED]
)
def test_traced_name_resolves(owner, attr):
    # What Tracer.install unwraps and wraps.
    static = inspect.getattr_static(owner, attr)
    func = static.__func__ if isinstance(static, classmethod) else static
    assert inspect.isfunction(func)
