"""perfbench's trace table names functions by the module or class through
which litrag looks them up; a name that moves makes ``Tracer.install`` fail,
so each one must resolve."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACE_PY = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _trace_module():
    # loaded by path: a plain ``import trace`` finds the standard library's module
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # perfbench/ stays as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


TRACE = _trace_module()


@pytest.mark.parametrize(
    "name, owner, attr", TRACE.TRACED, ids=[f"{owner}.{attr}" for _, owner, attr in TRACE.TRACED]
)
def test_every_traced_name_resolves_to_a_function(name, owner, attr):
    raw = inspect.getattr_static(TRACE._resolve(owner), attr)
    func = raw.__func__ if isinstance(raw, classmethod) else raw
    assert inspect.isfunction(func), (name, owner, attr)
    assert func.__module__.startswith("litrag."), (name, owner, attr)
