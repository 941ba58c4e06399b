"""The names the benchmark harness in perfbench/ reads from the package.

The harness reports a traced function it cannot find as missing instead of
failing, and reads the kernel backend with no default, so a rename or a
deletion here would otherwise pass the tests and break only the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import mgems.dispatch

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    """perfbench/spans.py, which imports only the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks up the module it is defined in
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = load_spans().TARGETS


@pytest.mark.parametrize("target", TARGETS,
                         ids=[f"{t.module}.{t.attr}" for t in TARGETS])
def test_each_traced_function_resolves(target):
    assert callable(getattr(importlib.import_module(target.module), target.attr))


def test_the_kernel_backend_the_harness_records_exists():
    assert isinstance(mgems.dispatch.BACKEND, str)
