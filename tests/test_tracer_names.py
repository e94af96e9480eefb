"""The benchmark's span tracer (``perfbench/spans.py``) wraps the package's
ops and functions by name, so a deleted name breaks ``run.py --trace 1``.
Installing it here makes that a test failure."""

import importlib.util
import os

from reviewfuse import autograd as ag

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def test_tracer_installs_and_uninstalls_against_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    ops = {op: getattr(ag, op) for op in spans.OPS}
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(getattr(ag, op) is not fn for op, fn in ops.items())
    finally:
        tracer.uninstall()
    assert all(getattr(ag, op) is fn for op, fn in ops.items())
