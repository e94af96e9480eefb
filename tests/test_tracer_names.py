"""The benchmark's span tracer (``perfbench/spans.py``) wraps the package's
ops and functions by name, so a deleted name breaks ``run.py --trace 1``.
Installing it here makes that a test failure."""

import importlib.util
import os

import numpy as np

from reviewfuse import autograd as ag
from reviewfuse.data import PreparedDataset, ReviewSample
from reviewfuse.imageproc import encode_ppm

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_installs_and_uninstalls_against_the_package():
    spans = load_spans()
    ops = {op: getattr(ag, op) for op in spans.OPS}
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(getattr(ag, op) is not fn for op, fn in ops.items())
    finally:
        tracer.uninstall()
    assert all(getattr(ag, op) is fn for op, fn in ops.items())


def test_tracer_times_every_image_decode_of_a_split(tmp_path):
    # the per-file image step that prepare runs is the one the tracer
    # wraps as imageproc.preprocess: a span per sample
    samples = []
    for i in range(3):
        path = tmp_path / f"s{i}.ppm"
        path.write_bytes(encode_ppm(np.full((9, 9, 3), 40 * i, dtype=np.uint8)))
        samples.append(ReviewSample(f"s{i}", "x", i % 2, image_path=str(path)))
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        PreparedDataset.prepare(samples, need_text=False, crop_side=8)
    finally:
        tracer.uninstall()
    assert tracer.summary()["imageproc.preprocess"]["calls"] == 3
