"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of ``reviewfuse`` from outside the
package: every module attribute bound to a traced function is replaced, so
each caller sees the wrapper under the name it looks up (for example
``image_encoder.encode_image`` is patched as ``reviewfuse.model.encode_image``
too). Each call records a span (name, start, end, parent) in flat arrays;
nothing is written until ``save``. Autograd ops additionally wrap the
backward closure they attach to their output, so backward time is
attributed per op type.
"""

from __future__ import annotations

import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from reviewfuse import autograd, bundle, data, fusion, image_encoder, \
    imageproc, metrics, model, synthgen, text_encoder, textproc, training, \
    workflow

# every public op that can put a node into the graph
OPS = ("matmul", "add", "mul", "scale", "relu", "add_bias", "softmax",
       "layer_norm", "dropout", "conv2d", "channel_norm", "global_avg_pool",
       "embedding_lookup", "concat", "concat_cols", "stack_rows", "take_row",
       "slice_cols", "transpose", "reshape", "add_const", "tsum",
       "cross_entropy")

# (owning module, function name, layer) for module-level functions
FUNCTIONS = [
    (image_encoder, "encode_image", "image_encoder"),
    (text_encoder, "encode_text", "text_encoder"),
    (fusion, "classify_batch", "fusion"),
    (training, "fit", "training"),
    (training, "train_epoch", "training"),
    (training, "adam_step", "training"),
    (training, "evaluate_accuracy", "training"),
    (workflow, "warm_start_head", "workflow"),
    (workflow, "load_corpus", "workflow"),
    (metrics, "evaluate", "metrics"),
    (data, "read_manifest", "data"),
    (data, "align_images", "data"),
    (imageproc, "load_ppm", "imageproc"),
    (imageproc, "preprocess", "imageproc"),
    (textproc, "tokenize", "textproc"),
    (textproc, "build_vocab", "textproc"),
    (synthgen, "generate_synthetic", "synthgen"),
    (bundle, "load_bundle", "bundle"),
    (bundle, "save_bundle", "bundle"),
]

# (class, method name, layer) for methods looked up through instances
METHODS = [
    (model.ReviewClassifier, "forward_batch", "model"),
    (model.ReviewClassifier, "encode_batch", "model"),
    (data.PreparedDataset, "prepare", "data"),
    (autograd.Tensor, "backward", "autograd"),
]


def conv2d_bytes(x, w, stride=1, pad=0):
    """Computed (not measured) im2col and col2im traffic of one conv2d call.

    im2col writes the (B*H'*W', C*k*k) column matrix; col2im reads the
    column gradient of the same size and writes the padded input gradient.
    """
    shape = x.data.shape if x.data.ndim == 4 else (1,) + x.data.shape
    bsz, cin, h, wdt = shape
    cout, _, k, _ = w.data.shape
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (wdt + 2 * pad - k) // stride + 1
    item = x.data.itemsize
    cols = bsz * h_out * w_out * cin * k * k * item
    padded = bsz * cin * (h + 2 * pad) * (wdt + 2 * pad) * item
    key = f"B{bsz} C{cin}->{cout} {h}x{wdt} k{k} s{stride} p{pad}"
    return key, cols, cols + padded


class Tracer:
    """Records spans while installed; ``summary`` turns them into per-name totals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        # backward spans: name id of the span that created the op, else -1
        self.owner = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.out_bytes: dict[str, int] = {}
        self.conv: dict[str, list[int]] = {}  # shape -> [calls, im2col, col2im]
        self.file_bytes = 0
        self._undo: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, owner: int = -1) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.owner.append(owner)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.intern(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, after=None):
        nid = self.intern(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _timed_backward(self, nid, fn, owner, after=None):
        tracer = self

        def traced_backward(g):
            idx = tracer._open(nid, owner)
            try:
                fn(g)
            finally:
                tracer._close(idx)
            if after is not None:
                after()

        return traced_backward

    def _op(self, op, fn):
        bwd_id = self.intern(f"autograd.{op}.bwd")
        self.out_bytes[op] = 0

        def after(args, kwargs, out):
            self.out_bytes[op] += out.data.nbytes
            backward = out._backward_fn
            on_backward = None
            if op == "conv2d":
                key, cols, col2im = conv2d_bytes(*args, **kwargs)
                rec = self.conv.setdefault(key, [0, 0, 0])
                rec[0] += 1
                rec[1] += cols

                def on_backward():
                    rec[2] += col2im
            if backward is not None:
                top = self._stack[-1]
                creator = self.name_id[top] if top >= 0 else -1
                out._backward_fn = self._timed_backward(bwd_id, backward,
                                                        creator, on_backward)

        return self._timed(f"autograd.{op}", fn, after)

    def _batches(self, fn):
        nid = self.intern("data.batches")
        tracer = self

        def traced_batches(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                yield item

        return traced_batches

    def _file_bytes(self, path_arg):
        def after(args, kwargs, out):
            self.file_bytes += os.path.getsize(args[path_arg])
        return after

    # -- install / uninstall ------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every reviewfuse module attribute that refers to ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("reviewfuse"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for op in OPS:
            fn = getattr(autograd, op)
            self._replace_everywhere(fn, self._op(op, fn))
        hooks = {"load_bundle": self._file_bytes(0),
                 "save_bundle": self._file_bytes(1)}
        for mod, name, layer in FUNCTIONS:
            fn = getattr(mod, name)
            self._replace_everywhere(
                fn, self._timed(f"{layer}.{name}", fn, hooks.get(name)))
        for cls, name, layer in METHODS:
            raw = cls.__dict__[name]
            self._undo.append((cls, name, raw))
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(
                    self._timed(f"{layer}.{name}", raw.__func__)))
            else:
                setattr(cls, name, self._timed(f"{layer}.{name}", raw))
        raw = data.PreparedDataset.__dict__["batches"]
        self._undo.append((data.PreparedDataset, "batches", raw))
        data.PreparedDataset.batches = self._batches(raw)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # -- results ------------------------------------------------------------

    def arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return nid, parent, start, end

    def _self_times(self):
        """Name ids, parents, durations and self times (seconds) of all spans.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the program is single-threaded.
        """
        nid, parent, start, end = self.arrays()
        dur = (end - start).astype(np.float64) * 1e-9
        has_parent = parent >= 0
        own = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=len(dur))
        return nid, parent, dur, own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        nid, _, dur, own = self._self_times()
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        own = np.bincount(nid, weights=own, minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def by_phase(self, prefix: str = "bench.") -> dict[str, dict]:
        """Self seconds per layer and per span name inside each ``prefix``
        span (a phase).

        For the layer table an op's forward counts for the layer that called
        it and its backward for the layer that created it, so
        ``image_encoder`` owns the conv2d backward of a training step.
        """
        nid, parent, _, own = self._self_times()
        owner = np.frombuffer(self.owner, dtype=np.int32)
        layer = [name.split(".")[0] for name in self.names]
        is_phase = [name.startswith(prefix) for name in self.names]
        out: dict[str, dict] = {}
        phase = [-1] * len(nid)
        for i, (n, p) in enumerate(zip(nid.tolist(), parent.tolist())):
            phase[i] = i if is_phase[n] else (phase[p] if p >= 0 else -1)
            if phase[i] < 0:
                continue
            if owner[i] >= 0:
                who = layer[owner[i]]
            elif layer[n] == "autograd" and p >= 0 and \
                    self.names[n] != "autograd.backward":
                who = layer[nid[p]]
            else:
                who = layer[n]
            tables = out.setdefault(self.names[nid[phase[i]]],
                                    {"layers": {}, "spans": {}})
            tables["layers"][who] = tables["layers"].get(who, 0.0) + own[i]
            name = self.names[n]
            tables["spans"][name] = tables["spans"].get(name, 0.0) + own[i]
        return out

    def calls_under(self, name: str, parent_name: str) -> int:
        """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
        if name not in self._ids or parent_name not in self._ids:
            return 0
        nid, parent, _, _ = self.arrays()
        hit = (nid == self._ids[name]) & (parent >= 0)
        return int((nid[parent[hit]] == self._ids[parent_name]).sum())

    def save(self, path) -> None:
        nid, parent, start, end = self.arrays()
        owner = np.frombuffer(self.owner, dtype=np.int32)
        np.savez_compressed(path, names=np.asarray(self.names), name_id=nid,
                            parent=parent, owner=owner, start_ns=start,
                            end_ns=end)
