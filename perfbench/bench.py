"""The reviewfuse benchmark: workloads, end-to-end metrics and output checks.

Imported by ``run.py`` after it has pinned the BLAS thread count, so this
module may import numpy and the package at the top. It drives the program
only through public functions of ``reviewfuse.*`` and ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import asdict, dataclass, replace
from time import perf_counter

import numpy as np

from reviewfuse import autograd, bundle, cli, data, metrics, textproc, training, \
    workflow
from reviewfuse.model import MODES

from hostspeed import HostMeter, Stretch
from spans import Tracer

# Workload sizes are written for a 30-second timed phase on a 2-core box
# at one BLAS thread; ``--seconds`` scales them linearly (see ``scaled``).
REFERENCE_SECONDS = 30
DEFAULT_CORPUS = 2000  # gen-data's default n: 1,200 train / 400 val / 400 test
SETUP_REPEATS = 5
EVAL_BATCH = 64
# Probabilities are printed to 4 decimals; B=1 and B=64 forwards may also
# sum in a different order. Both are far inside this tolerance.
PROB_TOL = 1e-3


@dataclass(frozen=True)
class Workload:
    phase: str        # "train" or "infer"
    mode: str         # model mode
    n_corpus: int = DEFAULT_CORPUS
    n_train: int = 0  # training subset sizes (train phase only)
    n_val: int = 0
    n_test: int = 0
    epochs: int = 0
    predicts: int = 100


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "train_fused": Workload("train", "fused", n_train=384, n_val=128,
                            n_test=128, epochs=2, predicts=128),
    "train_text": Workload("train", "text_only", n_train=1200, n_val=400,
                           n_test=400, epochs=7, predicts=400),
    "infer": Workload("infer", "fused", predicts=1000),
}

# End-to-end metrics in the result line, with their units; each must exist
# on every workload. Times are at the reference host speed (hostspeed.py);
# the rest are printed and kept in the result file (see README.md).
GATED = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def scaled(w: Workload, seconds: int) -> Workload:
    """Sizes for a ``seconds``-long timed phase.

    The corpus stops at its default size; the floors keep the output checks
    meaningful in a one-second smoke run.
    """
    f = seconds / REFERENCE_SECONDS

    def size(n):
        return max(64, round(n * f)) if n else 0

    return replace(
        w,
        n_corpus=min(DEFAULT_CORPUS, max(400, round(w.n_corpus * f))),
        n_train=size(w.n_train), n_val=size(w.n_val), n_test=size(w.n_test),
        epochs=max(1, round(w.epochs * f)) if w.epochs else 0,
        predicts=max(20, round(w.predicts * f)))


# ---------------------------------------------------------------------------
# checks and statistics


class Checks:
    """Every output check is one attempt; a failed check is one failure."""

    def __init__(self):
        self.kinds: dict[str, list[int]] = {}  # kind -> [passed, attempted]
        self.failures: list[str] = []

    def record(self, kind: str, ok: bool, detail: str = "") -> None:
        rec = self.kinds.setdefault(kind, [0, 0])
        rec[1] += 1
        if ok:
            rec[0] += 1
        elif len(self.failures) < 20:
            self.failures.append(f"{kind}: {detail.strip()[:300]}")

    @property
    def attempted(self) -> int:
        return sum(a for _, a in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(a - p for p, a in self.kinds.values())


def nearest_rank(sorted_vals, q: float) -> float:
    return sorted_vals[max(0, math.ceil(q / 100 * len(sorted_vals)) - 1)]


def stat(samples, unit: str, tail_name: str | None = None) -> dict:
    """Median, minimum, 10th percentile, and the highest percentile with at
    least ten samples beyond it."""
    vals = sorted(samples)
    out = {"value": statistics.median(vals), "min": vals[0],
           "p10": nearest_rank(vals, 10), "unit": unit, "n": len(vals),
           "samples": vals}
    for q in (99.9, 99, 95, 90, 75):
        if len(vals) * (100 - q) / 100 >= 10:
            name = f"{tail_name}{q:g}_{unit}" if tail_name else f"p{q:g}"
            out["tail"] = {"name": name, "p": q,
                           "value": nearest_rank(vals, q)}
            break
    return out


# ---------------------------------------------------------------------------
# one run


class Context:
    """Per-pass plumbing: optional tracer spans, host-speed probes and
    captured CLI calls."""

    def __init__(self, checks: Checks, tracer: Tracer | None = None):
        self.checks = checks
        self.tracer = tracer
        self.meter = HostMeter(self.span)

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Run ``cli.main`` in-process; record its exit code as a check."""
        out, err = io.StringIO(), io.StringIO()
        with self.span("cli." + argv[0]), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        self.checks.record(f"{argv[0]} exits 0", rc == 0,
                           f"exit {rc}: {err.getvalue()}")
        return rc, out.getvalue()


@dataclass
class State:
    """What set-up leaves for the timed phase."""
    corpus_dir: str
    corpus: workflow.Corpus
    model: object
    bundle_path: str
    samples: dict[str, list]  # raw manifest rows per split, for predict


def ingest(ctx: Context, w: Workload, seed: int, out_dir: str):
    """gen-data then load_corpus; returns (its Stretch, corpus)."""
    with ctx.meter.stretch() as st:
        ctx.cli(["gen-data", "--out", out_dir, "--n", str(w.n_corpus),
                 "--seed", str(seed)])
        ctx.meter.tick()
        corpus = workflow.load_corpus(out_dir)
    return st, corpus


def save_model(model, corpus, path: str) -> None:
    extra = {"vocab_tokens": corpus.vocab.id_to_token[4:],
             "preprocess": {"max_len": corpus.max_len,
                            "crop_side": corpus.crop_side}}
    bundle.save_bundle(training.model_to_bundle(model, extra), path)


def set_up(ctx: Context, w: Workload, seed: int, workdir: str):
    """Corpus generation and loading, model and seeded bundle construction.

    Returns the state and the ``Stretch`` records of set-up and its ingest."""
    with ctx.span("bench.setup"), ctx.meter.stretch() as setup:
        corpus_dir = os.path.join(workdir, "corpus")
        ingested, corpus = ingest(ctx, w, seed, corpus_dir)
        model = workflow.desk_model(w.mode, vocab_size=len(corpus.vocab),
                                    max_len=corpus.max_len,
                                    crop_side=corpus.crop_side, seed=seed)
        ctx.meter.tick()
        bundle_path = os.path.join(workdir, "model.fkit")
        save_model(model, corpus, bundle_path)
        ctx.meter.tick()
        samples = {s: data.read_manifest(os.path.join(corpus_dir, f"{s}.csv"))
                   for s in ("train", "val", "test")}
    state = State(corpus_dir, corpus, model, bundle_path, samples)
    return state, setup, ingested


def subset(ds, k: int, rng: np.random.Generator):
    """A seeded random ``k``-sample subset of a prepared split (all of it if k >= n)."""
    if k >= len(ds):
        return ds
    idx = np.sort(rng.permutation(len(ds))[:k])
    return data.PreparedDataset(
        reviews=[ds.reviews[i] for i in idx] if ds.reviews is not None else None,
        images=ds.images[idx] if ds.images is not None else None,
        labels=ds.labels[idx], ids=[ds.ids[i] for i in idx])


class TimedBatches:
    """A prepared split whose ``batches`` also times the caller's work per batch.

    The time from handing a batch over to the next request is what the
    caller spent on it: one training step inside ``fit``, one forward pass
    inside ``evaluate_accuracy`` or ``metrics.evaluate``. Host-speed probes
    run between batches, outside these times.
    """

    def __init__(self, ds, meter: HostMeter):
        self.ds = ds
        self.meter = meter
        self.times: list[tuple[int, float]] = []  # (batch size, seconds)

    def __len__(self) -> int:
        return len(self.ds)

    def batches(self, *args, **kwargs):
        for item in self.ds.batches(*args, **kwargs):
            self.meter.tick()
            t0 = perf_counter()
            yield item
            self.times.append((len(item[2]), perf_counter() - t0))


def bundle_dataset(bundle_path: str, samples, image_dir: str):
    """The bundle's model, and ``samples`` prepared with its vocabulary."""
    b = bundle.load_bundle(bundle_path)
    model = training.model_from_bundle(b)
    prep = b.config["preprocess"]
    aligned, _ = data.align_images(samples, image_dir)
    ds = data.PreparedDataset.prepare(
        aligned, vocab=textproc.Vocabulary(b.config["vocab_tokens"]),
        max_len=prep["max_len"], crop_side=prep["crop_side"],
        need_text=model.text_cfg is not None,
        need_images=model.image_cfg is not None)
    return model, ds


def serve(ctx: Context, bundle_path: str, samples, image_dir: str) -> dict:
    """Batched eval of ``samples`` in-process, interleaved with predict calls.

    Each B=64 block is evaluated at once, then sent through ``predict`` one
    sample at a time by a single closed-loop client, so batched and
    single-sample timings are taken over the same stretch of the run.
    """
    model, ds = bundle_dataset(bundle_path, samples, image_dir)
    batches, probs, latencies, outputs = [], [], [], []
    for reviews, images, labels in ds.batches(EVAL_BATCH, shuffle=False):
        ctx.meter.tick()
        t0 = perf_counter()
        with autograd.no_grad():
            logits = model.forward_batch(reviews, images).data
        batches.append((len(labels), perf_counter() - t0))
        logits = logits.astype(np.float64)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs.extend(e / e.sum(axis=1, keepdims=True))
        for s in samples[len(outputs):len(outputs) + len(labels)]:
            argv = ["predict", "--model", bundle_path, "--text", s.text,
                    "--image", os.path.join(image_dir, f"{s.id}.ppm")]
            ctx.meter.tick()
            t0 = perf_counter()
            rc, out = ctx.cli(argv)
            latencies.append((perf_counter() - t0) * 1e3)
            outputs.append(out if rc == 0 else None)
    check_predictions(ctx.checks, samples, outputs, probs)
    return {"eval_batches": batches, "latencies_ms": latencies}


def check_predictions(checks: Checks, samples, outputs, probs) -> None:
    """Each predict must sum to 1 and agree with the batched eval ``probs``."""
    for s, out, p in zip(samples, outputs, probs):
        if out is None:
            continue
        fields = dict(line.split(": ", 1) for line in out.splitlines()
                      if ": " in line)
        try:
            label = fields["label"]
            p_fake, p_gen = float(fields["p_fake"]), float(fields["p_genuine"])
        except (KeyError, ValueError):
            checks.record("predict output parses", False, out)
            continue
        checks.record("predict probabilities sum to 1",
                      abs(p_fake + p_gen - 1.0) <= PROB_TOL,
                      f"{s.id}: {p_fake} + {p_gen}")
        batched = "genuine" if p[1] > p[0] else "fake"
        near_tie = abs(p[1] - p[0]) <= PROB_TOL
        checks.record("predict matches batched eval",
                      (label == batched or near_tie)
                      and abs(p_gen - p[1]) <= PROB_TOL,
                      f"{s.id}: predict {label} p_genuine={p_gen}, "
                      f"batched {batched} p_genuine={p[1]:.6f}")


def full_batch_ms(batches) -> list[float]:
    """Milliseconds of each full (largest) batch."""
    size = max(n for n, _ in batches)
    return [t * 1e3 for n, t in batches if n == size]


def timed_train(ctx: Context, w: Workload, state: State, seed: int) -> dict:
    """warm_start_head, fit, evaluate on test, save, then serve the bundle."""
    corpus, meter = state.corpus, ctx.meter
    rng = np.random.default_rng([seed, 0xBE])
    train = TimedBatches(subset(corpus.train, w.n_train, rng), meter)
    val = TimedBatches(subset(corpus.val, w.n_val, rng), meter)
    test = TimedBatches(subset(corpus.test, w.n_test, rng), meter)
    by_id = {s.id: s for s in state.samples["test"]}
    predict_samples = [by_id[i] for i in test.ds.ids[:w.predicts]]
    cfg = training.TrainConfig(seed=seed, **{
        **cli.COMPARE_TRAIN, "max_epochs": w.epochs,
        "patience": max(cli.COMPARE_TRAIN["patience"], w.epochs)})

    with meter.stretch() as run:
        # the feature caching of warm_start_head reads its sets through
        # ``batches`` only, so probes also run between its forward passes
        with ctx.span("bench.warm_start"), meter.stretch() as warm:
            warm_acc = workflow.warm_start_head(
                state.model, TimedBatches(train.ds, meter),
                TimedBatches(val.ds, meter), cfg)
        with ctx.span("bench.fit"), meter.stretch() as fitted:
            report, _ = training.fit(state.model, train, val, cfg)
        with ctx.span("bench.eval"):
            metrics.evaluate(state.model, test)
        meter.tick()
        with ctx.span("bench.save"):
            save_model(state.model, corpus, state.bundle_path)
        with ctx.span("bench.serve"):
            served = serve(ctx, state.bundle_path, predict_samples,
                           os.path.join(state.corpus_dir, "images"))

    chance = max(np.mean(val.ds.labels), 1 - np.mean(val.ds.labels))
    ctx.checks.record("warm-start val accuracy above chance", warm_acc > chance,
                      f"{warm_acc:.4f} <= {chance:.4f}")
    losses = report.train_losses
    ctx.checks.record("training losses finite",
                      len(losses) == w.epochs and all(map(math.isfinite, losses)),
                      f"{losses}")
    return {"run": run, "warm_start": warm, "fit": fitted,
            "trained_samples": len(train) * w.epochs,
            "step_ms": full_batch_ms(train.times),
            "eval_batches": val.times + test.times + served["eval_batches"],
            "latencies_ms": served["latencies_ms"], "ingests": []}


def timed_infer(ctx: Context, w: Workload, state: State, seed: int,
                workdir: str) -> dict:
    """Ingest, the eval command, then serve the seeded bundle."""
    everything = [s for split in state.samples.values() for s in split]
    order = np.random.default_rng([seed, 0x1F]).permutation(len(everything))
    predict_samples = [everything[i] for i in order[:w.predicts]]
    corpus_dir = os.path.join(workdir, "ingest")

    with ctx.meter.stretch() as run:
        with ctx.span("bench.ingest"):
            ingested, corpus = ingest(ctx, w, seed, corpus_dir)
        with ctx.span("bench.eval"), ctx.meter.stretch() as evaluated:
            ctx.cli(["eval", "--data", corpus_dir, "--model", state.bundle_path,
                     "--split", "test"])
        with ctx.span("bench.serve"):
            served = serve(ctx, state.bundle_path, predict_samples,
                           os.path.join(corpus_dir, "images"))
    return {"run": run, "eval_command": evaluated,
            "eval_command_samples": len(corpus.test),
            "eval_batches": served["eval_batches"],
            "latencies_ms": served["latencies_ms"], "ingests": [ingested]}


def timed(ctx: Context, w: Workload, state: State, seed: int, workdir: str):
    if w.phase == "train":
        return timed_train(ctx, w, state, seed)
    return timed_infer(ctx, w, state, seed, workdir)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(w: Workload, import_s: float, setups: list[Stretch],
               ingests: list[Stretch], res: dict) -> dict:
    """Every end-to-end metric this workload measures, as ``stat`` records.

    Times are at the reference host speed: a set-up's time over its own
    probe factor, and every time of the timed phase over the phase's factor
    (a single long call such as ``warm_start_head`` has probes only at its
    ends). Each record keeps the measured figure as ``raw`` and the factor.
    Import time cannot be probed and is scaled by the first set-up's factor.
    """
    f = res["run"].factor
    batches = res["eval_batches"]

    def rec(r: dict, raw: float, factor: float) -> dict:
        return {**r, "raw": raw, "factor": factor}

    import_ref = import_s / setups[0].factor
    setup = stat([import_ref + s.seconds for s in setups], "s")
    out = {
        "setup_s": rec(setup, import_s + statistics.median(
            s.raw_s for s in setups), statistics.median(
            s.factor for s in setups)),
        "run_s": rec(stat([res["run"].seconds], "s"), res["run"].raw_s, f),
        "peak_rss_mb": stat([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024], "MB"),
    }
    rate = sum(n for n, _ in batches) / sum(t for _, t in batches)
    out["eval_samples_per_s"] = rec({"value": rate * f, "unit": "1/s",
                                     "n": len(batches)}, rate, f)
    for name, samples, unit, tail in (
            ("eval_batch_ms", full_batch_ms(batches), "ms", "eval_batch_p"),
            ("predict_p50_ms", res["latencies_ms"], "ms", "predict_p"),
            ("step_ms", res.get("step_ms"), "ms", "step_p")):
        if samples:
            out[name] = rec(stat([t / f for t in samples], unit, tail),
                            statistics.median(samples), f)
    ingests = ingests + res["ingests"]
    out["ingest_samples_per_s"] = rec(
        stat([w.n_corpus / i.seconds for i in ingests], "1/s"),
        statistics.median(w.n_corpus / i.raw_s for i in ingests),
        statistics.median(i.factor for i in ingests))
    for name, key in (("warm_start_s", "warm_start"),
                      ("eval_command_s", "eval_command")):
        if key in res:
            out[name] = rec(stat([res[key].raw_s / f], "s"), res[key].raw_s, f)
    for name, key, n in (("train_samples_per_s", "fit", "trained_samples"),
                         ("eval_command_samples_per_s", "eval_command",
                          "eval_command_samples")):
        if key in res:
            rate = res[n] / res[key].raw_s
            out[name] = rec(stat([rate * f], "1/s"), rate, f)
    return out


# Per-layer metrics of the traced result line: every count, and the times of
# only those layers every workload calls (a layer a workload never calls
# would report an exact 0 s on every run). The rest are printed and kept.
PER_LAYER_OPS = ("conv2d", "channel_norm", "global_avg_pool", "matmul",
                 "softmax", "layer_norm", "relu", "add", "add_bias",
                 "embedding_lookup", "slice_cols", "concat_cols", "stack_rows",
                 "take_row", "cross_entropy")
SHARED_OPS = ("matmul", "softmax", "layer_norm", "relu", "add", "add_bias",
              "embedding_lookup", "slice_cols", "concat_cols", "stack_rows",
              "take_row")
SHARED_LAYERS = ("autograd", "text_encoder", "fusion", "model", "workflow",
                 "metrics", "data", "imageproc", "textproc", "synthgen",
                 "bundle", "cli", "bench")
SHARED_TIMES = (
    "text_encoder.encode_s", "fusion.classify_batch_s",
    "model.forward_batch_s", "model.encode_batch_s",
    "workflow.load_corpus_s", "metrics.evaluate_s", "data.read_manifest_s",
    "data.align_images_s", "data.prepare_s", "data.batches_s",
    "imageproc.load_ppm_s", "textproc.tokenize_s", "textproc.build_vocab_s",
    "synthgen.generate_synthetic_s", "bundle.load_bundle_s",
    "bundle.save_bundle_s", "cli.predict_overhead_s")
COUNTS = ("image_encoder.calls", "text_encoder.calls", "fusion.calls",
          "training.steps", "imageproc.calls", "bundle.bytes",
          "autograd.conv2d.im2col_bytes_computed",
          "autograd.conv2d.col2im_bytes_computed") + tuple(
    f"autograd.nodes_per_step.{m}" for m in MODES)


def per_layer_names() -> dict[str, str]:
    """Name -> unit of every per-layer metric in the traced run's result line."""
    names = {f"autograd.{op}.fwd_s": "s" for op in SHARED_OPS}
    for op in PER_LAYER_OPS:
        names[f"autograd.{op}.calls"] = "count"
        names[f"autograd.{op}.out_bytes"] = "bytes"
    names.update({n: "s" for n in SHARED_TIMES})
    names.update({f"{layer}.self_s": "s" for layer in SHARED_LAYERS})
    names.update({n: ("bytes" if "bytes" in n else "count") for n in COUNTS})
    names.update({"trace.run_s": "s", "trace.overhead_s": "s"})
    return names


# span name -> per-layer metric holding its inclusive time
SPAN_TIMES = {
    "image_encoder.encode_image": "image_encoder.encode_s",
    "text_encoder.encode_text": "text_encoder.encode_s",
    **{span: span + "_s" for span in (
        "fusion.classify_batch", "model.forward_batch", "model.encode_batch",
        "training.train_epoch", "training.adam_step",
        "workflow.warm_start_head", "workflow.load_corpus", "metrics.evaluate",
        "data.read_manifest", "data.align_images", "data.prepare",
        "data.batches", "imageproc.load_ppm", "imageproc.preprocess",
        "textproc.tokenize", "textproc.build_vocab",
        "synthgen.generate_synthetic", "bundle.load_bundle",
        "bundle.save_bundle")},
}


def layer_metrics(tracer: Tracer, nodes: dict[str, int], traced_run_s: float,
                  untraced_run_s: float) -> dict[str, float]:
    """Every per-layer metric of the traced pass, zeros included."""
    summary = tracer.summary()

    def total(span):
        return summary.get(span, {}).get("total_s", 0.0)

    def calls(span):
        return summary.get(span, {}).get("calls", 0)

    m: dict[str, float] = {}
    for op in PER_LAYER_OPS:
        m[f"autograd.{op}.fwd_s"] = total(f"autograd.{op}")
        m[f"autograd.{op}.bwd_s"] = total(f"autograd.{op}.bwd")
        m[f"autograd.{op}.calls"] = calls(f"autograd.{op}")
        m[f"autograd.{op}.out_bytes"] = tracer.out_bytes[op]
    m["autograd.backward_s"] = total("autograd.backward")
    for mode in MODES:
        m[f"autograd.nodes_per_step.{mode}"] = nodes[mode]
    m["autograd.conv2d.im2col_bytes_computed"] = sum(r[1] for r in tracer.conv.values())
    m["autograd.conv2d.col2im_bytes_computed"] = sum(r[2] for r in tracer.conv.values())
    for span, name in SPAN_TIMES.items():
        m[name] = total(span)
    m["image_encoder.calls"] = calls("image_encoder.encode_image")
    m["text_encoder.calls"] = calls("text_encoder.encode_text")
    m["fusion.calls"] = calls("fusion.classify_batch")
    m["training.steps"] = tracer.calls_under("training.adam_step",
                                             "training.train_epoch")
    m["imageproc.calls"] = calls("imageproc.load_ppm")
    m["bundle.bytes"] = tracer.file_bytes
    m["cli.predict_overhead_s"] = summary.get("cli.predict", {}).get("self_s", 0.0)
    layers = sorted({name.split(".")[0] for name in summary})
    for layer in layers:
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in summary.items()
                                   if k.split(".")[0] == layer)
    m["trace.run_s"] = traced_run_s
    m["trace.overhead_s"] = traced_run_s - untraced_run_s
    return m


def nodes_per_step(corpus, seed: int) -> dict[str, int]:
    """Op nodes (backward closures run) in one B=32 training step per mode."""
    counts = {}
    reviews, images, labels = next(corpus.train.batches(32, seed, 1))
    for mode in MODES:
        model = workflow.desk_model(mode, vocab_size=len(corpus.vocab),
                                    max_len=corpus.max_len,
                                    crop_side=corpus.crop_side, seed=seed)
        tracer = Tracer()
        tracer.install()
        try:
            logits = model.forward_batch(reviews, images, training=True,
                                         rng=np.random.default_rng(seed))
            autograd.cross_entropy(logits, labels).backward()
        finally:
            tracer.uninstall()
        counts[mode] = sum(v["calls"] for k, v in tracer.summary().items()
                           if k.endswith(".bwd"))
    return counts


# ---------------------------------------------------------------------------
# provenance and output


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def load_limit() -> float:
    """Highest 1-minute load average a kept run may see: one per core."""
    return float(os.cpu_count() or 1)


def provenance(root: str, workload: str, w: Workload, seed: int,
               seconds: int, trace: bool, corpus_dir: str) -> dict:
    with open(os.path.join(corpus_dir, "provenance.json"), encoding="utf-8") as fh:
        corpus_spec = json.load(fh)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "sizes": asdict(w), "corpus": corpus_spec,
        "git_commit": git_commit(root),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_version(),
        "blas_threads": {k: v for k, v in os.environ.items()
                         if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def print_report(workload: str, e2e: dict, checks: Checks, prov: dict,
                 layers: dict | None, tracer: Tracer | None,
                 phases: dict | None) -> None:
    print(f"== reviewfuse benchmark: {workload} (seed {prov['seed']}, "
          f"{prov['seconds']} s, trace {int(prov['trace'])})")
    print(f"numpy {prov['numpy']}, {prov['blas']}, threads "
          f"{prov['blas_threads']['OPENBLAS_NUM_THREADS']}, nproc "
          f"{prov['nproc']}, load {prov['load_before']} -> {prov['load_after']}"
          f"{'' if prov['load_ok'] else '  LOADED: above ' + str(load_limit())}")
    print("times at the reference host speed; raw: as measured (medians), "
          "factor: host slowness from the probes")
    print(f"{'metric':<28}{'value':>12}{'min':>12}{'p10':>12}  {'unit':<6}"
          f"{'n':>6}{'raw':>12}{'factor':>8}  tail")
    for name, s in e2e.items():
        tail = s.get("tail")
        tail_txt = f"{tail['name']}={tail['value']:.4f}" if tail else "-"
        low = "".join(f"{s[k]:>12.4f}" if k in s else f"{'-':>12}"
                      for k in ("min", "p10", "raw"))
        factor = f"{s['factor']:>8.3f}" if "factor" in s else f"{'-':>8}"
        print(f"{name:<28}{s['value']:>12.4f}{low[:24]}  {s['unit']:<6}"
              f"{s['n']:>6}{low[24:]}{factor}  {tail_txt}")
    print(f"checks: {checks.attempted - checks.failed}/{checks.attempted} passed, "
          f"failure share {checks.failed / max(1, checks.attempted):.4f}")
    for kind, (passed, attempted) in checks.kinds.items():
        print(f"  {kind:<40}{passed:>6}/{attempted}")
    for f in checks.failures:
        print(f"  FAILED {f}")
    if layers is None:
        return
    print("per-layer metrics (traced pass):")
    for name, value in layers.items():
        print(f"  {name:<44}{value:>16.6f}" if isinstance(value, float)
              else f"  {name:<44}{value:>16d}")
    print("spans by self time (calls, inclusive s, self s):")
    rows = sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"])
    for name, v in rows:
        print(f"  {name:<36}{v['calls']:>10d}{v['total_s']:>12.4f}{v['self_s']:>12.4f}")
    print("self time by phase and layer (an op counts for the layer that called"
          " it, its backward for the layer that created it):")
    for phase, tables in phases.items():
        total = sum(tables["layers"].values())
        for key in ("layers", "spans"):
            shares = ", ".join(
                f"{name} {t / total:.0%}" for name, t in
                sorted(tables[key].items(), key=lambda kv: -kv[1])[:5])
            print(f"  {phase if key == 'layers' else '':<20}"
                  f"{f'{total:.3f} s' if key == 'layers' else '':>10}  {shares}")
    if tracer.conv:
        print("conv2d computed bytes per call (shape: calls, im2col, col2im):")
        for key, (n, cols, col2im) in sorted(tracer.conv.items()):
            print(f"  {key:<36}{n:>8d}{cols // n:>14d}{col2im // n:>14d}")


def run(root: str, workload: str, seed: int, seconds: int, trace: bool,
        import_s: float) -> int:
    w = scaled(WORKLOADS[workload], seconds)
    out_dir = os.path.join(root, "perfbench", "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    load_before = os.getloadavg()[0]
    checks = Checks()
    try:
        os.makedirs(workdir)
        ctx = Context(checks)
        # untraced set-ups for the median, or one before a traced run
        setups, ingests, state = [], [], None
        for i in range(1 if trace else SETUP_REPEATS):
            state = None  # one corpus in memory at a time
            state, setup, ingested = set_up(ctx, w, seed,
                                            os.path.join(workdir, f"setup{i}"))
            setups.append(setup)
            ingests.append(ingested)
        if trace:
            # also takes the allocator's and BLAS's first-use costs out of
            # the untraced pass that the traced one is compared with
            nodes = nodes_per_step(state.corpus, seed)
        res = timed(ctx, w, state, seed, workdir)
        layers = tracer = None
        if trace:
            state = None
            tracer = Tracer()
            tctx = Context(checks, tracer)
            tracer.install()
            try:
                tstate, _, _ = set_up(tctx, w, seed, os.path.join(workdir, "traced"))
                tres = timed(tctx, w, tstate, seed, os.path.join(workdir, "traced"))
            finally:
                tracer.uninstall()
            layers = layer_metrics(tracer, nodes, tres["run"].seconds,
                                   res["run"].seconds)
            tracer.save(os.path.join(out_dir, f"spans-{workload}-seed{seed}.npz"))
        e2e = end_to_end(w, import_s, setups, ingests, res)
        prov = provenance(root, workload, w, seed, seconds, trace,
                          os.path.join(workdir, "setup0", "corpus"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()[0]
    prov.update(load_before=load_before, load_after=load_after,
                load_ok=max(load_before, load_after) <= load_limit())
    if not prov["load_ok"]:
        print(f"warning: load average {max(load_before, load_after):.2f} is above "
              f"{load_limit():.0f}; this run is flagged in its result file",
              file=sys.stderr)
    phases = tracer.by_phase() if trace else None
    print_report(workload, e2e, checks, prov, layers, tracer, phases)
    if trace:
        names = per_layer_names()
        line_metrics = {n: {"value": layers[n], "unit": u} for n, u in names.items()}
    else:
        line_metrics = {n: {"value": e2e[n]["value"], "unit": u}
                        for n, u in GATED.items()}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": line_metrics}
    name = f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "end_to_end": e2e, "per_layer": layers,
                   "phases": phases, "checks": checks.kinds,
                   "failures": checks.failures, "provenance": prov}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0
