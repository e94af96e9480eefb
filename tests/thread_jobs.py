"""Jobs that ``test_worker_threads.py`` runs in subprocesses, so that each
starts from a fresh import under the CPU affinity and interpreter options
the test chose. Each prints one JSON object.

    python tests/thread_jobs.py fused_hashes [CPU]
    python tests/thread_jobs.py corpus_hash [CPU]
    python -X dev -W error tests/thread_jobs.py lifetime

With a CPU, the job pins itself to that one CPU before numpy loads. The
imports are inside the jobs for the same reason.
"""

import json
import os
import sys
import tempfile


def fused_hashes() -> dict:
    """Hashes of a small seeded ``fused`` run: the head after
    ``warm_start_head``, the B=64 test logits and one B=1 row."""
    from reviewfuse import autograd as ag
    from reviewfuse import workflow
    from reviewfuse.cli import COMPARE_TRAIN
    from reviewfuse.synthgen import SPLIT_RATIOS, GeneratorSpec, generate_synthetic
    from reviewfuse.training import TrainConfig, eval_outputs
    from test_golden_bits import digest

    with tempfile.TemporaryDirectory() as out:
        generate_synthetic(GeneratorSpec(n=320, seed=7), out, ratios=SPLIT_RATIOS)
        corpus = workflow.load_corpus(out)
    cfg = TrainConfig(seed=0, **COMPARE_TRAIN)
    model = workflow.desk_model("fused", vocab_size=len(corpus.vocab),
                                seed=cfg.seed)
    workflow.warm_start_head(model, corpus.train, corpus.val, cfg)
    head = [t.data for name, t in model.params.items() if name.startswith("head.")]
    logits, _ = eval_outputs(model.forward_batch, corpus.test)
    reviews, crops, _ = next(corpus.test.batches(1, shuffle=False))
    with ag.no_grad():
        row = model.forward_batch(reviews, crops).data
    return {"cpus": len(os.sched_getaffinity(0)), "test_rows": len(logits),
            "warm_start_head": digest(head), "logits_b64": digest([logits]),
            "row_b1": digest([row])}


def corpus_hash() -> dict:
    """The hash of every file of ``gen-data --n 400 --seed 7``, the file
    count, and how many CPUs its writer thread was allowed."""
    import hashlib

    from reviewfuse import synthgen

    writer_cpus, write = [], synthgen._write_files

    def recorded(*args):
        write(*args)
        writer_cpus.append(len(os.sched_getaffinity(0)))  # still the writer

    synthgen._write_files = recorded
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out:
        synthgen.generate_synthetic(synthgen.GeneratorSpec(n=400, seed=7), out)
        names = sorted(os.path.relpath(os.path.join(d, f), out)
                       for d, _, files in os.walk(out) for f in files)
        for name in names:
            h.update(name.encode())
            with open(os.path.join(out, name), "rb") as fh:
                h.update(fh.read())
    return {"cpus": len(os.sched_getaffinity(0)), "writer_cpus": writer_cpus,
            "files": len(names), "corpus": h.hexdigest()}


def lifetime() -> dict:
    """Threads alive after the import and after one grouped B=64 forward,
    the threads that ran its groups, the CPUs each worker group was allowed
    and the caller's CPU as the workers were placed, the BLAS thread count
    before and after the forward (None where ``autograd._openblas_threads``
    finds no getter), and whether ``concurrent.futures`` was imported."""
    import ctypes
    import threading

    import numpy as np

    import reviewfuse  # noqa: F401

    after_import = threading.active_count()
    from reviewfuse import autograd as ag
    from reviewfuse import image_encoder as ie

    cfg = ie.ImageEncoderConfig()
    params = ag.init_params(ie.image_encoder_layout(cfg), np.random.default_rng(0))
    side = cfg.input_side
    images = ag.Tensor(np.random.default_rng(1).normal(
        size=(64, 3, side, side)).astype(np.float32))
    ran_groups, worker_cpus, forward = set(), [], ie._forward

    def recorded(*args):
        ran_groups.add(threading.get_ident())
        if threading.current_thread() is not threading.main_thread():
            worker_cpus.append(sorted(os.sched_getaffinity(0)))
        return forward(*args)

    caller_cpu, other_cpus = [], ag._other_cpus

    def placing():
        # encode_image counts the CPUs, then beside places the workers:
        # the caller's CPU at the last call is the one they were kept off
        caller_cpu[:] = [ctypes.CDLL(None).sched_getcpu()]
        return other_cpus()

    ie._forward, ag._other_cpus = recorded, placing
    found = ag._openblas_threads()
    blas_threads = found[0] if found else lambda: None
    blas_before = blas_threads()
    with ag.no_grad():
        ie.encode_image(params, cfg, images)
    return {"after_import": after_import,
            "after_forward": threading.active_count(),
            "ran_groups": len(ran_groups), "worker_cpus": worker_cpus,
            "caller_cpu": caller_cpu, "cpus": sorted(os.sched_getaffinity(0)),
            "blas_before": blas_before, "blas_after": blas_threads(),
            "futures": "concurrent.futures" in sys.modules}


if __name__ == "__main__":
    job, *cpu = sys.argv[1:]
    if cpu:
        os.sched_setaffinity(0, {int(cpu[0])})
    print(json.dumps({"fused_hashes": fused_hashes, "corpus_hash": corpus_hash,
                      "lifetime": lifetime}[job]()))
