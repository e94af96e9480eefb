"""Same bits: hashes of a small seeded run in every mode against the pins in
``golden_bits.json``.

One subprocess at one BLAS thread generates ``gen-data --n 240 --seed 7``
and, for each mode, hashes the parameters after ``warm_start_head``, the
parameters after a 2-epoch ``fit`` with the ``eval --compare`` settings,
the B=64 test logits and one B=1 row. The pins hold for one numpy version,
OpenBLAS version and set of enabled CPU features; on any other platform
the test skips and names what differs. A second test runs the same job at
two BLAS threads and holds it to the same pins: at these shapes the BLAS
thread count moves no bit. It never writes the pins. After a change that
moves bits on purpose, re-pin from the repository root with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden_bits.py \
        > tests/golden_bits.json

and commit the file.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = os.path.join(ROOT, "tests", "golden_bits.json")


def platform_key() -> dict:
    """The numpy and OpenBLAS versions and the CPU features numpy enabled."""
    core = getattr(np, "_core", None) or np.core
    features = core._multiarray_umath.__cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": blas.get("version"),
            "cpu_features": sorted(k for k, on in features.items() if on)}


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run_bits() -> dict:
    """Every mode's stage hashes; call at one BLAS thread."""
    from reviewfuse import autograd as ag
    from reviewfuse import workflow
    from reviewfuse.cli import COMPARE_TRAIN
    from reviewfuse.model import MODES
    from reviewfuse.synthgen import SPLIT_RATIOS, GeneratorSpec, generate_synthetic
    from reviewfuse.training import TrainConfig, eval_outputs, fit

    with tempfile.TemporaryDirectory() as out:
        generate_synthetic(GeneratorSpec(n=240, seed=7), out, ratios=SPLIT_RATIOS)
        corpus = workflow.load_corpus(out)
    cfg = TrainConfig(seed=0, **{**COMPARE_TRAIN, "max_epochs": 2})
    bits = {}
    for mode in MODES:
        model = workflow.desk_model(mode, vocab_size=len(corpus.vocab),
                                    seed=cfg.seed)
        workflow.warm_start_head(model, corpus.train, corpus.val, cfg)
        warm = digest(t.data for t in model.params.values())
        fit(model, corpus.train, corpus.val, cfg)
        logits, _ = eval_outputs(model.forward_batch, corpus.test)
        reviews, crops, _ = next(corpus.test.batches(1, shuffle=False))
        with ag.no_grad():
            row = model.forward_batch(reviews, crops).data
        bits[mode] = {"warm_start": warm,
                      "fit": digest(t.data for t in model.params.values()),
                      "logits_b64": digest([logits]), "row_b1": digest([row])}
    return bits


def check_pins(blas_threads: int) -> None:
    """Run the job in a subprocess at ``blas_threads`` OpenBLAS threads and
    compare its hashes with the pins; skip where the pins are for another
    platform, or OpenBLAS runs another thread count."""
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    key = platform_key()
    other = {k: (pins["key"].get(k), v) for k, v in key.items()
             if pins["key"].get(k) != v}
    if other:
        pytest.skip("pins are for another platform: " + "; ".join(
            f"{k} pinned {want!r}, here {got!r}"
            for k, (want, got) in other.items()))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           str(blas_threads)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["key"] == key
    if got["blas_threads"] not in (None, blas_threads):
        pytest.skip(f"OpenBLAS runs {got['blas_threads']} threads here, "
                    f"not {blas_threads}")
    moved = [f"{mode} {stage}: {got['bits'][mode][stage]} != pinned {want}"
             for mode, stages in pins["bits"].items()
             for stage, want in stages.items()
             if got["bits"][mode][stage] != want]
    assert not moved, "bits moved:\n" + "\n".join(moved)


def test_same_bits_as_the_pins():
    check_pins(1)


def test_same_bits_at_two_blas_threads():
    check_pins(2)


if __name__ == "__main__":
    # the pins are written at one thread; a check may name another count
    threads = sys.argv[1] if len(sys.argv) > 1 else "1"
    if os.environ.get("OPENBLAS_NUM_THREADS") != threads:
        sys.exit(f"run with OPENBLAS_NUM_THREADS={threads}")
    from reviewfuse import autograd as ag
    found = ag._openblas_threads()
    json.dump({"key": platform_key(), "bits": run_bits(),
               "blas_threads": found[0]() if found else None},
              sys.stdout, indent=2)
    sys.stdout.write("\n")
