"""End-to-end: generate a corpus, train the three baselines, compare.

Trains text-only, image-only, and fused classifiers with identical seeds
and settings, then prints the test-set comparison table. With a small
corpus and few epochs this is a quick qualitative run, not a benchmark —
bump ``N`` and ``max_epochs`` to approach the corpus's Bayes ceilings.

Run:  python3 demos/train_and_compare.py
"""

import tempfile

from reviewfuse.metrics import PAPER_REFERENCE, emit_report
from reviewfuse.synthgen import GeneratorSpec, generate_synthetic
from reviewfuse.training import TrainConfig
from reviewfuse.workflow import compare_baselines, load_corpus

N = 400  # samples; the acceptance-grade run uses 2000

out = tempfile.mkdtemp(prefix="reviewfuse_demo_")
print(f"generating {N} samples into {out} ...")
generate_synthetic(GeneratorSpec(n=N, seed=7), out)

corpus = load_corpus(out)
cfg = TrainConfig(lr=1e-3, batch_size=32, max_epochs=4, patience=2, seed=0)

reports = compare_baselines(corpus, cfg, log=lambda m: print(f"  {m}"))

print("\ntest-set comparison:")
print(emit_report(reports), end="")
print("\nfull-scale benchmark reference (context, not a target here):")
for tag, row in PAPER_REFERENCE.items():
    print(f"  {tag:10s} accuracy={row['accuracy']:.3f} f1={row['f1']:.3f}")
