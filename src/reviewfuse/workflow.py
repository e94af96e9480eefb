"""High-level flows: corpus loading, model construction, training runs, and
the unimodal-vs-fused baseline comparison."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .data import IMAGES, SPLITS, PreparedDataset, align_images, read_split
from .errors import LabelError
from .fusion import predict_labels
from .image_encoder import ImageEncoderConfig
from .imageproc import DESK_CROP_SIDE
from .metrics import MetricsReport, evaluate
from .model import MODES, READS, ReviewClassifier
from .text_encoder import TextEncoderConfig
from .textproc import DESK_MAX_LEN, DESK_VOCAB_SIZE, Vocabulary, build_vocab
from .training import AdamState, TrainConfig, TrainReport, adam_update, \
    eval_outputs, fit


@dataclass
class Corpus:
    """Prepared train/val/test splits plus the vocabulary they were built with."""
    train: PreparedDataset
    val: PreparedDataset
    test: PreparedDataset
    vocab: Vocabulary
    max_len: int
    crop_side: int


def load_corpus(data_dir, max_len: int = DESK_MAX_LEN,
                crop_side: int = DESK_CROP_SIDE,
                vocab_size: int = DESK_VOCAB_SIZE, modes=MODES) -> Corpus:
    """Read the split manifests and tokenize every review; where a model of
    one of ``modes`` reads images, also align and decode every image.

    The vocabulary comes from the training split only.
    """
    splits = {name: read_split(data_dir, name) for name in SPLITS}
    need_images = any(READS[mode][1] for mode in modes)
    if need_images:
        image_dir = os.path.join(data_dir, IMAGES)
        splits = {k: align_images(v, image_dir)[0] for k, v in splits.items()}
    vocab = build_vocab([s.text for s in splits["train"]], max_size=vocab_size)
    prepared = {
        name: PreparedDataset.prepare(samples, vocab=vocab, max_len=max_len,
                                      crop_side=crop_side,
                                      need_images=need_images)
        for name, samples in splits.items()
    }
    return Corpus(**prepared, vocab=vocab, max_len=max_len, crop_side=crop_side)


def desk_model(mode: str, vocab_size: int, max_len: int = DESK_MAX_LEN,
               crop_side: int = DESK_CROP_SIDE, seed: int = 0) -> ReviewClassifier:
    """Desk-scale model for the given mode (text_only / image_only / fused)."""
    return ReviewClassifier(
        mode, TextEncoderConfig(vocab_size=vocab_size, max_len=max_len),
        ImageEncoderConfig(input_side=crop_side), seed=seed)


WARM_EPOCHS = 300
WARM_LR = 1e-3


def warm_start_head(model: ReviewClassifier, train_set: PreparedDataset,
                    val_set: PreparedDataset, cfg: TrainConfig) -> float:
    """Phase one of the two-phase recipe: train the head on frozen features.

    Encoder features are cached once in eval mode, then the classification
    head alone is trained on them for ``WARM_EPOCHS`` epochs of ``fit``,
    which keeps the head weights from the epoch with the best validation
    accuracy.

    Rationale: the fused model's edge comes from a signal visible only in
    the *combination* of the two embeddings, which is gradient-invisible to
    either encoder until the head already attends to it. End-to-end training
    from a random head settles on the unimodal signals first and rarely
    escapes; warm-starting the head from frozen features gives fine-tuning a
    head that routes gradient to the cross-modal evidence from epoch one
    (linear-probe-then-fine-tune, adapted to a nonlinear head).

    The steps build no graph: each epoch gathers its shuffled features and
    labels once, and each step takes views of them, runs
    ``mlp_head_forward``, the softmax and ``xent_grad``, writes the head's
    gradients with ``mlp_head_grads`` straight into the views of the
    state's flat gradient (``AdamState.grads``), and runs ``adam_update``.
    That is the arithmetic of ``classify_batch``, ``cross_entropy``,
    ``backward`` and ``adam_step`` in their order, so the head ends
    bit-identical to training through the graph. An epoch's loss is the
    mean cross-entropy of the logits its steps computed.

    Returns the best warmup validation accuracy. Deterministic given
    (model, data, cfg).
    """
    Xtr, ytr = eval_outputs(model.encode_batch, train_set)
    Xva, yva = eval_outputs(model.encode_batch, val_set)
    head = {k: v for k, v in model.params.items() if k.startswith("head.")}
    warm_cfg = TrainConfig(lr=WARM_LR, weight_decay=0.0,
                           batch_size=cfg.batch_size, max_epochs=WARM_EPOCHS,
                           patience=WARM_EPOCHS, seed=cfg.seed)
    if not np.isin(ytr, (0, 1)).all():
        raise LabelError("warm_start_head needs labels in {0, 1}")
    state = AdamState(head, warm_cfg)
    w1, b1, w2, b2 = state.views  # in layout order, as mlp_head_grads writes
    one = state.flat.dtype.type(1)
    n, bsz = len(ytr), warm_cfg.batch_size
    epoch_logits = np.empty((n, 2), dtype=state.flat.dtype)

    def epoch_fn(epoch: int) -> float:
        order = np.random.default_rng([cfg.seed, epoch, 0x4EAD]).permutation(n)
        x_epoch, y_epoch = Xtr[order], ytr[order]
        for i in range(0, n, bsz):
            x, y = x_epoch[i:i + bsz], y_epoch[i:i + bsz]
            pre, hidden, logits = ag.mlp_head_forward(x, w1, b1, w2, b2)
            epoch_logits[i:i + bsz] = logits
            dlogits = ag.xent_grad(ag.softmax_rows(logits), y, one / len(y))
            ag.mlp_head_grads(dlogits, x, pre, hidden, w1, w2, state.grads)
            adam_update(state)
        top, _, total = ag._softmax_terms(epoch_logits)
        lse = top[:, 0] + np.log(total[:, 0])
        return float((lse - epoch_logits[np.arange(n), y_epoch]).mean())

    def val_fn() -> float:
        logits = ag.mlp_head_forward(Xva, w1, b1, w2, b2)[2]
        return float((predict_labels(logits) == yva).mean())

    report, _ = fit(model, None, None, warm_cfg, epoch_fn=epoch_fn, val_fn=val_fn)
    return report.val_accuracies[report.best_epoch - 1]


def train_model(mode: str, corpus: Corpus, cfg: TrainConfig,
                log=None) -> tuple[ReviewClassifier, TrainReport]:
    """The two-phase recipe: a seeded desk model for ``mode``, its head
    warm-started on frozen features (``warm_start_head``), then end-to-end
    fine-tuning under ``cfg`` with early stopping (``fit``). Returns the
    model, holding its best epoch, and ``fit``'s report."""
    model = desk_model(mode, vocab_size=len(corpus.vocab),
                       max_len=corpus.max_len, crop_side=corpus.crop_side,
                       seed=cfg.seed)
    warm_acc = warm_start_head(model, corpus.train, corpus.val, cfg)
    if log:
        log(f"head warmup val_acc={warm_acc:.4f}")
    report, _ = fit(model, corpus.train, corpus.val, cfg, log=log)
    return model, report


def compare_baselines(corpus: Corpus, cfg: TrainConfig,
                      log=None) -> list[MetricsReport]:
    """Train text-only, image-only, and fused models with identical seeds and
    configs, evaluate each on the test split, and return Table-1-shaped rows.

    Each arm is trained by ``train_model``, the recipe ``train`` uses.
    """
    reports: list[MetricsReport] = []
    for mode in MODES:
        if log:
            log(f"training {mode} baseline")
        model, _ = train_model(mode, corpus, cfg, log)
        reports.append(evaluate(model, corpus.test))
    return reports
