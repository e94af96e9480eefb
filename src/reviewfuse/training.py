"""Adam with decoupled weight decay, the epoch loop, and early stopping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor, cross_entropy
from .bundle import ModelBundle
from .errors import ContractError, FormatError, ParameterError, \
    TrainingDivergenceError
from .fusion import predict_labels
from .model import ReviewClassifier

# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS_ADAM = 1e-8


@dataclass
class TrainConfig:
    """Fine-tuning settings; the defaults are the desk recipe's, matched to
    the default ``gen-data`` corpus (``train`` and ``eval --compare`` both
    use them)."""
    lr: float = 5e-4
    weight_decay: float = 0.01
    batch_size: int = 32
    max_epochs: int = 10
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ParameterError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ParameterError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.patience < 1 or self.max_epochs < 1 or self.batch_size < 1:
            raise ParameterError("patience, max_epochs and batch_size must be >= 1")


class AdamState:
    """Adam's settings, moments and step count over one flat buffer of
    parameters, bound to ``params`` when built.

    Each parameter is copied into its slice of one contiguous buffer
    ``flat`` and its ``Tensor.data`` becomes a view of that slice. ``m``,
    ``v`` and the gradient ``grad`` share that layout; ``grads`` holds each
    parameter's view of ``grad``. ``lr`` is ``cfg.lr``, and ``decay`` holds
    each element's decoupled weight-decay factor, ``1 - lr * weight_decay``
    for a tensor of rank 2 or more (weight matrices, embeddings, conv
    kernels) and 1 for a rank-1 one (biases, norm gains and shifts), or is
    None when ``cfg.weight_decay`` is 0. A step is one copy of the
    gradients into ``grads`` plus about ten whole-buffer numpy ops.
    """

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        dtypes = {p.data.dtype for p in params.values()} or {np.dtype(np.float32)}
        if len(dtypes) != 1:
            raise ContractError(
                f"AdamState needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        ends = np.cumsum([p.data.size for p in params.values()]).tolist()
        self.bounds = list(zip([0] + ends[:-1], ends))
        self.names = tuple(params)
        self.shapes = [p.data.shape for p in params.values()]
        self.flat = np.zeros(ends[-1] if ends else 0, dtype=dtypes.pop())
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.grad = np.zeros_like(self.flat)
        self.scratch = np.empty_like(self.flat)  # adam_update's temporary
        self.views = list(self.split(self.flat).values())
        self.grads = list(self.split(self.grad).values())
        self.t = 0
        self.lr = cfg.lr
        self.decay = None
        if cfg.weight_decay:
            self.decay = np.ones_like(self.flat)
            for (lo, hi), shape in zip(self.bounds, self.shapes):
                if len(shape) >= 2:
                    self.decay[lo:hi] = 1.0 - cfg.lr * cfg.weight_decay
        self.adopt(params)

    def split(self, buf: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's view of ``buf``, a buffer laid out like ``flat``."""
        return {name: buf[lo:hi].reshape(shape) for name, (lo, hi), shape
                in zip(self.names, self.bounds, self.shapes)}

    def adopt(self, params: dict[str, Tensor]) -> None:
        """Check ``params`` are the bound set and make every ``Tensor.data``
        its view of ``flat`` again, copying in an array that was put in its
        place."""
        if self.names != tuple(params):
            raise ContractError("AdamState is bound to another parameter set")
        for name, p, view in zip(self.names, params.values(), self.views):
            if p.data is not view:
                if p.data.shape != view.shape or p.data.dtype != view.dtype:
                    raise ContractError(
                        f"parameter {name} changed to {p.data.shape} {p.data.dtype}")
                view[...] = p.data
                p.data = view


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One optimizer step from the gradients currently stored on ``params``:
    each is copied into its view of ``state.grad``, then ``adam_update``.
    A missing gradient counts as zero."""
    state.adopt(params)
    for name, p, g in zip(state.names, params.values(), state.grads):
        if p.grad is not None and p.grad.shape != g.shape:
            raise ContractError(
                f"gradient shape {p.grad.shape} != parameter shape {g.shape} for {name}")
        g[...] = 0 if p.grad is None else p.grad
    adam_update(state)


def adam_update(state: AdamState) -> None:
    """One Adam step of ``state.flat`` from ``state.grad``, which is spent
    as scratch.

    Decoupled weight decay shrinks the decaying parameters before the Adam
    update; bias correction makes the very first step ~ -lr * sign(g).
    Element for element this is the per-tensor update
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g``,
    ``p -= lr (m / bc1) / (sqrt(v / bc2) + eps)`` in the same operation
    order, so results are bit-identical to it, with one exception: a first
    moment below the dtype's smallest normal number is flushed to zero.
    Such moments belong to units whose gradient has been zero for hundreds
    of steps (``m`` decays by ``b1`` a step); arithmetic on subnormals runs
    many times slower, and the step they give, at most
    ``tiny / (bc1 * eps) * lr`` (about 1.2e-29 lr in float32), rounds away
    against any parameter that is not itself almost zero.
    """
    theta, g, m, v, tmp = state.flat, state.grad, state.m, state.v, state.scratch
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    if state.decay is not None:
        theta *= state.decay
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=tmp)
    m[np.abs(m, out=tmp) < np.finfo(m.dtype).tiny] = 0
    v *= BETA2
    np.multiply(g, 1.0 - BETA2, out=tmp)
    v += np.multiply(tmp, g, out=tmp)
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += EPS_ADAM
    step = np.divide(m, bc1, out=g)
    step *= state.lr
    step /= tmp
    theta -= step


def train_epoch(model: ReviewClassifier, dataset, state: AdamState,
                cfg: TrainConfig, epoch: int) -> float:
    """One pass over deterministically shuffled batches; returns mean loss."""
    rng = np.random.default_rng([cfg.seed, epoch, 0xD0])
    total_loss = 0.0
    total_n = 0
    for bi, (reviews, crops, labels) in enumerate(
            dataset.batches(cfg.batch_size, cfg.seed, epoch)):
        logits = model.forward_batch(reviews, crops, training=True, rng=rng)
        loss = cross_entropy(logits, labels)
        val = loss.item()
        if not math.isfinite(val):
            raise TrainingDivergenceError(
                f"non-finite loss {val} at epoch {epoch}, batch {bi}"
            )
        model.zero_grad()
        loss.backward()
        adam_step(model.params, state)
        del logits, loss  # free this step's graph before the next forward pass
        total_loss += val * len(labels)
        total_n += len(labels)
    if total_n == 0:
        raise ContractError("train_epoch got an empty dataset")
    return total_loss / total_n


EVAL_BATCH = 64


def eval_outputs(forward, dataset) -> tuple[np.ndarray, np.ndarray]:
    """``forward(reviews, crops)`` over a dataset in eval mode.

    Batches of ``EVAL_BATCH`` in dataset order, no graph recording; returns
    the outputs stacked row per sample, and the labels.
    """
    outputs, labels = [], []
    with ag.no_grad():
        for reviews, crops, batch_labels in dataset.batches(EVAL_BATCH,
                                                            shuffle=False):
            outputs.append(forward(reviews, crops).data)
            labels.append(batch_labels)
    if not outputs:
        raise ContractError("eval_outputs got an empty dataset")
    return np.concatenate(outputs), np.concatenate(labels)


def evaluate_accuracy(model: ReviewClassifier, dataset) -> float:
    """Fraction correct in eval mode (dropout off, no graph recording)."""
    logits, labels = eval_outputs(model.forward_batch, dataset)
    return int((predict_labels(logits) == labels).sum()) / len(labels)


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based
    stop_reason: str = ""


def fit(model: ReviewClassifier, train_data, val_data, cfg: TrainConfig,
        epoch_fn=None, val_fn=None,
        log=None) -> tuple[TrainReport, dict[str, np.ndarray]]:
    """Train with validation-accuracy early stopping.

    Keeps a copy of the best-so-far parameters; stops after ``patience``
    consecutive epochs without strict improvement, or at max_epochs. The
    best epoch's parameters are copied back into the model's arrays in
    place, not the last ones, and the copies are the second return value.
    ``epoch_fn(epoch)`` returns the epoch's mean training loss and
    ``val_fn()`` its validation accuracy; by default they are
    ``train_epoch`` and ``evaluate_accuracy``, and a caller with its own
    step loop (``workflow.warm_start_head``) or a test passes its own. Only
    ``train_epoch`` gets an ``AdamState`` built here: building one rebinds
    every parameter, which would take them from a caller's own state.
    """
    if epoch_fn is None:
        state = AdamState(model.params, cfg)
        epoch_fn = lambda epoch: train_epoch(model, train_data, state, cfg, epoch)
    if val_fn is None:
        val_fn = lambda: evaluate_accuracy(model, val_data)

    report = TrainReport()
    best_acc = -1.0
    best = {k: t.data.copy() for k, t in model.params.items()}
    bad_epochs = 0
    for epoch in range(1, cfg.max_epochs + 1):
        loss = epoch_fn(epoch)
        acc = val_fn()
        report.train_losses.append(loss)
        report.val_accuracies.append(acc)
        if log:
            log(f"epoch {epoch}: train_loss={loss:.4f} val_acc={acc:.4f}")
        if acc > best_acc:
            best_acc = acc
            report.best_epoch = epoch
            best = {k: t.data.copy() for k, t in model.params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                report.stop_reason = "early_stop"
                break
    else:
        report.stop_reason = "max_epochs"
    for k, t in model.params.items():
        t.data[...] = best[k]
    return report, best


def model_to_bundle(model: ReviewClassifier, extra_config: dict | None = None) -> ModelBundle:
    config = {"model": model.config_dict()}
    if extra_config:
        config.update(extra_config)
    return ModelBundle(tensors={k: v.data.astype(np.float32)
                                for k, v in model.params.items()},
                       config=config)


def model_from_bundle(bundle: ModelBundle) -> ReviewClassifier:
    """The bundle's model; a malformed model config or a tensor set that does
    not match it is a FormatError (``load_bundle`` has already rejected
    non-finite tensors)."""
    try:
        return ReviewClassifier.from_state(bundle.config["model"], bundle.tensors)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed model in bundle: {e!r}") from None
