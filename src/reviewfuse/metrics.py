"""Confusion matrix, classification metrics, and report emission.

Positive class is genuine (label 1). Degenerate 0/0 ratios are reported as
0.0 and flagged rather than propagating NaN.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bundle import atomic_open
from .errors import ContractError, LabelError
from .fusion import predict_labels
from .model import ReviewClassifier
from .training import eval_outputs

# benchmark rows from the reference comparison (accuracy, precision, recall,
# f1), which `eval --compare` prints as context; never asserted at desk scale
PAPER_REFERENCE = {
    "fused": {"accuracy": 0.934, "precision": 0.927, "recall": 0.931, "f1": 0.934},
    "text_only": {"accuracy": 0.893, "precision": 0.887, "recall": 0.881, "f1": 0.884},
    "image_only": {"accuracy": 0.845, "precision": 0.824, "recall": 0.836, "f1": 0.830},
}


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion_matrix(preds, golds) -> ConfusionMatrix:
    """The counts of (prediction, gold) pairs of two equal-length
    sequences or arrays of 0/1 labels."""
    p, g = np.asarray(preds), np.asarray(golds)
    if len(p) != len(g):
        raise ContractError(f"{len(p)} predictions vs {len(g)} gold labels")
    if not len(p):
        raise ContractError("confusion_matrix needs at least one pair")
    bad = ~(np.isin(p, (0, 1)) & np.isin(g, (0, 1)))
    if bad.any():
        i = int(bad.argmax())
        raise LabelError(f"labels must be 0/1, got pred={preds[i]} gold={golds[i]}")
    # index 2 * gold + pred: tn, fp, fn, tp
    tn, fp, fn, tp = np.bincount((2 * g + p).astype(np.intp), minlength=4).tolist()
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    cm: ConfusionMatrix
    model_tag: str = ""
    split_tag: str = ""
    n: int = 0
    degenerate: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "model": self.model_tag,
            "split": self.split_tag,
            "n": self.n,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "confusion_matrix": {"tp": self.cm.tp, "fp": self.cm.fp,
                                 "fn": self.cm.fn, "tn": self.cm.tn},
            "positive_class": "genuine",
            "degenerate": self.degenerate,
        }


def compute_metrics(cm: ConfusionMatrix, model_tag: str = "",
                    split_tag: str = "") -> MetricsReport:
    if cm.total < 1:
        raise ContractError("compute_metrics needs at least one evaluated sample")
    degenerate: list[str] = []

    def ratio(num, den, name):
        if den == 0:
            degenerate.append(name)
            return 0.0
        return num / den

    accuracy = (cm.tp + cm.tn) / cm.total
    precision = ratio(cm.tp, cm.tp + cm.fp, "precision")
    recall = ratio(cm.tp, cm.tp + cm.fn, "recall")
    f1 = ratio(2 * precision * recall, precision + recall, "f1")
    return MetricsReport(accuracy=accuracy, precision=precision, recall=recall,
                         f1=f1, cm=cm, model_tag=model_tag, split_tag=split_tag,
                         n=cm.total, degenerate=degenerate)


def evaluate(model: ReviewClassifier, dataset,
             split_tag: str = "test") -> MetricsReport:
    """Eval-mode predictions over a PreparedDataset -> MetricsReport, tagged
    with the model's mode."""
    logits, golds = eval_outputs(model.forward_batch, dataset)
    return compute_metrics(confusion_matrix(predict_labels(logits), golds),
                           model_tag=model.mode, split_tag=split_tag)


def format_plain(reports: list[MetricsReport]) -> str:
    """Aligned text table, 4-decimal floats."""
    tag_w = max(len("model"), *(len(r.model_tag) for r in reports))
    header = (f"{'model':<{tag_w}}  {'accuracy':>8}  {'precision':>9}  "
              f"{'recall':>6}  {'f1':>6}")
    lines = [header]
    for r in reports:
        lines.append(f"{r.model_tag:<{tag_w}}  {r.accuracy:>8.4f}  "
                     f"{r.precision:>9.4f}  {r.recall:>6.4f}  {r.f1:>6.4f}")
    return "\n".join(lines) + "\n"


def format_csv(reports: list[MetricsReport]) -> str:
    lines = ["model,accuracy,precision,recall,f1"]
    for r in reports:
        lines.append(f"{r.model_tag},{r.accuracy:.4f},{r.precision:.4f},"
                     f"{r.recall:.4f},{r.f1:.4f}")
    return "\n".join(lines) + "\n"


def format_json(reports: list[MetricsReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


_FORMATTERS = {"plain": format_plain, "csv": format_csv, "json": format_json}


def emit_report(reports: list[MetricsReport], fmt: str = "plain",
                path=None) -> str:
    """Render reports; write to ``path`` (atomically) when given, always
    return the text."""
    if fmt not in _FORMATTERS:
        raise ContractError(f"unknown report format {fmt!r}")
    text = _FORMATTERS[fmt](reports)
    if path is not None:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def format_confusion(cm: ConfusionMatrix) -> str:
    """Human-readable 2x2 matrix (rows = gold, cols = predicted)."""
    return ("              pred_fake  pred_genuine\n"
            f"gold_fake     {cm.tn:>9d}  {cm.fp:>12d}\n"
            f"gold_genuine  {cm.fn:>9d}  {cm.tp:>12d}\n")
