import json
import os

import numpy as np
import pytest

from reviewfuse.errors import ContractError, LabelError
from reviewfuse.metrics import (
    PAPER_REFERENCE,
    ConfusionMatrix,
    compute_metrics,
    confusion_matrix,
    emit_report,
    format_confusion,
    format_csv,
    format_json,
    format_plain,
)


def sk_metrics(preds, golds):
    """Independent reference implementation of the four metrics."""
    preds = np.asarray(preds)
    golds = np.asarray(golds)
    tp = int(((preds == 1) & (golds == 1)).sum())
    fp = int(((preds == 1) & (golds == 0)).sum())
    fn = int(((preds == 0) & (golds == 1)).sum())
    tn = int(((preds == 0) & (golds == 0)).sum())
    acc = (tp + tn) / len(preds)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return acc, prec, rec, f1


class TestConfusionMatrix:
    def test_worked_example(self):
        preds = [1, 1, 0, 0, 1, 0]
        golds = [1, 0, 0, 1, 1, 0]
        cm = confusion_matrix(preds, golds)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 1, 2)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            confusion_matrix([1], [1, 0])

    def test_empty(self):
        with pytest.raises(ContractError):
            confusion_matrix([], [])

    def test_bad_label(self):
        with pytest.raises(LabelError):
            confusion_matrix([2], [1])

    def test_arrays_count_as_lists_and_name_the_first_bad_pair(self):
        rng = np.random.default_rng(1)
        preds, golds = rng.integers(0, 2, size=(2, 50))
        assert confusion_matrix(preds, golds) == \
            confusion_matrix(preds.tolist(), golds.tolist())
        with pytest.raises(LabelError, match="pred=1 gold=3$"):
            confusion_matrix(np.array([0, 1, 2]), np.array([1, 3, 1]))


class TestComputeMetrics:
    def test_against_reference_random_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            preds = rng.integers(0, 2, size=n).tolist()
            golds = rng.integers(0, 2, size=n).tolist()
            r = compute_metrics(confusion_matrix(preds, golds))
            acc, prec, rec, f1 = sk_metrics(preds, golds)
            assert abs(r.accuracy - acc) < 1e-12
            assert abs(r.precision - prec) < 1e-12
            assert abs(r.recall - rec) < 1e-12
            assert abs(r.f1 - f1) < 1e-12

    def test_perfect_classifier(self):
        r = compute_metrics(ConfusionMatrix(tp=5, tn=5))
        assert (r.accuracy, r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0, 1.0)
        assert r.degenerate == []

    def test_all_negative_predictions_degenerate_precision(self):
        r = compute_metrics(ConfusionMatrix(tp=0, fp=0, fn=3, tn=7))
        assert r.precision == 0.0 and r.f1 == 0.0
        assert "precision" in r.degenerate and "f1" in r.degenerate

    def test_no_positives_in_gold(self):
        r = compute_metrics(ConfusionMatrix(tp=0, fp=2, fn=0, tn=8))
        assert r.recall == 0.0 and "recall" in r.degenerate

    def test_f1_harmonic_mean_property(self):
        r = compute_metrics(ConfusionMatrix(tp=6, fp=2, fn=4, tn=8))
        hm = 2 / (1 / r.precision + 1 / r.recall)
        assert abs(r.f1 - hm) < 1e-12


class TestFormatting:
    def _reports(self):
        a = compute_metrics(ConfusionMatrix(tp=40, fp=5, fn=10, tn=45),
                            model_tag="fused", split_tag="test")
        b = compute_metrics(ConfusionMatrix(tp=30, fp=15, fn=20, tn=35),
                            model_tag="text_only", split_tag="test")
        return [a, b]

    def test_plain_four_decimals_and_alignment(self):
        text = format_plain(self._reports())
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert "0.8500" in lines[1]  # fused accuracy (85/100)
        assert lines[0].startswith("model")

    def test_csv_header_and_rows(self):
        text = format_csv(self._reports())
        lines = text.strip().split("\n")
        assert lines[0] == "model,accuracy,precision,recall,f1"
        assert lines[1].startswith("fused,0.8500,")

    def test_json_roundtrip(self):
        data = json.loads(format_json(self._reports()))
        assert data[0]["model"] == "fused"
        assert data[0]["confusion_matrix"] == {"tp": 40, "fp": 5,
                                               "fn": 10, "tn": 45}
        assert data[0]["positive_class"] == "genuine"

    def test_emit_writes_file(self, tmp_path):
        path = tmp_path / "report.csv"
        text = emit_report(self._reports(), fmt="csv", path=path)
        assert path.read_text() == text

    def test_failed_write_leaves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.csv"
        emit_report(self._reports(), fmt="csv", path=path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            emit_report(self._reports(), fmt="json", path=path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["report.csv"]

    def test_emit_unknown_format(self):
        with pytest.raises(ContractError):
            emit_report(self._reports(), fmt="xml")

    def test_confusion_pretty(self):
        s = format_confusion(ConfusionMatrix(tp=1, fp=2, fn=3, tn=4))
        assert "gold_genuine" in s and "pred_fake" in s


class TestReference:
    def test_reference_rows_present_and_ordered(self):
        assert set(PAPER_REFERENCE) == {"fused", "text_only", "image_only"}
        f = PAPER_REFERENCE["fused"]["accuracy"]
        t = PAPER_REFERENCE["text_only"]["accuracy"]
        i = PAPER_REFERENCE["image_only"]["accuracy"]
        assert f > t > i
