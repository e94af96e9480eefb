import contextlib
import dataclasses
import io
import json
import os
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewfuse import autograd as ag
from reviewfuse import cli, errors, gradsuite
from reviewfuse.bundle import ModelBundle, load_bundle, save_bundle
from reviewfuse.cli import main
from reviewfuse.data import PreparedDataset, align_images, read_manifest
from reviewfuse.fusion import predict_labels
from reviewfuse.image_encoder import ImageEncoderConfig
from reviewfuse.imageproc import encode_ppm
from reviewfuse.model import ReviewClassifier
from reviewfuse.synthgen import GeneratorSpec
from reviewfuse.text_encoder import TextEncoderConfig
from reviewfuse.textproc import Vocabulary
from reviewfuse.training import (
    TrainConfig,
    eval_outputs,
    model_from_bundle,
    model_to_bundle,
)
from reviewfuse.workflow import desk_model, load_corpus, train_model
from test_synthgen import tree_bytes


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_corpus")
    assert main(["gen-data", "--out", str(d), "--n", "60", "--seed", "3"]) == 0
    return d


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus_dir):
    d = tmp_path_factory.mktemp("cli_model")
    model_path = str(d / "m.fkit")
    code = main(["train", "--data", str(corpus_dir), "--out", model_path,
                 "--mode", "fused", "--max-epochs", "2", "--patience", "1",
                 "--seed", "1"])
    assert code == 0
    return model_path


# each subcommand's settings and defaults as they stood when the CLI kept
# its own copy of them, except train's training settings, which are now
# eval --compare's (TrainConfig's defaults); a flag's default comes from the
# library, and a change there that moves one of these shows here
REQUIRED = "<required>"
DEFAULTS = {
    "gen-data": {"out": REQUIRED, "n": 2000, "seed": 7,
                 "ratios": (0.6, 0.2, 0.2), "text_flip_rate": 0.25,
                 "p_match": 0.95, "image_side": 37},
    "train": {"data": REQUIRED, "out": REQUIRED, "mode": "fused", "seed": 0,
              "lr": 5e-4, "weight_decay": 0.01, "batch_size": 32,
              "max_epochs": 10, "patience": 10, "max_len": 16,
              "crop_side": 32, "vocab_size": 2000, "report": None},
    "eval": {"data": REQUIRED, "model": None, "split": "test",
             "format": "plain", "out": None, "compare": False, "seed": 0},
    "predict": {"model": REQUIRED, "text": None, "image": None},
    "gradcheck": {"seed": 0},
}


@pytest.mark.parametrize("command", list(DEFAULTS))
def test_settings_and_defaults_are_unchanged(command):
    table = DEFAULTS[command]
    required = [k for k, v in table.items() if v == REQUIRED]
    args = cli.build_parser().parse_args([command])
    if required:
        with pytest.raises(cli.UsageError) as e:
            cli._merge_config(args, args.defaults)
        assert str(e.value).endswith(
            ", ".join(f"--{k}" for k in required))
    argv = [command] + [a for k in required for a in (f"--{k}", "v")]
    args = cli.build_parser().parse_args(argv)
    merged = cli._merge_config(args, args.defaults)
    want = {**table, **{k: "v" for k in required}}
    assert merged == want
    assert [type(v) for v in merged.values()] == [type(want[k]) for k in merged]
    if command == "gen-data":
        # the generator takes exactly gen-data's settings; what no command
        # sets is a constant of synthgen
        assert [f.name for f in dataclasses.fields(GeneratorSpec)] == \
            [k for k in merged if k not in ("out", "ratios")]


class TestGenData:
    def test_balanced_counts_printed(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen-data", "--out", str(tmp_path / "d"),
                           "--n", "40", "--seed", "7")
        assert code == 0
        assert "fake=12, genuine=12" in out  # 40 * 0.6 = 24 train

    def test_rerun_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["gen-data", "--out", str(tmp_path / sub),
                         "--n", "30", "--seed", "5"]) == 0
        assert (tmp_path / "a" / "train.csv").read_bytes() == \
               (tmp_path / "b" / "train.csv").read_bytes()

    def test_missing_out_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen-data", "--n", "10")
        assert code == 1
        assert "--out" in err

    @pytest.mark.parametrize("flag,value", [("--n", "-5"), ("--seed", "-1")])
    def test_negative_count_or_seed_is_usage_error(self, capsys, tmp_path,
                                                   flag, value):
        code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"),
                           flag, value)
        assert code == 1 and flag in err
        assert not (tmp_path / "d").exists()

    def test_count_past_six_digit_ids_is_usage_error(self, capsys, tmp_path):
        # a count past the sample ids' six digits used to reach numpy as a
        # MemoryError or ValueError traceback
        code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"),
                           "--n", str(10 ** 15))
        assert code == 1 and "--n must be in" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("side", ["0", "1000000"])
    def test_image_side_out_of_range_is_usage_error(self, capsys, tmp_path, side):
        code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"),
                           "--image-side", side)
        assert code == 1 and "--image-side must be in" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("args", [
        ["--n", "5"], ["--ratios", "0.5,0.5,0.5"], ["--ratios", "nan,1,1"],
        ["--ratios", "0.6,0.2,nan"], ["--ratios", "1e-12,0.5,0.5"],
        ["--n", "6"]])
    def test_unsplittable_corpus_writes_nothing(self, capsys, tmp_path, args):
        # the split is checked before any directory or image is written; a
        # split that would come out empty (1e-12 of 2,000 samples, or 3
        # samples a class cut 2/0/1) cannot be split
        code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"), *args)
        assert code == 2 and "error:" in err
        assert not (tmp_path / "d").exists()

    def test_config_file_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "d"), "n": 24,
                                   "seed": 2}))
        # flag overrides the file's n
        code, out, _ = run(capsys, "gen-data", "--config", str(cfg),
                           "--n", "12")
        assert code == 0
        assert "train: 8 samples" in out  # round(12 * 0.7) per class sums to 8

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "d"), "bogus": 1}))
        code, _, err = run(capsys, "gen-data", "--config", str(cfg))
        assert code == 1
        assert "bogus" in err


class TestTrain:
    def test_writes_bundle_and_report(self, trained):
        config = load_bundle(trained).config
        assert "preprocess" not in config  # the model config holds the sizes
        assert config["train_config"] == {
            "lr": 5e-4, "weight_decay": 0.01, "batch_size": 32,
            "max_epochs": 2, "patience": 1, "seed": 1}
        report = json.loads(open(trained + ".report.json").read())
        assert len(report["train_losses"]) >= 1
        assert report["best_epoch"] >= 1

    def test_default_flags_train_with_the_compare_settings(self, tmp_path,
                                                           corpus_dir):
        # train left at its defaults runs eval --compare's settings
        out = str(tmp_path / "m.fkit")
        assert main(["train", "--data", str(corpus_dir), "--out", out,
                     "--mode", "text_only"]) == 0
        assert load_bundle(out).config["train_config"] == {
            **cli.COMPARE_TRAIN, "seed": 0}

    def test_determinism_identical_outputs(self, tmp_path, corpus_dir):
        outs = []
        for sub in ("a", "b"):
            p = str(tmp_path / f"{sub}.fkit")
            assert main(["train", "--data", str(corpus_dir), "--out", p,
                         "--mode", "text_only", "--max-epochs", "2",
                         "--patience", "1", "--seed", "4"]) == 0
            outs.append(p)
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()
        assert open(outs[0] + ".report.json").read() == \
               open(outs[1] + ".report.json").read()

    def test_bundle_holds_train_model_parameters(self, capsys, tmp_path,
                                                 corpus_dir):
        # train runs the recipe of eval --compare: head warm start, then fit
        out = str(tmp_path / "m.fkit")
        code, printed, _ = run(capsys, "train", "--data", str(corpus_dir),
                               "--out", out, "--mode", "text_only",
                               "--max-epochs", "2", "--patience", "1",
                               "--seed", "4")
        assert code == 0 and printed.startswith("head warmup val_acc=")
        model, _ = train_model("text_only", load_corpus(corpus_dir),
                               TrainConfig(max_epochs=2, patience=1, seed=4))
        tensors = load_bundle(out).tensors
        assert list(tensors) == list(model.params)
        for k, t in model.params.items():
            assert tensors[k].tobytes() == t.data.tobytes(), k

    def test_failed_report_write_leaves_previous_file(self, tmp_path,
                                                      corpus_dir, monkeypatch):
        # json.dump streams the report; a value it cannot encode stops it
        # midway, after part of the file is written
        out = str(tmp_path / "m.fkit")
        argv = ["train", "--data", str(corpus_dir), "--out", out,
                "--mode", "text_only", "--max-epochs", "1", "--seed", "4"]
        assert main(argv) == 0
        before = open(out + ".report.json", "rb").read()
        train = cli.train_model

        def unencodable_report(*args, **kwargs):
            model, report = train(*args, **kwargs)
            report.stop_reason = object()  # after best_epoch in key order
            return model, report

        monkeypatch.setattr(cli, "train_model", unencodable_report)
        with pytest.raises(TypeError):
            main(argv)
        assert open(out + ".report.json", "rb").read() == before
        assert sorted(os.listdir(tmp_path)) == ["m.fkit", "m.fkit.report.json"]

    def test_oversized_manifest_field_is_a_data_error(self, capsys, tmp_path):
        # past csv's 131,072-character field limit
        (tmp_path / "train.csv").write_text(
            "id,text,label\na,\"" + "x" * 200_000 + "\",0\n")
        code, _, err = run(capsys, "train", "--data", str(tmp_path),
                           "--out", str(tmp_path / "m.fkit"))
        assert code == 2 and "train.csv:2:" in err and "field" in err

    def test_missing_data_dir(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "nope"),
                           "--out", str(tmp_path / "m.fkit"))
        assert code == 2

    def test_bad_lr_is_usage_error(self, capsys, corpus_dir, tmp_path):
        code, _, _ = run(capsys, "train", "--data", str(corpus_dir),
                         "--out", str(tmp_path / "m.fkit"), "--lr", "-1")
        assert code == 1

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_is_usage_error_before_training(self, capsys,
                                                          corpus_dir, tmp_path, lr):
        code, out, err = run(capsys, "train", "--data", str(corpus_dir),
                             "--out", str(tmp_path / "m.fkit"), "--lr", lr)
        assert code == 1 and "lr" in err and "epoch" not in out


class TestConfigFile:
    """A config file's values pass the rule of the flag each stands for."""

    def train(self, capsys, corpus_dir, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        return run(capsys, "train", "--data", str(corpus_dir), "--out",
                   str(tmp_path / "m.fkit"), "--config", str(path))

    @pytest.mark.parametrize("cfg", [
        {"lr": "fast"}, {"lr": [1]}, {"seed": "s"}, {"seed": 1.5},
        {"seed": True}, {"max_epochs": "x"}, {"weight_decay": "a"},
        {"max_len": "a"}, {"mode": "bogus"}, {"data": 5},
    ], ids=["lr-str", "lr-list", "seed-str", "seed-float", "seed-bool",
            "max-epochs-str", "weight-decay-str", "max-len-str", "mode-choice",
            "data-number"])
    def test_mistyped_value_is_usage_error(self, capsys, corpus_dir, tmp_path,
                                           cfg):
        code, out, err = self.train(capsys, corpus_dir, tmp_path, json.dumps(cfg))
        assert code == 1 and next(iter(cfg)) in err and "epoch" not in out

    @pytest.mark.parametrize("cfg", [
        {"crop_side": 1_000_000}, {"crop_side": 0}, {"max_len": 10 ** 9},
        {"max_len": 2}, {"vocab_size": 10 ** 9}, {"vocab_size": 3},
    ])
    def test_size_out_of_range_is_usage_error(self, capsys, corpus_dir, tmp_path,
                                              cfg):
        # rejected before the corpus is read: 1e6-pixel crops of the corpus
        # would need petabytes
        (key, _), = cfg.items()
        code, _, err = self.train(capsys, corpus_dir, tmp_path, json.dumps(cfg))
        assert code == 1 and f"--{key.replace('_', '-')} must be in" in err

    @pytest.mark.parametrize("text", ['{"lr": NaN}', '{"lr": Infinity}'])
    def test_non_finite_lr_is_usage_error(self, capsys, corpus_dir, tmp_path,
                                          text):
        code, out, err = self.train(capsys, corpus_dir, tmp_path, text)
        assert code == 1 and "lr" in err and "epoch" not in out

    def test_values_as_json_or_as_flag_text(self, capsys, tmp_path):
        # a number as JSON or as the flag's text, --ratios as a JSON list,
        # and a null left to the default
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "d"), "n": "24",
                                   "seed": 2, "ratios": [0.5, 0.25, 0.25],
                                   "p_match": None}))
        code, out, _ = run(capsys, "gen-data", "--config", str(cfg))
        assert code == 0 and "train: 12 samples" in out

    @pytest.mark.parametrize("raw", [b'{"seed": "caf\xe9"}', b"[" * 100_000],
                             ids=["not-utf8", "nested-past-recursion-limit"])
    def test_unreadable_config_is_a_data_error(self, capsys, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_bytes(raw)
        code, out, err = run(capsys, "gradcheck", "--config", str(path))
        assert code == 2 and "cannot read config" in err and "PASS" not in out

    def test_on_off_flag_takes_a_boolean(self, capsys, tmp_path):
        cfg = tmp_path / "eval.json"
        cfg.write_text(json.dumps({"data": "d", "compare": "yes"}))
        code, _, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 1 and "compare" in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("scratch")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(
    st.sampled_from(sorted(set(DEFAULTS["train"]) - {"data", "out", "report"})),
    JSON_VALUES, max_size=4))
def test_any_train_config_is_a_usage_or_data_error(scratch, cfg):
    # --data names a missing directory, so a config that passes every check
    # stops at the corpus (exit 2) and nothing trains
    path = scratch / "cfg.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["train", "--data", str(scratch / "missing"), "--out",
                     str(scratch / "m.fkit"), "--config", str(path)])
    assert code in (1, 2), err.getvalue()


class TestEval:
    def test_json_report(self, capsys, corpus_dir, trained):
        code, out, _ = run(capsys, "eval", "--data", str(corpus_dir),
                           "--model", trained, "--format", "json")
        assert code == 0
        payload = json.loads(out[:out.rindex("]") + 1])
        assert payload[0]["split"] == "test"
        assert "pred_genuine" in out

    def test_val_split(self, capsys, corpus_dir, trained):
        code, out, _ = run(capsys, "eval", "--data", str(corpus_dir),
                           "--model", trained, "--split", "val",
                           "--format", "csv")
        assert code == 0
        assert out.startswith("model,accuracy")

    def test_requires_model_or_compare(self, capsys, corpus_dir):
        code, _, err = run(capsys, "eval", "--data", str(corpus_dir))
        assert code == 1 and "--model" in err

    def test_compare_takes_no_model(self, capsys, corpus_dir, trained):
        # eval --compare trains its own models; a bundle it would ignore is
        # a usage error, raised before anything is read or trained
        code, out, err = run(capsys, "eval", "--data", str(corpus_dir),
                             "--compare", "--model", trained)
        assert code == 1 and "--model" in err and out == ""

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_compare_evaluates_only_the_test_split(self, capsys, tmp_path, split):
        # the arms are scored on the test split; another split is a usage
        # error, raised before the corpus is read (this directory has none)
        code, out, err = run(capsys, "eval", "--data", str(tmp_path / "none"),
                             "--compare", "--split", split)
        assert code == 1 and "--split" in err and out == ""

    def test_corrupt_model_file(self, capsys, corpus_dir, tmp_path):
        bad = tmp_path / "bad.fkit"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code, _, err = run(capsys, "eval", "--data", str(corpus_dir),
                           "--model", str(bad))
        assert code == 2 and "magic" in err


@pytest.mark.parametrize("command,split", [("train", "val"), ("eval", "test")])
def test_empty_split_manifest_is_a_data_error(capsys, tmp_path, corpus_dir,
                                              trained, command, split):
    # a manifest holding only its header is rejected with its file's name
    # as the corpus is read, before anything trains or evaluates
    data = tmp_path / "data"
    shutil.copytree(corpus_dir, data)
    (data / f"{split}.csv").write_text("id,text,label\n")
    target = (["--out", str(tmp_path / "m.fkit")] if command == "train"
              else ["--model", trained])
    code, out, err = run(capsys, command, "--data", str(data), *target)
    assert code == 2 and f"{split}.csv: the manifest holds no samples" in err
    assert "epoch" not in out and "Traceback" not in err


class TestMissingImage:
    """The cli corpus with the train image ``s000050.ppm`` deleted: only a
    command that reads images aligns them."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory, corpus_dir):
        d = tmp_path_factory.mktemp("missing_image") / "data"
        shutil.copytree(corpus_dir, d)
        (d / "images" / "s000050.ppm").unlink()
        return d

    def test_text_only_eval_reads_no_image(self, capsys, tmp_path, corpus_dir,
                                           trained, data):
        tokens = load_bundle(trained).config["vocab_tokens"]
        model = desk_model("text_only", len(Vocabulary(tokens)), seed=5)
        path = str(tmp_path / "text_only.fkit")
        save_bundle(model_to_bundle(model, {"vocab_tokens": tokens}), path)
        whole, gone = (run(capsys, "eval", "--data", str(d), "--model", path,
                           "--split", "train") for d in (corpus_dir, data))
        assert whole[0] == 0 and gone == whole

    def test_fused_eval_names_the_missing_image(self, capsys, trained, data):
        code, out, err = run(capsys, "eval", "--data", str(data), "--model",
                             trained, "--split", "train")
        assert code == 2 and out == ""
        assert "missing image files for ids: s000050" in err

    def train(self, capsys, data, out, mode):
        return run(capsys, "train", "--data", str(data), "--out", str(out),
                   "--mode", mode, "--max-epochs", "2", "--patience", "1",
                   "--seed", "1")

    def test_text_only_train_reads_no_image(self, capsys, tmp_path, corpus_dir,
                                            data):
        whole, gone = tmp_path / "whole.fkit", tmp_path / "gone.fkit"
        assert self.train(capsys, corpus_dir, whole, "text_only")[0] == 0
        assert self.train(capsys, data, gone, "text_only")[0] == 0
        assert gone.read_bytes() == whole.read_bytes()

    def test_fused_train_names_the_missing_image(self, capsys, tmp_path, data):
        code, out, err = self.train(capsys, data, tmp_path / "m.fkit", "fused")
        assert code == 2 and "missing image files for ids: s000050" in err
        assert not (tmp_path / "m.fkit").exists()


@pytest.fixture
def nothing_loads(monkeypatch):
    """``cli``'s corpus and bundle loaders, failing if they are called."""
    def loaded(*args, **kwargs):
        raise AssertionError("an input was read before the outputs were checked")

    monkeypatch.setattr(cli, "load_corpus", loaded)
    monkeypatch.setattr(cli, "load_bundle", loaded)


@pytest.mark.parametrize("argv", [
    ["eval", "--model", "{model}", "--out", "{model}"],
    ["eval", "--model", "{model}", "--config", "{config}", "--out", "{config}"],
    ["eval", "--compare", "--config", "{config}", "--out", "{config}"],
    ["train", "--out", "{tmp}/m.fkit", "--report", "{tmp}/m.fkit"],
    ["train", "--out", "{tmp}/m.fkit", "--report", "{tmp}/./m.fkit"],
    ["train", "--out", "{config}", "--config", "{config}"],
    ["train", "--out", "{tmp}/m.fkit", "--report", "{config}",
     "--config", "{config}"],
    ["train", "--out", "{tmp}/cfg", "--config", "{tmp}/cfg.report.json"],
    ["eval", "--model", "{model}", "--out", "{data}/test.csv"],
    ["train", "--out", "{data}/val.csv"],
    ["train", "--out", "{tmp}/m.fkit", "--report", "{data}/images/s000001.ppm"],
    ["train", "--out", "{data}/provenance.json"],
    ["eval", "--compare", "--out", "{data}/train.csv"],
    ["train", "--out", "{tmp}/m.fkit", "--report", "{tmp}/link/images/new.json"],
    ["eval", "--model", "{model}", "--out", "{data}/images/../test.csv"],
], ids=["eval-model", "eval-config", "compare-config", "train-report",
        "train-report-alias", "train-config", "report-config",
        "default-report-config", "eval-test-csv", "train-val-csv",
        "report-image", "train-provenance", "compare-train-csv",
        "report-under-linked-images", "eval-dotdot"])
def test_output_naming_an_input_or_output_is_usage_error(
        capsys, tmp_path, corpus_dir, trained, nothing_loads, argv):
    # it would overwrite the bundle, the config, the other output, or a
    # manifest, the provenance or an image of the --data corpus, also
    # reached through a symlink or a ".."
    model = tmp_path / "model.fkit"
    shutil.copyfile(trained, model)
    (tmp_path / "cfg.json").write_text("{}")
    (tmp_path / "cfg.report.json").write_text("{}")
    data = tmp_path / "data"
    shutil.copytree(corpus_dir, data)
    (tmp_path / "link").symlink_to(data)
    names = {"model": model, "config": tmp_path / "cfg.json", "tmp": tmp_path,
             "data": data}
    before = tree_bytes(tmp_path)
    code, out, err = run(capsys, argv[0], "--data", str(data),
                         *(a.format(**names) for a in argv[1:]))
    assert code == 1 and "would overwrite" in err
    assert out == "" and tree_bytes(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ["train", "--out", "{tmp}/none/m.fkit"],
    ["train", "--out", "{tmp}/dir"],
    ["train", "--out", "{tmp}/m.fkit", "--report", "{tmp}/none/r.json"],
    ["train", "--out", "{tmp}/m.fkit", "--report", "{tmp}/dir"],
    ["train", "--out", "{tmp}/dir/"],
    ["eval", "--model", "{model}", "--out", "{tmp}/none/r.txt"],
    ["eval", "--model", "{model}", "--out", "{tmp}/dir"],
    ["eval", "--compare", "--out", "{tmp}/none/r.txt"],
    ["eval", "--compare", "--out", "{tmp}/dir"],
], ids=["train-out-missing-dir", "train-out-dir", "report-missing-dir",
        "report-dir", "train-out-slash", "eval-missing-dir", "eval-dir",
        "compare-missing-dir", "compare-dir"])
def test_unwritable_output_is_a_data_error_before_any_work(
        capsys, tmp_path, corpus_dir, trained, nothing_loads, argv):
    (tmp_path / "dir").mkdir()
    before = tree_bytes(tmp_path)
    code, out, err = run(capsys, argv[0], "--data", str(corpus_dir),
                         *(a.format(model=trained, tmp=tmp_path) for a in argv[1:]))
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err
    assert "epoch" not in out and tree_bytes(tmp_path) == before


ERROR_EXIT_CODES = {
    errors.ParameterError: 1, cli.UsageError: 1, errors.DataError: 2,
    errors.ManifestError: 2, errors.FormatError: 2, errors.AlignmentError: 2,
    errors.SplitError: 2, errors.TokenIndexError: 2, errors.LabelError: 2,
    OSError: 2,
    errors.DimensionError: 3, errors.ContractError: 3,
    errors.TrainingDivergenceError: 3, errors.ReviewFuseError: 3,
}


def test_exit_code_map_names_every_package_error():
    defined = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.ReviewFuseError)}
    assert defined <= ERROR_EXIT_CODES.keys()


@pytest.mark.parametrize("error,code", ERROR_EXIT_CODES.items(),
                         ids=[c.__name__ for c in ERROR_EXIT_CODES])
def test_each_error_class_exits_with_its_documented_code(capsys, monkeypatch,
                                                         error, code):
    def failing(**cfg):
        raise error("the planted fault")

    monkeypatch.setattr(cli, "run_gradcheck", failing)
    got, out, err = run(capsys, "gradcheck")
    assert got == code
    assert "the planted fault" in err and "Traceback" not in err + out


class TestPredict:
    def _zero_model_path(self, tmp_path, mode="fused"):
        text_cfg = TextEncoderConfig(vocab_size=10, d_model=8, n_layers=1,
                                     n_heads=2, d_ff=16, max_len=8)
        image_cfg = ImageEncoderConfig(input_side=8, stem_channels=4,
                                       stages=[(1, 4, 1), (1, 8, 2)])
        model = ReviewClassifier(mode, text_cfg, image_cfg, d_hidden=8, seed=0)
        for t in model.params.values():
            t.data[:] = 0.0
        path = str(tmp_path / "zero.fkit")
        save_bundle(model_to_bundle(model, {
            "vocab_tokens": ["alpha", "beta", "gamma", "delta", "epsilon",
                             "zeta"],
        }), path)
        return path

    def _ppm(self, tmp_path):
        p = tmp_path / "img.ppm"
        p.write_bytes(encode_ppm(np.full((9, 9, 3), 120, dtype=np.uint8)))
        return str(p)

    def test_zero_weights_tie_goes_to_fake(self, capsys, tmp_path):
        model = self._zero_model_path(tmp_path)
        code, out, _ = run(capsys, "predict", "--model", model,
                           "--text", "alpha beta", "--image",
                           self._ppm(tmp_path))
        assert code == 0
        assert "label: fake" in out
        assert "p_fake: 0.5000" in out and "p_genuine: 0.5000" in out

    def test_text_only_does_not_need_image(self, capsys, tmp_path):
        model = self._zero_model_path(tmp_path, mode="text_only")
        code, out, _ = run(capsys, "predict", "--model", model,
                           "--text", "gamma delta")
        assert code == 0 and "label: fake" in out

    def test_missing_required_image_is_usage(self, capsys, tmp_path):
        model = self._zero_model_path(tmp_path)
        code, _, err = run(capsys, "predict", "--model", model,
                           "--text", "alpha")
        assert code == 1 and "--image" in err

    def test_probabilities_sum_to_one(self, capsys, corpus_dir, trained,
                                      tmp_path):
        img = str(corpus_dir / "images" / "s000000.ppm")
        code, out, _ = run(capsys, "predict", "--model", trained,
                           "--text", "absolutely amazing best ever",
                           "--image", img)
        assert code == 0
        pf = float(out.split("p_fake: ")[1].split()[0])
        pg = float(out.split("p_genuine: ")[1].split()[0])
        assert abs(pf + pg - 1.0) <= 0.0001

    def test_matches_batched_eval_of_test_split(self, capsys, corpus_dir,
                                                trained, tmp_path):
        # predict and eval share one loader, transform and label rule: a
        # single-sample predict reports the row eval computes for that
        # sample, in every mode (the unimodal bundles seeded, not trained)
        bundle = load_bundle(trained)
        fused = model_from_bundle(bundle)
        tokens = bundle.config["vocab_tokens"]
        vocab = Vocabulary(tokens)
        paths = {"fused": trained}
        for mode in ("text_only", "image_only"):
            paths[mode] = str(tmp_path / f"{mode}.fkit")
            model = desk_model(mode, len(vocab), fused.text_cfg.max_len,
                               fused.image_cfg.input_side, seed=5)
            save_bundle(model_to_bundle(model, {"vocab_tokens": tokens}),
                        paths[mode])
        samples, _ = align_images(read_manifest(corpus_dir / "test.csv"),
                                  corpus_dir / "images")
        ds = PreparedDataset.prepare(
            samples, vocab=vocab, max_len=fused.text_cfg.max_len,
            crop_side=fused.image_cfg.input_side)
        for mode, path in paths.items():
            model = model_from_bundle(load_bundle(path))
            logits, _ = eval_outputs(model.forward_batch, ds)
            labels = predict_labels(logits)
            z = logits.astype(np.float64)
            p_genuine = 1.0 / (1.0 + np.exp(z[:, 0] - z[:, 1]))
            for i in (0, 1, len(samples) - 1):
                code, out, _ = run(capsys, "predict", "--model", path,
                                   "--text", samples[i].text,
                                   "--image", samples[i].image_path)
                assert code == 0, mode
                assert f"label: {('fake', 'genuine')[labels[i]]}" in out, mode
                printed = float(out.split("p_genuine: ")[1].split()[0])
                assert abs(printed - p_genuine[i]) <= 1e-4, mode

    def test_preprocess_block_of_older_bundles_is_ignored(self, capsys,
                                                          corpus_dir, trained,
                                                          tmp_path):
        # bundles written before the model config alone held the sizes also
        # carry them in a "preprocess" block; whatever it says, predict
        # reads the model config
        argv = ["--text", "absolutely amazing best ever",
                "--image", str(corpus_dir / "images" / "s000000.ppm")]
        code, want, _ = run(capsys, "predict", "--model", trained, *argv)
        bundle = load_bundle(trained)
        for prep in ({"max_len": 16, "crop_side": 32}, {"max_len": 2},
                     "junk"):
            old = str(tmp_path / "old.fkit")
            save_bundle(ModelBundle(bundle.tensors,
                                    {**bundle.config, "preprocess": prep}), old)
            assert run(capsys, "predict", "--model", old, *argv)[:2] == (code, want)
        assert code == 0

    def test_dropout_p_of_older_bundles_is_ignored(self, capsys, corpus_dir,
                                                   trained, tmp_path):
        # bundles written while the head had a dropout setting carry
        # "dropout_p": 0.0 in their model config; such a bundle loads, and
        # predict prints what it prints for the bundle without the key
        argv = ["--text", "absolutely amazing best ever",
                "--image", str(corpus_dir / "images" / "s000000.ppm")]
        code, want, _ = run(capsys, "predict", "--model", trained, *argv)
        bundle = load_bundle(trained)
        assert "dropout_p" not in bundle.config["model"]
        old = str(tmp_path / "old.fkit")
        save_bundle(ModelBundle(bundle.tensors, {
            **bundle.config,
            "model": {**bundle.config["model"], "dropout_p": 0.0}}), old)
        assert run(capsys, "predict", "--model", old, *argv)[:2] == (code, want)
        assert code == 0

    def test_d_out_of_older_bundles_is_ignored(self, capsys, corpus_dir,
                                               trained, tmp_path):
        # bundles written while the image config had a d_out field carry
        # "d_out": 64, the last stage's width; such a bundle loads, and
        # predict and eval print what they print for the bundle without it
        argv = [["predict", "--text", "absolutely amazing best ever",
                 "--image", str(corpus_dir / "images" / "s000000.ppm")],
                ["eval", "--data", str(corpus_dir), "--split", "val"]]
        want = [run(capsys, *a, "--model", trained) for a in argv]
        bundle = load_bundle(trained)
        assert "d_out" not in bundle.config["model"]["image_cfg"]
        old = str(tmp_path / "old.fkit")
        model = bundle.config["model"]
        save_bundle(ModelBundle(bundle.tensors, {**bundle.config, "model": {
            **model, "image_cfg": {**model["image_cfg"], "d_out": 64}}}), old)
        assert [run(capsys, *a, "--model", old) for a in argv] == want
        assert [code for code, _, _ in want] == [0, 0]

    def test_image_with_trailing_bytes(self, capsys, tmp_path):
        model, image = self._zero_model_path(tmp_path), self._ppm(tmp_path)
        argv = ["predict", "--model", model, "--text", "alpha", "--image", image]
        assert run(capsys, *argv)[0] == 0
        with open(image, "ab") as fh:
            fh.write(b"\x00" * 5)
        code, out, err = run(capsys, *argv)
        assert code == 2 and "5 trailing bytes" in err and "label" not in out

    def test_unreadable_image(self, capsys, tmp_path):
        model = self._zero_model_path(tmp_path)
        code, _, _ = run(capsys, "predict", "--model", model,
                         "--text", "alpha", "--image",
                         str(tmp_path / "missing.ppm"))
        assert code == 2


class TestManifestEncoding:
    """A split manifest is UTF-8, with or without a byte-order mark."""

    def eval_split(self, capsys, tmp_path, manifest: bytes):
        data = tmp_path / "data"
        (data / "images").mkdir(parents=True)
        for sid in "abcd":
            (data / "images" / f"{sid}.ppm").write_bytes(
                encode_ppm(np.full((9, 9, 3), 7, dtype=np.uint8)))
        (data / "test.csv").write_bytes(manifest)
        model = TestPredict()._zero_model_path(tmp_path)
        return run(capsys, "eval", "--data", str(data), "--model", model)

    def test_invalid_utf8_is_a_data_error_naming_the_file(self, capsys, tmp_path):
        code, _, err = self.eval_split(capsys, tmp_path,
                                       b"id,text,label\na,caf\xe9,1\n")
        assert code == 2
        assert "test.csv:2: not valid UTF-8" in err and "Traceback" not in err

    def test_byte_order_mark_is_accepted(self, capsys, tmp_path):
        rows = b"id,text,label\na,alpha,0\nb,beta,1\nc,gamma,0\nd,delta,1\n"
        code, out, _ = self.eval_split(capsys, tmp_path, rows)
        assert code == 0
        code_bom, out_bom, _ = self.eval_split(capsys, tmp_path / "bom",
                                               b"\xef\xbb\xbf" + rows)
        assert code_bom == 0 and out_bom == out


def fkit_blob(tensors, config: bytes) -> bytes:
    """A bundle built byte by byte: ``tensors`` holds (raw name, shape, payload)."""
    out = [b"FKIT", struct.pack("<II", 1, len(tensors))]
    for name, shape, payload in tensors:
        out += [struct.pack("<I", len(name)), name,
                struct.pack(f"<I{len(shape)}Q", len(shape), *shape), payload]
    return b"".join(out + [struct.pack("<Q", len(config)), config])


def shorten_text(bundle, max_len):
    """Cut the bundle's text model to ``max_len`` positions."""
    bundle.config["model"]["text_cfg"]["max_len"] = max_len
    bundle.tensors["text.pos_emb"] = bundle.tensors["text.pos_emb"][:max_len]


class TestMalformedBundle:
    """Decode faults in a model file are data errors (exit 2), not tracebacks."""

    def predict(self, capsys, path):
        return run(capsys, "predict", "--model", str(path), "--text", "alpha")

    @pytest.mark.parametrize("config", [b'{"model": ', b"[" * 100_000,
                                        b"[1, 2]"])
    def test_bad_config_json(self, capsys, tmp_path, config):
        # cut short, nested past the parser's recursion limit, not an object
        path = tmp_path / "m.fkit"
        path.write_bytes(fkit_blob([(b"w", (2,), bytes(8))], config))
        code, _, err = self.predict(capsys, path)
        assert code == 2 and "JSON" in err

    def test_non_utf8_tensor_name(self, capsys, tmp_path):
        path = tmp_path / "m.fkit"
        path.write_bytes(fkit_blob([(b"w\xff\xfe", (2,), bytes(8))], b"{}"))
        code, _, err = self.predict(capsys, path)
        assert code == 2 and "UTF-8" in err

    @pytest.mark.parametrize("shape", [(2 ** 62, 4), (2 ** 62, 0),
                                       (2 ** 64 - 1, 0)])
    def test_huge_extents(self, capsys, tmp_path, shape):
        # (2^62, 4) has 2^64 elements, which numpy's product wraps to 0
        path = tmp_path / "m.fkit"
        path.write_bytes(fkit_blob([(b"w", shape, b"")], b"{}"))
        code, _, err = self.predict(capsys, path)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("mutate", [
        lambda b: b.config.update(model=5),
        lambda b: b.config["model"]["text_cfg"].update(vocab_size="x"),
        lambda b: b.config["model"]["text_cfg"].update(bogus=1),
        lambda b: b.config["model"].pop("mode"),
        lambda b: b.config["model"].update(mode="bogus"),
        lambda b: b.config["model"]["text_cfg"].update(d_model=-1),
        lambda b: b.config.update(vocab_tokens=5),
        lambda b: b.config.update(vocab_tokens=["alpha", 5]),
        lambda b: b.config.update(vocab_tokens=["alpha"] * 6),
        # 50 entries against the 10-row token table
        lambda b: b.config.update(vocab_tokens=[f"w{i}" for i in range(46)]),
        lambda b: b.config["model"]["text_cfg"].update(max_len="8"),
        # [CLS] and [SEP] would leave no position for a token
        lambda b: shorten_text(b, 2),
        lambda b: b.config["model"]["image_cfg"].update(input_side=0),
        # a 114,286-pixel resize would need 292 GiB
        lambda b: b.config["model"]["image_cfg"].update(input_side=10 ** 5),
        lambda b: b.config["model"].pop("d_hidden"),
    ], ids=["model-not-object", "vocab-size-str", "unknown-text-cfg-key",
            "missing-mode", "bogus-mode", "negative-d-model",
            "vocab-tokens-not-list", "vocab-token-not-str",
            "duplicate-vocab-tokens", "vocab-larger-than-table",
            "max-len-str", "max-len-too-small", "crop-side-zero",
            "crop-side-too-large", "missing-d-hidden"])
    def test_malformed_config_entry(self, capsys, tmp_path, mutate):
        path = TestPredict()._zero_model_path(tmp_path)
        image = TestPredict()._ppm(tmp_path)
        argv = ["predict", "--model", path, "--text", "alpha", "--image", image]
        assert run(capsys, *argv)[0] == 0
        bundle = load_bundle(path)
        mutate(bundle)
        save_bundle(bundle, path)
        code, _, err = run(capsys, *argv)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_tensor(self, capsys, tmp_path, value):
        path = TestPredict()._zero_model_path(tmp_path, mode="text_only")
        assert self.predict(capsys, path)[0] == 0
        bundle = load_bundle(path)
        bundle.tensors["head.b2"][1] = value
        save_bundle(bundle, path)
        code, out, err = self.predict(capsys, path)
        assert code == 2 and "head.b2" in err and "p_fake" not in out

    def test_trailing_bytes(self, capsys, tmp_path):
        path = TestPredict()._zero_model_path(tmp_path, mode="text_only")
        code, out, _ = self.predict(capsys, path)
        assert code == 0 and "label:" in out
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        code, _, err = self.predict(capsys, path)
        assert code == 2 and "trailing" in err


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck")
        assert code == 0
        assert "gradcheck passed" in out
        assert out.count("PASS") == 12

    def test_corrupt_hook_fails(self, capsys, monkeypatch):
        # a float64 twin whose logits are 1% off must fail the full model
        real_pair = gradsuite._full_model_pair

        def off_pair(seed):
            m32, m64 = real_pair(seed)
            forward = m64.forward_batch
            m64.forward_batch = lambda *a: ag.scale(forward(*a), 1.01)
            return m32, m64

        monkeypatch.setattr(gradsuite, "_full_model_pair", off_pair)
        code, out, _ = run(capsys, "gradcheck")
        assert code == 3
        assert "full_model_f32" in out.split("FAILED")[1]


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["train", "--data", "d", "--out", "m.fkit"],
        ["eval", "--data", "d", "--compare"],
        ["gradcheck"],
    ], ids=["train", "eval", "gradcheck"])
    def test_negative_seed_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--seed", "-1")
        assert code == 1 and "--seed" in err

    def test_no_command_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 1
        assert "gen-data" in out

    def test_consecutive_calls_parse_only_their_own_argv(self, monkeypatch):
        # the parser is built once per process; no flag may carry over
        seen = []

        def record(args, defaults):
            seen.append(vars(args))
            raise cli.UsageError("recorded")

        monkeypatch.setattr(cli, "_merge_config", record)
        assert main(["eval", "--data", "d1", "--seed", "5", "--compare"]) == 1
        assert main(["eval", "--data", "d2"]) == 1
        assert main(["predict", "--model", "m.fkit", "--text", "t"]) == 1
        first, second, third = seen
        assert (first["data"], first["seed"], first["compare"]) == ("d1", 5, True)
        assert (second["data"], second["seed"], second["compare"]) == ("d2", None, None)
        assert (third["command"], third["model"], third["image"]) == ("predict", "m.fkit", None)
        assert "data" not in third and "seed" not in third

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--out", "a\x00b"],
        ["train", "--data", "d", "--out", "m.fkit", "--report", "r\x00"],
        ["eval", "--data", "\ud800", "--compare"],
        ["predict", "--model", "m\x00.fkit", "--text", "t"],
        ["predict", "--model", "m.fkit", "--image", "\x00"],
        ["gradcheck", "--config", "c\x00.json"],
    ], ids=["gen-data", "train", "eval", "predict", "image", "config"])
    def test_unusable_file_name_is_usage_error(self, capsys, tmp_path,
                                               monkeypatch, argv):
        # a NUL or an unencodable surrogate used to escape as a ValueError
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 1 and "not a usable file name" in err
        assert os.listdir(tmp_path) == []

    def test_unknown_flag_fatal(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--wat")
        assert code == 1

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["train", "--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--data", "--out", "--mode", "--lr", "--patience"):
            assert flag in out


# ---------------------------------------------------------------------------
# arbitrary argv: every token list exits 0-3 and writes only below the
# working directory

COMMANDS = list(DEFAULTS)
FLAGS = {command: sorted({opt for action in cli.build_parser().parse_args(
                              [command]).flags.values()
                          for opt in action.option_strings} | {"--config"})
         for command in COMMANDS}
VALUES = ["0", "1", "3", "-1", "0.5", "1e-3", "1e400", "nan", "-inf",
          str(2 ** 64), "", " ", "x", "-", "--", ".", "d", "m.fkit", "cfg.json",
          "0,0,1", "0.6,0.2,0.2", "nan,1,1", "[1,1,1]", "text_only", "fused",
          "json", "val", "a\x00b", "\ud800"]
# relative names only: no separator and no "..", so nothing can name a
# place outside the working directory
TEXT = st.text(max_size=6).filter(lambda t: "/" not in t and t != "..")
ANY = st.sampled_from(COMMANDS + VALUES + ["--help"]
                      + sorted({f for fs in FLAGS.values() for f in fs})) | TEXT


def _argv(command):
    # the command's required flags and some of its others, each with a
    # value, so that most lists get past the parser to the files and the
    # library's own checks
    value = st.sampled_from(VALUES) | TEXT
    required = st.tuples(*[st.tuples(st.just("--" + k), value)
                           for k, v in DEFAULTS[command].items() if v == REQUIRED])
    extra = st.lists(st.tuples(st.sampled_from(FLAGS[command]), value)
                     | st.tuples(ANY), max_size=4)
    return st.tuples(required, extra).map(
        lambda parts: [command] + [t for p in (*parts[0], *parts[1]) for t in p])


COMMAND_ARGV = st.sampled_from(COMMANDS).flatmap(_argv)
ARGV = COMMAND_ARGV | COMMAND_ARGV | COMMAND_ARGV | st.lists(ANY, max_size=3)


@pytest.fixture(scope="module")
def argv_root(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(ARGV)
def test_any_argv_exits_with_a_documented_code(argv_root, argv):
    # gen-data writes at most 24 samples and gradcheck runs no checks, so
    # an example costs milliseconds; everything else runs as it is
    real_generate = cli.generate_synthetic
    before = set(os.listdir(os.getcwd()))
    out, err = io.StringIO(), io.StringIO()
    work = argv_root / "work"
    work.mkdir()
    try:
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            mp.chdir(work)
            mp.setattr(cli, "generate_synthetic", lambda spec, path, ratios:
                       real_generate(dataclasses.replace(spec, n=min(spec.n, 24)),
                                     path, ratios=ratios))
            mp.setattr(cli, "run_gradcheck", lambda seed: [])
            try:
                code = main(argv)
            except SystemExit as e:  # --help
                code = e.code
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert os.listdir(argv_root) == ["work"]
        assert set(os.listdir(os.getcwd())) == before
    finally:
        shutil.rmtree(work)
