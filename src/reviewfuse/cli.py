"""Command-line entry point: gen-data / train / eval / predict / gradcheck.

Config precedence is defaults < JSON config file < command-line flags. A
flag's default is the library's own: ``TrainConfig``'s, ``GeneratorSpec``'s
or the desk model's sizes. Exit codes: 0 success, 1 usage error (a
``ParameterError`` too), 2 data or file error (a ``DataError`` or an
``OSError``), 3 any other ``ReviewFuseError``, a training or eval failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import sys
from collections import Counter

from . import autograd as ag
from .bundle import atomic_open, load_bundle, save_bundle
from .data import IMAGES, PROVENANCE, SPLITS, PreparedDataset, ReviewSample, \
    align_images, manifest_path, read_split
from .errors import DataError, FormatError, ParameterError, ReviewFuseError
from .fusion import predict_labels
from .gradsuite import run_gradcheck
from .imageproc import DESK_CROP_SIDE
from .metrics import PAPER_REFERENCE, emit_report, evaluate, format_confusion
from .model import MODES
from .synthgen import SPLIT_RATIOS, GeneratorSpec, generate_synthetic
from .textproc import DESK_MAX_LEN, DESK_VOCAB_SIZE, Vocabulary
from .training import TrainConfig, eval_outputs, model_from_bundle, model_to_bundle
from .workflow import compare_baselines, load_corpus, train_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUN = 3

# TrainConfig's fields, which `train` takes as flags and records in the
# bundle's train_config entry
TRAIN_SETTINGS = tuple(f.name for f in dataclasses.fields(TrainConfig))

# the training settings of `eval --compare` (and of `train` left at its
# defaults): TrainConfig's defaults, seed aside
COMPARE_TRAIN = {k: v for k, v in dataclasses.asdict(TrainConfig()).items()
                 if k != "seed"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError, and keeps each setting's flag in ``flags`` and its
    default in ``defaults``, both by setting name."""

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, argparse.Action] = {}
        self.defaults: dict[str, object] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, default=None, **kwargs):
        # registered with no default: a flag left out parses to None, so a
        # config file can still fill it
        action = super().add_argument(*args, **kwargs)
        if action.dest not in ("help", "config"):
            self.flags[action.dest] = action
            self.defaults[action.dest] = default
        return action

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# inclusive ranges of integer settings, checked before anything allocates:
# [CLS] and [SEP] take two of max_len's positions; the top ends are the
# million samples that six-digit sample ids name, BERT-base's 512 positions
# and 30,522-token vocabulary, ResNet-50's 224-pixel input, and the
# 256-pixel side (8/7 of it) that images are resized to before the crop
LIMITS = {"seed": (0, math.inf), "n": (0, 10 ** 6), "max_len": (3, 512),
          "vocab_size": (4, 30522), "crop_side": (1, 224),
          "image_side": (1, 256)}


# settings that name a file or directory
PATH_SETTINGS = ("out", "data", "model", "image", "report")


def _check_path(flag: str, path: str) -> None:
    """A UsageError unless the OS can take ``path`` as a file name: no NUL
    character, and encodable in the file system's encoding."""
    try:
        if "\0" not in path:
            os.fsencode(path)
            return
    except UnicodeEncodeError:
        pass
    raise UsageError(f"{flag}: {path!r} is not a usable file name")


def _report_path(cfg) -> str:
    return cfg["report"] or cfg["out"] + ".report.json"


def _output_files(command: str, cfg: dict) -> dict[str, str]:
    """The files ``command`` writes, by flag."""
    if command == "train":
        return {"--out": cfg["out"], "--report": _report_path(cfg)}
    return {"--out": cfg["out"]} if command == "eval" and cfg["out"] else {}


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist (yet)
        return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(outputs: dict[str, str], inputs: dict[str, str | None],
                   data_dir: str | None) -> None:
    """Before anything is read or written: a UsageError where an output
    file is an input, another output or a file of the ``data_dir``
    corpus, and an OSError (exit 2) where it names a directory or its
    directory does not exist."""
    taken = [(flag, path) for flag, path in inputs.items() if path]
    if data_dir:
        taken += [("--data corpus", manifest_path(data_dir, s)) for s in SPLITS]
        taken.append(("--data corpus", os.path.join(data_dir, PROVENANCE)))
    images = data_dir and os.path.realpath(os.path.join(data_dir, IMAGES)) + os.sep
    for flag, path in outputs.items():
        for other, named in taken:
            if _same_file(path, named):
                raise UsageError(f"{flag} {path} would overwrite the {other} file")
        if images and os.path.realpath(path).startswith(images):
            raise UsageError(f"{flag} {path} would overwrite the --data corpus file")
        taken.append((flag, path))
    for path in outputs.values():
        if os.path.isdir(path or os.curdir):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        folder = os.path.dirname(path) or os.curdir
        if not os.path.isdir(folder):
            raise FileNotFoundError(errno.ENOENT, "no such directory", folder)


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < JSON config file < explicit flags (rightmost wins).

    A file value passes its flag's own rule: the flag's type applied to
    the value's text, then its choices; a null is the same as no value.
    """
    merged = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        _check_path("--config", path)
        try:
            with open(path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as e:
            raise FormatError(f"cannot read config {path}: {e}")
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config {path} must be a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            if value is not None:
                merged[key] = _config_value(args.flags[key], value, path)
    for key in defaults:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    missing = [k for k, v in merged.items() if v is _REQUIRED]
    if missing:
        raise UsageError("missing required settings: "
                         + ", ".join(f"--{m.replace('_', '-')}" for m in missing))
    for key, (low, high) in LIMITS.items():
        if key in merged and not low <= merged[key] <= high:
            raise UsageError(f"--{key.replace('_', '-')} must be in "
                             f"[{low}, {high}], got {merged[key]}")
    for key in PATH_SETTINGS:
        if isinstance(merged.get(key), str):
            _check_path("--" + key, merged[key])
    return merged


def _config_value(flag: argparse.Action, value, path):
    """A config file's ``value`` for ``flag``, as the flag would parse it."""
    try:
        if flag.const is not None:  # an on/off flag
            if not isinstance(value, bool):
                raise ValueError
        elif flag.type is not None:
            value = flag.type(value if isinstance(value, str) else json.dumps(value))
        elif not isinstance(value, str):
            raise ValueError
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"config {path}: invalid {flag.dest} value {value!r}") from None
    if flag.choices is not None and value not in flag.choices:
        raise UsageError(f"config {path}: {flag.dest} must be one of "
                         f"{list(flag.choices)}, got {value!r}")
    return value


_REQUIRED = object()


def _ratios(text: str) -> tuple[float, float, float]:
    parts = text.strip("[]").split(",")  # a JSON list's text parses too
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ratios must be three comma-separated numbers")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(cfg) -> int:
    out, ratios = cfg.pop("out"), cfg.pop("ratios")
    split = generate_synthetic(GeneratorSpec(**cfg), out, ratios=ratios)
    for name, part in split.items():
        counts = Counter(s.label for s in part)
        print(f"{name}: {len(part)} samples "
              f"(fake={counts[0]}, genuine={counts[1]})")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_train(cfg) -> int:
    train_config = {k: cfg[k] for k in TRAIN_SETTINGS}
    tc = TrainConfig(**train_config)
    corpus = load_corpus(cfg["data"], max_len=cfg["max_len"],
                         crop_side=cfg["crop_side"],
                         vocab_size=cfg["vocab_size"], modes=(cfg["mode"],))
    model, report = train_model(cfg["mode"], corpus, tc, log=print)
    print(f"best epoch {report.best_epoch} "
          f"(val_acc={report.val_accuracies[report.best_epoch - 1]:.4f}), "
          f"stopped: {report.stop_reason}")
    extra = {"vocab_tokens": corpus.vocab.id_to_token[4:],
             "train_config": train_config}
    save_bundle(model_to_bundle(model, extra), cfg["out"])
    report_path = _report_path(cfg)
    with atomic_open(report_path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {cfg['out']} and {report_path}")
    return EXIT_OK


def _load_model_and_vocab(path):
    """A bundle's model and vocabulary, checked against each other; every
    fault is a FormatError.

    The model config holds the text length and the crop side; the
    ``preprocess`` block that older bundles also carry is not read.
    """
    bundle = load_bundle(path)
    tokens = bundle.config.get("vocab_tokens")
    model = model_from_bundle(bundle)
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
        raise FormatError(f"{path}: vocab_tokens must be a list of strings")
    try:
        vocab = Vocabulary(tokens)
    except ParameterError as e:
        raise FormatError(f"{path}: {e}") from None
    if model.text_cfg is not None and len(vocab) != model.text_cfg.vocab_size:
        raise FormatError(f"{path}: {len(vocab)} vocabulary entries for a "
                          f"{model.text_cfg.vocab_size}-row token table")
    # the bounds that train's flags pass: a crop side past them would ask
    # for hundreds of GiB in predict's resize
    for key, value in (("max_len", getattr(model.text_cfg, "max_len", None)),
                       ("crop_side", getattr(model.image_cfg, "input_side", None))):
        low, high = LIMITS[key]
        if value is not None and not low <= value <= high:
            raise FormatError(f"{path}: model {key} {value} is outside "
                              f"[{low}, {high}]")
    return model, vocab


def _prepare(model, vocab, samples) -> PreparedDataset:
    """``samples`` prepared as ``model`` reads them: the modalities it
    reads, at its text length and crop side."""
    return PreparedDataset.prepare(
        samples, vocab=vocab, max_len=getattr(model.text_cfg, "max_len", None),
        crop_side=getattr(model.image_cfg, "input_side", None),
        need_text=model.text_cfg is not None,
        need_images=model.image_cfg is not None)


def cmd_eval(cfg) -> int:
    if cfg["compare"]:
        if cfg["model"] or cfg["split"] != "test":
            raise UsageError("eval --compare trains its own models and scores "
                             "them on the test split: no --model, no other --split")
        corpus = load_corpus(cfg["data"])
        reports = compare_baselines(corpus, TrainConfig(seed=cfg["seed"]),
                                    log=print)
        print(emit_report(reports, fmt=cfg["format"], path=cfg["out"]), end="")
        print("reference (full-scale benchmark): "
              + "  ".join(f"{k}={v['accuracy']:.3f}"
                          for k, v in PAPER_REFERENCE.items()))
        return EXIT_OK
    if not cfg["model"]:
        raise UsageError("eval requires --model (or --compare)")
    model, vocab = _load_model_and_vocab(cfg["model"])
    samples = read_split(cfg["data"], cfg["split"])
    if model.image_cfg is not None:
        samples, _ = align_images(samples, os.path.join(cfg["data"], IMAGES))
    dataset = _prepare(model, vocab, samples)
    report = evaluate(model, dataset, split_tag=cfg["split"])
    print(emit_report([report], fmt=cfg["format"], path=cfg["out"]), end="")
    print(format_confusion(report.cm), end="")
    return EXIT_OK


def cmd_predict(cfg) -> int:
    model, vocab = _load_model_and_vocab(cfg["model"])
    if model.text_cfg is not None and cfg["text"] is None:
        raise UsageError(f"mode {model.mode} requires --text")
    if model.image_cfg is not None and cfg["image"] is None:
        raise UsageError(f"mode {model.mode} requires --image")
    # the review as a one-sample split, scored as eval scores a split; its
    # label is a placeholder that nothing reads
    review = ReviewSample("predict", cfg["text"] or "", 0, cfg["image"])
    logits, _ = eval_outputs(model.forward_batch,
                             _prepare(model, vocab, [review]))
    probs = ag.softmax_rows(logits)[0]
    label = predict_labels(logits)[0]
    print(f"label: {'genuine' if label == 1 else 'fake'}")
    print(f"p_fake: {probs[0]:.4f}")
    print(f"p_genuine: {probs[1]:.4f}")
    return EXIT_OK


def cmd_gradcheck(cfg) -> int:
    results = run_gradcheck(**cfg)
    failing = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:20s} max_rel_err={r.error:.3e} "
              f"(threshold {r.threshold:g})  {status}")
        if not r.passed:
            failing.append(r.name)
    if failing:
        print(f"gradcheck FAILED: {', '.join(failing)}")
        return EXIT_RUN
    print("gradcheck passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache  # one parser per process: parsing leaves no state on it
def build_parser() -> _Parser:
    parser = _Parser(prog="reviewfuse",
                     description="Multimodal fake-review detection toolkit.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn, flags=p.flags, defaults=p.defaults)
        p.add_argument("--config", help="JSON config file (flags override it)")
        return p

    def add_fields(p, obj, names):
        # a flag per field of obj, of its default's type
        for name in names:
            value = getattr(obj, name)
            p.add_argument("--" + name.replace("_", "-"), type=type(value),
                           default=value)

    train_defaults = TrainConfig()
    g = add("gen-data", cmd_gen_data, "generate a synthetic corpus")
    g.add_argument("--out", default=_REQUIRED, help="output directory")
    spec = GeneratorSpec()
    g.add_argument("--n", type=int, default=spec.n, help="number of samples")
    add_fields(g, spec, ("seed", "text_flip_rate", "p_match", "image_side"))
    g.add_argument("--ratios", type=_ratios, default=SPLIT_RATIOS,
                   help="train,val,test e.g. 0.6,0.2,0.2")

    t = add("train", cmd_train, "train a model on a generated corpus")
    t.add_argument("--data", default=_REQUIRED, help="corpus directory")
    t.add_argument("--out", default=_REQUIRED, help="output model bundle path")
    t.add_argument("--mode", choices=MODES, default="fused")
    add_fields(t, train_defaults, TRAIN_SETTINGS)
    t.add_argument("--max-len", type=int, default=DESK_MAX_LEN)
    t.add_argument("--crop-side", type=int, default=DESK_CROP_SIDE)
    t.add_argument("--vocab-size", type=int, default=DESK_VOCAB_SIZE)
    t.add_argument("--report", help="training report JSON path")

    e = add("eval", cmd_eval, "evaluate a model or compare baselines")
    e.add_argument("--data", default=_REQUIRED, help="corpus directory")
    e.add_argument("--model", help="model bundle path")
    e.add_argument("--split", choices=SPLITS, default="test")
    e.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    e.add_argument("--out", help="write the report here as well")
    e.add_argument("--compare", action="store_const", const=True, default=False,
                   help="train and compare text_only/image_only/fused")
    e.add_argument("--seed", type=int, default=train_defaults.seed)

    p = add("predict", cmd_predict, "classify a single review")
    p.add_argument("--model", default=_REQUIRED, help="model bundle path")
    p.add_argument("--text", help="review text")
    p.add_argument("--image", help="review image (PPM)")

    c = add("gradcheck", cmd_gradcheck, "run the finite-difference oracle suite")
    c.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            parser.print_help()
            return EXIT_USAGE
        cfg = _merge_config(args, args.defaults)
        _check_outputs(_output_files(args.command, cfg),
                       {"--config": args.config, "--model": cfg.get("model")},
                       cfg.get("data"))
        return args.fn(cfg)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except ParameterError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ReviewFuseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
