"""The corpus layout, manifests, image alignment, stratified splits, and
batches of a split's raw rows: token ids and crop bytes, never a ``Tensor``.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .bundle import atomic_open
from .errors import AlignmentError, ContractError, ManifestError, SplitError
from .imageproc import DESK_CROP_SIDE, preprocess
from .textproc import DESK_MAX_LEN, Vocabulary, tokenize

MANIFEST_FIELDS = ["id", "text", "label"]
# a corpus directory: <split>.csv per split, IMAGES/<id>.ppm, PROVENANCE
SPLITS = ("train", "val", "test")
IMAGES = "images"
PROVENANCE = "provenance.json"


def manifest_path(data_dir, split: str) -> str:
    return os.path.join(data_dir, f"{split}.csv")


def image_path(image_dir, sample_id: str) -> str:
    return os.path.join(image_dir, f"{sample_id}.ppm")


@dataclass
class ReviewSample:
    id: str
    text: str
    label: int
    image_path: str | None = None


def read_manifest(csv_path) -> list[ReviewSample]:
    """Parse an ``id,text,label`` CSV (RFC-4180 quoting) into samples.

    The file is UTF-8; a leading byte-order mark, which spreadsheet exports
    write, is skipped.
    """
    with open(csv_path, "rb") as fh:
        raw = fh.read()
    try:
        content = raw.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        at = e.start + (len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0)
        line = raw.count(b"\n", 0, at) + 1
        raise ManifestError(f"{csv_path}:{line}: not valid UTF-8 at byte "
                            f"offset {at} ({e.reason})") from None
    samples: list[ReviewSample] = []
    seen: set[str] = set()
    reader = csv.reader(io.StringIO(content, newline=""))
    rows = _rows(reader, csv_path)
    try:
        header = next(rows)
    except StopIteration:
        raise ManifestError(f"{csv_path}: empty file") from None
    if header != MANIFEST_FIELDS:
        raise ManifestError(
            f"{csv_path}:1: header must be {','.join(MANIFEST_FIELDS)}, "
            f"got {','.join(header)}"
        )
    for row in rows:
        line = reader.line_num
        if len(row) != 3:
            raise ManifestError(f"{csv_path}:{line}: expected 3 fields, got {len(row)}")
        sid, text, label_str = row
        if sid in seen:
            raise ManifestError(f"{csv_path}:{line}: duplicate id {sid!r}")
        seen.add(sid)
        try:
            label = int(label_str)
        except ValueError:
            label = -1
        if label not in (0, 1):
            raise ManifestError(
                f"{csv_path}:{line}: label must be 0 or 1, got {label_str!r}"
            )
        samples.append(ReviewSample(id=sid, text=text, label=label))
    return samples


def _rows(reader, csv_path):
    """``reader``'s rows; a row csv cannot parse (a field past its size
    limit) is a ManifestError at its line."""
    try:
        yield from reader
    except csv.Error as e:
        raise ManifestError(f"{csv_path}:{reader.line_num}: {e}") from None


def write_manifest(samples: list[ReviewSample], csv_path) -> None:
    with atomic_open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(MANIFEST_FIELDS)
        for s in samples:
            writer.writerow([s.id, s.text, s.label])


def read_split(data_dir, name: str) -> list[ReviewSample]:
    """The samples of split ``name``'s manifest, with no image read or
    aligned; a manifest with no samples is a ``ManifestError``."""
    path = manifest_path(data_dir, name)
    if not os.path.isfile(path):
        raise ManifestError(f"missing split manifest {path}")
    samples = read_manifest(path)
    if not samples:
        raise ManifestError(f"{path}: the manifest holds no samples")
    return samples


def align_images(samples: list[ReviewSample],
                 image_dir) -> tuple[list[ReviewSample], int]:
    """Copies of ``samples`` with each image path set to
    ``image_dir/<id>.ppm``, and 0 dropped; a missing file is an
    ``AlignmentError`` naming the first 20 missing ids. Surplus image
    files never referenced by a sample are ignored.
    """
    if not os.path.isdir(image_dir):
        raise AlignmentError(f"image directory {image_dir} does not exist")
    aligned = [ReviewSample(s.id, s.text, s.label, image_path(image_dir, s.id))
               for s in samples]
    missing = [s.id for s in aligned if not os.path.isfile(s.image_path)]
    if missing:
        raise AlignmentError(f"missing image files for ids: "
                             f"{', '.join(missing[:20])}"
                             + (" ..." if len(missing) > 20 else ""))
    return aligned, 0


def stratified_split(samples: list[ReviewSample],
                     ratios: tuple[float, float, float],
                     seed: int = 0) -> dict[str, list[ReviewSample]]:
    """``samples`` by split name (``SPLITS``, in order): a per-class
    deterministic shuffle, then contiguous cuts at rounded ratios.

    A split that would come out empty is a ``SplitError``.
    """
    r_train, r_val, r_test = ratios
    if not (all(math.isfinite(r) and r > 0 for r in ratios)
            and abs(sum(ratios) - 1.0) <= 1e-9):
        raise SplitError(f"ratios must be positive and sum to 1, got {ratios}")
    by_class: dict[int, list[ReviewSample]] = {0: [], 1: []}
    for s in samples:
        by_class[s.label].append(s)
    parts: dict[str, list[ReviewSample]] = {name: [] for name in SPLITS}
    # dedicated SeedSequence stream so the split permutation is decoupled
    # from other consumers of the same user-facing seed
    rng = np.random.default_rng([seed, 0x3C])
    for label in (0, 1):
        group = by_class[label]
        if len(group) < 3:
            raise SplitError(
                f"class {label} has {len(group)} samples; need at least 3 to split"
            )
        order = rng.permutation(len(group))
        shuffled = [group[i] for i in order]
        n = len(group)
        cuts = (0, round(n * r_train), round(n * (r_train + r_val)), n)
        for name, lo, hi in zip(SPLITS, cuts, cuts[1:]):
            parts[name].extend(shuffled[lo:hi])
    for name, part in parts.items():
        if not part:
            raise SplitError(f"the {name} split of {len(samples)} samples at "
                             f"ratios {ratios} would be empty")
    return parts


@dataclass
class PreparedDataset:
    """Pre-tokenized, pre-decoded arrays for one split, batch-iterable.

    ``reviews`` holds each sample's token ids as one row of an (N, L)
    int32 array (``tokenize``); its attention mask is ``ids != PAD_ID``.
    ``images`` holds each sample's center crop as bytes (``preprocess``),
    a quarter of the float32 batch it becomes in a model that reads images
    (``ReviewClassifier.encode_batch``). A sequence of rows is taken as
    ``reviews`` and stacked.
    """
    reviews: np.ndarray | None  # (N, L) int32
    images: np.ndarray | None  # (N, 3, S, S) uint8
    labels: np.ndarray  # (N,) int64
    ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        n = len(self.labels)
        if self.reviews is not None:
            self.reviews = np.asarray(self.reviews, dtype=np.int32)
            if self.reviews.ndim != 2 or self.reviews.shape[0] != n:
                raise ContractError(
                    f"reviews must be an (N, L) array of token ids with "
                    f"N = {n}, got shape {self.reviews.shape}")
        im = self.images
        if im is not None and not (
                isinstance(im, np.ndarray) and im.dtype == np.uint8
                and im.ndim == 4 and im.shape[0] == n
                and im.shape[1] == 3 and im.shape[2] == im.shape[3]):
            raise ContractError(
                f"images must be an (N, 3, S, S) uint8 array with "
                f"N = {n}, got {getattr(im, 'dtype', type(im))} "
                f"{getattr(im, 'shape', '')}")

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def prepare(cls, samples: list[ReviewSample],
                vocab: Vocabulary | None = None, max_len: int = DESK_MAX_LEN,
                crop_side: int = DESK_CROP_SIDE, need_text: bool = True,
                need_images: bool = True) -> "PreparedDataset":
        reviews = None
        if need_text:
            if vocab is None:
                raise ManifestError("text preparation requires a vocabulary")
            reviews = np.empty((len(samples), max_len), dtype=np.int32)
            for i, s in enumerate(samples):
                reviews[i] = tokenize(vocab, s.text, max_len)
        images = None
        if need_images:
            # filled in place: stacking a list would hold two copies at the peak
            images = np.empty((len(samples), 3, crop_side, crop_side),
                              dtype=np.uint8)
            for i, s in enumerate(samples):
                if s.image_path is None:
                    raise AlignmentError(f"sample {s.id} has no aligned image")
                images[i] = preprocess(s.image_path, crop_side)
        labels = np.asarray([s.label for s in samples], dtype=np.int64)
        return cls(reviews=reviews, images=images, labels=labels,
                   ids=[s.id for s in samples])

    def batches(self, batch_size: int, seed: int = 0, epoch: int = 0,
                shuffle: bool = True):
        """Yield (token ids, crops, labels) in a deterministic order.

        The ids are a (B, L) int32 slice, the crops a (B, 3, S, S) uint8
        slice and the labels a (B,) int64 slice; a modality the split does
        not hold is None. The permutation is keyed on (seed, epoch); the
        final partial batch is kept.
        """
        if batch_size < 1:
            raise SplitError(f"batch_size must be >= 1, got {batch_size}")
        n = len(self.labels)
        if shuffle:
            order = np.random.default_rng([seed, epoch]).permutation(n)
        else:
            order = np.arange(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            yield (None if self.reviews is None else self.reviews[idx],
                   None if self.images is None else self.images[idx],
                   self.labels[idx])
