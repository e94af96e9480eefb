"""Synthetic multimodal review corpus with calibrated per-modality signal.

Each sample gets a balanced binary label, a topic, and three channels of
evidence:

* text: a phrase from the label's phrase list with probability 1 - flip_rate
  (genuine phrases carry specific detail, fake ones generic praise), so a
  text-only Bayes oracle scores exactly 1 - flip_rate;
* image brightness: a clipped normal around a per-label mean, with sigma
  calibrated so a brightness-threshold oracle scores a chosen target;
* cross-modal: the image hue bucket matches the topic's bucket with
  probability p_match for genuine samples but is uniform for fakes, a signal
  readable only by looking at text and image together.

The calibration (brightness means and sigma, pixel noise, review length)
is module constants; ``GeneratorSpec`` holds only ``gen-data``'s settings.

``generate_synthetic`` renders on the calling thread and creates the image
files on one writer thread, so file creation overlaps the rendering; the
bytes do not depend on the threads' timing.
"""

from __future__ import annotations

import functools
import json
import math
import os
import queue
import statistics
from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from .bundle import atomic_open
from .data import IMAGES, PROVENANCE, SPLITS, ReviewSample, image_path, \
    manifest_path, stratified_split, write_manifest
from .errors import ParameterError
from .imageproc import DESK_CROP_SIDE, encode_ppm, resize_side

# every genuine phrase concedes a flaw with "but" before the concrete
# detail, and every fake phrase reaches for the stock superlative
# "amazing" — mirroring the hedged-specifics vs. unqualified-hyperbole
# split that real fake-review corpora show
GENUINE_PHRASES = [
    "waited twenty but stayed hot",
    "zipper snagged but loosened later",
    "battery faded but recharged fast",
    "driver late but called ahead",
    "crust charred but only slightly",
    "rice undercooked but remade quickly",
    "hinge squeaked but quieted down",
    "tracking stalled but updated overnight",
    "sauce leaked but box held",
    "stitching frayed but held up",
    "refund slow but posted eventually",
    "portion shrank but tasted fresher",
    "elevator broke but staff helped",
    "receipt doubled but they fixed",
    "paint smelled but aired out",
    "latch stuck but oiling helped",
]

FAKE_PHRASES = [
    "absolutely simply amazing every time",
    "truly just amazing beyond belief",
    "perfect and amazing in everything",
    "flawless service amazing every visit",
    "nothing compares amazing best ever",
    "five stars amazing total perfection",
    "best purchase amazing without doubt",
    "so utterly amazing trust me",
    "completely totally amazing start finish",
    "world class amazing top quality",
    "simply purely amazing every way",
    "truly deeply amazing best night",
    "just wow amazing beyond words",
    "staff service amazing all around",
    "value price amazing cant beat",
    "honestly forever amazing best place",
]

TOPICS = ("food", "hotel", "retail")

TOPIC_WORDS = {
    "food": ["pizza", "burger", "noodles", "sushi", "curry"],
    "hotel": ["room", "lobby", "suite", "pool", "checkin"],
    "retail": ["package", "gadget", "jacket", "blender", "headphones"],
}

FILLERS = ["the", "and", "it", "was", "my", "we", "for", "with", "on", "this",
           "that", "had", "got", "after", "again", "overall", "visit", "time",
           "today", "place"]

# train / val / test shares of a generated corpus
SPLIT_RATIOS = (0.6, 0.2, 0.2)

# per-bucket channel offsets; each row sums to zero so the channel mean
# (brightness) is hue-neutral, and the offset is additive so the hue cast
# stays readable in dark images as well as bright ones
HUE_TINTS = np.array([
    [0.18, -0.09, -0.09],
    [-0.09, 0.18, -0.09],
    [-0.09, -0.09, 0.18],
])

# the float64 pixel noise of one chunk of ``generate_synthetic``'s samples:
# 15 desk-size images, 1 at paper scale (224)
CHUNK_BYTES = 512 * 1024

# rendered chunks waiting for the writer thread, at most
WRITE_AHEAD = 2


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# the generator's calibration, which no command sets: per-label brightness
# means, and the brightness-only Bayes accuracy that sets their common sigma
# (a threshold at the midpoint scores Phi(gap / (2 sigma)))
MU_FAKE = 0.65
MU_GENUINE = 0.35
IMAGE_BAYES_TARGET = 0.70
SIGMA = abs(MU_FAKE - MU_GENUINE) / (
    2.0 * statistics.NormalDist().inv_cdf(IMAGE_BAYES_TARGET))
PIXEL_NOISE = 0.04  # the standard deviation of each pixel channel's noise
AVG_WORDS = 10  # a review's mean length in words
TOPIC_MENTIONS = 5  # topic words a review opens with


@dataclass
class GeneratorSpec:
    """The settings of ``gen-data``, which ``provenance.json`` records."""
    n: int = 2000
    seed: int = 7
    text_flip_rate: float = 0.25
    p_match: float = 0.95
    image_side: int = resize_side(DESK_CROP_SIDE)  # the desk resize copies it

    def __post_init__(self):
        if not 0.0 <= self.text_flip_rate < 0.5:
            raise ParameterError(f"text_flip_rate must be in [0, 0.5), got {self.text_flip_rate}")
        if not 0.5 < self.p_match <= 1.0:
            raise ParameterError(f"p_match must be in (0.5, 1], got {self.p_match}")


@dataclass
class Latents:
    """Per-sample generative variables, before rendering text/pixels."""
    label: np.ndarray        # 1 = genuine
    topic: np.ndarray        # topic index
    text_list: np.ndarray    # which class's phrase list the text used
    brightness: np.ndarray   # clipped to [0, 1]
    hue: np.ndarray          # hue bucket index


def simulate_latents(spec: GeneratorSpec, n: int,
                     rng: np.random.Generator) -> Latents:
    """Draw the generative variables for ``n`` samples (labels balanced)."""
    labels = np.zeros(n, dtype=np.int64)
    labels[: n // 2] = 1
    if n % 2:
        labels[n // 2] = rng.integers(0, 2)
    labels = labels[rng.permutation(n)]

    k = len(TOPICS)
    topic = rng.integers(0, k, size=n)
    flip = rng.random(n) < spec.text_flip_rate
    text_list = np.where(flip, 1 - labels, labels)

    mu = np.where(labels == 1, MU_GENUINE, MU_FAKE)
    brightness = np.clip(rng.normal(mu, SIGMA), 0.0, 1.0)

    hue = rng.integers(0, k, size=n)
    matched = rng.random(n) < spec.p_match
    hue = np.where((labels == 1) & matched, topic, hue)
    return Latents(label=labels, topic=topic, text_list=text_list,
                   brightness=brightness, hue=hue)


def render_text(topic_idx: int, text_list: int,
                rng: np.random.Generator) -> str:
    """Topic words first, then the class phrase, then filler to ~AVG_WORDS.

    Reviews name their subject up front (several topic words), then state
    the experience; texts stay short enough that a modest encoder window
    sees every content word.
    """
    phrases = GENUINE_PHRASES if text_list == 1 else FAKE_PHRASES
    phrase = phrases[rng.integers(0, len(phrases))]
    words = TOPIC_WORDS[TOPICS[topic_idx]]
    picks = [words[int(j)] for j in
             rng.permutation(len(words))[:TOPIC_MENTIONS]]
    body = f"{' '.join(picks)} {phrase}"
    n_body = len(body.split())
    target = AVG_WORDS + int(rng.integers(-1, 2))
    pad = [FILLERS[rng.integers(0, len(FILLERS))] for _ in range(max(0, target - n_body))]
    return " ".join([body] + pad)


def finish_pixels(brightness: np.ndarray, hue: np.ndarray,
                  noise: np.ndarray) -> np.ndarray:
    """The uint8 pixels of K samples from their K x side x side x 3 float64
    ``noise``, which it overwrites: each sample's base colour plus its
    noise, clipped to [0, 1], scaled to bytes. Every step is elementwise,
    so a sample's bytes do not depend on the others in the call."""
    base = (0.12 + 0.65 * brightness)[:, np.newaxis] + HUE_TINTS[hue]
    noise += base[:, np.newaxis, np.newaxis, :]
    np.clip(noise, 0.0, 1.0, out=noise)
    noise *= 255.0
    return np.rint(noise, out=noise).astype(np.uint8)


def chunk_samples(spec: GeneratorSpec) -> int:
    """Samples per chunk of ``generate_synthetic``: as many as keep one
    chunk's float64 pixel noise within ``CHUNK_BYTES``, at least one."""
    return max(1, CHUNK_BYTES // (spec.image_side ** 2 * 3 * 8))


def _write_files(todo: queue.Queue, failed: list[BaseException]) -> None:
    """Write the lists of (path, bytes) files taken from ``todo``, in
    order, until a None, calling no numpy and no package function, which a
    profiler may patch. After its first error, put in ``failed`` for the
    caller, it writes nothing more but keeps taking lists, so a blocked
    ``put`` returns, and it raises that error when it ends."""
    while (files := todo.get()) is not None:
        if failed:
            continue
        try:
            for path, blob in files:
                with open(path, "wb") as fh:
                    fh.write(blob)
        except BaseException as e:  # raised again on the caller
            failed.append(e)
    if failed:
        raise failed[0]


def generate_synthetic(spec: GeneratorSpec, out_dir,
                       ratios: tuple[float, float, float] = SPLIT_RATIOS
                       ) -> dict[str, list[ReviewSample]]:
    """Write images/, the three split CSVs, and provenance.json; return the
    samples by split name, as ``stratified_split`` does.

    The calling thread makes every draw, sample after sample: its text,
    then its pixel noise. It finishes and encodes the pixels a chunk of
    ``chunk_samples`` at a time and queues each chunk's files for one
    writer thread (``_write_files``, started by ``autograd.beside``). Its
    error is raised here, at the latest one chunk after it happened. The
    split CSVs and provenance.json are written last, on the caller.
    """
    image_dir = os.path.join(out_dir, IMAGES)
    rng = np.random.default_rng(spec.seed)
    lat = simulate_latents(spec, spec.n, rng)
    samples = [ReviewSample(id=f"s{i:06d}", text="", label=int(lat.label[i]),
                            image_path=image_path(image_dir, f"s{i:06d}"))
               for i in range(spec.n)]
    # the split reads only labels, so a corpus that cannot be split fails
    # before anything is written or started; it keeps these objects, whose
    # text is filled in as each sample renders
    split = stratified_split(samples, ratios=ratios, seed=spec.seed)
    os.makedirs(image_dir, exist_ok=True)
    side, chunk = spec.image_side, min(chunk_samples(spec), spec.n)
    noise = np.empty((chunk, side, side, 3))
    todo, failed = queue.Queue(WRITE_AHEAD), []
    with ag.beside(functools.partial(_write_files, todo, failed)):
        try:
            for c0 in range(0, spec.n, chunk):
                part = samples[c0:c0 + chunk]
                for j, s in enumerate(part):
                    i = c0 + j
                    s.text = render_text(int(lat.topic[i]),
                                         int(lat.text_list[i]), rng)
                    noise[j] = rng.normal(0.0, PIXEL_NOISE, size=(side, side, 3))
                k = slice(c0, c0 + len(part))
                pixels = finish_pixels(lat.brightness[k], lat.hue[k],
                                       noise[:len(part)])
                todo.put([(s.image_path, encode_ppm(p))
                          for s, p in zip(part, pixels)])
                if failed:
                    raise failed[0]
        finally:
            todo.put(None)
    for name in SPLITS:
        write_manifest(split[name], manifest_path(out_dir, name))
    with atomic_open(os.path.join(out_dir, PROVENANCE), "w",
                     encoding="utf-8") as fh:
        json.dump({"spec": asdict(spec), "ratios": list(ratios)}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return split


# ---------------------------------------------------------------------------
# Bayes oracles over the latent variables (calibration checks)


def text_bayes_accuracy(lat: Latents) -> float:
    """Optimal text-only rule: predict the class whose phrase list was used."""
    return float((lat.text_list == lat.label).mean())


def image_bayes_accuracy(lat: Latents) -> float:
    """Optimal brightness-only rule: fake above the midpoint of the means."""
    preds = np.where(lat.brightness > 0.5 * (MU_FAKE + MU_GENUINE), 0, 1)
    return float((preds == lat.label).mean())


def combined_bayes_accuracy(lat: Latents, spec: GeneratorSpec) -> float:
    """Exact-likelihood-ratio rule over text list, brightness, and hue-topic."""
    eps = spec.text_flip_rate
    llr = np.where(lat.text_list == 1,
                   math.log((1 - eps) / eps),
                   math.log(eps / (1 - eps)))

    # brightness: clipped normal; interior uses the density ratio, the
    # clipped boundary points use tail masses
    b = lat.brightness
    s2 = 2.0 * SIGMA ** 2
    llr_b = ((b - MU_FAKE) ** 2 - (b - MU_GENUINE) ** 2) / s2
    low = b <= 0.0
    high = b >= 1.0
    if low.any():
        lo_g = _phi((0.0 - MU_GENUINE) / SIGMA)
        lo_f = _phi((0.0 - MU_FAKE) / SIGMA)
        llr_b = np.where(low, math.log(max(lo_g, 1e-300) / max(lo_f, 1e-300)), llr_b)
    if high.any():
        hi_g = 1.0 - _phi((1.0 - MU_GENUINE) / SIGMA)
        hi_f = 1.0 - _phi((1.0 - MU_FAKE) / SIGMA)
        llr_b = np.where(high, math.log(max(hi_g, 1e-300) / max(hi_f, 1e-300)), llr_b)
    llr = llr + llr_b

    k = len(TOPICS)
    p_hit = spec.p_match + (1.0 - spec.p_match) / k
    p_miss = (1.0 - spec.p_match) / k
    hue_match = lat.hue == lat.topic
    llr_hue = np.where(hue_match,
                       math.log(p_hit * k),
                       math.log(max(p_miss, 1e-300) * k))
    llr = llr + llr_hue

    preds = (llr > 0).astype(np.int64)
    return float((preds == lat.label).mean())
