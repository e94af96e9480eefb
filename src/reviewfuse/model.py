"""The end-to-end classifier: encoders + head, in fused or unimodal modes.

Parameters from all submodels live in one flat name -> Tensor dict with
"text."/"img."/"head." prefixes, which is also the serialization order.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError
from .fusion import FusionConfig, classify_batch, fusion_layout
from .image_encoder import ImageEncoderConfig, encode_image, image_encoder_layout
from .imageproc import normalize_batch
from .text_encoder import TextEncoderConfig, encode_text, text_encoder_layout

# whether a model of each mode reads (text, images)
READS = {"text_only": (True, False), "image_only": (False, True), "fused": (True, True)}
MODES = tuple(READS)


class ReviewClassifier:
    """Fused or unimodal review classifier over token ids and image crops."""

    def __init__(self, mode: str,
                 text_cfg: TextEncoderConfig | None,
                 image_cfg: ImageEncoderConfig | None,
                 d_hidden: int = 32, seed: int = 0, dtype=np.float32):
        self._configure(mode, text_cfg, image_cfg, d_hidden)
        self.params: dict[str, Tensor] = ag.init_params(
            self._layout(), np.random.default_rng(seed), dtype)

    def _configure(self, mode, text_cfg, image_cfg, d_hidden) -> None:
        if mode not in MODES:
            raise ContractError(f"unknown mode {mode!r}, expected one of {MODES}")
        text, images = READS[mode]
        if text and text_cfg is None:
            raise ContractError(f"mode {mode} requires a text encoder config")
        if images and image_cfg is None:
            raise ContractError(f"mode {mode} requires an image encoder config")
        self.mode = mode
        self.text_cfg = text_cfg if text else None
        self.image_cfg = image_cfg if images else None
        d_in = ((self.text_cfg.d_model if text else 0)
                + (self.image_cfg.d_out if images else 0))
        self.fusion_cfg = FusionConfig(d_in, d_hidden)

    def _layout(self):
        """``(name, shape, init)`` of every parameter, in serialization order."""
        for prefix, cfg, layout in (("text.", self.text_cfg, text_encoder_layout),
                                    ("img.", self.image_cfg, image_encoder_layout)):
            if cfg is not None:
                for name, shape, init in layout(cfg):
                    yield prefix + name, shape, init
        yield from fusion_layout(self.fusion_cfg)

    def _sub(self, prefix: str) -> dict[str, Tensor]:
        n = len(prefix)
        return {k[n:]: v for k, v in self.params.items() if k.startswith(prefix)}

    def encode_batch(self, reviews: np.ndarray | None,
                     crops: np.ndarray | None, training: bool = False,
                     rng: np.random.Generator | None = None) -> Tensor:
        """Return the B x d_in pre-head representation (encoders only).

        ``reviews`` is the (B, L) int32 token-id batch and ``crops`` the
        (B, 3, S, S) uint8 crop batch, as ``PreparedDataset.batches``
        yields them; a modality this model does not read is ignored."""
        feats = None
        if self.text_cfg is not None:
            if reviews is None:
                raise ContractError(f"mode {self.mode} needs tokenized text")
            feats = encode_text(self._sub("text."), self.text_cfg, reviews,
                                training, rng)
        if self.image_cfg is not None:
            if getattr(crops, "dtype", None) != np.uint8:
                raise ContractError(f"mode {self.mode} needs a uint8 crop batch")
            params = self._sub("img.")
            # in the parameters' dtype, so the float64 twin reads float64
            pixels = Tensor(normalize_batch(crops),
                            dtype=params["stem.conv"].data.dtype)
            img_feats = encode_image(params, self.image_cfg, pixels)
            feats = img_feats if feats is None else ag.concat_cols(feats, img_feats)
        return feats

    def forward_batch(self, reviews: np.ndarray | None,
                      crops: np.ndarray | None, training: bool = False,
                      rng: np.random.Generator | None = None) -> Tensor:
        """Return B x 2 logits for a batch of samples."""
        feats = self.encode_batch(reviews, crops, training, rng)
        return classify_batch(self.params, self.fusion_cfg, feats)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def config_dict(self) -> dict:
        return {
            "mode": self.mode,
            "text_cfg": asdict(self.text_cfg) if self.text_cfg else None,
            "image_cfg": asdict(self.image_cfg) if self.image_cfg else None,
            "d_hidden": self.fusion_cfg.d_hidden,
        }

    @classmethod
    def from_state(cls, cfg: dict, arrays: dict[str, np.ndarray]) -> "ReviewClassifier":
        """The float32 model a ``config_dict`` describes, holding ``arrays``.

        Draws no random numbers and allocates no weight array: ``arrays``
        are checked against the parameter layout's names and shapes, and
        each becomes its parameter's data, without a copy if float32. A
        ``dropout_p`` entry, and the image config's ``d_out`` (its last
        stage's width), which older configs carry, are not read.
        """
        text_cfg = TextEncoderConfig(**cfg["text_cfg"]) if cfg.get("text_cfg") else None
        image = {k: v for k, v in (cfg.get("image_cfg") or {}).items() if k != "d_out"}
        image_cfg = ImageEncoderConfig(**image) if image else None
        model = cls.__new__(cls)
        model._configure(cfg["mode"], text_cfg, image_cfg, cfg["d_hidden"])
        shapes = {name: shape for name, shape, _ in model._layout()}
        if set(arrays) != set(shapes):
            missing = set(shapes) ^ set(arrays)
            raise ContractError(f"parameter name mismatch: {sorted(missing)[:5]}")
        for k, shape in shapes.items():
            if arrays[k].shape != shape:
                raise ContractError(
                    f"shape mismatch for {k}: {arrays[k].shape} vs {shape}")
        model.params = {k: Tensor(arrays[k], requires_grad=True, dtype=np.float32)
                        for k in shapes}
        return model

