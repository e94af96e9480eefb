"""Text normalization, vocabulary construction, and fixed-length tokenization.

Word-level vocabulary with four reserved ids ([PAD]=0, [UNK]=1, [CLS]=2,
[SEP]=3). Reviews are normalized (lowercase, punctuation stripped,
whitespace collapsed), split on whitespace, mapped to ids, and assembled as
[CLS] tokens... [SEP] with [PAD] fill and a 1/0 attention mask.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass

from .errors import ParameterError

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
RESERVED = ["[PAD]", "[UNK]", "[CLS]", "[SEP]"]


def normalize_text(raw: str) -> str:
    """Lowercase, drop Unicode punctuation, collapse whitespace runs."""
    out = []
    for ch in raw.lower():
        if unicodedata.category(ch).startswith("P"):
            continue
        out.append(" " if ch.isspace() else ch)
    return " ".join("".join(out).split())


class Vocabulary:
    """Immutable token <-> id mapping with fixed reserved ids."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = RESERVED + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ParameterError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


def build_vocab(corpus: list[str], max_size: int = 2000, min_count: int = 1) -> Vocabulary:
    """Rank normalized whitespace tokens by frequency (ties lexicographic)."""
    if max_size < 4:
        raise ParameterError(f"max_size must be >= 4, got {max_size}")
    counts: Counter[str] = Counter()
    for doc in corpus:
        counts.update(normalize_text(doc).split())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    admitted = [tok for tok, n in ranked if n >= min_count][: max_size - 4]
    return Vocabulary(admitted)


@dataclass
class TokenizedReview:
    ids: list[int]
    mask: list[int]
    true_length: int


def tokenize(vocab: Vocabulary, text: str, max_len: int = 128) -> TokenizedReview:
    """Normalize, map to ids, wrap in [CLS]/[SEP], truncate tail, pad."""
    if max_len < 3:
        raise ParameterError(f"max_len must be >= 3, got {max_len}")
    words = normalize_text(text).split()
    body = [vocab.lookup(w) for w in words][: max_len - 2]
    ids = [CLS_ID] + body + [SEP_ID]
    true_length = len(ids)
    mask = [1] * true_length + [0] * (max_len - true_length)
    ids = ids + [PAD_ID] * (max_len - true_length)
    return TokenizedReview(ids=ids, mask=mask, true_length=true_length)
