"""Text normalization, vocabulary construction, and fixed-length tokenization.

Word-level vocabulary with four reserved ids ([PAD]=0, [UNK]=1, [CLS]=2,
[SEP]=3). Reviews are normalized (lowercase, punctuation stripped,
whitespace collapsed), split on whitespace, mapped to ids, and assembled as
an int32 row [CLS] tokens... [SEP] with [PAD] fill. A normalized word never
reads ``[PAD]`` (its brackets are punctuation), so the attention mask of a
row is ``ids != PAD_ID``.
"""

from __future__ import annotations

import unicodedata
from collections import Counter

import numpy as np

from .errors import ParameterError

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
RESERVED = ["[PAD]", "[UNK]", "[CLS]", "[SEP]"]

# tokens per review at desk scale, [CLS] and [SEP] included, and the
# vocabulary's size, the reserved ids included
DESK_MAX_LEN = 16
DESK_VOCAB_SIZE = 2000


class _PunctuationTable(dict):
    """``str.translate`` table that deletes Unicode punctuation (category
    P*) and keeps every other code point, filled on first sight. Only code
    points below U+0800 are stored, so no text can grow it past 2,048
    entries."""

    def __missing__(self, cp: int):
        keep = None if unicodedata.category(chr(cp)).startswith("P") else cp
        if cp < 0x800:
            self[cp] = keep
        return keep


TABLE = _PunctuationTable()


def normalize_text(raw: str) -> str:
    """Lowercase, drop Unicode punctuation, collapse whitespace runs."""
    return " ".join(raw.lower().translate(TABLE).split())


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


def build_vocab(corpus: list[str], max_size: int = DESK_VOCAB_SIZE) -> Vocabulary:
    """Rank normalized whitespace tokens by frequency (ties lexicographic)."""
    if max_size < 4:
        raise ParameterError(f"max_size must be >= 4, got {max_size}")
    counts: Counter[str] = Counter()
    for doc in corpus:
        counts.update(normalize_text(doc).split())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary([tok for tok, _ in ranked[: max_size - 4]])


def tokenize(vocab: Vocabulary, text: str, max_len: int) -> np.ndarray:
    """Normalize, map to ids, wrap in [CLS]/[SEP], truncate tail, pad: the
    review as a (max_len,) int32 row of token ids."""
    if max_len < 3:
        raise ParameterError(f"max_len must be >= 3, got {max_len}")
    words = normalize_text(text).split()[: max_len - 2]
    ids = np.full(max_len, PAD_ID, dtype=np.int32)
    ids[0] = CLS_ID
    ids[1:len(words) + 1] = [vocab.lookup(w) for w in words]
    ids[len(words) + 1] = SEP_ID
    return ids
