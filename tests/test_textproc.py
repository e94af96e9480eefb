import random
import string
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewfuse import textproc as tp
from reviewfuse.bundle import ModelBundle, load_bundle, save_bundle
from reviewfuse.errors import ParameterError
from reviewfuse.textproc import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    Vocabulary,
    build_vocab,
    normalize_text,
    tokenize,
)


class TestNormalize:
    def test_stated_rules(self):
        assert normalize_text("Great Service!!") == "great service"

    def test_whitespace_collapse(self):
        assert normalize_text("  A  B ") == "a b"

    def test_unicode_punctuation(self):
        assert normalize_text("so—called “fresh”") == "socalled fresh"

    @given(st.text(max_size=50))
    def test_idempotent(self, s):
        once = normalize_text(s)
        assert normalize_text(once) == once

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=60))
    def test_matches_the_character_loop(self, s):
        assert normalize_text(s) == loop_normalize(s)

    def test_table_keeps_only_low_code_points(self):
        high = "".join(map(chr, range(0x800, 0x2000)))
        assert normalize_text(high) == loop_normalize(high)
        assert all(cp < 0x800 for cp in tp.TABLE)


def loop_normalize(raw):
    """The character loop ``normalize_text`` replaced, as the reference."""
    out = []
    for ch in raw.lower():
        if unicodedata.category(ch).startswith("P"):
            continue
        out.append(" " if ch.isspace() else ch)
    return " ".join("".join(out).split())


class TestBuildVocab:
    def test_frequency_order(self):
        v = build_vocab(["a a b"], max_size=6)
        assert len(v) == 6
        assert v.lookup("a") == 4
        assert v.lookup("b") == 5

    def test_reserved_only(self):
        v = build_vocab(["x y z"], max_size=4)
        assert len(v) == 4
        assert v.lookup("x") == UNK_ID

    def test_max_size_too_small(self):
        with pytest.raises(ParameterError):
            build_vocab([], max_size=3)

    def test_matches_independent_counting(self):
        rng = random.Random(7)
        words = ["w%d" % rng.randrange(30) for _ in range(800)]
        docs = [" ".join(words[i:i + 16]) for i in range(0, 800, 16)]
        v = build_vocab(docs, max_size=200)
        # independent counting pass
        counts = Counter(w for d in docs for w in d.split())
        expected = sorted(counts, key=lambda w: (-counts[w], w))
        assert v.id_to_token[4:] == expected

    def test_save_load_roundtrip(self, tmp_path):
        # a vocabulary is saved as a bundle's vocab_tokens and loaded back
        # from them, as train and predict do
        v = build_vocab(["alpha beta beta gamma café"], max_size=10)
        p = tmp_path / "m.fkit"
        save_bundle(ModelBundle(tensors={},
                                config={"vocab_tokens": v.id_to_token[4:]}), p)
        v2 = Vocabulary(load_bundle(p).config["vocab_tokens"])
        assert v2.id_to_token == v.id_to_token


class TestTokenize:
    @pytest.fixture
    def vocab(self):
        return build_vocab(["great service food was cold"], max_size=20)

    def test_direct_assembly(self, vocab):
        r = tokenize(vocab, "great service", max_len=6)
        g, s = vocab.lookup("great"), vocab.lookup("service")
        assert r.dtype == np.int32
        assert r.tolist() == [CLS_ID, g, s, SEP_ID, PAD_ID, PAD_ID]
        assert (r != PAD_ID).tolist() == [True] * 4 + [False] * 2

    def test_empty_text(self, vocab):
        r = tokenize(vocab, "", max_len=5)
        assert r[:2].tolist() == [CLS_ID, SEP_ID]
        assert all(i == PAD_ID for i in r[2:])

    def test_long_review_truncated(self, vocab):
        text = " ".join("word%d" % i for i in range(300))
        r = tokenize(vocab, text, max_len=128)
        assert r[0] == CLS_ID
        assert r[127] == SEP_ID
        assert (r != PAD_ID).all()

    def test_min_len(self, vocab):
        with pytest.raises(ParameterError):
            tokenize(vocab, "x", max_len=2)

    def test_unknown_words_map_to_unk(self, vocab):
        r = tokenize(vocab, "zzz great", max_len=8)
        assert r[1] == UNK_ID

    @given(st.text(max_size=80), st.integers(min_value=3, max_value=20))
    def test_mask_sums_to_true_length(self, text, max_len):
        v = build_vocab(["some words here"], max_size=10)
        r = tokenize(v, text, max_len=max_len)
        assert r.shape == (max_len,)
        assert all(0 <= i < len(v) for i in r)
        # the mask is a prefix of ones: [CLS], the kept words, [SEP]
        mask = (r != PAD_ID).tolist()
        assert mask == sorted(mask, reverse=True)

    @given(st.lists(st.sampled_from(["some", "words", "here", "zzz", "[PAD]",
                                     "[pad]", "pad", "!", "\u3000"]),
                    max_size=30),
           st.integers(min_value=3, max_value=20))
    def test_mask_is_ids_not_pad(self, words, max_len):
        # the padding fills exactly the tail past [CLS] + kept words + [SEP],
        # truncation included, so the mask needs no array of its own
        v = build_vocab(["some words here pad"], max_size=10)
        text = " ".join(words)
        r = tokenize(v, text, max_len=max_len)
        kept = min(len(normalize_text(text).split()), max_len - 2)
        np.testing.assert_array_equal(r != PAD_ID,
                                      np.arange(max_len) < kept + 2)

    def test_truncation_preserves_prefix(self, vocab):
        text = " ".join("great service food was cold".split() * 10)
        full = [vocab.lookup(w) for w in text.split()]
        r = tokenize(vocab, text, max_len=12)
        assert r[1:11].tolist() == full[:10]
