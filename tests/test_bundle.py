"""Mutants of a small valid FKIT bundle: each one raises ``FormatError`` or
decodes to the original tensors.

The mutations are the ones a decoder's bounds must survive, one to three
of them a file: the file cut anywhere, a tensor extent overwritten, a rank
or the tensor count grown, the config length grown. Offsets come from a
walk of the layout in ``reviewfuse.bundle``'s docstring, written out here.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reviewfuse.bundle import ModelBundle, load_bundle, save_bundle
from reviewfuse.errors import FormatError

TENSORS = {
    "w": np.arange(6, dtype=np.float32).reshape(2, 3) / 7,
    "bias": np.array([0.5, -1.0, 2.0, 3.25], dtype=np.float32),
    "s": np.array(-4.0, dtype=np.float32),
    "k.deep": np.linspace(-1, 1, 12, dtype=np.float32).reshape(1, 2, 2, 3),
}
CONFIG = {"mode": "fused", "n": 3}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "m.fkit"
    save_bundle(ModelBundle(tensors=TENSORS, config=CONFIG), path)
    return path.read_bytes()


def layout(blob: bytes) -> dict:
    """Offsets of the count, each tensor's rank and extents, and the
    config length."""
    pos, ranks, extents = 12, [], []
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        (name_len,) = struct.unpack_from("<I", blob, pos)
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", blob, pos)
        ranks.append(pos)
        shape = struct.unpack_from(f"<{rank}Q", blob, pos + 4)
        extents.extend(pos + 4 + 8 * i for i in range(rank))
        pos += 4 + 8 * rank + 4 * int(np.prod(shape))
    return {"count": 8, "ranks": ranks, "extents": extents, "config_len": pos}


def grow(blob: bytearray, at: int, fmt: str, by: int) -> None:
    """Grow the field at ``at`` by ``by``, wrapping at the field's width."""
    (value,) = struct.unpack_from(fmt, blob, at)
    struct.pack_into(fmt, blob, at, (value + by) % 2 ** (8 * struct.calcsize(fmt)))


@st.composite
def mutants(draw, blob: bytes):
    """``blob`` after one to three mutations, each at the field's offset in
    the valid file; a field the file no longer holds is left alone."""
    where = layout(blob)
    out = bytearray(blob)
    for kind in draw(st.lists(st.sampled_from(
            ["truncate", "extent", "rank", "count", "config"]),
            min_size=1, max_size=3)):
        if kind == "truncate":
            if out:
                del out[draw(st.integers(0, len(out) - 1)):]
            continue
        at = {"extent": st.sampled_from(where["extents"]),
              "rank": st.sampled_from(where["ranks"]),
              "count": st.just(where["count"]),
              "config": st.just(where["config_len"])}[kind]
        at = draw(at)
        fmt = "<I" if kind in ("rank", "count") else "<Q"
        if at + struct.calcsize(fmt) > len(out):
            continue
        if kind == "extent":
            struct.pack_into(fmt, out, at, draw(
                st.integers(0, 16) | st.integers(0, 2 ** 64 - 1)
                | st.sampled_from([2 ** 31, 2 ** 32, 2 ** 62, 2 ** 63,
                                   2 ** 64 - 1])))
        else:
            grow(out, at, fmt, draw(st.integers(1, 8) | st.integers(1, 2 ** 64)))
    return bytes(out)


def test_layout_walk_reaches_the_config(valid):
    at = layout(valid)["config_len"]
    (cfg_len,) = struct.unpack_from("<Q", valid, at)
    assert at + 8 + cfg_len == len(valid)
    assert len(layout(valid)["extents"]) == 2 + 1 + 0 + 4


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_mutant_raises_format_error_or_decodes_the_original(
        tmp_path, valid, data):
    blob = data.draw(mutants(valid))
    path = tmp_path / "mutant.fkit"
    path.write_bytes(blob)
    try:
        back = load_bundle(path)
    except FormatError:
        return
    assert back.config == CONFIG
    assert list(back.tensors) == list(TENSORS)
    for name, want in TENSORS.items():
        got = back.tensors[name]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
