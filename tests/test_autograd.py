import threading
import time

import numpy as np
import pytest

from reviewfuse import autograd as ag
from reviewfuse.autograd import Tensor, grad_check
from reviewfuse.errors import (
    ContractError,
    DimensionError,
    LabelError,
    ParameterError,
    TokenIndexError,
)

from graph_walk import add_then_layer_norm, backprop, chained_channel_norm


def t64(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_shape(self):
        a = t64(np.zeros((2, 3)))
        b = t64(np.zeros((3, 4)))
        assert ag.matmul(a, b).shape == (2, 4)

    def test_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 5))
        out = ag.matmul(t64(np.eye(3)), t64(x))
        np.testing.assert_allclose(out.data, x)

    def test_mismatch_raises(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\)"):
            ag.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))))

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        a = t64(rng.normal(size=(4, 5)))
        b = t64(rng.normal(size=(5, 6)))
        err = grad_check(lambda: ag.tsum(ag.mul(ag.matmul(a, b), ag.matmul(a, b))),
                         [a, b])
        assert err < 1e-6

    @pytest.mark.parametrize("inner", [32, 64, 96])
    def test_one_row_is_bitwise_a_row_of_the_batch(self, inner):
        # a (1, k) left operand would take BLAS's gemv path, which may sum
        # in another order than a batched product's rows
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(64, inner)).astype(np.float32))
        b = Tensor(rng.normal(size=(inner, 32)).astype(np.float32))
        batched = ag.matmul(a, b).data
        for i in range(64):
            one = ag.matmul(Tensor(a.data[i:i + 1]), b).data
            assert one.shape == (1, 32)
            np.testing.assert_array_equal(one[0], batched[i])

    @pytest.mark.parametrize("inner,cols", [(32, 32), (32, 2), (64, 2)])
    def test_rows_are_bitwise_rows_of_any_taller_product(self, inner, cols):
        # OpenBLAS blocks rows by 4, so the rows of a product with few
        # columns may depend on the row count unless it is padded
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(64, inner)).astype(np.float32))
        b = Tensor(rng.normal(size=(inner, cols)).astype(np.float32))
        batched = ag.matmul(a, b).data
        for m in range(1, 64):
            got = ag.matmul(Tensor(a.data[:m]), b).data
            assert got.shape == (m, cols)
            assert got.tobytes() == batched[:m].tobytes(), m


def brute_force_conv(x, w, stride, pad):
    """Nested-loop cross-correlation of a C x B x H x W map, zero padded."""
    cin, bsz, h, wdt = x.shape
    cout, _, k, _ = w.shape
    xp = np.zeros((cin, bsz, h + 2 * pad, wdt + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + wdt] = x
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (wdt + 2 * pad - k) // stride + 1
    out = np.zeros((cout, bsz, h_out, w_out))
    for co in range(cout):
        for b in range(bsz):
            for y in range(h_out):
                for xx in range(w_out):
                    acc = 0.0
                    for ci in range(cin):
                        for i in range(k):
                            for j in range(k):
                                acc += (w[co, ci, i, j]
                                        * xp[ci, b, y * stride + i, xx * stride + j])
                    out[co, b, y, xx] = acc
    return out


CONV_GRID = [(k, s, p) for k in (1, 3) for s in (1, 2) for p in (0, 1)]


class TestConv2d:
    def test_1x1_identity(self):
        x = t64(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        w = t64(np.ones((1, 1, 1, 1)))
        out = ag.conv2d(x, w, stride=1, pad=0)
        np.testing.assert_allclose(out.data, x.data)

    def test_same_padding_shape(self):
        x = t64(np.zeros((1, 1, 5, 5)))
        w = t64(np.zeros((1, 1, 3, 3)))
        assert ag.conv2d(x, w, stride=1, pad=1).shape == (1, 1, 5, 5)

    def test_nonpositive_output_raises(self):
        with pytest.raises(DimensionError):
            ag.conv2d(t64(np.zeros((1, 1, 2, 2))), t64(np.zeros((1, 1, 5, 5))))

    def test_unbatched_input_raises(self):
        with pytest.raises(DimensionError):
            ag.conv2d(t64(np.zeros((1, 5, 5))), t64(np.zeros((1, 1, 3, 3))))

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        x = t64(rng.normal(size=(2, 1, 6, 6)))
        w = t64(rng.normal(size=(3, 2, 3, 3)))
        err = grad_check(
            lambda: ag.tsum(ag.mul(ag.conv2d(x, w, 1, 1), ag.conv2d(x, w, 1, 1))),
            [x, w])
        assert err < 1e-6

    def test_constant_input_gets_no_grad_and_same_kernel_grad(self):
        # the stem's pixels require no gradient: backward skips dx and
        # leaves dW bit-identical
        rng = np.random.default_rng(30)
        x_data = rng.normal(size=(3, 2, 7, 7)).astype(np.float32)
        w_data = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        grads = []
        for needs in (True, False):
            x = Tensor(x_data.copy(), requires_grad=needs)
            w = Tensor(w_data.copy(), requires_grad=True)
            ag.tsum(ag.relu(ag.conv2d(x, w, stride=2, pad=1))).backward()
            assert (x.grad is not None) == needs
            grads.append(w.grad)
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_gradcheck_stride2_batched(self):
        rng = np.random.default_rng(3)
        x = t64(rng.normal(size=(2, 2, 5, 5)))
        w = t64(rng.normal(size=(3, 2, 3, 3)))
        err = grad_check(lambda: ag.tsum(ag.conv2d(x, w, 2, 1)), [x, w])
        assert err < 1e-6

    @pytest.mark.parametrize("k,stride,pad", CONV_GRID)
    def test_gradcheck_grid(self, k, stride, pad):
        # B=2 and an odd side: stride-2 phases of unequal extent, and shifted
        # reads that run into the next row and the next image
        rng = np.random.default_rng([4, k, stride, pad])
        x = t64(rng.normal(size=(2, 2, 7, 7)))
        w = t64(rng.normal(size=(3, 2, k, k)))
        g = t64(rng.normal(size=ag.conv2d(x, w, stride, pad).shape), False)
        err = grad_check(lambda: ag.tsum(ag.mul(ag.conv2d(x, w, stride, pad), g)),
                         [x, w])
        assert err < 1e-6

    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1), (1, 2, 0)])
    def test_tiles_match_one_tile(self, monkeypatch, k, stride, pad):
        # five images as one tile, as tiles of two (the last one ragged) and
        # as one tile each: the output and both gradients must not change
        rng = np.random.default_rng([6, k, stride, pad])
        x = t64(rng.normal(size=(2, 5, 7, 7)))
        w = t64(rng.normal(size=(3, 2, k, k)))
        g = rng.normal(size=ag.conv2d(x, w, stride, pad).shape)
        per_image = 2 * k * k * ag.conv2d(x, w, stride, pad).data[0, 0].size * 8
        results = []
        for images in (5, 2, 1):
            monkeypatch.setattr(ag, "CONV_TILE_BYTES", images * per_image)
            x.zero_grad()
            w.zero_grad()
            out = ag.conv2d(x, w, stride, pad)
            ag.tsum(ag.mul(out, t64(g, False))).backward()
            results.append((out.data, x.grad, w.grad))
        for got in results[1:]:
            for a, b in zip(got, results[0]):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k,stride,pad", CONV_GRID + [(3, 2, 2), (5, 3, 1)])
    def test_matches_brute_force(self, k, stride, pad):
        rng = np.random.default_rng([5, k, stride, pad])
        x = rng.normal(size=(2, 3, 7, 6))
        w = rng.normal(size=(4, 2, k, k))
        out = ag.conv2d(t64(x), t64(w), stride, pad).data
        np.testing.assert_allclose(out, brute_force_conv(x, w, stride, pad),
                                   rtol=0, atol=1e-12)


class TestElementwise:
    def test_relu_values(self):
        out = ag.relu(t64([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_add_zero_identity(self):
        x = t64([1.0, -2.0, 3.0])
        out = ag.add(x, t64(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ag.add(t64(np.zeros(3)), t64(np.zeros(4)))

    def test_relu_grad_mask(self):
        x = t64([-1.0, 2.0])
        out = ag.tsum(ag.relu(x))
        out.backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])
        assert grad_check(lambda: ag.tsum(ag.relu(x)), [x]) < 1e-6

    def test_relu_grad_zero_at_zero(self):
        x = t64([0.0, 1.0])
        ag.tsum(ag.relu(x)).backward()
        assert x.grad[0] == 0.0


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(ag.softmax(t64([0.0, 0.0])).data, [0.5, 0.5])

    def test_no_overflow(self):
        np.testing.assert_allclose(ag.softmax(t64([1000.0, 1000.0])).data, [0.5, 0.5])

    def test_sums_to_one(self):
        x = t64(np.random.default_rng(4).normal(size=5))
        assert abs(ag.softmax(x).data.sum() - 1.0) < 1e-12

    def test_shift_invariance_bitwise(self):
        # shift chosen so x + c is exact in f64: x on a 2^-20 grid, c a power of 2
        x = np.round(np.random.default_rng(5).normal(size=7) * 2**20) / 2**20
        a = ag.softmax(t64(x)).data
        b = ag.softmax(t64(x + 1024.0)).data
        np.testing.assert_array_equal(a, b)

    def test_gradcheck(self):
        x = t64(np.random.default_rng(6).normal(size=5))
        w = np.random.default_rng(7).normal(size=5)
        err = grad_check(lambda: ag.tsum(ag.mul(ag.softmax(x), t64(w, False))), [x])
        assert err < 1e-6


class TestLayerNorm:
    def test_constant_vector_zeros(self):
        # x alone varies; the residual makes the normalised sum constant
        out = ag.layer_norm(t64([1.0, 2.0, 3.0, 4.0]), t64([2.0, 1.0, 0.0, -1.0]),
                            t64(np.ones(4)), t64(np.zeros(4)))
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-2)

    def test_two_point(self):
        # +-1 / sqrt(1 + 1e-5): the variance floor moves the unit values by 5e-6
        out = ag.layer_norm(t64([1.0, 3.0]), t64(np.zeros(2)), t64(np.ones(2)),
                            t64(np.zeros(2)))
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-5)

    def test_gradcheck(self):
        rng = np.random.default_rng(8)
        x = t64(rng.normal(size=(3, 6)))
        residual = t64(rng.normal(size=(3, 6)))
        gamma = t64(rng.normal(size=6))
        beta = t64(rng.normal(size=6))
        err = grad_check(lambda: ag.layer_norm(x, residual, gamma, beta),
                         [x, residual, gamma, beta])
        assert err < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [32, 768])
    def test_bitwise_the_var_formula(self, dtype, d):
        # the forward centres the sum once; ndarray.var centres it again itself
        rng = np.random.default_rng(9)
        x = (rng.normal(size=(64, d)) * 3.0 + 1.5).astype(dtype)
        residual = rng.normal(size=(64, d)).astype(dtype)
        gamma = rng.normal(size=d).astype(dtype)
        beta = rng.normal(size=d).astype(dtype)
        s = x + residual
        mean = s.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(s.var(axis=-1, keepdims=True) + 1e-5)
        want = gamma * ((s - mean) * inv_std) + beta
        got = ag.layer_norm(Tensor(x), Tensor(residual), Tensor(gamma),
                            Tensor(beta)).data
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [32 * 16, 32], ids=["full_rows", "cls_rows"])
    def test_bit_identical_to_add_then_layer_norm(self, dtype, rows):
        # a desk text block's (B*L, d) activation, and its last block's B
        # [CLS] rows
        rng = np.random.default_rng(10)
        arrays = [rng.normal(size=s).astype(dtype)
                  for s in ((rows, 32), (rows, 32), (32,), (32,), (rows, 32))]
        results = []
        for norm in (ag.layer_norm, add_then_layer_norm):
            ts = [Tensor(a.copy(), requires_grad=True) for a in arrays[:4]]
            out = norm(*ts)
            backprop(out, arrays[4])
            results.append([out.data] + [t.grad for t in ts])
        for name, a, b in zip(("out", "x", "residual", "gamma", "beta"),
                              *results):
            assert a.dtype == dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_one_graph_node(self):
        x, residual = t64(np.ones((2, 3))), t64(np.zeros((2, 3)))
        gamma, beta = t64(np.ones(3)), t64(np.zeros(3))
        out = ag.layer_norm(x, residual, gamma, beta)
        assert out._parents == (x, residual, gamma, beta)

    def test_shape_and_dtype_checks(self):
        gamma, beta = t64(np.ones(3)), t64(np.zeros(3))
        with pytest.raises(DimensionError):
            ag.layer_norm(t64(np.ones((2, 3))), t64(np.ones((1, 3))), gamma, beta)
        with pytest.raises(DimensionError):
            ag.layer_norm(t64(np.ones((2, 4))), t64(np.ones((2, 4))), gamma, beta)
        with pytest.raises(ContractError):
            ag.layer_norm(t64(np.ones((2, 3))),
                          Tensor(np.ones((2, 3), dtype=np.float32)), gamma, beta)


class TestDropout:
    def test_p_zero_identity(self):
        # off means no node: the input itself comes back, whatever the draws
        x = t64([1.0, 2.0])
        assert ag.dropout(x, 0.0, np.zeros(2)) is x

    def test_eval_identity(self):
        # eval mode hands dropout no draws
        x = t64([1.0, 2.0])
        assert ag.dropout(x, 0.9) is x

    def test_bad_p(self):
        with pytest.raises(ParameterError):
            ag.dropout(t64([1.0]), 1.0, np.zeros(1))
        with pytest.raises(ParameterError):
            ag.dropout(t64([1.0]), 1.0)

    def test_survivor_stats(self):
        x = t64(np.ones(100_000))
        out = ag.dropout(x, 0.3, np.random.default_rng(9).random(100_000))
        frac = np.count_nonzero(out.data) / x.data.size
        assert abs(frac - 0.7) < 0.01
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_deterministic_given_seed(self):
        x = t64(np.ones(1000))
        a = ag.dropout(x, 0.3, np.random.default_rng(42).random(1000)).data
        b = ag.dropout(x, 0.3, np.random.default_rng(42).random(1000)).data
        np.testing.assert_array_equal(a, b)

    def test_given_uniforms_replace_the_draw(self):
        # an element survives where its uniform is at least p, scaled by
        # 1/(1-p) in the input's dtype; the uniforms must match the input
        x = ag.Tensor(np.arange(1.0, 21.0, dtype=np.float32).reshape(4, 5))
        u = np.random.default_rng(42).random((4, 5))
        out = ag.dropout(x, 0.3, u)
        assert out.data.dtype == np.float32
        want = x.data * np.where(u >= 0.3, np.float32(1 / 0.7), np.float32(0))
        np.testing.assert_array_equal(out.data, want)
        with pytest.raises(DimensionError):
            ag.dropout(x, 0.3, u.reshape(-1))


class TestGlobalAvgPool:
    def test_mean(self):
        x = t64(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2))
        np.testing.assert_allclose(ag.global_avg_pool(x).data, [[2.5]])

    def test_constant(self):
        x = t64(np.full((3, 1, 4, 4), 7.0))
        np.testing.assert_allclose(ag.global_avg_pool(x).data, [[7.0] * 3])

    def test_channel_major_in_batch_major_out(self):
        x = np.random.default_rng(9).normal(size=(3, 2, 4, 5))
        out = ag.global_avg_pool(t64(x)).data
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out[1, 2], x[2, 1].mean(), rtol=1e-15)

    def test_gradcheck(self):
        rng = np.random.default_rng(10)
        x = t64(rng.normal(size=(2, 3, 3, 4)))
        w = t64(rng.normal(size=(3, 2)), False)
        err = grad_check(lambda: ag.tsum(ag.mul(ag.global_avg_pool(x), w)), [x])
        assert err < 1e-6


class TestEmbeddingLookup:
    def test_first_row(self):
        table = t64(np.arange(6, dtype=np.float64).reshape(3, 2))
        np.testing.assert_array_equal(ag.embedding_lookup(table, [0]).data, [[0.0, 1.0]])

    def test_repeated_id_accumulates(self):
        table = t64(np.zeros((3, 2)))
        out = ag.embedding_lookup(table, [1, 1])
        ag.tsum(out).backward()
        np.testing.assert_array_equal(table.grad[1], [2.0, 2.0])

    def test_out_of_range(self):
        with pytest.raises(TokenIndexError, match="5"):
            ag.embedding_lookup(t64(np.zeros((3, 2))), [5])

    def test_out_of_range_names_first_offender(self):
        table = t64(np.zeros((3, 2)))
        with pytest.raises(TokenIndexError, match=r"id -1 out"):
            ag.embedding_lookup(table, np.array([0, 2, -1, 7]))
        with pytest.raises(TokenIndexError, match=r"id 3 out"):
            ag.embedding_lookup(table, [1, 3, -4])
        with pytest.raises(TokenIndexError, match=str(2 ** 70)):
            ag.embedding_lookup(table, [0, 2 ** 70])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scatter_bit_identical_to_2d_add_at(self, dtype):
        rng = np.random.default_rng(44)
        ids = np.array([3, 0, 3, 3, 1, 0, 0])
        w = Tensor(embedding_grad_probe(rng, len(ids), 4, ids).astype(dtype))
        table_data = rng.normal(size=(5, 4)).astype(dtype)
        grads = []
        for lookup in (ag.embedding_lookup, lookup_2d):
            table = Tensor(table_data.copy(), requires_grad=True)
            ag.tsum(ag.mul(lookup(table, ids), w)).backward()
            grads.append(table.grad)
        assert grads[0].dtype == dtype
        assert grads[0].tobytes() == grads[1].tobytes()

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        table = t64(rng.normal(size=(5, 3)))
        w = t64(rng.normal(size=(4, 3)), False)
        err = grad_check(
            lambda: ag.tsum(ag.mul(ag.embedding_lookup(table, [0, 2, 2, 4]), w)),
            [table])
        assert err < 1e-6


def lookup_2d(table, ids):
    """``embedding_lookup`` as it was: its backward one 2-D ``np.add.at``."""
    idx = np.asarray(ids).reshape(-1).astype(np.int64)

    def backward(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, idx, g)
        ag._accum(table, dt, fresh=True)

    return ag._make(table.data[idx], (table,), backward)


def lookup_lookup_add(tok, pos, ids):
    """Token plus position embeddings as three nodes."""
    bsz, seq_len = ids.shape
    return ag.add(lookup_2d(tok, ids.reshape(-1)),
                  lookup_2d(pos, np.tile(np.arange(seq_len), bsz)))


def embedding_grad_probe(rng, rows, d, ids):
    """Upstream gradient rows with signed zeros: a column of -0.0, a
    column of +0.0, and -0.0 at every [PAD] row in one more column."""
    w = rng.normal(size=(rows, d))
    w[:, 1] = -0.0
    w[:, 2] = 0.0
    w[np.asarray(ids).reshape(-1) == 0, 3] = -0.0
    return w


class TestEmbedTokens:
    @pytest.mark.parametrize("bsz", [1, 5, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_lookup_lookup_add(self, bsz, dtype):
        rng = np.random.default_rng(40)
        vocab, seq_len, d = 12, 8, 6
        # repeated ids; the last three positions are [PAD] (id 0) in every
        # row, and the position table has two rows no sequence reaches
        ids = rng.integers(0, 5, (bsz, seq_len))
        ids[:, -3:] = 0
        tok_data = rng.normal(size=(vocab, d)).astype(dtype)
        pos_data = rng.normal(size=(seq_len + 2, d)).astype(dtype)
        w = Tensor(embedding_grad_probe(rng, bsz * seq_len, d, ids).astype(dtype))
        results = []
        for embed in (ag.embed_tokens, lookup_lookup_add):
            tok = Tensor(tok_data.copy(), requires_grad=True)
            pos = Tensor(pos_data.copy(), requires_grad=True)
            out = embed(tok, pos, ids)
            ag.tsum(ag.mul(out, w)).backward()
            results.append([out.data, tok.grad, pos.grad])
        new, old = results
        assert new[0].dtype == dtype and new[0].shape == (bsz * seq_len, d)
        for a, b in zip(new, old):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_one_graph_node(self):
        rng = np.random.default_rng(41)
        tok, pos = t64(rng.normal(size=(5, 3))), t64(rng.normal(size=(4, 3)))
        out = ag.embed_tokens(tok, pos, np.array([[2, 3, 0, 0]]))
        assert out._parents == (tok, pos)
        np.testing.assert_array_equal(out.data, tok.data[[2, 3, 0, 0]] + pos.data)

    def test_frozen_table_gets_no_gradient(self):
        rng = np.random.default_rng(42)
        tok = t64(rng.normal(size=(5, 3)))
        pos = t64(rng.normal(size=(4, 3)), False)
        ag.tsum(ag.embed_tokens(tok, pos, np.array([[1, 1, 4, 0]]))).backward()
        assert pos.grad is None
        np.testing.assert_array_equal(tok.grad[1], [2.0, 2.0, 2.0])

    def test_gradcheck(self):
        rng = np.random.default_rng(43)
        tok, pos = t64(rng.normal(size=(6, 3))), t64(rng.normal(size=(5, 3)))
        ids = np.array([[2, 4, 4, 0], [2, 0, 0, 0]])
        w = t64(rng.normal(size=(8, 3)), False)
        err = grad_check(
            lambda: ag.tsum(ag.mul(ag.embed_tokens(tok, pos, ids), w)),
            [tok, pos])
        assert err < 1e-6

    def test_checks(self):
        tok, pos = t64(np.zeros((5, 3))), t64(np.zeros((4, 3)))
        with pytest.raises(TokenIndexError, match="id 5 out"):
            ag.embed_tokens(tok, pos, np.array([[0, 5]]))
        with pytest.raises(DimensionError):
            ag.embed_tokens(tok, pos, np.array([0, 1]))
        with pytest.raises(DimensionError):  # more positions than rows
            ag.embed_tokens(tok, pos, np.zeros((1, 5), dtype=np.int64))
        with pytest.raises(DimensionError):
            ag.embed_tokens(tok, t64(np.zeros((4, 2))), np.zeros((1, 4), dtype=np.int64))
        with pytest.raises(ContractError):
            ag.embed_tokens(tok, Tensor(np.zeros((4, 3), dtype=np.float32)),
                            np.zeros((1, 4), dtype=np.int64))


class TestAttention:
    MASK = np.array([[1, 1, 1, 0], [1, 1, 0, 0]])  # B=2, L=4, padded keys

    def qkv(self, seed, d=6):
        rng = np.random.default_rng(seed)
        return [t64(rng.normal(size=(8, d))) for _ in range(3)]

    def test_gradcheck(self):
        q, k, v = self.qkv(40)
        w = t64(np.random.default_rng(41).normal(size=(8, 6)), False)
        err = grad_check(
            lambda: ag.tsum(ag.mul(ag.attention(q, k, v, self.MASK, 3), w)),
            [q, k, v])
        assert err < 1e-6

    # two query rows of each sequence: positions 0 and 2
    ROWS = np.array([0, 2, 4, 6])

    def test_query_rows_are_the_full_rows(self):
        q, k, v = self.qkv(45)
        full = ag.attention(q, k, v, self.MASK, 2).data
        got = ag.attention(Tensor(q.data[self.ROWS]), k, v, self.MASK, 2).data
        assert got.shape == (4, 6)
        np.testing.assert_allclose(got, full[self.ROWS], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [ROWS, np.array([0, 4])],
                             ids=["two_per_sequence", "one_per_sequence"])
    def test_query_rows_gradcheck(self, rows):
        q, k, v = self.qkv(46)
        q = t64(q.data[rows])
        w = t64(np.random.default_rng(47).normal(size=q.shape), False)
        err = grad_check(
            lambda: ag.tsum(ag.mul(ag.attention(q, k, v, self.MASK, 3), w)),
            [q, k, v])
        assert err < 1e-6

    def test_query_rows_not_whole_per_sequence_raise(self):
        q, k, v = self.qkv(48)
        with pytest.raises(DimensionError):
            ag.attention(Tensor(q.data[:3]), k, v, self.MASK, 2)
        with pytest.raises(DimensionError):
            ag.attention(Tensor(q.data[:2]), k, Tensor(v.data[:6]), self.MASK, 2)

    def test_padded_keys_and_other_sequences_do_not_leak(self):
        q, k, v = self.qkv(42)
        before = ag.attention(q, k, v, self.MASK, 2).data
        for row in (3, 6, 7):  # the PAD positions
            k.data[row] += 5.0
            v.data[row] -= 5.0
        after = ag.attention(q, k, v, self.MASK, 2).data
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)
        v.data[4] += 1.0  # a real token of sequence 1
        moved = ag.attention(q, k, v, self.MASK, 2).data
        np.testing.assert_array_equal(moved[:4], before[:4])
        assert np.all(np.abs(moved[4:] - before[4:]).max(axis=1) > 0)

    def test_single_head_matches_dense_softmax(self):
        q, k, v = self.qkv(43, d=4)
        out = ag.attention(q, k, v, self.MASK, 1).data
        for b in range(2):
            rows = slice(4 * b, 4 * b + 4)
            s = q.data[rows] @ k.data[rows].T / 2.0
            s[:, self.MASK[b] == 0] = -np.inf
            p = np.exp(s - s.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(out[rows], p @ v.data[rows], atol=1e-12)

    def test_shape_mismatch_raises(self):
        q, k, v = self.qkv(44)
        with pytest.raises(DimensionError):
            ag.attention(q, k, v, np.ones((3, 4)), 2)
        with pytest.raises(DimensionError):
            ag.attention(q, k, v, self.MASK, 4)


class TestConcat:
    def test_paper_scale_lengths(self):
        out = ag.concat(t64(np.zeros(768)), t64(np.zeros(2048)))
        assert out.shape == (2816,)

    def test_empty_first(self):
        b = np.array([1.0, 2.0])
        np.testing.assert_array_equal(ag.concat(t64(np.zeros(0)), t64(b)).data, b)

    def test_rank_mismatch(self):
        with pytest.raises(DimensionError):
            ag.concat(t64(np.zeros((2, 2))), t64(np.zeros(2)))

    def test_split_backward_recomposes(self):
        rng = np.random.default_rng(12)
        a, b = t64(rng.normal(size=3)), t64(rng.normal(size=4))
        w = rng.normal(size=7)
        out = ag.tsum(ag.mul(ag.concat(a, b), t64(w, False)))
        out.backward()
        np.testing.assert_array_equal(np.concatenate([a.grad, b.grad]), w)


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = ag.cross_entropy(t64([[0.0, 0.0]]), [0])
        assert abs(out.item() - np.log(2.0)) < 1e-12

    def test_saturated_correct(self):
        out = ag.cross_entropy(t64([[30.0, -30.0]]), [0])
        assert out.item() < 1e-12

    def test_bad_label(self):
        with pytest.raises(LabelError):
            ag.cross_entropy(t64([[0.0, 0.0]]), [2])

    @pytest.mark.parametrize("label", [-1, 0.5])
    def test_negative_or_fractional_label(self, label):
        with pytest.raises(LabelError):
            ag.cross_entropy(t64([[0.0, 0.0]]), [label])

    def test_label_count_must_match_rows(self):
        with pytest.raises(ContractError):
            ag.cross_entropy(t64([[0.0, 0.0], [1.0, 0.0]]), [0])
        with pytest.raises(ContractError):
            ag.cross_entropy(t64([[0.0, 0.0]]), [0, 1])

    def test_labels_as_array_or_list_agree(self):
        logits = t64(np.random.default_rng(31).normal(size=(5, 2)))
        a = ag.cross_entropy(logits, [0, 1, 1, 0, 1]).item()
        b = ag.cross_entropy(logits, np.array([0, 1, 1, 0, 1])).item()
        assert a == b

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        logits = t64(rng.normal(size=(8, 2)))
        assert ag.cross_entropy(logits, [0, 1] * 4).item() >= 0.0

    def test_gradcheck(self):
        rng = np.random.default_rng(14)
        logits = t64(rng.normal(size=(4, 2)))
        labels = [0, 1, 1, 0]
        err = grad_check(lambda: ag.cross_entropy(logits, labels), [logits])
        assert err < 1e-6


class TestBackward:
    def test_sum_of_squares(self):
        x = t64([1.0, 2.0, 3.0])
        ag.tsum(ag.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_detached_leaf_no_grad(self):
        x = t64([1.0, 2.0])
        y = Tensor(np.array([3.0, 4.0]), requires_grad=False)
        ag.tsum(ag.mul(x, y)).backward()
        assert y.grad is None or not y.requires_grad

    def test_non_scalar_root(self):
        with pytest.raises(ContractError):
            ag.relu(t64([1.0, 2.0])).backward()

    def test_accumulation_on_reuse(self):
        x = t64([2.0])
        # y = x + x -> dy/dx = 2
        ag.tsum(ag.add(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_parents_handed_one_gradient_do_not_alias(self):
        # add and add_bias hand their incoming gradient to both parents;
        # a later gradient is added to a's in place, which must not reach
        # b's or the bias's
        a, b = t64(np.ones((2, 3))), t64(np.ones((2, 3)))
        bias = t64(np.zeros(3))
        s = ag.add_bias(ag.add(a, b), bias)
        out = ag.add(ag.matmul(s, t64(np.ones((3, 1)), False)),
                     ag.matmul(a, t64(np.full((3, 1), 2.0), False)))
        ag.tsum(out).backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 3.0))
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(bias.grad, np.full(3, 2.0))
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(s.grad, a.grad)
        assert not np.shares_memory(s.grad, b.grad)

    def test_reused_input_sums_its_gradients_and_views_are_copied(self):
        a = t64(np.ones((2, 3)))
        w = t64(np.ones((3, 2)), False)
        ag.tsum(ag.add(ag.matmul(a, w), ag.matmul(a, w))).backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 4.0))
        # the broadcast view of global_avg_pool's backward is copied
        x = t64(np.ones((2, 1, 2, 2)))
        ag.tsum(ag.global_avg_pool(x)).backward()
        assert x.grad.flags.writeable and x.grad.flags.owndata
        np.testing.assert_array_equal(x.grad, np.full((2, 1, 2, 2), 0.25))


class TestGradCheckOracle:
    def test_linear_is_exact(self):
        x = t64(np.random.default_rng(15).normal(size=4))
        w = t64(np.array([1.0, -2.0, 3.0, 0.5]), False)
        err = grad_check(lambda: ag.tsum(ag.mul(x, w)), [x])
        assert err < 1e-9

    def test_relu_away_from_kinks(self):
        x = t64([-1.5, 0.7, 2.2, -0.4])
        err = grad_check(lambda: ag.tsum(ag.relu(x)), [x])
        assert err < 1e-6

    def test_step_size_sweep(self):
        x = t64(np.random.default_rng(16).normal(size=4))

        def f():
            return ag.tsum(ag.mul(ag.mul(x, x), x))

        coarse = grad_check(f, [x], eps=1e-3)
        fine = grad_check(f, [x], eps=1e-5)
        assert fine <= coarse or fine < 1e-9

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tensor_output_gradients_are_the_probe_sum_graph(self, dtype):
        # a tensor output is checked through sum(probe * out), the probe
        # drawn at PROBE_SEED: its analytic gradients are those of the
        # tsum(mul(out, probe)) graph
        rng = np.random.default_rng(18)
        ts = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
              for s in ((3, 4), (4, 5), (3, 5), (5,), (5,))]
        a, b, residual, gamma, beta = ts

        def f():
            return ag.layer_norm(ag.matmul(a, b), residual, gamma, beta)

        grad_check(f, ts)
        got = [t.grad for t in ts]
        probe = np.random.default_rng(ag.PROBE_SEED).normal(size=(3, 5))
        for t in ts:
            t.zero_grad()
        ag.tsum(ag.mul(f(), Tensor(probe.astype(dtype)))).backward()
        for g, t in zip(got, ts):
            assert g.dtype == dtype
            np.testing.assert_array_equal(g, t.grad)

    def test_tensor_output_linear_is_exact(self):
        # both sides project onto the same probe
        x = t64(np.random.default_rng(19).normal(size=(2, 3)))
        w = t64(np.random.default_rng(20).normal(size=(3, 4)), False)
        assert grad_check(lambda: ag.matmul(x, w), [x]) < 1e-9

    @pytest.mark.parametrize("nudge", [1.0, 1.01])
    def test_tensor_twin_shares_the_probe(self, nudge):
        # a float32 tensor output against its float64 twin passes the
        # full-model threshold; a twin 1% off fails it
        rng = np.random.default_rng(21)
        a64, b64 = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        a32 = Tensor(a64.astype(np.float32), requires_grad=True)
        b32 = Tensor(b64.astype(np.float32), requires_grad=True)
        a, b = t64(a32.data), t64(b32.data)

        def twin():
            out = ag.matmul(a, b)
            out.data *= nudge
            return out

        err = grad_check(lambda: ag.matmul(a32, b32), [a32, b32], fd_f=twin,
                         fd_params=[a, b], floor=1e-5)
        assert (err < 1e-3) == (nudge == 1.0), err

    def test_bad_eps(self):
        with pytest.raises(ParameterError):
            grad_check(lambda: ag.tsum(t64([1.0])), [], eps=0.0)

    @pytest.mark.parametrize("case", ["constant", "unused"])
    def test_tensor_without_gradient_is_an_error(self, case):
        # a check that quietly skips a tensor checks less than it claims
        x = t64([1.0, 2.0])
        other = t64([3.0, 4.0], requires_grad=case == "unused")
        f = (lambda: ag.tsum(ag.mul(x, other))) if case == "constant" \
            else (lambda: ag.tsum(ag.mul(x, x)))
        with pytest.raises(ContractError, match="no gradient"):
            grad_check(f, [x, other])


class TestPlumbingOps:
    def test_stack_rows_and_take_row(self):
        rng = np.random.default_rng(17)
        rows = [t64(rng.normal(size=3)) for _ in range(4)]
        m = ag.stack_rows(rows)
        assert m.shape == (4, 3)
        np.testing.assert_array_equal(ag.take_row(m, 2).data, rows[2].data)
        err = grad_check(lambda: ag.tsum(ag.mul(ag.stack_rows(rows),
                                                ag.stack_rows(rows))), rows)
        assert err < 1e-6

    def test_slice_cols_gradcheck(self):
        x = t64(np.random.default_rng(18).normal(size=(3, 6)))
        err = grad_check(lambda: ag.tsum(ag.mul(ag.slice_cols(x, 1, 4),
                                                ag.slice_cols(x, 1, 4))), [x])
        assert err < 1e-6

    def test_transpose_add_bias_gradcheck(self):
        rng = np.random.default_rng(19)
        x = t64(rng.normal(size=(3, 4)))
        b = t64(rng.normal(size=3))
        err = grad_check(
            lambda: ag.tsum(ag.mul(ag.add_bias(ag.transpose(x), b),
                                   ag.add_bias(ag.transpose(x), b))),
            [x, b])
        assert err < 1e-6

    def test_channel_norm_gradcheck(self):
        rng = np.random.default_rng(20)
        x = t64(rng.normal(size=(2, 3, 3, 4)))
        gamma = t64(rng.normal(size=2))
        beta = t64(rng.normal(size=2))
        w = t64(rng.normal(size=(2, 3, 3, 4)), False)
        err = grad_check(
            lambda: ag.tsum(ag.mul(ag.channel_norm(x, gamma, beta), w)),
            [x, gamma, beta])
        assert err < 1e-6

    # ids read <residual>-<ReLU>; channel_norm always ends in its ReLU
    @pytest.mark.parametrize("residual", [False, True],
                             ids=["False-True", "True-True"])
    def test_channel_norm_fused_gradcheck(self, residual):
        rng = np.random.default_rng([22, residual, True])
        x = t64(rng.normal(size=(2, 3, 3, 4)))
        gamma = t64(rng.normal(size=2))
        beta = t64(rng.normal(size=2))
        r = t64(rng.normal(size=(2, 3, 3, 4))) if residual else None
        w = t64(rng.normal(size=(2, 3, 3, 4)), False)
        err = grad_check(
            lambda: ag.tsum(ag.mul(ag.channel_norm(x, gamma, beta, residual=r), w)),
            [x, gamma, beta] + ([r] if residual else []))
        assert err < 1e-6

    def test_channel_norm_fused_equals_norm_add_relu(self):
        rng = np.random.default_rng(23)
        x, r = (t64(rng.normal(size=(3, 2, 4, 5))) for _ in range(2))
        gamma, beta = t64(rng.normal(size=3)), t64(rng.normal(size=3))
        w = t64(rng.normal(size=(3, 2, 4, 5)), False)
        fused = ag.channel_norm(x, gamma, beta, residual=r)
        ag.tsum(ag.mul(fused, w)).backward()
        grads = [t.grad for t in (x, gamma, beta, r)]
        for t in (x, gamma, beta, r):
            t.zero_grad()
        chain = chained_channel_norm(x, gamma, beta, residual=r)
        ag.tsum(ag.mul(chain, w)).backward()
        np.testing.assert_allclose(fused.data, chain.data, rtol=0, atol=1e-12)
        for g, t in zip(grads, (x, gamma, beta, r)):
            np.testing.assert_allclose(g, t.grad, rtol=0, atol=1e-12)

    def test_channel_norm_residual_must_match(self):
        x = t64(np.zeros((2, 1, 3, 3)))
        g, b = t64(np.ones(2)), t64(np.zeros(2))
        with pytest.raises(DimensionError):
            ag.channel_norm(x, g, b, residual=t64(np.zeros((2, 1, 3, 4))))
        with pytest.raises(ContractError):
            ag.channel_norm(x, g, b, residual=Tensor(np.zeros((2, 1, 3, 3),
                                                              dtype=np.float32)))

    def test_channel_norm_normalizes_each_channel_and_sample(self):
        rng = np.random.default_rng(21)
        x = t64(rng.normal(size=(2, 3, 4, 4)) * rng.uniform(1, 5, size=(2, 3, 1, 1)))
        # a normalized map of 16 values lies within sqrt(15) < 3.9 of 0, so
        # these shifts keep every output above 0, where the ReLU passes it
        out = ag.channel_norm(x, t64([2.0, 3.0]), t64([10.0, 15.0])).data
        assert out.min() > 0
        np.testing.assert_allclose(out.mean(axis=(2, 3)),
                                   [[10.0] * 3, [15.0] * 3], atol=1e-12)
        np.testing.assert_allclose(out.std(axis=(2, 3)), [[2.0] * 3, [3.0] * 3],
                                   rtol=1e-4)  # eps = 1e-5 against variances >= ~0.3

    def test_no_grad_skips_graph(self):
        x = t64([1.0, 2.0])
        with ag.no_grad():
            out = ag.relu(x)
        assert out._parents == ()


# ---------------------------------------------------------------------------
# the fused head op against the five-op chain it replaced


def op_chain_head(x, w1, b1, w2, b2):
    """matmul, add_bias, relu, matmul, add_bias: the head as separate graph
    nodes."""
    hidden = ag.relu(ag.add_bias(ag.matmul(x, w1), b1))
    return ag.add_bias(ag.matmul(hidden, w2), b2)


def head_params(rng, dtype, d_in=7, d_hidden=5):
    shapes = [(d_in, d_hidden), (d_hidden,), (d_hidden, 2), (2,)]
    return [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
            for s in shapes]


class TestMlpHead:
    @pytest.mark.parametrize("x_needs_grad", [False, True])
    def test_bit_identical_to_the_op_chain(self, x_needs_grad):
        # at B=1 both take the one-row products padded to four rows
        for bsz, d_in, d_hidden in ((32, 7, 5), (1, 64, 32)):
            rng = np.random.default_rng(32)
            x_data = rng.normal(size=(bsz, d_in)).astype(np.float32)
            params = head_params(rng, np.float32, d_in, d_hidden)
            labels = rng.integers(0, 2, bsz)
            results = []
            for head in (ag.mlp_head, op_chain_head):
                x = Tensor(x_data.copy(), requires_grad=x_needs_grad)
                ps = [Tensor(p.data.copy(), requires_grad=True) for p in params]
                logits = head(x, *ps)
                ag.cross_entropy(logits, labels).backward()
                results.append([logits.data, x.grad] + [p.grad for p in ps])
            new, old = results
            assert new[0].dtype == np.float32
            for a, b in zip(new, old):
                if b is None:
                    assert a is None
                else:
                    np.testing.assert_array_equal(a, b)

    def test_one_graph_node(self):
        rng = np.random.default_rng(33)
        x = Tensor(rng.normal(size=(4, 7)).astype(np.float32))
        logits = ag.mlp_head(x, *head_params(rng, np.float32))
        assert logits._parents[0] is x and len(logits._parents) == 5
        assert all(not p._parents for p in logits._parents)

    @pytest.mark.parametrize("x_needs_grad", [False, True])
    def test_gradcheck(self, x_needs_grad):
        rng = np.random.default_rng(34)
        x = t64(rng.normal(size=(3, 7)), x_needs_grad)
        params = head_params(rng, np.float64)
        w = rng.normal(size=(3, 2))
        err = grad_check(
            lambda: ag.tsum(ag.mul(ag.mlp_head(x, *params), t64(w, False))),
            params + ([x] if x_needs_grad else []))
        assert err < 1e-6

    def test_shape_and_dtype_checks(self):
        rng = np.random.default_rng(35)
        params = head_params(rng, np.float64)
        with pytest.raises(DimensionError):
            ag.mlp_head(t64(np.zeros((3, 6))), *params)
        with pytest.raises(ContractError):
            ag.mlp_head(ag.Tensor(np.zeros((3, 7), dtype=np.float32)), *params)


class TestBeside:
    """Jobs on helper threads: each joined when the block exits, and a
    job's error raised on the caller."""

    @staticmethod
    def job(ran, delay, error=None):
        def run():
            time.sleep(delay)
            ran.append(threading.get_ident())
            if error is not None:
                raise error
        return run

    def test_the_first_failed_jobs_error_after_every_job_ended(self):
        ran, alive = [], threading.active_count()
        # the last job fails first; the caller sees the earlier job's error
        with pytest.raises(KeyError, match="middle"):
            with ag.beside(self.job(ran, 0.05), self.job(ran, 0.03, KeyError("middle")),
                           self.job(ran, 0.0, ValueError("last"))):
                ran.append(threading.get_ident())
        assert len(ran) == 4 and len(set(ran)) == 4
        assert threading.active_count() == alive

    def test_the_blocks_own_error_wins_and_the_jobs_are_joined(self):
        ran, alive = [], threading.active_count()
        with pytest.raises(ZeroDivisionError):
            with ag.beside(self.job(ran, 0.05, KeyError("job"))):
                1 / 0
        assert len(ran) == 1
        assert threading.active_count() == alive

    def test_libc_is_looked_up_once(self, monkeypatch):
        def no_lookup(*args, **kwargs):
            raise AssertionError("libc was looked up again")

        ag._other_cpus()
        monkeypatch.setattr(ag.ctypes, "CDLL", no_lookup)
        assert ag._other_cpus() == ag._other_cpus()
        with ag.beside(lambda: None):
            pass
