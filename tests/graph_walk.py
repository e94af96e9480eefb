"""Graph helpers shared by the encoder, op and oracle tests: the op nodes
of a graph and of one desk-model training step, and a backward sweep from a
chosen upstream gradient."""

from collections import Counter

import numpy as np

from reviewfuse import autograd as ag
from reviewfuse.textproc import CLS_ID, PAD_ID, SEP_ID
from reviewfuse.workflow import desk_model


def step_op_counts(mode: str) -> Counter:
    """Op nodes per op name in the graph of one B=32 training step of the
    desk model; a node's name is the op whose backward closure it holds."""
    model = desk_model(mode, vocab_size=40)
    rng = np.random.default_rng(25)
    crops = reviews = None
    if mode != "text_only":
        crops = rng.integers(0, 256, size=(32, 3, 32, 32), dtype=np.uint8)
    if mode != "image_only":
        reviews = np.full((32, 16), PAD_ID, dtype=np.int32)
        for row, n in zip(reviews, rng.integers(2, 17, 32)):
            row[:n] = [CLS_ID, *rng.integers(4, 40, n - 2), SEP_ID]
    logits = model.forward_batch(reviews, crops, training=True, rng=rng)
    return op_counts(ag.cross_entropy(logits, [0, 1] * 16))


def op_counts(out: ag.Tensor) -> Counter:
    """Op nodes per op name in the graph of ``out``."""
    seen, stack, ops = set(), [out], Counter()
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if t._backward_fn is not None:
                ops[t._backward_fn.__qualname__.split(".")[0]] += 1
            stack.extend(t._parents)
    return ops


def backprop(out: ag.Tensor, g: np.ndarray) -> None:
    """Run ``backward`` through the graph of ``out`` with ``g`` as the
    gradient that reaches ``out``."""
    root = ag._make(np.zeros((), out.data.dtype), (out,),
                    lambda _: ag._accum(out, g))
    root.backward()


def add_then_layer_norm(x: ag.Tensor, residual: ag.Tensor, gamma: ag.Tensor,
                        beta: ag.Tensor) -> ag.Tensor:
    """The residual add and the layer norm as the two graph nodes the text
    block chained before the norm took the residual: test-local copies of
    the ``add`` op and of the ``layer_norm`` op over one input."""
    total = x.data + residual.data

    def add_backward(g):
        ag._accum(x, g)
        ag._accum(residual, g)

    s = ag._make(total, (x, residual), add_backward)
    xc = s.data - s.data.mean(axis=-1, keepdims=True)
    var = np.square(xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv_std

    def norm_backward(g):
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        ag._accum(s, (dxhat - m1 - xhat * m2) * inv_std, fresh=True)
        lead = tuple(range(g.ndim - 1))
        ag._accum(gamma, (g * xhat).sum(axis=lead) if lead else g * xhat,
                  fresh=True)
        ag._accum(beta, g.sum(axis=lead) if lead else g, fresh=bool(lead))

    return ag._make(gamma.data * xhat + beta.data, (s, gamma, beta),
                    norm_backward)


def chained_channel_norm(x: ag.Tensor, gamma: ag.Tensor, beta: ag.Tensor,
                         residual: ag.Tensor | None = None) -> ag.Tensor:
    """``autograd.channel_norm`` as the norm, shortcut add and ReLU nodes
    the residual blocks chained before the norm took the other two."""
    mean = x.data.mean(axis=(2, 3), keepdims=True)
    inv_std = 1.0 / np.sqrt(x.data.var(axis=(2, 3), keepdims=True) + 1e-5)
    xhat = (x.data - mean) * inv_std
    gm = gamma.data[:, None, None, None]

    def backward(g):
        dxhat = g * gm
        m1 = dxhat.mean(axis=(2, 3), keepdims=True)
        m2 = (dxhat * xhat).mean(axis=(2, 3), keepdims=True)
        ag._accum(x, (dxhat - m1 - xhat * m2) * inv_std)
        ag._accum(gamma, (g * xhat).sum(axis=(1, 2, 3)))
        ag._accum(beta, g.sum(axis=(1, 2, 3)))

    out = ag._make(gm * xhat + beta.data[:, None, None, None], (x, gamma, beta),
                   backward)
    if residual is not None:
        out = ag.add(out, residual)
    return ag.relu(out)
