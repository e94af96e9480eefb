"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array plus an optional gradient buffer. Every
differentiable operation records its inputs and a backward closure on the
output tensor; ``Tensor.backward()`` topologically sorts the recorded graph
and replays it in reverse, accumulating gradients additively so that reused
tensors (e.g. shared embedding tables) receive the sum of all contributions.
Tensors with ``requires_grad=False`` (constant inputs such as a batch of
cached features or pixels) get no gradient, and backward computes none for
them.

Only float32 and float64 are supported. There is no broadcasting except for
multiplication by a python scalar (``scale``) and the explicit row-bias add
(``add_bias``); shape mismatches raise ``DimensionError`` immediately.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import threading
from contextlib import contextmanager, suppress
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    LabelError,
    ParameterError,
    TokenIndexError,
)

_grad_enabled = True


def grad_enabled() -> bool:
    """Whether ops record the graph (False inside ``no_grad``)."""
    return _grad_enabled


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation / inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar root; fills ``grad`` on leaves."""
        if self.data.size != 1:
            raise ContractError(
                f"backward root must be scalar, got shape {self.data.shape}"
            )
        # op nodes in post-order; leaves have nothing to replay, so the sort
        # skips them (their relative order among op nodes is unchanged)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p._backward_fn is not None and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones(self.data.shape, dtype=self.data.dtype)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def init_params(layout, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, Tensor]:
    """Trainable tensors for the ``(name, shape, init)`` triples of
    ``layout``, drawn from ``rng`` in layout order.

    ``init`` is "zeros", "ones", "embed" (normal(0, 0.02)), "xavier"
    (uniform in +-sqrt(6 / (fan_in + fan_out)) over a fan_in x fan_out
    matrix) or "he" (normal(0, sqrt(2 / fan_in)) over a kernel whose
    fan-in is the product of all extents but the first).
    """
    params = {}
    for name, shape, init in layout:
        if init == "xavier":
            bound = math.sqrt(6.0 / (shape[0] + shape[1]))
            arr = rng.uniform(-bound, bound, size=shape)
        elif init == "he":
            arr = rng.normal(0.0, math.sqrt(2.0 / math.prod(shape[1:])),
                             size=shape)
        elif init == "embed":
            arr = rng.normal(0.0, 0.02, size=shape)
        else:
            arr = (np.ones if init == "ones" else np.zeros)(shape)
        params[name] = Tensor(arr, requires_grad=True, dtype=dtype)
    return params


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` to ``t.grad``.

    ``fresh`` says that the op has just allocated ``g`` and keeps no other
    reference to it, so a first gradient is adopted as it is; any other
    first gradient (the incoming ``g`` itself, a slice or a broadcast view
    of it) is copied. Later gradients are added in place.
    """
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise ContractError(
            f"gradient shape {g.shape} does not match tensor shape {t.data.shape}"
        )
    if t.grad is None:
        t.grad = g if fresh and g.dtype == t.data.dtype else \
            g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


def _make(out_data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _check_same_dtype(*ts: Tensor) -> None:
    dt = ts[0].data.dtype
    for t in ts[1:]:
        if t.data.dtype != dt:
            raise ContractError(f"dtype mismatch: {dt} vs {t.data.dtype}")


# ---------------------------------------------------------------------------
# core ops


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-D ``a``, each row the bits it has in any taller
    product. OpenBLAS runs a one-row product as gemv and blocks the rows of
    a gemm by 4, so a row's sums can depend on the row count; a left
    operand whose row count is not a multiple of 4 runs padded with zero
    rows up to the next multiple, which are dropped."""
    m = a.shape[0]
    if m % 4:
        padded = np.zeros((m + (-m) % 4, a.shape[1]), dtype=a.dtype)
        padded[:m] = a
        return (padded @ b)[:m]
    return a @ b


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, as
    ctypes functions; None where they are not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                        "libscipy_openblas64_-*.so")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)  # the copy numpy has loaded
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread, for Python
    threads that each run their own products, then restore the count
    found on entry; two callers on different threads at once can undo
    each other's pin. Yields whether it could pin: False, changing
    nothing, where ``_openblas_threads`` finds no setter."""
    found = _openblas_threads()
    if found is None:
        yield False
        return
    get, set_ = found
    prev = get()
    set_(1)
    try:
        yield True
    finally:
        set_(prev)


@functools.cache
def _sched_getcpu():
    """libc's ``sched_getcpu`` as a ctypes function; None where it has none."""
    getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", None)
    if getcpu is not None:
        getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    return getcpu


def _other_cpus() -> set[int]:
    """The CPUs this process may run on other than the calling thread's
    current one (libc's ``sched_getcpu``); empty where ``os`` has no
    ``sched_getaffinity`` (macOS, for one) or libc no ``sched_getcpu``, or
    where it cannot be told."""
    getcpu = hasattr(os, "sched_getaffinity") and _sched_getcpu()
    if not getcpu:
        return set()
    here, allowed = getcpu(), os.sched_getaffinity(0)
    return allowed - {here} if here in allowed else set()


@contextmanager
def beside(*jobs: Callable[[], object]):
    """Run each job on a thread of its own while the block runs on the
    caller. The threads run on the CPUs other than the caller's, where
    there are any: a new thread starts on its creator's CPU, and where the
    kernel does not balance load between CPUs (a cpuset with
    ``sched_load_balance`` 0) it stays there, taking turns with the
    caller. Leaving the block joins every thread, also on an error; then,
    unless the block raised, the first failed job's exception is raised
    here."""
    cpus, errors = _other_cpus(), [None] * len(jobs)

    def run(i: int) -> None:
        if cpus:
            with suppress(OSError):  # this thread only; unplaced where it fails
                os.sched_setaffinity(0, cpus)
        try:
            jobs[i]()
        except BaseException as e:  # raised again on the caller
            errors[i] = e

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    try:
        for t in threads:
            t.start()
        yield
    finally:
        for t in threads:
            if t.is_alive():  # not every thread started if one could not
                t.join()
    for e in errors:
        if e is not None:
            raise e


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}"
        )
    out_data = _gemm(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g @ b.data.T, fresh=True)
        if b.requires_grad:
            _accum(b, a.data.T @ g, fresh=True)

    return _make(out_data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add shapes differ: {a.data.shape} vs {b.data.shape}")
    out_data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        _accum(a, g)
        _accum(b, g)

    return _make(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul shapes differ: {a.data.shape} vs {b.data.shape}")
    out_data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        _accum(a, g * b.data, fresh=True)
        _accum(b, g * a.data, fresh=True)

    return _make(out_data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = a.data * a.data.dtype.type(c)

    def backward(g: np.ndarray) -> None:
        _accum(a, g * a.data.dtype.type(c), fresh=True)

    return _make(out_data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def backward(g: np.ndarray) -> None:
        _accum(a, g * (a.data > 0), fresh=True)

    return _make(out_data, (a,), backward)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a rank-1 bias to the last axis of ``x`` (explicit row broadcast)."""
    _check_same_dtype(x, b)
    if b.data.ndim != 1 or x.data.shape[-1] != b.data.shape[0]:
        raise DimensionError(
            f"add_bias: bias shape {b.data.shape} vs input {x.data.shape}"
        )
    out_data = x.data + b.data

    def backward(g: np.ndarray) -> None:
        _accum(x, g)
        axes = tuple(range(g.ndim - 1))
        _accum(b, g.sum(axis=axes) if axes else g, fresh=bool(axes))

    return _make(out_data, (x, b), backward)


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis, with max-subtraction for stability."""
    if x.data.shape[-1] < 1:
        raise DimensionError("softmax needs a non-empty last axis")
    out_data = softmax_rows(x.data)

    def backward(g: np.ndarray) -> None:
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(x, (g - dot) * out_data, fresh=True)

    return _make(out_data, (x,), backward)


def _softmax_terms(z: np.ndarray):
    """Row maxima, ``exp(z - max)`` and its row sums along the last axis."""
    m = np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z - m)
    return m, e, np.add.reduce(e, axis=-1, keepdims=True)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax of an array along its last axis (the arithmetic of
    ``softmax`` and of ``attention``'s and ``cross_entropy``'s
    probabilities)."""
    _, e, total = _softmax_terms(z)
    return e / total


MASK_NEG = -1e9


def attention(q: Tensor, k: Tensor, v: Tensor, mask, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over a batch of sequences.

    ``k`` and ``v`` are (B*L, d) with the L positions of each sequence in
    consecutive rows; ``mask`` is (B, L), 1 for real tokens and 0 for
    padding. ``q`` is (B*Lq, d): the Lq query rows of each sequence, in
    the same sequence order, for any whole Lq (L when every position
    attends; 1 when only [CLS]'s output is kept). Heads are an axis of a
    (B, h, ·, d/h) view; padded keys get an additive -1e9 bias before the
    softmax. Returns the (B*Lq, d) context, heads side by side in their
    column blocks.
    """
    _check_same_dtype(q, k, v)
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise DimensionError(f"attention mask must be (B, L), got {mask.shape}")
    bsz, seq_len = mask.shape
    if (q.data.ndim != 2 or not bsz or not q.data.shape[0]
            or q.data.shape[0] % bsz
            or k.data.shape != (bsz * seq_len, q.data.shape[1])
            or v.data.shape != k.data.shape):
        raise DimensionError(
            f"attention: q/k/v {q.data.shape}/{k.data.shape}/{v.data.shape} "
            f"do not match mask {mask.shape}")
    d = q.data.shape[1]
    if n_heads < 1 or d % n_heads:
        raise DimensionError(f"attention: width {d} not divisible into {n_heads} heads")
    dh = d // n_heads
    dt = q.data.dtype

    def heads(a: np.ndarray) -> np.ndarray:  # (B*L', d) -> (B, h, L', dh)
        return a.reshape(bsz, -1, n_heads, dh).transpose(0, 2, 1, 3)

    def rows(a: np.ndarray) -> np.ndarray:  # (B, h, L', dh) -> (B*L', d)
        return a.transpose(0, 2, 1, 3).reshape(-1, d)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    c = dt.type(1.0 / np.sqrt(dh))
    bias = ((1.0 - mask) * MASK_NEG).astype(dt)[:, None, None, :]
    probs = softmax_rows((qh @ kh.transpose(0, 1, 3, 2)) * c + bias)
    out_data = rows(probs @ vh)

    def backward(g: np.ndarray) -> None:
        gh = heads(g)
        dprobs = gh @ vh.transpose(0, 1, 3, 2)
        dscores = (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True)) * probs * c
        for t, gt in ((q, dscores @ kh),
                      (k, dscores.transpose(0, 1, 3, 2) @ qh),
                      (v, probs.transpose(0, 1, 3, 2) @ gh)):
            _accum(t, rows(gt), fresh=True)

    return _make(out_data, (q, k, v), backward)


NORM_EPS = 1e-5  # the variance floor of layer_norm and channel_norm


def layer_norm(x: Tensor, residual: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize ``x + residual`` over the last axis, then affine: a post-LN
    residual add and norm in one node, bit-identical to ``add(x, residual)``
    then the norm (backward hands the sum's gradient to x, then residual)."""
    _check_same_dtype(x, residual, gamma, beta)
    d = x.data.shape[-1]
    if (residual.data.shape != x.data.shape or gamma.data.shape != (d,)
            or beta.data.shape != (d,)):
        raise DimensionError(
            f"layer_norm: input {x.data.shape}, residual {residual.data.shape}, "
            f"gamma/beta {gamma.data.shape}/{beta.data.shape}")
    s = x.data + residual.data
    # centred once: the variance is ndarray.var's own sum of squares of
    # the centred values over d, so the bits are s.var()'s
    xc = s - s.mean(axis=-1, keepdims=True)
    var = np.square(xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = xc * inv_std
    out_data = gamma.data * xhat + beta.data

    def backward(g: np.ndarray) -> None:
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        ds = (dxhat - m1 - xhat * m2) * inv_std
        _accum(x, ds)
        _accum(residual, ds, fresh=True)
        lead = tuple(range(g.ndim - 1))
        _accum(gamma, (g * xhat).sum(axis=lead) if lead else g * xhat,
               fresh=True)
        _accum(beta, g.sum(axis=lead) if lead else g, fresh=bool(lead))

    return _make(out_data, (x, residual, gamma, beta), backward)


def dropout(x: Tensor, p: float, uniforms: np.ndarray | None = None) -> Tensor:
    """Inverted dropout: an element is zeroed where its U[0, 1) draw in
    ``uniforms`` (of ``x``'s shape) is below ``p``, else scaled by
    1/(1-p); ``x`` itself when given no draws or when p = 0."""
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout p must be in [0, 1), got {p}")
    if uniforms is None or p == 0.0:
        return x
    if uniforms.shape != x.data.shape:
        raise DimensionError(
            f"dropout: uniforms {uniforms.shape} vs input {x.data.shape}")
    dt = x.data.dtype
    mask = (uniforms >= p).astype(dt) * dt.type(1.0 / (1.0 - p))
    out_data = x.data * mask

    def backward(g: np.ndarray) -> None:
        _accum(x, g * mask, fresh=True)

    return _make(out_data, (x,), backward)


def mlp_head(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``relu(x @ w1 + b1) @ w2 + b2`` as one graph node.

    Forward and backward are ``mlp_head_forward`` and ``mlp_head_grads``,
    which do the arithmetic of the matmul, add_bias, relu, matmul,
    add_bias chain in its order, one-row products included (``_gemm``),
    so outputs and gradients are bit-identical to it.
    """
    _check_same_dtype(x, w1, b1, w2, b2)
    xs, s1, s2 = x.data.shape, w1.data.shape, w2.data.shape
    if (len(xs) != 2 or len(s1) != 2 or len(s2) != 2 or xs[1] != s1[0]
            or b1.data.shape != (s1[1],) or s2[0] != s1[1]
            or b2.data.shape != (s2[1],)):
        raise DimensionError(
            f"mlp_head: input {xs}, layers {s1} + {b1.data.shape}, "
            f"{s2} + {b2.data.shape}")
    pre, hidden, out_data = mlp_head_forward(x.data, w1.data, b1.data, w2.data,
                                             b2.data)

    def backward(g: np.ndarray) -> None:
        grads = [np.empty_like(t.data) for t in (w1, b1, w2, b2)]
        dh = mlp_head_grads(g, x.data, pre, hidden, w1.data, w2.data, grads)
        for t, gt in zip((w1, b1, w2, b2), grads):
            _accum(t, gt, fresh=True)
        if x.requires_grad:
            _accum(x, dh @ w1.data.T, fresh=True)

    return _make(out_data, (x, w1, b1, w2, b2), backward)


def mlp_head_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray,
                     w2: np.ndarray, b2: np.ndarray):
    """The arrays of ``mlp_head``'s forward pass, unchecked and unrecorded:
    the pre-activation ``x @ w1 + b1``, the hidden layer after ReLU, and
    the logits ``hidden @ w2 + b2``."""
    pre = _gemm(x, w1) + b1
    hidden = np.maximum(pre, 0)
    return pre, hidden, _gemm(hidden, w2) + b2


def mlp_head_grads(g: np.ndarray, x: np.ndarray, pre: np.ndarray,
                   hidden: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                   out) -> np.ndarray:
    """Gradients of the head's parameters from the logits' gradient ``g``.

    Writes the gradients of w1, b1, w2 and b2 into the four arrays of
    ``out``, in that order, and returns the hidden layer's gradient
    (pre-activation, after ReLU), from which the input's gradient is
    ``dh @ w1.T``.
    """
    g_w1, g_b1, g_w2, g_b2 = out
    np.add.reduce(g, axis=0, out=g_b2)
    np.matmul(hidden.T, g, out=g_w2)
    dh = g @ w2.T
    dh *= (pre > 0)
    np.add.reduce(dh, axis=0, out=g_b1)
    np.matmul(x.T, dh, out=g_w1)
    return dh


# scratch of one conv2d tile's stacked taps: a quarter of a 2 MiB L2, so
# the stacked matrix stays in cache while the GEMM reads it
CONV_TILE_BYTES = 512 * 1024


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) of channel-major feature maps.

    ``x`` is C_in x B x H x W, ``w`` is C_out x C_in x k x k, zero padding;
    the output is C_out x B x H' x W' with H' = floor((H + 2 pad - k) /
    stride) + 1.

    Tiled, tap-stacked GEMM (a low-memory GEMM convolution in the sense of
    Anderson et al. 2017, arXiv:1709.03395): the batch is cut into tiles of
    whole images whose stacked taps fit ``CONV_TILE_BYTES`` (one image per
    tile where one image needs more). Each tile's images are zero-padded
    into a scratch buffer, one strided view reads all k x k taps of every
    output cell, and one copy stacks them into a (C_in k k, cells) matrix.
    One GEMM with the kernel as its
    (C_out, C_in k k) reshape writes the tile's H' x W' cells straight into
    the output. Backward restacks each tile for ``dW += g_tile @ stacked.T``
    and scatter-adds ``w.T @ g_tile`` tap by tap into the padded tile.
    """
    _check_same_dtype(x, w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError(
            f"conv2d: input rank {x.data.ndim}, kernel rank {w.data.ndim}"
        )
    if stride < 1:
        raise ParameterError(f"conv2d stride must be >= 1, got {stride}")
    cin, bsz, h, wdt = x.data.shape
    cout, cin_w, k, k2 = w.data.shape
    if cin != cin_w or k != k2:
        raise DimensionError(
            f"conv2d: kernel {w.data.shape} incompatible with input {x.data.shape}"
        )
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (wdt + 2 * pad - k) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise DimensionError(
            f"conv2d: non-positive output extent for input {x.data.shape}, "
            f"kernel {k}, stride {stride}, pad {pad}"
        )
    s, dt = stride, x.data.dtype
    hp, wp, hw, kk = h + 2 * pad, wdt + 2 * pad, h_out * w_out, cin * k * k
    tile = max(1, min(bsz, CONV_TILE_BYTES // (kk * hw * dt.itemsize)))
    w2 = w.data.reshape(cout, kk)

    def stacker():
        """Scratch buffers and a function that stacks the taps of the nb
        images from b0 into the first nb * H' * W' columns of (kk, cells)."""
        xp = np.zeros((cin, tile, hp, wp), dtype=dt)
        stacked = np.empty((cin, k, k, tile, h_out, w_out), dtype=dt)
        e = dt.itemsize
        strides = (tile * hp * wp * e, wp * e, e, hp * wp * e, s * wp * e, s * e)

        def stack(b0: int, nb: int) -> np.ndarray:
            xp[:, :nb, pad:pad + h, pad:pad + wdt] = x.data[:, b0:b0 + nb]
            stacked[:, :, :, :nb] = np.ndarray(
                (cin, k, k, nb, h_out, w_out), dt, xp, strides=strides)
            return stacked.reshape(kk, tile * hw)[:, :nb * hw]

        return stack

    out_data = np.empty((cout, bsz, h_out, w_out), dtype=dt)
    out2 = out_data.reshape(cout, bsz * hw)
    stack = stacker()
    for b0 in range(0, bsz, tile):
        nb = min(tile, bsz - b0)
        np.matmul(w2, stack(b0, nb), out=out2[:, b0 * hw:(b0 + nb) * hw])

    def backward(g: np.ndarray) -> None:
        g2 = np.ascontiguousarray(g).reshape(cout, bsz * hw)
        stack = stacker()
        dw2 = np.zeros((cout, kk), dtype=dt)
        if x.requires_grad:  # not the stem's pixels
            dx = np.empty_like(x.data)
            dxp = np.empty((cin, tile, hp, wp), dtype=dt)
            dst = np.empty((cin, k, k, tile, h_out, w_out), dtype=dt)
            dst2 = dst.reshape(kk, tile * hw)
        for b0 in range(0, bsz, tile):
            nb = min(tile, bsz - b0)
            gt = g2[:, b0 * hw:(b0 + nb) * hw]
            dw2 += gt @ stack(b0, nb).T
            if not x.requires_grad:
                continue
            np.matmul(w2.T, gt, out=dst2[:, :nb * hw])
            dxp[:, :nb] = 0
            for i in range(k):
                for j in range(k):
                    dxp[:, :nb, i:i + s * h_out:s, j:j + s * w_out:s] += dst[:, i, j, :nb]
            dx[:, b0:b0 + nb] = dxp[:, :nb, pad:pad + h, pad:pad + wdt]
        _accum(w, dw2.reshape(w.data.shape), fresh=True)
        if x.requires_grad:
            _accum(x, dx, fresh=True)

    return _make(out_data, (x, w), backward)


def channel_norm(x: Tensor, gamma: Tensor, beta: Tensor,
                 residual: Tensor | None = None) -> Tensor:
    """``relu(gamma * xhat + beta [+ residual])`` for channel-major maps.

    ``x`` is C x B x H x W; gamma/beta are rank-1 of length C. Each
    (channel, sample) map is normalized on its own to ``xhat``: a
    deterministic replacement for batch norm inside residual blocks. The
    optional ``residual`` (same shape as ``x``) is added after the affine
    map, and the ReLU clamps the sum at zero, so the CNN's stem and each
    norm of a residual block are one node.
    """
    parents = (x, gamma, beta) + ((residual,) if residual is not None else ())
    _check_same_dtype(*parents)
    if x.data.ndim != 4:
        raise DimensionError(f"channel_norm expects C x B x H x W, got {x.data.shape}")
    shape = x.data.shape
    c, b, n = shape[0], shape[1], shape[2] * shape[3]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError(
            f"channel_norm: gamma/beta must be shape ({c},)"
        )
    if residual is not None and residual.data.shape != x.data.shape:
        raise DimensionError(
            f"channel_norm: residual {residual.data.shape} vs input {x.data.shape}")
    # each map as one row of n values: moments in one reduce and one einsum
    # over the centred copy, which then becomes the output in place
    xf = x.data.reshape(c, b, n)
    mean = np.add.reduce(xf, axis=2)
    mean /= n
    out = np.subtract(xf, mean[:, :, None])
    var = np.einsum("cbn,cbn->cb", out, out)
    var /= n
    var += NORM_EPS
    inv_std = 1.0 / np.sqrt(var)
    a = gamma.data[:, None] * inv_std  # d out / d x per map, before the ReLU
    out *= a[:, :, None]
    out += beta.data[:, None, None]
    if residual is not None:
        out += residual.data.reshape(c, b, n)
    np.maximum(out, 0, out=out)

    def backward(g: np.ndarray) -> None:
        g = g.reshape(c, b, n) * (out > 0)
        if residual is not None:
            _accum(residual, g.reshape(shape))
        xhat = np.subtract(xf, mean[:, :, None])
        xhat *= inv_std[:, :, None]
        sum_g = np.add.reduce(g, axis=2)
        sum_gx = np.einsum("cbn,cbn->cb", g, xhat)
        _accum(gamma, sum_gx.sum(axis=1), fresh=True)
        _accum(beta, sum_g.sum(axis=1), fresh=True)
        if not x.requires_grad:
            return
        # dx = a (g - mean(g) - xhat mean(g xhat)), map by map
        xhat *= (-a * sum_gx / n)[:, :, None]
        xhat += g * a[:, :, None]
        xhat -= (a * sum_g / n)[:, :, None]
        _accum(x, xhat.reshape(shape), fresh=True)

    return _make(out.reshape(shape), parents, backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Channel-major C x B x H x W -> B x C spatial means."""
    if x.data.ndim != 4:
        raise DimensionError(f"global_avg_pool expects C x B x H x W, got {x.data.shape}")
    out_data = np.ascontiguousarray(x.data.mean(axis=(2, 3)).T)
    h, wdt = x.data.shape[2:]

    def backward(g: np.ndarray) -> None:
        _accum(x, np.broadcast_to((g.T / (h * wdt))[:, :, None, None], x.data.shape))

    return _make(out_data, (x,), backward)


def _row_ids(ids, n: int) -> np.ndarray:
    """``ids`` flattened to int64 row indices, each checked to be in [0, n)."""
    idx = np.asarray(ids).reshape(-1)  # ints beyond int64 stay object dtype
    bad = ~((idx >= 0) & (idx < n))
    if bad.any():
        raise TokenIndexError(
            f"token id {idx[np.argmax(bad)]} out of range [0, {n})")
    return idx.astype(np.int64)


def _scatter_rows(like: np.ndarray, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Zeros like ``like`` with row ``g[i]`` added to row ``idx[i]``, for each
    i in order (repeated ids accumulate).

    One 1-D ``np.add.at`` over the flat view: the same additions in the same
    order as the 2-D call, so the same bits, without its per-row overhead.
    """
    out = np.zeros_like(like)
    d = math.prod(like.shape[1:])
    flat_idx = (idx[:, None] * d + np.arange(d)).reshape(-1)
    np.add.at(out.reshape(-1), flat_idx, g.reshape(-1))
    return out


def embedding_lookup(table: Tensor, ids: Sequence[int] | np.ndarray) -> Tensor:
    """Gather rows of ``table``; backward scatter-adds (repeated ids accumulate).

    Also serves as the row gather of batched activations (``[CLS]`` pooling).
    """
    idx = _row_ids(ids, table.data.shape[0])
    out_data = table.data[idx]

    def backward(g: np.ndarray) -> None:
        _accum(table, _scatter_rows(table.data, idx, g), fresh=True)

    return _make(out_data, (table,), backward)


def embed_tokens(tok_emb: Tensor, pos_emb: Tensor, ids) -> Tensor:
    """Token plus position embeddings of a (B, L) batch of ids as one node.

    Row ``b*L + t`` of the (B*L, d) output is ``tok_emb[ids[b, t]] +
    pos_emb[t]``: the bits of ``add`` over two ``embedding_lookup``s, the
    second at positions ``tile(arange(L), B)``. Backward scatters the token
    rows as ``embedding_lookup`` does and sums the position rows over the
    batch in batch order from +0.0, the sums ``np.add.at`` makes.
    """
    _check_same_dtype(tok_emb, pos_emb)
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise DimensionError(f"embed_tokens: ids must be (B, L), got {ids.shape}")
    bsz, seq_len = ids.shape
    d = tok_emb.data.shape[-1]
    if (tok_emb.data.ndim != 2 or pos_emb.data.ndim != 2
            or pos_emb.data.shape[1] != d or seq_len > pos_emb.data.shape[0]):
        raise DimensionError(
            f"embed_tokens: tables {tok_emb.data.shape} and {pos_emb.data.shape} "
            f"for ids {ids.shape}")
    idx = _row_ids(ids, tok_emb.data.shape[0])
    out_data = tok_emb.data[idx]
    rows = out_data.reshape(bsz, seq_len, d)
    rows += pos_emb.data[:seq_len]

    def backward(g: np.ndarray) -> None:
        if tok_emb.requires_grad:
            _accum(tok_emb, _scatter_rows(tok_emb.data, idx, g), fresh=True)
        if pos_emb.requires_grad:
            dpos = np.zeros_like(pos_emb.data)
            np.add.reduce(g.reshape(bsz, seq_len, d), axis=0,
                          out=dpos[:seq_len], initial=0.0)
            _accum(pos_emb, dpos, fresh=True)

    return _make(out_data, (tok_emb, pos_emb), backward)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two rank-1 tensors; backward splits the gradient."""
    _check_same_dtype(a, b)
    if a.data.ndim != 1 or b.data.ndim != 1:
        raise DimensionError(
            f"concat expects rank-1 inputs, got {a.data.shape} and {b.data.shape}"
        )
    m = a.data.shape[0]
    out_data = np.concatenate([a.data, b.data])

    def backward(g: np.ndarray) -> None:
        _accum(a, g[:m])
        _accum(b, g[m:])

    return _make(out_data, (a, b), backward)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two 2-D tensors along the feature (last) axis."""
    _check_same_dtype(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise DimensionError(
            f"concat_cols: incompatible shapes {a.data.shape} and {b.data.shape}"
        )
    m = a.data.shape[1]
    out_data = np.concatenate([a.data, b.data], axis=1)

    def backward(g: np.ndarray) -> None:
        _accum(a, g[:, :m])
        _accum(b, g[:, m:])

    return _make(out_data, (a, b), backward)


def stack_rows(ts: Sequence[Tensor]) -> Tensor:
    """Stack rank-1 tensors into a 2-D tensor, one per row."""
    ts = list(ts)
    if not ts or any(t.data.ndim != 1 for t in ts):
        raise DimensionError("stack_rows expects a non-empty list of rank-1 tensors")
    _check_same_dtype(*ts)
    out_data = np.stack([t.data for t in ts])

    def backward(g: np.ndarray) -> None:
        for i, t in enumerate(ts):
            _accum(t, g[i])

    return _make(out_data, tuple(ts), backward)


def take_row(x: Tensor, i: int) -> Tensor:
    """Extract row ``i`` of a 2-D tensor as a rank-1 tensor."""
    if x.data.ndim != 2:
        raise DimensionError(f"take_row expects rank-2, got {x.data.shape}")
    out_data = x.data[i].copy()

    def backward(g: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        dx[i] = g
        _accum(x, dx)

    return _make(out_data, (x,), backward)


def slice_cols(x: Tensor, lo: int, hi: int) -> Tensor:
    """Column slice [lo, hi) of a 2-D tensor."""
    if x.data.ndim != 2:
        raise DimensionError(f"slice_cols expects rank-2, got {x.data.shape}")
    out_data = x.data[:, lo:hi].copy()

    def backward(g: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        dx[:, lo:hi] = g
        _accum(x, dx)

    return _make(out_data, (x,), backward)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError(f"transpose expects rank-2, got {x.data.shape}")
    out_data = x.data.T.copy()

    def backward(g: np.ndarray) -> None:
        _accum(x, g.T)

    return _make(out_data, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = x.data.reshape(shape).copy()

    def backward(g: np.ndarray) -> None:
        _accum(x, g.reshape(x.data.shape))

    return _make(out_data, (x,), backward)


def add_const(x: Tensor, c: np.ndarray) -> Tensor:
    """Add a constant (non-differentiable) array of identical shape."""
    if c.shape != x.data.shape:
        raise DimensionError(f"add_const shapes differ: {x.data.shape} vs {c.shape}")
    out_data = x.data + c.astype(x.data.dtype)

    def backward(g: np.ndarray) -> None:
        _accum(x, g)

    return _make(out_data, (x,), backward)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out_data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def backward(g: np.ndarray) -> None:
        _accum(x, np.full_like(x.data, g), fresh=True)

    return _make(out_data, (x,), backward)


def cross_entropy(logits: Tensor, labels: Sequence[int] | np.ndarray) -> Tensor:
    """Mean negative log-likelihood of ``labels`` under softmax(logits).

    ``logits`` is B x 2; computed through log-sum-exp so saturated logits
    stay finite. Backward is (softmax - one_hot) / B, from the softmax the
    forward pass computed.
    """
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy expects B x C logits, got {logits.data.shape}")
    bsz, ncls = logits.data.shape
    y = np.asarray(labels)
    if y.ndim != 1 or len(y) != bsz:
        raise ContractError(f"{bsz} logit rows but labels of shape {y.shape}")
    valid = (y == 0) | (y == 1) if ncls > 1 else y == 0
    if not valid.all():
        raise LabelError(f"label {y[np.argmin(valid)]} outside {{0, 1}}")
    idx = y.astype(np.int64)
    z = logits.data
    m, e, total = _softmax_terms(z)
    lse = m[:, 0] + np.log(total[:, 0])
    # sum / B is bitwise ndarray.mean: mean divides the same sum in float64
    # and rounds to float32, which for a single division gives the correctly
    # rounded float32 quotient
    out_data = np.asarray((lse - z[np.arange(bsz), idx]).sum() / bsz,
                          dtype=z.dtype)
    probs = e / total

    def backward(g: np.ndarray) -> None:
        _accum(logits, xent_grad(probs.copy(), idx, g / bsz), fresh=True)

    return _make(out_data, (logits,), backward)


def xent_grad(probs: np.ndarray, labels: np.ndarray, scale) -> np.ndarray:
    """``(probs - one_hot(labels)) * scale``, in place in ``probs``.

    With the softmax of B x C logits and ``scale`` = 1/B this is the
    gradient of the mean cross-entropy with respect to the logits.
    ``labels`` are B integer classes, not checked here.
    """
    probs -= labels[:, None] == np.arange(probs.shape[1])
    probs *= scale
    return probs


# ---------------------------------------------------------------------------
# finite-difference oracle


PROBE_SEED = 0  # of the normal(0, 1) probe a tensor output is checked through


def _project(out: Tensor, probe: np.ndarray | None) -> Tensor:
    """``sum(probe * out)`` as a scalar node; ``out`` itself for no probe."""
    if probe is None:
        return out
    w = probe.astype(out.data.dtype, copy=False)
    return _make(np.asarray((out.data * w).sum(), dtype=out.data.dtype), (out,),
                 lambda g: _accum(out, g * w, fresh=True))


def grad_check(f: Callable[[], Tensor], params: Iterable[Tensor],
               eps: float = 1e-5,
               fd_f: Callable[[], Tensor] | None = None,
               fd_params: Iterable[Tensor] | None = None,
               floor: float = 1e-8) -> float:
    """Compare autodiff gradients of ``f`` against central differences.

    ``f`` must rebuild its graph on every call from the tensors in ``params``.
    A tensor output is checked through ``sum(probe * f())``, one probe of
    its shape drawn at ``PROBE_SEED``. Optionally a higher-precision twin
    (``fd_f`` over ``fd_params``, same mathematical function, typically
    float64) supplies the finite-difference side. Returns the max relative
    error with denominator max(|analytic|, |numeric|, floor); raise
    ``floor`` when checking float32 graphs, where near-zero gradients carry
    ~1e-10 rounding residue. The analytic gradients are left in ``grad``. A
    tensor in ``params`` that ends with no gradient (it does not require
    one, or does not reach the output) is a ``ContractError``, not a
    check silently skipped.
    """
    if eps <= 0:
        raise ParameterError(f"grad_check eps must be > 0, got {eps}")
    params = list(params)
    out = f().data
    probe = None if out.size == 1 else \
        np.random.default_rng(PROBE_SEED).normal(size=out.shape).astype(out.dtype)
    for p in params:
        p.zero_grad()
    _project(f(), probe).backward()
    for i, p in enumerate(params):
        if p.grad is None:
            raise ContractError(
                f"grad_check: tensor {i} of shape {p.data.shape} got no gradient")

    num_f = fd_f if fd_f is not None else f
    num_params = list(fd_params) if fd_params is not None else params

    worst = 0.0
    for p, pp in zip(params, num_params):
        flat = pp.data.reshape(-1)
        a_flat = p.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(_project(num_f(), probe).data)
            flat[i] = orig - eps
            f_minus = float(_project(num_f(), probe).data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(float(a_flat[i])), abs(numeric), floor)
            err = abs(float(a_flat[i]) - numeric) / denom
            worst = max(worst, err)
    return worst
