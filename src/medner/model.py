"""From-scratch transformer encoder for per-token classification.

This module owns the parameter vector and the whole gradient. Parameters
are one flat vector from init_params to the checkpoint payload, and its
layout (names, shapes, order, offsets) only ParamLayout knows; a
name -> array map of them is always ParamLayout.views of a vector. The
vector holds learned tensors only: forward adds the fixed sinusoidal
positions.
Pre-norm residual blocks: x + MHA(LN(x)) then x + FF(LN(x)), with a
linear classifier head on the final hidden states (no final norm).

forward is a chain of sublayers (affine, layer_norm, attention,
feed_forward) whose records it keeps in a ForwardTrace. Each has its
backward next to it, which writes its parameters' gradients (every
element, through out=) and returns its input's; backward, next to
forward, runs them in reverse, so the trace and its replay are decided
here together.

Activations are packed: forward takes a padded B x T batch, but every
position-wise layer (embedding, layer norms, projections, GELU, dropout,
head) works on one N x width matrix of the batch's N real tokens, row i
being flat position rows[i] with rows = np.flatnonzero(mask). Attention
alone scatters q, k and v into the padded B x H x T x d_k layout, where
a -inf mask on the keys hides the padding, and gathers its context back
to N rows.
The logits stay packed too: N x n_labels, one row per real token.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import os
import stat
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import TagLabel, Vocabulary, label_index_from_types
from .errors import FormatError, UsageError
from .ioutil import atomic_write_bytes

LN_EPS = 1e-5
CHECKPOINT_MAGIC = "MEDNER-CKPT"
CHECKPOINT_VERSION = 3

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; d_model must divide evenly by n_heads."""

    vocab_size: int
    n_labels: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    max_len: int = 128
    dropout_rate: float = 0.1

    def __post_init__(self):
        for name in ("vocab_size", "n_labels", "d_model", "n_heads", "n_layers", "d_ff", "max_len"):
            if type(getattr(self, name)) is not int or getattr(self, name) < 1:
                raise UsageError(f"{name} must be an integer >= 1")
        if self.d_model % self.n_heads != 0:
            raise UsageError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise UsageError("dropout_rate must be in [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)


# One encoder layer's tensors, named without their "enc.<layer>." prefix,
# in payload order; param_shapes and layer_tensors both go by this tuple.
# The keys have no bias; attention says why.
LAYER_KEYS = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "attn.bq", "attn.bv", "attn.bo",
              "ln1.g", "ln1.b", "ln2.g", "ln2.b", "ff.w1", "ff.b1", "ff.w2", "ff.b2")


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter names and shapes, in checkpoint payload order."""
    d, f = config.d_model, config.d_ff
    layer_shapes = [(d, d)] * 4 + [(d,)] * 7 + [(d, f), (f,), (f, d), (d,)]
    shapes: dict[str, tuple[int, ...]] = {"emb.tok": (config.vocab_size, d)}
    for layer in range(config.n_layers):
        shapes.update((f"enc.{layer}.{key}", shape) for key, shape in zip(LAYER_KEYS, layer_shapes))
    shapes["head.w"] = (d, config.n_labels)
    shapes["head.b"] = (config.n_labels,)
    return shapes


class ParamLayout:
    """The flat parameter vector: tensors back to back in param_shapes
    order, each row-major."""

    def __init__(self, config: ModelConfig):
        self.shapes = param_shapes(config)
        self.starts = list(itertools.accumulate(map(math.prod, self.shapes.values()), initial=0))
        self.size = self.starts[-1]

    def _spans(self):
        return zip(self.shapes.items(), self.starts, self.starts[1:])

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> array views into `flat`; writing a view writes the vector."""
        if flat.shape != (self.size,):
            raise ValueError(f"flat vector shape {flat.shape} != ({self.size},)")
        return {name: flat[a:b].reshape(shape) for (name, shape), a, b in self._spans()}

    def first_nonfinite(self, flat: np.ndarray) -> Optional[str]:
        """Name of the tensor holding the first NaN/inf in `flat`, or None."""
        finite = np.isfinite(flat)
        if finite.all():
            return None
        return list(self.shapes)[bisect.bisect_right(self.starts, int(np.argmin(finite))) - 1]

    def manifest(self, itemsize: int) -> list[dict]:
        """Checkpoint manifest entries: name, shape, byte offset and length."""
        return [{"name": name, "shape": list(shape), "offset": a * itemsize,
                 "length": (b - a) * itemsize} for (name, shape), a, b in self._spans()]


# forward asks for one table per batch width; this holds every width up to
# the default max_len (128) in both precisions, 2 MB at d_model 64 in float32
@functools.lru_cache(maxsize=256)
def sinusoidal_positions(max_len: int, d_model: int, dtype=np.float32) -> np.ndarray:
    """Fixed sin/cos position table; row 0 is [0, 1, 0, 1, ...]. Built once
    per (max_len, d_model, dtype) and shared, so it is read-only; the first
    t rows of a table are the table of length t, bit for bit."""
    pe = np.zeros((max_len, d_model), dtype=np.float64)
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    idx = np.arange(0, d_model, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, idx / d_model)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d_model // 2])
    pe = pe.astype(dtype)
    pe.flags.writeable = False
    return pe


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> np.ndarray:
    """The flat parameter vector of a new model: Glorot-uniform weights,
    zero biases, unit layer-norm gains. Each weight is drawn in float64,
    tensor by tensor in param_shapes order, and cast as it is written into
    its view. Deterministic given (config, seed, dtype).
    """
    rng = np.random.default_rng(seed)
    layout = ParamLayout(config)
    flat = np.empty(layout.size, dtype=dtype)
    for name, view in layout.views(flat).items():
        if view.ndim == 2:
            fan_in, fan_out = view.shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            view[...] = rng.uniform(-bound, bound, size=view.shape)
        else:
            view.fill(1.0 if name.endswith(".g") else 0.0)
    return flat


# ---------------------------------------------------------------------------
# Core ops
# ---------------------------------------------------------------------------
#
# softmax, gelu, gelu_grad, the sublayers and their backward functions
# compute in place where that measured faster. Each in-place step is the
# same IEEE operation as the expression it stands for, in the same order
# (a + b and a * b commute exactly), so results are the same to the bit;
# what goes is a new array and a pass over memory per temporary, which at
# desk-scale widths cost more than the arithmetic.
#
# numpy reduces a short axis with a generic loop that costs several times
# the arithmetic, so the hot reductions avoid it. Sums over the last axis
# (softmax's denominator, the layer-norm means, the dscores row sum) are
# one BLAS matvec of the rows against a ones vector, and sums over the
# rows (every bias and gain gradient) one ones-vector matvec the other way:
# on a 2-vCPU Xeon guest with OpenBLAS at one thread, the row sums of
# 16 x 4 x 16 x 16 attention scores take 9 us against 38 us for np.sum, and
# a (178, 128) gradient's column sums 5 us against 14 us. BLAS adds in its
# own order, so a sum rounds differently from np.sum's pairwise one, and a
# row's sum can depend on how many rows the call has. The row max is exact
# in any order: it is np.maximum.reduce over the first axis of a
# contiguous transposed copy, one elementwise pass per column, 18 us on
# those scores against 147 us for np.max over the last axis.
#
# A batched matmul by k^T or v^T, head views of the packed rows with
# their last two axes swapped, takes a slow path in numpy: q @ k^T on
# 16 x 4 x 16 x 16 float32 took 23-45 us on that guest, and 20-34 us with
# a contiguous copy of k^T made first, with the same bits (_swapped). The
# transposes of probs and dscores, whole arrays, are read as views: a copy
# of either doubled its product's time, 10 to 20 us.


@functools.lru_cache(maxsize=64)
def _ones(n: int, dtype) -> np.ndarray:
    ones = np.ones(n, dtype=dtype)
    ones.flags.writeable = False
    return ones


def _row_sums(z: np.ndarray) -> np.ndarray:
    """z's sums over the last axis, keepdims, as one matvec (see Core ops)."""
    n = z.shape[-1]
    return (z.reshape(-1, n) @ _ones(n, z.dtype)).reshape(z.shape[:-1] + (1,))


def _row_means(z: np.ndarray) -> np.ndarray:
    """_row_sums(z) / the row length."""
    means = _row_sums(z)
    means /= z.shape[-1]
    return means


def _swapped(z: np.ndarray) -> np.ndarray:
    """z with its last two axes swapped, as a contiguous copy (see Core ops)."""
    return np.ascontiguousarray(z.swapaxes(-1, -2))


def _column_sums(y: np.ndarray, out: np.ndarray) -> None:
    """The 2-D y's sums over its rows into `out`, as one matvec."""
    np.matmul(_ones(len(y), y.dtype), y, out=out)


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max-subtraction) along the last axis."""
    z = np.asarray(z)
    if z.size == 0:
        raise ValueError("softmax of empty input")
    e = z - _row_max(z)
    np.exp(e, out=e)
    e /= _row_sums(e)
    return e


def _row_max(z: np.ndarray) -> np.ndarray:
    """np.max(z, axis=-1, keepdims=True), as np.maximum.reduce over the
    first axis of the transposed rows, copied contiguous (see Core ops).

    A max is exact, so the result is the same value, NaN included; a zero
    may come back with the other sign, and z - max then gives the same exp.
    """
    n = z.shape[-1]
    return np.maximum.reduce(z.reshape(-1, n).T.copy(), axis=0).reshape(z.shape[:-1] + (1,))


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximate GELU: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).

    Returns the activation and the tanh term, which gelu_grad takes back
    instead of computing it again.

    The cube is written x * x * x, not x**3: numpy has no fast path for an
    exponent of 3 and falls back to a generic pow that costs about a hundred
    times as much per element, which made GELU and its gradient over half of
    a training run. The product rounds twice where pow rounds once, so a
    float32 output can differ from the pow form in its last bit. The steps
    run in place, in three new arrays, in the order of the formula.
    """
    t = np.multiply(x, x)
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = np.multiply(x, 0.5)
    y *= np.add(t, 1.0)
    return y, t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Derivative of gelu at x, given the tanh term t that gelu returned:
    0.5 (1 + t) + 0.5 x (1 - t^2) sqrt(2/pi) (1 + 3 * 0.044715 x^2), each
    operation in that order, in three new arrays."""
    grad = np.add(t, 1.0)
    grad *= 0.5
    slope = np.multiply(x, 0.5)
    work = np.square(t)
    slope *= np.subtract(1.0, work, out=work)
    slope *= _GELU_C
    np.multiply(x, x, out=work)
    work *= 3.0 * _GELU_A
    work += 1.0
    slope *= work
    grad += slope
    return grad


# ---------------------------------------------------------------------------
# Sublayers, each backward next to its forward, then the forward and
# backward passes; p and g are a layer's parameters and gradients as
# layer_tensors keys them
# ---------------------------------------------------------------------------


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, the bias added in place."""
    y = x @ w
    y += b
    return y


def affine_backward(dy, x, w, dw, db) -> np.ndarray:
    """x^T dy into dw and dy's column sums into db; returns dy w^T."""
    np.matmul(x.T, dy, out=dw)
    _column_sums(dy, db)
    return dy @ w.T


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Per-position layer norm; returns (y, x_hat, inv_std) for backprop.

    On a constant vector the centered input is exactly zero, so the output
    is the bias vector (epsilon guards the zero variance). Means are
    _row_means.
    """
    x_hat = x - _row_means(x)
    y = np.square(x_hat)
    inv = 1.0 / np.sqrt(_row_means(y) + LN_EPS)
    x_hat *= inv
    np.multiply(x_hat, gain, out=y)
    y += bias
    return y, x_hat, inv


def layer_norm_backward(dy, x_hat, inv, gain, dgain, dbias) -> np.ndarray:
    """sum(dy x_hat) into dgain and sum(dy) into dbias, over the rows;
    returns inv (dxhat - mean(dxhat) - x_hat mean(dxhat x_hat)) with
    dxhat = dy gain, in place in two new arrays. Sums and means are the
    matvecs of Core ops."""
    _column_sums(dy * x_hat, dgain)
    _column_sums(dy, dbias)
    dxhat = dy * gain
    prod = dxhat * x_hat
    m2 = _row_means(prod)
    dxhat -= _row_means(dxhat)
    dxhat -= np.multiply(x_hat, m2, out=prod)
    dxhat *= inv
    return dxhat


@dataclass
class AttentionTrace:
    """attention's record: packed x and ctx, padded q, k, v and probs."""

    x: np.ndarray           # N,D attention input (the LN1 output)
    rows: np.ndarray        # N flat positions of the real tokens
    q: np.ndarray           # B,H,T,dk; 0 at padded positions
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray       # B,H,T,T attention rows (pre-dropout)
    drop: Optional[np.ndarray]  # B,H,T,T inverted-dropout mask or None
    ctx: np.ndarray         # N,D merged head outputs (pre output projection)


def _to_heads(y: np.ndarray, rows: np.ndarray, b: int, t: int, n_heads: int) -> np.ndarray:
    """The B x H x T x d_k heads of the packed rows y, 0 at the positions
    not in `rows`; a view of y when every position is real."""
    if len(rows) != b * t:
        full = np.zeros((b * t, y.shape[-1]), dtype=y.dtype)
        full[rows] = y
        y = full
    return y.reshape(b, t, n_heads, -1).transpose(0, 2, 1, 3)


def _from_heads(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """_to_heads undone: the merged heads of x at positions `rows`, as an
    N x D matrix in order."""
    b, h, t, dk = x.shape
    flat = x.transpose(0, 2, 1, 3).reshape(b * t, h * dk)
    return flat if len(rows) == len(flat) else flat[rows]


def attention(x, p, mask, n_heads: int, dropout=None) -> tuple[np.ndarray, AttentionTrace]:
    """Multi-head self-attention and its output projection on the packed
    rows x of a batch whose B x T `mask` flags the real tokens, in the
    padded B x H x T x d_k layout where a -inf mask on the keys hides
    padding. `dropout` (shape -> inverted-dropout mask) drops the
    probabilities.

    The keys are x wk with no bias: a key bias would add the same q . b
    to every score of a query's row, and softmax is unchanged by that
    (Vaswani et al., arXiv:1706.03762, eq. 1)."""
    (b, t), rows, dtype = mask.shape, np.flatnonzero(mask), x.dtype
    q = _to_heads(affine(x, p["attn.wq"], p["attn.bq"]), rows, b, t, n_heads)
    k = _to_heads(x @ p["attn.wk"], rows, b, t, n_heads)
    v = _to_heads(affine(x, p["attn.wv"], p["attn.bv"]), rows, b, t, n_heads)
    scores = q @ _swapped(k)
    scores *= dtype.type(1.0 / math.sqrt(q.shape[-1]))
    if len(rows) != b * t:  # hide the padded keys; a full batch has none
        scores += np.where(mask[:, None, None, :], dtype.type(0.0), dtype.type(-np.inf))
    probs = softmax(scores)
    drop = None if dropout is None else dropout(probs.shape)
    ctx = _from_heads((probs if drop is None else probs * drop) @ v, rows)
    return (affine(ctx, p["attn.wo"], p["attn.bo"]),
            AttentionTrace(x, rows, q, k, v, probs, drop, ctx))


def attention_backward(dy, trace: AttentionTrace, p, g) -> np.ndarray:
    """Gradients of attention; its B x H x T x · gradients are 0 at padded
    queries and keys, and softmax gives masked keys (prob 0) none."""
    b, n_heads, t, d_k = trace.q.shape
    scale = 1.0 / math.sqrt(d_k)
    dctx = _to_heads(affine_backward(dy, trace.ctx, p["attn.wo"], g["attn.wo"], g["attn.bo"]),
                     trace.rows, b, t, n_heads)
    probs, drop = trace.probs, trace.drop
    dv = (probs if drop is None else probs * drop).swapaxes(-1, -2) @ dctx
    dscores = dctx @ _swapped(trace.v)
    if drop is not None:
        dscores *= drop
    dscores -= _row_sums(dscores * probs)
    dscores *= probs
    dq = dscores @ trace.k
    dq *= scale
    dk = _from_heads(dscores.swapaxes(-1, -2) @ trace.q, trace.rows)
    dk *= scale
    np.matmul(trace.x.T, dk, out=g["attn.wk"])
    dx = affine_backward(_from_heads(dq, trace.rows), trace.x, p["attn.wq"], g["attn.wq"],
                         g["attn.bq"])
    dx += dk @ p["attn.wk"].T
    dx += affine_backward(_from_heads(dv, trace.rows), trace.x, p["attn.wv"], g["attn.wv"],
                          g["attn.bv"])
    return dx


@dataclass
class FeedForwardTrace:
    """What feed_forward_backward needs; all N x · packed rows."""

    x: np.ndarray           # N,D input (the LN2 output)
    u: np.ndarray           # N,Dff pre-activation
    act: np.ndarray         # N,Dff gelu(u)
    gelu_tanh: np.ndarray   # N,Dff the tanh term of gelu(u), for gelu_grad
    drop: Optional[np.ndarray]  # N,Dff inverted-dropout mask or None


def feed_forward(x, p, dropout=None) -> tuple[np.ndarray, FeedForwardTrace]:
    """dropout(gelu(x w1 + b1)) w2 + b2 on packed rows x."""
    u = affine(x, p["ff.w1"], p["ff.b1"])
    act, gelu_tanh = gelu(u)
    drop = None if dropout is None else dropout(act.shape)
    return (affine(act if drop is None else act * drop, p["ff.w2"], p["ff.b2"]),
            FeedForwardTrace(x, u, act, gelu_tanh, drop))


def feed_forward_backward(dy, trace: FeedForwardTrace, p, g) -> np.ndarray:
    drop = trace.drop
    dact = affine_backward(dy, trace.act if drop is None else trace.act * drop,
                           p["ff.w2"], g["ff.w2"], g["ff.b2"])
    if drop is not None:
        dact *= drop
    du = gelu_grad(trace.u, trace.gelu_tanh)
    du *= dact
    return affine_backward(du, trace.x, p["ff.w1"], g["ff.w1"], g["ff.b1"])


@dataclass
class LayerTrace:
    """One encoder layer's records: (x_hat, inv) per layer norm, one per sublayer."""

    ln1: tuple[np.ndarray, np.ndarray]
    attn: AttentionTrace
    ln2: tuple[np.ndarray, np.ndarray]
    ff: FeedForwardTrace


@dataclass
class ForwardTrace:
    """Everything backward needs; mask (B,T) flags the real tokens, and
    its flat nonzero positions are the packed rows of `final` and of the
    logits."""

    token_ids: np.ndarray   # B,T
    mask: np.ndarray        # B,T
    layers: list[LayerTrace]
    final: np.ndarray       # N,D last hidden states


@functools.lru_cache(maxsize=64)
def _layer_names(layer: int) -> tuple[str, ...]:
    """The full names of encoder layer `layer`'s tensors, in LAYER_KEYS order."""
    return tuple(f"enc.{layer}.{key}" for key in LAYER_KEYS)


def layer_tensors(tensors: dict[str, np.ndarray], layer: int) -> dict[str, np.ndarray]:
    """Encoder layer `layer`'s entries of a parameter or gradient map,
    keyed by LAYER_KEYS: "attn.wq", "ln1.g", ..."""
    return dict(zip(LAYER_KEYS, map(tensors.__getitem__, _layer_names(layer))))


def forward(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    token_ids: np.ndarray,
    mask: Optional[np.ndarray] = None,
    dropout_rng: Optional[np.random.Generator] = None,
    need_trace: bool = True,
) -> tuple[np.ndarray, Optional[ForwardTrace]]:
    """Run the encoder on a padded batch.

    token_ids: B x T ints; mask: B x T booleans (True = real token). With
    dropout_rng=None (or dropout_rate 0) the pass is deterministic; with a
    seeded generator, dropout is applied after attention probabilities and
    after the FF activation, and masks are recorded in the trace. The
    input is the token embeddings plus sinusoidal_positions(T, d_model),
    the first T rows of the max_len table, so max_len costs nothing until
    a batch is that wide. Rows longer than max_len are the caller's to
    refuse, as train and evaluation.tag_rows do for every record.
    Only the real tokens are computed (see the module docstring): the
    logits are N x n_labels, row i scoring the token at flat position
    np.flatnonzero(mask)[i].
    """
    ids = np.asarray(token_ids)
    if ids.ndim != 2:
        raise ValueError(f"token_ids must be 2-D, got shape {ids.shape}")
    b, t = ids.shape
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError("token id out of range")
    if mask is None:
        mask = np.ones((b, t), dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != ids.shape:
            raise ValueError(f"mask shape {mask.shape} != token_ids shape {ids.shape}")
        if not mask.any(axis=1).all():
            raise ValueError("record with all positions masked")

    dtype, rate = params["emb.tok"].dtype, config.dropout_rate
    dropout = None if dropout_rng is None or rate == 0.0 else (  # inverted-dropout masks
        lambda shape: (dropout_rng.random(shape) >= rate).astype(dtype) / dtype.type(1.0 - rate))
    rows = np.flatnonzero(mask)
    x = params["emb.tok"][ids.reshape(-1)[rows]]
    x += sinusoidal_positions(t, config.d_model, dtype)[rows % t]
    layers = []

    for layer in range(config.n_layers):
        p = layer_tensors(params, layer)
        h, hat1, inv1 = layer_norm(x, p["ln1.g"], p["ln1.b"])
        x_mid, attn = attention(h, p, mask, config.n_heads, dropout)
        x_mid += x
        h2, hat2, inv2 = layer_norm(x_mid, p["ln2.g"], p["ln2.b"])
        x, ff = feed_forward(h2, p, dropout)
        x += x_mid
        if need_trace:
            layers.append(LayerTrace((hat1, inv1), attn, (hat2, inv2), ff))

    trace = ForwardTrace(ids, mask, layers, x) if need_trace else None
    return affine(x, params["head.w"], params["head.b"]), trace


def backward(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    trace: ForwardTrace,
    dlogits: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Exact reverse-mode gradients of the scalar loss whose logit gradient
    is `dlogits`, N x n_labels in the trace's packed row order, written
    into `grads`: a name -> array map shaped like params, usually
    ParamLayout.views of one gradient vector that the caller reuses across
    steps, each C-contiguous. Every element of every tensor is written, so
    whatever the arrays held before does not matter. The sublayers'
    backward functions run in the reverse of forward's order.
    """
    dlogits = np.asarray(dlogits)
    if dlogits.shape != (len(trace.final), config.n_labels):
        raise ValueError(f"trace/gradient mismatch: {len(trace.final)} tokens x "
                         f"{config.n_labels} labels vs dlogits {dlogits.shape}")
    if len(trace.layers) != config.n_layers:
        raise ValueError("trace/config mismatch: wrong layer count")
    if trace.final.shape[-1] != config.d_model or params["emb.tok"].shape[1] != config.d_model:
        raise ValueError("trace/params mismatch: wrong model width")

    dx = affine_backward(dlogits, trace.final, params["head.w"], grads["head.w"], grads["head.b"])
    for layer in reversed(range(config.n_layers)):
        lt = trace.layers[layer]
        p, g = layer_tensors(params, layer), layer_tensors(grads, layer)
        dh2 = feed_forward_backward(dx, lt.ff, p, g)
        dx_mid = layer_norm_backward(dh2, *lt.ln2, p["ln2.g"], g["ln2.g"], g["ln2.b"])
        dx_mid += dx
        dh = attention_backward(dx_mid, lt.attn, p, g)
        dx = layer_norm_backward(dh, *lt.ln1, p["ln1.g"], g["ln1.g"], g["ln1.b"])
        dx += dx_mid

    # One 1-D add.at over flat cell indices: per cell the same sequence of
    # adds as a 2-D add.at over rows, at a third of its cost.
    d = config.d_model
    grads["emb.tok"].fill(0.0)
    cells = trace.token_ids.reshape(-1)[np.flatnonzero(trace.mask), None] * d + np.arange(d)
    np.add.at(grads["emb.tok"].reshape(-1), cells.reshape(-1), dx.reshape(-1))


def pad_rows(id_rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """forward's input for rows of token ids: B x T ids, PAD (id 0) after
    each row up to the longest, and the B x T mask, True at real tokens."""
    lengths = np.array([len(row) for row in id_rows])
    mask = np.arange(lengths.max()) < lengths[:, None]
    ids = np.zeros(mask.shape, dtype=np.int64)
    ids[mask] = np.concatenate(id_rows)
    return ids, mask


def predict_labels(logits: np.ndarray) -> np.ndarray:
    """Argmax over the label axis; ties break toward the lowest label id."""
    return np.argmax(logits, axis=-1)


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
#
# Layout:  line 1  "MEDNER-CKPT <version>"
#          line 2  decimal byte length of the JSON manifest
#          manifest (UTF-8 JSON), one trailing newline
#          raw payload: the flat parameter vector, little-endian IEEE-754
#
# The manifest carries the model config, the init seed, the precision tag
# (32 or 64), per-tensor {name, shape, offset, length}, and the vocabulary
# token list and entity-type inventory, so a checkpoint is self-contained
# for evaluation and prediction. The loader accepts only the canonical
# manifest (ParamLayout order), an exact-size, finite payload, and a
# vocabulary and inventory that fit the config. Version 2 also stored each
# layer's attention key bias, and version 1 the position table as well;
# both are rejected as unsupported versions like any other. The seed and
# the precision tag are kept for the reader of the manifest: the loader
# reads the precision to decode the payload and returns neither.


@dataclass
class CheckpointData:
    params: dict[str, np.ndarray]
    config: ModelConfig
    vocab: Vocabulary
    labels: list[str]      # entity types, as stored
    tags: list[TagLabel]   # label id -> tag: label_index_from_types(labels)
    path: str              # the file it was read from, which its errors name


def save_checkpoint(
    flat: np.ndarray,
    config: ModelConfig,
    seed: int,
    path,
    vocab: list[str],
    labels: list[str],
) -> None:
    """Write the parameter vector `flat` of a model of `config`, with its
    manifest, atomically to `path`."""
    layout = ParamLayout(config)
    if flat.shape != (layout.size,):
        raise ValueError(f"parameter vector shape {flat.shape} != ({layout.size},)")
    precision = flat.dtype.itemsize * 8
    if flat.dtype.kind != "f" or precision not in (32, 64):
        raise ValueError(f"unsupported parameter dtype {flat.dtype}")
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "seed": seed,
        "precision": precision,
        "tensors": layout.manifest(flat.dtype.itemsize),
        "vocab": vocab,
        "labels": labels,
    }
    header = json.dumps(manifest).encode("utf-8")
    payload = flat.astype("<f4" if precision == 32 else "<f8", copy=False).tobytes()
    atomic_write_bytes(path, b"".join((
        f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n{len(header)}\n".encode("ascii"),
        header, b"\n", payload)))


def load_checkpoint_full(path) -> CheckpointData:
    """Read and validate a checkpoint; rejections are FormatErrors whose
    message starts with the path."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise FormatError("not a regular file")
        with open(path, "rb") as fh:
            return _read_checkpoint(fh, str(path))
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from None
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _read_checkpoint(fh, path: str) -> CheckpointData:
    """Decode the checkpoint open as fh: its two header lines and manifest,
    then the payload, read once, straight into the parameter vector."""
    magic_line = fh.readline()
    if not magic_line.endswith(b"\n"):
        raise FormatError("not a checkpoint file: missing header")
    magic = magic_line[:-1].decode("ascii", errors="replace").split()
    if len(magic) != 2 or magic[0] != CHECKPOINT_MAGIC:
        raise FormatError("not a checkpoint file: bad magic line")
    if magic[1] != str(CHECKPOINT_VERSION):
        raise FormatError(f"unsupported checkpoint version {magic[1]!r}")
    length_line = fh.readline()
    if not length_line.endswith(b"\n"):
        raise FormatError("not a checkpoint file: missing manifest length")
    try:
        header_len = int(length_line[:-1])
    except ValueError:
        raise FormatError("not a checkpoint file: bad manifest length") from None
    # the manifest, then one separator byte, then the payload
    header_end = len(magic_line) + len(length_line) + header_len
    file_size = os.fstat(fh.fileno()).st_size
    if header_len < 0 or file_size < header_end + 1:
        raise FormatError("truncated manifest")
    # ValueError: bad JSON or UTF-8, or an integer past int's digit limit;
    # RecursionError: arrays or objects nested past the recursion limit
    try:
        manifest = json.loads(fh.read(header_len).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"unreadable manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise FormatError("unreadable manifest: not a JSON object")
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise FormatError(
            f"unsupported checkpoint version {manifest.get('format_version')!r}"
        )
    try:
        config = ModelConfig(**manifest["config"])
    except (TypeError, ValueError, KeyError) as exc:
        raise FormatError(f"invalid config in manifest: {exc}") from None
    precision = manifest.get("precision")
    if precision not in (32, 64):
        raise FormatError(f"unsupported precision tag {precision!r}")
    wire_dtype = np.dtype("<f4" if precision == 32 else "<f8")

    layout = ParamLayout(config)
    problem = _manifest_problem(manifest.get("tensors"), layout.manifest(wire_dtype.itemsize))
    if problem:
        raise FormatError(problem)
    expected, found = layout.size * wire_dtype.itemsize, file_size - header_end - 1
    if found == expected:
        flat = np.empty(layout.size, dtype=wire_dtype)
        fh.seek(header_end + 1)
        found = fh.readinto(flat)  # short only if the file shrank meanwhile
    if found != expected:
        raise FormatError(f"truncated payload: expected {expected} bytes, found {found}")
    # a no-op on a little-endian host, where the wire order is the native one
    flat = flat.astype(np.float32 if precision == 32 else np.float64, copy=False)
    bad = layout.first_nonfinite(flat)
    if bad is not None:
        raise FormatError(f"tensor '{bad}': non-finite values in payload")
    vocab, labels = manifest.get("vocab"), manifest.get("labels")
    if not all(isinstance(x, list) and all(map(isinstance, x, itertools.repeat(str)))
               for x in (vocab, labels)):
        raise FormatError("manifest 'vocab' and 'labels' must be lists of strings "
                          "(a checkpoint written by `medner train` carries both)")
    if len(vocab) != config.vocab_size:
        raise FormatError(f"manifest 'vocab' has {len(vocab)} tokens but "
                          f"config vocab_size is {config.vocab_size}")
    tags = label_index_from_types(labels)
    if len(tags) != config.n_labels:
        raise FormatError(f"manifest 'labels' give {len(tags)} tags but "
                          f"config n_labels is {config.n_labels}")
    try:
        tags = [TagLabel.from_tag(tag) for tag in tags]
        vocabulary = Vocabulary(vocab)
    except FormatError as exc:
        raise FormatError(f"manifest inventory: {exc}") from None
    return CheckpointData(params=layout.views(flat), config=config, vocab=vocabulary,
                          labels=labels, tags=tags, path=path)


def _manifest_problem(entries, canonical: list[dict]) -> Optional[str]:
    """Why a manifest tensor list differs from the canonical one, or None."""
    if entries == canonical:  # what every checkpoint `medner train` wrote holds
        return None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        return "manifest 'tensors' is not a list of objects"
    names = [e.get("name") for e in entries]
    expected = [c["name"] for c in canonical]
    if sorted(names, key=repr) != sorted(expected, key=repr):
        missing = [n for n in expected if n not in names]
        extra = [n for n in names if n not in expected]
        return f"manifest tensors do not match config: missing={missing} extra={extra}"
    for i, (entry, want) in enumerate(zip(entries, canonical)):
        if entry["name"] != want["name"]:
            return (f"manifest tensors are not in canonical order: '{entry['name']}' "
                    f"at position {i} where '{want['name']}' belongs")
        for key in ("shape", "offset", "length"):
            if entry.get(key, "<missing>") != want[key]:
                return (f"tensor '{want['name']}': manifest {key} "
                        f"{entry.get(key, '<missing>')!r} != expected {want[key]}")
    return None
