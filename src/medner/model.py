"""From-scratch transformer encoder for per-token classification.

Parameters are name -> ndarray views into one flat vector whose layout
(names, shapes, order, offsets) only ParamLayout knows; the checkpoint
payload is that vector. It holds learned tensors only: forward computes
the fixed sinusoidal positions. The forward pass records every
intermediate needed for exact backpropagation in a ForwardTrace;
training.backward consumes it.
Pre-norm residual blocks: x + MHA(LN(x)) then x + FF(LN(x)), with a
linear classifier head on the final hidden states (no final norm).

Activations are packed: forward takes a padded B x T batch, but every
position-wise layer (embedding, layer norms, projections, GELU, dropout,
head) works on one N x width matrix of the batch's N real tokens, row i
being flat position rows[i] with rows = np.flatnonzero(mask). Attention
alone scatters q, k and v into the padded B x H x T x d_k layout, where
the key bias hides the padding, and gathers its context back to N rows.
The logits stay packed too: N x n_labels, one row per real token.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .corpus import TagLabel, Vocabulary, label_index_from_types
from .errors import CheckpointError, FormatError
from .ioutil import atomic_write_bytes

LN_EPS = 1e-5
CHECKPOINT_MAGIC = "MEDNER-CKPT"
CHECKPOINT_VERSION = 2

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
                raise ValueError(f"{name} must be an integer >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    @property
    def d_k(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return asdict(self)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter names and shapes, in checkpoint payload order."""
    d, f = config.d_model, config.d_ff
    shapes: dict[str, tuple[int, ...]] = {"emb.tok": (config.vocab_size, d)}
    for layer in range(config.n_layers):
        p = f"enc.{layer}"
        shapes[f"{p}.attn.wq"] = (d, d)
        shapes[f"{p}.attn.wk"] = (d, d)
        shapes[f"{p}.attn.wv"] = (d, d)
        shapes[f"{p}.attn.wo"] = (d, d)
        shapes[f"{p}.attn.bq"] = (d,)
        shapes[f"{p}.attn.bk"] = (d,)
        shapes[f"{p}.attn.bv"] = (d,)
        shapes[f"{p}.attn.bo"] = (d,)
        shapes[f"{p}.ln1.g"] = (d,)
        shapes[f"{p}.ln1.b"] = (d,)
        shapes[f"{p}.ln2.g"] = (d,)
        shapes[f"{p}.ln2.b"] = (d,)
        shapes[f"{p}.ff.w1"] = (d, f)
        shapes[f"{p}.ff.b1"] = (f,)
        shapes[f"{p}.ff.w2"] = (f, d)
        shapes[f"{p}.ff.b2"] = (d,)
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

    def flatten(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        """Copy a name -> array map into a new vector of the arrays' dtype."""
        wrong = sorted(set(arrays) ^ set(self.shapes)) or [
            name for name, shape in self.shapes.items() if arrays[name].shape != shape]
        if wrong:
            raise ValueError(f"parameters do not match the model config: {wrong}")
        return np.concatenate([arrays[name].ravel() for name in self.shapes])

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


def sinusoidal_positions(max_len: int, d_model: int, dtype=np.float32) -> np.ndarray:
    """Fixed sin/cos position table; row 0 is [0, 1, 0, 1, ...]."""
    pe = np.zeros((max_len, d_model), dtype=np.float64)
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    idx = np.arange(0, d_model, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, idx / d_model)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return pe.astype(dtype)


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, unit layer-norm gains.
    Deterministic given (config, seed, dtype).
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 2:
            fan_in, fan_out = shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        elif name.endswith(".g"):
            params[name] = np.ones(shape, dtype=dtype)
        else:
            params[name] = np.zeros(shape, dtype=dtype)
    return params


# ---------------------------------------------------------------------------
# Core ops
# ---------------------------------------------------------------------------
#
# softmax, gelu_grad, layer_norm, forward and training.backward compute in
# place where that measured faster. Each in-place step is the same IEEE
# operation as the expression it stands for, in the same order (a + b and
# a * b commute exactly), so results are the same to the bit; what goes is
# a new array and a pass over memory per temporary, which at desk-scale
# widths cost more than the arithmetic.


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max-subtraction) along the last axis."""
    z = np.asarray(z)
    if z.size == 0:
        raise ValueError("softmax of empty input")
    e = z - _row_max(z)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def _row_max(z: np.ndarray) -> np.ndarray:
    """np.max(z, axis=-1, keepdims=True), by pairwise np.maximum over halves.

    numpy's max over a short last axis costs several times a sum over it;
    halving the row with np.maximum, the odd column folded into the first,
    costs under half as much on attention scores at training batch sizes.
    A max is exact, so the result is the same value, NaN included; a zero
    may come back with the other sign, and z - max then gives the same exp.
    """
    while z.shape[-1] > 1:
        half = z.shape[-1] // 2
        folded = np.maximum(z[..., :half], z[..., half : 2 * half])
        if z.shape[-1] % 2:
            np.maximum(folded[..., :1], z[..., -1:], out=folded[..., :1])
        z = folded
    return z


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximate GELU: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).

    Returns the activation and the tanh term, which gelu_grad takes back
    instead of computing it again.

    The cube is written x * x * x, not x**3: numpy has no fast path for an
    exponent of 3 and falls back to a generic pow that costs about a hundred
    times as much per element, which made GELU and its gradient over half of
    a training run. The product rounds twice where pow rounds once, so a
    float32 output can differ from the pow form in its last bit.
    """
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


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


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Per-position layer norm; returns (y, x_hat, inv_std) for backprop.

    On a constant vector the centered input is exactly zero, so the output
    is the bias vector (epsilon guards the zero variance).
    """
    x_hat = x - x.mean(axis=-1, keepdims=True)
    y = np.square(x_hat)
    inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + LN_EPS)
    x_hat *= inv
    np.multiply(x_hat, gain, out=y)
    y += bias
    return y, x_hat, inv


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


@dataclass
class LayerTrace:
    """Intermediates of one encoder layer, as produced by forward. N x ·
    arrays hold the batch's real tokens only (packed rows); the B x H x T x ·
    attention tensors keep the padded layout."""

    ln1_hat: np.ndarray     # N,D normalized input
    ln1_inv: np.ndarray     # N,1
    h: np.ndarray           # N,D LN1 output
    q: np.ndarray           # B,H,T,dk; 0 at padded positions
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray       # B,H,T,T attention rows (pre-dropout)
    attn_drop: Optional[np.ndarray]  # B,H,T,T inverted-dropout mask or None
    ctx: np.ndarray         # N,D merged head outputs (pre output projection)
    ln2_hat: np.ndarray     # N,D
    ln2_inv: np.ndarray     # N,1
    h2: np.ndarray          # N,D LN2 output
    u: np.ndarray           # N,Dff pre-activation
    act: np.ndarray         # N,Dff gelu(u)
    gelu_tanh: np.ndarray   # N,Dff the tanh term of gelu(u), for gelu_grad
    ff_drop: Optional[np.ndarray]    # N,Dff mask or None


@dataclass
class ForwardTrace:
    """Everything backward needs; mask (B,T) flags the real tokens, and
    its flat nonzero positions are the packed rows of `final` and of the
    logits."""

    token_ids: np.ndarray   # B,T
    mask: np.ndarray        # B,T
    layers: list[LayerTrace] = field(default_factory=list)
    final: np.ndarray = None  # type: ignore[assignment]  # N,D last hidden states


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dk)


def _pack_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The N x width matrix of x's (B x T x width) positions `rows`, in
    order; a view of x when every position is real and x is contiguous."""
    flat = x.reshape(-1, x.shape[-1])
    return flat if len(rows) == len(flat) else flat[rows]


def _unpack_rows(x: np.ndarray, rows: np.ndarray, b: int, t: int) -> np.ndarray:
    """_pack_rows undone: a B x T x width array holding x's rows at `rows`
    and 0 elsewhere; a view of x when every position is real."""
    if len(rows) == b * t:
        return x.reshape(b, t, x.shape[-1])
    out = np.zeros((b * t, x.shape[-1]), dtype=x.dtype)
    out[rows] = x
    return out.reshape(b, t, x.shape[-1])


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, the bias added in place."""
    y = x @ w
    y += b
    return y


def _dropout_mask(rng, shape, rate: float, dtype) -> np.ndarray:
    return (rng.random(shape) >= rate).astype(dtype) / dtype.type(1.0 - rate)


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
    input is the token embeddings plus sinusoidal_positions(T, d_model).
    Only the real tokens are computed (see the module docstring): the
    logits are N x n_labels, row i scoring the token at flat position
    np.flatnonzero(mask)[i].
    """
    ids = np.asarray(token_ids)
    if ids.ndim != 2:
        raise ValueError(f"token_ids must be 2-D, got shape {ids.shape}")
    b, t = ids.shape
    if t > config.max_len:
        raise ValueError(f"sequence too long: {t} > max_len {config.max_len}")
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

    dtype = params["emb.tok"].dtype
    rate = config.dropout_rate
    dropping = dropout_rng is not None and rate > 0.0
    scale = 1.0 / math.sqrt(config.d_k)
    key_bias = np.where(mask[:, None, None, :], dtype.type(0.0), dtype.type(-np.inf))
    rows = np.flatnonzero(mask)

    def heads(y: np.ndarray) -> np.ndarray:
        return _split_heads(_unpack_rows(y, rows, b, t), config.n_heads)

    x = params["emb.tok"][ids.reshape(-1)[rows]]
    x += sinusoidal_positions(t, config.d_model, dtype)[rows % t]
    trace = ForwardTrace(token_ids=ids, mask=mask) if need_trace else None

    for layer in range(config.n_layers):
        pfx = f"enc.{layer}."
        p = {name[len(pfx):]: arr for name, arr in params.items() if name.startswith(pfx)}
        h, hat1, inv1 = layer_norm(x, p["ln1.g"], p["ln1.b"])
        q = heads(_affine(h, p["attn.wq"], p["attn.bq"]))
        k = heads(_affine(h, p["attn.wk"], p["attn.bk"]))
        v = heads(_affine(h, p["attn.wv"], p["attn.bv"]))
        scores = q @ k.swapaxes(-1, -2)
        scores *= dtype.type(scale)
        scores += key_bias
        probs = softmax(scores)
        if dropping:
            attn_drop = _dropout_mask(dropout_rng, probs.shape, rate, dtype)
            probs_used = probs * attn_drop
        else:
            attn_drop = None
            probs_used = probs
        ctx = _pack_rows(_merge_heads(probs_used @ v), rows)
        x_mid = _affine(ctx, p["attn.wo"], p["attn.bo"])
        x_mid += x
        h2, hat2, inv2 = layer_norm(x_mid, p["ln2.g"], p["ln2.b"])
        u = _affine(h2, p["ff.w1"], p["ff.b1"])
        act, gelu_tanh = gelu(u)
        if dropping:
            ff_drop = _dropout_mask(dropout_rng, act.shape, rate, dtype)
            act_used = act * ff_drop
        else:
            ff_drop = None
            act_used = act
        x_out = _affine(act_used, p["ff.w2"], p["ff.b2"])
        x_out += x_mid
        if need_trace:
            trace.layers.append(LayerTrace(
                ln1_hat=hat1, ln1_inv=inv1, h=h, q=q, k=k, v=v, probs=probs,
                attn_drop=attn_drop, ctx=ctx, ln2_hat=hat2, ln2_inv=inv2, h2=h2, u=u,
                act=act, gelu_tanh=gelu_tanh, ff_drop=ff_drop,
            ))
        x = x_out

    if need_trace:
        trace.final = x
    return _affine(x, params["head.w"], params["head.b"]), trace


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
# vocabulary and inventory that fit the config. Version 1 also stored the
# position table; it is rejected as an unsupported version like any other.


@dataclass
class CheckpointData:
    params: dict[str, np.ndarray]
    config: ModelConfig
    seed: int
    precision: int
    vocab: Vocabulary
    labels: list[str]   # entity types; label_index_from_types gives the tags


def save_checkpoint(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    seed: int,
    path,
    vocab: list[str],
    labels: list[str],
) -> None:
    layout = ParamLayout(config)
    flat = layout.flatten(params)
    precision = flat.dtype.itemsize * 8
    if precision not in (32, 64):
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
    """Read and validate a checkpoint; rejections are CheckpointErrors
    whose message starts with the path."""
    try:
        if not os.path.isfile(path):
            raise CheckpointError("not a regular file")
        with open(path, "rb") as fh:
            blob = fh.read()
        return _decode_checkpoint(blob)
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc.strerror or exc}") from None
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _decode_checkpoint(blob: bytes) -> CheckpointData:
    nl1 = blob.find(b"\n")
    if nl1 < 0:
        raise CheckpointError("not a checkpoint file: missing header")
    magic = blob[:nl1].decode("ascii", errors="replace").split()
    if len(magic) != 2 or magic[0] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file: bad magic line")
    if magic[1] != str(CHECKPOINT_VERSION):
        raise CheckpointError(f"unsupported checkpoint version {magic[1]!r}")
    nl2 = blob.find(b"\n", nl1 + 1)
    if nl2 < 0:
        raise CheckpointError("not a checkpoint file: missing manifest length")
    try:
        header_len = int(blob[nl1 + 1 : nl2])
    except ValueError:
        raise CheckpointError("not a checkpoint file: bad manifest length") from None
    header_start = nl2 + 1
    header_end = header_start + header_len
    if header_len < 0 or len(blob) < header_end + 1:
        raise CheckpointError("truncated manifest")
    try:
        manifest = json.loads(blob[header_start:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise CheckpointError("unreadable manifest: not a JSON object")
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {manifest.get('format_version')!r}"
        )
    try:
        config = ModelConfig(**manifest["config"])
    except (TypeError, ValueError, KeyError) as exc:
        raise CheckpointError(f"invalid config in manifest: {exc}") from None
    precision = manifest.get("precision")
    if precision not in (32, 64):
        raise CheckpointError(f"unsupported precision tag {precision!r}")
    wire_dtype = np.dtype("<f4" if precision == 32 else "<f8")

    layout = ParamLayout(config)
    problem = _manifest_problem(manifest.get("tensors"), layout.manifest(wire_dtype.itemsize))
    if problem:
        raise CheckpointError(problem)
    expected, found = layout.size * wire_dtype.itemsize, len(blob) - header_end - 1
    if found != expected:
        raise CheckpointError(f"truncated payload: expected {expected} bytes, found {found}")
    flat = np.frombuffer(blob, dtype=wire_dtype, offset=header_end + 1).astype(
        np.float32 if precision == 32 else np.float64)
    bad = layout.first_nonfinite(flat)
    if bad is not None:
        raise CheckpointError(f"tensor '{bad}': non-finite values in payload")
    vocab, labels = manifest.get("vocab"), manifest.get("labels")
    if not all(isinstance(x, list) and all(isinstance(t, str) for t in x)
               for x in (vocab, labels)):
        raise CheckpointError("manifest 'vocab' and 'labels' must be lists of strings "
                              "(a checkpoint written by `medner train` carries both)")
    if len(vocab) != config.vocab_size:
        raise CheckpointError(f"manifest 'vocab' has {len(vocab)} tokens but "
                              f"config vocab_size is {config.vocab_size}")
    tags = label_index_from_types(labels)
    if len(tags) != config.n_labels:
        raise CheckpointError(f"manifest 'labels' give {len(tags)} tags but "
                              f"config n_labels is {config.n_labels}")
    try:
        for tag in tags:
            TagLabel.from_tag(tag)
        vocabulary = Vocabulary(vocab)
    except FormatError as exc:
        raise CheckpointError(f"manifest inventory: {exc}") from None
    return CheckpointData(params=layout.views(flat), config=config,
                          seed=manifest.get("seed", 0), precision=precision,
                          vocab=vocabulary, labels=labels)


def _manifest_problem(entries, canonical: list[dict]) -> Optional[str]:
    """Why a manifest tensor list differs from the canonical one, or None."""
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
