"""From-scratch transformer encoder for per-token classification.

Parameters are name -> ndarray views into one flat vector whose layout
(names, shapes, order, offsets) only ParamLayout knows; the checkpoint
payload is that vector. The forward pass records every intermediate needed
for exact backpropagation in a ForwardTrace; training.backward consumes it.
Pre-norm residual blocks: x + MHA(LN(x)) then x + FF(LN(x)), with a
linear classifier head on the final hidden states (no final norm).
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

from .corpus import label_index_from_types
from .errors import CheckpointError
from .ioutil import atomic_write_bytes

LN_EPS = 1e-5
CHECKPOINT_MAGIC = "MEDNER-CKPT"
CHECKPOINT_VERSION = 1

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
    shapes: dict[str, tuple[int, ...]] = {
        "emb.tok": (config.vocab_size, d),
        "emb.pos": (config.max_len, d),
    }
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
    """Glorot-uniform weights, zero biases, unit layer-norm gains, fixed
    sinusoidal position table. Deterministic given (config, seed, dtype).
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name == "emb.pos":
            params[name] = sinusoidal_positions(config.max_len, config.d_model, dtype)
        elif len(shape) == 2:
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


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max-subtraction) along `axis`."""
    z = np.asarray(z)
    if z.size == 0:
        raise ValueError("softmax of empty input")
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: Optional[np.ndarray] = None,
    return_weights: bool = False,
):
    """Scaled dot-product attention: rowsoftmax(q k^T / sqrt(d_k)) v.

    q, k are n x d_k, v is n x d_v; mask is a boolean vector over the n
    key positions (True = attend). Masked keys get -inf score bias and
    therefore exactly zero weight. With return_weights=True the result is
    (output, weights) so callers can inspect the attention rows.
    """
    q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("attention expects 2-D q, k, v")
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ValueError(
            f"incompatible shapes q{q.shape} k{k.shape} v{v.shape}"
        )
    scores = q @ k.T / math.sqrt(q.shape[1])
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (k.shape[0],):
            raise ValueError(f"mask shape {mask.shape} != ({k.shape[0]},)")
        if not mask.any():
            raise ValueError("all positions masked")
        scores = np.where(mask[None, :], scores, -np.inf)
    weights = softmax(scores, axis=-1)
    out = weights @ v
    return (out, weights) if return_weights else out


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-approximate GELU: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).

    The cube is written x * x * x, not x**3: numpy has no fast path for an
    exponent of 3 and falls back to a generic pow that costs about a hundred
    times as much per element, which made GELU and its gradient over half of
    a training run. The product rounds twice where pow rounds once, so a
    float32 output can differ from the pow form in its last bit.
    """
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_A * (x * x * x))))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of gelu, with the same multiplications for the powers."""
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C * (1.0 + 3.0 * _GELU_A * (x * x))


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Per-position layer norm; returns (y, x_hat, inv_std) for backprop.

    On a constant vector the centered input is exactly zero, so the output
    is the bias vector (epsilon guards the zero variance).
    """
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    x_hat = centered * inv
    return gain * x_hat + bias, x_hat, inv


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


@dataclass
class LayerTrace:
    """Intermediates of one encoder layer, as produced by forward."""

    x_in: np.ndarray        # B,T,D layer input
    ln1_hat: np.ndarray     # B,T,D normalized input
    ln1_inv: np.ndarray     # B,T,1
    h: np.ndarray           # B,T,D LN1 output
    q: np.ndarray           # B,H,T,dk
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray       # B,H,T,T attention rows (pre-dropout)
    attn_drop: Optional[np.ndarray]  # B,H,T,T inverted-dropout mask or None
    ctx: np.ndarray         # B,T,D merged head outputs (pre output projection)
    x_mid: np.ndarray       # B,T,D after attention residual
    ln2_hat: np.ndarray
    ln2_inv: np.ndarray
    h2: np.ndarray          # B,T,D LN2 output
    u: np.ndarray           # B,T,Dff pre-activation
    act: np.ndarray         # B,T,Dff gelu(u)
    ff_drop: Optional[np.ndarray]    # B,T,Dff mask or None


@dataclass
class ForwardTrace:
    """Everything backward needs; mask flags the padded positions."""

    token_ids: np.ndarray
    mask: np.ndarray
    x0: np.ndarray          # B,T,D embedded input
    layers: list[LayerTrace] = field(default_factory=list)
    final: np.ndarray = None  # type: ignore[assignment]
    logits: np.ndarray = None  # type: ignore[assignment]


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dk)


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
    after the FF activation, and masks are recorded in the trace.
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

    x = params["emb.tok"][ids] + params["emb.pos"][:t][None, :, :]
    trace = ForwardTrace(token_ids=ids, mask=mask, x0=x) if need_trace else None

    for layer in range(config.n_layers):
        pfx = f"enc.{layer}."
        p = {name[len(pfx):]: arr for name, arr in params.items() if name.startswith(pfx)}
        h, hat1, inv1 = layer_norm(x, p["ln1.g"], p["ln1.b"])
        q = _split_heads(h @ p["attn.wq"] + p["attn.bq"], config.n_heads)
        k = _split_heads(h @ p["attn.wk"] + p["attn.bk"], config.n_heads)
        v = _split_heads(h @ p["attn.wv"] + p["attn.bv"], config.n_heads)
        scores = q @ k.swapaxes(-1, -2) * dtype.type(scale) + key_bias
        probs = softmax(scores, axis=-1)
        if dropping:
            attn_drop = _dropout_mask(dropout_rng, probs.shape, rate, dtype)
            probs_used = probs * attn_drop
        else:
            attn_drop = None
            probs_used = probs
        ctx = _merge_heads(probs_used @ v)
        x_mid = x + (ctx @ p["attn.wo"] + p["attn.bo"])
        h2, hat2, inv2 = layer_norm(x_mid, p["ln2.g"], p["ln2.b"])
        u = h2 @ p["ff.w1"] + p["ff.b1"]
        act = gelu(u)
        if dropping:
            ff_drop = _dropout_mask(dropout_rng, act.shape, rate, dtype)
            act_used = act * ff_drop
        else:
            ff_drop = None
            act_used = act
        x_out = x_mid + (act_used @ p["ff.w2"] + p["ff.b2"])
        if need_trace:
            trace.layers.append(LayerTrace(
                x_in=x, ln1_hat=hat1, ln1_inv=inv1, h=h, q=q, k=k, v=v,
                probs=probs, attn_drop=attn_drop, ctx=ctx, x_mid=x_mid,
                ln2_hat=hat2, ln2_inv=inv2, h2=h2, u=u, act=act, ff_drop=ff_drop,
            ))
        x = x_out

    logits = x @ params["head.w"] + params["head.b"]
    if need_trace:
        trace.final = x
        trace.logits = logits
    return logits, trace


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
# (32 or 64), per-tensor {name, shape, offset, length}, and optionally the
# vocabulary token list and entity-type inventory so a checkpoint is
# self-contained for evaluation and prediction. The loader accepts only the
# canonical manifest (ParamLayout order), an exact-size, finite payload.


@dataclass
class CheckpointData:
    params: dict[str, np.ndarray]
    config: ModelConfig
    seed: int
    precision: int
    vocab: Optional[list[str]]
    labels: Optional[list[str]]


def save_checkpoint(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    seed: int,
    path,
    vocab: Optional[list[str]] = None,
    labels: Optional[list[str]] = None,
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
    if not all(x is None or isinstance(x, list) and all(isinstance(t, str) for t in x)
               for x in (vocab, labels)):
        raise CheckpointError("manifest 'vocab' and 'labels' must be lists of strings")
    if vocab is not None and len(vocab) != config.vocab_size:
        raise CheckpointError(f"manifest 'vocab' has {len(vocab)} tokens but "
                              f"config vocab_size is {config.vocab_size}")
    n_tags = config.n_labels if labels is None else len(label_index_from_types(labels))
    if n_tags != config.n_labels:
        raise CheckpointError(f"manifest 'labels' give {n_tags} tags but "
                              f"config n_labels is {config.n_labels}")
    return CheckpointData(params=layout.views(flat), config=config,
                          seed=manifest.get("seed", 0), precision=precision,
                          vocab=vocab, labels=labels)


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
