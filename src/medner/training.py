"""Training machinery: categorical cross-entropy with ignore-index, exact
backpropagation through the encoder, Adam with optional global-norm
clipping, reduce-on-plateau learning-rate decay, batching, and the
epoch loop with per-epoch logging.
"""

from __future__ import annotations

import logging
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import evaluation
from .corpus import (
    Corpus,
    EncodedRecord,
    TagLabel,
    Vocabulary,
    encode_corpus,
    label_index_from_types,
)
from .errors import DivergenceError, NumericalError
from .ioutil import atomic_write_text
from .model import (
    ForwardTrace,
    ModelConfig,
    ParamLayout,
    _merge_heads,
    _split_heads,
    forward,
    gelu_grad,
    init_params,
    predict_labels,
    save_checkpoint,
)

logger = logging.getLogger(__name__)

IGNORE_LABEL = -1
PROB_CLAMP = 1e-12
IMPROVEMENT_THRESHOLD = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters.

    Defaults mirror a fine-tuning setup (lr 2e-5, batch 16); training from
    scratch at desk scale typically wants a larger learning rate.
    """

    learning_rate: float = 2e-5
    batch_size: int = 16
    max_epochs: int = 20
    decay_factor: float = 0.5
    decay_patience: int = 3
    min_lr: float = 1e-7
    seed: int = 0
    grad_clip_norm: Optional[float] = None
    early_stop_patience: Optional[int] = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 < self.decay_factor < 1.0:
            raise ValueError("decay_factor must be in (0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.decay_patience < 1:
            raise ValueError("decay_patience must be >= 1")
        if self.min_lr <= 0:
            raise ValueError("min_lr must be > 0")


@dataclass
class Batch:
    """A padded batch: PAD ids and ignore labels exactly where mask is False."""

    token_ids: np.ndarray       # B x T int
    attention_mask: np.ndarray  # B x T bool
    label_ids: np.ndarray       # B x T int, IGNORE_LABEL at padding
    record_ids: list[str]

    @property
    def active_count(self) -> int:
        return int(self.attention_mask.sum())


def make_batches(
    records: Sequence[EncodedRecord],
    batch_size: int,
    seed: int = 0,
    shuffle: bool = False,
) -> list[Batch]:
    """Group records into batches of <= batch_size, each padded to its own
    max length. Every record appears exactly once; with shuffle=False the
    input order is preserved.
    """
    if not records:
        raise ValueError("no records to batch")
    order = list(records)
    if shuffle:
        random.Random(seed).shuffle(order)
    batches = []
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        t = max(len(r) for r in chunk)
        ids = np.zeros((len(chunk), t), dtype=np.int64)
        mask = np.zeros((len(chunk), t), dtype=bool)
        labels = np.full((len(chunk), t), IGNORE_LABEL, dtype=np.int64)
        for i, rec in enumerate(chunk):
            n = len(rec)
            ids[i, :n] = rec.token_ids
            mask[i, :n] = True
            labels[i, :n] = rec.label_ids
        batches.append(Batch(ids, mask, labels, [r.record_id for r in chunk]))
    return batches


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def cross_entropy(logits: np.ndarray, label_ids: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-softmax probability of the true labels over the
    non-ignored positions; returns (loss, dloss/dlogits).

    Positions with label id < 0 contribute nothing to loss or gradient.
    The true-label probability is clamped at 1e-12 before the log; the
    gradient is (softmax - onehot) / N at active positions, zero elsewhere.
    """
    logits = np.asarray(logits)
    labels = np.asarray(label_ids)
    if logits.ndim != 3 or labels.shape != logits.shape[:2]:
        raise ValueError(f"shape mismatch: logits {logits.shape}, labels {labels.shape}")
    n_classes = logits.shape[-1]
    active = labels >= 0
    n = int(active.sum())
    if n == 0:
        raise ValueError("all positions ignored")
    if labels[active].max() >= n_classes:
        raise ValueError("label id out of range")

    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)

    rows, cols = np.nonzero(active)
    true = labels[rows, cols]
    p_true = probs[rows, cols, true]
    loss = float(-np.log(np.maximum(p_true, PROB_CLAMP)).sum() / n)

    dlogits = probs.copy()
    dlogits[rows, cols, true] -= 1.0
    dlogits /= n
    dlogits[~active] = 0.0
    return loss, dlogits


# ---------------------------------------------------------------------------
# Backpropagation
# ---------------------------------------------------------------------------


def _layer_norm_backward(dy, x_hat, inv, gain):
    dxhat = dy * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * x_hat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - x_hat * m2)


def backward(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    trace: ForwardTrace,
    dlogits: np.ndarray,
) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of the scalar loss whose logit gradient
    is `dlogits`, for every named parameter tensor (shapes mirror params).
    """
    if trace.logits is None:
        raise ValueError("trace was recorded with need_trace=False")
    dlogits = np.asarray(dlogits)
    if dlogits.shape != trace.logits.shape:
        raise ValueError(
            f"trace/gradient mismatch: logits {trace.logits.shape} vs dlogits {dlogits.shape}"
        )
    if len(trace.layers) != config.n_layers:
        raise ValueError("trace/config mismatch: wrong layer count")
    if trace.x0.shape[-1] != config.d_model or params["emb.tok"].shape[1] != config.d_model:
        raise ValueError("trace/params mismatch: wrong model width")

    d = config.d_model
    scale = 1.0 / math.sqrt(config.d_k)
    grads: dict[str, np.ndarray] = {}

    final2 = trace.final.reshape(-1, d)
    dlog2 = dlogits.reshape(-1, config.n_labels)
    grads["head.w"] = final2.T @ dlog2
    grads["head.b"] = dlog2.sum(axis=0)
    dx = dlogits @ params["head.w"].T

    for layer in reversed(range(config.n_layers)):
        lt = trace.layers[layer]
        pfx = f"enc.{layer}"

        # FF sublayer: x_out = x_mid + dropout(gelu(h2 w1 + b1)) w2 + b2
        act_used = lt.act if lt.ff_drop is None else lt.act * lt.ff_drop
        grads[f"{pfx}.ff.w2"] = act_used.reshape(-1, config.d_ff).T @ dx.reshape(-1, d)
        grads[f"{pfx}.ff.b2"] = dx.sum(axis=(0, 1))
        dact = dx @ params[f"{pfx}.ff.w2"].T
        if lt.ff_drop is not None:
            dact = dact * lt.ff_drop
        du = dact * gelu_grad(lt.u)
        grads[f"{pfx}.ff.w1"] = lt.h2.reshape(-1, d).T @ du.reshape(-1, config.d_ff)
        grads[f"{pfx}.ff.b1"] = du.sum(axis=(0, 1))
        dh2 = du @ params[f"{pfx}.ff.w1"].T
        grads[f"{pfx}.ln2.g"] = (dh2 * lt.ln2_hat).sum(axis=(0, 1))
        grads[f"{pfx}.ln2.b"] = dh2.sum(axis=(0, 1))
        dx_mid = dx + _layer_norm_backward(dh2, lt.ln2_hat, lt.ln2_inv, params[f"{pfx}.ln2.g"])

        # attention sublayer: x_mid = x_in + (ctx wo + bo)
        grads[f"{pfx}.attn.wo"] = lt.ctx.reshape(-1, d).T @ dx_mid.reshape(-1, d)
        grads[f"{pfx}.attn.bo"] = dx_mid.sum(axis=(0, 1))
        dctx = _split_heads(dx_mid @ params[f"{pfx}.attn.wo"].T, config.n_heads)
        probs_used = lt.probs if lt.attn_drop is None else lt.probs * lt.attn_drop
        dv = probs_used.swapaxes(-1, -2) @ dctx
        dprobs = dctx @ lt.v.swapaxes(-1, -2)
        if lt.attn_drop is not None:
            dprobs = dprobs * lt.attn_drop
        # softmax rows: masked keys have prob 0 and receive zero gradient
        dscores = lt.probs * (dprobs - (dprobs * lt.probs).sum(axis=-1, keepdims=True))
        dq = dscores @ lt.k * scale
        dk = dscores.swapaxes(-1, -2) @ lt.q * scale

        h2d = lt.h.reshape(-1, d)
        dh = np.zeros_like(lt.h)
        for wname, bname, dmat in (
            ("attn.wq", "attn.bq", _merge_heads(dq)),
            ("attn.wk", "attn.bk", _merge_heads(dk)),
            ("attn.wv", "attn.bv", _merge_heads(dv)),
        ):
            grads[f"{pfx}.{wname}"] = h2d.T @ dmat.reshape(-1, d)
            grads[f"{pfx}.{bname}"] = dmat.sum(axis=(0, 1))
            dh += dmat @ params[f"{pfx}.{wname}"].T
        grads[f"{pfx}.ln1.g"] = (dh * lt.ln1_hat).sum(axis=(0, 1))
        grads[f"{pfx}.ln1.b"] = dh.sum(axis=(0, 1))
        dx = dx_mid + _layer_norm_backward(dh, lt.ln1_hat, lt.ln1_inv, params[f"{pfx}.ln1.g"])

    t = trace.x0.shape[1]
    grads["emb.tok"] = np.zeros_like(params["emb.tok"])
    np.add.at(grads["emb.tok"], trace.token_ids.reshape(-1), dx.reshape(-1, d))
    grads["emb.pos"] = np.zeros_like(params["emb.pos"])
    grads["emb.pos"][:t] = dx.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Flat first/second moment estimates plus the step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam_state(params: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params))


def global_grad_norm(grads: np.ndarray) -> float:
    return math.sqrt(float((grads.astype(np.float64) ** 2).sum()))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    grad_clip_norm: Optional[float] = None,
) -> None:
    """One Adam update with bias correction, in place on the flat
    parameter vector and on the state.

    Raises NumericalError, before changing anything, when a gradient is
    non-finite. With grad_clip_norm set, gradients are globally rescaled to
    that norm first (only when they exceed it).
    """
    if lr <= 0:
        raise ValueError("lr must be > 0")
    if grads.shape != params.shape or state.m.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} / moment shape {state.m.shape} "
                         f"!= parameter shape {params.shape}")
    if not np.isfinite(grads).all():
        raise NumericalError("non-finite gradient")

    if grad_clip_norm is not None:
        norm = global_grad_norm(grads)
        if norm > grad_clip_norm > 0:
            grads = grads * (grad_clip_norm / norm)

    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    state.m *= b1
    state.m += (1.0 - b1) * grads
    state.v *= b2
    state.v += (1.0 - b2) * (grads * grads)
    params -= lr * (state.m / corr1) / (np.sqrt(state.v / corr2) + eps)


# ---------------------------------------------------------------------------
# Learning-rate schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayConfig:
    factor: float = 0.5
    patience: int = 3
    min_lr: float = 1e-7


def plateau_reductions(losses: Sequence[float], patience: int,
                       threshold: float = IMPROVEMENT_THRESHOLD) -> int:
    """Replay reduce-on-plateau over a loss series and count reductions.

    An epoch improves when its loss beats the best seen so far by more
    than `threshold`; the very first epoch has nothing to beat, so it
    counts toward the plateau. After `patience` consecutive non-improving
    epochs a reduction fires and the counter resets.
    """
    best: Optional[float] = None
    bad = 0
    reductions = 0
    for loss in losses:
        if best is not None and loss < best - threshold:
            best = loss
            bad = 0
            continue
        best = loss if best is None else min(best, loss)
        bad += 1
        if bad >= patience:
            reductions += 1
            bad = 0
    return reductions


def trailing_stagnation(losses: Sequence[float],
                        threshold: float = IMPROVEMENT_THRESHOLD) -> int:
    """Consecutive epochs at the end of the series without an improvement."""
    best: Optional[float] = None
    bad = 0
    for loss in losses:
        if best is not None and loss < best - threshold:
            best = loss
            bad = 0
        else:
            best = loss if best is None else min(best, loss)
            bad += 1
    return bad


@dataclass
class TrainLogRow:
    epoch: int
    train_loss: float
    val_loss: float      # nan when there is no validation split
    val_span_f1: float   # nan when there is no validation split
    learning_rate: float

    @property
    def monitored_loss(self) -> float:
        return self.train_loss if math.isnan(self.val_loss) else self.val_loss


@dataclass
class TrainLog:
    """Per-epoch series behind the loss-curve CSV."""

    rows: list[TrainLogRow] = field(default_factory=list)

    CSV_HEADER = "epoch,train_loss,val_loss,val_span_f1,lr"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.epoch},{r.train_loss:.6g},{r.val_loss:.6g},"
                f"{r.val_span_f1:.6g},{r.learning_rate:.6g}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "TrainLog":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != cls.CSV_HEADER:
            raise ValueError("not a trainlog CSV")
        rows = []
        for ln in lines[1:]:
            e, tl, vl, f1, lr = ln.split(",")
            rows.append(TrainLogRow(int(e), float(tl), float(vl), float(f1), float(lr)))
        return cls(rows)


def lr_schedule(history: Sequence[TrainLogRow], current_lr: float,
                decay: DecayConfig) -> float:
    """Learning rate for the next epoch given the epochs logged so far.

    Pure replay of the plateau rule on the monitored loss series (val loss,
    or train loss when there is no validation split), anchored at the lr
    recorded for epoch 1; every reduction multiplies by `factor`, floored
    at `min_lr`.
    """
    if not history:
        raise ValueError("history must be non-empty")
    losses = [row.monitored_loss for row in history]
    reductions = plateau_reductions(losses, decay.patience)
    new_lr = max(history[0].learning_rate * decay.factor**reductions, decay.min_lr)
    return min(new_lr, current_lr)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]        # after the final epoch
    best_params: dict[str, np.ndarray]   # highest val span-F1 (earliest on ties)
    best_epoch: int
    log: TrainLog
    label_index: dict[str, int]


def _val_metrics(params, model_config, batches, gold_labels, id_to_tag):
    total_loss, total_n = 0.0, 0
    preds: list[list[TagLabel]] = []
    for batch in batches:
        logits, _ = forward(params, model_config, batch.token_ids,
                            batch.attention_mask, need_trace=False)
        loss, _ = cross_entropy(logits, batch.label_ids)
        total_loss += loss * batch.active_count
        total_n += batch.active_count
        pred_ids = predict_labels(logits)
        for i in range(len(batch.record_ids)):
            n = int(batch.attention_mask[i].sum())
            preds.append([TagLabel.from_tag(id_to_tag[j]) for j in pred_ids[i, :n]])
    span = evaluation.span_metrics(preds, gold_labels)
    return total_loss / total_n, span.micro.f1


def train(
    train_corpus: Corpus,
    val_corpus: Optional[Corpus],
    vocab: Vocabulary,
    model_config: ModelConfig,
    train_config: TrainConfig,
    out_dir=None,
    dtype=np.float32,
    progress: Optional[Callable[[TrainLogRow], None]] = None,
) -> TrainResult:
    """Full training run: per epoch, shuffle -> batches -> forward ->
    cross_entropy -> backward -> adam_step, then validation metrics, log
    row, and the plateau schedule. Deterministic given the config seeds.

    The best checkpoint is the epoch with the highest validation span-F1
    (earliest on ties); without a validation split, scheduling and best
    selection fall back to the training loss. On divergence the last good
    parameters are written out (when out_dir is set) and DivergenceError
    is raised. The sinusoidal position table is kept fixed.
    """
    if not train_corpus.records:
        raise ValueError("training split is empty")
    have_val = val_corpus is not None and len(val_corpus.records) > 0
    if not have_val:
        logger.warning(
            "validation split is empty; lr scheduling and best-checkpoint "
            "selection fall back to the training loss"
        )

    inventory = sorted(
        set(train_corpus.label_inventory)
        | (set(val_corpus.label_inventory) if have_val else set())
    )
    label_index = label_index_from_types(inventory)
    if model_config.n_labels != len(label_index):
        raise ValueError(
            f"model has n_labels={model_config.n_labels} but the corpus "
            f"inventory needs {len(label_index)}"
        )
    id_to_tag = [None] * len(label_index)
    for tag, idx in label_index.items():
        id_to_tag[idx] = tag

    longest = max(len(r) for r in train_corpus.records)
    if have_val:
        longest = max(longest, max(len(r) for r in val_corpus.records))
    if longest > model_config.max_len:
        raise ValueError(
            f"longest record has {longest} tokens but max_len is {model_config.max_len}"
        )

    train_enc = encode_corpus(train_corpus, vocab, label_index)
    val_batches = None
    val_gold = None
    if have_val:
        val_enc = encode_corpus(val_corpus, vocab, label_index)
        val_batches = make_batches(val_enc, train_config.batch_size, shuffle=False)
        val_gold = [list(rec.labels) for rec in val_corpus.records]

    layout = ParamLayout(model_config)
    flat = layout.flatten(init_params(model_config, train_config.seed, dtype))
    params = layout.views(flat)
    state = init_adam_state(flat)
    dropout_rng = (
        np.random.default_rng(train_config.seed)
        if model_config.dropout_rate > 0 else None
    )
    shuffle_rng = random.Random(train_config.seed)
    decay = DecayConfig(train_config.decay_factor, train_config.decay_patience,
                        train_config.min_lr)

    lr = train_config.learning_rate
    log = TrainLog()
    last_good = flat.copy()
    best_flat = flat.copy()
    best_epoch = 0
    best_key = -math.inf

    def save_outputs(final: np.ndarray, best: np.ndarray):
        for fname, vector in (("final.ckpt", final), ("best.ckpt", best)):
            save_checkpoint(layout.views(vector), model_config, train_config.seed,
                            os.path.join(out_dir, fname), vocab.id_to_token, inventory)
        atomic_write_text(os.path.join(out_dir, "trainlog.csv"), log.to_csv())

    def abort(epoch: int, reason: str):
        if out_dir is not None:
            save_outputs(last_good, best_flat)
        raise DivergenceError(
            f"training diverged at epoch {epoch} ({reason}); "
            f"last good checkpoint retained"
        )

    for epoch in range(1, train_config.max_epochs + 1):
        batches = make_batches(train_enc, train_config.batch_size,
                               seed=shuffle_rng.randrange(2**32), shuffle=True)
        loss_sum, loss_n = 0.0, 0
        for batch in batches:
            logits, trace = forward(params, model_config, batch.token_ids,
                                    batch.attention_mask, dropout_rng=dropout_rng)
            loss, dlogits = cross_entropy(logits, batch.label_ids)
            if not math.isfinite(loss):
                abort(epoch, "non-finite loss")
            grads = backward(params, model_config, trace, dlogits)
            grads["emb.pos"][:] = 0.0  # position table stays sinusoidal
            grads = layout.flatten(grads)
            try:
                adam_step(flat, grads, state, lr, train_config.grad_clip_norm)
            except NumericalError:
                abort(epoch, "non-finite gradient in tensor "
                             f"'{layout.first_nonfinite(grads)}'")
            loss_sum += loss * batch.active_count
            loss_n += batch.active_count
        train_loss = loss_sum / loss_n

        if have_val:
            val_loss, val_f1 = _val_metrics(params, model_config, val_batches,
                                            val_gold, id_to_tag)
            if not math.isfinite(val_loss):
                abort(epoch, "non-finite validation loss")
            key = val_f1
        else:
            val_loss, val_f1 = math.nan, math.nan
            key = -train_loss

        row = TrainLogRow(epoch, train_loss, val_loss, val_f1, lr)
        log.rows.append(row)
        if progress is not None:
            progress(row)

        if key > best_key:
            best_key = key
            best_epoch = epoch
            best_flat = flat.copy()
        last_good = flat.copy()

        lr = lr_schedule(log.rows, lr, decay)
        if train_config.early_stop_patience is not None:
            stale = trailing_stagnation([r.monitored_loss for r in log.rows])
            if stale >= train_config.early_stop_patience:
                logger.info("early stop after epoch %d (%d stagnant epochs)",
                            epoch, stale)
                break

    if best_epoch == 0:  # no epoch improved on -inf: cannot happen, guard anyway
        best_flat = flat.copy()
        best_epoch = len(log.rows)

    if out_dir is not None:
        save_outputs(flat, best_flat)
    return TrainResult(params=params, best_params=layout.views(best_flat),
                       best_epoch=best_epoch, log=log, label_index=label_index)
