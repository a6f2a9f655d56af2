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
from .errors import DivergenceError, FormatError, NumericalError
from .ioutil import atomic_write_text
from .model import (
    ForwardTrace,
    ModelConfig,
    ParamLayout,
    _merge_heads,
    _pack_rows,
    _split_heads,
    _unpack_rows,
    forward,
    gelu_grad,
    init_params,
    predict_labels,
    save_checkpoint,
    softmax,
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
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ValueError("grad_clip_norm must be > 0")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")


@dataclass
class Batch:
    """A padded batch: PAD ids and ignore labels exactly where mask is False."""

    token_ids: np.ndarray       # B x T int
    attention_mask: np.ndarray  # B x T bool
    label_ids: np.ndarray       # B x T int, IGNORE_LABEL at padding

    @property
    def active_count(self) -> int:
        return int(self.attention_mask.sum())


def make_batches(
    records: Sequence[EncodedRecord],
    batch_size: int,
    seed: int,
) -> list[Batch]:
    """Shuffle the records with `seed`, then group them into batches of
    <= batch_size, each padded to its own max length. Every record appears
    exactly once.
    """
    if not records:
        raise ValueError("no records to batch")
    order = list(records)
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
        batches.append(Batch(ids, mask, labels))
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

    rows, cols = np.nonzero(active)
    true = labels[rows, cols]
    dlogits = softmax(logits)
    p_true = dlogits[rows, cols, true]
    loss = float(-np.log(np.maximum(p_true, PROB_CLAMP)).sum() / n)

    dlogits[rows, cols, true] -= 1.0
    dlogits /= n
    dlogits[~active] = 0.0
    return loss, dlogits


# ---------------------------------------------------------------------------
# Backpropagation
# ---------------------------------------------------------------------------


def _layer_norm_backward(dy, x_hat, inv, gain):
    """inv (dxhat - mean(dxhat) - x_hat mean(dxhat x_hat)) with dxhat = dy gain,
    in place in two new arrays."""
    dxhat = dy * gain
    prod = dxhat * x_hat
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = prod.mean(axis=-1, keepdims=True)
    dxhat -= m1
    dxhat -= np.multiply(x_hat, m2, out=prod)
    dxhat *= inv
    return dxhat


def backward(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    trace: ForwardTrace,
    dlogits: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Exact reverse-mode gradients of the scalar loss whose logit gradient
    is `dlogits`, written into `grads`: a name -> array map shaped like
    params, usually ParamLayout.views of one gradient vector that the
    caller reuses across steps, each C-contiguous. Every element of every
    tensor is written, so whatever the arrays held before does not matter.
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
    if trace.final.shape[-1] != config.d_model or params["emb.tok"].shape[1] != config.d_model:
        raise ValueError("trace/params mismatch: wrong model width")

    d = config.d_model
    scale = 1.0 / math.sqrt(config.d_k)
    b, t = trace.mask.shape
    rows = np.flatnonzero(trace.mask)

    # Every N x · array below holds the real tokens only (model._pack_rows);
    # attention's B x H x T x · gradients are 0 at padded queries and keys.
    dlog = _pack_rows(dlogits, rows)
    np.matmul(trace.final.T, dlog, out=grads["head.w"])
    np.sum(dlog, axis=0, out=grads["head.b"])
    dx = dlog @ params["head.w"].T

    for layer in reversed(range(config.n_layers)):
        lt = trace.layers[layer]
        pfx = f"enc.{layer}"

        # FF sublayer: x_out = x_mid + dropout(gelu(h2 w1 + b1)) w2 + b2
        act_used = lt.act if lt.ff_drop is None else lt.act * lt.ff_drop
        np.matmul(act_used.T, dx, out=grads[f"{pfx}.ff.w2"])
        np.sum(dx, axis=0, out=grads[f"{pfx}.ff.b2"])
        dact = dx @ params[f"{pfx}.ff.w2"].T
        if lt.ff_drop is not None:
            dact *= lt.ff_drop
        du = gelu_grad(lt.u, lt.gelu_tanh)
        du *= dact
        np.matmul(lt.h2.T, du, out=grads[f"{pfx}.ff.w1"])
        np.sum(du, axis=0, out=grads[f"{pfx}.ff.b1"])
        dh2 = du @ params[f"{pfx}.ff.w1"].T
        np.sum(dh2 * lt.ln2_hat, axis=0, out=grads[f"{pfx}.ln2.g"])
        np.sum(dh2, axis=0, out=grads[f"{pfx}.ln2.b"])
        dx_mid = _layer_norm_backward(dh2, lt.ln2_hat, lt.ln2_inv, params[f"{pfx}.ln2.g"])
        dx_mid += dx

        # attention sublayer: x_mid = x_in + (ctx wo + bo)
        np.matmul(lt.ctx.T, dx_mid, out=grads[f"{pfx}.attn.wo"])
        np.sum(dx_mid, axis=0, out=grads[f"{pfx}.attn.bo"])
        dctx = _split_heads(_unpack_rows(dx_mid @ params[f"{pfx}.attn.wo"].T, rows, b, t),
                            config.n_heads)
        probs_used = lt.probs if lt.attn_drop is None else lt.probs * lt.attn_drop
        dv = probs_used.swapaxes(-1, -2) @ dctx
        dprobs = dctx @ lt.v.swapaxes(-1, -2)
        if lt.attn_drop is not None:
            dprobs *= lt.attn_drop
        # softmax rows: masked keys have prob 0 and receive zero gradient
        dscores = dprobs
        dscores -= (dprobs * lt.probs).sum(axis=-1, keepdims=True)
        dscores *= lt.probs
        dq = dscores @ lt.k
        dq *= scale
        dk = dscores.swapaxes(-1, -2) @ lt.q
        dk *= scale

        dh = np.zeros_like(lt.h)
        for wname, bname, dheads in (
            ("attn.wq", "attn.bq", dq), ("attn.wk", "attn.bk", dk), ("attn.wv", "attn.bv", dv),
        ):
            dmat = _pack_rows(_merge_heads(dheads), rows)
            np.matmul(lt.h.T, dmat, out=grads[f"{pfx}.{wname}"])
            np.sum(dmat, axis=0, out=grads[f"{pfx}.{bname}"])
            dh += dmat @ params[f"{pfx}.{wname}"].T
        np.sum(dh * lt.ln1_hat, axis=0, out=grads[f"{pfx}.ln1.g"])
        np.sum(dh, axis=0, out=grads[f"{pfx}.ln1.b"])
        dx = _layer_norm_backward(dh, lt.ln1_hat, lt.ln1_inv, params[f"{pfx}.ln1.g"])
        dx += dx_mid

    # One 1-D add.at over flat cell indices: per cell the same sequence of
    # adds as a 2-D add.at over rows, at a third of its cost.
    tok = grads["emb.tok"]
    tok.fill(0.0)
    cells = trace.token_ids.reshape(-1)[rows, None] * d + np.arange(d)
    np.add.at(tok.reshape(-1), cells.reshape(-1), dx.reshape(-1))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Flat first/second moment estimates plus the step count, and two
    scratch vectors that adam_step computes its temporaries in."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray  # 2 x n; its contents mean nothing between steps
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam_state(params: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params),
                     scratch=np.empty((2,) + params.shape, dtype=params.dtype))


def global_grad_norm(grads: np.ndarray) -> float:
    return math.sqrt(float(np.square(grads, dtype=np.float64).sum()))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    grad_clip_norm: Optional[float] = None,
) -> None:
    """One Adam update with bias correction (Kingma & Ba, arXiv:1412.6980),
    in place on the flat parameter vector and on the state.

    Raises NumericalError, before changing anything, when a gradient is
    non-finite. With grad_clip_norm set, gradients are globally rescaled to
    that norm first (only when they exceed it). `grads` is only read.

    Every temporary goes into the state's scratch vectors, in the order of
    the textbook expressions m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2
    and p -= lr (m / c1) / (sqrt(v / c2) + eps), so the result is the same
    to the bit. A new vector the size of the model would be above glibc's
    128 KiB mmap threshold and fault in fresh pages on every step.
    """
    if lr <= 0:
        raise ValueError("lr must be > 0")
    if grads.shape != params.shape or state.m.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} / moment shape {state.m.shape} "
                         f"!= parameter shape {params.shape}")
    if grads.dtype != params.dtype:
        raise ValueError(f"gradient dtype {grads.dtype} != parameter dtype {params.dtype}")
    if not np.isfinite(grads).all():
        raise NumericalError("non-finite gradient")

    s1, s2 = state.scratch
    if grad_clip_norm is not None:
        norm = global_grad_norm(grads)
        if norm > grad_clip_norm > 0:
            grads = np.multiply(grads, grad_clip_norm / norm, out=s2)

    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    state.m *= b1
    np.multiply(grads, 1.0 - b1, out=s1)
    state.m += s1
    state.v *= b2
    np.multiply(grads, grads, out=s1)
    s1 *= 1.0 - b2
    state.v += s1
    np.divide(state.m, corr1, out=s1)
    s1 *= lr
    np.divide(state.v, corr2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += eps
    s1 /= s2
    params -= s1


# ---------------------------------------------------------------------------
# Learning-rate schedule
# ---------------------------------------------------------------------------


def stagnant_epochs(losses: Sequence[float]) -> list[int]:
    """For each epoch, how many epochs in a row up to it have not improved.

    An epoch improves when its loss beats the best loss before it by more
    than IMPROVEMENT_THRESHOLD; the first epoch has nothing to beat, so it
    counts as stagnant. This is the only improvement test: the lr schedule
    and early stopping both read these counts.
    """
    counts = []
    best: Optional[float] = None
    run = 0
    for loss in losses:
        if best is not None and loss < best - IMPROVEMENT_THRESHOLD:
            run = 0
        else:
            run += 1
        best = loss if best is None else min(best, loss)
        counts.append(run)
    return counts


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


def lr_schedule(history: Sequence[TrainLogRow], config: TrainConfig) -> float:
    """Learning rate for the next epoch given the epochs logged so far.

    Replays the plateau rule on the monitored loss series (val loss, or
    train loss when there is no validation split): a reduction fires at
    every epoch whose stagnation count is a positive multiple of
    `decay_patience`. The lr is the one recorded for epoch 1 times
    `decay_factor` per reduction, floored at `min_lr`, and never above
    the lr of epoch 1.
    """
    if not history:
        raise ValueError("history must be non-empty")
    counts = stagnant_epochs([row.monitored_loss for row in history])
    reductions = sum(1 for c in counts if c > 0 and c % config.decay_patience == 0)
    first = history[0].learning_rate
    return min(first, max(first * config.decay_factor**reductions, config.min_lr))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]  # after the final epoch
    best_epoch: int                # the epoch saved as best.ckpt
    log: TrainLog


def _val_metrics(params, model_config, records: Sequence[EncodedRecord],
                 gold_labels, label_of: Sequence[TagLabel]):
    """Mean validation loss per token and span micro-F1, over the same
    length-sorted batches that inference uses."""
    total_loss = 0.0
    preds: list[list[TagLabel]] = [[] for _ in records]
    for batch, logits, mask in evaluation.batched_logits(
            params, model_config, [rec.token_ids for rec in records]):
        labels = np.full(mask.shape, IGNORE_LABEL, dtype=np.int64)
        labels[mask] = np.concatenate([records[i].label_ids for i in batch])
        loss, _ = cross_entropy(logits, labels)
        total_loss += loss * int(mask.sum())
        pred_ids = predict_labels(logits)
        for i, row in enumerate(batch):
            preds[row] = [label_of[j] for j in pred_ids[i, : len(records[row])]]
    span = evaluation.span_metrics(preds, gold_labels)
    return total_loss / sum(map(len, records)), span.micro.f1


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
    is raised.
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
    label_of = [TagLabel.from_tag(tag) for tag in label_index]

    splits = [("train", train_corpus)] + ([("validation", val_corpus)] if have_val else [])
    for split_name, split_corpus in splits:
        for rec in split_corpus.records:
            if len(rec) > model_config.max_len:
                raise FormatError(f"{split_name} record {rec.record_id!r} has {len(rec)} "
                                  f"tokens but max_len is {model_config.max_len}")

    train_enc = encode_corpus(train_corpus, vocab, label_index)
    if have_val:
        val_enc = encode_corpus(val_corpus, vocab, label_index)
        val_gold = [list(rec.labels) for rec in val_corpus.records]

    layout = ParamLayout(model_config)
    flat = layout.flatten(init_params(model_config, train_config.seed, dtype))
    params = layout.views(flat)
    state = init_adam_state(flat)
    grad_flat = np.empty_like(flat)
    grads = layout.views(grad_flat)
    dropout_rng = (
        np.random.default_rng(train_config.seed)
        if model_config.dropout_rate > 0 else None
    )
    shuffle_rng = random.Random(train_config.seed)

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
                               seed=shuffle_rng.randrange(2**32))
        loss_sum, loss_n = 0.0, 0
        for batch in batches:
            logits, trace = forward(params, model_config, batch.token_ids,
                                    batch.attention_mask, dropout_rng=dropout_rng)
            loss, dlogits = cross_entropy(logits, batch.label_ids)
            if not math.isfinite(loss):
                abort(epoch, "non-finite loss")
            backward(params, model_config, trace, dlogits, grads)
            try:
                adam_step(flat, grad_flat, state, lr, train_config.grad_clip_norm)
            except NumericalError:
                abort(epoch, "non-finite gradient in tensor "
                             f"'{layout.first_nonfinite(grad_flat)}'")
            loss_sum += loss * batch.active_count
            loss_n += batch.active_count
        train_loss = loss_sum / loss_n

        if have_val:
            val_loss, val_f1 = _val_metrics(params, model_config, val_enc,
                                            val_gold, label_of)
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

        lr = lr_schedule(log.rows, train_config)
        if train_config.early_stop_patience is not None:
            stale = stagnant_epochs([r.monitored_loss for r in log.rows])[-1]
            if stale >= train_config.early_stop_patience:
                logger.info("early stop after epoch %d (%d stagnant epochs)",
                            epoch, stale)
                break

    if out_dir is not None:
        save_outputs(flat, best_flat)
    return TrainResult(params=params, best_epoch=best_epoch, log=log)
