"""Training machinery: categorical cross-entropy, Adam with optional
global-norm clipping, reduce-on-plateau learning-rate decay, batching,
and the epoch loop with per-epoch logging.

The parameter vector and the gradient through the encoder are model.py's:
train takes the vector from init_params, updates it in place with the
gradients of model.backward, and hands it to save_checkpoint as it is.
"""

from __future__ import annotations

import itertools
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
from .errors import DivergenceError, FormatError, NumericalError, UsageError
from .ioutil import atomic_write_text
from .model import (
    ModelConfig,
    ParamLayout,
    backward,
    forward,
    gelu_grad,  # unused here; bench/test_bench.py checks that the tracer wraps it here
    init_params,
    pad_rows,
    predict_labels,
    save_checkpoint,
    softmax,
)

logger = logging.getLogger(__name__)

PROB_CLAMP = 1e-12
IMPROVEMENT_THRESHOLD = 1e-6
# Adam's beta1, beta2 and epsilon: Kingma & Ba's defaults (arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# The most bytes that train's parameter-sized vectors may take: 128 TiB,
# the user address space of x86-64 Linux with four-level page tables. No
# process there can hold more, so a model config past it is refused before
# anything is allocated.
MAX_STATE_BYTES = 2**47


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
        for name in ("learning_rate", "min_lr", "grad_clip_norm"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise UsageError(f"{name} must be a finite number > 0, got {value}")
        if not 0.0 < self.decay_factor < 1.0:
            raise UsageError("decay_factor must be in (0, 1)")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise UsageError("max_epochs must be >= 1")
        if self.decay_patience < 1:
            raise UsageError("decay_patience must be >= 1")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise UsageError("early_stop_patience must be >= 1")


@dataclass
class Batch:
    """A padded batch of token ids, PAD exactly where mask is False, and
    the labels of its N real tokens as packed rows."""

    token_ids: np.ndarray       # B x T int
    attention_mask: np.ndarray  # B x T bool
    label_ids: np.ndarray       # N int; i labels flat position np.flatnonzero(mask)[i]


def make_batches(
    records: Sequence[EncodedRecord],
    batch_size: int,
    seed: int,
) -> list[Batch]:
    """Shuffle the records with `seed`, then group them into batches of
    <= batch_size, each padded to its own max length. Every record appears
    exactly once. train, the one caller, refuses an empty training split.
    """
    order = list(records)
    random.Random(seed).shuffle(order)
    chunks = [order[start : start + batch_size] for start in range(0, len(order), batch_size)]
    return [Batch(*pad_rows([r.token_ids for r in chunk]),
                  np.concatenate([r.label_ids for r in chunk])) for chunk in chunks]


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def cross_entropy(logits: np.ndarray, label_ids: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-softmax probability of the true labels over N
    tokens: logits N x n_labels, label_ids N ids in [0, n_labels); returns
    (loss, dloss/dlogits).

    The true-label probability is clamped at 1e-12 before the log; the
    gradient is (softmax - onehot) / N.
    """
    logits = np.asarray(logits)
    labels = np.asarray(label_ids)
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise ValueError(f"shape mismatch: logits {logits.shape}, labels {labels.shape}")
    n = len(labels)
    if n == 0:
        raise ValueError("no tokens")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label id out of range")

    rows = np.arange(n)
    dlogits = softmax(logits)
    p_true = dlogits[rows, labels]
    loss = float(-np.log(np.maximum(p_true, PROB_CLAMP)).sum() / n)

    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return loss, dlogits


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


def init_adam_state(params: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params),
                     scratch=np.empty((2,) + params.shape, dtype=params.dtype))


def global_grad_norm(grads: np.ndarray, out: Optional[np.ndarray] = None) -> float:
    """The 2-norm of `grads`, summed in float64; the squares go into `out`,
    a float64 vector of grads' length, when one is given."""
    return math.sqrt(float(np.square(grads, out=out, dtype=np.float64).sum()))


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
        # the scratch holds 2n items of at least 4 bytes: room for n float64
        norm = global_grad_norm(grads, state.scratch.reshape(-1).view(np.float64)[:grads.size])
        if norm > grad_clip_norm > 0:
            grads = np.multiply(grads, grad_clip_norm / norm, out=s2)

    state.t += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
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
    """Mean validation loss per token and span micro-F1, from the logits
    that inference computes (evaluation.predict_logits)."""
    logits = evaluation.predict_logits(params, model_config,
                                       [rec.token_ids for rec in records])
    loss, _ = cross_entropy(logits, np.concatenate([rec.label_ids for rec in records]))
    pred_ids = iter(predict_labels(logits).tolist())
    preds = [[label_of[j] for j in itertools.islice(pred_ids, len(rec))] for rec in records]
    return loss, evaluation.span_metrics(preds, gold_labels).micro.f1


def model_entity_types(train_corpus: Corpus, val_corpus: Optional[Corpus]) -> list[str]:
    """The entity types a new model labels: the train split's inventory
    plus the validation split's, whether or not that split holds records.
    prepare writes the same inventory into every split."""
    return sorted(set(train_corpus.label_inventory).union(
        val_corpus.label_inventory if val_corpus is not None else ()))


# numpy does not warn of the overflow or the NaN of a diverging run: the
# finiteness checks below find it and raise DivergenceError
@np.errstate(over="ignore", invalid="ignore")
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
    The model labels model_entity_types(train_corpus, val_corpus), and
    model_config.n_labels must count their tags.

    The best checkpoint is the epoch with the highest validation span-F1
    (earliest on ties); without a validation split, scheduling and best
    selection fall back to the training loss. On divergence the last good
    parameters are written out (when out_dir is set) and DivergenceError
    is raised. A model config whose parameter-sized state would pass
    MAX_STATE_BYTES raises UsageError before anything is allocated.
    """
    if not train_corpus.records:
        raise ValueError("training split is empty")
    have_val = val_corpus is not None and len(val_corpus.records) > 0
    if not have_val:
        logger.warning(
            "validation split is empty; lr scheduling and best-checkpoint "
            "selection fall back to the training loss"
        )

    inventory = model_entity_types(train_corpus, val_corpus)
    label_index = label_index_from_types(inventory)
    if model_config.n_labels != len(label_index):
        raise ValueError(
            f"model has n_labels={model_config.n_labels} but the corpus "
            f"inventory needs {len(label_index)}"
        )
    label_of = [TagLabel.from_tag(tag) for tag in label_index]
    layout = ParamLayout(model_config)
    # eight vectors of dtype (parameters, gradient, Adam's m, v and two
    # scratch rows, the best and last-good snapshots) and init_params'
    # float64 draws
    state_bytes = layout.size * (8 * np.dtype(dtype).itemsize + 8)
    if state_bytes > MAX_STATE_BYTES:
        raise UsageError(
            f"model config d_model = {model_config.d_model}, d_ff = {model_config.d_ff}, "
            f"n_layers = {model_config.n_layers} (vocab_size {model_config.vocab_size}, "
            f"n_labels {model_config.n_labels}) gives {layout.size} parameters, whose "
            f"training state takes {state_bytes} bytes, over the limit of "
            f"{MAX_STATE_BYTES} (128 TiB)")

    splits = [("train", train_corpus)] + ([("validation", val_corpus)] if have_val else [])
    for split_name, split_corpus in splits:
        for rec in split_corpus.records:
            if len(rec) > model_config.max_len:
                raise FormatError(f"{split_name} record {rec.record_id!r} has {len(rec)} "
                                  f"tokens but max_len is {model_config.max_len}")

    train_enc = encode_corpus(train_corpus, vocab, label_index)
    if have_val:
        val_enc = encode_corpus(val_corpus, vocab, label_index)
        val_gold = [rec.labels for rec in val_corpus.records]

    flat = init_params(model_config, train_config.seed, dtype)
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
            save_checkpoint(vector, model_config, train_config.seed,
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
            loss_sum += loss * len(batch.label_ids)
            loss_n += len(batch.label_ids)
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
