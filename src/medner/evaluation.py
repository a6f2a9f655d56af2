"""Token- and span-level precision/recall/F1, report rendering, and the
model-comparison table.

Span metrics use the exact-match criterion: a predicted span counts as a
true positive iff (start, end, type) all equal a gold span. In a
prediction, an I that continues no span of its type starts one, as BIO
repair would make it. Gold must be strict BIO, which scoring does not
check: gold is checked once, where it is read (cli._load_gold names the
file and the record of a violation).
Whether published NER figures are token- or span-level micro or macro is
often ambiguous, so reports carry both families and flag span-level micro
as the headline.
"""

from __future__ import annotations

import gc
import itertools
import mmap
import operator
import os
import signal
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, TagLabel, spans_from_labels, validate_bio
from .errors import CheckpointError, FormatError
from .model import CheckpointData, forward, load_checkpoint_full, pad_rows, predict_labels


@dataclass(frozen=True)
class PRF:
    """Precision/recall/F1 derived from TP/FP/FN counts; 0/0 counts as 0."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp > 0 else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn > 0 else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r > 0 else 0.0

    @property
    def support(self) -> int:
        return self.tp + self.fn


@dataclass
class SpanMetrics:
    micro: PRF
    per_type: dict[str, PRF]


@dataclass
class TokenMetrics:
    micro: PRF                 # pooled one-vs-rest counts over non-O labels
    per_label: dict[str, PRF]  # every tag of the model's tag table, O included


@dataclass
class EvalReport:
    n_records: int
    n_tokens: int
    span: SpanMetrics
    token: TokenMetrics

    def summary(self) -> str:
        m = self.span.micro
        return (
            f"span micro: P={format_pct(100 * m.precision)}% "
            f"R={format_pct(100 * m.recall)}% F1={format_pct(100 * m.f1)}%"
        )

    def render(self) -> str:
        lines = [
            "# span-level micro (exact match) is the headline metric;",
            "# token-level metrics are informational",
            f"n_records = {self.n_records}",
            f"n_tokens = {self.n_tokens}",
            "[spans]",
        ]
        lines += _prf_lines("micro", self.span.micro)
        for etype in sorted(self.span.per_type):
            lines += _prf_lines(f"type.{etype}", self.span.per_type[etype])
        lines.append("[tokens]")
        lines += _prf_lines("micro", self.token.micro)
        for tag in sorted(self.token.per_label):
            prf = self.token.per_label[tag]
            lines += _prf_lines(f"label.{tag}", prf)
            lines.append(f"label.{tag}.support = {prf.support}")
        return "\n".join(lines) + "\n"


def _prf_lines(prefix: str, prf: PRF) -> list[str]:
    return [
        f"{prefix}.tp = {prf.tp}",
        f"{prefix}.fp = {prf.fp}",
        f"{prefix}.fn = {prf.fn}",
        f"{prefix}.precision = {prf.precision:.6f}",
        f"{prefix}.recall = {prf.recall:.6f}",
        f"{prefix}.f1 = {prf.f1:.6f}",
    ]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def span_metrics(
    pred_labels: Sequence[Sequence[TagLabel]],
    gold_labels: Sequence[Sequence[TagLabel]],
) -> SpanMetrics:
    """Exact-match span counts pooled over records.

    Gold sequences must be strict BIO, as cli._load_gold checks them
    when it reads a corpus; scoring does not check them again, and the
    spans of invalid gold are those of its repair. Predictions may be raw
    argmax output, see spans_from_labels.
    """
    if len(pred_labels) != len(gold_labels):
        raise ValueError(
            f"record count mismatch: {len(pred_labels)} pred vs {len(gold_labels)} gold"
        )
    counts: dict[str, list[int]] = {}  # type -> [tp, fp, fn]
    for i, (pred, gold) in enumerate(zip(pred_labels, gold_labels)):
        if len(pred) != len(gold):
            raise ValueError(f"record {i}: length mismatch {len(pred)} vs {len(gold)}")
        gold_spans = set(spans_from_labels(gold))
        pred_spans = set(spans_from_labels(pred))
        for slot, spans in enumerate((pred_spans & gold_spans, pred_spans - gold_spans,
                                      gold_spans - pred_spans)):
            for _, _, etype in spans:
                counts.setdefault(etype, [0, 0, 0])[slot] += 1

    per_type = {etype: PRF(*c) for etype, c in counts.items()}
    micro = PRF(*map(sum, zip(*counts.values())))  # PRF() when no spans at all
    return SpanMetrics(micro=micro, per_type=per_type)


def token_metrics(
    pred_labels: Sequence[Sequence[TagLabel]],
    gold_labels: Sequence[Sequence[TagLabel]],
    tags: Sequence[TagLabel],
) -> TokenMetrics:
    """One-vs-rest counts per tag over the rows that span_metrics takes.
    `tags` is the model's tag table (CheckpointData.tags), and every tag of
    either side must be in it. The micro average pools counts over all
    non-O tags.
    """
    if list(map(len, pred_labels)) != list(map(len, gold_labels)):
        raise ValueError("pred and gold rows differ in count or length")
    pred, gold = ([lab.tag for lab in itertools.chain.from_iterable(rows)]
                  for rows in (pred_labels, gold_labels))
    n_pred, n_gold = Counter(pred), Counter(gold)
    hits = Counter(itertools.compress(pred, map(operator.eq, pred, gold)))
    per_label = {lab.tag: PRF(hits[lab.tag], n_pred[lab.tag] - hits[lab.tag],
                              n_gold[lab.tag] - hits[lab.tag]) for lab in tags}
    pooled = [prf for tag, prf in per_label.items() if tag != "O"]
    micro = PRF(sum(p.tp for p in pooled), sum(p.fp for p in pooled), sum(p.fn for p in pooled))
    return TokenMetrics(micro=micro, per_label=per_label)


# ---------------------------------------------------------------------------
# Model-driven evaluation
# ---------------------------------------------------------------------------


# Bytes in the widest activation of one inference batch. Every temporary of
# the forward pass must stay under glibc's default 128 KiB mmap threshold:
# fixed batches of 32 records crossed it with the quickstart model, and a
# bulk predict then page-faulted about 100k times through freshly mapped
# memory, a cost that swung from run to run. Below the threshold, fuller
# batches pay for fewer forward calls. predict_label_ids over the
# 8000-record, 88,286-token tag_bulk input, medians of 6 alternating
# rounds in one process (2-vCPU Xeon guest, OpenBLAS at 1 thread), with
# the same predictions at every budget:
#
#   budget, KiB                  64     96    120    160    256
#   forward calls               719    473    372    281    175
#   ms, fresh process           585    480    477    657    581
#   minor faults                  0      0    222    95k    90k
#   ms, after a quickstart train 626    541    535    521    612
#   minor faults                  0      0      0      8    52k
#
# glibc raises its mmap threshold once it frees a mapped block, as a
# training run does, so 160 KiB is cheap only in such a process. 120 KiB
# (15 records of 16 tokens at the quickstart's d_ff 128) stays below the
# default threshold either way.
_BATCH_BYTES = 120 * 1024


def _batches(params, config, id_rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row indices of each inference batch. Rows go shortest first, and a
    batch takes as many as keep its widest activation (the feed-forward
    layer, the model width or the attention scores) within _BATCH_BYTES."""
    itemsize = next(iter(params.values())).itemsize

    def row_bytes(width: int) -> int:
        return width * max(config.d_model, config.d_ff, config.n_heads * width) * itemsize

    order = sorted(range(len(id_rows)), key=lambda i: len(id_rows[i]))
    batches = []
    start = 0
    while start < len(order):
        stop = start + 1
        while (stop < len(order) and (stop + 1 - start)
               * row_bytes(len(id_rows[order[stop]])) <= _BATCH_BYTES):
            stop += 1
        batches.append(order[start:stop])
        start = stop
    return batches


def _batch_logits(params, config, id_rows, batch: list[int]) -> np.ndarray:
    logits, _ = forward(params, config, *pad_rows([id_rows[i] for i in batch]),
                        need_trace=False)
    return logits


# Bulk inference spreads its batches over forked processes when each of at
# least two gets this many. A fork and a child's exit cost milliseconds,
# more in a larger parent. predict_label_ids over full batches (15 records
# of 16 tokens, the quickstart model), in one process and forked into two,
# ms, medians of 41 alternating rounds (2-vCPU Xeon guest, OpenBLAS at 1
# thread), in a parent of 36 and of 89 MB peak RSS:
#
#   batches                   4      8     12     16     24     32
#   36 MB   one process     7.2   14.3   20.5   26.2   38.7   51.3
#           two processes   9.4   14.1   19.1   21.9   27.2   35.6
#   89 MB   one process     6.9   13.5   19.2   27.0   39.9   55.2
#           two processes   9.7   15.4   19.6   23.4   31.9   45.9
_FORK_MIN_BATCHES = 8


def _processes(n_batches: int) -> int:
    """How many processes forward n_batches: one per CPU in this process's
    affinity mask, each with at least _FORK_MIN_BATCHES batches. It is 1
    without fork or sched_getaffinity, and in a process that runs more than
    one thread (such as OpenBLAS's own pool), where a forked child could
    wait forever on a lock that another thread held at the fork."""
    processes = n_batches // _FORK_MIN_BATCHES
    if processes < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    processes = min(processes, len(os.sched_getaffinity(0)))
    return processes if processes > 1 and _one_thread() else 1


def _one_thread() -> bool:
    """Whether this process runs one OS thread; False where Linux's /proc
    cannot tell."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _forked_share(processes: int, share) -> None:
    """Run share(w) in a forked child for each w in 1 .. processes - 1, and
    share(0) here; returns once every child has exited.

    A child leaves through os._exit, 1 if its share raised. What share(0)
    raises propagates, after every child is killed and reaped.
    """
    pids: list[int] = []
    finished = False
    # A child must not take an interrupt before its try below, nor this
    # process while it reaps: SIGINT waits for both.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        gc.freeze()  # so a child's gc leaves the parent's objects, and their pages, alone
        try:
            for worker in range(1, processes):
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        share(worker)
                        status = 0
                    finally:
                        os._exit(status)
                pids.append(pid)
        finally:
            gc.unfreeze()
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        share(0)
        finished = True
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for pid in pids:
                if not finished:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def predict_logits(params, config, id_rows: Sequence[Sequence[int]]) -> np.ndarray:
    """The logits of the token rows, forwarded without dropout: one row per
    token, N x n_labels, the rows' tokens one after another in input order.

    The rows are forwarded shortest first, in the batches of _batches,
    which leaves little padding. A row's logits do not depend on the rows
    batched with it, but only up to rounding: BLAS picks its kernel by the
    row count of a call, so a record's logits alone and in a batch can
    differ in their last bits (on the quickstart test split, 38 of 45
    records do, with the same argmax on all 45).

    Every batch writes its rows' logits into their slots of one buffer and
    is then marked done. Over enough batches, forked children share them
    (_processes, _forked_share), and the buffer is a shared mapping that
    they write too. A batch that no process finished is forwarded here
    afterwards, in order, so the first batch that fails raises what it
    raises in one process.
    """
    batches = _batches(params, config, id_rows)
    lengths = np.fromiter(map(len, id_rows), np.int64, len(id_rows))
    starts = np.cumsum(lengths) - lengths
    dtype = next(iter(params.values())).dtype
    cells = int(lengths.sum()) * config.n_labels
    processes = _processes(len(batches))
    size = cells * dtype.itemsize + len(batches)
    buffer = mmap.mmap(-1, size) if processes > 1 else bytearray(size)
    logits = np.frombuffer(buffer, dtype, cells).reshape(-1, config.n_labels)
    done = np.frombuffer(buffer, np.uint8, len(batches), cells * dtype.itemsize)

    def forward(todo: Iterable[int]) -> None:
        for b in todo:
            if not done[b]:
                rows = np.array(batches[b])
                sizes = lengths[rows]
                packed = np.cumsum(sizes) - sizes  # where each row starts in the batch's logits
                slots = np.repeat(starts[rows] - packed, sizes) + np.arange(sizes.sum())
                logits[slots] = _batch_logits(params, config, id_rows, batches[b])
                done[b] = 1

    if processes > 1:
        try:
            _forked_share(processes,
                          lambda worker: forward(range(worker, len(batches), processes)))
        except Exception:
            pass  # the loop below forwards what is left, in order, and raises there
    forward(range(len(batches)))
    return logits


def predict_label_ids(params, config, id_rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Argmax label ids per token row, in input order, of predict_logits."""
    pred = iter(predict_labels(predict_logits(params, config, id_rows)).tolist())
    return [list(itertools.islice(pred, len(row))) for row in id_rows]


def tag_rows(checkpoint: CheckpointData, token_rows: Sequence[Sequence[str]],
             row_names: Sequence[str]) -> list[list[TagLabel]]:
    """The checkpoint's BIO-repaired tags for each row of token texts, in
    input order, each row looked up by Vocabulary.ids. A row longer than
    the model's max_len raises a FormatError naming it by its entry in
    row_names. Finite weights that still overflow in the forward pass raise
    a CheckpointError naming the checkpoint file, rather than tag with
    non-finite values.
    """
    max_len = checkpoint.config.max_len
    for row, name in zip(token_rows, row_names):
        if len(row) > max_len:
            raise FormatError(f"{name} has {len(row)} tokens but the model's "
                              f"max_len is {max_len}")
    id_rows = list(map(checkpoint.vocab.ids, token_rows))
    try:
        with np.errstate(over="raise", invalid="raise"):
            pred_ids = predict_label_ids(checkpoint.params, checkpoint.config, id_rows)
    except FloatingPointError as exc:
        raise CheckpointError(f"{checkpoint.path}: checkpoint weights give non-finite "
                              f"values in the forward pass ({exc})") from None
    return [validate_bio([checkpoint.tags[i] for i in row], "repair") for row in pred_ids]


def evaluate(checkpoint_path, corpus: Corpus) -> EvalReport:
    """Run the checkpointed model over a corpus and compute both metric
    families."""
    data = load_checkpoint_full(checkpoint_path)
    missing = sorted(set(corpus.label_inventory) - set(data.labels))
    if missing:
        raise FormatError(f"label inventory mismatch: checkpoint {checkpoint_path} "
                          f"lacks {', '.join(missing)}")
    gold_lists = [rec.labels for rec in corpus.records]
    pred_lists = tag_rows(data, [rec.tokens for rec in corpus.records],
                          [f"record {rec.record_id!r}" for rec in corpus.records])

    return EvalReport(
        n_records=len(corpus.records),
        n_tokens=sum(map(len, gold_lists)),
        span=span_metrics(pred_lists, gold_lists),
        token=token_metrics(pred_lists, gold_lists, data.tags),
    )


# ---------------------------------------------------------------------------
# Comparison table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    model_name: str
    precision_pct: float
    f1_pct: float

    def __post_init__(self):
        for field_name, value in (("precision_pct", self.precision_pct),
                                  ("f1_pct", self.f1_pct)):
            if not 0.0 <= value <= 100.0:
                raise ValueError(f"{field_name} must be in [0, 100], got {value}")


def format_pct(value: float) -> str:
    """One decimal place, round half up (89.75 -> '89.8')."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def render_comparison(rows: Sequence[ComparisonRow]) -> str:
    """Markdown-style table with header `Model | Precision% | F1-score`,
    one row per input row, order preserved.
    """
    if not rows:
        raise ValueError("no comparison rows")
    lines = ["Model | Precision% | F1-score", "----- | ---------- | ---------"]
    for row in rows:
        lines.append(
            f"{row.model_name} | {format_pct(row.precision_pct)} | {format_pct(row.f1_pct)}"
        )
    return "\n".join(lines) + "\n"


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def parse_comparison_rows(text: str) -> list[ComparisonRow]:
    """Parse `name,precision,f1` lines; `#` comments and blank lines are
    skipped. The first line is a header when neither of its numbers parses
    as a float; a row whose numbers parse but are out of range is an error.
    """
    rows: list[ComparisonRow] = []
    first_content = True
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = [p.strip() for p in stripped.split(",")]
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: malformed row {line!r} (want name,precision,f1)")
        is_header = first_content and not any(map(_is_float, parts[1:]))
        first_content = False
        if is_header:
            continue
        try:
            rows.append(ComparisonRow(parts[0], float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: malformed row {line!r} ({exc})") from None
    if not rows:
        raise FormatError("results file contains no rows")
    return rows
