"""Token- and span-level precision/recall/F1, report rendering, and the
model-comparison table.

Span metrics use the exact-match criterion: a predicted span counts as a
true positive iff (start, end, type) all equal a gold span. Gold must be
strict BIO; in a prediction, an I that continues no span of its type
starts one, as BIO repair would make it.
Whether published NER figures are token- or span-level micro or macro is
often ambiguous, so reports carry both families and flag span-level micro
as the headline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterator, Sequence

import numpy as np

from .corpus import UNK_ID, Corpus, TagLabel, spans_from_labels, validate_bio
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
    per_label: dict[str, PRF]  # every tag in the label index, O included


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

    Gold sequences must be strict-BIO valid (BioViolationError
    otherwise); predictions may be raw argmax output, see
    spans_from_labels.
    """
    if len(pred_labels) != len(gold_labels):
        raise ValueError(
            f"record count mismatch: {len(pred_labels)} pred vs {len(gold_labels)} gold"
        )
    counts: dict[str, list[int]] = {}  # type -> [tp, fp, fn]
    for i, (pred, gold) in enumerate(zip(pred_labels, gold_labels)):
        if len(pred) != len(gold):
            raise ValueError(f"record {i}: length mismatch {len(pred)} vs {len(gold)}")
        validate_bio(gold, "strict")
        gold_spans = set(spans_from_labels(gold))
        pred_spans = set(spans_from_labels(pred))
        for slot, spans in enumerate((pred_spans & gold_spans, pred_spans - gold_spans,
                                      gold_spans - pred_spans)):
            for _, _, etype in spans:
                counts.setdefault(etype, [0, 0, 0])[slot] += 1

    per_type = {etype: PRF(*c) for etype, c in counts.items()}
    micro = PRF(*map(sum, zip(*counts.values())))  # PRF() when no spans at all
    return SpanMetrics(micro=micro, per_type=per_type)


def token_metrics(pred_label_ids, gold_label_ids, id_to_tag: Sequence[str]) -> TokenMetrics:
    """One-vs-rest counts per label, label id i being tag id_to_tag[i]; the
    micro average pools counts over all non-O labels.
    """
    pred = np.asarray(pred_label_ids)
    gold = np.asarray(gold_label_ids)
    if pred.shape != gold.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gold {gold.shape}")
    per_label: dict[str, PRF] = {}
    pooled = [0, 0, 0]
    for label_id, tag in enumerate(id_to_tag):
        is_pred = pred == label_id
        is_gold = gold == label_id
        tp = int((is_pred & is_gold).sum())
        fp = int((is_pred & ~is_gold).sum())
        fn = int((~is_pred & is_gold).sum())
        per_label[tag] = PRF(tp, fp, fn)
        if tag != "O":
            pooled[0] += tp
            pooled[1] += fp
            pooled[2] += fn
    return TokenMetrics(micro=PRF(*pooled), per_label=per_label)


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


def batched_logits(params, config, id_rows: Sequence[Sequence[int]]
                   ) -> Iterator[tuple[list[int], np.ndarray]]:
    """Forward the token rows without dropout, shortest first; yields each
    batch's row indices and its packed logits: one row per token, the
    batch's rows one after another.

    A batch takes as many rows as keep its widest activation (the
    feed-forward layer, the model width or the attention scores) within
    _BATCH_BYTES. Sorting by length leaves little padding. A row's logits
    do not depend on the rows batched with it, but only up to rounding:
    BLAS picks its kernel by the row count of a call, so a record's logits
    alone and in a batch can differ in their last bits (on the quickstart
    test split, 38 of 45 records do, with the same argmax on all 45).
    """
    itemsize = next(iter(params.values())).itemsize

    def row_bytes(width: int) -> int:
        return width * max(config.d_model, config.d_ff, config.n_heads * width) * itemsize

    order = sorted(range(len(id_rows)), key=lambda i: len(id_rows[i]))
    start = 0
    while start < len(order):
        stop = start + 1
        while (stop < len(order) and (stop + 1 - start)
               * row_bytes(len(id_rows[order[stop]])) <= _BATCH_BYTES):
            stop += 1
        batch = order[start:stop]
        logits, _ = forward(params, config, *pad_rows([id_rows[i] for i in batch]),
                            need_trace=False)
        yield batch, logits
        start = stop


def predict_label_ids(params, config, id_rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Argmax label ids per token row, in input order."""
    out: list[list[int]] = [[] for _ in id_rows]
    for batch, logits in batched_logits(params, config, id_rows):
        pred = iter(predict_labels(logits).tolist())
        for row in batch:
            out[row] = list(itertools.islice(pred, len(id_rows[row])))
    return out


def tag_rows(checkpoint: CheckpointData, token_rows: Sequence[Sequence[str]],
             row_names: Sequence[str]) -> list[list[TagLabel]]:
    """The checkpoint's BIO-repaired tags for each row of token texts, in
    input order. A row longer than the model's max_len raises a FormatError
    naming it by its entry in row_names. Finite weights that still overflow
    in the forward pass raise a CheckpointError naming the checkpoint file,
    rather than tag with non-finite values.
    """
    max_len = checkpoint.config.max_len
    for row, name in zip(token_rows, row_names):
        if len(row) > max_len:
            raise FormatError(f"{name} has {len(row)} tokens but the model's "
                              f"max_len is {max_len}")
    lookup, unk = checkpoint.vocab.token_to_id.get, UNK_ID
    id_rows = [[lookup(text, unk) for text in row] for row in token_rows]
    try:
        with np.errstate(over="raise", invalid="raise"):
            pred_ids = predict_label_ids(checkpoint.params, checkpoint.config, id_rows)
    except FloatingPointError as exc:
        raise CheckpointError(f"{checkpoint.path}: checkpoint weights give non-finite "
                              f"values in the forward pass ({exc})") from None
    return [validate_bio([checkpoint.tags[i] for i in row], "repair") for row in pred_ids]


def evaluate(
    checkpoint_path,
    corpus: Corpus,
    gold_as_pred: bool = False,
) -> EvalReport:
    """Run the checkpointed model over a corpus and compute both metric
    families. With gold_as_pred=True the gold labels stand in for the
    model (an oracle run that must score 1.0 everywhere).
    """
    data = load_checkpoint_full(checkpoint_path)
    missing = sorted(set(corpus.label_inventory) - set(data.labels))
    if missing:
        raise FormatError(f"label inventory mismatch: checkpoint {checkpoint_path} "
                          f"lacks {', '.join(missing)}")
    gold_lists = [rec.labels for rec in corpus.records]
    if gold_as_pred:
        pred_lists = gold_lists
    else:
        pred_lists = tag_rows(data, [rec.tokens for rec in corpus.records],
                              [f"record {rec.record_id!r}" for rec in corpus.records])

    span = span_metrics(pred_lists, gold_lists)
    label_index = {lab.tag: i for i, lab in enumerate(data.tags)}
    flat_pred, flat_gold = (
        np.array([label_index[lab.tag] for labels in rows for lab in labels], dtype=np.int64)
        for rows in (pred_lists, gold_lists))
    token = token_metrics(flat_pred, flat_gold, id_to_tag=list(label_index))
    return EvalReport(
        n_records=len(corpus.records),
        n_tokens=int(flat_gold.size),
        span=span,
        token=token,
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
