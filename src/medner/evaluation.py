"""Token- and span-level precision/recall/F1, report rendering, and the
model-comparison table.

Span metrics use the exact-match criterion: a predicted span counts as a
true positive iff (start, end, type) all equal a gold span. Predictions
are BIO-repaired before span extraction; gold must be strict-valid.
Whether published NER figures are token- or span-level micro or macro is
often ambiguous, so reports carry both families and flag span-level micro
as the headline.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Optional, Sequence

import numpy as np

from .corpus import (
    Corpus,
    TagLabel,
    Vocabulary,
    label_index_from_types,
    spans_from_labels,
    validate_bio,
)
from .errors import CheckpointError, FormatError
from .model import forward, load_checkpoint_full, predict_labels


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

    Gold sequences must be strict-BIO valid; predictions are repaired
    before extraction, so raw argmax output is acceptable.
    """
    if len(pred_labels) != len(gold_labels):
        raise ValueError(
            f"record count mismatch: {len(pred_labels)} pred vs {len(gold_labels)} gold"
        )
    counts: dict[str, list[int]] = {}

    def bump(etype: str, slot: int):
        counts.setdefault(etype, [0, 0, 0])[slot] += 1

    for i, (pred, gold) in enumerate(zip(pred_labels, gold_labels)):
        if len(pred) != len(gold):
            raise ValueError(f"record {i}: length mismatch {len(pred)} vs {len(gold)}")
        gold_spans = set(spans_from_labels(gold))
        pred_spans = set(spans_from_labels(validate_bio(pred, "repair")))
        for span in pred_spans & gold_spans:
            bump(span.entity_type, 0)
        for span in pred_spans - gold_spans:
            bump(span.entity_type, 1)
        for span in gold_spans - pred_spans:
            bump(span.entity_type, 2)

    per_type = {etype: PRF(*c) for etype, c in counts.items()}
    micro = PRF(
        sum(c[0] for c in counts.values()),
        sum(c[1] for c in counts.values()),
        sum(c[2] for c in counts.values()),
    )
    return SpanMetrics(micro=micro, per_type=per_type)


def token_metrics(
    pred_label_ids,
    gold_label_ids,
    mask=None,
    id_to_tag: Optional[Sequence[str]] = None,
) -> TokenMetrics:
    """One-vs-rest counts per label over non-ignored positions; the micro
    average pools counts over all non-O labels.
    """
    pred = np.asarray(pred_label_ids)
    gold = np.asarray(gold_label_ids)
    if pred.shape != gold.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gold {gold.shape}")
    if mask is None:
        mask = np.ones(pred.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != pred.shape:
            raise ValueError(f"mask shape {mask.shape} != labels shape {pred.shape}")
    pred = pred[mask]
    gold = gold[mask]
    if id_to_tag is None:
        n = int(max(pred.max(initial=0), gold.max(initial=0))) + 1
        id_to_tag = [str(i) for i in range(n)]

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


# Bytes in the widest activation of one inference batch. 64 KiB keeps every
# temporary of the forward pass under glibc's default 128 KiB mmap threshold.
# Fixed batches of 32 records crossed it with the quickstart model: a bulk
# predict then page-faulted about 100k times through freshly mapped memory,
# a cost that swung from run to run.
_BATCH_BYTES = 64 * 1024


def predict_label_ids(params, config, id_rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Argmax label ids per token row, without dropout, in input order.

    Rows are batched shortest first, so a batch carries little padding,
    and a batch takes as many rows as keep its widest activation (the
    feed-forward layer, the model width or the attention scores) within
    _BATCH_BYTES. A row's labels do not depend on the rows batched with it.
    """
    itemsize = next(iter(params.values())).itemsize

    def row_bytes(width: int) -> int:
        return width * max(config.d_model, config.d_ff, config.n_heads * width) * itemsize

    order = sorted(range(len(id_rows)), key=lambda i: len(id_rows[i]))
    out: list[list[int]] = [[] for _ in id_rows]
    start = 0
    while start < len(order):
        stop = start + 1
        while (stop < len(order) and (stop + 1 - start)
               * row_bytes(len(id_rows[order[stop]])) <= _BATCH_BYTES):
            stop += 1
        batch = order[start:stop]
        width = len(id_rows[batch[-1]])
        ids = np.zeros((len(batch), width), dtype=np.int64)
        mask = np.zeros((len(batch), width), dtype=bool)
        for i, row in enumerate(batch):
            ids[i, : len(id_rows[row])] = id_rows[row]
            mask[i, : len(id_rows[row])] = True
        logits, _ = forward(params, config, ids, mask, need_trace=False)
        pred = predict_labels(logits)
        for i, row in enumerate(batch):
            out[row] = pred[i, : len(id_rows[row])].tolist()
        start = stop
    return out


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
    if data.vocab is None or data.labels is None:
        raise CheckpointError(
            "checkpoint carries no vocabulary/label inventory; re-export it from training"
        )
    missing = sorted(set(corpus.label_inventory) - set(data.labels))
    if missing:
        raise FormatError(
            "label inventory mismatch: checkpoint lacks " + ", ".join(missing)
        )
    vocab = Vocabulary(list(data.vocab))
    label_index = label_index_from_types(data.labels)
    id_to_tag = [None] * len(label_index)
    for tag, idx in label_index.items():
        id_to_tag[idx] = tag

    gold_lists = [list(rec.labels) for rec in corpus.records]
    if gold_as_pred:
        pred_lists = [list(labels) for labels in gold_lists]
    else:
        id_rows = [[vocab.lookup(t.text) for t in rec.tokens] for rec in corpus.records]
        label_of = [TagLabel.from_tag(tag) for tag in id_to_tag]
        pred_ids = predict_label_ids(data.params, data.config, id_rows)
        pred_lists = [validate_bio([label_of[i] for i in row], "repair") for row in pred_ids]

    span = span_metrics(pred_lists, gold_lists)
    flat_pred = np.array(
        [label_index[lab.tag] for labels in pred_lists for lab in labels], dtype=np.int64
    )
    flat_gold = np.array(
        [label_index[lab.tag] for labels in gold_lists for lab in labels], dtype=np.int64
    )
    token = token_metrics(flat_pred, flat_gold, id_to_tag=id_to_tag)
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


def parse_comparison_rows(text: str) -> list[ComparisonRow]:
    """Parse `name,precision,f1` lines; `#` comments and blank lines are
    skipped, and a leading header line is tolerated.
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
        try:
            rows.append(ComparisonRow(parts[0], float(parts[1]), float(parts[2])))
        except ValueError as exc:
            if first_content:
                first_content = False
                continue  # header line
            raise FormatError(f"line {lineno}: malformed row {line!r} ({exc})") from None
        first_content = False
    if not rows:
        raise FormatError("results file contains no rows")
    return rows
