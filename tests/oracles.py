"""Independent reference implementations used as test oracles.

Everything here is deliberately brute-force and shares no algorithm with
the package: span extraction enumerates every candidate run, the matcher
intersects span sets built that way, the binary cross-entropy
evaluates the textbook two-class formula directly, and the plateau
schedule recomputes every epoch's improvement from the whole prefix,
attention works one query row and one key at a time in plain floats,
the corpus parser and predict's token-block parser walk the text one
line at a time (the first builds the package's record types, so that its
result compares equal), and the synthetic generator draws through
random.choice and random.randint.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction


def brute_force_spans(tags: list[str]) -> list[tuple[int, int, str]]:
    """All maximal B(I)* runs, found by checking every (start, end) pair."""
    n = len(tags)
    spans = []
    for start in range(n):
        if not tags[start].startswith("B-"):
            continue
        etype = tags[start][2:]
        for end in range(start + 1, n + 1):
            body_ok = all(tags[k] == f"I-{etype}" for k in range(start + 1, end))
            maximal = end == n or tags[end] != f"I-{etype}"
            if body_ok and maximal:
                spans.append((start, end, etype))
    return sorted(spans)


def brute_force_match(pred_tags: list[str], gold_tags: list[str]) -> tuple[int, int, int]:
    """(tp, fp, fn) by enumerating and intersecting both span sets."""
    pred = set(brute_force_spans(pred_tags))
    gold = set(brute_force_spans(gold_tags))
    tp = len(pred & gold)
    return tp, len(pred) - tp, len(gold) - tp


def is_valid_bio(tags: list[str]) -> bool:
    prev = "O"
    for tag in tags:
        if tag.startswith("I-") and (prev == "O" or prev[2:] != tag[2:]):
            return False
        prev = tag
    return True


def all_valid_bio(length: int, types: list[str]) -> list[tuple[str, ...]]:
    """Every strict-BIO-valid tag sequence of exactly this length."""
    alphabet = ["O"] + [f"{pos}-{t}" for t in types for pos in ("B", "I")]
    return [
        seq
        for seq in itertools.product(alphabet, repeat=length)
        if is_valid_bio(list(seq))
    ]


def reference_attention(q, k, v, mask=None) -> tuple[list[list[float]], list[list[float]]]:
    """One head's scaled dot-product attention, row by row: query i weighs
    key j by exp(q_i . k_j / sqrt(d_k)) normalised over the unmasked keys,
    and masked keys (mask[j] false) weigh exactly 0. Returns (output,
    weights) as lists of rows."""
    q, k, v = ([[float(x) for x in row] for row in m] for m in (q, k, v))
    d_k = len(k[0])
    if any(len(row) != d_k for row in q) or len(k) != len(v):
        raise ValueError("incompatible q, k, v shapes")
    keep = [True] * len(k) if mask is None else [bool(m) for m in mask]
    if len(keep) != len(k):
        raise ValueError("mask length differs from the number of keys")
    if not any(keep):
        raise ValueError("all positions masked")
    weights = []
    for qi in q:
        scores = [sum(a * b for a, b in zip(qi, kj)) / math.sqrt(d_k) for kj in k]
        top = max(s for s, m in zip(scores, keep) if m)
        e = [math.exp(s - top) if m else 0.0 for s, m in zip(scores, keep)]
        total = sum(e)
        weights.append([x / total for x in e])
    out = [[sum(w * vj[c] for w, vj in zip(row, v)) for c in range(len(v[0]))]
           for row in weights]
    return out, weights


def binary_cross_entropy(y: list[int], y_prime: list[float]) -> float:
    """Two-class cross-entropy in its textbook binary form."""
    n = len(y)
    total = 0.0
    for yi, pi in zip(y, y_prime):
        total += yi * math.log(pi) + (1 - yi) * math.log(1 - pi)
    return -total / n


def plateau_schedule(losses: list[float], initial_lr: float, factor: float,
                     patience: int, min_lr: float,
                     threshold: float = 1e-6) -> list[tuple[int, float]]:
    """(stagnation count, lr for the next epoch) after each epoch.

    Epoch k improves iff k > 0 and losses[k] < min(losses[:k]) - threshold.
    The count walks back from k to the last improving epoch. Reductions
    come from a reduce-on-plateau counter that resets on improvement and
    after each reduction; the lr is initial_lr * factor**reductions,
    floored at min_lr and never above initial_lr.
    """
    improved = [k > 0 and losses[k] < min(losses[:k]) - threshold
                for k in range(len(losses))]
    out = []
    bad = reductions = 0
    for k in range(len(losses)):
        count = 0
        while count <= k and not improved[k - count]:
            count += 1
        if improved[k]:
            bad = 0
        else:
            bad += 1
            if bad == patience:
                reductions += 1
                bad = 0
        lr = min(initial_lr, max(initial_lr * factor**reductions, min_lr))
        out.append((count, lr))
    return out


def split_sizes(n: int, train_frac: Fraction, val_frac: Fraction) -> tuple[int, int, int]:
    """Partition sizes from exact fractional arithmetic, round half up."""
    tr = math.floor(train_frac * n + Fraction(1, 2))
    va = math.floor(val_frac * n + Fraction(1, 2))
    return tr, va, n - tr - va


def finite_difference_grads(loss_fn, params: dict, h: float = 1e-5) -> dict:
    """Central-difference gradient of loss_fn for every entry of every
    tensor; mutates entries in place and restores them.
    """
    import numpy as np

    grads = {}
    for name, arr in params.items():
        fd = np.zeros_like(arr)
        flat, fd_flat = arr.reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn(params)
            flat[i] = orig - h
            lm = loss_fn(params)
            flat[i] = orig
            fd_flat[i] = (lp - lm) / (2.0 * h)
        grads[name] = fd
    return grads


def max_relative_error(a, b, floor: float = 1e-8) -> float:
    import numpy as np

    denom = np.maximum(np.abs(a), np.abs(b))
    denom = np.where(denom < floor, 1.0, denom)
    return float((np.abs(a - b) / denom).max())


_WS_RE = re.compile(r"\s")
_TYPE_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*\Z")


def parse_conll_by_line(text: str):
    """The corpus format parsed one line of str.splitlines at a time, with
    the errors and line numbers corpus.parse_conll gives; the inventory is
    the declared types plus every type found by a scan of all labels."""
    from medner.corpus import Corpus, LabeledRecord, TagLabel
    from medner.errors import FormatError

    records = []
    declared_types = set()
    block_tokens = []
    block_labels = []
    block_id = None
    ordinal = 0

    def close_block():
        nonlocal block_id, ordinal
        if not block_tokens:
            block_id = None
            return
        rid = block_id if block_id is not None else f"{ordinal:04d}"
        records.append(LabeledRecord(rid, list(block_tokens), list(block_labels)))
        block_tokens.clear()
        block_labels.clear()
        block_id = None
        ordinal += 1

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            close_block()
            continue
        if line.startswith("# "):
            body = line[2:].strip()
            if body.startswith("id:"):
                block_id = body[3:].strip()
            elif body.startswith("types:"):
                for etype in body[6:].split():
                    if not _TYPE_RE.match(etype):
                        raise FormatError(f"line {lineno}: invalid entity type {etype!r}")
                    declared_types.add(etype)
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise FormatError(f"line {lineno}: malformed line {line!r} (want token<TAB>tag)")
        token, tag = parts
        if _WS_RE.search(token):
            raise FormatError(f"line {lineno}: token text contains whitespace: {token!r}")
        try:
            block_labels.append(TagLabel.from_tag(tag))
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        block_tokens.append(token)
    close_block()

    if not records and not declared_types:
        raise FormatError("empty file: no records found")
    present_types = {lab.entity_type for rec in records for lab in rec.labels} - {""}
    return Corpus(records, label_inventory=sorted(declared_types | present_types))


def parse_token_blocks_by_line(text: str, path: str) -> list[list[str]]:
    """predict's input parsed one line of str.splitlines at a time, with
    the errors cli._parse_token_blocks gives."""
    from medner.errors import FormatError

    blocks: list[list[str]] = []
    current: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            if current:
                blocks.append(current)
                current = []
            continue
        if line.startswith("# "):
            continue
        if len(stripped.split()) != 1:
            raise FormatError(f"{path}: line {lineno}: expected one token per line, "
                              f"got {line!r}")
        current.append(stripped)
    if current:
        blocks.append(current)
    if not blocks:
        raise FormatError(f"{path}: empty input: no token blocks found")
    return blocks


def gen_synthetic_by_call(n_records: int, entity_types, vocab_size: int, max_len: int,
                          seed: int):
    """corpus.gen_synthetic with every word and type drawn by rng.choice and
    every length by rng.randint, in two closures per record: the reference
    for the draws gen_synthetic writes out. Arguments are taken as valid."""
    import random

    from medner.corpus import O_LABEL, Corpus, LabeledRecord, TagLabel, _phi_filler, _pseudo_words

    types = list(entity_types)
    words = _pseudo_words(vocab_size)
    per_type = max(3, (2 * vocab_size // 5) // len(types))
    pools = {}
    for i, etype in enumerate(types):
        pools[etype] = words[i * per_type : (i + 1) * per_type]
    filler = words[len(types) * per_type :]

    rng = random.Random(seed)
    records = []
    for i in range(n_records):
        target = rng.randint(min(6, max_len), max_len)
        toks = []
        labs = []
        pending = [types[i % len(types)]]

        def emit_filler(count: int):
            for _ in range(count):
                text = _phi_filler(rng) if rng.random() < 0.02 else rng.choice(filler)
                toks.append(text)
                labs.append(O_LABEL)

        def emit_entity(etype: str):
            elen = rng.randint(1, min(3, target - len(toks)))
            pool = pools[etype]
            for j in range(elen):
                toks.append(rng.choice(pool))
                labs.append(TagLabel.from_tag(("B-" if j == 0 else "I-") + etype))

        emit_filler(rng.randint(0, 2))
        while len(toks) < target:
            if pending:
                etype = pending.pop()
            else:
                etype = rng.choice(types)
            emit_entity(etype)
            if len(toks) >= target:
                break
            emit_filler(rng.randint(1, min(3, target - len(toks))))
        records.append(LabeledRecord(f"{i:04d}", toks, labs))

    return Corpus(records, label_inventory=types)
