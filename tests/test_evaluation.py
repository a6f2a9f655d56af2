"""Evaluation module: span and token metrics against the brute-force
oracle, report rendering, checkpoint-driven evaluation, and the
comparison table.
"""

import os
import random
import re
import threading
import time

import numpy as np
import pytest

from medner.corpus import (
    UNK_ID,
    Corpus,
    LabeledRecord,
    TagLabel,
    build_vocab,
    gen_synthetic,
    label_index_from_types,
    validate_bio,
)
from medner import evaluation
from medner.errors import FormatError
from medner.evaluation import (
    PRF,
    ComparisonRow,
    EvalReport,
    SpanMetrics,
    TokenMetrics,
    evaluate,
    format_pct,
    parse_comparison_rows,
    predict_label_ids,
    render_comparison,
    span_metrics,
    tag_rows,
    token_metrics,
)
from medner.model import ModelConfig, forward, init_params, load_checkpoint_full, save_checkpoint

from helpers import init_param_views
from oracles import (
    all_valid_bio,
    brute_force_match,
    brute_force_span_tally,
    brute_force_token_tally,
    is_valid_bio,
)
from test_model import rewrite_manifest


def tags(*strings):
    return [TagLabel.from_tag(s) for s in strings]


# ---------------------------------------------------------------------------
# span metrics
# ---------------------------------------------------------------------------


def test_span_perfect_match():
    gold = [tags("B-D", "I-D", "O", "B-G")]
    m = span_metrics(gold, gold)
    assert (m.micro.precision, m.micro.recall, m.micro.f1) == (1.0, 1.0, 1.0)
    assert m.micro.tp == 2 and m.micro.fp == 0 and m.micro.fn == 0


def test_span_no_predictions():
    gold = [tags("B-D", "O", "B-D", "O", "B-D")]
    pred = [tags("O", "O", "O", "O", "O")]
    m = span_metrics(pred, gold)
    assert (m.micro.precision, m.micro.recall, m.micro.f1) == (0.0, 0.0, 0.0)
    assert m.micro.fn == 3


def test_span_hand_case():
    gold = [tags("B-D", "I-D", "O", "O", "B-G", "O")]
    pred = [tags("B-D", "O", "O", "O", "B-G", "O")]
    m = span_metrics(pred, gold)
    # D: predicted (0,1) != gold (0,2); G: exact match
    assert m.micro.tp == 1 and m.micro.fp == 1 and m.micro.fn == 1
    assert m.micro.precision == 0.5 and m.micro.recall == 0.5 and m.micro.f1 == 0.5
    assert m.per_type["G"].tp == 1
    assert m.per_type["D"].tp == 0


def test_span_counts_tie_out():
    rng = random.Random(0)
    pool = ["O", "B-A", "I-A", "B-B", "I-B"]
    for _ in range(100):
        n = rng.randint(1, 10)
        gold_raw = _random_valid(rng, pool, n)
        pred_raw = [rng.choice(pool) for _ in range(n)]
        m = span_metrics([tags(*pred_raw)], [tags(*gold_raw)])
        gold_spans = sum(v.support for v in m.per_type.values())
        assert m.micro.tp + m.micro.fn == gold_spans


def _random_valid(rng, pool, n):
    while True:
        raw = [rng.choice(pool) for _ in range(n)]
        if is_valid_bio(raw):
            return raw


def _repair(raw):
    out = []
    prev = "O"
    for tag in raw:
        if tag.startswith("I-") and (prev == "O" or prev[2:] != tag[2:]):
            tag = "B-" + tag[2:]
        out.append(tag)
        prev = tag
    return out


def test_span_matches_brute_force_random_pairs():
    rng = random.Random(7)
    pool = ["O", "B-A", "I-A", "B-B", "I-B"]
    for _ in range(100):
        n = rng.randint(1, 10)
        gold_raw = _random_valid(rng, pool, n)
        pred_raw = [rng.choice(pool) for _ in range(n)]
        m = span_metrics([tags(*pred_raw)], [tags(*gold_raw)])
        tp, fp, fn = brute_force_match(_repair(pred_raw), gold_raw)
        assert (m.micro.tp, m.micro.fp, m.micro.fn) == (tp, fp, fn)


def test_span_symmetry_swapping_pred_gold():
    rng = random.Random(8)
    pool = ["O", "B-A", "I-A", "B-B", "I-B"]
    for _ in range(50):
        n = rng.randint(1, 8)
        a = _random_valid(rng, pool, n)
        b = _random_valid(rng, pool, n)
        m1 = span_metrics([tags(*a)], [tags(*b)])
        m2 = span_metrics([tags(*b)], [tags(*a)])
        assert m1.micro.precision == pytest.approx(m2.micro.recall)
        assert m1.micro.recall == pytest.approx(m2.micro.precision)
        assert m1.micro.f1 == pytest.approx(m2.micro.f1)


def test_span_concatenation_order_invariant():
    rng = random.Random(9)
    pool = ["O", "B-A", "I-A"]
    records = []
    for _ in range(12):
        n = rng.randint(1, 6)
        records.append((_random_valid(rng, pool, n), _random_valid(rng, pool, n)))
    preds = [tags(*p) for p, _ in records]
    golds = [tags(*g) for _, g in records]
    m1 = span_metrics(preds, golds)
    order = list(range(len(records)))
    rng.shuffle(order)
    m2 = span_metrics([preds[i] for i in order], [golds[i] for i in order])
    assert m1.micro == m2.micro


def test_span_monotonicity_counts():
    rng = random.Random(10)
    for _ in range(200):
        tp, fp, fn = rng.randint(0, 9), rng.randint(0, 9), rng.randint(1, 9)
        base = PRF(tp, fp, fn)
        hit = PRF(tp + 1, fp, fn - 1)   # one more correct prediction
        spurious = PRF(tp, fp + 1, fn)  # one more wrong prediction
        assert hit.precision >= base.precision
        assert hit.recall >= base.recall
        assert hit.f1 >= base.f1
        assert spurious.precision <= base.precision


def test_span_monotonicity_sequences():
    gold = [tags("B-A", "O", "B-A", "I-A")]
    missed = [tags("B-A", "O", "O", "O")]
    found = [tags("B-A", "O", "B-A", "I-A")]
    m_missed = span_metrics(missed, gold)
    m_found = span_metrics(found, gold)
    assert m_found.micro.precision >= m_missed.micro.precision
    assert m_found.micro.recall >= m_missed.micro.recall
    assert m_found.micro.f1 >= m_missed.micro.f1


def test_span_exhaustive_short_sequences():
    """Exact agreement with the brute-force matcher on every valid pair of
    length <= 4 over one type (the acceptance suite pushes this to 6)."""
    for length in range(1, 5):
        seqs = all_valid_bio(length, ["A"])
        for gold_raw in seqs:
            gold = tags(*gold_raw)
            for pred_raw in seqs:
                m = span_metrics([tags(*pred_raw)], [gold])
                assert (m.micro.tp, m.micro.fp, m.micro.fn) == brute_force_match(
                    list(pred_raw), list(gold_raw)
                )


def test_span_errors():
    with pytest.raises(ValueError, match="record count"):
        span_metrics([], [tags("O")])
    with pytest.raises(ValueError, match="length mismatch"):
        span_metrics([tags("O")], [tags("O", "O")])


def test_span_repairs_predictions_but_not_gold():
    pred = [tags("I-A", "I-A")]  # invalid, must be repaired
    gold = [tags("B-A", "I-A")]
    m = span_metrics(pred, gold)
    assert m.micro.tp == 1


# ---------------------------------------------------------------------------
# token metrics
# ---------------------------------------------------------------------------


def test_token_perfect():
    rows = [tags("O", "B-D", "I-D"), tags("B-D")]
    m = token_metrics(rows, rows, tags("O", "B-D", "I-D"))
    for tag in ("B-D", "I-D"):
        prf = m.per_label[tag]
        assert prf.precision == 1.0 and prf.recall == 1.0 and prf.f1 == 1.0
    assert m.micro.precision == 1.0 and m.micro.recall == 1.0


def test_token_all_o_predictions():
    gold = [tags("O", "B-D", "I-D", "O")]
    pred = [tags("O", "O", "O", "O")]
    m = token_metrics(pred, gold, tags("O", "B-D", "I-D"))
    assert m.micro.precision == 0.0 and m.micro.recall == 0.0 and m.micro.f1 == 0.0


def test_token_hand_tally():
    gold = [tags("B-D", "I-D", "O"), tags("O", "B-G", "O")]
    pred = [tags("B-D", "O", "O"), tags("O", "B-G", "O")]
    m = token_metrics(pred, gold, tags("O", "B-D", "I-D", "B-G", "I-G"))
    assert list(m.per_label) == ["O", "B-D", "I-D", "B-G", "I-G"]
    assert m.per_label["B-D"] == PRF(1, 0, 0)
    assert m.per_label["I-D"] == PRF(0, 0, 1)
    assert m.per_label["B-G"] == PRF(1, 0, 0)
    assert m.per_label["I-G"] == PRF(0, 0, 0)
    assert m.per_label["O"] == PRF(3, 1, 0)
    assert m.micro == PRF(2, 0, 1)
    assert m.micro.precision == 1.0
    assert m.micro.recall == pytest.approx(2 / 3)
    assert m.micro.f1 == pytest.approx(0.8)


def test_token_shape_mismatch():
    with pytest.raises(ValueError):
        token_metrics([tags("O", "O", "O")], [tags("O", "O", "O", "O")], tags("O"))
    with pytest.raises(ValueError):
        token_metrics([tags("O")], [tags("O"), tags("O")], tags("O"))


@pytest.mark.parametrize("n_records", [0, 1, 5, 40])
@pytest.mark.parametrize("seed", range(5))
def test_token_matches_brute_force_tally(n_records, seed):
    """Random label rows, valid BIO or not, against the one-token-at-a-time
    tally. The table holds O and B-C/I-C, which neither side uses."""
    rng = random.Random(seed)
    table = tags("O", "B-A", "I-A", "B-B", "I-B", "B-C", "I-C")
    pool = ["O", "B-A", "I-A", "B-B", "I-B"]
    lengths = [rng.randint(1, 9) for _ in range(n_records)]
    pred = [[rng.choice(pool) for _ in range(n)] for n in lengths]
    gold = [[rng.choice(pool) for _ in range(n)] for n in lengths]
    m = token_metrics([tags(*row) for row in pred], [tags(*row) for row in gold], table)
    tally = brute_force_token_tally([t for row in pred for t in row],
                                    [t for row in gold for t in row],
                                    [lab.tag for lab in table])
    assert m.per_label == {tag: PRF(*counts) for tag, counts in tally.items()}
    assert m.per_label["B-C"] == m.per_label["I-C"] == PRF(0, 0, 0)
    assert m.micro == PRF(*map(sum, zip(*(c for tag, c in tally.items() if tag != "O"))))


# ---------------------------------------------------------------------------
# evaluate (checkpoint-driven)
# ---------------------------------------------------------------------------


@pytest.fixture
def small_checkpoint(tmp_path):
    corpus = gen_synthetic(12, ["Disease", "Drug"], vocab_size=40, max_len=10, seed=6)
    vocab = build_vocab(corpus)
    labels = corpus.label_inventory
    cfg = ModelConfig(vocab_size=len(vocab),
                      n_labels=len(label_index_from_types(labels)),
                      d_model=16, n_heads=2, n_layers=1, d_ff=16, max_len=12,
                      dropout_rate=0.0)
    params = init_params(cfg, seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, cfg, seed=1, path=path, vocab=vocab.id_to_token,
                    labels=labels)
    return path, corpus


def test_evaluate_deterministic(small_checkpoint):
    path, corpus = small_checkpoint
    a = evaluate(load_checkpoint_full(path), corpus, "test")
    b = evaluate(load_checkpoint_full(path), corpus, "test")
    assert a.render() == b.render()


def test_evaluate_counts_consistent(small_checkpoint):
    path, corpus = small_checkpoint
    report = evaluate(load_checkpoint_full(path), corpus, "test")
    n_gold = sum(
        1 for rec in corpus.records
        for lab in rec.labels if lab.position == "B"
    )
    assert report.span.micro.tp + report.span.micro.fn == n_gold
    assert report.n_tokens == sum(len(r) for r in corpus.records)


def test_evaluate_inventory_mismatch_names_labels(small_checkpoint):
    path, _ = small_checkpoint
    alien = Corpus([LabeledRecord("x", ["tok"], tags("B-Virus"))], label_inventory=["Virus"])
    with pytest.raises(FormatError) as exc:
        evaluate(load_checkpoint_full(path), alien, "alien.conll")
    assert str(exc.value) == (f"alien.conll: label inventory mismatch: checkpoint {path} "
                              "lacks Virus")


def test_evaluate_requires_embedded_vocab(tmp_path):
    cfg = ModelConfig(vocab_size=4, n_labels=3, d_model=8, n_heads=2, n_layers=1,
                      d_ff=8, max_len=4, dropout_rate=0.0)
    path = tmp_path / "bare.ckpt"
    save_checkpoint(init_params(cfg, 0), cfg, seed=0, path=path,
                    vocab=["<PAD>", "<UNK>", "tok", "x"], labels=["D"])
    rewrite_manifest(path, lambda m: (m.pop("vocab"), m.pop("labels")))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: manifest 'vocab' and 'labels' must be lists of strings")):
        load_checkpoint_full(path)


def test_predict_label_ids_batches_by_length_in_input_order(monkeypatch):
    cfg = ModelConfig(vocab_size=30, n_labels=5, d_model=16, n_heads=2, n_layers=1,
                      d_ff=32, max_len=12, dropout_rate=0.0)
    params = init_param_views(cfg, seed=3)
    rng = np.random.default_rng(0)
    rows = [rng.integers(2, 30, size=n).tolist() for n in rng.integers(1, 13, size=200)]
    shapes = []

    def spy(params, config, ids, mask, **kwargs):
        shapes.append(ids.shape)
        return forward(params, config, ids, mask, **kwargs)

    monkeypatch.setattr(evaluation, "forward", spy)
    got = predict_label_ids(params, cfg, rows)

    # one row at a time: no padding and no other rows in the batch
    want = [np.argmax(forward(params, cfg, np.array([row]), need_trace=False)[0],
                      axis=-1).tolist() for row in rows]
    assert got == want
    assert sum(b for b, _ in shapes) == len(rows)
    widths = [t for _, t in shapes]
    assert widths == sorted(widths)
    assert len(shapes) < len(rows) / 4
    for b, t in shapes:
        assert b == 1 or b * t * max(cfg.d_model, cfg.d_ff, cfg.n_heads * t) * 4 \
            <= evaluation._BATCH_BYTES
    assert predict_label_ids(params, cfg, []) == []


def test_predict_logits_are_the_one_row_logits_in_input_order():
    cfg, params = _forked_config()
    rows = _random_rows(200)
    got = evaluation.predict_logits(params, cfg, rows)
    assert len(evaluation._batches(params, cfg, rows)) < len(rows) / 4

    # one row at a time, concatenated in input order
    want = np.concatenate([forward(params, cfg, np.array([row]), need_trace=False)[0]
                           for row in rows])
    assert got.shape == want.shape == (sum(map(len, rows)), cfg.n_labels)
    assert got.dtype == want.dtype == np.float32
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
    assert np.array_equal(np.argmax(got, axis=-1), np.argmax(want, axis=-1))
    assert evaluation.predict_logits(params, cfg, []).shape == (0, cfg.n_labels)


one_thread = pytest.mark.skipif(
    not evaluation._one_thread(),
    reason="this process runs more than one thread, so bulk inference does not fork "
           "(CI runs these with OPENBLAS_NUM_THREADS=1)")


def force_fork(monkeypatch, cpus=3):
    """Make predict_label_ids fork at two batches on `cpus` CPUs; returns
    the list of child pids that os.fork gives this process."""
    monkeypatch.setattr(evaluation, "_FORK_MIN_BATCHES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    real_fork, children = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return children


def refuse_fork(monkeypatch):
    """Make os.fork fail; returns the list of its calls. (predict_label_ids
    would forward a batch whose fork failed in process, so a raise alone
    would go unseen.)"""
    calls = []

    def fork():
        calls.append(1)
        raise OSError("fork refused by the test")

    monkeypatch.setattr(os, "fork", fork)
    return calls


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _random_rows(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(2, 30, size=k).tolist() for k in rng.integers(1, 13, size=n)]


def _forked_config():
    cfg = ModelConfig(vocab_size=30, n_labels=5, d_model=16, n_heads=2, n_layers=1,
                      d_ff=32, max_len=12, dropout_rate=0.0)
    return cfg, init_param_views(cfg, seed=3)


@one_thread
def test_forked_label_ids_equal_one_process(monkeypatch):
    cfg, params = _forked_config()
    rows = _random_rows(300)
    want = predict_label_ids(params, cfg, rows)
    monkeypatch.setattr(evaluation, "_BATCH_BYTES", 4096)
    n_batches = len(evaluation._batches(params, cfg, rows))
    assert n_batches >= 6
    assert predict_label_ids(params, cfg, rows) == want  # smaller batches, one process
    want_logits = evaluation.predict_logits(params, cfg, rows)
    children = force_fork(monkeypatch)
    assert predict_label_ids(params, cfg, rows) == want
    assert len(children) == 2
    # the same batches, so the same bits
    assert np.array_equal(evaluation.predict_logits(params, cfg, rows), want_logits)
    assert len(children) == 4
    assert_no_children()


@one_thread
def test_batches_a_child_fails_on_are_forwarded_here(monkeypatch):
    cfg, params = _forked_config()
    rows = _random_rows(300, seed=1)
    monkeypatch.setattr(evaluation, "_BATCH_BYTES", 4096)
    want = predict_label_ids(params, cfg, rows)
    parent, real = os.getpid(), evaluation._batch_logits
    forwarded_here = []

    def child_fails_on_its_second_batch(params, config, id_rows, batch):
        if os.getpid() == parent:
            forwarded_here.append(batch)
        elif batches.index(batch) >= 3:
            raise FloatingPointError("overflow encountered in exp")
        return real(params, config, id_rows, batch)

    batches = evaluation._batches(params, cfg, rows)
    monkeypatch.setattr(evaluation, "_batch_logits", child_fails_on_its_second_batch)
    children = force_fork(monkeypatch)
    assert predict_label_ids(params, cfg, rows) == want
    assert len(children) == 2
    # children 1 and 2 finished batches 1 and 2 only; this process forwarded the rest
    assert len(forwarded_here) == len(batches) - 2
    assert_no_children()


@one_thread
def test_an_interrupt_kills_and_reaps_the_children(monkeypatch):
    cfg, params = _forked_config()
    rows = _random_rows(300, seed=3)
    monkeypatch.setattr(evaluation, "_BATCH_BYTES", 4096)
    parent = os.getpid()

    def interrupted(params, config, id_rows, batch):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(evaluation, "_batch_logits", interrupted)
    children = force_fork(monkeypatch)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        predict_label_ids(params, cfg, rows)
    assert time.monotonic() - started < 30
    assert len(children) == 2
    assert_no_children()


def test_a_process_running_another_thread_tags_in_process(monkeypatch):
    cfg, params = _forked_config()
    rows = _random_rows(300, seed=2)
    monkeypatch.setattr(evaluation, "_BATCH_BYTES", 4096)
    want = predict_label_ids(params, cfg, rows)
    force_fork(monkeypatch)
    forks = refuse_fork(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert predict_label_ids(params, cfg, rows) == want
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def test_a_batch_fills_the_byte_budget_inclusive():
    """A batch grows while its widest activation stays within _BATCH_BYTES,
    the budget itself included: an 8-token row of this model takes
    8 x d_ff 32 x 4 bytes = 1 KiB, so 120 rows fill the 120 KiB exactly."""
    cfg, params = _forked_config()
    assert evaluation._BATCH_BYTES == 120 * 1024
    assert [len(b) for b in evaluation._batches(params, cfg, [[2] * 8] * 241)] == [120, 120, 1]


def test_batch_budget_stays_below_the_mmap_threshold():
    """glibc maps a request of 128 KiB or more afresh, so an inference batch
    whose widest activation reached it would fault in new pages."""
    assert evaluation._BATCH_BYTES < 128 * 1024


def test_report_render_keys(small_checkpoint):
    path, corpus = small_checkpoint
    text = evaluate(load_checkpoint_full(path), corpus, "test").render()
    lines = text.splitlines()
    assert "[spans]" in lines and "[tokens]" in lines
    assert lines.index("[spans]") < lines.index("[tokens]")
    assert any(ln.startswith("micro.f1 = ") for ln in lines)
    assert any(ln.startswith("type.Disease.precision = ") for ln in lines)
    assert any(ln.startswith("label.B-Drug.support = ") for ln in lines)
    for ln in lines:
        assert ln.startswith(("#", "[")) or " = " in ln


def test_evaluate_report_equals_the_oracles_report(small_checkpoint):
    """The report's bytes are those of the oracles' span and token counts
    over the tags that tag_rows gives, so they hold whichever BLAS computed
    the untrained model's tags."""
    path, corpus = small_checkpoint
    data = load_checkpoint_full(path)
    pred = [[lab.tag for lab in row] for row in
            tag_rows(data, [rec.tokens for rec in corpus.records],
                     [rec.record_id for rec in corpus.records])]
    gold = [[lab.tag for lab in rec.labels] for rec in corpus.records]
    spans = brute_force_span_tally(pred, gold)
    tokens = brute_force_token_tally([t for row in pred for t in row],
                                     [t for row in gold for t in row],
                                     [lab.tag for lab in data.tags])
    want = EvalReport(
        n_records=len(gold),
        n_tokens=sum(map(len, gold)),
        span=SpanMetrics(micro=PRF(*map(sum, zip(*spans.values()))),
                         per_type={etype: PRF(*c) for etype, c in spans.items()}),
        token=TokenMetrics(micro=PRF(*map(sum, zip(*(c for tag, c in tokens.items()
                                                      if tag != "O")))),
                           per_label={tag: PRF(*c) for tag, c in tokens.items()}))
    assert want.span.micro.fp and want.span.micro.fn and want.token.micro.tp
    assert evaluate(data, corpus, "test").render() == want.render()


# ---------------------------------------------------------------------------
# comparison table
# ---------------------------------------------------------------------------

TABLE_ROWS = [
    ComparisonRow("Bert", 82.5, 81.0),
    ComparisonRow("ClinicalBERT", 85.2, 83.5),
    ComparisonRow("SciBert", 84.1, 82.8),
    ComparisonRow("BlueBert", 87.3, 85.0),
    ComparisonRow("BioBert", 89.8, 87.6),
]


def test_render_contains_expected_lines():
    text = render_comparison(TABLE_ROWS[:1] + TABLE_ROWS[-1:])
    assert "Bert | 82.5 | 81.0" in text.splitlines()
    assert "BioBert | 89.8 | 87.6" in text.splitlines()


def test_render_single_row_three_lines():
    text = render_comparison([ComparisonRow("OnlyOne", 50.0, 40.0)])
    lines = text.strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == "Model | Precision% | F1-score"
    assert lines[2] == "OnlyOne | 50.0 | 40.0"


def test_round_half_up():
    assert format_pct(89.75) == "89.8"
    assert format_pct(82.25) == "82.3"
    assert format_pct(82.24) == "82.2"
    assert format_pct(100.0) == "100.0"


def test_render_preserves_order_and_validates():
    text = render_comparison(TABLE_ROWS)
    body = text.strip().splitlines()[2:]
    assert [ln.split(" | ")[0] for ln in body] == [r.model_name for r in TABLE_ROWS]
    with pytest.raises(ValueError):
        ComparisonRow("Bad", 101.0, 5.0)


def test_parse_comparison_rows():
    text = "model,precision,f1\nBert,82.5,81.0\n# comment\n\nBioBert,89.8,87.6\n"
    rows = parse_comparison_rows(text)
    assert [r.model_name for r in rows] == ["Bert", "BioBert"]
    with pytest.raises(FormatError):
        parse_comparison_rows("just-one-field\n")
    with pytest.raises(FormatError):
        parse_comparison_rows("")
    with pytest.raises(FormatError, match="line 2"):
        parse_comparison_rows("A,1.0,2.0\nB,notanumber,3\n")


def test_tag_rows_matches_one_row_forwards_repaired(small_checkpoint):
    path, corpus = small_checkpoint
    data = load_checkpoint_full(path)
    rows = [rec.tokens for rec in corpus.records] + [["never-seen", "x"]]
    tag_of = list(label_index_from_types(data.labels))
    raw = []
    for row in rows:
        ids = np.array([[data.vocab.token_to_id.get(text, UNK_ID) for text in row]])
        logits, _ = forward(data.params, data.config, ids, need_trace=False)
        raw.append([TagLabel.from_tag(tag_of[i]) for i in np.argmax(logits, axis=-1)])
    want = [validate_bio(labels, "repair") for labels in raw]
    assert want != raw  # the untrained model emits invalid I tags to repair
    got = tag_rows(data, rows, [f"row {i}" for i in range(len(rows))])
    assert got == want
    assert all(lab is TagLabel.from_tag(lab.tag) for labels in got for lab in labels)

    too_long = [["tok"] * (data.config.max_len + 1)]
    with pytest.raises(FormatError, match="row 0 has 13 tokens but the model's max_len is 12"):
        tag_rows(data, too_long, ["row 0"])
