"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end and
quickstart criteria train real models, so this module takes a couple of
minutes; everything is seeded and deterministic.
"""

import math
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from medner.cli import main
from medner.corpus import (
    SplitSpec,
    TagLabel,
    build_vocab,
    gen_synthetic,
    label_index_from_types,
    load_corpus,
    split,
)
from medner.evaluation import ComparisonRow, evaluate, render_comparison, span_metrics
from medner.model import ModelConfig, forward, load_checkpoint_full, softmax
from medner.training import (
    TrainConfig,
    TrainLogRow,
    cross_entropy,
    lr_schedule,
    train,
)

from helpers import backward_grads, init_param_views
from oracles import (
    all_valid_bio,
    binary_cross_entropy,
    brute_force_match,
    finite_difference_grads,
    max_relative_error,
    split_sizes,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
QUICKSTART_CONFIG = REPO_ROOT / "configs" / "quickstart.ini"


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\n{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _run_quickstart(root: Path) -> tuple[Path, float]:
    """gen-synthetic -> prepare -> train -> eval, all relative to `root`."""
    started = time.time()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert main([
            "gen-synthetic", "--out", "data/synthetic.conll",
            "--n-records", "300", "--entity-types", "Disease,Drug,Symptom",
            "--vocab-size", "300", "--max-len", "16", "--seed", "42",
        ]) == 0
        assert main([
            "prepare", "data/synthetic.conll", "--config", str(QUICKSTART_CONFIG),
        ]) == 0
        assert main(["train", "--config", str(QUICKSTART_CONFIG)]) == 0
        assert main([
            "eval", "out/quickstart/best.ckpt", "out/quickstart/data/test.conll",
            "--out", "out/quickstart",
        ]) == 0
    finally:
        os.chdir(cwd)
    return root / "out" / "quickstart", time.time() - started


@pytest.fixture(scope="module")
def quickstart_runs(tmp_path_factory):
    first, first_duration = _run_quickstart(tmp_path_factory.mktemp("quickstart1"))
    second, _ = _run_quickstart(tmp_path_factory.mktemp("quickstart2"))
    return first, second, first_duration


# ---------------------------------------------------------------------------
# 1. End-to-end substitute for the published comparison numbers
# ---------------------------------------------------------------------------


def test_criterion_end_to_end_span_f1(tmp_path):
    """Synthetic corpus (2000 records, 3 types, vocab 500, max len 24,
    seed 42), 70/15/15 split, d_model=64/n_heads=4/n_layers=2 trained
    <= 50 epochs at lr 1e-3: span micro-F1 >= 0.90 on the test split in
    under 10 minutes."""
    start = time.time()
    corpus = gen_synthetic(2000, ["Disease", "Drug", "Symptom"],
                           vocab_size=500, max_len=24, seed=42)
    train_c, val_c, test_c = split(corpus, SplitSpec(seed=42))
    vocab = build_vocab(train_c)
    n_labels = len(label_index_from_types(corpus.label_inventory))
    mc = ModelConfig(vocab_size=len(vocab), n_labels=n_labels, d_model=64,
                     n_heads=4, n_layers=2, d_ff=128, max_len=32,
                     dropout_rate=0.0)
    tc = TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=15, seed=42)
    train(train_c, val_c, vocab, mc, tc, out_dir=tmp_path)
    report = evaluate(tmp_path / "best.ckpt", test_c)
    elapsed = time.time() - start
    f1 = report.span.micro.f1
    _report(
        "end-to-end span micro-F1 >= 0.90",
        f1 >= 0.90 and elapsed < 600.0,
        f"F1={f1:.4f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 2. Comparison-table fixture
# ---------------------------------------------------------------------------


def test_criterion_comparison_table_fixture():
    rows = [
        ComparisonRow("Bert", 82.5, 81.0),
        ComparisonRow("ClinicalBERT", 85.2, 83.5),
        ComparisonRow("SciBert", 84.1, 82.8),
        ComparisonRow("BlueBert", 87.3, 85.0),
        ComparisonRow("BioBert", 89.8, 87.6),
    ]
    body = render_comparison(rows).strip().splitlines()[2:]
    cells = [line.split(" | ") for line in body]
    rendered = ", ".join(f"{c[1]}/{c[2]}" for c in cells)
    expected = "82.5/81.0, 85.2/83.5, 84.1/82.8, 87.3/85.0, 89.8/87.6"
    sorted_body = render_comparison(
        sorted(rows, key=lambda r: -r.f1_pct)
    ).strip().splitlines()[2:]
    ok = rendered == expected and sorted_body[0] == "BioBert | 89.8 | 87.6"
    _report("comparison table renders the five fixture rows exactly", ok, rendered)


# ---------------------------------------------------------------------------
# 3. Loss-curve behavior: overfit probe plus quickstart stabilization
# ---------------------------------------------------------------------------


def test_criterion_loss_curve(quickstart_runs):
    start = time.time()
    corpus = gen_synthetic(4, ["Disease", "Drug"], vocab_size=30, max_len=10, seed=7)
    vocab = build_vocab(corpus)
    n_labels = len(label_index_from_types(corpus.label_inventory))
    mc = ModelConfig(vocab_size=len(vocab), n_labels=n_labels, d_model=32,
                     n_heads=4, n_layers=2, d_ff=64, max_len=16, dropout_rate=0.0)
    tc = TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=500, seed=3)
    result = train(corpus, None, vocab, mc, tc)
    overfit_loss = result.log.rows[-1].train_loss

    quickstart_dir, _, quickstart_duration = quickstart_runs
    rows = (quickstart_dir / "trainlog.csv").read_text().splitlines()[1:]
    losses = [float(row.split(",")[1]) for row in rows]
    tail = losses[-10:]
    tail_ratio = float(np.std(tail) / np.mean(tail))
    elapsed = (time.time() - start) + quickstart_duration

    ok = (overfit_loss < 0.01 and losses[-1] < losses[0]
          and tail_ratio < 0.10 and elapsed < 60.0)
    _report(
        "loss curve: overfit < 0.01, downward trend, stable tail",
        ok,
        f"overfit={overfit_loss:.2e}, first={losses[0]:.3f}, last={losses[-1]:.2e}, "
        f"tail std/mean={tail_ratio:.3f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 4. Gradient oracle
# ---------------------------------------------------------------------------


def test_criterion_gradient_oracle():
    start = time.time()
    worst = 0.0
    for seed in (0, 1, 2):
        cfg = ModelConfig(vocab_size=9, n_labels=3, d_model=8, n_heads=2,
                          n_layers=1, d_ff=10, max_len=4, dropout_rate=0.0)
        rng = np.random.default_rng(seed)
        params = init_param_views(cfg, seed=seed + 10, dtype=np.float64)
        ids = rng.integers(0, cfg.vocab_size, size=(2, 3))
        mask = np.ones((2, 3), dtype=bool)
        mask[1, 2] = False
        labels = rng.integers(0, cfg.n_labels, size=(2, 3))[mask]

        logits, trace = forward(params, cfg, ids, mask)
        _, dlogits = cross_entropy(logits, labels)
        grads = backward_grads(params, cfg, trace, dlogits)

        def loss_fn(p):
            lg, _ = forward(p, cfg, ids, mask, need_trace=False)
            return cross_entropy(lg, labels)[0]

        fd = finite_difference_grads(loss_fn, params, h=1e-5)
        for name in params:
            worst = max(worst, max_relative_error(grads[name], fd[name]))
    elapsed = time.time() - start
    _report(
        "gradients match 64-bit central finite differences",
        worst < 1e-5 and elapsed < 30.0,
        f"max rel err={worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. Binary-form equivalence of the loss at K=2
# ---------------------------------------------------------------------------


def test_criterion_binary_ce_equivalence():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 8))
        logits = rng.normal(scale=3, size=(n, 2))
        labels = rng.integers(0, 2, size=n)
        loss, _ = cross_entropy(logits, labels)
        y_prime = [
            math.exp(z[1]) / (math.exp(z[0]) + math.exp(z[1])) for z in logits
        ]
        ref = binary_cross_entropy(labels.tolist(), y_prime)
        worst = max(worst, abs(loss - ref))
    _report(
        "categorical CE at K=2 equals the binary form",
        worst < 1e-9,
        f"max abs diff={worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. Softmax / attention invariants
# ---------------------------------------------------------------------------


def test_criterion_softmax_attention_invariants():
    rng = np.random.default_rng(7)
    sum_err = shift_err = 0.0
    for _ in range(1000):
        z = rng.normal(scale=rng.uniform(0.1, 30), size=int(rng.integers(1, 12)))
        p = softmax(z)
        sum_err = max(sum_err, abs(float(p.sum()) - 1.0))
        shift = softmax(z + rng.normal(scale=50))
        shift_err = max(shift_err, float(np.abs(p - shift).max()))

    # the attention rows forward computes, on random masked batches, in both
    # precisions, with query/key weights scaled up so some rows are peaked
    row_err, mask_leak = 0.0, 0.0
    for trial in range(60):
        n_heads = int(rng.integers(1, 4))
        cfg = ModelConfig(vocab_size=11, n_labels=3, d_model=4 * n_heads, n_heads=n_heads,
                          n_layers=2, d_ff=8, max_len=8, dropout_rate=0.0)
        params = init_param_views(cfg, seed=trial,
                                  dtype=np.float32 if trial % 2 else np.float64)
        for name in ("enc.0.attn.wq", "enc.0.attn.wk"):
            params[name] *= rng.uniform(1, 30)
        b, t = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        ids = rng.integers(0, cfg.vocab_size, size=(b, t))
        mask = rng.random((b, t)) < 0.7
        mask[np.arange(b), rng.integers(0, t, size=b)] = True
        _, trace = forward(params, cfg, ids, mask)
        for lt in trace.layers:
            row_err = max(row_err, float(np.abs(lt.attn.probs.sum(axis=-1) - 1.0).max()))
            masked = np.broadcast_to(~mask[:, None, None, :], lt.attn.probs.shape)
            mask_leak = max(mask_leak, float(np.abs(lt.attn.probs[masked]).max(initial=0.0)))
    ok = sum_err < 1e-6 and shift_err < 1e-6 and row_err < 1e-6 and mask_leak == 0.0
    _report(
        "softmax sums/shift-invariance and attention row-stochasticity",
        ok,
        f"sum={sum_err:.1e}, shift={shift_err:.1e}, rows={row_err:.1e}, "
        f"masked={mask_leak:.1e}",
    )


# ---------------------------------------------------------------------------
# 7. Span-metric oracle
# ---------------------------------------------------------------------------


def test_criterion_span_metric_oracle():
    import random as pyrandom

    mismatches = 0
    checked = 0
    for length in range(1, 7):
        seqs = all_valid_bio(length, ["A"])
        as_labels = [[TagLabel.from_tag(t) for t in seq] for seq in seqs]
        for gi, gold_raw in enumerate(seqs):
            for pi, pred_raw in enumerate(seqs):
                m = span_metrics([as_labels[pi]], [as_labels[gi]]).micro
                ref = brute_force_match(list(pred_raw), list(gold_raw))
                checked += 1
                if (m.tp, m.fp, m.fn) != ref:
                    mismatches += 1

    rng = pyrandom.Random(5)
    pool = ["O", "B-A", "I-A", "B-B", "I-B"]
    for _ in range(100):
        n = rng.randint(7, 12)
        while True:
            gold_raw = [rng.choice(pool) for _ in range(n)]
            ok = True
            prev = "O"
            for t in gold_raw:
                if t.startswith("I-") and (prev == "O" or prev[2:] != t[2:]):
                    ok = False
                    break
                prev = t
            if ok:
                break
        while True:
            pred_raw = [rng.choice(pool) for _ in range(n)]
            ok = True
            prev = "O"
            for t in pred_raw:
                if t.startswith("I-") and (prev == "O" or prev[2:] != t[2:]):
                    ok = False
                    break
                prev = t
            if ok:
                break
        m = span_metrics(
            [[TagLabel.from_tag(t) for t in pred_raw]],
            [[TagLabel.from_tag(t) for t in gold_raw]],
        ).micro
        checked += 1
        if (m.tp, m.fp, m.fn) != brute_force_match(pred_raw, gold_raw):
            mismatches += 1
    _report(
        "span metrics equal the brute-force matcher",
        mismatches == 0,
        f"{checked} pairs, {mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# 8. Split contract
# ---------------------------------------------------------------------------


def test_criterion_split_contract():
    from fractions import Fraction

    problems = []
    for n in (3, 10, 100, 1234):
        corpus = gen_synthetic(n, ["D"], vocab_size=25, max_len=8, seed=n)
        expected = split_sizes(n, Fraction(70, 100), Fraction(15, 100))
        parts = split(corpus, SplitSpec(seed=99))
        sizes = tuple(len(p) for p in parts)
        if sizes != expected:
            problems.append(f"n={n}: sizes {sizes} != {expected}")
        ids = [r.record_id for p in parts for r in p.records]
        if sorted(ids) != sorted(r.record_id for r in corpus.records):
            problems.append(f"n={n}: not a partition")
        again = split(corpus, SplitSpec(seed=99))
        if any(
            [r.record_id for r in a.records] != [r.record_id for r in b.records]
            for a, b in zip(parts, again)
        ):
            problems.append(f"n={n}: not deterministic")
    _report(
        "split sizes, partition, and determinism for n in {3,10,100,1234}",
        not problems,
        "; ".join(problems) or "all exact",
    )


# ---------------------------------------------------------------------------
# 9. Scheduler contract
# ---------------------------------------------------------------------------


def test_criterion_scheduler_contract():
    config = TrainConfig(decay_factor=0.5, decay_patience=3, min_lr=1e-7)
    initial = 1e-3
    lr = initial
    used = []
    rows = []
    for epoch in range(1, 7):
        used.append(lr)
        rows.append(TrainLogRow(epoch, 1.0, 1.0, 0.0, lr))
        lr = lr_schedule(rows, config)
    used.append(lr)  # lr for the hypothetical epoch 7
    expected = [1e-3, 1e-3, 1e-3, 5e-4, 5e-4, 5e-4, 2.5e-4]
    floor_ok = True
    lr2 = initial
    rows2 = []
    for epoch in range(1, 200):
        rows2.append(TrainLogRow(epoch, 1.0, 1.0, 0.0, lr2))
        lr2 = lr_schedule(rows2, config)
        if lr2 < config.min_lr:
            floor_ok = False
    ok = used == expected and floor_ok and lr2 == config.min_lr
    _report(
        "plateau scheduler halves after epochs 3 and 6, floored at min_lr",
        ok,
        f"lr sequence {used}",
    )


# ---------------------------------------------------------------------------
# 10. Pipeline determinism
# ---------------------------------------------------------------------------


def test_criterion_pipeline_determinism(quickstart_runs):
    first, second, _ = quickstart_runs
    # the fixture yields .../out/quickstart; walk up to the run roots
    run1, run2 = first.parent.parent, second.parent.parent
    files = [
        "data/synthetic.conll",
        "out/quickstart/data/train.conll",
        "out/quickstart/data/val.conll",
        "out/quickstart/data/test.conll",
        "out/quickstart/data/vocab.txt",
        "out/quickstart/data/manifest.json",
        "out/quickstart/final.ckpt",
        "out/quickstart/best.ckpt",
        "out/quickstart/trainlog.csv",
        "out/quickstart/eval_report.txt",
    ]
    diffs = [
        rel for rel in files
        if (run1 / rel).read_bytes() != (run2 / rel).read_bytes()
    ]
    _report(
        "quickstart pipeline is byte-identical across reruns",
        not diffs,
        "; ".join(diffs) or f"{len(files)} files identical",
    )


# ---------------------------------------------------------------------------
# 11. No PHI-shaped token reaches the model
# ---------------------------------------------------------------------------

# The three de-identification rules as README states them: a bracketed
# [**...**] placeholder, a date-shaped token, a run of 5 or more digits.
PHI_SHAPED = re.compile(r"\[\*\*.*\*\*\]|\d{1,4}[/-]\d{1,4}[/-]\d{1,4}|.*\d{5,}.*")


def _phi_shaped(tokens) -> list[str]:
    return sorted({tok for tok in tokens if PHI_SHAPED.fullmatch(tok)})


def _corpus_tokens(path):
    return (tok for rec in load_corpus(path).records for tok in rec.tokens)


def test_criterion_no_phi_shaped_token_reaches_the_model(quickstart_runs):
    quickstart_dir, _, _ = quickstart_runs
    data = quickstart_dir / "data"
    raw = _phi_shaped(_corpus_tokens(quickstart_dir.parent.parent / "data/synthetic.conll"))
    assert raw, "the README corpus holds PHI-shaped tokens for prepare to replace"
    found = {name: _phi_shaped(_corpus_tokens(data / name))
             for name in ("train.conll", "val.conll", "test.conll")}
    found["vocab.txt"] = _phi_shaped((data / "vocab.txt").read_text().splitlines())
    for name in ("best.ckpt", "final.ckpt"):
        found[name] = _phi_shaped(load_checkpoint_full(quickstart_dir / name).vocab.id_to_token)
    _report(
        "no PHI-shaped token in the splits, vocab.txt or a checkpoint's vocabulary",
        not any(found.values()),
        f"{len(raw)} distinct PHI-shaped tokens in the raw corpus"
        + "".join(f"; {name}: {tokens}" for name, tokens in found.items() if tokens),
    )
