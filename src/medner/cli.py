"""Command-line entry point.

Subcommands mirror the pipeline stages: gen-synthetic -> prepare ->
train -> eval / predict, plus compare for result tables. Settings come
from an INI-style config file (sections [data], [split], [model],
[train], [output]); flags override file values, and MEDNER_SEED is the
fallback seed when neither a flag nor the config provides one.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numerical
failure (divergence/NaN). Outputs are written to a temp file and renamed
into place, so failures never leave partial files behind.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import logging
import os
import sys
from typing import Optional

import numpy as np

from . import corpus as corpus_mod
from . import evaluation, training
from .errors import BioViolationError, FormatError, NumericalError
from .ioutil import atomic_write_text, read_text
from .model import ModelConfig, load_checkpoint_full
from .training import TrainConfig

logger = logging.getLogger("medner")


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------


def _load_config(path: Optional[str]) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if path is not None:
        if not os.path.exists(path):
            raise FormatError(f"config file not found: {path}")
        try:
            cp.read_string(read_text(path), source=path)
        except configparser.Error as exc:
            raise FormatError(f"{path}: {exc}") from None
    return cp


def _cfg(cp, section: str, key: str, cast, default):
    if cp.has_option(section, key):
        raw = cp.get(section, key).strip()
        if raw:
            try:
                return cast(raw)
            except ValueError:
                raise FormatError(
                    f"config [{section}] {key}: cannot parse {raw!r}"
                ) from None
    return default


def _resolve_seed(flag_seed: Optional[int], config_seed: Optional[int], default: int) -> int:
    if flag_seed is not None:
        return flag_seed
    if config_seed is not None:
        return config_seed
    env = os.environ.get("MEDNER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise FormatError(f"MEDNER_SEED is not an integer: {env!r}") from None
    return default


def _split_spec(cp, flag_seed: Optional[int]) -> corpus_mod.SplitSpec:
    config_seed = _cfg(cp, "split", "seed", int, None)
    return corpus_mod.SplitSpec(
        train_frac=_cfg(cp, "split", "train_frac", float, 0.70),
        val_frac=_cfg(cp, "split", "val_frac", float, 0.15),
        test_frac=_cfg(cp, "split", "test_frac", float, 0.15),
        seed=_resolve_seed(flag_seed, config_seed, 0),
    )


def _model_config(cp, vocab_size: int, n_labels: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab_size,
        n_labels=n_labels,
        d_model=_cfg(cp, "model", "d_model", int, 64),
        n_heads=_cfg(cp, "model", "n_heads", int, 4),
        n_layers=_cfg(cp, "model", "n_layers", int, 2),
        d_ff=_cfg(cp, "model", "d_ff", int, 128),
        max_len=_cfg(cp, "model", "max_len", int, 128),
        dropout_rate=_cfg(cp, "model", "dropout_rate", float, 0.1),
    )


def _train_config(cp, flag_seed: Optional[int]) -> TrainConfig:
    config_seed = _cfg(cp, "train", "seed", int, None)
    return TrainConfig(
        learning_rate=_cfg(cp, "train", "learning_rate", float, 2e-5),
        batch_size=_cfg(cp, "train", "batch_size", int, 16),
        max_epochs=_cfg(cp, "train", "max_epochs", int, 20),
        decay_factor=_cfg(cp, "train", "decay_factor", float, 0.5),
        decay_patience=_cfg(cp, "train", "decay_patience", int, 3),
        min_lr=_cfg(cp, "train", "min_lr", float, 1e-7),
        seed=_resolve_seed(flag_seed, config_seed, 0),
        grad_clip_norm=_cfg(cp, "train", "grad_clip_norm", float, None),
        early_stop_patience=_cfg(cp, "train", "early_stop_patience", int, None),
    )


def _precision_dtype(precision: int):
    if precision == 32:
        return np.float32
    if precision == 64:
        return np.float64
    raise ValueError(f"precision must be 32 or 64, got {precision}")


def _require_file(path, hint: str):
    if not os.path.exists(path):
        raise FormatError(f"{hint} not found: {path}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_prepare(args) -> int:
    cp = _load_config(args.config)
    out_dir = args.out or _cfg(cp, "data", "dir", str, "out")
    min_freq = args.min_freq if args.min_freq is not None else _cfg(cp, "data", "min_freq", int, 1)
    max_vocab = args.max_vocab if args.max_vocab is not None else _cfg(cp, "data", "max_vocab", int, 50000)
    _require_file(args.corpus, "corpus file")
    corpus = corpus_mod.load_corpus(args.corpus)

    deid = [corpus_mod.deidentify(rec) for rec in corpus.records]
    cleaned = []
    for rec in deid:
        if args.repair:
            labels = corpus_mod.validate_bio(rec.labels, "repair")
            cleaned.append(corpus_mod.LabeledRecord(rec.record_id, rec.tokens, labels))
        else:
            try:
                corpus_mod.validate_bio(rec.labels, "strict")
            except BioViolationError as exc:
                raise FormatError(f"record {rec.record_id!r}: {exc}") from None
            cleaned.append(rec)
    prepared = corpus_mod.Corpus(cleaned, label_inventory=corpus.label_inventory)

    spec = _split_spec(cp, args.seed)
    train_c, val_c, test_c = corpus_mod.split(prepared, spec)
    for name, part in (("train", train_c), ("val", val_c), ("test", test_c)):
        if not part.records:
            logger.warning("%s split is empty under the current fractions", name)
    vocab = corpus_mod.build_vocab(train_c, min_freq=min_freq, max_size=max_vocab)

    os.makedirs(out_dir, exist_ok=True)
    for name, part in (("train", train_c), ("val", val_c), ("test", test_c)):
        atomic_write_text(os.path.join(out_dir, f"{name}.conll"),
                          corpus_mod.write_conll(part))
    vocab_tmp = os.path.join(out_dir, "vocab.txt")
    atomic_write_text(vocab_tmp, "\n".join(vocab.id_to_token) + "\n")
    manifest = {
        "source": os.path.basename(args.corpus),
        "seed": spec.seed,
        "fractions": [spec.train_frac, spec.val_frac, spec.test_frac],
        "sizes": {"train": len(train_c), "val": len(val_c), "test": len(test_c)},
        "vocab_size": len(vocab),
        "label_inventory": prepared.label_inventory,
        "min_freq": min_freq,
        "max_vocab": max_vocab,
        "repair": bool(args.repair),
    }
    atomic_write_text(os.path.join(out_dir, "manifest.json"),
                      json.dumps(manifest, indent=2) + "\n")
    print(f"prepared {len(prepared)} records -> train={len(train_c)} "
          f"val={len(val_c)} test={len(test_c)}, vocab={len(vocab)} -> {out_dir}")
    return 0


def cmd_train(args) -> int:
    cp = _load_config(args.config)
    data_dir = _cfg(cp, "data", "dir", str, "out")
    out_dir = args.out or _cfg(cp, "output", "dir", str, data_dir)
    precision = args.precision or _cfg(cp, "output", "precision", int, 32)

    train_path = os.path.join(data_dir, "train.conll")
    val_path = os.path.join(data_dir, "val.conll")
    vocab_path = os.path.join(data_dir, "vocab.txt")
    _require_file(train_path, "prepared training split (run `medner prepare` first)")
    _require_file(vocab_path, "vocabulary file (run `medner prepare` first)")
    train_c = corpus_mod.load_corpus(train_path)
    val_c = None
    if os.path.exists(val_path):
        try:
            val_c = corpus_mod.load_corpus(val_path)
        except FormatError as exc:
            if "empty file" not in str(exc):
                raise
            # an empty validation split was prepared; train falls back
    vocab = corpus_mod.Vocabulary.load(vocab_path)

    inventory = set(train_c.label_inventory)
    if val_c is not None:
        inventory |= set(val_c.label_inventory)
    n_labels = len(corpus_mod.label_index_from_types(inventory))
    model_config = _model_config(cp, vocab_size=len(vocab), n_labels=n_labels)
    train_config = _train_config(cp, args.seed)

    def progress(row):
        print(f"epoch {row.epoch}: train_loss={row.train_loss:.6g} "
              f"val_loss={row.val_loss:.6g} val_f1={row.val_span_f1:.6g} "
              f"lr={row.learning_rate:.6g}")

    result = training.train(
        train_c, val_c, vocab, model_config, train_config,
        out_dir=out_dir, dtype=_precision_dtype(precision), progress=progress,
    )
    print(f"done: best epoch {result.best_epoch}; wrote final.ckpt, best.ckpt, "
          f"trainlog.csv -> {out_dir}")
    return 0


def cmd_eval(args) -> int:
    _require_file(args.checkpoint, "checkpoint")
    _require_file(args.corpus, "corpus file")
    corpus = corpus_mod.load_corpus(args.corpus)
    report = evaluation.evaluate(args.checkpoint, corpus,
                                 gold_as_pred=args.gold_as_pred)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "eval_report.txt")
    atomic_write_text(report_path, report.render())
    print(report.summary())
    print(f"report -> {report_path}")
    return 0


def _parse_token_blocks(text: str) -> list[list[str]]:
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
            raise FormatError(f"line {lineno}: expected one token per line, got {line!r}")
        current.append(stripped)
    if current:
        blocks.append(current)
    if not blocks:
        raise FormatError("empty input: no token blocks found")
    return blocks


def cmd_predict(args) -> int:
    _require_file(args.checkpoint, "checkpoint")
    _require_file(args.input, "input file")
    blocks = _parse_token_blocks(read_text(args.input))

    data = load_checkpoint_full(args.checkpoint)
    if data.vocab is None or data.labels is None:
        raise FormatError("checkpoint carries no vocabulary/label inventory")
    vocab = corpus_mod.Vocabulary(list(data.vocab))
    label_index = corpus_mod.label_index_from_types(data.labels)
    id_to_tag = [None] * len(label_index)
    for tag, idx in label_index.items():
        id_to_tag[idx] = tag
    label_of = [corpus_mod.TagLabel.from_tag(tag) for tag in id_to_tag]

    id_rows = [[vocab.lookup(tok) for tok in block] for block in blocks]
    pred_rows = evaluation.predict_label_ids(data.params, data.config, id_rows)
    out_lines: list[str] = []
    for b, (block, preds) in enumerate(zip(blocks, pred_rows)):
        labels = corpus_mod.validate_bio([label_of[i] for i in preds], "repair")
        if b > 0:
            out_lines.append("")
        out_lines.extend(f"{tok}\t{lab.tag}" for tok, lab in zip(block, labels))
    text = "\n".join(out_lines) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        print(f"predictions -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_compare(args) -> int:
    _require_file(args.results, "results file")
    rows = evaluation.parse_comparison_rows(read_text(args.results))
    if args.sort:
        rows = sorted(rows, key=lambda r: -r.f1_pct)
    sys.stdout.write(evaluation.render_comparison(rows))
    return 0


def cmd_gen_synthetic(args) -> int:
    entity_types = [t.strip() for t in args.entity_types.split(",") if t.strip()]
    seed = _resolve_seed(args.seed, None, 0)
    corpus = corpus_mod.gen_synthetic(
        n_records=args.n_records,
        entity_types=entity_types,
        vocab_size=args.vocab_size,
        max_len=args.max_len,
        seed=seed,
    )
    header = (
        "# generated-by: medner gen-synthetic\n"
        f"# params: n_records={args.n_records} entity_types={','.join(entity_types)} "
        f"vocab_size={args.vocab_size} max_len={args.max_len} seed={seed}\n"
    )
    atomic_write_text(args.out, header + corpus_mod.write_conll(corpus))
    print(f"wrote {len(corpus)} records -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# Built once per process: building it costs more than a one-record predict.
# It names each subcommand's function, which main looks up when it runs.
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medner",
        description="Clinical-style NER toolkit: corpus prep, transformer "
                    "training, span-level evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="de-identify, validate, split, build vocab")
    p.add_argument("corpus", help="labeled corpus file (token<TAB>tag lines)")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--repair", action="store_true",
                   help="repair invalid BIO sequences instead of failing")
    p.add_argument("--min-freq", type=int, default=None,
                   help="minimum token frequency for the vocabulary (default 1)")
    p.add_argument("--max-vocab", type=int, default=None,
                   help="vocabulary size cap including PAD/UNK (default 50000)")
    p.set_defaults(func="cmd_prepare")

    p = sub.add_parser("train", help="train the token classifier")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--precision", type=int, choices=(32, 64), default=None)
    p.set_defaults(func="cmd_train")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a labeled corpus")
    p.add_argument("checkpoint")
    p.add_argument("corpus")
    p.add_argument("--out", default=None, help="directory for eval_report.txt")
    p.add_argument("--gold-as-pred", action="store_true",
                   help="score the gold labels against themselves (oracle)")
    p.set_defaults(func="cmd_eval")

    p = sub.add_parser("predict", help="tag a pre-tokenized text file")
    p.add_argument("checkpoint")
    p.add_argument("input", help="one token per line, blank line between records")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func="cmd_predict")

    p = sub.add_parser("compare", help="render a model-comparison table")
    p.add_argument("results", help="CSV of name,precision,f1 rows")
    p.add_argument("--sort", action="store_true", help="order by F1 descending")
    p.set_defaults(func="cmd_compare")

    p = sub.add_parser("gen-synthetic", help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True, help="output corpus file")
    p.add_argument("--n-records", type=int, default=200)
    p.add_argument("--entity-types", default="Disease,Drug,Symptom")
    p.add_argument("--vocab-size", type=int, default=120)
    p.add_argument("--max-len", type=int, default=16)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func="cmd_gen_synthetic")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s: %(message)s")
    try:
        return globals()[args.func](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
