"""Command-line entry point.

Subcommands mirror the pipeline stages: gen-synthetic -> prepare ->
train -> eval / predict, plus compare for result tables. Settings come
from an INI-style config file (sections [data], [split], [model],
[train], [output]); --seed and --out override file values, and
MEDNER_SEED is the fallback seed when neither --seed nor the config
provides one.

Exit codes: 0 success, 2 usage error (errors.UsageError, raised only by
the checks of settings), 3 data/format error (errors.FormatError, a file
that cannot be read or written, a closed stdout included, or a size that
memory cannot hold), 4 numerical failure (errors.NumericalError,
divergence/NaN), 130 interrupted. Any other exception is a defect and
escapes main with its traceback.
Outputs are written to a temp file and renamed into place, so failures
never leave partial files behind.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import itertools
import json
import logging
import os
import re
import sys
import typing
from typing import Optional

import numpy as np

from . import corpus as corpus_mod
from . import evaluation, training
from .errors import FormatError, NumericalError, UsageError
from .ioutil import atomic_write_text, read_text
from .model import ModelConfig, load_checkpoint_full
from .training import TrainConfig

logger = logging.getLogger("medner")


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------


# The dataclass whose fields each of these sections sets; the data, not the
# file, gives ModelConfig its vocab_size and n_labels
CONFIG_CLASSES = {"split": corpus_mod.SplitSpec, "model": ModelConfig, "train": TrainConfig}
DATA_FIELDS = ("vocab_size", "n_labels")


def _field_casts(cls) -> dict:
    """Config key -> float or int, for each field of cls a file may set."""
    hints = typing.get_type_hints(cls)
    return {f.name: float if float in (hints[f.name], *typing.get_args(hints[f.name])) else int
            for f in dataclasses.fields(cls) if f.name not in DATA_FIELDS}


# Every key a config file may set, by section
CONFIG_KEYS = {"data": {"dir", "min_freq", "max_vocab"},
               **{name: set(_field_casts(cls)) for name, cls in CONFIG_CLASSES.items()},
               "output": {"dir", "precision"}}


def _load_config(path: Optional[str]) -> configparser.ConfigParser:
    """The config file at `path`, values read literally (no interpolation),
    with the path kept as `cp.path` for the errors that name it. An unknown
    section or key is a usage error naming it."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    cp.path = path
    if path is not None:
        try:
            cp.read_string(read_text(path), source=path)
        except configparser.Error as exc:
            raise FormatError(f"{path}: {exc}") from None
    # [DEFAULT] first: its keys would otherwise show up in every section
    for section in [cp.default_section] * bool(cp.defaults()) + cp.sections():
        if section not in CONFIG_KEYS:
            raise UsageError(f"{path}: [{section}]: unknown section "
                             f"(known: {', '.join(CONFIG_KEYS)})")
        for key in cp.options(section):
            if key not in CONFIG_KEYS[section]:
                raise UsageError(f"{path}: [{section}] {key}: unknown key "
                                 f"(known: {', '.join(sorted(CONFIG_KEYS[section]))})")
    return cp


def _cfg(cp, section: str, key: str, cast, default):
    """The value of [section] key cast to its type, or `default` when the
    file leaves it unset or empty; a value that does not parse is a usage
    error naming the file, the section, the key and the value."""
    raw = cp.get(section, key, fallback="").strip()
    if not raw:
        return default
    try:
        return cast(raw)
    except ValueError:
        raise UsageError(f"{cp.path}: [{section}] {key}: cannot parse {raw!r}") from None


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
            raise UsageError(f"MEDNER_SEED is not an integer: {env!r}") from None
    return default


def _config(cp, section: str, flag_seed: Optional[int] = None, **given):
    """The section's dataclass from `given`, the values the file sets, and
    the defaults; a seed goes by flag, file, MEDNER_SEED, then 0."""
    casts = _field_casts(CONFIG_CLASSES[section])
    values = {key: _cfg(cp, section, key, cast, None) for key, cast in casts.items()}
    values = {key: value for key, value in values.items() if value is not None}
    if "seed" in casts:
        values["seed"] = _resolve_seed(flag_seed, values.get("seed"), 0)
    return CONFIG_CLASSES[section](**given, **values)


def _precision_dtype(precision: int):
    if precision == 32:
        return np.float32
    if precision == 64:
        return np.float64
    raise UsageError(f"precision must be 32 or 64, got {precision}")


def _load_gold(path, mode: str = "strict", text: Optional[str] = None) -> corpus_mod.Corpus:
    """The labeled corpus at `path` (parsed from `text` when the file is
    read already), each record's labels as validate_bio(labels, mode)
    returns them: checked strict BIO, where an error names the file and
    the record, or repaired."""
    corpus = corpus_mod.load_corpus(path, text)
    for rec in corpus.records:
        try:
            rec.labels = corpus_mod.validate_bio(rec.labels, mode)
        except FormatError as exc:
            raise FormatError(f"{path}: record {rec.record_id!r}: {exc}") from None
    return corpus


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_prepare(args) -> int:
    cp = _load_config(args.config)
    out_dir = args.out or _cfg(cp, "data", "dir", str, "out")
    min_freq = _cfg(cp, "data", "min_freq", int, 1)
    max_vocab = _cfg(cp, "data", "max_vocab", int, 50000)
    corpus = _load_gold(args.corpus, "repair" if args.repair else "strict")
    for rec in corpus.records:
        corpus_mod.deidentify(rec)

    spec = _config(cp, "split", args.seed)
    try:
        train_c, val_c, test_c = corpus_mod.split(corpus, spec)
    except FormatError as exc:  # too few records to split
        raise FormatError(f"{args.corpus}: {exc}") from None
    for name, part in (("train", train_c), ("val", val_c), ("test", test_c)):
        if not part.records:
            logger.warning("%s split is empty under the current fractions", name)
    vocab = corpus_mod.build_vocab(train_c, min_freq=min_freq, max_vocab=max_vocab)

    os.makedirs(out_dir, exist_ok=True)
    for name, part in (("train", train_c), ("val", val_c), ("test", test_c)):
        atomic_write_text(os.path.join(out_dir, f"{name}.conll"),
                          corpus_mod.write_conll(part))
    atomic_write_text(os.path.join(out_dir, "vocab.txt"), "\n".join(vocab.id_to_token) + "\n")
    manifest = {
        "source": os.path.basename(args.corpus),
        "seed": spec.seed,
        "fractions": [spec.train_frac, spec.val_frac, spec.test_frac],
        "sizes": {"train": len(train_c), "val": len(val_c), "test": len(test_c)},
        "vocab_size": len(vocab),
        "label_inventory": corpus.label_inventory,
        "min_freq": min_freq,
        "max_vocab": max_vocab,
        "repair": bool(args.repair),
    }
    atomic_write_text(os.path.join(out_dir, "manifest.json"),
                      json.dumps(manifest, indent=2) + "\n")
    print(f"prepared {len(corpus)} records -> train={len(train_c)} "
          f"val={len(val_c)} test={len(test_c)}, vocab={len(vocab)} -> {out_dir}")
    return 0


def cmd_train(args) -> int:
    cp = _load_config(args.config)
    data_dir = _cfg(cp, "data", "dir", str, "out")
    out_dir = args.out or _cfg(cp, "output", "dir", str, data_dir)
    precision = _cfg(cp, "output", "precision", int, 32)

    train_path = os.path.join(data_dir, "train.conll")
    val_path = os.path.join(data_dir, "val.conll")
    vocab_path = os.path.join(data_dir, "vocab.txt")
    train_c = _load_gold(train_path)
    if not train_c.records:
        raise FormatError(f"{train_path}: training split is empty")
    # no val.conll at all, or a blank one, is an empty validation split and
    # train falls back; anything else at the name, a dangling link included,
    # is its reader's to name
    val_text = read_text(val_path) if os.path.lexists(val_path) else ""
    val_c = _load_gold(val_path, text=val_text) if val_text.strip() else None
    vocab = corpus_mod.Vocabulary.load(vocab_path)

    types = training.model_entity_types(train_c, val_c)
    model_config = _config(cp, "model", vocab_size=len(vocab),
                           n_labels=len(corpus_mod.label_index_from_types(types)))
    train_config = _config(cp, "train", args.seed)

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
    corpus = _load_gold(args.corpus)
    if not corpus.records:
        raise FormatError(f"{args.corpus}: no records to evaluate")
    report = evaluation.evaluate(load_checkpoint_full(args.checkpoint), corpus, args.corpus)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "eval_report.txt")
    atomic_write_text(report_path, report.render())
    print(report.summary())
    print(f"report -> {report_path}")
    return 0


# Unicode whitespace as str.split and str.strip see it
_WHITESPACE = re.compile(r"\s")


def _parse_token_blocks(text: str, path: str) -> list[list[str]]:
    """predict's input: records of one stripped token per line, split by
    lines that strip to nothing. A line starting "# " is a comment, which
    ends no record. Lines are str.splitlines lines; a line holding two
    tokens is an error naming it. The work runs in C over whole lists."""
    lines = text.splitlines()
    kept = [line for line in lines if not line.startswith("# ")] if "# " in text else lines
    blocks = [list(run) for nonblank, run in itertools.groupby(map(str.strip, kept), bool)
              if nonblank]
    if _WHITESPACE.search("".join(itertools.chain.from_iterable(blocks))):
        lineno, line = next((n, line) for n, line in enumerate(lines, start=1)
                            if not line.startswith("# ") and len(line.split()) > 1)
        raise FormatError(f"{path}: line {lineno}: expected one token per line, "
                          f"got {line!r}")
    if not blocks:
        raise FormatError(f"{path}: empty input: no token blocks found")
    return blocks


def cmd_predict(args) -> int:
    blocks = _parse_token_blocks(read_text(args.input), args.input)

    names = [f"{args.input}: block {b}" for b in range(1, len(blocks) + 1)]
    tagged = evaluation.tag_rows(load_checkpoint_full(args.checkpoint), blocks, names)
    text = "\n\n".join("\n".join(f"{tok}\t{lab.tag}" for tok, lab in zip(block, labels))
                        for block, labels in zip(blocks, tagged)) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        print(f"predictions -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_compare(args) -> int:
    text = read_text(args.results)
    try:
        rows = evaluation.parse_comparison_rows(text)
    except FormatError as exc:
        raise FormatError(f"{args.results}: {exc}") from None
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
    p.set_defaults(func="cmd_prepare")

    p = sub.add_parser("train", help="train the token classifier")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func="cmd_train")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a labeled corpus")
    p.add_argument("checkpoint")
    p.add_argument("corpus")
    p.add_argument("--out", default=None, help="directory for eval_report.txt")
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
        code = globals()[args.func](args)
        sys.stdout.flush()
        return code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError as exc:
        # The reader of stdout has gone. Point stdout at devnull so the flush
        # at exit cannot fail again (Python's signal docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: stdout: {exc.strerror}", file=sys.stderr)
        return 3
    except OSError as exc:
        name = exc.filename2 or exc.filename  # a failed rename names its target
        where = "" if name is None else f"{name}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        # a last resort, like a disk that fills up: the input asked for more
        # memory than this machine gives, whichever input it was
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
