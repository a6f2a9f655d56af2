"""CLI end-to-end: every subcommand, exit codes, and byte-level
reproducibility of outputs.
"""

import hashlib
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import medner
from medner.cli import _parse_token_blocks, main
from medner.corpus import gen_synthetic, load_corpus, parse_conll, validate_bio
from medner.errors import FormatError
from medner.model import (ModelConfig, ParamLayout, init_params, load_checkpoint_full,
                          save_checkpoint, sinusoidal_positions)

from oracles import parse_token_blocks_by_line
from test_evaluation import assert_no_children, force_fork, one_thread, refuse_fork
from test_model import rewrite_manifest

QUICK_CONFIG = """\
[data]
dir = {data_dir}

[split]
train_frac = 0.70
val_frac = 0.15
test_frac = 0.15
seed = 11

[model]
d_model = 16
n_heads = 2
n_layers = 1
d_ff = 24
max_len = 16
dropout_rate = 0.0

[train]
learning_rate = 1e-3
batch_size = 8
max_epochs = 4
seed = 11

[output]
dir = {out_dir}
precision = 32
"""


def write_config(tmp_path, name="run.ini"):
    data_dir = tmp_path / "prepared"
    out_dir = tmp_path / "run"
    cfg = tmp_path / name
    cfg.write_text(QUICK_CONFIG.format(data_dir=data_dir, out_dir=out_dir))
    return cfg, data_dir, out_dir


def gen_corpus(tmp_path, n=60, seed=11):
    path = tmp_path / "raw.conll"
    rc = main(["gen-synthetic", "--out", str(path), "--n-records", str(n),
               "--entity-types", "Disease,Drug", "--vocab-size", "40",
               "--max-len", "12", "--seed", str(seed)])
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# gen-synthetic
# ---------------------------------------------------------------------------


def test_gen_synthetic_output_is_valid(tmp_path, capsys):
    path = gen_corpus(tmp_path)
    corpus = load_corpus(path)
    assert len(corpus) == 60
    assert corpus.label_inventory == ["Disease", "Drug"]
    for rec in corpus.records:
        assert validate_bio(rec.labels, "strict") == rec.labels
    header = path.read_text().splitlines()[0]
    assert header.startswith("# generated-by")


def test_gen_synthetic_reproducible(tmp_path):
    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
    a = gen_corpus(tmp_path / "a", seed=7)
    b = gen_corpus(tmp_path / "b", seed=7)
    c = gen_corpus(tmp_path / "c", seed=8)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_synthetic_three_types(tmp_path):
    out = tmp_path / "three.conll"
    main(["gen-synthetic", "--out", str(out), "--n-records", "30",
          "--entity-types", "Disease,Drug,Symptom", "--seed", "0"])
    assert load_corpus(out).label_inventory == ["Disease", "Drug", "Symptom"]


def test_gen_synthetic_bad_sizes_usage_error(tmp_path):
    rc = main(["gen-synthetic", "--out", str(tmp_path / "x.conll"),
               "--vocab-size", "5"])
    assert rc == 2


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def test_prepare_splits_100_records(tmp_path, capsys):
    raw = tmp_path / "raw.conll"
    main(["gen-synthetic", "--out", str(raw), "--n-records", "100", "--seed", "3"])
    out = tmp_path / "prep"
    assert main(["prepare", str(raw), "--out", str(out), "--seed", "5"]) == 0
    sizes = {name: len(load_corpus(out / f"{name}.conll"))
             for name in ("train", "val", "test")}
    assert sizes == {"train": 70, "val": 15, "test": 15}
    assert (out / "vocab.txt").exists()
    assert json.loads((out / "manifest.json").read_text())["repair"] is False
    vocab_lines = (out / "vocab.txt").read_text().splitlines()
    assert vocab_lines[:2] == ["<PAD>", "<UNK>"]


def test_prepare_rerun_byte_identical(tmp_path):
    raw = gen_corpus(tmp_path)
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    main(["prepare", str(raw), "--out", str(out1), "--seed", "5"])
    main(["prepare", str(raw), "--out", str(out2), "--seed", "5"])
    for name in ("train.conll", "val.conll", "test.conll", "vocab.txt",
                 "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# sha256 of each file prepare writes for the corpus below; a change to
# parsing, de-identification, BIO repair, splitting, the vocabulary or the
# writers that moves one byte of these outputs fails here
PREPARED_SHA256 = {
    "manifest.json": "36c0408f3fe8685cd85433c0a0fd2fbfcb716a10542fa51d9d465ce95bd30852",
    "test.conll": "8b5ccb78ec731cc6466264ca91fa3ee149cd90f1337250268f642dbacde1e282",
    "train.conll": "0c8697308bb064e9d48970144bd32121e8ca063fb72860978e5db8941cfdb041",
    "val.conll": "438d6236bb3cf035972057e2239c025bcda63f2f3597672510ca9c0fa31c5baa",
    "vocab.txt": "82c266a7ff0a4eb8ed89dac959f8fd7360302ace28205be42e37427423152818",
}


def test_prepare_outputs_are_pinned(tmp_path):
    raw = gen_corpus(tmp_path)
    with raw.open("a", encoding="utf-8") as fh:
        fh.write("\n# id: extra-1\nSeen\tO\n12/03/2019\tO\nzatoril\tI-Drug\n"
                 "[**Name**]\tI-Drug\n\n# id: extra-2\nmrn:99887766\tB-Disease\n"
                 "x\tI-Disease\ny\tI-Drug\n")
    cfg = tmp_path / "min_freq.ini"
    cfg.write_text("[data]\nmin_freq = 2\n")
    out = tmp_path / "prep"
    assert main(["prepare", str(raw), "--config", str(cfg), "--out", str(out), "--seed", "5",
                 "--repair"]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in sorted(PREPARED_SHA256)}
    assert got == PREPARED_SHA256


def test_prepare_applies_deid(tmp_path):
    raw = tmp_path / "raw.conll"
    raw.write_text("seen\tO\n12/03/2019\tO\n1234567\tO\n\n"
                   "a\tO\n\nb\tO\n")
    out = tmp_path / "prep"
    # 3 records: sizes (2, 0, 1)
    assert main(["prepare", str(raw), "--out", str(out), "--seed", "1"]) == 0
    text = "".join((out / f"{n}.conll").read_text()
                   for n in ("train", "val", "test"))
    assert "12/03/2019" not in text and "1234567" not in text
    assert "<DATE>" in text and "<ID>" in text


def test_prepare_with_reserved_texts_in_the_train_split(tmp_path):
    raw = tmp_path / "raw.conll"
    raw.write_text("".join(f"<PAD>\tO\n<UNK>\tB-D\n{tok}\tO\n\n" for tok in "abc"))
    out = tmp_path / "prep"
    assert main(["prepare", str(raw), "--out", str(out), "--seed", "1"]) == 0
    vocab = (out / "vocab.txt").read_text().splitlines()
    assert vocab[:2] == ["<PAD>", "<UNK>"]
    assert vocab.count("<PAD>") == vocab.count("<UNK>") == 1
    assert "<PAD>\tO\n<UNK>\tB-D\n" in (out / "train.conll").read_text()


def test_prepare_invalid_tag_reports_line(tmp_path, capsys):
    raw = tmp_path / "raw.conll"
    raw.write_text("a\tO\nb\tO\nc\tBAD-\n")
    rc = main(["prepare", str(raw), "--out", str(tmp_path / "p")])
    assert rc == 3
    assert "line 3" in capsys.readouterr().err


def test_prepare_strict_bio_failure_names_record(tmp_path, capsys):
    raw = tmp_path / "raw.conll"
    raw.write_text("a\tO\n\n# id: broken\nb\tI-D\n\nc\tO\n")
    rc = main(["prepare", str(raw), "--out", str(tmp_path / "p")])
    assert rc == 3
    assert "broken" in capsys.readouterr().err
    # with --repair it goes through
    rc = main(["prepare", str(raw), "--out", str(tmp_path / "p2"), "--repair"])
    assert rc == 0


@pytest.mark.parametrize("verb", ["prepare", "eval"])
def test_invalid_declared_type_exits_3_naming_file_and_line(tmp_path, capsys, verb):
    """A `# types:` entry is an entity type like any other: a bad one is
    rejected where the file is read, not written into every split."""
    bad = tmp_path / "gold.conll"
    bad.write_text("aspirin\tB-Drug\n\n# types: Drug Bad-Type\naspirin\tO\n")
    argv = {"prepare": ["prepare", str(bad)],
            "eval": ["eval", str(_tiny_checkpoint(tmp_path / "model.ckpt")), str(bad)]}[verb]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"error: {bad}: line 3: invalid entity type 'Bad-Type'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, needle", [
    ("min_freq", "-3", "min_freq must be >= 1, got -3"),
    ("min_freq", "0", "min_freq must be >= 1, got 0"),
    ("max_vocab", "1", "max_vocab must be >= 2 to hold PAD and UNK, got 1"),
])
@pytest.mark.parametrize("source", ["config"])
def test_prepare_out_of_range_vocab_setting_exits_2_naming_it(tmp_path, capsys, source,
                                                              key, value, needle):
    """A vocabulary setting below its floor is a usage error, not silently
    read as the floor."""
    raw = gen_corpus(tmp_path)
    cfg, data_dir, _ = write_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("[data]\n", f"[data]\n{key} = {value}\n"))
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {needle}\n"
    assert not data_dir.exists()


def test_prepare_missing_file(tmp_path, capsys):
    assert main(["prepare", str(tmp_path / "nope.conll")]) == 3


def test_prepare_too_few_records_exits_3_naming_file(tmp_path, capsys):
    raw = tmp_path / "raw.conll"
    raw.write_text("a\tB-D\n\nb\tO\n")
    assert main(["prepare", str(raw), "--out", str(tmp_path / "p")]) == 3
    assert capsys.readouterr().err == (f"error: {raw}: corpus must have at least 3 "
                                       "records to split, got 2\n")
    assert not (tmp_path / "p").exists()


def test_prepare_carries_declared_and_present_types_into_every_output(tmp_path):
    """The inventory decided at parse time, declared-only types included,
    reaches the manifest and every split, even a split lacking a type."""
    raw = tmp_path / "raw.conll"
    raw.write_text("# types: Zed\na\tB-Drug\n\nb\tB-Disease\n\nc\tO\n\nd\tO\n")
    out = tmp_path / "prep"
    assert main(["prepare", str(raw), "--out", str(out), "--seed", "1"]) == 0
    inventory = ["Disease", "Drug", "Zed"]
    assert json.loads((out / "manifest.json").read_text())["label_inventory"] == inventory
    present = []
    for name in ("train", "val", "test"):
        text = (out / f"{name}.conll").read_text()
        assert text.splitlines()[0] == "# types: Disease Drug Zed", name
        assert load_corpus(out / f"{name}.conll").label_inventory == inventory, name
        present.append({t[2:] for t in re.findall(r"\t([BI]-\w+)", text)})
    assert any(types < {"Disease", "Drug"} for types in present)


def test_tiny_corpus_with_empty_val_split_trains(tmp_path, capsys):
    """A 3-record corpus splits 2/0/1; training must fall back to the
    train loss instead of choking on the empty val file."""
    raw = tmp_path / "raw.conll"
    raw.write_text("a\tB-D\n\nb\tO\n\nc\tB-D\n")
    cfg, data_dir, out_dir = write_config(tmp_path)
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    assert (data_dir / "val.conll").exists()
    assert len(load_corpus(data_dir / "val.conll")) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    assert (out_dir / "final.ckpt").exists()


def test_blank_val_split_falls_back_to_train_loss(tmp_path, capsys):
    raw = tmp_path / "raw.conll"
    raw.write_text("a\tB-D\n\nb\tO\n\nc\tB-D\n\nd\tO\n")
    cfg, data_dir, out_dir = write_config(tmp_path)
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    (data_dir / "val.conll").write_text(" \n\n\t\n")
    assert main(["train", "--config", str(cfg)]) == 0
    rows = (out_dir / "trainlog.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[2] == "nan" for row in rows)
    # a missing validation split is an empty one too
    (data_dir / "val.conll").unlink()
    (out_dir / "trainlog.csv").unlink()
    assert main(["train", "--config", str(cfg)]) == 0
    assert (out_dir / "trainlog.csv").read_text().splitlines()[1:] == rows


def test_empty_val_split_declaring_more_types_trains_with_them(tmp_path, capsys):
    """The model's labels are the train split's types plus those val.conll
    declares, whether or not it holds records: train and its caller count
    the same label set."""
    raw = tmp_path / "raw.conll"
    raw.write_text("a\tB-D\n\nb\tO\n\nc\tB-D\n\nd\tO\n")
    cfg, data_dir, out_dir = write_config(tmp_path)
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    sizes = json.loads((data_dir / "manifest.json").read_text())["sizes"]
    assert sizes == {"train": 3, "val": 1, "test": 0}
    (data_dir / "val.conll").write_text("# types: D Extra\n")
    assert main(["train", "--config", str(cfg)]) == 0
    best = load_checkpoint_full(out_dir / "best.ckpt")
    assert best.labels == ["D", "Extra"]
    assert best.config.n_labels == 5


@pytest.mark.parametrize("text", ["# types: D\n", ""])
def test_train_split_without_records_exits_3_naming_it(tmp_path, capsys, text):
    raw = tmp_path / "raw.conll"
    raw.write_text("a\tB-D\n\nb\tO\n\nc\tB-D\n\nd\tO\n")
    cfg, data_dir, out_dir = write_config(tmp_path)
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    train_path = data_dir / "train.conll"
    train_path.write_text(text)
    assert main(["train", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {train_path}: ")
    assert not out_dir.exists()


def test_malformed_val_split_exits_3_whatever_its_path(tmp_path, capsys):
    # the error text contains the path, which contains "empty file"
    root = tmp_path / "empty file"
    root.mkdir()
    raw = root / "raw.conll"
    raw.write_text("a\tB-D\n\nb\tO\n\nc\tB-D\n\nd\tO\n")
    cfg, data_dir, out_dir = write_config(root)
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    val = data_dir / "val.conll"
    val.write_text("a\tB-D\textra\n")
    assert main(["train", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {val}: line 1: malformed line")
    assert not (out_dir / "final.ckpt").exists()


def test_seed_env_fallback(tmp_path, monkeypatch):
    raw = gen_corpus(tmp_path)
    monkeypatch.setenv("MEDNER_SEED", "5")
    out_env = tmp_path / "env"
    main(["prepare", str(raw), "--out", str(out_env)])
    out_flag = tmp_path / "flag"
    main(["prepare", str(raw), "--out", str(out_flag), "--seed", "5"])
    assert ((out_env / "train.conll").read_bytes()
            == (out_flag / "train.conll").read_bytes())


@pytest.mark.parametrize("section, line, needle", [
    ("train", "learning_rat = 1e-3", "[train] learning_rat: unknown key"),
    ("model", "dropout_rte = 0.1", "[model] dropout_rte: unknown key"),
    ("outptu", "dir = elsewhere", "[outptu]: unknown section"),
])
@pytest.mark.parametrize("verb", ["prepare", "train"])
def test_config_unknown_key_or_section_exits_2_naming_it(tmp_path, capsys, verb,
                                                          section, line, needle):
    """A misspelt key or section is not ignored: train would otherwise run
    at the default learning rate and exit 0."""
    raw = gen_corpus(tmp_path)
    cfg, data_dir, out_dir = write_config(tmp_path)
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    text, header = cfg.read_text(), f"[{section}]\n"
    cfg.write_text(text.replace(header, header + line + "\n") if header in text
                   else text + "\n" + header + line + "\n")
    argv = (["prepare", str(raw), "--config", str(cfg), "--out", str(tmp_path / "again")]
            if verb == "prepare" else ["train", "--config", str(cfg)])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {needle} (known: ")
    assert not (out_dir / "final.ckpt").exists()
    assert not (tmp_path / "again").exists()


def test_config_values_are_read_literally(tmp_path, capsys):
    """No interpolation: a '%' is a plain character, so '%(x)s' is a value
    that does not parse (exit 2, no traceback) and a '%' in a path is kept."""
    raw = gen_corpus(tmp_path)
    cfg, data_dir, _ = write_config(tmp_path)
    text = cfg.read_text()
    cfg.write_text(text.replace("seed = 11", "seed = %(x)s", 1))
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: [split] seed: cannot parse '%(x)s'\n"
    cfg.write_text(text.replace(str(data_dir), str(tmp_path / "100%prepared")))
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    assert (tmp_path / "100%prepared" / "train.conll").exists()


@pytest.mark.parametrize("section, key, value", [
    ("train", "batch_size", "1e308"), ("train", "batch_size", "0.999999"),
    ("train", "batch_size", "nan"), ("model", "d_model", "64.0"), ("split", "seed", "1.5"),
    ("data", "min_freq", "two"), ("output", "precision", "x"),
])
def test_config_value_that_does_not_parse_exits_2_naming_it(tmp_path, capsys, section, key,
                                                            value):
    """A value that its key's type cannot parse is a usage error, as a value
    out of range is: one line naming the file, section, key and value, and
    nothing written."""
    raw = gen_corpus(tmp_path)
    cfg, _, _ = write_config(tmp_path)
    verb = ["prepare", str(raw)] if section in ("data", "split") else ["train"]
    if verb == ["train"]:
        assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    head, rest = cfg.read_text().split(f"[{section}]\n")
    lines = [line for line in rest.split("\n") if line.split(" = ")[0] != key]
    cfg.write_text(head + "\n".join([f"[{section}]", f"{key} = {value}", *lines]))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(verb + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: [{section}] {key}: cannot parse '{value}'\n"
    assert sorted(tmp_path.rglob("*")) == before


# ---------------------------------------------------------------------------
# train / eval / predict
# ---------------------------------------------------------------------------


@pytest.fixture
def pipeline(tmp_path):
    raw = gen_corpus(tmp_path)
    cfg, data_dir, out_dir = write_config(tmp_path)
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    return cfg, data_dir, out_dir


def test_train_writes_outputs_and_loss_falls(pipeline, capsys):
    _, data_dir, out_dir = pipeline
    for name in ("final.ckpt", "best.ckpt", "trainlog.csv"):
        assert (out_dir / name).exists(), name
    rows = (out_dir / "trainlog.csv").read_text().splitlines()
    assert rows[0] == "epoch,train_loss,val_loss,val_span_f1,lr"
    first = float(rows[1].split(",")[1])
    last = float(rows[-1].split(",")[1])
    assert last < first


def test_train_missing_vocab_actionable(tmp_path, capsys):
    cfg, data_dir, _ = write_config(tmp_path)
    data_dir.mkdir()
    (data_dir / "train.conll").write_text("a\tO\n")
    rc = main(["train", "--config", str(cfg)])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert f"error: {data_dir / 'vocab.txt'}: No such file or directory" in err


def test_train_divergence_exit_code_4(tmp_path, capsys):
    """Exit 4 and one error line, with no numpy RuntimeWarning before it
    (pytest fails a test on one)."""
    raw = gen_corpus(tmp_path)
    cfg_path, data_dir, out_dir = write_config(tmp_path)
    text = cfg_path.read_text().replace("learning_rate = 1e-3",
                                        "learning_rate = 1e25")
    cfg_path.write_text(text)
    main(["prepare", str(raw), "--config", str(cfg_path)])
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg_path)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged at epoch ") and err.count("\n") == 1, err
    # last good checkpoint retained
    assert (out_dir / "final.ckpt").exists()


def test_train_over_length_record_exits_3_naming_it(tmp_path, capsys):
    raw = gen_corpus(tmp_path)
    cfg, data_dir, out_dir = write_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("max_len = 16", "max_len = 4"))
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: train record '") and "but max_len is 4" in err, err
    assert not (out_dir / "final.ckpt").exists()


def _one_epoch_config(tmp_path, **model):
    """Prepare the quick config's data; returns the config, set to train
    one epoch with the given [model] values, and its output dir."""
    raw = gen_corpus(tmp_path)
    cfg, _, out_dir = write_config(tmp_path)
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    text = cfg.read_text().replace("max_epochs = 4", "max_epochs = 1")
    for key, value in model.items():
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    cfg.write_text(text)
    return cfg, out_dir


def test_train_with_a_d_model_beyond_memory_exits_with_one_error_line(
        tmp_path, capsys, monkeypatch):
    """A 2**40-wide model's training state is counted from its shapes and
    refused as a usage error naming the [model] values, before init_params
    allocates anything."""
    cfg, out_dir = _one_epoch_config(tmp_path, d_model=2**40)
    monkeypatch.setattr("medner.training.init_params", None)  # a call would raise TypeError
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: model config d_model = {2**40}, d_ff = 24, n_layers = 1 "
                          "(vocab_size ") and err.count("\n") == 1, err
    assert err.endswith(" bytes, over the limit of 140737488355328 (128 TiB)\n"), err
    assert not list(out_dir.glob("*.ckpt"))


def test_train_with_a_max_len_beyond_memory_trains_as_a_short_one(tmp_path):
    """Positions are built for the widest batch, not for max_len, so a
    max_len no memory could hold trains as a max_len of 32 does."""
    cfg, out_dir = _one_epoch_config(tmp_path, max_len=32)
    assert main(["train", "--config", str(cfg)]) == 0
    short = (out_dir / "trainlog.csv").read_bytes()
    cfg.write_text(cfg.read_text().replace("max_len = 32", f"max_len = {2**40}"))
    assert main(["train", "--config", str(cfg)]) == 0
    assert (out_dir / "trainlog.csv").read_bytes() == short


def test_train_at_precision_64_writes_float64_checkpoints_that_eval_and_predict_read(
        tmp_path, capsys):
    cfg, out_dir = _one_epoch_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("precision = 32", "precision = 64"))
    assert main(["train", "--config", str(cfg)]) == 0
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("patient\ntakes\n")
    for name in ("best.ckpt", "final.ckpt"):
        ckpt = out_dir / name
        _, length, rest = ckpt.read_bytes().split(b"\n", 2)
        manifest = json.loads(rest[:int(length)])
        n_params = sum(int(np.prod(t["shape"])) for t in manifest["tensors"])
        assert manifest["precision"] == 64
        assert len(rest) - int(length) - 1 == 8 * n_params
        assert main(["eval", str(ckpt), str(tmp_path / "prepared" / "test.conll"),
                     "--out", str(tmp_path / "eval")]) == 0
        assert main(["predict", str(ckpt), str(tokens)]) == 0


def test_train_at_precision_16_exits_2_before_writing(tmp_path, capsys):
    cfg, out_dir = _one_epoch_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("precision = 32", "precision = 16"))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: precision must be 32 or 64, got 16\n"
    assert not list(out_dir.glob("*.ckpt"))


@pytest.mark.parametrize("setting", [
    "early_stop_patience = 0", "grad_clip_norm = -1", "grad_clip_norm = nan",
    "grad_clip_norm = inf", "learning_rate = nan", "learning_rate = inf",
    "min_lr = nan", "seed = -1", "--seed -1", "prepare [split] seed = -1",
    "prepare --seed=-1", "gen-synthetic --seed -1", "MEDNER_SEED=-5 gen-synthetic"])
def test_train_rejects_bad_clip_and_early_stop(tmp_path, capsys, monkeypatch, setting):
    """A bad [train] value, or a negative seed from a flag, the config or
    MEDNER_SEED, exits 2 naming the field before anything is written. The
    same holds for the seeds of prepare ([split]) and gen-synthetic:
    random.Random(-n) seeds like random.Random(n), so a negative seed would
    silently stand for its absolute value."""
    raw = gen_corpus(tmp_path)
    cfg, data_dir, out_dir = write_config(tmp_path)
    words = setting.split()
    if words[0].startswith("MEDNER_SEED="):
        monkeypatch.setenv(*words.pop(0).split("="))
    verb = words.pop(0) if words[0] in ("prepare", "gen-synthetic") else "train"
    section = words.pop(0).strip("[]") if words and words[0].startswith("[") else "train"
    flags = words if words and words[0].startswith("--") else []
    key = (words or ["seed"])[0].lstrip("-").split("=")[0]
    if words and not flags:  # set the key in [section], dropping it from there on
        head, rest = cfg.read_text().split(f"[{section}]\n")
        lines = [line for line in rest.splitlines() if line.split(" = ")[0] != key]
        cfg.write_text(head + "\n".join([f"[{section}]", " ".join(words), *lines]) + "\n")
    argv, written = {
        "gen-synthetic": (["gen-synthetic", "--out", str(tmp_path / "gen.conll")],
                          tmp_path / "gen.conll"),
        "prepare": (["prepare", str(raw), "--config", str(cfg)], data_dir),
        "train": (["train", "--config", str(cfg)], out_dir / "final.ckpt"),
    }[verb]
    if verb == "train":
        assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    assert main(argv + flags) == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not written.exists()


@pytest.mark.parametrize("verb", ["gen-synthetic", "prepare", "train"])
def test_non_integer_medner_seed_exits_2_naming_it(tmp_path, capsys, monkeypatch, verb):
    raw = gen_corpus(tmp_path)
    cfg, data_dir, out_dir = write_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("seed = 11\n", ""))  # fall back to MEDNER_SEED
    argv, written = {
        "gen-synthetic": (["gen-synthetic", "--out", str(tmp_path / "gen.conll")],
                          tmp_path / "gen.conll"),
        "prepare": (["prepare", str(raw), "--config", str(cfg)], data_dir),
        "train": (["train", "--config", str(cfg)], out_dir / "final.ckpt"),
    }[verb]
    if verb == "train":
        assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("MEDNER_SEED", "abc")
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: MEDNER_SEED is not an integer: 'abc'\n"
    assert not written.exists()


def test_train_rerun_identical_trainlog(tmp_path):
    raw = gen_corpus(tmp_path)
    cfg, data_dir, out_dir = write_config(tmp_path)
    main(["prepare", str(raw), "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    log1 = (out_dir / "trainlog.csv").read_bytes()
    ckpt1 = (out_dir / "final.ckpt").read_bytes()
    main(["train", "--config", str(cfg)])
    assert (out_dir / "trainlog.csv").read_bytes() == log1
    assert (out_dir / "final.ckpt").read_bytes() == ckpt1


def test_eval_inventory_mismatch(pipeline, tmp_path, capsys):
    _, _, out_dir = pipeline
    alien = tmp_path / "alien.conll"
    alien.write_text("tok\tB-Virus\n")
    ckpt = out_dir / "best.ckpt"
    rc = main(["eval", str(ckpt), str(alien)])
    assert rc == 3
    assert capsys.readouterr().err == (f"error: {alien}: label inventory mismatch: "
                                       f"checkpoint {ckpt} lacks Virus\n")


def test_eval_of_a_corpus_without_records_exits_3(pipeline, tmp_path, capsys):
    """A corpus that declares types but holds no records is a data error, as
    an empty train split is to train, not a report of zeros."""
    _, _, out_dir = pipeline
    empty = tmp_path / "empty.conll"
    empty.write_text("# types: Disease Drug\n")
    capsys.readouterr()
    assert main(["eval", str(out_dir / "best.ckpt"), str(empty),
                 "--out", str(tmp_path / "report")]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {empty}: no records to evaluate\n")
    assert not (tmp_path / "report").exists()


def test_eval_corrupt_checkpoint(pipeline, tmp_path, capsys):
    _, data_dir, out_dir = pipeline
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes((out_dir / "best.ckpt").read_bytes()[:50])
    rc = main(["eval", str(bad), str(data_dir / "test.conll")])
    assert rc == 3


def _tiny_checkpoint(path):
    cfg = ModelConfig(vocab_size=3, n_labels=3, d_model=8, n_heads=2, n_layers=1,
                      d_ff=8, max_len=8, dropout_rate=0.0)
    save_checkpoint(init_params(cfg, 0), cfg, seed=0, path=path,
                    vocab=["<PAD>", "<UNK>", "aspirin"], labels=["Drug"])
    return path


@pytest.mark.parametrize("verb", ["eval", "predict"])
def test_checkpoint_whose_forward_overflows_exits_3(tmp_path, capsys, verb):
    """Finite float32 weights can still overflow in the forward pass; such a
    checkpoint is rejected, not used to tag with non-finite values."""
    cfg = ModelConfig(vocab_size=3, n_labels=3, d_model=8, n_heads=2, n_layers=1,
                      d_ff=8, max_len=8, dropout_rate=0.0)
    flat = init_params(cfg, 0)
    ParamLayout(cfg).views(flat)["emb.tok"] *= np.float32(1e30)
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(flat, cfg, seed=0, path=ckpt,
                    vocab=["<PAD>", "<UNK>", "aspirin"], labels=["Drug"])
    data = tmp_path / "data.txt"
    data.write_text("aspirin\tB-Drug\n" if verb == "eval" else "aspirin\n")
    out = tmp_path / "out"
    assert main([verb, str(ckpt), str(data), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"error: {ckpt}: checkpoint weights give non-finite "
                                       "values in the forward pass (overflow encountered in "
                                       "square)\n")
    assert not out.exists()


@one_thread
@pytest.mark.parametrize("verb", ["eval", "predict"])
def test_forked_forward_that_overflows_exits_3_with_the_same_error(tmp_path, capsys,
                                                                   monkeypatch, verb):
    cfg = ModelConfig(vocab_size=3, n_labels=3, d_model=8, n_heads=2, n_layers=1,
                      d_ff=8, max_len=8, dropout_rate=0.0)
    flat = init_params(cfg, 0)
    ParamLayout(cfg).views(flat)["emb.tok"] *= np.float32(1e30)
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(flat, cfg, seed=0, path=ckpt,
                    vocab=["<PAD>", "<UNK>", "aspirin"], labels=["Drug"])
    data = tmp_path / "data.txt"
    line = "aspirin\tB-Drug\n" if verb == "eval" else "aspirin\n"
    data.write_text("\n".join(line * (1 + i % 5) for i in range(40)))
    monkeypatch.setattr(medner.evaluation, "_BATCH_BYTES", 256)
    children = force_fork(monkeypatch)
    out = tmp_path / "out"
    assert main([verb, str(ckpt), str(data), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"error: {ckpt}: checkpoint weights give non-finite "
                                       "values in the forward pass (overflow encountered in "
                                       "square)\n")
    assert not out.exists()
    assert len(children) == 2
    assert_no_children()


def _replace_manifest(path, manifest: bytes):
    """Put the given bytes in place of the checkpoint's manifest."""
    magic, length, rest = path.read_bytes().split(b"\n", 2)
    path.write_bytes(b"%s\n%d\n%s%s" % (magic, len(manifest), manifest, rest[int(length):]))


def _bad_checkpoint(tmp_path, kind):
    path = tmp_path / "bad.ckpt"
    if kind == "directory":
        path.mkdir()
        return path
    if kind == "missing":
        return path
    _tiny_checkpoint(path)
    if kind == "no_header_newline":
        path.write_bytes(b"MEDNER-CKPT 3")
    elif kind == "no_length_line":
        path.write_bytes(b"MEDNER-CKPT 3\n")
    elif kind == "bad_length":
        path.write_bytes(re.sub(rb"\n\d+\n", b"\n12x\n", path.read_bytes(), count=1))
    elif kind == "array_manifest":
        _replace_manifest(path, b"[]")
    elif kind == "deeply_nested_manifest":
        _replace_manifest(path, b"[" * 100_000)
    elif kind == "huge_integer":
        _, length, rest = path.read_bytes().split(b"\n", 2)  # json.dumps cannot write one
        _replace_manifest(path, rest[:int(length)].replace(b'"seed": 0',
                                                           b'"seed": ' + b"7" * 5000))
    elif kind == "format_version":
        rewrite_manifest(path, lambda m: m.update(format_version=2))
    elif kind == "precision_16":
        rewrite_manifest(path, lambda m: m.update(precision=16))
    elif kind == "tensors_not_objects":
        rewrite_manifest(path, lambda m: m.update(tensors=[e["name"] for e in m["tensors"]]))
    elif kind == "renamed_tensor":
        rewrite_manifest(path, lambda m: m["tensors"][0].update(name="emb.word"))
    elif kind == "missing_offset":
        rewrite_manifest(path, lambda m: m["tensors"][0].pop("offset"))
    elif kind == "permuted":
        rewrite_manifest(path, lambda m: m["tensors"].reverse())
    elif kind == "vocab_size":
        rewrite_manifest(path, lambda m: m["vocab"].append("ibuprofen"))
    elif kind == "n_labels":
        rewrite_manifest(path, lambda m: m["labels"].append("Disease"))
    elif kind == "no_inventory":
        rewrite_manifest(path, lambda m: (m.pop("vocab"), m.pop("labels")))
    elif kind == "vocab_duplicate":
        rewrite_manifest(path, lambda m: m["vocab"].__setitem__(2, "<UNK>"))
    elif kind == "vocab_no_pad":
        rewrite_manifest(path, lambda m: m["vocab"].__setitem__(0, "<pad>"))
    elif kind == "label_type":
        rewrite_manifest(path, lambda m: m.update(labels=["9Drug"]))
    elif kind == "label_newline":
        rewrite_manifest(path, lambda m: m.update(labels=["Drug\n"]))
    elif kind == "invalid_config":
        rewrite_manifest(path, lambda m: m["config"].update(n_heads=3))
    else:
        blob = bytearray(path.read_bytes())
        blob[-4:] = b"\x00\x00\xc0\x7f"  # float32 NaN
        path.write_bytes(bytes(blob))
    return path


# The reason each of these kinds gives, after "error: <ckpt>: "
_BAD_CHECKPOINT_REASONS = {
    "missing": "No such file or directory",
    "directory": "not a regular file",
    "no_header_newline": "not a checkpoint file: missing header",
    "no_length_line": "not a checkpoint file: missing manifest length",
    "bad_length": "not a checkpoint file: bad manifest length",
    "array_manifest": "unreadable manifest: not a JSON object",
    "deeply_nested_manifest": "unreadable manifest: maximum recursion depth exceeded",
    "huge_integer": "unreadable manifest: Exceeds the limit (4300",
    "format_version": "unsupported checkpoint version 2",
    "precision_16": "unsupported precision tag 16",
    "tensors_not_objects": "manifest 'tensors' is not a list of objects",
    "renamed_tensor": "manifest tensors do not match config: missing=['emb.tok'] "
                      "extra=['emb.word']",
    # a config a usage check refuses: in a checkpoint, that is bad data
    "invalid_config": "invalid config in manifest: d_model (8) must be divisible by "
                      "n_heads (3)",
}


@pytest.mark.parametrize("kind", ["missing_offset", "permuted", "nan_payload", "directory",
                                  "vocab_size", "n_labels", "no_inventory",
                                  "vocab_duplicate", "vocab_no_pad", "label_type",
                                  "label_newline",
                                  *(kind for kind in _BAD_CHECKPOINT_REASONS
                                    if kind != "directory")])
def test_bad_checkpoint_exits_3_naming_file(tmp_path, capsys, kind):
    ckpt = _bad_checkpoint(tmp_path, kind)
    gold = tmp_path / "gold.conll"
    gold.write_text("aspirin\tB-Drug\n")
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("aspirin\n")
    for argv in (["eval", str(ckpt), str(gold)], ["predict", str(ckpt), str(tokens)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: {_BAD_CHECKPOINT_REASONS.get(kind, '')}"), err
        assert err.count("\n") == 1, err


def _old_format_checkpoint(path, version):
    """The tiny checkpoint in format 2, which also stored each layer's
    attention key bias as 'enc.<layer>.attn.bk' right after
    'enc.<layer>.attn.bq', or in format 1, which stored the sinusoidal
    position table as well, as 'emb.pos' right after 'emb.tok'."""
    _tiny_checkpoint(path)
    _, length, rest = path.read_bytes().split(b"\n", 2)
    manifest = json.loads(rest[:int(length)])
    payload = rest[int(length) + 1:]
    cfg = manifest["config"]
    extra = {f"enc.{layer}.attn.bq": (f"enc.{layer}.attn.bk", [cfg["d_model"]],
                                      bytes(4 * cfg["d_model"]))
             for layer in range(cfg["n_layers"])}
    if version == 1:
        extra["emb.tok"] = ("emb.pos", [cfg["max_len"], cfg["d_model"]],
                            sinusoidal_positions(cfg["max_len"], cfg["d_model"])
                            .astype("<f4").tobytes())
    tensors, chunks, offset = [], [], 0
    for entry in manifest["tensors"]:
        start = entry["offset"]
        pieces = [(entry["name"], entry["shape"], payload[start:start + entry["length"]])]
        if entry["name"] in extra:
            pieces.append(extra[entry["name"]])
        for name, shape, data in pieces:
            tensors.append({"name": name, "shape": shape, "offset": offset, "length": len(data)})
            chunks.append(data)
            offset += len(data)
    manifest.update(format_version=version, tensors=tensors)
    header = json.dumps(manifest).encode()
    path.write_bytes(b"MEDNER-CKPT %d\n%d\n" % (version, len(header)) + header + b"\n"
                     + b"".join(chunks))
    return path


def test_version_1_checkpoint_exits_3_naming_file_and_version(tmp_path, capsys):
    """Formats 1 and 2 have no reader: such a file is retrained, not converted."""
    gold = tmp_path / "gold.conll"
    gold.write_text("aspirin\tB-Drug\n")
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("aspirin\n")
    for version in (1, 2):
        ckpt = _old_format_checkpoint(tmp_path / f"v{version}.ckpt", version)
        for argv in (["eval", str(ckpt), str(gold)], ["predict", str(ckpt), str(tokens)]):
            assert main(argv) == 3
            assert capsys.readouterr().err == (
                f"error: {ckpt}: unsupported checkpoint version '{version}'\n")


@pytest.mark.parametrize("where", ["eval", "train.conll", "val.conll", "prepare"])
def test_invalid_gold_bio_exits_3_naming_file_and_record(tmp_path, capsys, where):
    """Gold labels are checked once, where the corpus is loaded: the error
    names the file and the record, and train stops before its first epoch."""
    bad_record = "# id: r7\naspirin\tO\naspirin\tI-Drug\n"
    needle = "record 'r7': index 1: I-Drug does not continue a same-type entity\n"
    if where == "eval":
        bad = tmp_path / "gold.conll"
        bad.write_text(bad_record)
        argv = ["eval", str(_tiny_checkpoint(tmp_path / "model.ckpt")), str(bad),
                "--out", str(tmp_path / "out")]
    elif where == "prepare":
        bad = tmp_path / "raw.conll"
        bad.write_text("aspirin\tB-Drug\n\n" + bad_record)
        argv = ["prepare", str(bad), "--out", str(tmp_path / "out")]
    else:
        cfg, data_dir, out_dir = write_config(tmp_path)
        assert main(["prepare", str(gen_corpus(tmp_path)), "--config", str(cfg)]) == 0
        bad = data_dir / where
        bad.write_text(bad.read_text() + "\n" + bad_record)
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: {needle}"
    assert "epoch" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["eval", "predict"])
def test_over_length_record_exits_3_naming_it(tmp_path, capsys, verb):
    ckpt = _tiny_checkpoint(tmp_path / "model.ckpt")  # max_len 8
    if verb == "eval":
        data = tmp_path / "gold.conll"
        data.write_text("# id: short\naspirin\tB-Drug\n\n# id: long\n"
                        + "aspirin\tO\n" * 9)
        needle = "record 'long' has 9 tokens but the model's max_len is 8"
    else:
        data = tmp_path / "tokens.txt"
        data.write_text("aspirin\n\n" + "aspirin\n" * 9)
        needle = "block 2 has 9 tokens but the model's max_len is 8"
    assert main([verb, str(ckpt), str(data), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"error: {data}: {needle}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["prepare", "eval", "predict", "train", "compare"])
@pytest.mark.parametrize("kind", ["non_utf8", "directory", "missing"])
def test_unreadable_text_input_exits_3_naming_file(tmp_path, capsys, verb, kind):
    bad = tmp_path / "input.txt"
    if kind == "directory":
        bad.mkdir()
    elif kind == "non_utf8":
        bad.write_bytes(b"caf\xe9\tO\n")  # Latin-1, not UTF-8
    ckpt = _tiny_checkpoint(tmp_path / "model.ckpt")
    argv = {"prepare": ["prepare", str(bad), "--out", str(tmp_path / "prep")],
            "eval": ["eval", str(ckpt), str(bad)],
            "predict": ["predict", str(ckpt), str(bad)],
            "train": ["train", "--config", str(bad)],
            "compare": ["compare", str(bad)]}[verb]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: "), err
    assert err.count(str(bad)) == 1, err
    if kind == "missing":
        assert err == f"error: {bad}: No such file or directory\n"


@pytest.mark.parametrize("where", ["corpus", "config", "predict input"])
def test_a_leading_byte_order_mark_is_ignored(tmp_path, capsys, where):
    """A UTF-8 file may start with U+FEFF, as some editors save it; each
    input reads as it would without it."""

    def written(path, text, bom):
        path.write_text("\ufeff" * bom + text, encoding="utf-8")
        return str(path)

    def outputs(bom):
        run = tmp_path / f"bom{bom:d}"
        run.mkdir()
        if where == "predict input":
            tokens = written(run / "tokens.txt", "aspirin\nx\n\naspirin\n", bom)
            assert main(["predict", str(_tiny_checkpoint(run / "model.ckpt")), tokens]) == 0
            return capsys.readouterr().out
        corpus = written(run / "raw.conll", "a\tO\nb\tB-D\n\na\tO\n\nc\tO\n",
                         bom and where == "corpus")
        config = written(run / "run.ini", "[data]\nmin_freq = 2\n", bom and where == "config")
        assert main(["prepare", corpus, "--config", config, "--out", str(run / "prep"),
                     "--seed", "0"]) == 0
        return {path.name: path.read_bytes() for path in (run / "prep").iterdir()}

    assert outputs(True) == outputs(False)


def test_a_byte_order_mark_counts_in_a_decoding_error_offset(tmp_path, capsys):
    bad = tmp_path / "raw.conll"
    bad.write_bytes(b"\xef\xbb\xbfcaf\xe9\tO\n")  # Latin-1 after a UTF-8 BOM
    assert main(["prepare", str(bad)]) == 3
    assert capsys.readouterr().err == (f"error: {bad}: not UTF-8 text: invalid "
                                       "continuation byte at byte 6\n")


def test_predict_roundtrip(pipeline, tmp_path, capsys):
    _, data_dir, out_dir = pipeline
    text_file = tmp_path / "notes.txt"
    text_file.write_text("patient\ntakes\nzatoril\n\nfollow\nup\n")
    out_file = tmp_path / "tagged.conll"
    rc = main(["predict", str(out_dir / "best.ckpt"), str(text_file),
               "--out", str(out_file)])
    assert rc == 0
    tagged = out_file.read_text()
    assert len([l for l in tagged.splitlines() if "\t" in l]) == 5
    corpus = parse_conll(tagged)
    assert [len(r) for r in corpus.records] == [3, 2]
    for rec in corpus.records:
        assert validate_bio(rec.labels, "strict") == rec.labels
    # stdout mode emits the same tagged text
    capsys.readouterr()
    rc = main(["predict", str(out_dir / "best.ckpt"), str(text_file)])
    assert rc == 0
    assert capsys.readouterr().out == tagged


def test_predict_empty_input(pipeline, tmp_path, capsys):
    _, _, out_dir = pipeline
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    capsys.readouterr()
    assert main(["predict", str(out_dir / "best.ckpt"), str(empty)]) == 3
    assert capsys.readouterr().err == f"error: {empty}: empty input: no token blocks found\n"


def test_predict_two_tokens_on_a_line_names_the_file(tmp_path, capsys):
    ckpt = _tiny_checkpoint(tmp_path / "model.ckpt")
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("aspirin\n\na b\n")
    assert main(["predict", str(ckpt), str(tokens)]) == 3
    assert capsys.readouterr().err == (f"error: {tokens}: line 3: expected one token "
                                       "per line, got 'a b'\n")


def test_predict_ignores_a_max_len_beyond_memory(tmp_path, capsys):
    """forward builds position rows for the batch's width only, so a manifest
    max_len of 10**14 costs nothing. Its whole float64 table at d_model 8
    would be 6.4 PB, beyond any 48-bit address space, so code that asked
    for it would fail at once rather than allocate."""
    ckpt = _tiny_checkpoint(tmp_path / "model.ckpt")
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("aspirin\nx\naspirin\naspirin\ny\n")
    assert main(["predict", str(ckpt), str(tokens)]) == 0
    want = capsys.readouterr().out
    rewrite_manifest(ckpt, lambda m: m["config"].update(max_len=10**14))
    assert main(["predict", str(ckpt), str(tokens)]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (want, "")
    assert len(want.splitlines()) == 5


def test_one_record_predict_never_forks(tmp_path, capsys, monkeypatch):
    """Nor does it pay for the checks: the batch count alone rules it out."""
    affinity_calls = []
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: affinity_calls.append(pid) or set(range(64)))
    forks = refuse_fork(monkeypatch)
    ckpt = _tiny_checkpoint(tmp_path / "model.ckpt")
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("aspirin\nx\n")
    assert main(["predict", str(ckpt), str(tokens)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert (forks, affinity_calls) == ([], [])


def test_predict_looks_tokens_up_de_identified(tmp_path, capsys):
    """A raw date or id is tagged as the placeholder prepare writes for it,
    not as an unknown token, and predict still writes the raw text."""
    cfg = ModelConfig(vocab_size=5, n_labels=3, d_model=8, n_heads=2, n_layers=1,
                      d_ff=8, max_len=8, dropout_rate=0.0)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_params(cfg, 4), cfg, seed=4, path=ckpt,
                    vocab=["<PAD>", "<UNK>", "aspirin", "<DATE>", "<ID>"], labels=["Drug"])

    def tagged(*tokens):
        path = tmp_path / "tokens.txt"
        path.write_text("".join(f"{tok}\n" for tok in tokens))
        assert main(["predict", str(ckpt), str(path)]) == 0
        return [line.split("\t") for line in capsys.readouterr().out.splitlines()]

    raw = tagged("aspirin", "2021-03-04", "on", "123456")
    assert [tok for tok, _ in raw] == ["aspirin", "2021-03-04", "on", "123456"]
    placeholder_tags = [tag for _, tag in tagged("aspirin", "<DATE>", "on", "<ID>")]
    assert [tag for _, tag in raw] == placeholder_tags
    # the placeholders tag otherwise than unknown tokens would
    assert placeholder_tags != [tag for _, tag in tagged("aspirin", "<UNK>", "on", "<UNK>")]


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
def test_out_of_memory_exits_3_with_one_error_line(tmp_path, capsys, monkeypatch, message):
    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setattr(medner.cli, "cmd_predict", exhausted)
    assert main(["predict", str(tmp_path / "model.ckpt"), str(tmp_path / "in.txt")]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: out of memory{': ' if message else ''}{message}\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# predict's token blocks against the line-by-line reference
# ---------------------------------------------------------------------------


def _blocks_outcome(text):
    """The token blocks of `text` from the parser and from the reference,
    each as ("ok", blocks) or ("error", message)."""
    outcomes = []
    for parse in (_parse_token_blocks, parse_token_blocks_by_line):
        try:
            outcomes.append(("ok", parse(text, "in.txt")))
        except FormatError as exc:
            outcomes.append(("error", str(exc)))
    return outcomes


@pytest.mark.parametrize("text, want", [
    ("a\r\nb\r\n\r\nc", [["a", "b"], ["c"]]),
    ("a\rb\r\rc\n", [["a", "b"], ["c"]]),
    ("a\x1cb\x85\x85c\u2028\u2028d", [["a", "b"], ["c"], ["d"]]),
    ("\xa0a\xa0\n\xa0\nb", [["a"], ["b"]]),
    ("#a\n# comment with spaces\nb\n#\n# \n\n#c", [["#a", "b", "#"], ["#c"]]),
    ("\n\n\n  \n\ta\n\n\n\n\nb\n\n", [["a"], ["b"]]),
    ("a\nb", [["a", "b"]]),
    ("a\n # not a comment\n", "in.txt: line 2: expected one token per line, "
                                "got ' # not a comment'"),
    ("a\nb\xa0c\nd e\n", "in.txt: line 2: expected one token per line, got 'b\\xa0c'"),
    ("# only a comment\n\u2028 \n", "in.txt: empty input: no token blocks found"),
])
def test_predict_input_edge_cases(text, want):
    """Line breaks (CRLF, \\r, \\x1c, \\x85, \\u2028), no-break spaces, '#'
    tokens against '# ' comments, runs of blank lines and no final newline."""
    got, reference = _blocks_outcome(text)
    assert got == reference
    assert got == (("error", want) if isinstance(want, str) else ("ok", want))


# line breaks, whitespace that breaks no line (ASCII and not), a comment
# marker and its lookalike, and two tokens
BLOCK_PIECES = ["\n", "\r", "\x0b", "\x1c", "\x85", "\u2028", " ", "\t", "\x1f", "\xa0", "# ",
                "#", "a", "b"]


def test_predict_input_matches_the_reference_on_every_short_text():
    for n in range(5):
        for pieces in itertools.product(BLOCK_PIECES, repeat=n):
            text = "".join(pieces)
            got, reference = _blocks_outcome(text)
            assert got == reference, text


def test_predict_input_matches_the_reference_on_random_texts():
    rng = random.Random(21)
    for _ in range(20000):
        text = "".join(rng.choices(BLOCK_PIECES, k=rng.randint(5, 24)))
        got, reference = _blocks_outcome(text)
        assert got == reference, text


def test_predict_input_matches_the_reference_on_8000_records():
    corpus = gen_synthetic(8000, ["Disease", "Drug", "Symptom"], vocab_size=300,
                           max_len=16, seed=3)
    text = "\n\n".join("\n".join(rec.tokens) for rec in corpus.records) + "\n"
    got, reference = _blocks_outcome(text)
    assert got == reference == ("ok", [rec.tokens for rec in corpus.records])


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

RESULTS = """\
model,precision,f1
Bert,82.5,81.0
ClinicalBERT,85.2,83.5
SciBert,84.1,82.8
BlueBert,87.3,85.0
BioBert,89.8,87.6
"""


def test_compare_sorted_puts_biobert_first(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(RESULTS)
    assert main(["compare", str(results), "--sort"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[2] == "BioBert | 89.8 | 87.6"
    assert lines[-1] == "Bert | 82.5 | 81.0"


def test_compare_unsorted_preserves_order(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(RESULTS)
    assert main(["compare", str(results)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [l.split(" | ")[0] for l in lines[2:]] == [
        "Bert", "ClinicalBERT", "SciBert", "BlueBert", "BioBert"
    ]


def test_compare_empty_file_fails(tmp_path):
    results = tmp_path / "empty.csv"
    results.write_text("")
    assert main(["compare", str(results)]) == 3


def test_compare_malformed_row(tmp_path, capsys):
    results = tmp_path / "bad.csv"
    results.write_text("Bert,82.5,81.0\nOops,NaNish\n")
    assert main(["compare", str(results)]) == 3
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("Oops,NaNish\n", "line 1: malformed row 'Oops,NaNish' (want name,precision,f1)"),
    ("", "results file contains no rows"),
], ids=["malformed", "empty"])
def test_compare_errors_name_the_results_file(tmp_path, capsys, text, message):
    results = tmp_path / "results.csv"
    results.write_text(text)
    assert main(["compare", str(results)]) == 3
    assert capsys.readouterr().err == f"error: {results}: {message}\n"


@pytest.mark.parametrize("order", ["bad_first", "bad_second"])
def test_compare_out_of_range_row_exits_3_in_either_order(tmp_path, capsys, order):
    """A first row whose numbers parse is data, not a header, so an
    out-of-range value there is an error too."""
    rows = ["BERT,182.5,81.0", "BioBERT,89.8,87.6"]
    if order == "bad_second":
        rows.reverse()
    results = tmp_path / "results.csv"
    results.write_text("\n".join(rows) + "\n")
    assert main(["compare", str(results)]) == 3
    captured = capsys.readouterr()
    line = 1 if order == "bad_first" else 2
    assert captured.err == (f"error: {results}: line {line}: malformed row "
                            "'BERT,182.5,81.0' (precision_pct must be in [0, 100], got 182.5)\n")
    assert captured.out == ""


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen-synthetic"])  # --out is required
    assert exc.value.code == 2


def test_a_plain_value_error_escapes_main(tmp_path, monkeypatch):
    """Exit 2 is UsageError's alone: any other ValueError raised inside a
    subcommand is a defect, and main lets it through."""
    def defect(args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("medner.cli.cmd_compare", defect)
    with pytest.raises(ValueError, match="could not be broadcast"):
        main(["compare", str(tmp_path / "results.csv")])


@pytest.mark.parametrize("setting, message", [
    ("n_heads = 3", "d_model (16) must be divisible by n_heads (3)"),
    ("dropout_rate = 1.0", "dropout_rate must be in [0, 1)"),
])
def test_train_with_an_invalid_model_setting_exits_2_naming_it(tmp_path, capsys, setting,
                                                                message):
    key, value = setting.split(" = ")
    cfg, out_dir = _one_epoch_config(tmp_path, **{key: value})
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(out_dir.glob("*.ckpt"))


# ---------------------------------------------------------------------------
# process boundary: real processes, checked for exit code and traceback
# ---------------------------------------------------------------------------

SRC = str(Path(medner.__file__).resolve().parents[1])


def medner_process(args, unbuffered=False, **kwargs):
    """`python -m medner.cli args` as a child process, with SIGINT at its
    default so the child turns it into KeyboardInterrupt even when this
    process runs with SIGINT ignored. Its stdout is block-buffered, as in
    a shell pipeline, unless `unbuffered`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    flags = ["-u"] if unbuffered else []
    return subprocess.Popen(
        [sys.executable, *flags, "-m", "medner.cli", *map(str, args)], env=env, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL), **kwargs)


def finished(proc, timeout=120):
    _, err = proc.communicate(timeout=timeout)
    assert "Traceback" not in err, err
    return proc.returncode, err


def test_cli_imports_only_the_standard_library_and_numpy():
    """numpy stays the only runtime dependency: importing the CLI in a fresh
    interpreter loads no other top-level module."""
    code = ("import sys; before = set(sys.modules); import medner.cli; "
            "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))")
    loaded = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                            check=True, capture_output=True, text=True, timeout=120).stdout
    assert {"medner", "numpy"} <= set(loaded.split())
    assert set(loaded.split()) - set(sys.stdlib_module_names) - {"medner", "numpy"} == set()


def test_gen_synthetic_and_prepare_are_byte_identical_across_hash_seeds(tmp_path):
    """Reruns in one process share its string hash seed, so they cannot
    catch an output that follows the order of a set or dict; two
    processes with different PYTHONHASHSEED values can."""
    outputs = []
    for hash_seed in ("1", "2"):
        work = tmp_path / f"hash-seed-{hash_seed}"
        work.mkdir()
        env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed}
        for args in (["gen-synthetic", "--out", "raw.conll", "--n-records", "300",
                      "--entity-types", "Symptom,Drug,Disease", "--seed", "4"],
                     ["prepare", "raw.conll", "--out", "prep", "--seed", "4"]):
            subprocess.run([sys.executable, "-m", "medner.cli", *args], cwd=work, env=env,
                           check=True, capture_output=True, timeout=120)
        outputs.append({path.relative_to(work).as_posix(): path.read_bytes()
                        for path in sorted(work.rglob("*")) if path.is_file()})
    assert sorted(outputs[0]) == ["prep/manifest.json", "prep/test.conll", "prep/train.conll",
                                  "prep/val.conll", "prep/vocab.txt", "raw.conll"]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("verb", ["gen-synthetic", "prepare", "train", "eval", "predict"])
def test_unwritable_out_exits_3_naming_it(tmp_path, verb):
    raw = gen_corpus(tmp_path)
    cfg, data_dir, _ = write_config(tmp_path)
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    ckpt = _tiny_checkpoint(tmp_path / "model.ckpt")
    gold = tmp_path / "gold.conll"
    gold.write_text("aspirin\tB-Drug\n")
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("aspirin\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    out = blocker / "out"
    argv = {"gen-synthetic": ["gen-synthetic", "--out", out, "--n-records", "5"],
            "prepare": ["prepare", raw, "--out", out],
            "train": ["train", "--config", cfg, "--out", out],
            "eval": ["eval", ckpt, gold, "--out", out],
            "predict": ["predict", ckpt, tokens, "--out", out]}[verb]
    code, err = finished(medner_process(argv, stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE))
    assert code == 3
    assert err.startswith("error: ") and str(blocker) in err, err


@pytest.mark.parametrize("verb", ["gen-synthetic", "predict"])
def test_out_naming_a_directory_exits_3_and_leaves_no_temp_file(tmp_path, capsys, verb):
    ckpt = _tiny_checkpoint(tmp_path / "model.ckpt")
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("aspirin\n")
    out = tmp_path / "taken"
    out.mkdir()
    argv = {"gen-synthetic": ["gen-synthetic", "--out", str(out), "--n-records", "5"],
            "predict": ["predict", str(ckpt), str(tokens), "--out", str(out)]}[verb]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and ".tmp." not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "taken", "tokens.txt"]


@pytest.mark.parametrize("verb", ["eval", "predict"])
def test_closed_stdout_exits_3_without_traceback(tmp_path, verb):
    ckpt = _tiny_checkpoint(tmp_path / "model.ckpt")
    gold = tmp_path / "gold.conll"
    gold.write_text("aspirin\tB-Drug\n\naspirin\tO\n")
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("aspirin\n")
    argv = {"eval": ["eval", ckpt, gold, "--out", tmp_path / "closed"],
            "predict": ["predict", ckpt, tokens]}[verb]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = medner_process(argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    code, err = finished(proc)
    assert code == 3
    assert err.startswith("error: stdout: "), err
    if verb == "eval":
        assert main([str(a) for a in argv[:-1]] + [str(tmp_path / "open")]) == 0
        report = (tmp_path / "open" / "eval_report.txt").read_bytes()
        assert (tmp_path / "closed" / "eval_report.txt").read_bytes() == report


def test_interrupted_train_exits_130_without_traceback(tmp_path):
    raw = gen_corpus(tmp_path)
    cfg, _, _ = write_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("max_epochs = 4", "max_epochs = 100000"))
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    proc = medner_process(["train", "--config", cfg], unbuffered=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().startswith("epoch 1:")
        proc.send_signal(signal.SIGINT)
        code, err = finished(proc)
    finally:
        proc.kill()
    assert code == 130
    assert err == "interrupted\n"
