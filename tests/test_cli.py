"""CLI end-to-end: every subcommand, exit codes, and byte-level
reproducibility of outputs.
"""

import pytest

from medner.cli import main
from medner.corpus import load_corpus, parse_conll, validate_bio
from medner.model import ModelConfig, init_params, save_checkpoint

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
    assert (out / "manifest.json").exists()
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


def test_prepare_missing_file(tmp_path, capsys):
    assert main(["prepare", str(tmp_path / "nope.conll")]) == 3


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


def test_seed_env_fallback(tmp_path, monkeypatch):
    raw = gen_corpus(tmp_path)
    monkeypatch.setenv("MEDNER_SEED", "5")
    out_env = tmp_path / "env"
    main(["prepare", str(raw), "--out", str(out_env)])
    out_flag = tmp_path / "flag"
    main(["prepare", str(raw), "--out", str(out_flag), "--seed", "5"])
    assert ((out_env / "train.conll").read_bytes()
            == (out_flag / "train.conll").read_bytes())


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
    assert "prepare" in capsys.readouterr().err


def test_train_divergence_exit_code_4(tmp_path, capsys):
    import numpy as np

    raw = gen_corpus(tmp_path)
    cfg_path, data_dir, out_dir = write_config(tmp_path)
    text = cfg_path.read_text().replace("learning_rate = 1e-3",
                                        "learning_rate = 1e25")
    cfg_path.write_text(text)
    main(["prepare", str(raw), "--config", str(cfg_path)])
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--config", str(cfg_path)])
    assert rc == 4
    assert "diverged" in capsys.readouterr().err
    # last good checkpoint retained
    assert (out_dir / "final.ckpt").exists()


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


def test_eval_gold_as_pred_prints_100(pipeline, capsys):
    _, data_dir, out_dir = pipeline
    rc = main(["eval", str(out_dir / "best.ckpt"), str(data_dir / "test.conll"),
               "--out", str(out_dir), "--gold-as-pred"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "P=100.0% R=100.0% F1=100.0%" in out
    assert (out_dir / "eval_report.txt").exists()


def test_eval_inventory_mismatch(pipeline, tmp_path, capsys):
    _, _, out_dir = pipeline
    alien = tmp_path / "alien.conll"
    alien.write_text("tok\tB-Virus\n")
    rc = main(["eval", str(out_dir / "best.ckpt"), str(alien)])
    assert rc == 3
    assert "Virus" in capsys.readouterr().err


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


def _bad_checkpoint(tmp_path, kind):
    path = tmp_path / "bad.ckpt"
    if kind == "directory":
        path.mkdir()
        return path
    _tiny_checkpoint(path)
    if kind == "missing_offset":
        rewrite_manifest(path, lambda m: m["tensors"][0].pop("offset"))
    elif kind == "permuted":
        rewrite_manifest(path, lambda m: m["tensors"].reverse())
    elif kind == "vocab_size":
        rewrite_manifest(path, lambda m: m["vocab"].append("ibuprofen"))
    elif kind == "n_labels":
        rewrite_manifest(path, lambda m: m["labels"].append("Disease"))
    else:
        blob = bytearray(path.read_bytes())
        blob[-4:] = b"\x00\x00\xc0\x7f"  # float32 NaN
        path.write_bytes(bytes(blob))
    return path


@pytest.mark.parametrize("kind", ["missing_offset", "permuted", "nan_payload", "directory",
                                  "vocab_size", "n_labels"])
def test_bad_checkpoint_exits_3_naming_file(tmp_path, capsys, kind):
    ckpt = _bad_checkpoint(tmp_path, kind)
    gold = tmp_path / "gold.conll"
    gold.write_text("aspirin\tB-Drug\n")
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("aspirin\n")
    for argv in (["eval", str(ckpt), str(gold)], ["predict", str(ckpt), str(tokens)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: "), err


@pytest.mark.parametrize("verb", ["prepare", "eval", "predict", "train", "compare"])
@pytest.mark.parametrize("kind", ["non_utf8", "directory"])
def test_unreadable_text_input_exits_3_naming_file(tmp_path, capsys, verb, kind):
    bad = tmp_path / "input.txt"
    if kind == "directory":
        bad.mkdir()
    else:
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


def test_predict_empty_input(pipeline, tmp_path):
    _, _, out_dir = pipeline
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    assert main(["predict", str(out_dir / "best.ckpt"), str(empty)]) == 3


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
