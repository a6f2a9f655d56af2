"""Seeded byte-mutation fuzzing of every file a user hands the CLI.

Each mutant of a checkpoint, an eval corpus, a prepare input, a predict
input or a compare results file must either work (exit 0) or be rejected
as bad data (exit 3). A
mutant config may also be a usage error (exit 2), and a mutant training
split or vocabulary may also make training diverge (exit 4). None may
raise, exit with another code, or print a traceback.
"""

import shutil

import numpy as np
import pytest

from medner.cli import main

from test_cli import RESULTS, gen_corpus, write_config

MUTANTS_PER_TARGET = 250
# a mutant costs a one-epoch train here, not a load and a tagging pass
TRAIN_MUTANTS_PER_FILE = 100

# bytes that the parsers give meaning to, spliced in as well as random ones
TOKENS = [b"\t", b"\n", b"\n\n", b"# id: x\n", b"# types: ", b"B-", b"I-", b"O", b"B-Drug", b" ",
          b"\r", b"\xff", b"\x00", b"\xc3", b"\xe2\x80\xa8", b"{", b"}", b"\"", b"9", b"-1",
          b"1e999"]

# values that the config parser, the casts or the config classes give meaning to
CONFIG_VALUES = [b"%(x)s", b"%", b"nan", b"inf", b"1e999", b"-1", b"0", b"", b"1_0", b"0x10",
                 b"true", b"0.5", b"[split]", b"a = b"]


def mutate(blob: bytes, rng: np.random.Generator, head: int) -> bytes:
    """One to three random edits; half of them land in the first `head` bytes."""
    out = bytearray(blob)
    for _ in range(int(rng.integers(1, 4))):
        end = len(out) if rng.random() < 0.5 else min(head, len(out))
        at = int(rng.integers(0, end + 1))
        op = int(rng.integers(0, 5))
        if op == 0 and at < len(out):          # overwrite one byte
            out[at] = int(rng.integers(0, 256))
        elif op == 1:                          # splice in a meaningful token
            out[at:at] = TOKENS[int(rng.integers(len(TOKENS)))]
        elif op == 2:                          # delete a short run
            del out[at : at + int(rng.integers(1, 9))]
        elif op == 3:                          # truncate
            del out[at:]
        else:                                  # duplicate a short run
            out[at:at] = out[at : at + int(rng.integers(1, 17))]
    return bytes(out)


def mutate_config(blob: bytes, rng: np.random.Generator) -> bytes:
    """Half the time a byte mutation; otherwise one key's value replaced by
    one of CONFIG_VALUES."""
    if rng.random() < 0.5:
        return mutate(blob, rng, len(blob))
    lines = blob.split(b"\n")
    keyed = [i for i, line in enumerate(lines) if b"=" in line]
    i = keyed[int(rng.integers(len(keyed)))]
    value = CONFIG_VALUES[int(rng.integers(len(CONFIG_VALUES)))]
    lines[i] = lines[i].split(b"=")[0] + b"= " + value
    return b"\n".join(lines)


def _payload_start(ckpt: bytes) -> int:
    """Offset of a checkpoint's float payload: after the magic line, the
    manifest length line, the manifest and its newline."""
    magic, length, _ = ckpt.split(b"\n", 2)
    return len(magic) + len(length) + 2 + int(length) + 1


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_base")
    raw = gen_corpus(root)
    cfg, data_dir, out_dir = write_config(root)
    assert main(["prepare", str(raw), "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    test_conll = data_dir / "test.conll"
    tokens = root / "tokens.txt"
    tokens.write_text("\n\n".join(
        "\n".join(line.split("\t")[0] for line in block.splitlines() if "\t" in line)
        for block in test_conll.read_text().split("\n\n") if "\t" in block) + "\n")
    results = root / "results.csv"
    results.write_text(RESULTS)
    return {"raw": raw, "ckpt": out_dir / "best.ckpt", "test": test_conll, "tokens": tokens,
            "cfg": cfg, "data": data_dir, "results": results}


def exit_codes(name: str, mutants, argv, mutant, allowed, capsys) -> dict[int, int]:
    """Write each mutant to `mutant` and run `argv`; count the exit codes.
    Fails on an escaped exception, a code not in `allowed` or a traceback."""
    codes: dict[int, int] = {}
    for i, blob in enumerate(mutants):
        mutant.write_bytes(blob)
        try:
            rc = main([str(a) for a in argv])
        except Exception as exc:  # any escape breaks the contract; name the mutant
            pytest.fail(f"{name} mutant {i} raised {exc!r}")
        err = capsys.readouterr().err
        assert rc in allowed, (name, i, rc, err)
        assert "Traceback" not in err, (name, i, err)
        codes[rc] = codes.get(rc, 0) + 1
    return codes


TARGETS = {
    # target: (base file, argv given the mutant's path and a scratch dir)
    "eval_checkpoint": ("ckpt", lambda f, m, d: ["eval", m, f["test"], "--out", d]),
    "eval_corpus": ("test", lambda f, m, d: ["eval", f["ckpt"], m, "--out", d]),
    "prepare_input": ("raw", lambda f, m, d: ["prepare", m, "--out", d]),
    "predict_input": ("tokens", lambda f, m, d: ["predict", f["ckpt"], m, "--out", d / "t"]),
    "compare": ("results", lambda f, m, d: ["compare", m]),
}


@pytest.mark.parametrize("target", list(TARGETS))
def test_mutated_input_exits_0_or_3_without_traceback(target, trained, tmp_path, capsys):
    base_key, argv_for = TARGETS[target]
    base = trained[base_key].read_bytes()
    head = _payload_start(base) if target == "eval_checkpoint" else len(base)
    rng = np.random.default_rng(sorted(TARGETS).index(target))
    mutant = tmp_path / "mutant"
    codes = exit_codes(target, (mutate(base, rng, head) for _ in range(MUTANTS_PER_TARGET)),
                       argv_for(trained, mutant, tmp_path / "out"), mutant, (0, 3), capsys)
    # the mutants reach both outcomes, so they exercise loading and rejecting
    assert set(codes) == {0, 3}, codes


def test_mutated_config_exits_0_2_or_3_without_traceback(trained, tmp_path, capsys):
    """prepare with a mutated config. --out keeps a mutated [data] dir from
    sending the outputs outside tmp_path."""
    base = trained["cfg"].read_bytes()
    rng = np.random.default_rng(len(TARGETS))
    mutant = tmp_path / "mutant.ini"
    codes = exit_codes("config", (mutate_config(base, rng) for _ in range(MUTANTS_PER_TARGET)),
                       ["prepare", trained["raw"], "--config", mutant, "--out", tmp_path / "out"],
                       mutant, (0, 2, 3), capsys)
    assert set(codes) == {0, 2, 3}, codes


@pytest.mark.parametrize("name", ["train.conll", "vocab.txt"])
def test_mutated_train_input_exits_0_3_or_4_without_traceback(name, trained, tmp_path,
                                                                capsys):
    """train for one epoch on a copy of the prepared data dir with one of
    its files mutated."""
    data_dir = tmp_path / "data"
    shutil.copytree(trained["data"], data_dir)
    cfg = tmp_path / "one_epoch.ini"
    cfg.write_text(trained["cfg"].read_text()
                   .replace("max_epochs = 4", "max_epochs = 1")
                   .replace(str(trained["data"]), str(data_dir)))
    base = (data_dir / name).read_bytes()
    rng = np.random.default_rng(len(TARGETS) + 1 + (name == "vocab.txt"))
    codes = exit_codes(name, (mutate(base, rng, len(base)) for _ in range(TRAIN_MUTANTS_PER_FILE)),
                       ["train", "--config", cfg, "--out", tmp_path / "out"],
                       data_dir / name, (0, 3, 4), capsys)
    assert {0, 3} <= set(codes), codes
