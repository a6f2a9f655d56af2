"""The benchmark's workloads.

Each workload makes its inputs from the seed with `gen-synthetic`, so
the program only sees generated files. `setup` builds what the timed
phase needs; `run_pass` runs the timed CLI calls once, checks their
outputs, and returns that pass's metric values. All paths are relative
to the workload's working directory.
"""

from __future__ import annotations

import math
import os
import re
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
QUICKSTART_INI = ROOT / "configs" / "quickstart.ini"
TAG_BULK_INI = BENCH_DIR / "tag_bulk.ini"

TYPES = "Disease,Drug,Symptom"
# The README quickstart corpus, seed included. Models are trained on it
# only: with the quickstart recipe, training on other corpus seeds can
# stall (reduce-on-plateau takes lr to its floor before the model fits;
# seeds 6 and 9 reach span-F1 0.74 and 0.86), see README.md.
QUICKSTART_GEN = ("--n-records", 300, "--entity-types", TYPES,
                  "--vocab-size", 300, "--max-len", 16, "--seed", 42)
QUICKSTART_EPOCHS = 60
MIN_SPAN_F1 = 0.90

# What each per-pass value means and its unit; the first three are the
# end-to-end metrics every workload reports (with setup_s and peak_rss_mb).
UNITS = {
    "pipeline_s": "s",
    "tokens_per_s": "1/s",
    "train_tokens_per_s": "tokens/s",
    "span_f1": "ratio",
    "tag_tokens_per_s": "tokens/s",
    "eval_records_per_s": "records/s",
    "tag_one_p50_ms": "ms",
    "tag_one_p99_ms": "ms",
    "tag_one_calls": "count",
    "prepare_records_per_s": "records/s",
}

_PHI_SHAPED = re.compile(r"^(\d{1,4}[/-]\d{1,4}[/-]\d{1,4}|[^\t\n]*\d{5,}[^\t\n]*)\t", re.M)


# ---------------------------------------------------------------------------
# Reading outputs, independently of the program's own parsers
# ---------------------------------------------------------------------------


def parse_blocks(text: str) -> list[list[tuple[str, str]]]:
    """Records of `token<TAB>tag` text (or token-only text: tag "")."""
    blocks, current = [], []
    for line in text.splitlines():
        if not line.strip():
            if current:
                blocks.append(current)
                current = []
        elif not line.startswith("# "):
            token, _, tag = line.partition("\t")
            current.append((token, tag))
    if current:
        blocks.append(current)
    return blocks


def read_blocks(path) -> list[list[tuple[str, str]]]:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_blocks(fh.read())
    except OSError:
        return []


def bio_valid(tags) -> bool:
    prev = "O"
    for tag in tags:
        if tag != "O" and not re.fullmatch(r"[BI]-[A-Za-z][A-Za-z0-9_]*", tag):
            return False
        if tag.startswith("I-") and prev[2:] != tag[2:]:
            return False
        prev = tag
    return True


def spans(tags) -> set[tuple[int, int, str]]:
    """Exact-match spans; an I- that continues nothing starts a span."""
    out, start, etype = set(), None, ""
    for i, tag in enumerate(list(tags) + ["O"]):
        continues = start is not None and tag.startswith("I-") and tag[2:] == etype
        if start is not None and not continues:
            out.add((start, i, etype))
            start = None
        if tag != "O" and not continues:
            start, etype = i, tag[2:]
    return out


def span_counts(pred_rows, gold_rows) -> tuple[int, int, int]:
    tp = fp = fn = 0
    for pred, gold in zip(pred_rows, gold_rows):
        p, g = spans(pred), spans(gold)
        tp += len(p & g)
        fp += len(p - g)
        fn += len(g - p)
    return tp, fp, fn


def read_report(path) -> dict[str, str]:
    """`[spans]` section of eval_report.txt as key -> value."""
    values, section = {}, None
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("["):
                    section = line
                elif section == "[spans]" and " = " in line:
                    key, _, value = line.partition(" = ")
                    values[key] = value
    except OSError:
        pass
    return values


def write_tokens(path, blocks) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n\n".join("\n".join(tok for tok, _ in b) for b in blocks) + "\n")


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile: the value with ceil(q*n) values at or below it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _gen(session, out, n_records, vocab, max_len, seed):
    return session.call("gen-synthetic", "--out", out, "--n-records", n_records,
                        "--entity-types", TYPES, "--vocab-size", vocab,
                        "--max-len", max_len, "--seed", seed)


class Workload:
    name = ""
    seeded_inputs = True  # False: the inputs are fixed and --seed changes nothing

    def __init__(self, session, seed: int):
        self.session = session
        self.seed = seed

    def generate(self) -> list[str]:
        """Write the seed-derived input files; returns their paths."""
        raise NotImplementedError

    def setup(self) -> None:
        self.generate()
        self._require()

    def run_pass(self) -> dict[str, float]:
        raise NotImplementedError

    def _require(self) -> None:
        if self.session.failed:
            raise SetupError("; ".join(self.session.problems))


class SetupError(RuntimeError):
    pass


class TrainQuickstart(Workload):
    name = "train_quickstart"
    CKPT = "out/quickstart/best.ckpt"
    DATA = "out/quickstart/data"
    seeded_inputs = False

    def generate(self):
        self.session.call("gen-synthetic", "--out", "data/synthetic.conll", *QUICKSTART_GEN)
        return ["data/synthetic.conll"]

    def run_pass(self):
        s = self.session
        prep = s.call("prepare", "data/synthetic.conll", "--config", QUICKSTART_INI)
        train = s.call("train", "--config", QUICKSTART_INI)
        ev = s.call("eval", self.CKPT, f"{self.DATA}/test.conll", "--out", "out/quickstart")

        s.digest(prep, "prepare.splits",
                 *(f"{self.DATA}/{n}" for n in ("train.conll", "val.conll", "test.conll",
                                                "vocab.txt")))
        s.digest(train, "best.ckpt", self.CKPT)
        s.digest(train, "trainlog.csv", "out/quickstart/trainlog.csv")
        try:
            with open("out/quickstart/trainlog.csv", encoding="utf-8") as fh:
                epochs = len([ln for ln in fh.read().splitlines()[1:] if ln.strip()])
        except OSError:
            epochs = 0
        s.check(train, epochs == QUICKSTART_EPOCHS,
                f"trainlog.csv has {epochs} rows, want {QUICKSTART_EPOCHS}")
        f1 = float(read_report("out/quickstart/eval_report.txt").get("micro.f1", 0.0))
        s.check(ev, f1 >= MIN_SPAN_F1, f"span_f1 {f1} < {MIN_SPAN_F1}")

        train_tokens = sum(len(b) for b in read_blocks(f"{self.DATA}/train.conll"))
        tokens_per_s = train_tokens * epochs / train.seconds
        return {
            "pipeline_s": prep.seconds + train.seconds + ev.seconds,
            "tokens_per_s": tokens_per_s,
            "train_tokens_per_s": tokens_per_s,
            "span_f1": f1,
        }


class TagBulk(Workload):
    name = "tag_bulk"
    CKPT = "out/tag_bulk/best.ckpt"
    N_BULK = 8000
    N_ONE = 1000

    def generate(self):
        s = self.session
        s.call("gen-synthetic", "--out", "data/synthetic.conll", *QUICKSTART_GEN)
        # quickstart-shaped; an odd seed never repeats the training corpus's 42
        _gen(s, "bulk.conll", self.N_BULK, 300, 16, 2 * self.seed + 1)
        self.gold = read_blocks("bulk.conll")
        write_tokens("bulk.txt", self.gold)
        os.makedirs("one", exist_ok=True)
        singles = [f"one/{i:04d}.txt" for i in range(self.N_ONE)]
        for path, block in zip(singles, self.gold):
            write_tokens(path, [block])
        return ["data/synthetic.conll", "bulk.conll", "bulk.txt", *singles]

    def setup(self):
        s = self.session
        self.generate()
        s.call("prepare", "data/synthetic.conll", "--config", TAG_BULK_INI)
        train = s.call("train", "--config", TAG_BULK_INI)
        s.digest(train, "best.ckpt", self.CKPT)
        self._require()

    def _check_tags(self, op, blocks, gold, what) -> list[list[str]]:
        s = self.session
        s.check(op, len(blocks) == len(gold), f"{what}: {len(blocks)} records, want {len(gold)}")
        for out, ref in zip(blocks, gold):
            if not s.check(op, [t for t, _ in out] == [t for t, _ in ref],
                           f"{what}: tokens differ from the input"):
                break
            if not s.check(op, bio_valid([tag for _, tag in out]),
                           f"{what}: tags are not one BIO-valid tag per token"):
                break
        return [[tag for _, tag in b] for b in blocks]

    def run_pass(self):
        s = self.session
        pred = s.call("predict", self.CKPT, "bulk.txt", "--out", "pred.txt")
        ev = s.call("eval", self.CKPT, "bulk.conll", "--out", "eval")
        ones = [s.call("predict", self.CKPT, f"one/{i:04d}.txt") for i in range(self.N_ONE)]

        pred_tags = self._check_tags(pred, read_blocks("pred.txt"), self.gold, "predict")
        s.digest(pred, "predict.bulk", "pred.txt")
        report = read_report("eval/eval_report.txt")
        gold_tags = [[tag for _, tag in b] for b in self.gold]
        counts = span_counts(pred_tags, gold_tags)
        scored = tuple(int(report.get(f"micro.{k}", -1)) for k in ("tp", "fp", "fn"))
        s.check(ev, counts == scored,
                f"eval scored spans {scored}, predict output gives {counts}")
        f1 = float(report.get("micro.f1", 0.0))
        s.check(ev, f1 >= MIN_SPAN_F1, f"span_f1 {f1} < {MIN_SPAN_F1}")

        with open("one_pred.txt", "w", encoding="utf-8") as fh:
            for op, ref in zip(ones, self.gold):
                self._check_tags(op, parse_blocks(op.stdout), [ref], "single predict")
                fh.write(op.stdout + "\n")
        s.digest(ones[0], "predict.single", "one_pred.txt")

        n_tokens = sum(len(b) for b in self.gold)
        one_ms = sorted(op.seconds * 1000.0 for op in ones)
        return {
            "pipeline_s": pred.seconds + ev.seconds + sum(op.seconds for op in ones),
            "tokens_per_s": n_tokens / pred.seconds,
            "tag_tokens_per_s": n_tokens / pred.seconds,
            "eval_records_per_s": len(self.gold) / ev.seconds,
            "tag_one_p50_ms": percentile(one_ms, 0.50),
            "tag_one_p99_ms": percentile(one_ms, 0.99),
            "tag_one_calls": len(ones),
            "span_f1": f1,
        }


class PrepareBulk(Workload):
    name = "prepare_bulk"
    N_RECORDS = 10000
    SPLITS = ("train.conll", "val.conll", "test.conll")

    def generate(self):
        _gen(self.session, "bulk.conll", self.N_RECORDS, 2000, 48, self.seed)
        self.n_tokens = sum(len(b) for b in read_blocks("bulk.conll"))
        return ["bulk.conll"]

    def run_pass(self):
        s = self.session
        prep = s.call("prepare", "bulk.conll", "--out", "prep", "--seed", self.seed)
        s.digest(prep, "prepare.splits",
                 *(f"prep/{n}" for n in (*self.SPLITS, "vocab.txt")))

        n = self.N_RECORDS
        n_train, n_val = round_half_up(n * 0.70), round_half_up(n * 0.15)
        want = (n_train, n_val, n - n_train - n_val)
        sizes = []
        for name in self.SPLITS:
            try:
                with open(f"prep/{name}", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError:
                text = ""
            sizes.append(text.count("\n# id: ") + text.startswith("# id: "))
            s.check(prep, not _PHI_SHAPED.search(text), f"{name} holds a PHI-shaped token")
        s.check(prep, tuple(sizes) == want, f"split sizes {tuple(sizes)}, want {want}")
        try:
            with open("prep/vocab.txt", encoding="utf-8") as fh:
                head = fh.read().splitlines()[:2]
        except OSError:
            head = []
        s.check(prep, head == ["<PAD>", "<UNK>"], f"vocab.txt starts {head}")

        return {
            "pipeline_s": prep.seconds,
            "tokens_per_s": self.n_tokens / prep.seconds,
            "prepare_records_per_s": n / prep.seconds,
        }


WORKLOADS = {w.name: w for w in (TrainQuickstart, TagBulk, PrepareBulk)}
