"""Mutation testing of src/medner against a checked-in list of mutants.

Each mutant replaces one exact piece of source text, which must occur
exactly once in its module, and names the one test file that should kill
it. For each mutant the runner copies src/ into a temporary directory,
applies the mutant there and runs that test file with -x against the copy.
The mutant is killed when the run fails or times out, and survives when
it passes. A mutant stated equivalent changes no output, so it is
expected to survive.

Before any mutant runs, every named test file must pass on the unchanged
copy, and each mutated module must still parse and differ from the
original in its syntax tree, so that a kill always comes from a test.

Run from the repository root (about a minute on two cores):

    python tests/mutation.py              # every mutant
    python tests/mutation.py repair id    # mutants whose name holds a word

It prints one line per mutant and a tally per module. It exits 1 when a
mutant not stated equivalent survives, or a stated-equivalent one is
killed. The file name has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Each test file runs in well under a minute. A mutant that makes a wait
# never end (train's reap of a worker that ignores its stop counter) is
# killed by this limit, not by a failing assertion.
TIMEOUT_S = 120


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/medner
    source: str  # exact text, occurring once in the module
    replacement: str
    test_file: str  # file name under tests/
    equivalent: str = ""  # why the mutant changes no output, if it does not


MUTANTS = [
    Mutant("dropout-unscaled", "model.py",
           "(dropout_rng.random(shape) >= rate).astype(dtype) / dtype.type(1.0 - rate))",
           "(dropout_rng.random(shape) >= rate).astype(dtype))",
           "test_model.py"),
    Mutant("model-config-plain-value-error", "model.py",
           'raise UsageError("dropout_rate must be in [0, 1)")',
           'raise ValueError("dropout_rate must be in [0, 1)")',
           "test_cli.py"),
    Mutant("id-rule-six-digits", "corpus.py",
           '_ID_RUN_RE = re.compile(r"\\d{5,}")',
           '_ID_RUN_RE = re.compile(r"\\d{6,}")',
           "test_corpus.py"),
    Mutant("split-round-half-even", "corpus.py",
           "return math.floor(x + 0.5)",
           "return round(x)",
           "test_corpus.py"),
    Mutant("min-freq-3-off-by-one", "corpus.py",
           "(tok for tok, c in counts.items() if c >= min_freq),",
           "(tok for tok, c in counts.items() if c >= min_freq + (min_freq >= 3)),",
           "test_corpus.py"),
    Mutant("best-epoch-latest-on-tie", "training.py",
           "if key > best_key:",
           "if key >= best_key:",
           "test_training.py"),
    Mutant("train-loss-per-record", "training.py",
           "loss_sum += loss * batch.n_tokens",
           "n_records = sum(len(s.token_ids) for s in batch.shards if s is not None); "
           "loss_sum += loss * n_records; loss_n += n_records - batch.n_tokens",
           "test_training.py"),
    Mutant("cross-entropy-gradient-per-shard-mean", "training.py",
           "dlogits /= n_tokens",
           "dlogits /= n",
           "test_training.py"),
    Mutant("cross-entropy-loss-per-shard-mean", "training.py",
           "-np.log(np.maximum(p_true, PROB_CLAMP)).sum() / n_tokens)",
           "-np.log(np.maximum(p_true, PROB_CLAMP)).sum() / n)",
           "test_training.py"),
    Mutant("worker-ignores-the-stop-counter", "training.py",
           "if self.counters[_GO] == _STOP or os.getppid() != parent:",
           "if os.getppid() != parent:",
           "test_training.py"),
    Mutant("worker-outlives-its-parent", "training.py",
           "if self.counters[_GO] == _STOP or os.getppid() != parent:",
           "if self.counters[_GO] == _STOP:",
           "test_training.py"),
    Mutant("unfinished-shard-taken-as-done", "training.py",
           "return self.counters[_DONE] == step",
           "return True",
           "test_training.py"),
    Mutant("shard-slots-summed-last-first", "training.py",
           "np.add(handoff.slots[0], handoff.slots[1], out=handoff.slots[0])",
           "np.add(handoff.slots[1], handoff.slots[0], out=handoff.slots[0])",
           "test_training.py",
           equivalent="IEEE addition commutes, so with two shards either order "
                      "gives the same bits"),
    Mutant("manifest-repair-always-true", "cli.py",
           '"repair": bool(args.repair),',
           '"repair": True,',
           "test_cli.py"),
    Mutant("main-maps-value-error-to-2", "cli.py",
           "except UsageError as exc:",
           "except ValueError as exc:",
           "test_cli.py"),
    Mutant("embedding-grad-fancy-assignment", "model.py",
           "np.add.at(grads[\"emb.tok\"].reshape(-1), cells.reshape(-1), dx.reshape(-1))",
           "grads[\"emb.tok\"].reshape(-1)[cells.reshape(-1)] += dx.reshape(-1)",
           "test_training.py"),
    Mutant("backward-drops-ff-residual", "model.py",
           "dx_mid += dx\n", "\n",
           "test_training.py"),
    Mutant("backward-drops-attention-residual", "model.py",
           "dx += dx_mid\n", "\n",
           "test_training.py"),
    Mutant("improvement-threshold-inclusive", "training.py",
           "if best is not None and loss < best - IMPROVEMENT_THRESHOLD:",
           "if best is not None and loss <= best - IMPROVEMENT_THRESHOLD:",
           "test_training.py"),
    Mutant("clip-at-the-norm-itself", "training.py",
           "if norm > grad_clip_norm > 0:",
           "if norm >= grad_clip_norm > 0:",
           "test_training.py",
           equivalent="at norm == grad_clip_norm the scale is exactly 1.0, "
                      "so the clipped gradient has the same bits"),
    Mutant("manifest-length-unchecked", "model.py",
           'for key in ("shape", "offset", "length"):',
           'for key in ("shape", "offset"):',
           "test_model.py"),
    Mutant("repair-keeps-the-invalid-i", "corpus.py",
           'lab = checked[i] = TagLabel.from_tag(f"B-{lab.entity_type}")',
           'lab = checked[i] = TagLabel.from_tag(f"I-{lab.entity_type}")',
           "test_corpus.py"),
    Mutant("batch-budget-exclusive", "evaluation.py",
           "* row_bytes(len(id_rows[order[stop]])) <= _BATCH_BYTES):",
           "* row_bytes(len(id_rows[order[stop]])) < _BATCH_BYTES):",
           "test_evaluation.py"),
    Mutant("fork-fallback-own-share-only", "evaluation.py",
           "    forward(range(len(batches)))\n",
           "    forward(range(0, len(batches), processes))\n",
           "test_evaluation.py"),
    Mutant("fork-threshold-2", "evaluation.py",
           "_FORK_MIN_BATCHES = 8",
           "_FORK_MIN_BATCHES = 2",
           "test_evaluation.py",
           equivalent="a tuning constant: forked inference gives the bytes of one process"),
    Mutant("manifest-name-set-unchecked", "model.py",
           "if sorted(names, key=repr) != sorted(expected, key=repr):",
           "if False:",
           "test_cli.py"),
    Mutant("manifest-order-unchecked", "model.py",
           'if entry["name"] != want["name"]:',
           "if False:",
           "test_model.py"),
    Mutant("manifest-shape-unchecked", "model.py",
           'for key in ("shape", "offset", "length"):',
           'for key in ("offset", "length"):',
           "test_model.py"),
    Mutant("manifest-offset-unchecked", "model.py",
           'for key in ("shape", "offset", "length"):',
           'for key in ("shape", "length"):',
           "test_model.py"),
    Mutant("strict-bio-ignores-type", "corpus.py",
           'if lab.position == "I" and prev.entity_type != lab.entity_type:',
           'if lab.position == "I" and prev.position == "O":',
           "test_corpus.py"),
    Mutant("cross-entropy-unclamped", "training.py",
           "-np.log(np.maximum(p_true, PROB_CLAMP))",
           "-np.log(p_true)",
           "test_training.py"),
    Mutant("adam-first-moment-uncorrected", "training.py",
           "corr1 = 1.0 - b1**state.t",
           "corr1 = 1.0",
           "test_training.py"),
    Mutant("adam-second-moment-uncorrected", "training.py",
           "corr2 = 1.0 - b2**state.t",
           "corr2 = 1.0",
           "test_training.py"),
    Mutant("lr-schedule-no-floor", "training.py",
           "max(first * config.decay_factor**reductions, config.min_lr)",
           "first * config.decay_factor**reductions",
           "test_training.py"),
    Mutant("dangling-val-link-as-missing", "cli.py",
           "if os.path.lexists(val_path)",
           "if os.path.exists(val_path)",
           "test_cli.py"),
    Mutant("gold-bio-error-unprefixed", "cli.py",
           'raise FormatError(f"{path}: record {rec.record_id!r}: {exc}") from None',
           "raise",
           "test_cli.py"),
]


def mutated_source(mutant: Mutant) -> str:
    """The module's text with the mutant applied, checked to parse and to
    change the module's syntax tree."""
    text = (ROOT / "src" / "medner" / mutant.module).read_text(encoding="utf-8")
    count = text.count(mutant.source)
    if count != 1:
        raise SystemExit(f"{mutant.name}: source text occurs {count} times in {mutant.module}")
    new = text.replace(mutant.source, mutant.replacement)
    if ast.dump(ast.parse(new)) == ast.dump(ast.parse(text)):
        raise SystemExit(f"{mutant.name}: the replacement does not change the code")
    return new


def tests_pass(src: Path, test_file: str) -> bool:
    """Whether tests/<test_file> passes with medner imported from src. A
    run that takes over TIMEOUT_S is stopped and counts as failing."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             str(ROOT / "tests" / test_file)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(words: list[str]) -> int:
    chosen = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    sources = {m.name: mutated_source(m) for m in chosen}
    with tempfile.TemporaryDirectory(prefix="medner-mutation-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for test_file in sorted({m.test_file for m in chosen}):
            if not tests_pass(src, test_file):
                print(f"tests/{test_file} fails on the unchanged source")
                return 1
        tally: dict[str, Counter] = {}
        unexpected = 0
        for mutant in chosen:
            path = src / "medner" / mutant.module
            original = path.read_text(encoding="utf-8")
            path.write_text(sources[mutant.name], encoding="utf-8")
            try:
                survived = tests_pass(src, mutant.test_file)
            finally:
                path.write_text(original, encoding="utf-8")
            if not survived:
                status = "killed"
            else:
                status = "equivalent" if mutant.equivalent else "survived"
            unexpected += survived != bool(mutant.equivalent)
            tally.setdefault(mutant.module, Counter())[status] += 1
            note = f" ({mutant.equivalent})" if mutant.equivalent else ""
            print(f"{status:10}  {mutant.module:14}  {mutant.name}  "
                  f"[tests/{mutant.test_file}]{note}")
    print()
    for module, counts in sorted(tally.items()):
        print(f"{module:14}  " + "  ".join(f"{counts[s]} {s}" for s in
                                           ("killed", "survived", "equivalent")))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
