"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, medner_namespaces  # noqa: E402

import medner.cli  # noqa: E402,F401  (loads every medner module)

TINY_INI = """
[data]
dir = data
[split]
seed = 3
[model]
d_model = 16
n_heads = 2
n_layers = 1
d_ff = 32
max_len = 16
dropout_rate = 0.0
[train]
learning_rate = 1e-3
batch_size = 8
max_epochs = 2
seed = 3
[output]
dir = out
"""


def _snapshot():
    return {(mod.__name__, attr): value
            for mod in medner_namespaces() for attr, value in vars(mod).items()}


def _tiny_pipeline(session):
    """Every CLI verb the workloads use, on a 40-record corpus."""
    session.call("gen-synthetic", "--out", "c.conll", "--n-records", 40, "--seed", 3)
    session.call("prepare", "c.conll", "--config", "tiny.ini")
    session.call("train", "--config", "tiny.ini")
    session.call("eval", "out/best.ckpt", "data/test.conll", "--out", "out")
    workloads.write_tokens("t.txt", workloads.read_blocks("data/test.conll"))
    session.call("predict", "out/best.ckpt", "t.txt")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generation_is_seed_deterministic(name, tmp_path, monkeypatch):
    def generate(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        monkeypatch.chdir(work)
        session = harness.Session()
        files = workloads.WORKLOADS[name](session, seed).generate()
        assert session.failed == 0, session.problems
        return {f: hashlib.sha256((work / f).read_bytes()).hexdigest() for f in files}

    first = generate(5, "a")
    assert generate(5, "b") == first
    assert (generate(6, "c") != first) == workloads.WORKLOADS[name].seeded_inputs


def test_tracing_wraps_every_namespace_and_restores_it():
    before = _snapshot()
    with Tracer() as tr:
        assert not tr.absent
        originals = {id(f) for f in tr.originals.values()}
        stale = [key for key, value in _snapshot().items() if id(value) in originals]
        assert stale == []
        from medner import cli, evaluation, training

        for fn in (training.forward, evaluation.forward, training.gelu_grad,
                   cli.load_checkpoint_full, training.atomic_write_text):
            assert hasattr(fn, "__wrapped__")
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_spans_have_self_time_within_total(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.ini").write_text(TINY_INI)
    session = harness.Session()
    with Tracer() as tr:
        _tiny_pipeline(session)
    assert session.failed == 0, session.problems
    m = tr.metrics()
    for span in tracer.span_names():
        assert 0.0 <= m[f"{span}.self_s"] <= m[f"{span}.total_s"] + 1e-9, span
    for span in ("cli.cmd_train", "model.forward_train", "model.forward_infer",
                 "training.adam_step", "evaluation.span_metrics", "ioutil.atomic_write_text"):
        assert m[f"{span}.calls"] > 0, span
    assert m["model.forward_train.tokens"] > 0
    assert 0.0 <= m["model.forward_train.pad_share"] < 1.0
    assert m["corpus.load_corpus.records"] > 0
    assert m["model.save_checkpoint.bytes"] > 0


def test_absent_functions_are_listed_not_fatal(monkeypatch):
    layers = {**tracer.LAYERS, "model": [*tracer.LAYERS["model"], "no_such_function"],
              "no_such_module": ["anything"]}
    monkeypatch.setattr(tracer, "LAYERS", layers)
    before = _snapshot()
    with Tracer() as tr:
        assert sorted(tr.absent) == ["model.no_such_function", "no_such_module.anything"]
    assert tr.metrics()["model.no_such_function.calls"] == 0
    assert all(_snapshot()[key] is value for key, value in before.items())


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_span_scorer_matches_the_program():
    from medner.corpus import TagLabel
    from medner.evaluation import span_metrics

    rows = [["B-Drug", "I-Drug", "O", "B-Disease"], ["O", "I-Drug", "I-Drug", "B-Drug"],
            ["B-Symptom", "I-Disease", "O", "O"]]
    gold = [["B-Drug", "I-Drug", "O", "B-Disease"], ["O", "B-Drug", "I-Drug", "O"],
            ["B-Symptom", "O", "O", "O"]]
    micro = span_metrics([[TagLabel.from_tag(t) for t in r] for r in rows],
                         [[TagLabel.from_tag(t) for t in r] for r in gold]).micro
    assert workloads.span_counts(rows, gold) == (micro.tp, micro.fp, micro.fn)
