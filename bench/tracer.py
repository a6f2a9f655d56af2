"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each medner module, times every
call, and splits the time into total and self time (self = total minus
the time of wrapped calls made from inside it). A function is patched in
every medner namespace that holds it, because modules import each other's
functions by name: `forward` is bound in `training` and `evaluation` as
well as in `model`. Leaving the context restores every patched attribute.
A function that no longer exists is listed in `absent`, not an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

# module -> public functions wrapped in it
LAYERS = {
    "cli": ["cmd_gen_synthetic", "cmd_prepare", "cmd_train", "cmd_eval", "cmd_predict"],
    "corpus": ["load_corpus", "deidentify", "validate_bio", "spans_from_labels", "split",
               "build_vocab", "write_conll", "encode_corpus", "gen_synthetic"],
    "model": ["forward", "gelu", "gelu_grad", "layer_norm", "softmax",
              "init_params", "save_checkpoint", "load_checkpoint_full"],
    "training": ["train", "make_batches", "cross_entropy", "backward", "adam_step",
                 "lr_schedule"],
    "evaluation": ["evaluate", "predict_label_ids", "span_metrics", "token_metrics"],
    "ioutil": ["atomic_write_text"],
}

# `forward` is reported as two spans, split on its need_trace argument
SPLIT_SPANS = {"model.forward": ("model.forward_train", "model.forward_infer")}

# counts computed from call arguments or results: span -> count names
COUNTS = {
    "model.forward_train": ("tokens", "pad_share"),
    "model.forward_infer": ("tokens", "pad_share"),
    "model.gelu": ("elements",),
    "training.adam_step": ("elements",),
    "model.save_checkpoint": ("bytes",),
    "ioutil.atomic_write_text": ("bytes",),
    "corpus.load_corpus": ("records",),
}

COUNT_UNITS = {"tokens": "count", "pad_share": "ratio", "elements": "count",
               "bytes": "bytes", "records": "count"}

OVERHEAD_METRICS = (("trace.untraced_s", "s"), ("trace.traced_s", "s"),
                    ("trace.overhead_share", "ratio"))


def span_names() -> list[str]:
    names = []
    for module, funcs in LAYERS.items():
        for func in funcs:
            qual = f"{module}.{func}"
            names.extend(SPLIT_SPANS.get(qual, (qual,)))
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for span in span_names():
        units[f"{span}.calls"] = "count"
        units[f"{span}.total_s"] = "s"
        units[f"{span}.self_s"] = "s"
        for count in COUNTS.get(span, ()):
            units[f"{span}.{count}"] = COUNT_UNITS[count]
    units.update(OVERHEAD_METRICS)
    return units


def medner_namespaces() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "medner" or name.startswith("medner."))]


def _arg(bound, name, default=None):
    return bound.arguments.get(name, default) if bound is not None else default


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _param_elements(params) -> int:
    if hasattr(params, "values"):
        return sum(int(np.size(a)) for a in params.values())
    return int(np.size(params))


class _Stats:
    __slots__ = ("calls", "total", "self_time", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts: dict[str, float] = {}


class Tracer:
    """Context manager: wraps LAYERS on enter, restores them on exit."""

    def __init__(self):
        self.stats = {name: _Stats() for name in span_names()}
        self.absent: list[str] = []
        self.originals: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []  # [start, child_time] per open span

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        modules = {}
        for module in LAYERS:
            try:
                modules[module] = importlib.import_module(f"medner.{module}")
            except ImportError:
                modules[module] = None
        namespaces = medner_namespaces()
        for module, funcs in LAYERS.items():
            for func in funcs:
                qual = f"{module}.{func}"
                orig = getattr(modules[module], func, None)
                if not callable(orig):
                    self.absent.append(qual)
                    continue
                self.originals[qual] = orig
                wrapper = self._wrap(qual, orig)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, orig))

    def __exit__(self, *exc) -> None:
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches.clear()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, qual: str, orig):
        try:
            sig = inspect.signature(orig)
        except (TypeError, ValueError):
            sig = None
        split = SPLIT_SPANS.get(qual)
        stack = self._stack
        stats = self.stats
        counter = _COUNTERS.get(qual)

        def bind(args, kwargs):
            if sig is None:
                return None
            try:
                bound = sig.bind(*args, **kwargs)
            except TypeError:
                return None
            bound.apply_defaults()
            return bound

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            bound = bind(args, kwargs) if (split or counter) else None
            span = qual
            if split:
                span = split[0] if _arg(bound, "need_trace", True) else split[1]
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                st = stats[span]
                st.calls += 1
                st.total += elapsed
                st.self_time += elapsed - frame[1]
            if counter is not None:
                for name, value in counter(bound, result).items():
                    st.counts[name] = st.counts.get(name, 0) + value
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span, st in self.stats.items():
            out[f"{span}.calls"] = st.calls
            out[f"{span}.total_s"] = st.total
            out[f"{span}.self_s"] = st.self_time
            for count in COUNTS.get(span, ()):
                if count == "pad_share":
                    positions = st.counts.get("positions", 0)
                    out[f"{span}.pad_share"] = (
                        1.0 - st.counts.get("tokens", 0) / positions if positions else 0.0)
                else:
                    out[f"{span}.{count}"] = st.counts.get(count, 0)
        return out


def _forward_counts(bound, result):
    ids = _arg(bound, "token_ids")
    if ids is None:
        return {}
    positions = int(np.size(ids))
    mask = _arg(bound, "mask")
    tokens = positions if mask is None else int(np.count_nonzero(mask))
    return {"tokens": tokens, "positions": positions}


_COUNTERS = {
    "model.forward": _forward_counts,
    "model.gelu": lambda b, r: {"elements": int(np.size(_arg(b, "x")))},
    "training.adam_step": lambda b, r: {"elements": _param_elements(_arg(b, "params", {}))},
    "model.save_checkpoint": lambda b, r: {"bytes": _file_size(_arg(b, "path"))},
    "ioutil.atomic_write_text": lambda b, r: {"bytes": _file_size(_arg(b, "path"))},
    "corpus.load_corpus": lambda b, r: {"records": len(getattr(r, "records", ()))},
}
