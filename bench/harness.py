"""In-process CLI calls with timing, failure counting, output digests and
the environment record.

Every operation is one `medner.cli.main(argv)` call. It fails when its
exit code is not 0 or when a check on its output fails; an operation
counts as failed at most once.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import time
import traceback
from dataclasses import dataclass, field


@dataclass
class Op:
    argv: list[str]
    code: int
    seconds: float
    stdout: str
    ok: bool = True


@dataclass
class Session:
    """Counts operations and failures, and keeps output digests per label."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, list[str]] = field(default_factory=dict)
    earlier: dict[str, str] = field(default_factory=dict)

    def call(self, *argv: str) -> Op:
        from medner import cli

        argv = [str(a) for a in argv]
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the CLI must never raise; count it as a failure
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
        op = Op(argv, code, seconds, out.getvalue())
        self.attempted += 1
        if code != 0:
            op.ok = False
            self.failed += 1
            self.problems.append(f"exit {code}: medner {' '.join(argv)}")
        return op

    def check(self, op: Op, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(f"check failed: {what} (medner {' '.join(op.argv[:2])})")
            if op.ok:
                op.ok = False
                self.failed += 1
        return ok

    def digest(self, op: Op, label: str, *paths) -> None:
        """Record the sha256 of `paths`. A digest that differs from an
        earlier repetition in this run, or from an earlier run of the same
        code and seed, fails `op`."""
        h = hashlib.sha256()
        for path in paths:
            try:
                with open(path, "rb") as fh:
                    h.update(fh.read())
            except OSError:
                h.update(b"<missing>")
        seen = self.digests.setdefault(label, [])
        seen.append(h.hexdigest())
        self.check(op, seen[0] == seen[-1], f"{label} differs between repetitions")
        earlier = self.earlier.get(label, seen[-1])
        self.check(op, earlier == seen[-1], f"{label} differs from an earlier run")

    def digest_record(self) -> dict:
        return {label: {"sha256": values[-1], "repetitions": len(values),
                        "repeats": len(set(values)) == 1
                        and self.earlier.get(label, values[0]) == values[0]}
                for label, values in sorted(self.digests.items())}


def load_history(path: str, key: str) -> dict[str, str]:
    """Digests that earlier runs with the same `key` (code and seed) stored."""
    try:
        with open(path, encoding="utf-8") as fh:
            history = json.load(fh)
    except (OSError, ValueError):
        return {}
    return history.get(key, {}) if isinstance(history, dict) else {}


def save_history(path: str, key: str, session: Session) -> None:
    try:
        with open(path, encoding="utf-8") as fh:
            history = json.load(fh)
    except (OSError, ValueError):
        history = {}
    history[key] = {label: values[0] for label, values in session.digests.items()}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def code_fingerprint(root: str, paths) -> str:
    """sha256 over the program and benchmark sources that shape the outputs."""
    h = hashlib.sha256()
    files = []
    for rel in paths:
        full = os.path.join(root, rel)
        if os.path.isdir(full):
            for dirpath, _dirs, names in os.walk(full):
                files += [os.path.join(dirpath, n) for n in names
                          if n.endswith((".py", ".ini"))]
        else:
            files.append(full)
    for path in sorted(files):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads():
    """Thread count as the loaded OpenBLAS reports it, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = set(re.findall(r"\S*openblas\S*\.so\S*", fh.read()))
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, blas_threads_pinned: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = re.findall(r"^model name\s*:\s*(.+)$", fh.read(), re.M)
        if models:
            cpu = models[0].strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": blas_threads_pinned,
        "blas_threads_reported": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }
