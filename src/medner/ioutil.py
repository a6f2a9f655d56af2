"""File I/O at the program's edge: text reads that fail as FormatErrors
naming the file, and atomic writes whose outputs land under their final
name only on success."""

from __future__ import annotations

import os

from .errors import FormatError


def read_text(path) -> str:
    """The UTF-8 text of the file at `path`, less a leading byte-order mark.
    A file that cannot be opened or decoded raises a FormatError whose
    message starts with the path and counts bytes from the file's start."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from None


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, data: bytes) -> None:
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):  # the write or the rename failed
            os.unlink(tmp)
