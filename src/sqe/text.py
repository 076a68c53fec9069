"""Text files, tokenization and title normalization.

Every input file is read through ``open_text``, most line by line through
``lines``.  Every component that compares text to text goes through
``tokenize`` and ``normalize_title``, so entity phrases found in a request
stay searchable in the document index.
"""

from __future__ import annotations

import contextlib
import re
from pathlib import Path
from typing import Iterator

from .errors import FormatError

TOKEN = re.compile(r"[0-9a-z]+")  # one token, as ``tokenize`` finds it
_WHITESPACE = re.compile(r"\s+")


def tokenize(text: str) -> list[str]:
    """The runs of ASCII letters and digits in the lowercased text."""
    return TOKEN.findall(text.lower())


def normalize_title(title: str) -> str:
    """Canonical form of a knowledge-base title.

    Lowercased, underscores become spaces, surrounding whitespace is
    trimmed and internal whitespace collapsed.  "Above_(artist)" and
    "above  (artist) " normalize to the same string.
    """
    return _WHITESPACE.sub(" ", title.replace("_", " ").strip()).lower()


@contextlib.contextmanager
def open_text(path: str):
    """Open an input file as UTF-8 text, less a leading byte-order mark; every
    reader goes through here, so a byte that does not decode raises
    :class:`FormatError` with its line."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        raw = Path(path).read_bytes()
        try:  # the reader's decoder counts from its last chunk: find the byte in the whole file
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            reason = f"not UTF-8 ({exc.reason}, byte 0x{raw[exc.start]:02x})"
            raise FormatError(path, raw.count(b"\n", 0, exc.start) + 1, reason) from None
        raise


def lines(path: str) -> Iterator[tuple[int, str]]:
    """Each non-blank line of an input file, less its newline, with its number from 1."""
    with open_text(path) as file:
        for lineno, line in enumerate(file, start=1):
            if line.strip():
                yield lineno, line.rstrip("\n")
