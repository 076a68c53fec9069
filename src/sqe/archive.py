"""Versioned column archives: the one on-disk container for indexes and snapshots.

A file is an uncompressed NumPy ``.npz`` archive of a ``magic`` string, a
format ``version`` and named columns.  A string column ``xs`` is stored as
its UTF-8 bytes back to back under ``xs`` and each string's end offset
under ``x_ends`` (``vocab`` under ``vocab_ends``).  Reading restores no
Python objects, so loading a file runs no code from it.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FormatError

_ZIP_MAGIC = b"PK\x03\x04"


def _ends(name: str) -> str:
    return name.removesuffix("s") + "_ends"


def _decode(raw: bytes, ends: list[int]) -> list[str]:
    """The strings packed back to back in ``raw``, each ending at its entry of ``ends``."""
    starts = [0, *ends]
    text = raw.decode("utf-8")
    if len(text) == len(raw):  # ASCII: byte offsets are character offsets
        return [text[a:b] for a, b in zip(starts, ends)]
    return [raw[a:b].decode("utf-8") for a, b in zip(starts, ends)]


@dataclass(frozen=True)
class ArchiveFormat:
    magic: str
    version: int
    noun: str  # what the file holds, for messages
    remedy: str  # how to re-create a file this build cannot read

    def error(self, path: str, reason: str) -> FormatError:
        return FormatError(None, f"{path}: {reason}; {self.remedy}")

    def save(
        self, path: str, arrays: dict[str, np.ndarray], strings: dict[str, Sequence[str]]
    ) -> None:
        columns = dict(arrays)
        for name, values in strings.items():
            encoded = [s.encode("utf-8") for s in values]
            columns[name] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
            columns[_ends(name)] = np.cumsum([len(b) for b in encoded], dtype=np.int64)
        with open(path, "wb") as fh:
            np.savez(fh, magic=np.array(self.magic), version=np.array(self.version), **columns)

    def load(self, path: str, arrays: Sequence[str], strings: Sequence[str]) -> dict:
        """Named columns of a file written by :meth:`save`, strings as lists of ``str``.

        Raises :class:`FormatError` for a foreign file, another magic or
        version, and a missing, corrupt or truncated column.
        """
        with open(path, "rb") as fh:
            if fh.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
                raise self.error(path, f"not an sqe {self.noun} (not an .npz archive)")
            fh.seek(0)
            try:
                with np.load(fh, allow_pickle=False) as data:
                    magic = data["magic"].item()
                    if magic != self.magic:
                        raise self.error(path, f"not an sqe {self.noun} (magic {magic!r})")
                    version = int(data["version"])
                    if version != self.version:
                        raise self.error(path, f"{self.noun} format version {version}, "
                                         f"this build reads version {self.version}")
                    columns = {name: data[name] for name in arrays}
                    for name in strings:
                        columns[name] = _decode(data[name].tobytes(), data[_ends(name)].tolist())
            except (KeyError, ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
                raise self.error(path, f"corrupt or truncated {self.noun} ({exc})") from None
        return columns
