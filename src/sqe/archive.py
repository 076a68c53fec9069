"""Versioned column archives: the one on-disk container for indexes and snapshots.

A file is an uncompressed NumPy ``.npz`` archive of a ``magic`` string, a
format ``version`` and named columns.  A string column is stored as lines:
its strings in UTF-8, each followed by ``\\n``, in one byte array.  No
string may hold a ``\\n``, as none can that a text file gave.  Reading
restores no Python objects, so loading a file runs no code from it.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FormatError

_ZIP_MAGIC = b"PK\x03\x04"


@dataclass(frozen=True)
class ArchiveFormat:
    magic: str
    version: int
    noun: str  # what the file holds, for messages
    remedy: str  # how to re-create a file this build cannot read

    def error(self, path: str, reason: str) -> FormatError:
        return FormatError(path, None, f"{reason}; {self.remedy}")

    def save(
        self, path: str, arrays: dict[str, np.ndarray], strings: dict[str, Sequence[str]]
    ) -> None:
        """Write ``arrays`` as they are and ``strings`` as lines; a string holding ``\\n``
        raises ``ValueError``, as its line break would split it on load."""
        columns = dict(arrays)
        for name, values in strings.items():
            text = "\n".join(values) + "\n" if values else ""
            if text.count("\n") != len(values):
                raise ValueError(f"a string of column {name!r} holds a line break")
            columns[name] = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, magic=np.array(self.magic), version=np.array(self.version), **columns)

    def load(self, path: str, arrays: Sequence[str], strings: Sequence[str]) -> dict:
        """Named columns of a file written by :meth:`save`, strings as lists of ``str``.

        Raises :class:`FormatError` for a foreign file, another magic or
        version, and a missing, corrupt or truncated column: a string
        column that is not UTF-8 or does not end in ``\\n`` is corrupt.
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
                        columns[name] = data[name].tobytes().decode("utf-8").split("\n")
                        if columns[name].pop():  # the text after the last "\n", "" in a good column
                            raise ValueError(f"string column {name!r} does not end in a line break")
            except (KeyError, ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
                raise self.error(path, f"corrupt or truncated {self.noun} ({exc})") from None
        return columns
