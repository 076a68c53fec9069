"""Exception types shared across the toolkit; every fault of an input file
is a :class:`FormatError`, which names the file and, where it has one, the line."""


class SqeError(Exception):
    """Base class for all toolkit errors."""


class FormatError(SqeError):
    """Line ``line`` of input file ``path`` breaks ``reason``; ``line`` is None
    for a fault of the whole file.  The message is ``line N: <path>: <reason>``,
    or ``<path>: <reason>``, so no reader writes the path into its reason."""

    def __init__(self, path: str, line: int | None, reason: str):
        super().__init__(f"{path}: {reason}" if line is None else f"line {line}: {path}: {reason}")
        self.path, self.line, self.reason = path, line, reason


class KindMismatch(FormatError):
    """An edge's declared kind contradicts its endpoint node kinds."""


class NotAnArticle(SqeError):
    """Operation requires an Article node."""


class NotACategory(SqeError):
    """Operation requires a Category node."""


class NoEntities(SqeError):
    """Entity linking found no matching articles; the pipeline cannot expand."""


class EmptyInput(SqeError):
    """An operation was called with an empty input set."""


class ParseError(SqeError):
    """Structured query text does not follow the grammar."""

    def __init__(self, position: int, expected: str):
        super().__init__(f"at position {position}: expected {expected}")
        self.position = position
        self.expected = expected


class DuplicateDocId(SqeError):
    """Two documents in an indexing stream share an id."""


class EmptyCollection(SqeError):
    """Scoring requested against an index with no documents."""


class LengthMismatch(SqeError):
    """Paired sequences have incompatible lengths."""


class TooFewPairs(SqeError):
    """Significance testing needs at least two paired observations."""


class UnknownQuery(SqeError):
    """A run's request id has no judgments in the qrels."""
