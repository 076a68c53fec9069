"""Exception types shared across the toolkit."""


class SqeError(Exception):
    """Base class for all toolkit errors."""


class FormatError(SqeError):
    """A data file row could not be parsed; ``line`` is None for a fault of the whole file."""

    def __init__(self, line: int | None, reason: str):
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class KindMismatch(SqeError):
    """An edge's declared kind contradicts its endpoint node kinds."""

    def __init__(self, line: int, reason: str = ""):
        msg = f"line {line}: edge kind contradicts endpoint kinds"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)
        self.line = line


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
