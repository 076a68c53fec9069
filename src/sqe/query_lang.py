"""Structured query trees: combine, weight, ordered windows and terms.

The operator set is a deliberately small subset of the Indri language:
``#combine(...)`` averages its children, ``#weight(w1 c1 w2 c2 ...)``
takes a normalized weighted sum, ``#N(tok tok)`` is an ordered window
with at most N-1 positions between consecutive tokens (``#1`` is exact
phrase matching), and a bare token matches a single term.  Trees render
to text and parse back; render and parse are inverse up to whitespace.
Parsed text nests operators at most ``MAX_DEPTH`` deep.  An expanded
query takes its entity and its feature phrases from one ``Phrases`` memo,
keyed by normalized title under the memo rule of :mod:`sqe.pipeline`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .errors import EmptyInput, ParseError
from .kb_graph import KBGraph
from .motif_expander import QueryGraph
from .text import TOKEN, normalize_title, tokenize

QueryNode = Union["Term", "Window", "Combine", "Weight"]

# The largest window size.  Search subtracts it from int64 token positions.
MAX_WINDOW = 2**62
# The deepest operator nesting that parses.  Parsing, rendering and scoring
# recurse a few frames per level, well within Python's default limit.
MAX_DEPTH = 100


@dataclass(frozen=True)
class Term:
    token: str

    def __post_init__(self):
        if not TOKEN.fullmatch(self.token):
            raise ValueError(f"term token must be a single normalized token: {self.token!r}")


@dataclass(frozen=True)
class Window:
    """Ordered window: tokens in order, gaps of at most ``n`` positions.

    ``display`` keeps the raw phrase when it differs from the plain token
    join (titles such as "above (artist)"); matching always uses tokens.
    """

    n: int
    tokens: tuple[str, ...]
    display: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not 1 <= self.n <= MAX_WINDOW:
            raise ValueError(f"window size must be >= 1 and <= {MAX_WINDOW}")
        if not self.tokens:
            raise ValueError("window needs at least one token")
        if self.display is not None and self.display == " ".join(self.tokens):
            object.__setattr__(self, "display", None)


@dataclass(frozen=True)
class Combine:
    children: tuple[QueryNode, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("combine needs at least one child")


@dataclass(frozen=True)
class Weight:
    entries: tuple[tuple[float, QueryNode], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((float(w), c) for w, c in self.entries)
        )
        if not self.entries:
            raise ValueError("weight needs at least one entry")
        if not 0 < min(w for w, _c in self.entries) <= sum(w for w, _c in self.entries) < math.inf:
            raise ValueError("weights must be finite and strictly positive, with a finite sum")


@dataclass(frozen=True)
class ExpandedQuery:
    """The three query components: user input, entities, expansion features."""

    input_part: Combine
    entity_part: Combine | None = None
    feature_part: Weight | None = None

    @property
    def root(self) -> Combine:
        parts = [self.input_part]
        if self.entity_part is not None:
            parts.append(self.entity_part)
        if self.feature_part is not None:
            parts.append(self.feature_part)
        return Combine(tuple(parts))


def phrase(title: str) -> Window:
    """Exact-phrase window for a title; keeps parentheses etc. for display."""
    window = _phrase({}, normalize_title(title))
    if window is None:
        raise ValueError(f"title has no tokens: {title!r}")
    return window


# normalized title -> its exact-phrase window, None for a title with no tokens
Phrases = dict[str, Window | None]


def _phrase(phrases: Phrases, norm: str) -> Window | None:
    """The window of the normalized title ``norm``, built into ``phrases`` on first use."""
    if norm not in phrases:
        toks = tokenize(norm)
        phrases[norm] = Window(1, tuple(toks), display=norm) if toks else None
    return phrases[norm]


def build_expanded_query(
    input_tokens: Sequence[str],
    entity_titles: Sequence[str],
    qg: QueryGraph | None,
    g: KBGraph | None = None,
    phrases: Phrases | None = None,
) -> ExpandedQuery:
    """Assemble input, entity and feature parts into one expanded query.

    Feature entries take their weight from the query graph's motif counts
    and are ordered by weight descending, then normalized title ascending;
    a feature whose title has no tokens is left out.  An entity title with
    no tokens raises :class:`EmptyInput` (the linker never links one).
    ``g`` resolves the query graph's node ids to titles and is required
    only when ``qg`` is given.  Every phrase comes from ``phrases``, or
    from a fresh table when none is given.
    """
    tokens = [t for raw in input_tokens for t in tokenize(raw)]
    if not tokens:
        raise EmptyInput("input tokens are empty after normalization")
    input_part = Combine(tuple(Term(t) for t in tokens))
    phrases = {} if phrases is None else phrases

    entity_part = None
    if entity_titles:
        windows = tuple(_phrase(phrases, normalize_title(t)) for t in entity_titles)
        if None in windows:
            raise EmptyInput(f"entity title {entity_titles[windows.index(None)]!r} has no tokens")
        entity_part = Combine(windows)

    feature_part = None
    if qg is not None and qg.expansion:
        if g is None:
            raise ValueError("a graph is needed to resolve expansion titles")
        weights = qg.expansion
        features = []
        for a in sorted(weights, key=lambda a: (-weights[a], g.normalized_title(a))):
            window = _phrase(phrases, g.normalized_title(a))
            if window is not None:
                features.append((weights[a], window))
        feature_part = Weight(tuple(features)) if features else None

    return ExpandedQuery(input_part, entity_part, feature_part)


def render(q: QueryNode) -> str:
    """Single-line text form; weights printed with one decimal."""
    if isinstance(q, Term):
        return q.token
    if isinstance(q, Window):
        return f"#{q.n}({q.display if q.display is not None else ' '.join(q.tokens)})"
    if isinstance(q, Combine):
        return "#combine( " + " ".join(render(c) for c in q.children) + " )"
    if isinstance(q, Weight):
        inner = " ".join(f"{w:.1f} {render(c)}" for w, c in q.entries)
        return "#weight( " + inner + " )"
    raise TypeError(f"not a query node: {q!r}")


_WS = re.compile(r"\s*")
_BARE_TOKEN = re.compile(r"[^()#\s]+")
_NUMBER = re.compile(r"\d+(?:\.\d+)?")
_WINDOW_SIZE = re.compile(r"[0-9]+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, expected: str) -> ParseError:
        return ParseError(self.pos, expected)

    def skip_ws(self) -> None:
        self.pos = _WS.match(self.text, self.pos).end()

    def eat(self, literal: str, expected: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise self.error(expected)
        self.pos += len(literal)

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def parse_node(self, depth: int = 0) -> QueryNode:
        """The node at ``pos``, inside ``depth`` operators."""
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("a query node")
        if self.text[self.pos] == "#":
            if depth == MAX_DEPTH:
                raise self.error(f"operators nested at most {MAX_DEPTH} deep")
            return self.parse_operator(depth + 1)
        m = _BARE_TOKEN.match(self.text, self.pos)
        if not m:
            raise self.error("a term token")
        raw = m.group()
        if not TOKEN.fullmatch(raw.lower()):
            raise self.error(f"a plain alphanumeric token (got {raw!r})")
        self.pos = m.end()
        return Term(raw.lower())

    def parse_operator(self, depth: int) -> QueryNode:
        start = self.pos
        self.eat("#", "'#'")
        m = _WINDOW_SIZE.match(self.text, self.pos)
        if m and self.text[m.end() : m.end() + 1] == "(":
            digits = m.group().lstrip("0") or "0"
            # the length test comes first: int() refuses a string of over 4300 digits
            if len(digits) > len(str(MAX_WINDOW)) or int(digits) > MAX_WINDOW:
                raise self.error(f"a window size <= {MAX_WINDOW}")
            self.pos = m.end()
            return self.parse_window(int(digits))
        if self.text.startswith("combine", self.pos):
            self.pos += len("combine")
            return Combine(self.parse_operands("combine", "child", lambda: self.parse_node(depth)))
        if self.text.startswith("weight", self.pos):
            self.pos += len("weight")
            entries = self.parse_operands("weight", "(weight, node) entry", lambda: self.parse_entry(depth))
            if sum(w for w, _c in entries) == math.inf:
                raise ParseError(start, "weights with a finite sum")
            return Weight(entries)
        raise self.error("'combine', 'weight' or a window size")

    def parse_window(self, n: int) -> Window:
        self.eat("(", "'('")
        depth = 1
        start = self.pos
        while self.pos < len(self.text) and depth:
            ch = self.text[self.pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            self.pos += 1
        if depth:
            raise self.error("')' closing the window phrase")
        content = self.text[start : self.pos - 1]
        toks = tuple(tokenize(content))
        if not toks:
            raise ParseError(start, "at least one token inside the window")
        display = " ".join(content.split())
        if n < 1:
            raise ParseError(start, "a window size >= 1")
        return Window(n, toks, display=display)

    def parse_operands(self, name: str, what: str, operand: Callable[[], object]) -> tuple:
        """The ``operand``s of ``#name`` up to its ``)``; at least one ``what``."""
        self.eat("(", f"'(' after #{name}")
        operands = []
        while True:
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == ")":
                self.pos += 1
                break
            operands.append(operand())
        if not operands:
            raise self.error(f"at least one {what} in #{name}")
        return tuple(operands)

    def parse_entry(self, depth: int) -> tuple[float, QueryNode]:
        """One ``#weight`` entry: a weight value, then a node."""
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            raise self.error("a weight value")
        weight = float(m.group())
        if not 0 < weight < math.inf:
            raise self.error("a finite, strictly positive weight")
        self.pos = m.end()
        return weight, self.parse_node(depth)


def parse(text: str) -> QueryNode:
    """Parse rendered query text back into a tree; whitespace-insensitive."""
    p = _Parser(text)
    node = p.parse_node()
    if not p.at_end():
        raise p.error("end of input")
    return node
