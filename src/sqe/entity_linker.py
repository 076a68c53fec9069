"""Dictionary entity linking against article titles.

A deterministic stand-in for a learned linker: greedy left-to-right
longest match of token n-grams against tokenized article titles.  Known
disambiguation titles can be excluded through a stop-title list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NoEntities
from .kb_graph import KBGraph, NodeId
from .text import lines, normalize_title, tokenize


@dataclass(frozen=True)
class InputRequest:
    request_id: str
    text: str


@dataclass
class LinkedEntities:
    request_id: str
    input_nodes: list[NodeId] = field(default_factory=list)
    matched_spans: list[tuple[int, int]] = field(default_factory=list)


def load_stop_titles(path: str) -> set[str]:
    """One normalized title per line; blank lines ignored."""
    return {normalize_title(line) for _lineno, line in lines(path)}


class EntityLinker:
    """Phrase table over article titles, reusable across requests; it only reads the graph."""

    def __init__(self, g: KBGraph, max_ngram: int = 8, stop_titles: set[str] | None = None):
        if max_ngram < 1:
            raise ValueError("max_ngram must be >= 1")
        self.max_ngram = max_ngram
        stop = stop_titles or set()
        phrases: dict[tuple[str, ...], NodeId] = {}
        for a in g.article_ids():
            if stop and g.normalized_title(a) in stop:
                continue
            toks = tuple(tokenize(g.title(a)))
            if not 1 <= len(toks) <= max_ngram:
                continue
            # token-identical titles are rare; keep the earliest node
            if toks not in phrases:
                phrases[toks] = a
        self._phrases = phrases

    def link(self, req: InputRequest) -> LinkedEntities:
        """Greedy longest-match linking; raises NoEntities on zero matches."""
        tokens = tokenize(req.text)
        result = LinkedEntities(req.request_id)
        seen: set[NodeId] = set()
        i = 0
        while i < len(tokens):
            for n in range(min(self.max_ngram, len(tokens) - i), 0, -1):
                node = self._phrases.get(tuple(tokens[i : i + n]))
                if node is not None:
                    if node not in seen:
                        seen.add(node)
                        result.input_nodes.append(node)
                        result.matched_spans.append((i, i + n))
                    i += n
                    break
            else:
                i += 1
        if not result.input_nodes:
            raise NoEntities(f"no article title matches {req.text!r}")
        return result


def link(
    g: KBGraph,
    req: InputRequest,
    max_ngram: int = 8,
    stop_titles: set[str] | None = None,
) -> LinkedEntities:
    """One-shot linking; builds the phrase table for a single request."""
    return EntityLinker(g, max_ngram=max_ngram, stop_titles=stop_titles).link(req)
