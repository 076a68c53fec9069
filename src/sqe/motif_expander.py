"""Query-graph construction from triangular and square structural motifs.

Both motifs start from an input article that is doubly linked with a
candidate article.  The triangular motif additionally requires the
candidate to belong to at least the input's exact categories; the square
motif requires a containment edge, in either direction, between one
category of each.  Every article entering the query graph carries the
number of motif instances it appeared in: one per witnessing category
for triangles, one per linked category pair for squares.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .errors import EmptyInput, NotAnArticle
from .kb_graph import KBGraph, NodeId


class MotifKind(Enum):
    TRIANGULAR = "triangular"
    SQUARE = "square"
    BOTH = "both"


@dataclass
class QueryGraph:
    input_nodes: frozenset[NodeId]
    expansion: dict[NodeId, int] = field(default_factory=dict)
    motif_kind: MotifKind = MotifKind.BOTH

    def titles(self, g: KBGraph) -> dict[str, int]:
        return {g.title(a): w for a, w in self.expansion.items()}


def _checked_inputs(g: KBGraph, inputs: Iterable[NodeId]) -> list[NodeId]:
    nodes = sorted(set(inputs))
    if not nodes:
        raise EmptyInput("expansion needs at least one input node")
    for i in nodes:
        if not g.is_article(i):
            raise NotAnArticle(f"input node {i} ({g.title(i)!r}) is not an article")
    return nodes


def expand_triangular(g: KBGraph, inputs: Iterable[NodeId]) -> QueryGraph:
    """Candidates sharing a double link and a superset of the input's categories.

    An input with no categories contributes nothing: the motif always has
    a shared category as its third corner, so an unconditional superset
    over the empty set is not allowed to match.
    """
    nodes = _checked_inputs(g, inputs)
    input_set = set(nodes)
    weights: Counter[NodeId] = Counter()
    for i in nodes:
        cats_i = g.categories_of(i)
        if not cats_i:
            continue
        for a in map(int, g.doubly_linked_neighbors(i)):
            if a in input_set:
                continue
            if cats_i <= g.categories_of(a):
                weights[a] += len(cats_i)
    return QueryGraph(frozenset(nodes), dict(weights), MotifKind.TRIANGULAR)


def expand_square(g: KBGraph, inputs: Iterable[NodeId]) -> QueryGraph:
    """Candidates whose categories contain, or are contained in, an input's.

    Each unordered double link contributes one instance per (input
    category, candidate category) pair joined by a CC edge in either
    direction.
    """
    nodes = _checked_inputs(g, inputs)
    input_set = set(nodes)
    weights: Counter[NodeId] = Counter()
    for i in nodes:
        # linked[c]: how many of i's categories c is CC-joined to (no CC self-loop survives loading)
        linked: Counter[NodeId] = Counter()
        for ci in g.categories_of(i):
            linked.update(g.linked_categories(ci).tolist())
        for a in map(int, g.doubly_linked_neighbors(i)):
            if a in input_set:
                continue
            pairs = sum(linked[ca] for ca in g.categories_of(a))
            if pairs:
                weights[a] += pairs
    return QueryGraph(frozenset(nodes), dict(weights), MotifKind.SQUARE)


_EXPANDERS = {MotifKind.TRIANGULAR: expand_triangular, MotifKind.SQUARE: expand_square}


def expand(
    g: KBGraph,
    inputs: Iterable[NodeId],
    kind: MotifKind,
    shared: dict[MotifKind, QueryGraph] | None = None,
) -> QueryGraph:
    """Build a query graph with one motif family or the weight-sum of both.

    ``shared`` is a caller-owned memo for one input set: TRIANGULAR and
    SQUARE graphs are read from it or computed into it, and BOTH is the
    sum of those two entries, so each motif runs at most once per memo.
    """
    if shared is None:
        shared = {}
    if kind is not MotifKind.BOTH:
        qg = shared.get(kind)
        if qg is None:
            qg = shared[kind] = _EXPANDERS[kind](g, inputs)
        elif qg.input_nodes != frozenset(inputs):
            raise ValueError("a shared expansion memo serves one input set only")
        return qg
    tri = expand(g, inputs, MotifKind.TRIANGULAR, shared)
    sq = expand(g, inputs, MotifKind.SQUARE, shared)
    combined = Counter(tri.expansion)
    combined.update(sq.expansion)
    return QueryGraph(tri.input_nodes, dict(combined), MotifKind.BOTH)
