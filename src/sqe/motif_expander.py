"""Query-graph construction from triangular and square structural motifs.

Both motifs start from an input article that is doubly linked with a
candidate article, so one walk over each input's double links weighs
every candidate for both.  The triangular motif additionally requires the
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


# input set -> its TRIANGULAR and SQUARE query graphs
Expansions = dict[frozenset[NodeId], tuple[QueryGraph, QueryGraph]]


def _motif_graphs(g: KBGraph, inputs: Iterable[NodeId]) -> tuple[QueryGraph, QueryGraph]:
    """The triangular and square query graphs of ``inputs``, from one walk."""
    nodes = sorted(set(inputs))
    if not nodes:
        raise EmptyInput("expansion needs at least one input node")
    for i in nodes:
        if not g.is_article(i):
            raise NotAnArticle(f"input node {i} ({g.title(i)!r}) is not an article")
    input_set = frozenset(nodes)
    tri: Counter[NodeId] = Counter()
    sq: Counter[NodeId] = Counter()
    for i in nodes:
        cats_i = g.categories_of(i)
        # linked[c]: how many of i's categories c is CC-joined to (no CC self-loop survives loading)
        linked: Counter[NodeId] = Counter()
        for ci in cats_i:
            linked.update(g.linked_categories(ci).tolist())
        for a in map(int, g.doubly_linked_neighbors(i)):
            if a in input_set:
                continue
            cats_a = g.categories_of(a)
            if cats_i and cats_i <= cats_a:  # no category, no triangle: the third corner is a shared one
                tri[a] += len(cats_i)
            pairs = sum(linked[ca] for ca in cats_a)
            if pairs:
                sq[a] += pairs
    return (QueryGraph(input_set, dict(tri), MotifKind.TRIANGULAR),
            QueryGraph(input_set, dict(sq), MotifKind.SQUARE))


def expand_triangular(g: KBGraph, inputs: Iterable[NodeId]) -> QueryGraph:
    """Candidates sharing a double link and a superset of the input's categories."""
    return _motif_graphs(g, inputs)[0]


def expand_square(g: KBGraph, inputs: Iterable[NodeId]) -> QueryGraph:
    """Candidates whose categories contain, or are contained in, an input's."""
    return _motif_graphs(g, inputs)[1]


def expand(
    g: KBGraph,
    inputs: Iterable[NodeId],
    kind: MotifKind,
    shared: Expansions | None = None,
) -> QueryGraph:
    """Build a query graph with one motif family or the weight-sum of both.

    ``shared`` is a caller-owned memo, keyed by input set under the memo
    rule of :mod:`sqe.pipeline`: one walk fills an entry with both motif
    graphs, and BOTH is the sum of the two.
    """
    key = frozenset(inputs)
    shared = {} if shared is None else shared
    if key not in shared:
        shared[key] = _motif_graphs(g, key)
    tri, sq = shared[key]
    if kind is not MotifKind.BOTH:
        return tri if kind is MotifKind.TRIANGULAR else sq
    combined = Counter(tri.expansion)
    combined.update(sq.expansion)
    return QueryGraph(tri.input_nodes, dict(combined), MotifKind.BOTH)
