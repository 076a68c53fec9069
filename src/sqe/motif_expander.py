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
# an input node's (candidate, triangular weight, square weight) rows
Walk = list[tuple[NodeId, int, int]]
# input node -> its walk
Walks = dict[NodeId, Walk]


def _walk(g: KBGraph, i: NodeId) -> Walk:
    """``i``'s doubly linked candidates with their triangular and square
    weights, in double-link order, less those that weigh 0 for both."""
    cats_i = g.categories_of(i)
    # linked[c]: how many of i's categories c is CC-joined to (no CC self-loop survives loading)
    linked: Counter[NodeId] = Counter()
    for ci in cats_i:
        linked.update(g.linked_categories(ci).tolist())
    rows = []
    for a in map(int, g.doubly_linked_neighbors(i)):
        cats_a = g.categories_of(a)
        # no category, no triangle: the third corner is a shared one
        tri = len(cats_i) if cats_i and cats_i <= cats_a else 0
        sq = sum(linked[ca] for ca in cats_a)
        if tri or sq:
            rows.append((a, tri, sq))
    return rows


def _motif_graphs(
    g: KBGraph, inputs: Iterable[NodeId], walks: Walks | None = None
) -> tuple[QueryGraph, QueryGraph]:
    """The triangular and square query graphs of ``inputs``: the sum of their
    walks, taken in input order from ``walks`` or made and kept there."""
    nodes = sorted(set(inputs))
    if not nodes:
        raise EmptyInput("expansion needs at least one input node")
    for i in nodes:
        if not g.is_article(i):
            raise NotAnArticle(f"input node {i} ({g.title(i)!r}) is not an article")
    walks = {} if walks is None else walks
    input_set = frozenset(nodes)
    tri: Counter[NodeId] = Counter()
    sq: Counter[NodeId] = Counter()
    for i in nodes:
        if i not in walks:
            walks[i] = _walk(g, i)
        for a, t, s in walks[i]:
            if a in input_set:
                continue
            if t:
                tri[a] += t
            if s:
                sq[a] += s
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
    walks: Walks | None = None,
) -> QueryGraph:
    """Build a query graph with one motif family or the weight-sum of both.

    ``shared`` and ``walks`` are caller-owned memos under the memo rule of
    :mod:`sqe.pipeline`, and both must belong to ``g``.  ``shared`` is keyed
    by input set: one sum of walks fills an entry with both motif graphs,
    and BOTH is the sum of the two.  ``walks`` is keyed by input node: an
    entry holds that node's candidate rows with both weights, for every
    input set that holds the node.  Either memo left out lives for this
    call only.
    """
    key = frozenset(inputs)
    shared = {} if shared is None else shared
    if key not in shared:
        shared[key] = _motif_graphs(g, key, walks)
    tri, sq = shared[key]
    if kind is not MotifKind.BOTH:
        return tri if kind is MotifKind.TRIANGULAR else sq
    combined = Counter(tri.expansion)
    combined.update(sq.expansion)
    return QueryGraph(tri.input_nodes, dict(combined), MotifKind.BOTH)
