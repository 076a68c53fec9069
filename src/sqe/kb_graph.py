"""Knowledge-base graph of articles and categories.

The graph is a typed directed multigraph with three edge kinds:

* ``AA``  article links article
* ``AC``  article belongs to category
* ``CC``  category belongs to category

A :class:`KBGraph` is immutable once built; every read operation is safe
to call concurrently.  Parallel edges of the same kind between the same
ordered pair are deduplicated on load so that motif counting is
well-defined.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, KindMismatch, NotAnArticle, NotACategory
from .text import normalize_title

NodeId = int

_SNAPSHOT_MAGIC = "sqe-kb-snapshot"
_SNAPSHOT_VERSION = 1


class NodeKind(Enum):
    ARTICLE = "A"
    CATEGORY = "C"


class EdgeKind(Enum):
    AA = "AA"
    AC = "AC"
    CC = "CC"


# endpoint kinds each edge kind requires: (src kind, dst kind)
_EDGE_ENDPOINTS = {
    EdgeKind.AA: (NodeKind.ARTICLE, NodeKind.ARTICLE),
    EdgeKind.AC: (NodeKind.ARTICLE, NodeKind.CATEGORY),
    EdgeKind.CC: (NodeKind.CATEGORY, NodeKind.CATEGORY),
}


@dataclass(frozen=True)
class KBNode:
    id: NodeId
    kind: NodeKind
    title: str
    ext_id: str  # id used in the source files, kept for round-tripping


@dataclass
class ValidationReport:
    n_articles: int
    n_categories: int
    edge_counts: dict[EdgeKind, int]
    articles_without_category: list[NodeId] = field(default_factory=list)
    orphan_categories: list[NodeId] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return self.n_articles + self.n_categories

    @property
    def n_edges(self) -> int:
        return sum(self.edge_counts.values())

    @property
    def warnings(self) -> list[str]:
        out = [f"article {a} has no category" for a in self.articles_without_category]
        out += [f"category {c} has no edges" for c in self.orphan_categories]
        return out

    def summary(self) -> str:
        lines = [
            f"articles\t{self.n_articles}",
            f"categories\t{self.n_categories}",
        ]
        lines += [f"edges_{k.value}\t{self.edge_counts[k]}" for k in EdgeKind]
        lines.append(f"warnings\t{len(self.warnings)}")
        return "\n".join(lines)


_EMPTY = np.empty(0, dtype=np.int64)


class KBGraph:
    """Immutable typed graph with per-kind sorted adjacency.

    Construct through :func:`load_graph`, :func:`build_graph` or
    :func:`load_snapshot`, not directly.
    """

    __slots__ = ("nodes", "_out", "_in", "_title_index")

    def __init__(
        self,
        nodes: list[KBNode],
        out_adj: dict[EdgeKind, list[np.ndarray]],
        in_adj: dict[EdgeKind, list[np.ndarray]],
        title_index: dict[tuple[NodeKind, str], NodeId],
    ):
        self.nodes = nodes
        self._out = out_adj
        self._in = in_adj
        self._title_index = title_index

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, i: NodeId) -> KBNode:
        return self.nodes[i]

    def kind(self, i: NodeId) -> NodeKind:
        return self.nodes[i].kind

    def title(self, i: NodeId) -> str:
        return self.nodes[i].title

    def is_article(self, i: NodeId) -> bool:
        return self.nodes[i].kind is NodeKind.ARTICLE

    def article_ids(self) -> list[NodeId]:
        return [n.id for n in self.nodes if n.kind is NodeKind.ARTICLE]

    def category_ids(self) -> list[NodeId]:
        return [n.id for n in self.nodes if n.kind is NodeKind.CATEGORY]

    def node_by_title(self, kind: NodeKind, title: str) -> NodeId | None:
        return self._title_index.get((kind, normalize_title(title)))

    def article_by_title(self, title: str) -> NodeId | None:
        return self.node_by_title(NodeKind.ARTICLE, title)

    def category_by_title(self, title: str) -> NodeId | None:
        return self.node_by_title(NodeKind.CATEGORY, title)

    def out_neighbors(self, i: NodeId, kind: EdgeKind) -> np.ndarray:
        """Sorted, deduplicated outgoing neighbor ids. Do not mutate."""
        return self._out[kind][i]

    def in_neighbors(self, i: NodeId, kind: EdgeKind) -> np.ndarray:
        return self._in[kind][i]

    def has_edge(self, src: NodeId, dst: NodeId, kind: EdgeKind) -> bool:
        arr = self._out[kind][src]
        pos = int(np.searchsorted(arr, dst))
        return bool(pos < arr.size and arr[pos] == dst)

    def edge_count(self, kind: EdgeKind) -> int:
        return sum(a.size for a in self._out[kind])

    # -- spec operations ---------------------------------------------------

    def doubly_linked(self, a: NodeId, b: NodeId) -> bool:
        """True iff article-to-article links exist in both directions."""
        if not self.is_article(a) or not self.is_article(b):
            raise NotAnArticle(f"doubly_linked requires articles, got {a}, {b}")
        if a == b:
            return False  # self-edges are banned, so never doubly linked
        return self.has_edge(a, b, EdgeKind.AA) and self.has_edge(b, a, EdgeKind.AA)

    def doubly_linked_neighbors(self, a: NodeId) -> np.ndarray:
        """All articles doubly linked with ``a`` (sorted)."""
        if not self.is_article(a):
            raise NotAnArticle(f"node {a} is not an article")
        return np.intersect1d(
            self._out[EdgeKind.AA][a], self._in[EdgeKind.AA][a], assume_unique=True
        )

    def categories_of(self, a: NodeId) -> set[NodeId]:
        """Categories reachable by one AC edge from article ``a``."""
        if not self.is_article(a):
            raise NotAnArticle(f"node {a} is not an article")
        return set(map(int, self._out[EdgeKind.AC][a]))

    def category_linked(self, c1: NodeId, c2: NodeId) -> bool:
        """True iff a CC containment edge exists in either direction."""
        if self.is_article(c1) or self.is_article(c2):
            raise NotACategory(f"category_linked requires categories, got {c1}, {c2}")
        return self.has_edge(c1, c2, EdgeKind.CC) or self.has_edge(c2, c1, EdgeKind.CC)

    def validate(self) -> ValidationReport:
        """Count nodes and edges by kind and collect structural warnings."""
        n_articles = sum(1 for n in self.nodes if n.kind is NodeKind.ARTICLE)
        counts = {k: self.edge_count(k) for k in EdgeKind}
        no_cat = [
            n.id
            for n in self.nodes
            if n.kind is NodeKind.ARTICLE and self._out[EdgeKind.AC][n.id].size == 0
        ]
        orphans = [
            n.id
            for n in self.nodes
            if n.kind is NodeKind.CATEGORY
            and all(
                self._out[k][n.id].size == 0 and self._in[k][n.id].size == 0
                for k in EdgeKind
            )
        ]
        return ValidationReport(
            n_articles=n_articles,
            n_categories=len(self.nodes) - n_articles,
            edge_counts=counts,
            articles_without_category=no_cat,
            orphan_categories=orphans,
        )


def _group_by(keys: np.ndarray, values: np.ndarray, n_nodes: int) -> list[np.ndarray]:
    """Split edge endpoints into per-node sorted arrays."""
    if keys.size == 0:
        return [_EMPTY] * n_nodes
    order = np.lexsort((values, keys))
    keys = keys[order]
    values = values[order]
    bounds = np.searchsorted(keys, np.arange(n_nodes + 1))
    return [values[bounds[i] : bounds[i + 1]] for i in range(n_nodes)]


def _assemble(
    nodes: list[KBNode], edges_by_kind: dict[EdgeKind, np.ndarray]
) -> KBGraph:
    n = len(nodes)
    out_adj: dict[EdgeKind, list[np.ndarray]] = {}
    in_adj: dict[EdgeKind, list[np.ndarray]] = {}
    for kind, pairs in edges_by_kind.items():
        if pairs.size:
            pairs = np.unique(pairs, axis=0)  # dedup parallel edges
        out_adj[kind] = _group_by(pairs[:, 0], pairs[:, 1], n) if pairs.size else [_EMPTY] * n
        in_adj[kind] = _group_by(pairs[:, 1], pairs[:, 0], n) if pairs.size else [_EMPTY] * n
    title_index = {(nd.kind, normalize_title(nd.title)): nd.id for nd in nodes}
    return KBGraph(nodes, out_adj, in_adj, title_index)


def _make_nodes(rows: Iterable[tuple[str, str, str]], source: str) -> list[KBNode]:
    nodes: list[KBNode] = []
    seen_ext: set[str] = set()
    seen_title: set[tuple[NodeKind, str]] = set()
    for lineno, row in enumerate(rows, start=1):
        if len(row) != 3:
            raise FormatError(lineno, f"{source}: expected 3 columns, got {len(row)}")
        ext_id, kind_s, title = row
        try:
            kind = NodeKind(kind_s)
        except ValueError:
            raise FormatError(lineno, f"{source}: unknown node kind {kind_s!r}") from None
        if not title.strip():
            raise FormatError(lineno, f"{source}: empty title")
        if ext_id in seen_ext:
            raise FormatError(lineno, f"{source}: duplicate node id {ext_id!r}")
        key = (kind, normalize_title(title))
        if key in seen_title:
            raise FormatError(
                lineno, f"{source}: duplicate normalized title {key[1]!r} for kind {kind.value}"
            )
        seen_ext.add(ext_id)
        seen_title.add(key)
        nodes.append(KBNode(id=len(nodes), kind=kind, title=title, ext_id=ext_id))
    return nodes


def _make_edges(
    rows: Iterable[tuple[str, str, str]],
    nodes: list[KBNode],
    source: str,
) -> dict[EdgeKind, np.ndarray]:
    by_ext = {nd.ext_id: nd for nd in nodes}
    buckets: dict[EdgeKind, list[tuple[int, int]]] = {k: [] for k in EdgeKind}
    for lineno, row in enumerate(rows, start=1):
        if len(row) != 3:
            raise FormatError(lineno, f"{source}: expected 3 columns, got {len(row)}")
        src_s, dst_s, kind_s = row
        try:
            kind = EdgeKind(kind_s)
        except ValueError:
            raise FormatError(lineno, f"{source}: unknown edge kind {kind_s!r}") from None
        src = by_ext.get(src_s)
        dst = by_ext.get(dst_s)
        if src is None or dst is None:
            missing = src_s if src is None else dst_s
            raise FormatError(lineno, f"{source}: unknown node id {missing!r}")
        if src.id == dst.id:
            raise FormatError(lineno, f"{source}: self-loop on node {src_s!r}")
        want_src, want_dst = _EDGE_ENDPOINTS[kind]
        if src.kind is not want_src or dst.kind is not want_dst:
            raise KindMismatch(
                lineno,
                f"{kind.value} needs {want_src.value}->{want_dst.value}, "
                f"got {src.kind.value}->{dst.kind.value}",
            )
        buckets[kind].append((src.id, dst.id))
    return {
        k: np.array(v, dtype=np.int64).reshape(-1, 2) for k, v in buckets.items()
    }


def build_graph(
    nodes: Sequence[tuple[str, str, str]],
    edges: Sequence[tuple[str, str, str]],
) -> KBGraph:
    """Build a graph from in-memory rows.

    Rows mirror the TSV formats: nodes as ``(ext_id, "A"|"C", title)``,
    edges as ``(src_ext_id, dst_ext_id, "AA"|"AC"|"CC")``.  Raises the
    same errors as :func:`load_graph`, with row numbers as line numbers.
    """
    node_list = _make_nodes(nodes, "nodes")
    edge_arrays = _make_edges(edges, node_list, "edges")
    return _assemble(node_list, edge_arrays)


def _read_tsv(path: str) -> list[tuple[str, ...]]:
    rows: list[tuple[str, ...]] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                rows.append(())  # keep line numbers aligned; caught as bad column count
                continue
            rows.append(tuple(line.split("\t")))
    return rows


def load_graph(nodes_path: str, edges_path: str) -> KBGraph:
    """Load a graph from node and edge TSV files.

    Node rows are ``<ext_id>\\t<A|C>\\t<title>``; edge rows are
    ``<src_ext_id>\\t<dst_ext_id>\\t<AA|AC|CC>``.  The first malformed
    row raises :class:`FormatError` (or :class:`KindMismatch`) carrying
    its line number.  Duplicate edge rows are deduplicated silently.
    """
    node_rows = [r for r in _read_tsv(nodes_path)]
    node_list = _make_nodes(node_rows, nodes_path)
    edge_rows = [r for r in _read_tsv(edges_path)]
    edge_arrays = _make_edges(edge_rows, node_list, edges_path)
    return _assemble(node_list, edge_arrays)


def save_snapshot(g: KBGraph, path: str) -> None:
    """Write a binary snapshot that round-trips to identical counts."""
    payload = {
        "magic": _SNAPSHOT_MAGIC,
        "version": _SNAPSHOT_VERSION,
        "nodes": [(nd.ext_id, nd.kind.value, nd.title) for nd in g.nodes],
        "edges": {
            k.value: np.array(
                [(s, int(d)) for s in range(len(g)) for d in g.out_neighbors(s, k)],
                dtype=np.int64,
            ).reshape(-1, 2)
            for k in EdgeKind
        },
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_snapshot(path: str) -> KBGraph:
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    if not isinstance(payload, dict) or payload.get("magic") != _SNAPSHOT_MAGIC:
        raise FormatError(0, f"{path}: not a graph snapshot")
    if payload.get("version") != _SNAPSHOT_VERSION:
        raise FormatError(
            0, f"{path}: snapshot format version {payload.get('version')!r}, this build reads "
            f"version {_SNAPSHOT_VERSION}; re-create it with `sqe ingest --out`"
        )
    nodes = _make_nodes(payload["nodes"], path)
    edges = {EdgeKind(k): np.asarray(v, dtype=np.int64) for k, v in payload["edges"].items()}
    return _assemble(nodes, edges)
