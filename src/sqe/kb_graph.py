"""Knowledge-base graph of articles and categories.

The graph is a typed directed multigraph with three edge kinds:

* ``AA``  article links article
* ``AC``  article belongs to category
* ``CC``  category belongs to category

Adjacency is held in CSR form: per edge kind and direction, one
``indptr`` array of ``len(nodes) + 1`` offsets and one ``indices`` array,
so node ``i``'s row is ``indices[indptr[i]:indptr[i + 1]]``, sorted
ascending.  A :class:`KBGraph` is immutable once built; every read
operation is safe to call concurrently.  Parallel edges of the same kind
between the same ordered pair are deduplicated on load so that motif
counting is well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .archive import ArchiveFormat
from .errors import FormatError, KindMismatch, NotAnArticle, NotACategory
from .text import normalize_title

NodeId = int

_SNAPSHOT_FORMAT = ArchiveFormat(  # format version 1 was a Python object dump
    "sqe-kb-snapshot", 2, "graph snapshot", "re-create it with `sqe ingest --out`"
)


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


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class KBGraph:
    """Immutable typed graph with one sorted CSR row per node, kind and direction.

    ``_out[kind]`` and ``_in[kind]`` are ``(indptr, indices)`` pairs.
    Construct through :func:`load_graph`, :func:`build_graph` or
    :func:`load_snapshot`, not directly.
    """

    nodes: list[KBNode]
    _out: dict[EdgeKind, tuple[memoryview, np.ndarray]]
    _in: dict[EdgeKind, tuple[memoryview, np.ndarray]]
    _title_index: dict[tuple[NodeKind, str], NodeId]

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
        indptr, indices = self._out[kind]
        return indices[indptr[i] : indptr[i + 1]]

    def in_neighbors(self, i: NodeId, kind: EdgeKind) -> np.ndarray:
        indptr, indices = self._in[kind]
        return indices[indptr[i] : indptr[i + 1]]

    def has_edge(self, src: NodeId, dst: NodeId, kind: EdgeKind) -> bool:
        arr = self.out_neighbors(src, kind)
        pos = int(np.searchsorted(arr, dst))
        return bool(pos < arr.size and arr[pos] == dst)

    def edge_count(self, kind: EdgeKind) -> int:
        return int(self._out[kind][0][-1])

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
            self.out_neighbors(a, EdgeKind.AA), self.in_neighbors(a, EdgeKind.AA), assume_unique=True
        )

    def categories_of(self, a: NodeId) -> set[NodeId]:
        """Categories reachable by one AC edge from article ``a``."""
        if not self.is_article(a):
            raise NotAnArticle(f"node {a} is not an article")
        return set(self.out_neighbors(a, EdgeKind.AC).tolist())

    def category_linked(self, c1: NodeId, c2: NodeId) -> bool:
        """True iff a CC containment edge exists in either direction."""
        if self.is_article(c1) or self.is_article(c2):
            raise NotACategory(f"category_linked requires categories, got {c1}, {c2}")
        return self.has_edge(c1, c2, EdgeKind.CC) or self.has_edge(c2, c1, EdgeKind.CC)

    def validate(self) -> ValidationReport:
        """Count nodes and edges by kind and collect structural warnings."""
        is_article = np.array([n.kind is NodeKind.ARTICLE for n in self.nodes], dtype=bool)
        degree = sum(np.diff(adj[k][0]) for adj in (self._out, self._in) for k in EdgeKind)
        no_cat = is_article & (np.diff(self._out[EdgeKind.AC][0]) == 0)
        return ValidationReport(
            n_articles=int(is_article.sum()),
            n_categories=int((~is_article).sum()),
            edge_counts={k: self.edge_count(k) for k in EdgeKind},
            articles_without_category=np.flatnonzero(no_cat).tolist(),
            orphan_categories=np.flatnonzero(~is_article & (degree == 0)).tolist(),
        )


def _group_by(keys: np.ndarray, values: np.ndarray, n_nodes: int) -> tuple[memoryview, np.ndarray]:
    """CSR ``(indptr, indices)``: each key's distinct values, sorted."""
    pairs = np.sort(keys * n_nodes + values)  # ordered by (key, value)
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # merges parallel edges; ids are >= 0
    keys, values = np.divmod(pairs, n_nodes)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n_nodes))))
    return memoryview(indptr).toreadonly(), values  # Python-int items slice rows ~2x faster


def _assemble(nodes: list[KBNode], edges_by_kind: dict[EdgeKind, np.ndarray]) -> KBGraph:
    """The graph over ``nodes`` from each edge kind's ``(src, dst)`` id pairs."""
    n = len(nodes)
    out_adj, in_adj = {}, {}
    for kind, pairs in edges_by_kind.items():
        src, dst = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        out_adj[kind] = _group_by(src, dst, n)
        in_adj[kind] = _group_by(dst, src, n)
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
    return {k: np.array(v, dtype=np.int64).reshape(-1, 2) for k, v in buckets.items()}


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
    node_list = _make_nodes(_read_tsv(nodes_path), nodes_path)
    return _assemble(node_list, _make_edges(_read_tsv(edges_path), node_list, edges_path))


def save_snapshot(g: KBGraph, path: str) -> None:
    """Write a versioned ``.npz`` snapshot: node columns and int32 edge columns."""
    arrays = {"kinds": np.frombuffer("".join(n.kind.value for n in g.nodes).encode(), np.uint8)}
    for k in EdgeKind:
        indptr, indices = g._out[k]
        arrays[f"{k.value}_src"] = np.repeat(np.arange(len(g), dtype=np.int32), np.diff(indptr))
        arrays[f"{k.value}_dst"] = indices.astype(np.int32)
    strings = {"ext_ids": [n.ext_id for n in g.nodes], "titles": [n.title for n in g.nodes]}
    _SNAPSHOT_FORMAT.save(path, arrays, strings)


def load_snapshot(path: str) -> KBGraph:
    """Read a file written by :func:`save_snapshot`; its rows get the checks TSV rows get."""
    edge_columns = [f"{k.value}_{end}" for k in EdgeKind for end in ("src", "dst")]
    columns = _SNAPSHOT_FORMAT.load(path, ["kinds", *edge_columns], ("ext_ids", "titles"))
    ext_ids, kinds, titles = columns["ext_ids"], columns["kinds"], columns["titles"]
    if not (kinds.ndim == 1 and kinds.dtype == np.uint8
            and kinds.size == len(ext_ids) == len(titles)):
        raise _SNAPSHOT_FORMAT.error(path, "node columns do not fit together")
    nodes = _make_nodes(zip(ext_ids, kinds.tobytes().decode("latin-1"), titles), path)
    edges = {}
    for kind in EdgeKind:
        src, dst = columns[f"{kind.value}_src"], columns[f"{kind.value}_dst"]
        want_src, want_dst = (ord(k.value) for k in _EDGE_ENDPOINTS[kind])
        if not (src.ndim == dst.ndim == 1 and src.dtype.kind == dst.dtype.kind == "i"
                and src.size == dst.size):
            problem = "are not int pairs of equal length"
        elif ((src < 0) | (src >= len(nodes)) | (dst < 0) | (dst >= len(nodes))).any():
            problem = "name unknown node ids"
        elif (src == dst).any():
            problem = "hold a self-loop"
        elif (kinds[src] != want_src).any() or (kinds[dst] != want_dst).any():
            problem = f"join nodes of the wrong kinds (needs {kind.value[0]}->{kind.value[1]})"
        else:
            edges[kind] = np.stack([src, dst], axis=1)
            continue
        raise _SNAPSHOT_FORMAT.error(path, f"{kind.value} edge columns {problem}")
    return _assemble(nodes, edges)
