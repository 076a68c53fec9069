"""Knowledge-base graph of articles and categories.

The graph is a typed directed multigraph with three edge kinds:

* ``AA``  article links article
* ``AC``  article belongs to category
* ``CC``  category belongs to category

Adjacency is one CSR table, the link table: node ``i``'s row is the slice
``indptr[i]:indptr[i + 1]`` of three arrays.  It holds ``i``'s distinct
neighbors over every edge kind and both directions, sorted; how many
stored edges join ``i`` to each; and an out flag, true where an edge
leaves ``i`` toward that neighbor.  The endpoint kinds fix an edge's
kind: every loader rejects C->A, so a kind's index in :class:`EdgeKind`
is its number of category ends, and one pass over the out flags gives
every kind's directed edges.  Every loader hands the table build one
``(src, dst)`` array.  Nodes are columns: node ``i``'s title, normalized
title and external id are entry ``i`` of three tuples, and one bool per
node, true for a category, is the only store of its kind.  A
:class:`KBGraph` is immutable once built, its arrays read-only, and
holds no :class:`KBNode`; it builds one on read.  Parallel edges between
the same ordered pair are deduplicated on load so that motif counting is
well-defined.  Every reader builds through ``_graph``, which refuses a node
id or title holding a tab or line break, as no TSV row can hold one;
``load_snapshot`` reports that as a fault of its file.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .archive import ArchiveFormat
from .errors import FormatError, KindMismatch, NotAnArticle, NotACategory
from .text import lines, normalize_title, open_text

NodeId = int

_SNAPSHOT_FORMAT = ArchiveFormat(  # version 1 was a Python object dump, 2 stored string end offsets
    "sqe-kb-snapshot", 3, "graph snapshot", "re-create it with `sqe ingest --out`"
)


class NodeKind(Enum):
    ARTICLE = "A"
    CATEGORY = "C"


class EdgeKind(Enum):  # the two letters are the kinds of the source and the destination
    AA = "AA"
    AC = "AC"
    CC = "CC"


_EDGE_KINDS = {k.value: k for k in EdgeKind}
_UNKNOWN_ID, _SELF_LOOP, _WRONG_KINDS = "unknown node id", "self-loop", "wrong endpoint kinds"


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
        lines.append(f"warnings\t{len(self.articles_without_category) + len(self.orphan_categories)}")
        return "\n".join(lines)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class KBGraph:
    """Immutable typed graph: node ``i`` is entry ``i`` of the node columns
    ``_titles``, ``_normalized``, ``_ext_ids`` and ``_is_category``, and its
    sorted row of the link table ``_links``, ``(indptr, neighbors, edge
    counts, out flags)``.  ``_normalized`` holds the strings that key the
    title index, so it costs one pointer per node; snapshots do not store it.
    Construct through :func:`load_graph`, :func:`build_graph` or :func:`load_snapshot`, not directly."""

    _titles: tuple[str, ...]
    _normalized: tuple[str, ...]  # normalize_title of each title
    _ext_ids: tuple[str, ...]  # ids used in the source files, kept for round-tripping
    _title_index: dict[tuple[str, str], NodeId]  # (kind letter, normalized title) -> node
    _links: tuple[memoryview, np.ndarray, np.ndarray, np.ndarray]
    _is_category: np.ndarray  # one bool per node, the only store of node kind

    def __post_init__(self):
        for column in (*self._links[1:], self._is_category):
            column.flags.writeable = False  # immutable: a write raises ValueError

    def __len__(self) -> int:
        return len(self._titles)

    @property
    def nodes(self) -> list[KBNode]:
        """Every node, in a list built anew on every read; :meth:`node` reads one."""
        return [self.node(i) for i in range(len(self))]

    def node(self, i: NodeId) -> KBNode:
        return KBNode(i, self.kind(i), self._titles[i], self._ext_ids[i])

    def kind(self, i: NodeId) -> NodeKind:
        return NodeKind.CATEGORY if self._is_category[i] else NodeKind.ARTICLE

    def title(self, i: NodeId) -> str:
        return self._titles[i]

    def normalized_title(self, i: NodeId) -> str:
        """``normalize_title(self.title(i))``, stored, so reading it costs no regex."""
        return self._normalized[i]

    def is_article(self, i: NodeId) -> bool:
        return not self._is_category[i]

    def article_ids(self) -> list[NodeId]:
        return np.flatnonzero(~self._is_category).tolist()

    def node_by_title(self, kind: NodeKind, title: str) -> NodeId | None:
        return self._title_index.get((kind.value, normalize_title(title)))

    def article_by_title(self, title: str) -> NodeId | None:
        return self.node_by_title(NodeKind.ARTICLE, title)

    def category_by_title(self, title: str) -> NodeId | None:
        return self.node_by_title(NodeKind.CATEGORY, title)

    def out_neighbors(self, i: NodeId, kind: EdgeKind) -> np.ndarray:
        """Sorted, deduplicated neighbor ids of ``i``'s ``kind`` edges out of ``i``."""
        indptr, neighbors, _counts, out = self._links
        lo, hi = indptr[i], indptr[i + 1]
        row = neighbors[lo:hi][out[lo:hi]]
        return row[self._kinds(i, row) == list(EdgeKind).index(kind)]

    def links(self, i: NodeId) -> tuple[np.ndarray, np.ndarray]:
        """``i``'s distinct neighbors over every edge kind and direction, sorted,
        and how many stored edges join ``i`` to each (>= 1), as read-only views."""
        indptr, neighbors, counts, _out = self._links
        lo, hi = indptr[i], indptr[i + 1]
        return neighbors[lo:hi], counts[lo:hi]

    def link_count(self, u: NodeId, v: NodeId) -> int:
        """How many stored edges, of any kind and direction, join ``u`` and ``v``."""
        indptr, neighbors, counts, _out = self._links
        lo, hi = indptr[u], indptr[u + 1]
        k = lo + int(neighbors[lo:hi].searchsorted(v))
        return int(counts[k]) if k < hi and neighbors[k] == v else 0

    def linked_categories(self, i: NodeId) -> np.ndarray:
        """The categories among ``i``'s neighbors, sorted: for a category,
        its CC partners in either direction, as only CC edges join two."""
        row = self.links(i)[0]
        return row[self._is_category.take(row)]  # take skips the casting path of an int32 index

    def edge_count(self, kind: EdgeKind) -> int:
        return len(self._edges()[kind][0])

    def _kinds(self, src, dst) -> np.ndarray:
        """Each edge's index in ``EdgeKind``: its number of category ends, as every loader rejects C->A."""
        return self._is_category[src].astype(np.int8) + self._is_category[dst]  # bool + bool is or

    def _edges(self) -> dict[EdgeKind, tuple[np.ndarray, np.ndarray]]:
        """Each kind's int32 ``(src, dst)`` columns, by source, then destination, from one table read."""
        indptr, neighbors, _counts, out = self._links
        src = np.repeat(np.arange(len(self), dtype=np.int32), np.diff(indptr))[out]
        dst = neighbors[out]
        kinds = self._kinds(src, dst)
        return {k: (src[kinds == i], dst[kinds == i]) for i, k in enumerate(EdgeKind)}

    # -- spec operations ---------------------------------------------------

    def doubly_linked(self, a: NodeId, b: NodeId) -> bool:
        """True iff article-to-article links exist in both directions."""
        if not self.is_article(a) or not self.is_article(b):
            raise NotAnArticle(f"doubly_linked requires articles, got {a}, {b}")
        return self.link_count(a, b) == 2  # only AA edges join two articles

    def doubly_linked_neighbors(self, a: NodeId) -> np.ndarray:
        """All articles doubly linked with ``a`` (sorted).

        One AC edge at most joins an article to a category, so a count of
        2 on ``a``'s link row is an AA edge each way.
        """
        if not self.is_article(a):
            raise NotAnArticle(f"node {a} is not an article")
        neighbors, counts = self.links(a)
        return neighbors[counts == 2]

    def categories_of(self, a: NodeId) -> set[NodeId]:
        """Categories reachable by one AC edge from article ``a``."""
        if not self.is_article(a):
            raise NotAnArticle(f"node {a} is not an article")
        return set(self.linked_categories(a).tolist())  # an AC edge always leaves the article

    def category_linked(self, c1: NodeId, c2: NodeId) -> bool:
        """True iff a CC containment edge exists in either direction."""
        if self.is_article(c1) or self.is_article(c2):
            raise NotACategory(f"category_linked requires categories, got {c1}, {c2}")
        return self.link_count(c1, c2) > 0  # only CC edges join two categories

    def validate(self) -> ValidationReport:
        """Count nodes and edges by kind and collect structural warnings."""
        is_article, edges = ~self._is_category, self._edges()
        no_cat = is_article & (np.bincount(edges[EdgeKind.AC][0], minlength=is_article.size) == 0)
        no_edge = ~is_article & (np.diff(self._links[0]) == 0)
        return ValidationReport(
            n_articles=int(is_article.sum()),
            n_categories=int((~is_article).sum()),
            edge_counts={k: len(src) for k, (src, _dst) in edges.items()},
            articles_without_category=np.flatnonzero(no_cat).tolist(),
            orphan_categories=np.flatnonzero(no_edge).tolist(),
        )


def _link_table(edges: np.ndarray, n_nodes: int) -> tuple[memoryview, np.ndarray, np.ndarray, np.ndarray]:
    """The link table from ``(src, dst)`` rows: each node's distinct neighbors,
    sorted, the distinct edges joining it to each, and whether one leaves it."""
    src, dst = edges.T
    # one code per half-edge, (row * n + neighbor) * 2, plus 1 for the half that leaves the row
    halves = np.concatenate(((src * n_nodes + dst) * 2 + 1, (dst * n_nodes + src) * 2))
    halves.sort()
    halves = halves[np.diff(halves, prepend=-1) != 0]  # merges parallel edges; codes are >= 0
    pairs = halves >> 1
    first = np.flatnonzero(np.diff(pairs, prepend=-1))  # where each distinct pair starts
    counts = np.diff(first, append=pairs.size)
    out = (halves[first + counts - 1] & 1).astype(bool)  # a pair's out half sorts last
    rows, neighbors = np.divmod(pairs[first], n_nodes)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_nodes))))
    indptr = memoryview(indptr).toreadonly()  # Python-int items slice rows ~2x faster
    return indptr, neighbors.astype(np.int32), counts.astype(np.int32), out


def _graph(ids: dict[str, NodeId], kinds: np.ndarray, titles: tuple[str, ...],
           edges: np.ndarray, source: str = "nodes") -> KBGraph:
    """The graph over :func:`_make_nodes` columns and the edges' ``(src, dst)`` id pairs; titles are
    normalized here, once.  A repeated normalized title of a kind raises with its line in ``source``,
    and after it a node id or title holding a tab or line break raises ``ValueError``."""
    normalized = tuple(map(normalize_title, titles))
    title_index: dict[tuple[str, str], NodeId] = {}
    for i, key in enumerate(zip(kinds.tobytes().decode("ascii"), normalized)):
        if title_index.setdefault(key, i) != i:
            raise FormatError(source, i + 1, f"duplicate normalized title {key[1]!r} for kind {key[0]}")
    if any(map("".join(itertools.chain(ids, titles)).__contains__, "\t\n\r")):  # one join, three scans
        raise ValueError("a node id or title holds a tab or line break, as no TSV row can")
    is_category = kinds == ord(NodeKind.CATEGORY.value)
    return KBGraph(titles, normalized, tuple(ids), title_index, _link_table(edges, len(titles)), is_category)


def _assemble(nodes: Sequence[KBNode], edges_by_kind: dict[EdgeKind, np.ndarray]) -> KBGraph:
    """The graph over ``KBNode`` rows in id order; they get the checks node rows get."""
    edges = np.concatenate([np.asarray(p, dtype=np.int64).reshape(-1, 2) for p in edges_by_kind.values()])
    return _graph(*_make_nodes([(n.ext_id, n.kind.value, n.title) for n in nodes], "nodes"), edges)


def _edge_fault(kinds, src, dst, want_src, want_dst) -> tuple[int, str] | None:
    """The index of the first edge that breaks an edge rule, and the rule.

    Rules in the order tried: both ids name nodes, no self-loop, endpoint
    kinds (``kinds`` holds each node's letter) equal to ``want_src`` and
    ``want_dst``, given per edge or for all.  Every loader checks edges here.
    """
    known = (src >= 0) & (src < kinds.size) & (dst >= 0) & (dst < kinds.size)
    kind_of = np.append(kinds, 0)  # an unknown id reads the 0 at index -1, which fits no edge
    loop = src == dst
    bad = np.flatnonzero(loop | (kind_of[np.where(known, src, -1)] != want_src)
                         | (kind_of[np.where(known, dst, -1)] != want_dst))
    if not bad.size:
        return None
    i = int(bad[0])
    return i, _UNKNOWN_ID if not known[i] else _SELF_LOOP if loop[i] else _WRONG_KINDS


def _make_nodes(rows: Iterable[tuple[str, str, str]], source: str
                ) -> tuple[dict[str, NodeId], np.ndarray, tuple[str, ...]]:
    """Node rows as columns: each ext id's node id, the kind letters as ``uint8``, the titles."""
    ids: dict[str, NodeId] = {}
    letters: list[str] = []
    titles: list[str] = []
    for lineno, row in enumerate(rows, start=1):
        if len(row) != 3:
            raise FormatError(source, lineno, f"expected 3 columns, got {len(row)}")
        ext_id, kind_s, title = row
        if kind_s not in ("A", "C"):
            raise FormatError(source, lineno, f"unknown node kind {kind_s!r}")
        if not title.strip():
            raise FormatError(source, lineno, "empty title")
        if ids.setdefault(ext_id, len(titles)) != len(titles):
            raise FormatError(source, lineno, f"duplicate node id {ext_id!r}")
        letters.append(kind_s)
        titles.append(title)
    return ids, np.frombuffer("".join(letters).encode(), np.uint8), tuple(titles)


def _make_edges(rows: Sequence[tuple[str, ...]], ids: dict[str, NodeId], kinds: np.ndarray,
                source: str) -> np.ndarray:
    """The edges' ``(src, dst)`` id pairs; the earliest bad row raises."""
    bad_row = (i for i, row in enumerate(rows) if len(row) != 3 or row[2] not in _EDGE_KINDS)
    parsed = next(bad_row, len(rows))  # rows before the first that does not parse
    ends = [ids.get(ext, -1) for row in rows[:parsed] for ext in row[:2]]  # -1: an unknown id
    pairs = np.array(ends, dtype=np.int64).reshape(-1, 2)
    want = np.array([row[2] for row in rows[:parsed]], dtype="S2").view(np.uint8).reshape(-1, 2)
    if fault := _edge_fault(kinds, *pairs.T, *want.T):  # want: each row's endpoint kind letters
        i, rule = fault
        src_s, dst_s, kind_s = rows[i]
        if rule == _WRONG_KINDS:
            got = f"{chr(kinds[pairs[i, 0]])}->{chr(kinds[pairs[i, 1]])}"
            raise KindMismatch(source, i + 1, "edge kind contradicts endpoint kinds "
                                              f"({kind_s} needs {kind_s[0]}->{kind_s[1]}, got {got})")
        if rule == _SELF_LOOP:
            raise FormatError(source, i + 1, f"self-loop on node {src_s!r}")
        raise FormatError(source, i + 1, f"unknown node id {(dst_s if pairs[i, 0] >= 0 else src_s)!r}")
    if parsed < len(rows):
        row = rows[parsed]
        if len(row) != 3:
            raise FormatError(source, parsed + 1, f"expected 3 columns, got {len(row)}")
        raise FormatError(source, parsed + 1, f"unknown edge kind {row[2]!r}")
    return pairs


def build_graph(nodes: Sequence[tuple[str, str, str]],
                edges: Sequence[tuple[str, str, str]]) -> KBGraph:
    """Build a graph from in-memory rows.

    Rows mirror the TSV formats: nodes as ``(ext_id, "A"|"C", title)``,
    edges as ``(src_ext_id, dst_ext_id, "AA"|"AC"|"CC")``.  Raises the
    same errors as :func:`load_graph`, with row numbers as line numbers.
    """
    ids, kinds, titles = _make_nodes(nodes, "nodes")
    return _graph(ids, kinds, titles, _make_edges(edges, ids, kinds, "edges"))


def _read_tsv(path: str) -> list[tuple[str, ...]]:
    """The rows of the lines that ``text.lines`` yields: blank and whitespace-only ones are skipped."""
    with open_text(path) as fh:  # universal newlines: no "\r" is left
        return [tuple(raw.rstrip("\n").split("\t")) for raw in fh if not raw.isspace()]


@contextlib.contextmanager
def _at_file_line():
    """Re-raise a fault of a ``_read_tsv`` row, numbered from 1, at the row's line in its
    file, which is read again for it: only a fault pays for skipping blank lines."""
    try:
        yield
    except FormatError as exc:
        lineno, _line = next(itertools.islice(lines(exc.path), exc.line - 1, None))
        raise type(exc)(exc.path, lineno, exc.reason) from None


def load_graph(nodes_path: str, edges_path: str) -> KBGraph:
    """Load a graph from node and edge TSV files.

    Node rows are ``<ext_id>\\t<A|C>\\t<title>``; edge rows are
    ``<src_ext_id>\\t<dst_ext_id>\\t<AA|AC|CC>``, deduplicated silently.  Edges
    get the checks snapshot edges get (:func:`_edge_fault`).  A bad row raises
    :class:`FormatError` (:class:`KindMismatch` for endpoint kinds) with its
    line: first the first bad node row, then the earliest edge row that does
    not parse or breaks an edge rule, then a title repeated within a kind.
    Blank and whitespace-only lines are skipped, as ``text.lines`` skips them.
    """
    rows = _read_tsv(nodes_path)  # outside _at_file_line: an undecodable byte has its line
    with _at_file_line():
        ids, kinds, titles = _make_nodes(rows, nodes_path)
    del rows  # each file's rows go once parsed: held on, they would raise the peak memory
    rows = _read_tsv(edges_path)
    with _at_file_line():
        edges = _make_edges(rows, ids, kinds, edges_path)
        del rows
        return _graph(ids, kinds, titles, edges, nodes_path)


@contextlib.contextmanager
def _at_node_index(path: str):
    """Re-raise a node row's fault, numbered from 1, at the row's index in the columns of snapshot
    ``path``, and a node field that no TSV row can hold as a fault of the file."""
    try:
        yield
    except FormatError as exc:
        raise _SNAPSHOT_FORMAT.error(path, f"node at index {exc.line - 1}: {exc.reason}") from None
    except ValueError as exc:
        raise _SNAPSHOT_FORMAT.error(path, str(exc)) from None


def save_snapshot(g: KBGraph, path: str) -> None:
    """Write a versioned ``.npz`` snapshot: node columns and int32 edge columns."""
    kinds = np.where(g._is_category, ord(NodeKind.CATEGORY.value), ord(NodeKind.ARTICLE.value))
    arrays = {"kinds": kinds.astype(np.uint8)}
    for k, (src, dst) in g._edges().items():
        arrays[f"{k.value}_src"], arrays[f"{k.value}_dst"] = src, dst
    _SNAPSHOT_FORMAT.save(path, arrays, {"ext_ids": g._ext_ids, "titles": g._titles})


def load_snapshot(path: str) -> KBGraph:
    """Read a file written by :func:`save_snapshot`; its rows get the checks TSV rows get."""
    edge_columns = [f"{k.value}_{end}" for k in EdgeKind for end in ("src", "dst")]
    columns = _SNAPSHOT_FORMAT.load(path, ["kinds", *edge_columns], ("ext_ids", "titles"))
    ext_ids, kinds, titles = columns["ext_ids"], columns["kinds"], columns["titles"]
    if not (kinds.ndim == 1 and kinds.dtype == np.uint8
            and kinds.size == len(ext_ids) == len(titles)):
        raise _SNAPSHOT_FORMAT.error(path, "node columns do not fit together")
    with _at_node_index(path):
        ids, kinds, titles = _make_nodes(zip(ext_ids, kinds.tobytes().decode("latin-1"), titles), path)
    edges = []
    for kind in EdgeKind:
        src, dst = columns[f"{kind.value}_src"], columns[f"{kind.value}_dst"]
        if not (src.ndim == dst.ndim == 1 and src.dtype.kind == dst.dtype.kind == "i"
                and src.size == dst.size):
            raise _SNAPSHOT_FORMAT.error(path, f"{kind.value} edge columns are not int pairs of equal length")
        if fault := _edge_fault(kinds, src, dst, *kind.value.encode()):
            raise _SNAPSHOT_FORMAT.error(path, f"{kind.value} edge at index {fault[0]}: {fault[1]}")
        edges.append(np.stack([src, dst], axis=1))
    with _at_node_index(path):
        return _graph(ids, kinds, titles, np.concatenate(edges, dtype=np.int64), path)
