"""Positional-index retrieval with query-likelihood scoring.

Documents are token lists over a shared tokenizer.  Every query node
evaluates to a log-belief per document: terms and ordered windows use
Dirichlet-smoothed language models (collection frequency floored at 0.5
when a pattern never occurs, so beliefs stay finite while
``mu * cf / |C|`` does not underflow to 0; below that a document without
the pattern scores -inf), ``#combine`` averages and ``#weight`` takes a
weight-normalized sum.  Scoring is exhaustive over the collection, which
keeps the ranking contract exact.

Indexes are immutable after build.  Work shared between searches lives
in memos that belong to the caller, never to ``Index`` or to this
module.  ``search`` and ``prf_expand`` take one optional ``Leaves``
memo, which holds two, and make a fresh one when given none; entries
are filled on first use and never changed once stored:

* the ``Leaves`` dict itself: each term's and window's dense score
  vector for one index and one ``mu``, keyed by ``(n, tokens)``; a
  pipeline keeps one per request.
* ``Leaves.matches``: each multi-token window's match pairs, the
  document ordinals and counts where the count is above 0, keyed by
  ``(n, tokens)``; it depends on the index alone, so a pipeline shares
  one across a batch of requests and drops it when the batch ends.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field
from importlib import resources
from itertools import islice
from typing import IO, Iterable, Sequence

import numpy as np

from .archive import ArchiveFormat
from .errors import DuplicateDocId, EmptyCollection, FormatError
from .query_lang import Combine, QueryNode, Term, Weight, Window
from .text import lines, open_text, tokenize

DEFAULT_MU = 2500.0
# The largest Dirichlet mu accepted.  mu * cf / |C| is at most mu, so up to
# here it stays below 2**53 (about 9e15): one more occurrence of a term still
# changes a document's score, and mu * cf cannot overflow to inf.
MAX_MU = 1e15
UNSEEN_CF = 0.5


@dataclass
class Document:
    doc_id: str
    tokens: list[str]

    @classmethod
    def from_text(cls, doc_id: str, text: str) -> "Document":
        return cls(doc_id, tokenize(text))


@dataclass
class RankedList:
    """Ordered retrieval output with TREC run semantics."""

    request_id: str
    entries: list[tuple[str, float]] = field(default_factory=list)
    tag: str = "sqe"

    def __post_init__(self):
        scores = list(map(operator.itemgetter(1), self.entries))
        # every comparison with a nan is false, so a nan fails the pairwise test
        ordered = all(map(operator.ge, scores, islice(scores, 1, None)))
        if not ordered or (len(scores) == 1 and math.isnan(scores[0])):
            raise ValueError("ranked list scores must be non-increasing numbers")
        if len(set(map(operator.itemgetter(0), self.entries))) != len(self.entries):
            raise ValueError("ranked list doc ids must be unique")

    def doc_ids(self) -> list[str]:
        return [d for d, _s in self.entries]


class Index:
    """Positional inverted index over a document collection, held as columns.

    The collection is one term-id array, ``tokens``, in token order;
    document ``d`` covers ``doc_lengths[d]`` tokens from ``_doc_starts[d]``,
    so a token's global position is ``_doc_starts[doc] + pos``; ``_by_id``
    lists the ordinals in doc id order.  Postings are
    CSR over global positions: term ``t`` occurs, in ascending order, at
    ``_positions[_offsets[t]:_offsets[t + 1]]``.  Term ids follow first
    appearance, and everything is fixed at construction.
    """

    __slots__ = (
        "doc_ids",
        "_ordinals",
        "doc_lengths",
        "collection_length",
        "vocab",
        "_term_ids",
        "tokens",
        "collection_tf",
        "_doc_starts",
        "_doc_of",
        "_by_id",
        "_offsets",
        "_positions",
    )

    def __init__(
        self, doc_ids: list[str], doc_lengths: np.ndarray, vocab: list[str], tokens: np.ndarray
    ):
        self.doc_ids = doc_ids
        self._ordinals: dict[str, int] = {}
        for ordinal, doc_id in enumerate(doc_ids):
            if self._ordinals.setdefault(doc_id, ordinal) != ordinal:
                raise DuplicateDocId(f"document id {doc_id!r} appears twice")
        self.doc_lengths = np.asarray(doc_lengths, dtype=np.int64)
        self.collection_length = int(self.doc_lengths.sum())
        self.vocab = vocab
        self._term_ids = {tok: t for t, tok in enumerate(vocab)}
        self.tokens = np.asarray(tokens, dtype=np.int32)
        counts = np.bincount(self.tokens, minlength=len(vocab))
        self.collection_tf = dict(zip(vocab, counts.tolist()))
        self._doc_starts = np.cumsum(self.doc_lengths) - self.doc_lengths
        self._doc_of = np.repeat(np.arange(len(doc_ids)), self.doc_lengths)
        by_id = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
        self._by_id = np.array(by_id, dtype=np.int64)
        self._offsets = np.concatenate(([0], np.cumsum(counts)))
        self._positions = np.argsort(self.tokens, kind="stable")

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def ordinal(self, doc: str | int) -> int:
        if isinstance(doc, str):
            return self._ordinals[doc]
        return doc

    def _postings(self, token: str) -> np.ndarray:
        """Ascending global positions of ``token``; empty when it never occurs."""
        t = self._term_ids.get(token)
        if t is None:
            return self._positions[:0]
        return self._positions[self._offsets[t] : self._offsets[t + 1]]


def build_index(docs: Iterable[Document]) -> Index:
    doc_ids: list[str] = []
    lengths: list[int] = []
    term_ids: dict[str, int] = {}
    tokens: list[int] = []
    for doc in docs:
        doc_ids.append(doc.doc_id)
        lengths.append(len(doc.tokens))
        tokens.extend(term_ids.setdefault(tok, len(term_ids)) for tok in doc.tokens)
    return Index(
        doc_ids, np.array(lengths, dtype=np.int64), list(term_ids), np.array(tokens, dtype=np.int32)
    )


# -- index files ----------------------------------------------------------------

_INDEX_FORMAT = ArchiveFormat("sqe-index", 2, "index", "rebuild it with `sqe index`")


def save_index(idx: Index, path: str) -> None:
    """Write the index columns as a versioned ``.npz`` file."""
    _INDEX_FORMAT.save(
        path,
        {"doc_lengths": idx.doc_lengths, "tokens": idx.tokens},
        {"doc_ids": idx.doc_ids, "vocab": idx.vocab},
    )


def load_index(path: str) -> Index:
    """Read a file written by ``save_index``; see :mod:`sqe.archive`."""
    columns = _INDEX_FORMAT.load(path, ("doc_lengths", "tokens"), ("doc_ids", "vocab"))
    doc_ids, vocab = columns["doc_ids"], columns["vocab"]
    lengths, tokens = columns["doc_lengths"], columns["tokens"]
    consistent = (
        lengths.ndim == tokens.ndim == 1
        and lengths.dtype.kind == tokens.dtype.kind == "i"
        and lengths.size == len(doc_ids)
        and not (lengths < 0).any()
        and int(lengths.sum()) == tokens.size
        and (tokens.size == 0 or (tokens.min() >= 0 and tokens.max() < len(vocab)))
    )
    if not consistent:
        raise _INDEX_FORMAT.error(path, "index columns do not fit together")
    return Index(doc_ids, lengths, vocab, tokens)


def read_documents(path: str) -> Iterable[Document]:
    """JSON-lines: one object per line with fields ``id`` and ``text``."""
    seen: set[str] = set()
    for lineno, line in lines(path):
        try:
            obj = json.loads(line)
            doc_id, text = str(obj["id"]), str(obj["text"])
        except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:  # the last: too deep
            raise FormatError(path, lineno, f"bad document line ({exc})") from None
        if not is_run_id(doc_id):
            raise FormatError(path, lineno, f"document id {doc_id!r} is empty or holds whitespace")
        if doc_id in seen:
            raise FormatError(path, lineno, f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        yield Document.from_text(doc_id, text)


def _window_matches(idx: Index, n: int, tokens: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Document ordinals and counts of ordered position tuples with each gap
    in [1, n], one pair per final-token occurrence that ends a match.

    A dynamic program over the tokens' global postings: ``ways[j]`` counts
    the partial matches ending at the j-th kept occurrence of the current
    token.  An occurrence at ``p`` extends the previous token's matches at
    positions in ``[max(p - n, doc_start(p)), p - 1]``, so no match crosses
    a document boundary; prefix sums give each range's total in one
    ``searchsorted``.  Occurrences that end no partial match are dropped at
    each step, so every returned count is above 0.
    """
    prev = idx._postings(tokens[0])
    ways = np.ones(prev.size, dtype=np.int64)
    for tok in tokens[1:]:
        cur = idx._postings(tok)
        lowest = np.maximum(cur - n, idx._doc_starts[idx._doc_of[cur]])
        prefix = np.concatenate(([0], np.cumsum(ways)))
        ways = prefix[np.searchsorted(prev, cur)] - prefix[np.searchsorted(prev, lowest)]
        hit = ways > 0
        prev, ways = cur[hit], ways[hit]
    return idx._doc_of[prev], ways


# (n, tokens) -> a read-only 2 x m array: document ordinals, then counts
WindowMatches = dict[tuple[int, tuple[str, ...]], np.ndarray]


def _window_tf(idx: Index, n: int, tokens: Sequence[str], matches: WindowMatches) -> np.ndarray:
    """Per-document window match count, as floats over the ordinals.

    ``matches`` memoizes the pairs of multi-token windows by ``(n, tokens)``
    (see the module docstring); a term's count is cheaper to recompute.
    """
    if len(tokens) == 1:
        docs, counts = _window_matches(idx, n, tokens)
    else:
        key = (n, tuple(tokens))
        pairs = matches.get(key)
        if pairs is None:  # one array per entry holds the memo's size down
            pairs = np.array(_window_matches(idx, n, tokens))
            pairs.flags.writeable = False
            matches[key] = pairs
        docs, counts = pairs
    return np.bincount(docs, weights=counts, minlength=idx.n_docs)


def window_tf(idx: Index, doc: str | int, n: int, tokens: Sequence[str]) -> int:
    """Window match count inside one document."""
    window = Window(n, tokens)  # checks the size
    return int(_window_tf(idx, n, window.tokens, {})[idx.ordinal(doc)])


def _dirichlet(tf, cf: float, doc_lengths, collection_length: int, mu: float):
    cf = cf if cf > 0 else UNSEEN_CF
    return np.log((tf + mu * cf / collection_length) / (doc_lengths + mu))


class Leaves(dict):
    """Leaf score vectors keyed by ``(n, tokens)``, a term being ``(1, (token,))``.

    It must only ever see one index and one mu.  ``matches`` is its window
    match memo for the same index: a batch's, which outlives this memo (see
    the module docstring), or a fresh dict of its own.
    """

    __slots__ = ("matches",)

    def __init__(self, matches: WindowMatches):
        super().__init__()
        self.matches = matches


def _score_vector(idx: Index, q: QueryNode, mu: float, leaves: Leaves) -> np.ndarray:
    """Per-document log-belief of ``q``, memoized in ``leaves``."""
    if isinstance(q, (Term, Window)):
        key = (1, (q.token,)) if isinstance(q, Term) else (q.n, q.tokens)
        vec = leaves.get(key)
        if vec is None:
            tf = _window_tf(idx, *key, leaves.matches)
            vec = _dirichlet(tf, int(tf.sum()), idx.doc_lengths, idx.collection_length, mu)
            vec.flags.writeable = False
            leaves[key] = vec
        return vec
    if isinstance(q, Combine):
        parts = [_score_vector(idx, c, mu, leaves) for c in q.children]
        return np.mean(parts, axis=0)
    if isinstance(q, Weight):
        total = sum(w for w, _c in q.entries)
        return sum(w / total * _score_vector(idx, c, mu, leaves) for w, c in q.entries)
    raise TypeError(f"not a query node: {q!r}")


def score_node(idx: Index, q: QueryNode, doc: str | int, mu: float = DEFAULT_MU) -> float:
    """Log-belief of one document under one query node."""
    if idx.n_docs == 0 or idx.collection_length == 0:
        raise EmptyCollection("cannot score against an empty collection")
    return float(_score_vector(idx, q, mu, Leaves({}))[idx.ordinal(doc)])


def _top(
    idx: Index, q: QueryNode, k: int, mu: float, leaves: Leaves | None
) -> tuple[np.ndarray, np.ndarray]:
    """``search``'s top-k as ordinals and scores; a fresh memo when ``leaves`` is None."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if idx.n_docs == 0:
        return idx._by_id, np.zeros(0)
    if idx.collection_length == 0:
        raise EmptyCollection("collection has documents but no tokens; scores are undefined")
    scores = _score_vector(idx, q, mu, Leaves({}) if leaves is None else leaves)
    by_id = idx._by_id  # a stable sort keeps doc id order among equal scores
    top = by_id[np.argsort(-scores[by_id], kind="stable")[:k]]
    return top, scores[top]


def search(
    idx: Index,
    q: QueryNode,
    k: int,
    request_id: str = "0",
    tag: str = "sqe",
    mu: float = DEFAULT_MU,
    leaves: Leaves | None = None,
) -> RankedList:
    """Score every document; top-k by score descending, doc id ascending,
    with leaf scores memoized in ``leaves`` (see the module docstring)."""
    top, scores = _top(idx, q, k, mu, leaves)
    entries = list(zip([idx.doc_ids[i] for i in top.tolist()], scores.tolist()))
    return RankedList(request_id, entries, tag)


# -- pseudo-relevance feedback ------------------------------------------------


@functools.cache
def default_stopwords() -> frozenset[str]:
    data = resources.files("sqe.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w for w in data.split() if w)


def load_stopwords(path: str) -> frozenset[str]:
    with open_text(path) as fh:
        return frozenset(w for w in fh.read().split() if w)


def query_tokens(q: QueryNode) -> set[str]:
    if isinstance(q, Term):
        return {q.token}
    if isinstance(q, Window):
        return set(q.tokens)
    if isinstance(q, Combine):
        return set().union(*(query_tokens(c) for c in q.children))
    if isinstance(q, Weight):
        return set().union(*(query_tokens(c) for _w, c in q.entries))
    raise TypeError(f"not a query node: {q!r}")


def prf_expand(
    idx: Index,
    q: QueryNode,
    fb_docs: int = 10,
    fb_terms: int = 10,
    orig_weight: float = 0.5,
    stopwords: frozenset[str] | None = None,
    mu: float = DEFAULT_MU,
    leaves: Leaves | None = None,
) -> QueryNode:
    """Relevance-model feedback over the top retrieved documents.

    Term weights are w(t) = sum over feedback docs of P(t|d) times the
    softmax-normalized document score.  Stopwords and the query's own
    tokens are dropped, and so is a term whose weight underflows to 0; the
    top ``fb_terms`` remainder re-weights the original query as
    (orig_weight, q) + (1 - orig_weight, feedback).
    With no retrievable documents, a best feedback score of -inf (see the
    module docstring) or fb_terms <= 0 the query is returned unchanged.
    ``leaves`` scores the feedback ranking, as in ``search``.
    """
    if fb_terms <= 0 or fb_docs <= 0 or idx.n_docs == 0:
        return q
    top, scores = _top(idx, q, fb_docs, mu, leaves)
    if scores[0] == -math.inf:  # every score is -inf: the softmax below would be nan
        return q
    soft = np.exp(scores - scores.max())
    soft /= soft.sum()

    excluded = query_tokens(q) | (stopwords if stopwords is not None else default_stopwords())
    weights = np.zeros(len(idx.vocab))
    for rank, ordinal in enumerate(top.tolist()):
        dlen = int(idx.doc_lengths[ordinal])
        if not dlen:
            continue
        start = idx._doc_starts[ordinal]
        terms, tf = np.unique(idx.tokens[start : start + dlen], return_counts=True)
        weights[terms] += soft[rank] * tf / dlen
    for tok in excluded:
        t = idx._term_ids.get(tok)
        if t is not None:
            weights[t] = 0.0
    candidates = np.flatnonzero(weights).tolist()  # a share that underflows to 0 adds no term
    if not candidates:
        return q
    best = sorted(
        ((idx.vocab[t], w) for t, w in zip(candidates, weights[candidates].tolist())),
        key=lambda e: (-e[1], e[0]),
    )[:fb_terms]
    feedback = Weight(tuple((w, Term(t)) for t, w in best))
    return Weight(((orig_weight, q), (1.0 - orig_weight, feedback)))


# -- TREC run files ------------------------------------------------------------


def is_run_id(text: str) -> bool:
    """Whether ``text`` fits a run line's request or document id field:
    non-empty, with no whitespace, which ``read_trec_run`` splits on."""
    return text.split() == [text]


def write_trec_run(runs: Iterable[RankedList], out: IO[str]) -> None:
    """``qid Q0 docid rank score tag`` lines, rank from 1, 6-decimal scores."""
    for run in runs:
        for rank, (doc_id, score) in enumerate(run.entries, start=1):
            out.write(f"{run.request_id} Q0 {doc_id} {rank} {score:.6f} {run.tag}\n")


def read_trec_run(path: str) -> list[RankedList]:
    """Parse a TREC run file back into per-request ranked lists.

    A request whose rows repeat a doc id or whose scores rise with rank
    raises :class:`FormatError` with the line of its first row.
    """
    per_qid: dict[str, list[tuple[int, str, float]]] = {}  # in order of first appearance
    heads: dict[str, tuple[int, str]] = {}  # each request's first line and tag
    for lineno, line in lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise FormatError(path, lineno, f"expected 6 fields, got {len(parts)}")
        qid, _q0, doc_id, rank, score, tag = parts
        try:
            entry = (int(rank), doc_id, float(score))
        except ValueError as exc:
            raise FormatError(path, lineno, str(exc)) from None
        per_qid.setdefault(qid, []).append(entry)
        heads.setdefault(qid, (lineno, tag))
    runs = []
    for qid, rows in per_qid.items():
        lineno, tag = heads[qid]
        try:
            runs.append(RankedList(qid, [(d, s) for _r, d, s in sorted(rows)], tag))
        except ValueError as exc:  # a repeated doc id, or a score above the one ranked before
            raise FormatError(path, lineno, f"request {qid!r}: {exc}") from None
    return runs
