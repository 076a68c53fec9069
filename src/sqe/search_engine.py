"""Positional-index retrieval with query-likelihood scoring.

Documents are token lists over a shared tokenizer.  Every query node
evaluates to a log-belief per document: terms and ordered windows use
Dirichlet-smoothed language models (collection frequency floored at 0.5
when a pattern never occurs, so beliefs stay finite while
``mu * cf / |C|`` does not underflow to 0; below that a document without
the pattern scores -inf), ``#combine`` averages and ``#weight`` takes a
weight-normalized sum.  Scoring is exhaustive over the collection, which
keeps the ranking contract exact.  One selection, ``_best``, picks every
top-k: documents by score, ties in doc id order (``Index._by_id``), and
feedback terms by weight, ties in term order (``Index._by_term``).  A
``RankedList`` is two columns, the doc ids and a read-only float64 score
array, checked once where built.

Indexes are immutable after build.  Work shared between searches lives
in memos that belong to the caller, never to ``Index`` or to this
module, under the memo rule of :mod:`sqe.pipeline`.  ``search`` and
``prf_expand`` take one optional ``Leaves`` memo, which holds two, and
make a fresh one when given none; entries are filled on first use and
never changed once stored:

* the ``Leaves`` dict itself: each term's and window's dense score vector,
  a row of its query's leaf block, keyed by ``(n, tokens)``, for one index and one ``mu``.
* ``Leaves.matches``: each multi-token window's match pairs, the
  document ordinals and counts where the count is above 0, keyed by
  ``(n, tokens)``, for one index.
"""

from __future__ import annotations

import functools
import json
import math
from array import array
from dataclasses import dataclass
from importlib import resources
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .archive import ArchiveFormat
from .errors import DuplicateDocId, EmptyCollection, FormatError
from .query_lang import Combine, QueryNode, Term, Weight, Window
from .text import TOKEN, lines, open_text, tokenize

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


class RankedList:
    """Ordered retrieval output with TREC run semantics, as two columns: ``ids``,
    a tuple of doc id strings, and ``scores``, a read-only float64 array, best
    first.  ``_from_columns`` copies the scores in; ``RankedList(request_id,
    entries, tag)`` splits ``(doc_id, score)`` pairs and first rejects a score
    that is not a real number, then a doc id that does not fit a run line (one
    joined split).  Both check the order with one comparison (a nan fails it),
    the ids with one set, and the request id and tag with ``is_run_id``, so a
    list writes only run lines that ``read_trec_run`` reads back.  The doc ids
    of ``_from_columns`` go unchecked: its callers pass an ``Index``'s, another
    list's or a run line's, all run ids.  ``entries`` builds the pairs on each read."""

    def __init__(self, request_id: str, entries: Iterable[tuple[str, float]] = (), tag: str = "sqe"):
        pairs = list(entries)
        try:  # "d" takes real numbers only, and overflows past the float range
            scores = array("d", [s for _d, s in pairs])
        except (TypeError, OverflowError):
            raise ValueError("ranked list scores must be non-increasing numbers") from None
        ids = [d for d, _s in pairs]
        if " ".join(ids).split() != ids:  # each id one run line field
            raise ValueError("ranked list doc ids must be non-empty, with no whitespace")
        self._set_columns(request_id, ids, scores, tag)

    @classmethod
    def _from_columns(cls, request_id: str, ids: Iterable[str], scores, tag: str) -> "RankedList":
        return cls.__new__(cls)._set_columns(request_id, ids, scores, tag)

    def _set_columns(self, request_id: str, ids: Iterable[str], scores, tag: str) -> "RankedList":
        scores = np.array(scores, dtype=np.float64)
        # each score against the next and the last against -inf, so a nan anywhere fails
        if not (scores >= np.append(scores[1:], -np.inf)).all():
            raise ValueError("ranked list scores must be non-increasing numbers")
        ids = tuple(ids)
        if len(set(ids)) != len(ids):
            raise ValueError("ranked list doc ids must be unique")
        if not (is_run_id(request_id) and is_run_id(tag)):
            raise ValueError("ranked list request id and tag must be non-empty, with no whitespace")
        scores.flags.writeable = False
        self.request_id, self.ids, self.scores, self.tag = request_id, ids, scores, tag
        return self

    @property
    def entries(self) -> list[tuple[str, float]]:
        return list(zip(self.ids, self.scores.tolist()))

    def doc_ids(self) -> list[str]:
        return list(self.ids)

    def __eq__(self, other):
        if not isinstance(other, RankedList):
            return NotImplemented
        return (self.request_id, self.entries, self.tag) == (other.request_id, other.entries, other.tag)


class Index:
    """Positional inverted index over a document collection, held as columns.

    The collection is one term-id array, ``tokens``, in token order;
    document ``d`` covers ``doc_lengths[d]`` tokens from ``_doc_starts[d]``,
    so a token's global position is ``_doc_starts[doc] + pos``; ``_by_id``
    lists the ordinals in doc id order, and ``_by_term`` the term ids in term
    order.  Postings are
    CSR over global positions: term ``t`` occurs, in ascending order, at
    ``_positions[_offsets[t]:_offsets[t + 1]]``.  Term ids follow first
    appearance, and everything is fixed at construction: the numpy columns
    are read-only, and those the caller passed in are frozen as views.

    Every reader builds through here, so the rules on the values are stated
    here once: 1-D int columns that fit together (one length per doc id, none
    negative, summing to the token count, term ids within the vocabulary),
    distinct words that are each one ``text.TOKEN``, and doc ids that fit a
    run line.  A fault raises ``ValueError``, a repeated doc id
    :class:`DuplicateDocId`; ``load_index`` reports either as its file's.
    """

    __slots__ = (
        "doc_ids",
        "_ordinals",
        "doc_lengths",
        "collection_length",
        "vocab",
        "_term_ids",
        "tokens",
        "_doc_starts",
        "_doc_of",
        "_lengths",
        "_length_class",
        "_by_id",
        "_by_term",
        "_offsets",
        "_positions",
    )

    def __init__(
        self, doc_ids: list[str], doc_lengths: np.ndarray, vocab: list[str], tokens: np.ndarray
    ):
        doc_lengths, tokens = np.asarray(doc_lengths), np.asarray(tokens)  # lists too, not cast yet
        fit = (  # before any cast, so that a float column cannot pass as an int one
            doc_lengths.ndim == tokens.ndim == 1
            and doc_lengths.dtype.kind == tokens.dtype.kind == "i"
            and doc_lengths.size == len(doc_ids)
            and not (doc_lengths < 0).any()
            and int(doc_lengths.sum()) == tokens.size
            and (tokens.size == 0 or (tokens.min() >= 0 and tokens.max() < len(vocab)))
        )
        if not fit:
            raise ValueError("index columns do not fit together")
        self.doc_ids = doc_ids
        self._ordinals: dict[str, int] = {}
        for ordinal, doc_id in enumerate(doc_ids):
            if self._ordinals.setdefault(doc_id, ordinal) != ordinal:
                raise DuplicateDocId(f"document id {doc_id!r} appears twice")
        self.doc_lengths = np.asarray(doc_lengths, dtype=np.int64).view()  # frozen below: not the caller's
        self.collection_length = int(self.doc_lengths.sum())
        self.vocab = vocab
        self._term_ids = {tok: t for t, tok in enumerate(vocab)}
        words = "".join(vocab)  # C-level passes: words distinct, none empty, each character a token's
        if len(self._term_ids) != len(vocab) or not all(vocab) or (words and not TOKEN.fullmatch(words)):
            raise ValueError("a vocabulary word repeats or is not one token")
        if " ".join(doc_ids).split() != doc_ids:  # each id one run line field
            raise ValueError("a document id is empty or holds whitespace")
        self.tokens = np.asarray(tokens, dtype=np.int32).view()
        counts = np.bincount(self.tokens, minlength=len(vocab))
        self._doc_starts = np.cumsum(self.doc_lengths) - self.doc_lengths
        self._doc_of = np.repeat(np.arange(len(doc_ids)), self.doc_lengths)
        self._lengths, self._length_class = np.unique(self.doc_lengths, return_inverse=True)
        by_id = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
        self._by_id = np.array(by_id, dtype=np.int64)
        self._by_term = np.array(sorted(range(len(vocab)), key=vocab.__getitem__), dtype=np.int64)
        self._offsets = np.concatenate(([0], np.cumsum(counts)))
        self._positions = np.argsort(self.tokens, kind="stable")
        for name in self.__slots__:
            if isinstance(column := getattr(self, name), np.ndarray):
                column.flags.writeable = False  # immutable: a write raises ValueError

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def collection_tf(self) -> dict[str, int]:
        """Each word's count in the collection, in a dict built anew on every read."""
        return dict(zip(self.vocab, np.diff(self._offsets).tolist()))

    def ordinal(self, doc: str | int) -> int:
        """The ordinal of a doc id, or an ordinal itself; ``KeyError`` for any other."""
        if isinstance(doc, str):
            return self._ordinals[doc]
        if isinstance(doc, bool) or not isinstance(doc, (int, np.integer)) or not 0 <= doc < self.n_docs:
            raise KeyError(doc)  # a negative one would read from the end
        return int(doc)

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

_INDEX_FORMAT = ArchiveFormat("sqe-index", 3, "index", "rebuild it with `sqe index`")


def save_index(idx: Index, path: str) -> None:
    """Write the index columns as a versioned ``.npz`` file."""
    _INDEX_FORMAT.save(
        path,
        {"doc_lengths": idx.doc_lengths, "tokens": idx.tokens},
        {"doc_ids": idx.doc_ids, "vocab": idx.vocab},
    )


def load_index(path: str) -> Index:
    """Read a file written by ``save_index`` (see :mod:`sqe.archive`); a column Index refuses is its fault."""
    columns = _INDEX_FORMAT.load(path, ("doc_lengths", "tokens"), ("doc_ids", "vocab"))
    try:
        return Index(columns["doc_ids"], columns["doc_lengths"], columns["vocab"], columns["tokens"])
    except (ValueError, DuplicateDocId) as exc:
        raise _INDEX_FORMAT.error(path, str(exc)) from None


def read_documents(path: str) -> Iterable[Document]:
    """JSON-lines: one object per line with fields ``id``, a string or an integer, and ``text``, a string."""
    seen: set[str] = set()
    for lineno, line in lines(path):
        try:
            obj = json.loads(line)
            doc_id, text = obj["id"], obj["text"]
        # ValueError: JSONDecodeError, or an integer of more digits than int() takes; RecursionError: too deep
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise FormatError(path, lineno, f"bad document line ({exc})") from None
        if type(doc_id) is int:  # not a bool, which is an int too
            doc_id = str(doc_id)
        if not isinstance(doc_id, str):
            raise FormatError(path, lineno, f"document id {doc_id!r} is not a JSON string or integer")
        if not isinstance(text, str):
            raise FormatError(path, lineno, f"document text {text!r} is not a JSON string")
        if not is_run_id(doc_id):
            raise FormatError(path, lineno, f"document id {doc_id!r} is empty or holds whitespace")
        if doc_id in seen:
            raise FormatError(path, lineno, f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        yield Document.from_text(doc_id, text)


LeafKey = tuple[int, tuple[str, ...]]  # (n, tokens), a term being (1, (token,))
WindowMatches = dict[LeafKey, np.ndarray]  # read-only 2 x m arrays: document ordinals, then counts


def _window_matches(idx: Index, windows: Sequence[LeafKey]) -> list[np.ndarray]:
    """Per window ``(n, tokens)``, a read-only 2 x m array: the document
    ordinals and counts of ordered position tuples with each gap in [1, n],
    one pair per final-token occurrence that ends a match.

    One state for all windows, token by token from the first: slot ``s``
    (longest first) codes the global position ``p`` of a partial match's
    last token as ``s * (|C| + 1) + p``, and ``ways`` counts the partial
    matches ending there.  A step whose live windows are all ``#1`` keeps a
    state when ``tokens[p + 1]`` is its window's next token and ``p + 1``
    lies in ``p``'s document.  A step with any live window of n > 1 walks
    that token's postings instead, and sums with prefix sums (one
    ``searchsorted`` for all windows) the ways of the previous token's states
    in ``[max(p - n, doc_start(p)), p - 1]``, at a cost that does not grow
    with n as extending offset by offset would.
    """
    span = idx.collection_length + 1
    order = sorted(range(len(windows)), key=lambda i: -len(windows[i][1]))
    found: list = [None] * len(windows)
    live = len(order)  # slots 0..live-1 have a token at this step
    for step in range(len(windows[order[0]][1]) if order else 0):
        toks = [windows[i][1][step] for i in order[:live]]
        if step and all(windows[i][0] == 1 for i in order[:live]):  # each state p extends to p + 1
            slot, pos = np.divmod(prev, span)
            doc, want = idx._doc_of[pos], np.array([idx._term_ids.get(t, -1) for t in toks])[slot]
            inside = pos + 1 < idx._doc_starts[doc] + idx.doc_lengths[doc]  # then pos + 1 < |C|
            hit = inside & (idx.tokens.take(pos + 1, mode="clip") == want)  # clip: no read past |C|
            cur, ways = prev[hit] + 1, ways[hit]
        else:
            posts = [idx._postings(t) for t in toks]
            counts, pos = [p.size for p in posts], np.concatenate(posts)
            cur = np.repeat(np.arange(live, dtype=np.int64) * span, counts) + pos
            if step == 0:
                ways = np.ones(cur.size, dtype=np.int64)
            else:  # a window of n > 1 is live: sum the previous token's states in range
                ns = np.repeat([windows[i][0] for i in order[:live]], counts)
                lowest = cur - np.minimum(ns, pos - idx._doc_starts[idx._doc_of[pos]])  # in the document
                prefix = np.concatenate(([0], np.cumsum(ways)))
                ways = prefix[np.searchsorted(prev, cur)] - prefix[np.searchsorted(prev, lowest)]
                cur, ways = cur[ways > 0], ways[ways > 0]  # so every count is above 0
        ends = sum(len(windows[i][1]) > step + 1 for i in order)  # slots ends..live-1 end here
        cuts = np.searchsorted(cur, np.arange(ends, live + 1) * span).tolist()
        pairs = np.array((idx._doc_of[cur[cuts[0] :] % span], ways[cuts[0] :]))
        pairs.flags.writeable = False  # the state's tail: each ending window's pairs are a view
        for s, lo, hi in zip(range(ends, live), cuts, cuts[1:]):
            found[order[s]] = pairs[:, lo - cuts[0] : hi - cuts[0]]
        live, prev, ways = ends, cur[: cuts[0]], ways[: cuts[0]]
    return found


def _leaf_tf(idx: Index, keys: Sequence[LeafKey], matches: WindowMatches) -> tuple[np.ndarray, np.ndarray]:
    """The ascending codes ``row * n_docs + doc`` of the leaves ``keys``' matched
    cells, and their counts; pairs new to ``matches`` are memoized there."""
    new = [key for key in keys if key not in matches]
    found = dict(zip(new, _window_matches(idx, new)))
    matches.update((key, pair) for key, pair in found.items() if len(key[1]) > 1)  # a term's is cheap
    pairs = [found[key] if key in found else matches[key] for key in keys]
    docs, counts = np.concatenate(pairs, axis=1)
    codes = docs + np.repeat(np.arange(len(keys)) * idx.n_docs, [pair.shape[1] for pair in pairs])
    starts = np.flatnonzero(codes != np.concatenate(([-1], codes[:-1])))  # each distinct (row, doc)
    return codes[starts], np.add.reduceat(counts, starts)


def window_tf(idx: Index, doc: str | int, n: int, tokens: Sequence[str]) -> int:
    """Window match count inside one document."""
    codes, tf = _leaf_tf(idx, [(n, Window(n, tokens).tokens)], {})  # Window checks the size
    return int(np.bincount(codes, weights=tf, minlength=idx.n_docs)[idx.ordinal(doc)])


def _dirichlet(tf, cf, doc_lengths, collection_length: int, mu: float):
    return np.log((tf + mu * np.maximum(cf, UNSEEN_CF) / collection_length) / (doc_lengths + mu))


def _leaf_block(idx: Index, keys: Sequence[LeafKey], mu: float, matches: WindowMatches) -> np.ndarray:
    """The leaves ``keys``' score vectors as the rows of one read-only block.  An
    unmatched cell scores by its document's length alone, gathered from a table
    by distinct length; ``0.0 + x == x``, so every cell gets the dense formula's bits."""
    codes, tf = _leaf_tf(idx, keys, matches)
    rows, docs = np.divmod(codes, idx.n_docs)
    cf = np.bincount(rows, weights=tf, minlength=len(keys))
    table = _dirichlet(0.0, cf[:, None], idx._lengths, idx.collection_length, mu)
    block = table.take(idx._length_class, axis=1)  # C order: reshape(-1) is a view
    block.reshape(-1)[codes] = _dirichlet(tf, cf[rows], idx.doc_lengths[docs], idx.collection_length, mu)
    block.flags.writeable = False
    return block


class Leaves(dict):
    """Leaf score vectors keyed by ``(n, tokens)``, for one index and one mu: the
    leaves one query adds are built as one block, and each is a read-only row
    view into it.  ``matches`` is its window match memo for the same index: a
    batch's, which outlives this memo (see the module docstring), or its own.
    """

    __slots__ = ("matches",)

    def __init__(self, matches: WindowMatches):
        super().__init__()
        self.matches = matches


def _leaf_nodes(q: QueryNode) -> Iterator[Term | Window]:
    """``q``'s terms and windows, in tree order."""
    if isinstance(q, (Term, Window)):
        yield q
    elif isinstance(q, (Combine, Weight)):
        for c in q.children if isinstance(q, Combine) else (c for _w, c in q.entries):
            yield from _leaf_nodes(c)
    else:
        raise TypeError(f"not a query node: {q!r}")


def _leaf_key(leaf: Term | Window) -> LeafKey:
    return (1, (leaf.token,)) if isinstance(leaf, Term) else (leaf.n, leaf.tokens)


def _belief(q: QueryNode, leaves: Leaves) -> np.ndarray:
    if isinstance(q, Combine):
        return np.mean([_belief(c, leaves) for c in q.children], axis=0)
    if isinstance(q, Weight):
        total = sum(w for w, _c in q.entries)
        return sum(w / total * _belief(c, leaves) for w, c in q.entries)
    return leaves[_leaf_key(q)]


def _score_vector(idx: Index, q: QueryNode, mu: float, leaves: Leaves) -> np.ndarray:
    """Per-document log-belief of ``q``; the leaves it adds to ``leaves`` come first, as one block."""
    if idx.collection_length == 0:
        raise EmptyCollection("the collection has no tokens; scores are undefined")
    new = [key for key in dict.fromkeys(map(_leaf_key, _leaf_nodes(q))) if key not in leaves]
    if new:
        leaves.update(zip(new, _leaf_block(idx, new, mu, leaves.matches)))
    return _belief(q, leaves)


def score_node(idx: Index, q: QueryNode, doc: str | int, mu: float = DEFAULT_MU) -> float:
    """Log-belief of one document under one query node."""
    return float(_score_vector(idx, q, mu, Leaves({}))[idx.ordinal(doc)])


def _best(neg: np.ndarray, k: int) -> np.ndarray:
    """The positions of ``neg``'s k least entries, least first, ties in position
    order: ``np.argsort(neg, kind="stable")[:k]``, sorting only what ties or beats the k-th least."""
    kept = np.flatnonzero(neg <= np.partition(neg, k - 1)[k - 1]) if k < neg.size else np.arange(neg.size)
    return kept[np.argsort(neg[kept], kind="stable")[:k]]


def _top(
    idx: Index, q: QueryNode, k: int, mu: float, leaves: Leaves | None
) -> tuple[np.ndarray, np.ndarray]:
    """``search``'s top-k as ordinals and scores; a fresh memo when ``leaves`` is None."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if idx.n_docs == 0:
        return idx._by_id, np.zeros(0)
    scores = _score_vector(idx, q, mu, Leaves({}) if leaves is None else leaves)
    top = idx._by_id[_best(-scores[idx._by_id], k)]
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
    return RankedList._from_columns(request_id, map(idx.doc_ids.__getitem__, top.tolist()), scores, tag)


# -- pseudo-relevance feedback ------------------------------------------------


@functools.cache
def default_stopwords() -> frozenset[str]:
    data = resources.files("sqe.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w for w in data.split() if w)


def load_stopwords(path: str) -> frozenset[str]:
    with open_text(path) as fh:
        return frozenset(w for w in fh.read().split() if w)


def query_tokens(q: QueryNode) -> set[str]:
    return {tok for leaf in _leaf_nodes(q) for tok in _leaf_key(leaf)[1]}


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
    by_term = idx._by_term[weights[idx._by_term] != 0]  # a share that underflows to 0 adds no term
    if not by_term.size:
        return q
    best = by_term[_best(-weights[by_term], fb_terms)]
    feedback = Weight(tuple((w, Term(idx.vocab[t])) for t, w in zip(best.tolist(), weights[best].tolist())))
    return Weight(((orig_weight, q), (1.0 - orig_weight, feedback)))


# -- TREC run files ------------------------------------------------------------


def is_run_id(text: str) -> bool:
    """Whether ``text`` fits a run line's request or document id field:
    non-empty, with no whitespace, which ``read_trec_run`` splits on."""
    return text.split() == [text]


def write_trec_run(runs: Iterable[RankedList], out: IO[str]) -> None:
    """``qid Q0 docid rank score tag`` lines, rank from 1, 6-decimal scores."""
    for run in runs:
        for rank, (doc_id, score) in enumerate(zip(run.ids, run.scores.tolist()), start=1):
            out.write(f"{run.request_id} Q0 {doc_id} {rank} {score:.6f} {run.tag}\n")


def read_trec_run(path: str) -> list[RankedList]:
    """Parse a TREC run file back into per-request ranked lists.

    A request whose rows repeat a doc id or whose scores rise with rank
    raises :class:`FormatError` with the line of its first row.
    """
    # qid -> the request's first line, its tag and its rows, in order of first appearance
    requests: dict[str, tuple[int, str, list[tuple[int, str, float]]]] = {}
    for lineno, line in lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise FormatError(path, lineno, f"expected 6 fields, got {len(parts)}")
        qid, _q0, doc_id, rank, score, tag = parts
        try:
            entry = (int(rank), doc_id, float(score))
        except ValueError as exc:
            raise FormatError(path, lineno, str(exc)) from None
        requests.setdefault(qid, (lineno, tag, []))[2].append(entry)
    runs = []
    for qid, (lineno, tag, rows) in requests.items():
        _ranks, ids, scores = zip(*sorted(rows))
        try:
            runs.append(RankedList._from_columns(qid, ids, scores, tag))
        except ValueError as exc:  # a repeated doc id, or a score above the one ranked before
            raise FormatError(path, lineno, f"request {qid!r}: {exc}") from None
    return runs
