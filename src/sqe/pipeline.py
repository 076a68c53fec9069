"""End-to-end request handling and multi-query-graph result merging.

A batch runs its requests one after another, in topic order.  Each is
linked to input nodes, expanded once per plan entry (triangular, both,
square by default), searched, and the ranked lists are stitched
range-wise: the first cutoff entries come from the first list, the next
quota of unseen documents from the second, and the final list fills up
to the total.  Merged scores are synthetic (total - rank + 1) so the
output forms a valid run.

Work is shared through memos that the functions here create and drop.
Each memo is keyed by the argument of the function whose result it
holds, and lives as long as everything else that result depends on is
fixed, so an entry can never serve a call it does not fit:

* per request, in ``run_request_detailed``: ``expansions`` maps an input
  set to its TRIANGULAR and SQUARE graphs from one walk (a BOTH entry
  sums the two), and ``leaves`` maps each term or window to its dense
  score vector over the collection for the request's index and mu.
* per batch, in ``run_batch``: ``matches`` maps each multi-token window
  to the (document ordinal, count) pairs of its match dynamic program
  whose count is above 0, from which each request's ``leaves`` rebuilds
  its dense vectors; ``phrases`` maps each normalized title to its
  exact-phrase window, for the entity and feature phrases of every plan
  entry of every request.

None of them is kept on the index, the graph or this module.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, fields
from itertools import accumulate, filterfalse
from typing import IO, Any, Callable, NamedTuple, Sequence

import numpy as np

from .entity_linker import EntityLinker, InputRequest, load_stop_titles
from .errors import FormatError, LengthMismatch, NoEntities
from .kb_graph import KBGraph
from .motif_expander import Expansions, MotifKind, expand
from .query_lang import Phrases, build_expanded_query
from .search_engine import (
    DEFAULT_MU,
    MAX_MU,
    Index,
    Leaves,
    RankedList,
    WindowMatches,
    is_run_id,
    load_stopwords,
    prf_expand,
    search,
)
from .text import lines, tokenize

DEFAULT_PLAN = (
    ("eq1", MotifKind.TRIANGULAR),
    ("eq2", MotifKind.BOTH),
    ("eq3", MotifKind.SQUARE),
)


class Rule(NamedTuple):  # a value rule that config fields and command-line flags share
    convert: type
    holds: Callable[[Any], bool]  # false for nan
    wording: str

    def check(self, name: str, value) -> None:
        if not self.holds(value):
            raise ValueError(f"{name} must be {self.wording}, got {value}")


POSITIVE_INT = Rule(int, lambda v: v >= 1, "an integer >= 1")
MU = Rule(float, lambda v: 0 < v <= MAX_MU, f"a number > 0 and <= {MAX_MU:g}")
OPEN_UNIT = Rule(float, lambda v: 0 < v < 1, "a number strictly between 0 and 1")
_SWITCH = dict.fromkeys(("on", "true", "1", "yes"), True) | dict.fromkeys(("off", "false", "0", "no"), False)


@dataclass
class PipelineConfig:
    plan: tuple[tuple[str, MotifKind], ...] = DEFAULT_PLAN
    cutoffs: tuple[int, ...] = (5, 30)
    total: int = 1000
    prf: bool = False
    mu: float = DEFAULT_MU
    fb_docs: int = 10
    fb_terms: int = 10
    orig_weight: float = 0.5
    max_ngram: int = 8
    stop_titles_path: str | None = None
    stopwords_path: str | None = None
    tag: str = "sqe"

    def __post_init__(self):
        self.plan = tuple((str(l), MotifKind(k) if not isinstance(k, MotifKind) else k) for l, k in self.plan)
        self.cutoffs = tuple(int(c) for c in self.cutoffs)
        labels = [l for l, _k in self.plan]
        if len(set(labels)) != len(labels):
            raise ValueError(f"plan labels must be unique: {labels}")
        for l in labels:  # each names two report columns
            if not is_run_id(l):
                raise ValueError(f"plan label {l!r} is empty or holds whitespace")
        if len(self.plan) != len(self.cutoffs) + 1:
            raise ValueError(
                f"plan of {len(self.plan)} entries needs {len(self.plan) - 1} cutoffs, "
                f"got {len(self.cutoffs)}"
            )
        for c in self.cutoffs:
            POSITIVE_INT.check("cutoff", c)
        for name in ("total", "fb_docs", "fb_terms", "max_ngram"):
            POSITIVE_INT.check(name, getattr(self, name))
        MU.check("mu", self.mu)
        OPEN_UNIT.check("orig_weight", self.orig_weight)
        if sum(self.cutoffs) > self.total:
            raise ValueError("cutoffs must not exceed the total")
        if not is_run_id(self.tag):  # a run line's last field
            raise ValueError(f"tag must be non-empty, with no whitespace, got {self.tag!r}")

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        """Flat ``key=value`` text; '#' starts a comment.  Each key is a field
        name, less a ``_path`` suffix, given once; its value converts by the
        type of the field's default (``str`` for a path), but for ``plan``,
        ``cutoffs`` and ``prf``, which have their own syntax."""
        values: dict[str, str] = {}
        for lineno, raw in lines(path):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(path, lineno, f"expected key=value, got {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key in values:
                raise FormatError(path, lineno, f"duplicate config key {key!r}")
            values[key] = value
        kwargs: dict = {}
        for f in fields(cls):
            text = values.pop(f.name.removesuffix("_path"), None)
            if text is None:
                continue
            if f.name == "plan":
                pairs = [item.split(":", 1) for item in text.split(",")]
                bad = [pair[0] for pair in pairs if len(pair) == 1]
                if bad:
                    raise FormatError(path, None, f"plan entry {bad[0]!r} is not label:kind")
                kwargs["plan"] = tuple((l.strip(), MotifKind(k.strip().lower())) for l, k in pairs)
            elif f.name == "cutoffs":  # an empty value is no cutoffs, for a one-entry plan
                kwargs["cutoffs"] = tuple(int(c) for c in text.split(",")) if text else ()
            elif f.name == "prf":
                if text.lower() not in _SWITCH:
                    raise ValueError(f"prf must be one of {'/'.join(_SWITCH)}, got {text!r}")
                kwargs["prf"] = _SWITCH[text.lower()]
            else:
                kwargs[f.name] = text if f.default is None else type(f.default)(text)
        if values:
            raise FormatError(path, None, f"unknown config keys {sorted(values)}")
        return cls(**kwargs)


@dataclass
class RequestReport:
    request_id: str
    entities: list[str] = field(default_factory=list)
    fallback: bool = False
    expansion_sizes: dict[str, int] = field(default_factory=dict)
    timings_ms: dict[str, float] = field(default_factory=dict)


def load_topics(path: str) -> list[InputRequest]:
    """``<qid>\\t<keyword text>`` per line; an id fits a run line and may not repeat,
    and the text holds a token."""
    topics: dict[str, InputRequest] = {}
    for lineno, line in lines(path):
        if "\t" not in line:
            raise FormatError(path, lineno, "expected <qid>\\t<text>")
        qid, text = line.split("\t", 1)
        qid = qid.strip()
        if not is_run_id(qid):
            raise FormatError(path, lineno, f"request id {qid!r} is empty or holds whitespace")
        if not text.strip():
            raise FormatError(path, lineno, "empty request text")
        if not tokenize(text):
            raise FormatError(path, lineno, f"request text {text!r} has no token")
        if qid in topics:
            raise FormatError(path, lineno, f"duplicate request id {qid!r}")
        topics[qid] = InputRequest(qid, text)
    return list(topics.values())


def merge_lists(
    lists: Sequence[RankedList], cutoffs: Sequence[int], total: int
) -> RankedList:
    """Range-stitch ranked lists with per-list quotas of unseen documents.

    The first list contributes its first cutoff entries, each following
    list appends up to its quota of documents not already taken
    (duplicates do not consume quota), and the final list fills up to
    ``total``.  Scores are replaced by total - rank + 1, as floats that
    stop at the largest one.
    """
    if len(lists) != len(cutoffs) + 1:
        raise LengthMismatch(f"{len(lists)} lists need {len(lists) - 1} cutoffs, got {len(cutoffs)}")
    qids = {r.request_id for r in lists}
    if len(qids) != 1:
        raise ValueError(f"merge_lists got lists for different requests: {sorted(qids)}")
    taken: list[str] = []
    seen: set[str] = set()
    for ranked, quota in zip(lists, [*cutoffs, total]):
        fresh = list(filterfalse(seen.__contains__, ranked.ids))[: min(quota, total - len(taken))]
        taken += fresh
        seen.update(fresh)
    top = min(total, sys.float_info.max)  # float(total) would overflow past it
    # float(top - rank): the difference is exact in int64 below 2**63, else in Python numbers
    ranks = np.arange(len(taken), dtype=np.int64 if top < 2**63 else object)
    return RankedList._from_columns(lists[0].request_id, taken, top - ranks, lists[0].tag)


def make_linker(g: KBGraph, max_ngram: int, stop_titles_path: str | None) -> EntityLinker:
    """The linker for a graph, with stop titles read from a file if one is given."""
    stop = load_stop_titles(stop_titles_path) if stop_titles_path else None
    return EntityLinker(g, max_ngram=max_ngram, stop_titles=stop)


def run_request_detailed(
    g: KBGraph,
    idx: Index,
    req: InputRequest,
    cfg: PipelineConfig,
    linker: EntityLinker,
    stopwords: frozenset[str] | None,
    *,
    matches: WindowMatches,
    phrases: Phrases,
) -> tuple[RankedList, RequestReport]:
    """One request through link, per-plan expansion, search and merge.

    ``run_batch`` builds ``linker``, ``stopwords``, the window ``matches``
    memo and the ``phrases`` memo once and passes them to each of its
    requests.
    """
    report = RequestReport(req.request_id)
    t0 = time.perf_counter()
    try:
        linked = linker.link(req)
        inputs = linked.input_nodes
        entity_titles = [g.title(n) for n in inputs]
    except NoEntities:
        inputs = []
        entity_titles = []
        report.fallback = True
    report.timings_ms["link"] = (time.perf_counter() - t0) * 1000
    report.entities = entity_titles
    input_tokens = tokenize(req.text)

    # with no input nodes every plan entry would run the same input-only
    # query, so the first entry's search alone is the merged result
    plan = cfg.plan if inputs else cfg.plan[:1]
    expansions: Expansions = {}
    leaves = Leaves(matches)  # one index and one mu for the whole request
    # the merge reads at most sum(cutoffs[:i + 1]) entries of list i but the
    # last, and a top-k is a prefix of any longer top-k
    ks = [min(cfg.total, c) for c in accumulate(cfg.cutoffs[: len(plan) - 1])] + [cfg.total]
    results = []
    query_ms = 0.0
    for (label, kind), k in zip(plan, ks):
        qg = None
        if inputs:
            t0 = time.perf_counter()
            qg = expand(g, inputs, kind, expansions)
            report.expansion_sizes[label] = len(qg.expansion)
            report.timings_ms[f"expand_{label}"] = (time.perf_counter() - t0) * 1000

        t0 = time.perf_counter()
        query = build_expanded_query(input_tokens, entity_titles, qg, g, phrases).root
        if cfg.prf:
            query = prf_expand(
                idx, query, cfg.fb_docs, cfg.fb_terms, cfg.orig_weight, stopwords, cfg.mu, leaves
            )
        results.append(search(idx, query, k, req.request_id, cfg.tag, cfg.mu, leaves))
        query_ms += (time.perf_counter() - t0) * 1000
    report.timings_ms["query"] = query_ms

    merged = merge_lists(results, cfg.cutoffs, cfg.total) if inputs else results[0]
    return merged, report


def run_request(
    g: KBGraph, idx: Index, req: InputRequest, cfg: PipelineConfig
) -> RankedList:
    return run_batch(g, idx, [req], cfg)[0][0]


def run_batch(
    g: KBGraph,
    idx: Index,
    topics: Sequence[InputRequest],
    cfg: PipelineConfig,
    jobs: int = 1,
) -> tuple[list[RankedList], list[RequestReport]]:
    """All topics, one after another; outputs are in topic order.

    The linker and the stopwords that ``cfg`` names are built once, and the
    requests share one window ``matches`` memo and one ``phrases`` memo,
    dropped on return.  ``jobs`` must be 1.
    """
    if jobs != 1:
        raise ValueError(f"requests run in order, so jobs must be 1, got {jobs}")
    linker = make_linker(g, cfg.max_ngram, cfg.stop_titles_path)
    stopwords = load_stopwords(cfg.stopwords_path) if cfg.stopwords_path else None
    matches: WindowMatches = {}
    phrases: Phrases = {}
    pairs = [run_request_detailed(g, idx, r, cfg, linker, stopwords, matches=matches, phrases=phrases)
             for r in topics]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def write_report(reports: Sequence[RequestReport], cfg: PipelineConfig, out: IO[str]) -> None:
    """Per-request TSV: entities, fallback flag, expansion sizes, stage timings."""
    labels = [label for label, _k in cfg.plan]
    header = (
        ["qid", "entities", "fallback"]
        + [f"n_expansion_{l}" for l in labels]
        + ["link_ms"]
        + [f"expand_{l}_ms" for l in labels]
        + ["query_ms"]
    )
    out.write("\t".join(header) + "\n")
    for rep in reports:
        row = [
            rep.request_id,
            "|".join(rep.entities),
            "yes" if rep.fallback else "no",
        ]
        row += [str(rep.expansion_sizes.get(l, 0)) for l in labels]
        row.append(f"{rep.timings_ms.get('link', 0.0):.2f}")
        row += [f"{rep.timings_ms.get(f'expand_{l}', 0.0):.2f}" for l in labels]
        row.append(f"{rep.timings_ms.get('query', 0.0):.2f}")
        out.write("\t".join(row) + "\n")
