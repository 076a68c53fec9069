"""In-memory spans around calls into the library's public functions.

A span is (name, start, end, parent, request).  Spans nest by call order;
a layer's self time is its duration minus the time its child spans cover.
Wrappers are installed on module attributes from this file only, so the
library runs unmodified; ``patched`` restores every attribute on exit.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import defaultdict
from time import perf_counter

from sqe import cli, entity_linker, pipeline, search_engine
from sqe.query_lang import Combine, Weight, Window


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "child_s")

    def __init__(self, name, parent, request):
        self.name = name
        self.parent = parent
        self.request = request
        self.child_s = 0.0
        self.start = self.end = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class Tracer:
    """Records spans opened on it; ``layer`` and ``patched`` add layer spans
    only when ``layers`` is on, so an untraced pass times requests alone.

    ``probe``, when set, runs before every request span opens and its
    results are kept in ``probe_s``; it stays outside the request's time.
    """

    def __init__(self, layers: bool, probe=None):
        self.layers = layers
        self.probe = probe
        self.probe_s: list[float] = []
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._stack: list[Span] = []
        self._request = None

    @contextlib.contextmanager
    def span(self, name: str, request=None):
        if request is not None:
            if self.probe is not None:
                self.probe_s.append(self.probe())
            self._request = request
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, parent, self._request)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.duration_s
            if request is not None:
                self._request = None

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(value)

    def wrap(self, fn, name, observe=None, request=None):
        """``fn`` inside a span; ``name`` may be a function of the arguments."""

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            with self.span(label, request(args) if request else None):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def layer(self, fn, name, observe=None):
        """``fn`` wrapped in a span when layers are traced, else ``fn`` itself."""
        return self.wrap(fn, name, observe) if self.layers else fn

    def rows(self) -> list[list]:
        """Spans as [name, start_s, end_s, parent_index, request] rows."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s.name, s.start, s.end, index.get(id(s.parent)), s.request] for s in self.spans]

    # -- derived figures -------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def per_request(self, name: str, requests: list, self_time: bool = True) -> list[float]:
        """Summed self (or total) ms of ``name`` per request that ran it."""
        sums: dict = {}
        for s in self.spans:
            if s.name == name and s.request is not None:
                ms = (s.self_s if self_time else s.duration_s) * 1000
                sums[s.request] = sums.get(s.request, 0.0) + ms
        return [sums[r] for r in requests if r in sums]


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def windows_of(q) -> list[Window]:
    if isinstance(q, Window):
        return [q]
    if isinstance(q, Combine):
        return [w for c in q.children for w in windows_of(c)]
    if isinstance(q, Weight):
        return [w for _wt, c in q.entries for w in windows_of(c)]
    return []


class WindowLog:
    """Window patterns issued to ``search`` during one pass."""

    def __init__(self):
        self.seen: set = set()
        self.total = 0
        self.repeats = 0

    def observe(self, args, _result) -> None:
        windows = windows_of(args[1])
        for w in windows:
            key = (w.n, w.tokens)
            self.repeats += key in self.seen
            self.seen.add(key)
        self.total += len(windows)


def expand_span(args) -> str:
    return f"motif_expander.expand.{args[2].value}"


def expanded(tracer: Tracer):
    def observe(args, qg):
        tracer.count(f"motif_expander.expansion_size.{args[2].value}", len(qg.expansion))

    return observe


def linked(tracer: Tracer):
    def observe(_args, _result):
        tracer.count("entity_linker.linked", 1)

    return observe


@contextlib.contextmanager
def patched(tracer: Tracer, windows: WindowLog | None = None):
    """Install span wrappers on the modules the pipeline and CLI call through.

    The request span is always installed, so untraced passes still time
    each request; layer spans only when the tracer records layers.
    """
    request_id = lambda args: args[2].request_id  # noqa: E731
    targets = [(pipeline, "run_request_detailed", "pipeline.run_request", None, request_id)]
    if tracer.layers:
        searched = windows.observe if windows is not None else None
        targets += [
            (cli, "load_graph", "kb_graph.load_graph", None, None),
            (cli, "save_snapshot", "kb_graph.save_snapshot", None, None),
            (cli, "build_index", "search_engine.build_index", None, None),
            (pipeline, "EntityLinker", "entity_linker.table_build", None, None),
            (entity_linker.EntityLinker, "link", "entity_linker.link", linked(tracer), None),
            (pipeline, "expand", expand_span, expanded(tracer), None),
            (pipeline, "build_expanded_query", "query_lang.build_expanded_query", None, None),
            (pipeline, "prf_expand", "search_engine.prf_expand", None, None),
            (pipeline, "search", "search_engine.search", searched, None),
            (search_engine, "search", "search_engine.search", searched, None),
            (pipeline, "merge_lists", "pipeline.merge_lists", None, None),
        ]
    saved = []
    try:
        for owner, attr, name, observe, request in targets:
            original = getattr(owner, attr)  # AttributeError: a boundary was renamed
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, observe, request))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
