"""Seeded end-to-end benchmark for the sqe toolkit.

    python3 bench/run.py --workload topics --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  The inputs (graph TSVs,
documents, topics, qrels) are generated from ``--seed`` into
``.bench_work/``; the library sees only those files.  Each pass starts
from the generated files: set-up turns them into a loaded graph (and
index) the way ``sqe ingest``, ``sqe index`` and ``sqe run`` do, then one
timed pass sends every request once, closed loop, one client, ``jobs=1``.
Passes repeat until ``--seconds`` have gone by, at least ``MIN_PASSES``
times, so every pass sees a freshly loaded index (``Index._window_cf``
fills lazily; a second pass over one index would run warmer than any
``sqe run`` does).

Workloads, all over the same generated graph:

* ``topics``      the paper's default plan (eq1 triangular, eq2 both, eq3
                  square, cutoffs 5,30, total 1000), PRF off.
* ``topics-prf``  plan ``both`` alone, PRF on (10 docs, 10 terms).
* ``graph-study`` no collection: per seed article link, expand with each
                  motif, enumerate cycles of length 2..3 and their stats.

Times are scaled to a reference CPU speed measured by a fixed kernel
interleaved with the work (see ``REFERENCE_KERNEL_S``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including
the tracing overhead.  Output checks (recorded digests, oracles from
``tests/oracles.py``) count failed requests.  The last stdout line is the
JSON result; a record with the raw samples goes to ``.bench_work/records``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("topics", "topics-prf", "graph-study")
MIN_PASSES = 3
MIN_TRACE_PASSES = 2  # one untraced, one traced
CYCLE_MAX_LEN = 3
SAMPLED_REQUESTS = 2  # oracle-checked per run, outside the timed pass
SCORE_RTOL = 1e-9
# The CPU speed of a shared VM drifts by tens of percent within seconds and
# between minutes.  Every time is therefore scaled by REFERENCE_KERNEL_S over
# the median time of a fixed kernel run interleaved with the timed work, so
# times read as seconds at the reference speed.  Raw times go to the record.
REFERENCE_KERNEL_S = 0.0008  # about the median kernel_s() on a shared 2-vCPU 2.1 GHz VM
SETUP_PROBES = 8  # kernel runs before and after each set-up

if not (ROOT / "src" / "sqe").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
    sys.exit(f"bench: {ROOT} is not an sqe source checkout (src/sqe, tests/oracles.py)")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

from sqe import cli, evaluation, pipeline  # noqa: E402
from sqe.cycle_analysis import cycle_length_stats, enumerate_cycles  # noqa: E402
from sqe.entity_linker import EntityLinker, InputRequest, link  # noqa: E402
from sqe.errors import NoEntities  # noqa: E402
from sqe.kb_graph import load_snapshot  # noqa: E402
from sqe.motif_expander import MotifKind, expand  # noqa: E402
from sqe.query_lang import build_expanded_query  # noqa: E402
from sqe.search_engine import prf_expand, search, window_tf, write_trec_run  # noqa: E402
from sqe.text import tokenize  # noqa: E402

import generate  # noqa: E402
from spans import (  # noqa: E402
    Tracer, WindowLog, windows_of, expand_span, expanded, median_or_zero, patched,
)


def _load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()

CONFIGS = {
    "topics": pipeline.PipelineConfig(),
    "topics-prf": pipeline.PipelineConfig(
        plan=(("eq2", MotifKind.BOTH),), cutoffs=(), prf=True, fb_docs=10, fb_terms=10
    ),
}


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- set-up -----------------------------------------------------------------------


_KERNEL_KEYS = np.arange(64)
_KERNEL_TABLE = np.random.default_rng(0).random(1 << 19)  # 4 MB: misses the private caches
_KERNEL_PICKS = np.random.default_rng(1).integers(0, 1 << 19, 20_000)


def kernel_s() -> float:
    """Seconds for fixed interpreter, small-numpy-call and scattered-memory work."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(300):
        acc += int(np.searchsorted(_KERNEL_KEYS, i & 63))
        table[i & 255] = acc
    _KERNEL_TABLE[_KERNEL_PICKS].sum()
    return time.perf_counter() - t0


def speed_factor(kernel_samples: list[float]) -> float:
    """Multiplier that turns a raw time into one at the reference speed."""
    return REFERENCE_KERNEL_S / statistics.median(kernel_samples)


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"sqe {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def set_up(files: dict[str, Path], work: Path, with_index: bool, tracer: Tracer):
    """Generated files to a loaded graph (and index).

    Returns them, the raw seconds, kernel times taken around the set-up,
    and the bytes on disk.
    """
    kb, index = work / "kb.bin", work / "index.bin"
    kernels = [kernel_s() for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    with tracer.span("cli.ingest"):
        _cli(["ingest", "--nodes", str(files["nodes.tsv"]), "--edges", str(files["edges.tsv"]),
              "--out", str(kb)])
    with tracer.span("kb_graph.load_snapshot"):
        g = load_snapshot(str(kb))
    idx = None
    if with_index:
        with tracer.span("cli.index"):
            _cli(["index", "--docs", str(files["docs.jsonl"]), "--out", str(index)])
        with tracer.span("search_engine.index_load"):
            idx = cli._load_index(str(index))
    seconds = time.perf_counter() - t0
    kernels += [kernel_s() for _ in range(SETUP_PROBES)]
    sizes = {"snapshot": kb.stat().st_size, "index": index.stat().st_size if with_index else 0}
    return g, idx, seconds, kernels, sizes


# -- timed passes -----------------------------------------------------------------


def topics_pass(g, idx, topics, cfg, tracer: Tracer, windows: WindowLog | None):
    """``run_batch`` over every topic; per-request times come from request spans."""
    with patched(tracer, windows):
        t0 = time.perf_counter()
        runs, reports = pipeline.run_batch(g, idx, topics, cfg, jobs=1)
        wall = time.perf_counter() - t0
    out = io.StringIO()
    write_trec_run(runs, out)
    props = {"linked_share": statistics.fmean(not r.fallback for r in reports)}
    for label, _kind in cfg.plan:
        props[f"expansion_{label}"] = statistics.fmean(r.expansion_sizes.get(label, 0) for r in reports)
    return runs, wall, out.getvalue(), props


def graph_pass(g, titles: list[str], tracer: Tracer):
    """One request per seed article: link, expand per motif, cycles and stats."""
    new_linker = tracer.layer(EntityLinker, "entity_linker.table_build")
    expand_ = tracer.layer(expand, expand_span, expanded(tracer))
    cycles_ = tracer.layer(enumerate_cycles, "cycle_analysis.enumerate_cycles",
                           lambda a, c: tracer.count("cycle_analysis.cycles_found", len(c)))
    stats_ = tracer.layer(cycle_length_stats, "cycle_analysis.cycle_length_stats")
    results = []
    with patched(tracer):
        t0 = time.perf_counter()
        linker = new_linker(g)
        for i, title in enumerate(titles):
            rid = f"s{i + 1:03d}"
            with tracer.span("request", request=rid):
                nodes = linker.link(InputRequest(rid, title.replace("_", " "))).input_nodes
                qgs = {kind: expand_(g, nodes, kind) for kind in MotifKind}
                cycles = cycles_(g, nodes, 2, CYCLE_MAX_LEN)
                rows = stats_(g, cycles)
            results.append((title, nodes, qgs, cycles, rows))
        wall = time.perf_counter() - t0
    lines = []
    for title, nodes, qgs, _cycles, rows in results:
        lines.append(f"seed\t{title}\t{','.join(g.title(n) for n in nodes)}")
        for kind, qg in qgs.items():
            weights = sorted((g.title(a), w) for a, w in qg.expansion.items())
            lines.append(f"{kind.value}\t" + " ".join(f"{t}:{w}" for t, w in weights))
        for length, count, ratio, density in rows:
            lines.append(f"cycles\t{length},{count},{ratio:.4f},{density:.4f}")
    return results, wall, "\n".join(lines) + "\n"


# -- output checks ----------------------------------------------------------------


def recorded_digest(workload: str, seed: int) -> str | None:
    table = json.loads((BENCH / "digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_both(tri, square, both, what: str) -> None:
    """``expand(BOTH)`` weights must be the TRIANGULAR + SQUARE sum."""
    total = dict(tri.expansion)
    for a, w in square.expansion.items():
        total[a] = total.get(a, 0) + w
    check(total == both.expansion, f"{what}: BOTH is not TRIANGULAR + SQUARE")


def check_topic(g, idx, inp, cfg, req, got) -> None:
    """Re-compose one request from public calls and check it against oracles."""
    want_titles = inp.linked_hubs[req.request_id]
    try:
        inputs = link(g, req, cfg.max_ngram).input_nodes
    except NoEntities as exc:
        check(not want_titles, f"{req.request_id}: linking failed: {exc}")
        inputs = []
    check([g.title(n) for n in inputs] == want_titles, f"{req.request_id}: linked {inputs}")
    tokens = tokenize(req.text)
    plan = cfg.plan if inputs else cfg.plan[:1]
    lists, queries = [], []
    for label, kind in plan:
        qg = expand(g, inputs, kind) if inputs else None
        if kind is MotifKind.BOTH and inputs:
            check_both(expand(g, inputs, MotifKind.TRIANGULAR), expand(g, inputs, MotifKind.SQUARE),
                       qg, req.request_id)
        titles = [g.title(n) for n in inputs]
        query = build_expanded_query(tokens, titles, qg, g if qg else None).root
        if cfg.prf:
            query = prf_expand(idx, query, cfg.fb_docs, cfg.fb_terms, cfg.orig_weight, None, cfg.mu)
        lists.append(search(idx, query, cfg.total, req.request_id, label, cfg.mu))
        queries.append(query)
    if inputs:
        merged = pipeline.merge_lists(lists, cfg.cutoffs, cfg.total)
        want = oracles.merge_oracle([r.doc_ids() for r in lists], cfg.cutoffs, cfg.total)
        check(merged.doc_ids() == want, f"{req.request_id}: merge differs from merge_oracle")
    else:
        merged = lists[0]
    check(merged.entries == got.entries, f"{req.request_id}: re-composed request differs from run")
    single = pipeline.run_request(g, idx, req, cfg)
    check(single.entries == got.entries, f"{req.request_id}: run_request differs from run_batch")
    # top-ranked score of the first plan entry against the index-free scorer
    top_doc, top_score = lists[0].entries[0]
    naive = oracles.naive_score(inp.docs, queries[0], top_doc, cfg.mu)
    check(math.isclose(naive, top_score, rel_tol=SCORE_RTOL), f"{req.request_id}: score {top_score} != {naive}")
    doc_tokens = dict(inp.docs)[top_doc]
    for w in windows_of(queries[0])[:5]:
        check(window_tf(idx, top_doc, w.n, w.tokens) == oracles.window_tf_oracle(doc_tokens, w.n, w.tokens),
              f"{req.request_id}: window_tf {w.tokens} in {top_doc}")


def sample_topics(inp) -> list[str]:
    """A linked topic and a fallback topic, fixed by the generated mix."""
    linked = [q for q, hubs in inp.linked_hubs.items() if len(hubs) == 1]
    fallback = [q for q, hubs in inp.linked_hubs.items() if not hubs]
    return (linked[:1] + fallback[:1])[:SAMPLED_REQUESTS]


def neighbourhood(inp, ext: str):
    """Raw rows around one article: enough for its motifs and its 3-cycles."""
    adjacent = {ext}
    for s, d, _k in inp.edge_rows:
        if s == ext:
            adjacent.add(d)
        elif d == ext:
            adjacent.add(s)
    keep = set(adjacent)
    for s, d, k in inp.edge_rows:  # categories of neighbouring articles
        if k == "AC" and s in adjacent:
            keep.add(d)
    nodes = [r for r in inp.node_rows if r[0] in keep]
    edges = [e for e in inp.edge_rows if e[0] in keep and e[1] in keep]
    return nodes, edges, adjacent


def cycles_through(edges, seed: str, max_len: int) -> set:
    """Cycles through ``seed`` by DFS over raw rows (2-cycles need two edges)."""
    nbrs: dict[str, set] = {}
    multiplicity: dict[frozenset, int] = {}
    for s, d, _k in edges:
        nbrs.setdefault(s, set()).add(d)
        nbrs.setdefault(d, set()).add(s)
        key = frozenset((s, d))
        multiplicity[key] = multiplicity.get(key, 0) + 1
    found = set()

    def walk(path):
        for nb in nbrs.get(path[-1], ()):
            if nb == seed and len(path) >= 2:
                if len(path) > 2 or multiplicity[frozenset(path)] >= 2:
                    found.add(oracles.canonical_cycle(path))
            elif nb not in path and len(path) < max_len:
                walk(path + [nb])

    walk([seed])
    return found


def check_seed(g, inp, result) -> None:
    """Motifs against the tests' oracles and cycles against raw rows, for one seed."""
    title, nodes, qgs, cycles, rows = result
    (node,) = nodes
    ext = g.node(node).ext_id
    sub_nodes, sub_edges, adjacent = neighbourhood(inp, ext)
    for kind, oracle in ((MotifKind.TRIANGULAR, oracles.triangular_oracle),
                         (MotifKind.SQUARE, oracles.square_oracle)):
        got = {g.node(a).ext_id: w for a, w in qgs[kind].expansion.items()}
        check(got == oracle(sub_nodes, sub_edges, [ext]), f"{title}: {kind.value} differs from oracle")
    ring = [e for e in sub_edges if e[0] in adjacent and e[1] in adjacent]
    want = cycles_through(ring, ext, CYCLE_MAX_LEN)
    got = {oracles.canonical_cycle(g.node(n).ext_id for n in c.nodes) for c in cycles}
    check(got == want, f"{title}: cycles differ from the raw-row enumeration")
    check(sum(r[1] for r in rows) == len(cycles), f"{title}: cycle_length_stats counts")


def check_graph_request(result) -> None:
    title, nodes, qgs, _cycles, _rows = result
    check(len(nodes) == 1, f"{title}: linked {nodes}")
    check_both(qgs[MotifKind.TRIANGULAR], qgs[MotifKind.SQUARE], qgs[MotifKind.BOTH], title)


# -- one run ----------------------------------------------------------------------


class Run:
    """State of one benchmark invocation: samples, checks and failures."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.inp = generate.generate(seed)
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.files = self.inp.write(self.work)
        self.qrels = evaluation.Qrels.load(str(self.files["qrels.txt"]))
        self.recorded = recorded_digest(workload, seed)
        self.properties: dict[str, float] = self.inp.properties()
        self.sizes: dict[str, int] = {}
        self.passes: list[dict] = []  # per pass: traced, wall_s, latencies_ms, digest
        self.attempted = 0
        self.failed = 0
        self.bad: set[str] = set()  # failed request ids of the current pass
        self.problems: list[str] = []
        self.sampled = False
        self.layer_tracer: Tracer | None = None
        self.windows: WindowLog | None = None
        self.setup_tracer = Tracer(layers=trace)

    def fail(self, request_ids, why: str) -> None:
        """Count requests of the current pass as failed; each counts once."""
        self.bad.update(request_ids)
        self.problems.append(why)

    def execute(self) -> None:
        """Passes until the next one would end after ``seconds``, at least the minimum."""
        start = time.perf_counter()
        minimum = MIN_TRACE_PASSES if self.trace else MIN_PASSES
        while True:
            elapsed = time.perf_counter() - start
            done = len(self.passes)
            if done >= minimum and elapsed * (done + 1) / done > self.seconds:
                break
            self.one_pass(traced=self.trace and done % 2 == 1)

    def one_pass(self, traced: bool) -> None:
        with_index = self.workload != "graph-study"
        tracer = Tracer(layers=traced, probe=kernel_s)
        setup_tracer = self.setup_tracer if traced else Tracer(layers=False)
        with patched(setup_tracer):
            g, idx, seconds, setup_kernels, self.sizes = set_up(
                self.files, self.work, with_index, setup_tracer)
        sample = not self.sampled and (traced or not self.trace)
        self.bad = set()
        if with_index:
            rids, wall, text = self.topics(g, idx, tracer, traced, sample)
            request_name = "pipeline.run_request"
        else:
            rids, wall, text = self.graph(g, tracer, sample)
            request_name = "request"
        latencies = tracer.per_request(request_name, rids, self_time=False)
        if len(latencies) != len(rids):
            raise SystemExit(f"bench: {len(latencies)} request spans for {len(rids)} requests; "
                             f"the {request_name} boundary moved")
        self.attempted += len(rids)
        digest = sha256(text)
        if self.passes and digest != self.passes[0]["digest"]:
            self.fail(rids, f"pass {len(self.passes)} output differs from pass 0")
        elif self.recorded is not None and digest != self.recorded:
            self.fail(rids, f"output digest {digest[:12]} != recorded {self.recorded[:12]}")
        self.failed += len(self.bad)
        self.passes.append({
            "traced": traced, "requests": len(rids), "digest": digest,
            "raw_setup_s": seconds, "setup_factor": speed_factor(setup_kernels),
            "raw_wall_s": wall - sum(tracer.probe_s), "factor": speed_factor(tracer.probe_s),
            "raw_latencies_ms": latencies, "raw_kernel_ms": [k * 1000 for k in tracer.probe_s],
        })
        if traced:
            self.layer_tracer = tracer

    def topics(self, g, idx, tracer: Tracer, traced: bool, sample: bool):
        topics = pipeline.load_topics(str(self.files["topics.tsv"]))
        windows = WindowLog() if traced else None
        runs, wall, text, props = topics_pass(g, idx, topics, CONFIGS[self.workload], tracer, windows)
        self.properties.update(props)
        if windows is not None:
            self.windows = windows
            self.properties["window_repeat_share"] = windows.repeats / max(windows.total, 1)
        with tracer.span("evaluation.evaluate"):
            report = evaluation.evaluate(runs, self.qrels, (5, 10))
        self.check_eval(runs, report)
        if sample:
            self.sample_topics(g, idx, topics, runs)
        return [t.request_id for t in topics], wall, text

    def graph(self, g, tracer: Tracer, sample: bool):
        results, wall, text = graph_pass(g, self.inp.hub_titles, tracer)
        for kind in MotifKind:
            self.properties[f"expansion_{kind.value}"] = statistics.fmean(
                len(r[2][kind].expansion) for r in results)
        self.properties["cycles_per_seed"] = statistics.fmean(len(r[3]) for r in results)
        rids = [f"s{i + 1:03d}" for i in range(len(results))]
        for rid, r in zip(rids, results):
            try:
                check_graph_request(r)
            except CheckFailed as exc:
                self.fail([rid], str(exc))
        if sample:
            self.sampled = True
            for rid, r in list(zip(rids, results))[:SAMPLED_REQUESTS]:
                try:
                    check_seed(g, self.inp, r)
                except CheckFailed as exc:
                    self.fail([rid], str(exc))
        return rids, wall, text

    def check_eval(self, runs, report) -> None:
        judged = self.qrels.judgments
        for run in runs:
            for k in report.ks:
                want = oracles.precision_recount(run.entries, judged[run.request_id], k)
                if report.per_query[run.request_id][k] != want:
                    self.fail([run.request_id], f"{run.request_id}: P@{k} differs from precision_recount")
                    break

    def sample_topics(self, g, idx, topics, runs) -> None:
        self.sampled = True
        cfg = CONFIGS[self.workload]
        by_id = {r.request_id: r for r in runs}
        reqs = {t.request_id: t for t in topics}
        for qid in sample_topics(self.inp):
            try:
                check_topic(g, idx, self.inp, cfg, reqs[qid], by_id[qid])
            except CheckFailed as exc:
                self.fail([qid], str(exc))

    # -- metrics ------------------------------------------------------------------

    def end_to_end(self, passes: list[dict]) -> dict[str, float]:
        """Times at the reference speed, each pass scaled by its own kernel runs."""
        lat = [ms * p["factor"] for p in passes for ms in p["raw_latencies_ms"]]
        return {
            "setup_s": statistics.median(p["raw_setup_s"] * p["setup_factor"] for p in passes),
            "request_p50_ms": statistics.median(lat),
            "request_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[-1],
            "requests_per_s": sum(p["requests"] for p in passes)
            / sum(p["raw_wall_s"] * p["factor"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "store_mb": (self.sizes["snapshot"] + self.sizes["index"]) / 1e6,
        }

    def per_layer(self) -> dict[str, float]:
        """Layer figures of the last traced pass and of the traced set-ups.

        Times are scaled to the reference speed like the end-to-end ones.
        """
        t, st = self.layer_tracer, self.setup_tracer
        plain = self.end_to_end([p for p in self.passes if not p["traced"]])
        traced_passes = [p for p in self.passes if p["traced"]]
        traced = self.end_to_end(traced_passes)
        f_pass = traced_passes[-1]["factor"]
        f_setup = statistics.median(p["setup_factor"] for p in traced_passes)
        rids = sorted({s.request for s in t.spans if s.request is not None})

        def req_ms(name):
            return median_or_zero(t.per_request(name, rids)) * f_pass

        def once_s(name, tracer=st, self_time=False):
            f = f_setup if tracer is st else f_pass
            return median_or_zero([s.self_s if self_time else s.duration_s for s in tracer.named(name)]) * f

        def mean(values):
            return statistics.fmean(values) if values else 0.0

        n_req = len(rids)
        links = len(t.named("entity_linker.link"))
        m = {
            "search_engine.search.self_ms": req_ms("search_engine.search"),
            "search_engine.search.calls": len(t.named("search_engine.search")) / n_req,
            "search_engine.prf_expand.self_ms": req_ms("search_engine.prf_expand"),
            "search_engine.windows_per_request": (self.windows.total / n_req) if self.windows else 0.0,
            "query_lang.window_repeat_share": self.properties.get("window_repeat_share", 0.0),
            "query_lang.build_expanded_query.self_ms": req_ms("query_lang.build_expanded_query"),
            "search_engine.build_index_s": once_s("search_engine.build_index"),
            "search_engine.index_save_s": once_s("cli.index", self_time=True),
            "search_engine.index_load_s": once_s("search_engine.index_load"),
            "search_engine.index_mb": self.sizes["index"] / 1e6,
            "kb_graph.load_graph_s": once_s("kb_graph.load_graph"),
            "kb_graph.save_snapshot_s": once_s("kb_graph.save_snapshot"),
            "kb_graph.load_snapshot_s": once_s("kb_graph.load_snapshot"),
            "kb_graph.snapshot_mb": self.sizes["snapshot"] / 1e6,
            "cli.ingest_s": once_s("cli.ingest"),
            "cli.index_s": once_s("cli.index"),
        }
        for kind in MotifKind:
            m[f"motif_expander.expand.{kind.value}_ms"] = req_ms(f"motif_expander.expand.{kind.value}")
        for kind in MotifKind:
            m[f"motif_expander.expansion_size.{kind.value}"] = mean(
                t.counts.get(f"motif_expander.expansion_size.{kind.value}", []))
        m.update({
            "entity_linker.table_build_ms": once_s("entity_linker.table_build", t) * 1000,
            "entity_linker.link.self_ms": req_ms("entity_linker.link"),
            "entity_linker.linked_share": len(t.counts.get("entity_linker.linked", [])) / links if links else 0.0,
            "cycle_analysis.enumerate_cycles.self_ms": req_ms("cycle_analysis.enumerate_cycles"),
            "cycle_analysis.cycle_length_stats.self_ms": req_ms("cycle_analysis.cycle_length_stats"),
            "cycle_analysis.cycles_found": mean(t.counts.get("cycle_analysis.cycles_found", [])),
            "pipeline.merge_lists.self_ms": req_ms("pipeline.merge_lists"),
            "pipeline.run_request.self_ms": req_ms("pipeline.run_request"),
            "evaluation.evaluate_ms": once_s("evaluation.evaluate", t) * 1000,
            "trace.request_p50_ms": traced["request_p50_ms"],
            "trace.overhead_p50_ms": traced["request_p50_ms"] - plain["request_p50_ms"],
            "trace.overhead_p50_share": traced["request_p50_ms"] / plain["request_p50_ms"] - 1,
            "trace.overhead_rps_share": 1 - traced["requests_per_s"] / plain["requests_per_s"],
        })
        props = self.inp.properties()
        for key in ("graph_nodes", "graph_edges", "collection_tokens"):
            m[f"input.{key}"] = props[key]
        return m

    def required_spans(self) -> list[str]:
        names = ["cli.ingest", "kb_graph.load_graph", "kb_graph.save_snapshot",
                 "kb_graph.load_snapshot", "entity_linker.table_build", "entity_linker.link"]
        if self.workload == "topics-prf":
            kinds = [kind for _label, kind in CONFIGS[self.workload].plan]
            names += ["search_engine.prf_expand"]
        else:
            kinds = list(MotifKind)
        names += [f"motif_expander.expand.{kind.value}" for kind in kinds]
        if self.workload == "graph-study":
            return names + ["cycle_analysis.enumerate_cycles", "cycle_analysis.cycle_length_stats"]
        return names + ["cli.index", "search_engine.build_index", "search_engine.index_load",
                        "pipeline.run_request", "query_lang.build_expanded_query",
                        "search_engine.search", "pipeline.merge_lists", "evaluation.evaluate"]

    def check_spans(self) -> None:
        seen = {s.name for s in self.layer_tracer.spans} | {s.name for s in self.setup_tracer.spans}
        missing = [n for n in self.required_spans() if n not in seen]
        if missing:
            raise SystemExit(f"bench: traced boundaries recorded no spans: {', '.join(missing)}")


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if run.trace:
        run.check_spans()
        units = {"_ms": "ms", "_s": "s", "_mb": "MB", "share": "ratio"}
        metrics = {
            name: {"value": value, "unit": next((u for sfx, u in units.items() if name.endswith(sfx)), "count")}
            for name, value in run.per_layer().items()
        }
    else:
        e2e = run.end_to_end(run.passes)
        units = {"setup_s": "s", "request_p50_ms": "ms", "request_p90_ms": "ms",
                 "requests_per_s": "1/s", "peak_rss_mb": "MB", "store_mb": "MB"}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in e2e.items()}

    lat_n = sum(p["requests"] for p in run.passes)
    factors = " ".join(f"{p['factor']:.3f}" for p in run.passes)
    print(f"workload {run.workload}  seed {run.seed}  trace {int(run.trace)}  passes {len(run.passes)}  "
          f"requests {lat_n}  speed factors {factors}")
    print("inputs " + "  ".join(f"{k} {v:.6g}" for k, v in run.properties.items()))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':44s} {run.failed / run.attempted:.6g} ratio ({run.failed}/{run.attempted})")
    if run.recorded is None:
        print(f"note: no recorded digest for {run.workload} seed {run.seed}; checked pass-to-pass only")
    for problem in run.problems[:10]:
        print(f"check failed: {problem}")

    record = {
        "workload": run.workload, "seed": run.seed, "trace": run.trace, "seconds": run.seconds,
        "python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(),
        "git_commit": git_commit(), "jobs": 1, "fresh_load_per_pass": True,
        "inputs": run.properties, "passes": run.passes, "problems": run.problems,
        "metrics": metrics,
    }
    if run.trace:
        record["spans"] = {"setup": run.setup_tracer.rows(), "last_traced_pass": run.layer_tracer.rows()}
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{run.workload}_seed{run.seed}_trace{int(run.trace)}_{time.time_ns()}.json"
    (records / name).write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
