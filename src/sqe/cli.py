"""Command-line interface: one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage error, 2 data error.  Diagnostics go to
stderr; primary output goes to stdout or the file given with --out.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import evaluation, pipeline
from .cycle_analysis import MAX_CYCLE_LEN, MIN_CYCLE_LEN, cycle_length_stats, enumerate_cycles
from .entity_linker import InputRequest
from .errors import FormatError, NoEntities, ParseError, SqeError
from .kb_graph import KBGraph, load_graph, load_snapshot, save_snapshot
from .motif_expander import MotifKind, expand
from .query_lang import build_expanded_query, parse, render
from .search_engine import (
    Leaves,
    RankedList,
    build_index,
    is_run_id,
    read_documents,
    read_trec_run,
    save_index,
    write_trec_run,
)
from .search_engine import load_index as _load_index
from .text import lines, tokenize

_DEFAULTS = pipeline.PipelineConfig()  # flags that set a config field default to it


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@contextlib.contextmanager
def _output(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _load_kb(args) -> KBGraph:
    if args.kb:
        return load_snapshot(args.kb)
    if args.nodes and args.edges:
        return load_graph(args.nodes, args.edges)
    raise SystemExit(_usage_error("a knowledge base is required: --kb or --nodes/--edges"))


def _usage_error(message: str) -> int:
    print(f"sqe: error: {message}", file=sys.stderr)
    return 1


def _checked(rule: pipeline.Rule):
    """An argparse type that converts a flag's value and checks it by ``rule``."""
    def convert(text: str):
        with contextlib.suppress(ValueError):
            value = rule.convert(text)
            if rule.holds(value):
                return value
        raise argparse.ArgumentTypeError(f"must be {rule.wording}, got {text!r}")
    return convert


_positive_int = _checked(pipeline.POSITIVE_INT)


def _positive_ints(text: str) -> tuple[int, ...]:  # comma-separated; an error names the bad part
    return tuple(_positive_int(part) for part in text.split(","))


def _kb_flags(sub, linker: bool = False):
    sub.add_argument("--kb", help="graph snapshot written by ingest --out")
    sub.add_argument("--nodes", help="nodes TSV (with --edges)")
    sub.add_argument("--edges", help="edges TSV (with --nodes)")
    if linker:
        sub.add_argument("--stop-titles")
        sub.add_argument("--max-ngram", type=_positive_int, default=_DEFAULTS.max_ngram)


def _link_text(g, args) -> list[int]:  # raises NoEntities, naming the text, when nothing links
    linker = pipeline.make_linker(g, args.max_ngram, args.stop_titles)
    return linker.link(InputRequest("cli", args.text)).input_nodes


def _resolve_entities(g, args) -> list[int]:
    nodes = []
    if args.entities:
        for title in args.entities:
            node = g.article_by_title(title)
            if node is None:
                raise SqeError(f"no article titled {title!r}")
            nodes.append(node)
    elif args.text:
        nodes = _link_text(g, args)
    else:
        raise SystemExit(_usage_error("provide --entities or --text"))
    return nodes


def cmd_ingest(args) -> int:
    g = _load_kb(args)
    if args.out:
        save_snapshot(g, args.out)
        print(f"snapshot written to {args.out}", file=sys.stderr)
    report = g.validate()
    print(report.summary())
    warnings = report.warnings  # built on each read
    for warning in warnings[:20]:
        print(f"warning: {warning}", file=sys.stderr)
    if len(warnings) > 20:
        print(f"warning: ... {len(warnings) - 20} more", file=sys.stderr)
    return 0


def cmd_index(args) -> int:
    idx = build_index(read_documents(args.docs))
    save_index(idx, args.out)
    print(f"indexed {idx.n_docs} documents, {idx.collection_length} tokens", file=sys.stderr)
    return 0


def cmd_link(args) -> int:
    g = _load_kb(args)
    nodes = _link_text(g, args)
    with _output(args.out) as out:
        for node in nodes:
            out.write(f"{g.title(node)}\t{node}\n")
    return 0


def cmd_expand(args) -> int:
    g = _load_kb(args)
    nodes = _resolve_entities(g, args)
    qg = expand(g, nodes, MotifKind(args.motif))
    rows = sorted(
        ((g.title(a), w) for a, w in qg.expansion.items()),
        key=lambda e: (-e[1], e[0]),
    )
    with _output(args.out) as out:
        for title, weight in rows:
            out.write(f"{title}\t{weight}\n")
    return 0


def cmd_analyze_cycles(args) -> int:
    if args.min_len > args.max_len:
        return _usage_error(f"--min-len {args.min_len} is greater than --max-len {args.max_len}")
    g = _load_kb(args)
    seeds = []
    for title in args.seeds:
        node = g.article_by_title(title)
        if node is None:
            node = g.category_by_title(title)
        if node is None:
            raise SqeError(f"no node titled {title!r}")
        seeds.append(node)
    cycles = enumerate_cycles(g, seeds, args.min_len, args.max_len)
    with _output(args.out) as out:
        out.write("length,count,mean_category_ratio,mean_extra_edge_density\n")
        for length, count, ratio, density in cycle_length_stats(g, cycles):
            out.write(f"{length},{count},{ratio:.4f},{density:.4f}\n")
    return 0


def cmd_build_query(args) -> int:
    g = _load_kb(args)
    try:
        nodes = _resolve_entities(g, args)
    except NoEntities:  # the input-only query, which `run` searches for such a topic
        nodes = []
    qg = expand(g, nodes, MotifKind(args.motif)) if args.motif and nodes else None
    titles = [g.title(n) for n in nodes]
    eq = build_expanded_query(tokenize(args.text or " ".join(titles)), titles, qg, g)
    with _output(args.out) as out:
        out.write(render(eq.root) + "\n")
    return 0


def cmd_search(args) -> int:
    idx = _load_index(args.index)
    if args.query:
        queries = {"1": parse(args.query)}
    elif args.queries:
        queries = {}
        for lineno, line in lines(args.queries):
            qid, tab, text = line.partition("\t")
            if not tab:  # no qid prefix
                qid, text = str(lineno), line.strip()
            qid = qid.strip()
            if not is_run_id(qid):
                raise FormatError(args.queries, lineno, f"request id {qid!r} is empty or holds whitespace")
            if not text.strip():
                raise FormatError(args.queries, lineno, "empty request text")
            if qid in queries:
                raise FormatError(args.queries, lineno, f"duplicate request id {qid!r}")
            try:
                queries[qid] = parse(text)
            except ParseError as exc:
                raise FormatError(args.queries, lineno, f"request {qid!r}: {exc}") from None
    else:
        return _usage_error("provide --query or --queries")
    cfg = dataclasses.replace(_DEFAULTS, mu=args.mu, prf=args.prf)
    matches = {}  # one window match memo for every query, as in a pipeline batch
    runs = [pipeline.rank(idx, tree, args.k, qid, cfg, None, Leaves(matches))
            for qid, tree in queries.items()]
    with _output(args.out) as out:
        write_trec_run(runs, out)
    return 0


def cmd_run(args) -> int:
    if args.out and args.report and Path(args.out).resolve() == Path(args.report).resolve():
        return _usage_error(f"--report {args.report} names the --out file")
    try:
        cfg = pipeline.PipelineConfig.from_file(args.config) if args.config else _DEFAULTS
    except UnicodeEncodeError:  # the path, not a value: a data error, as in main
        raise
    except ValueError as exc:  # a bad value, plan motif or cutoff in the config
        return _usage_error(f"{args.config}: {exc}")
    cfg = dataclasses.replace(cfg, prf=cfg.prf or args.prf)
    g = _load_kb(args)
    idx = _load_index(args.index)
    topics = pipeline.load_topics(args.topics)
    runs, reports = pipeline.run_batch(g, idx, topics, cfg)
    with _output(args.out) as out:
        write_trec_run(runs, out)
    report_path = args.report or (args.out + ".report.tsv" if args.out else None)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            pipeline.write_report(reports, cfg, fh)
    else:
        pipeline.write_report(reports, cfg, sys.stderr)
    return 0


def cmd_merge(args) -> int:
    if len(args.cutoffs) != len(args.run) - 1:
        return _usage_error(f"{len(args.run)} --run files need {len(args.run) - 1} --cutoffs, "
                            f"got {len(args.cutoffs)}")
    run_files = [read_trec_run(p) for p in args.run]
    by_qid = [{r.request_id: r for r in runs} for runs in run_files]
    qids = dict.fromkeys(qid for m in by_qid for qid in m)  # in order of first appearance
    tag = run_files[0][0].tag if run_files[0] else "sqe"  # for a stand-in list
    merged = []
    for qid in qids:  # a run that lacks a request gives it an empty list
        lists = [m[qid] if qid in m else RankedList(qid, [], tag) for m in by_qid]
        merged.append(pipeline.merge_lists(lists, args.cutoffs, args.total))
    with _output(args.out) as out:
        write_trec_run(merged, out)
    return 0


def cmd_eval(args) -> int:
    qrels = evaluation.Qrels.load(args.qrels)
    # every run is read and scored before anything is written, so a bad one leaves no partial table
    reports = [(path, evaluation.evaluate(read_trec_run(path), qrels, args.k)) for path in args.run]
    with _output(args.out) as out:
        out.write("\t".join(["run"] + [f"P@{k}" for k in args.k]) + "\n")
        for path, report in reports:
            out.write(
                "\t".join([Path(path).name] + [f"{report.means[k]:.4f}" for k in args.k]) + "\n"
            )
            for qid in report.skipped:
                print(f"note: {path}: request {qid} has no judgments", file=sys.stderr)
    return 0


def cmd_ttest(args) -> int:
    if len(args.run) != 2:
        return _usage_error("ttest needs exactly two --run files (before, after)")
    qrels = evaluation.Qrels.load(args.qrels)
    k = args.k
    before_runs = evaluation.evaluate(read_trec_run(args.run[0]), qrels, (k,))
    after_runs = evaluation.evaluate(read_trec_run(args.run[1]), qrels, (k,))
    qids = qrels.request_ids()
    before = [before_runs.per_query[q][k] for q in qids]
    after = [after_runs.per_query[q][k] for q in qids]
    t, p, significant = evaluation.paired_t_test(before, after, alpha=args.alpha)
    with _output(args.out) as out:
        out.write(f"t\t{t:.6f}\np\t{p:.6f}\nsignificant\t{'yes' if significant else 'no'}\n")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sqe", description="Structural query expansion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a KB from TSV and validate it")
    _kb_flags(p)
    p.add_argument("--out", help="write a binary snapshot")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("index", help="build a positional index from JSON-lines documents")
    p.add_argument("--docs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("link", help="match request text to article titles")
    _kb_flags(p, linker=True)
    p.add_argument("--text", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("expand", help="motif expansion for given entities or text")
    _kb_flags(p, linker=True)
    p.add_argument("--motif", choices=[k.value for k in MotifKind], default="both")
    p.add_argument("--entities", nargs="+", help="explicit article titles")
    p.add_argument("--text", help="link entities from request text instead")
    p.add_argument("--out")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("analyze-cycles", help="cycle statistics around seed nodes")
    _kb_flags(p)
    p.add_argument("--seeds", nargs="+", required=True, help="seed node titles")
    lengths = range(MIN_CYCLE_LEN, MAX_CYCLE_LEN + 1)
    p.add_argument("--min-len", dest="min_len", type=int, choices=lengths, default=MIN_CYCLE_LEN)
    p.add_argument("--max-len", dest="max_len", type=int, choices=lengths, default=MAX_CYCLE_LEN)
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze_cycles)

    p = sub.add_parser("build-query", help="render the expanded query for a request")
    _kb_flags(p, linker=True)
    p.add_argument("--text")
    p.add_argument("--entities", nargs="+")
    p.add_argument("--motif", choices=[k.value for k in MotifKind])
    p.add_argument("--out")
    p.set_defaults(func=cmd_build_query)

    p = sub.add_parser("search", help="run structured queries against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--query", help="a single rendered query")
    p.add_argument("--queries", help="file with one query per line, optional <qid>TAB prefix")
    p.add_argument("--k", type=_positive_int, default=_DEFAULTS.total)  # a run's depth
    p.add_argument("--mu", type=_checked(pipeline.MU), default=_DEFAULTS.mu)
    p.add_argument("--prf", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("run", help="full pipeline over a topics file")
    _kb_flags(p)
    p.add_argument("--index", required=True)
    p.add_argument("--topics", required=True)
    p.add_argument("--config")
    p.add_argument("--prf", action="store_true")
    p.add_argument("--out")
    p.add_argument("--report")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("merge", help="range-stitch several run files")
    p.add_argument("--run", action="append", required=True)
    p.add_argument("--cutoffs", type=_positive_ints, default=_DEFAULTS.cutoffs)
    p.add_argument("--total", type=_positive_int, default=_DEFAULTS.total)
    p.add_argument("--out")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("eval", help="precision at k for run files")
    p.add_argument("--run", action="append", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=_positive_ints, default=evaluation.DEFAULT_KS,
                   help="comma-separated cutoffs (default 5,10,...,1000)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ttest", help="paired t-test between two runs at one cutoff")
    p.add_argument("--run", action="append", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=_positive_int, default=5)
    p.add_argument("--alpha", type=_checked(pipeline.OPEN_UNIT), default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ttest)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(divide="ignore"):  # log(0) is a -inf score (see search_engine), not a warning
            return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (SqeError, OSError) as exc:
        print(f"sqe: error: {exc}", file=sys.stderr)
        return 2
    except UnicodeEncodeError as exc:  # a path the file system cannot encode
        print(f"sqe: error: {exc.object!r}: not encodable as a file name ({exc.reason})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
