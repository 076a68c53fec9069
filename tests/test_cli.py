import argparse
import io
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sqe import search_engine
from sqe.cli import main, make_parser
from sqe.errors import FormatError
from sqe.evaluation import Qrels
from sqe.kb_graph import EdgeKind, ValidationReport, load_graph, load_snapshot
from sqe.pipeline import PipelineConfig, load_topics
from sqe.query_lang import parse
from sqe.search_engine import (
    MAX_MU,
    UNSEEN_CF,
    Document,
    build_index,
    load_index,
    prf_expand,
    read_documents,
    read_trec_run,
    search,
    write_trec_run,
)

from conftest import CABLE_EDGES, CABLE_NODES, GRAFFITI_EDGES, GRAFFITI_NODES, write_tsv
from test_pipeline import GRAFFITI_DOCS


@pytest.fixture()
def cable_files(tmp_path):
    return (
        write_tsv(tmp_path / "nodes.tsv", CABLE_NODES),
        write_tsv(tmp_path / "edges.tsv", CABLE_EDGES),
    )


@pytest.fixture()
def graffiti_kb(tmp_path):
    nodes = write_tsv(tmp_path / "gn.tsv", GRAFFITI_NODES)
    edges = write_tsv(tmp_path / "ge.tsv", GRAFFITI_EDGES)
    snap = tmp_path / "kb.bin"
    assert main(["ingest", "--nodes", nodes, "--edges", edges, "--out", str(snap)]) == 0
    return str(snap)


@pytest.fixture()
def graffiti_index_file(tmp_path):
    docs = tmp_path / "docs.jsonl"
    docs.write_text(
        "".join(json.dumps({"id": d, "text": t}) + "\n" for d, t in GRAFFITI_DOCS)
    )
    out = tmp_path / "index.bin"
    assert main(["index", "--docs", str(docs), "--out", str(out)]) == 0
    return str(out)


def test_ingest_summary_and_snapshot(cable_files, tmp_path, capsys):
    nodes, edges = cable_files
    snap = tmp_path / "kb.bin"
    code = main(["ingest", "--nodes", nodes, "--edges", edges, "--out", str(snap)])
    assert code == 0
    out = capsys.readouterr().out
    assert "articles\t3" in out and "edges_AA\t3" in out
    g = load_snapshot(str(snap))
    assert g.edge_count(EdgeKind.AA) == 3


def test_ingest_prints_at_most_20_warnings(tmp_path, monkeypatch, capsys):
    reads = []  # each read of report.warnings formats every warning
    built = ValidationReport.warnings.fget
    monkeypatch.setattr(ValidationReport, "warnings", property(lambda r: reads.append(r) or built(r)))
    nodes = write_tsv(tmp_path / "nodes.tsv", [(f"a{i}", "A", f"Title {i}") for i in range(25)])
    assert main(["ingest", "--nodes", nodes, "--edges", write_tsv(tmp_path / "edges.tsv", [])]) == 0
    out, err = capsys.readouterr()
    warnings = err.splitlines()
    assert warnings == [f"warning: article {i} has no category" for i in range(20)] + ["warning: ... 5 more"]
    assert "warnings\t25" in out and len(reads) == 1


def test_expand_cable_fixture(cable_files, capsys):
    nodes, edges = cable_files
    code = main(
        ["expand", "--nodes", nodes, "--edges", edges, "--motif", "triangular",
         "--entities", "Cable_car"]
    )
    assert code == 0
    assert capsys.readouterr().out == "Funicular\t1\n"


def test_expand_matches_library_output(graffiti_kb, capsys):
    from sqe.kb_graph import load_snapshot
    from sqe.motif_expander import MotifKind, expand

    assert main(["expand", "--kb", graffiti_kb, "--motif", "both",
                 "--text", "graffiti street art on walls"]) == 0
    cli_out = capsys.readouterr().out
    g = load_snapshot(graffiti_kb)
    inputs = [g.article_by_title("Graffiti"), g.article_by_title("Street_art")]
    qg = expand(g, inputs, MotifKind.BOTH)
    rows = sorted(((g.title(a), w) for a, w in qg.expansion.items()), key=lambda e: (-e[1], e[0]))
    lib_out = "".join(f"{t}\t{w}\n" for t, w in rows)
    assert cli_out == lib_out


def test_link_output_and_no_entities_exit(cable_files, capsys):
    nodes, edges = cable_files
    assert main(["link", "--nodes", nodes, "--edges", edges, "--text", "cable car"]) == 0
    out = capsys.readouterr().out
    assert out == "Cable_car\t0\n"
    code = main(["link", "--nodes", nodes, "--edges", edges, "--text", "male color portrait"])
    assert code == 2


def test_build_query(graffiti_kb, capsys):
    code = main(
        ["build-query", "--kb", graffiti_kb, "--text", "graffiti street art on walls",
         "--motif", "both"]
    )
    assert code == 0
    line = capsys.readouterr().out.rstrip("\n")
    assert line.startswith("#combine( #combine( graffiti street art on walls )")
    assert "#weight( 5.0 #1(stencil)" in line


@pytest.mark.parametrize("motif", [[], ["--motif", "both"]], ids=["no-motif", "both"])
def test_build_query_for_a_text_that_links_nothing_is_the_input_only_query(
    motif, tmp_path, graffiti_kb, graffiti_index_file, capsys
):
    assert main(["build-query", "--kb", graffiti_kb, "--text", "viki", *motif]) == 0
    query = capsys.readouterr().out
    assert query == "#combine( #combine( viki ) )\n"
    # and it is the query `run` searches for such a topic
    topics = tmp_path / "topics.tsv"
    topics.write_text("v1\tviki\n")
    assert main(["run", "--kb", graffiti_kb, "--index", graffiti_index_file, "--topics",
                 str(topics), "--out", str(tmp_path / "run.trec")]) == 0
    queries = tmp_path / "queries.tsv"
    queries.write_text(f"v1\t{query}")
    assert main(["search", "--index", graffiti_index_file, "--queries", str(queries),
                 "--out", str(tmp_path / "search.trec")]) == 0
    run = (tmp_path / "run.trec").read_text()
    assert run and run == (tmp_path / "search.trec").read_text()


@pytest.mark.parametrize("command, fault", [
    (["link", "--text", "viki"], "no article title matches 'viki'"),
    (["expand", "--text", "viki"], "no article title matches 'viki'"),
    (["expand", "--motif", "square", "--text", "viki"], "no article title matches 'viki'"),
    (["expand", "--entities", "Graffiti", "Viki"], "no article titled 'Viki'"),
], ids=["link", "expand", "expand-square", "expand-entities"])
def test_text_that_links_nothing_exits_2_naming_the_text(command, fault, graffiti_kb, capsys):
    """Or an ``--entities`` title that names no article."""
    assert main([*command, "--kb", graffiti_kb]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sqe: error: {fault}\n"


@pytest.mark.parametrize("motif", [[], ["--motif", "both"]], ids=["no-motif", "both"])
def test_build_query_for_a_text_without_tokens_exits_2(motif, graffiti_kb, capsys):
    assert main(["build-query", "--kb", graffiti_kb, "--text", "!!!", *motif]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sqe: error: input tokens are empty") and err.count("\n") == 1


def test_analyze_cycles_csv(cable_files, capsys):
    nodes, edges = cable_files
    code = main(["analyze-cycles", "--nodes", nodes, "--edges", edges, "--seeds", "Cable_car"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "length,count,mean_category_ratio,mean_extra_edge_density"
    assert lines[1].startswith("2,1,0.0000")


def test_search_and_trec_output(graffiti_index_file, capsys):
    code = main(
        ["search", "--index", graffiti_index_file, "--query", "#combine( banksy stencil )",
         "--k", "3"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    qid, q0, _doc, rank, score, tag = lines[0].split()
    assert (qid, q0, rank, tag) == ("1", "Q0", "1", "sqe")
    assert len(score.split(".")[1]) == 6


def test_run_merge_eval_ttest_round(tmp_path, graffiti_kb, graffiti_index_file, capsys):
    topics = tmp_path / "topics.tsv"
    topics.write_text("73\tgraffiti street art on walls\nb1\tbanksy\n")
    cfg = tmp_path / "sqe.conf"
    cfg.write_text("cutoffs = 2,2\ntotal = 10\n")
    run_path = tmp_path / "out.trec"
    code = main(
        ["run", "--kb", graffiti_kb, "--index", graffiti_index_file,
         "--topics", str(topics), "--config", str(cfg), "--out", str(run_path)]
    )
    assert code == 0
    report_path = str(run_path) + ".report.tsv"
    report_lines = Path(report_path).read_text().splitlines()
    assert report_lines[0].startswith("qid\tentities\tfallback")
    assert len(report_lines) == 3

    run_lines = run_path.read_text().splitlines()
    assert all(len(l.split()) == 6 for l in run_lines)

    qrels = tmp_path / "qrels.txt"
    qrels.write_text(
        "73 0 doc09 1\n73 0 doc03 1\n73 0 doc01 1\nb1 0 doc01 1\nb1 0 doc09 1\n"
    )
    assert main(["eval", "--run", str(run_path), "--qrels", str(qrels), "--k", "5,10"]) == 0
    out = capsys.readouterr().out
    header, row = out.splitlines()
    assert header == "run\tP@5\tP@10"
    assert row.startswith("out.trec\t")

    assert main(
        ["merge", "--run", str(run_path), "--run", str(run_path), "--run", str(run_path),
         "--cutoffs", "2,2", "--total", "10", "--out", str(tmp_path / "merged.trec")]
    ) == 0
    merged_lines = (tmp_path / "merged.trec").read_text().splitlines()
    assert merged_lines  # identical inputs merge to the first run

    assert main(
        ["ttest", "--run", str(run_path), "--run", str(run_path), "--qrels", str(qrels),
         "--k", "5"]
    ) == 0
    tout = capsys.readouterr().out
    assert "t\t0.000000" in tout and "significant\tno" in tout


def test_eval_default_cutoff_columns(tmp_path, capsys):
    run = tmp_path / "r.trec"
    run.write_text("q1 Q0 docA 1 1.000000 x\n")
    qrels = tmp_path / "q.txt"
    qrels.write_text("q1 0 docA 1\n")
    assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "run\tP@5\tP@10\tP@15\tP@20\tP@30\tP@100\tP@200\tP@500\tP@1000"


def test_search_matches_library_output(graffiti_index_file, tmp_path, capsys):
    from sqe.cli import _load_index

    query = "#combine( banksy #1(street art) )"
    assert main(["search", "--index", graffiti_index_file, "--query", query, "--k", "5"]) == 0
    cli_out = capsys.readouterr().out
    idx = _load_index(graffiti_index_file)
    buf = io.StringIO()
    write_trec_run([search(idx, parse(query), 5, "1", tag="sqe")], buf)
    assert cli_out == buf.getvalue()


def test_search_builds_each_leaf_and_window_once(graffiti_index_file, tmp_path, monkeypatch,
                                                  capsys):
    """PRF's feedback ranking and the search share a query's leaf scores, and the queries
    of a file share window matches; the run is the one that fresh memos give."""
    queries = {"1": "#combine( graffiti #1(street art) banksy )",
               "2": "#combine( #1(street art) stencil )"}
    path = tmp_path / "queries.tsv"
    path.write_text("".join(f"{qid}\t{text}\n" for qid, text in queries.items()))
    idx = load_index(graffiti_index_file)
    fresh = {}
    for extra, texts in (([], queries), (["--prf"], {"1": queries["1"]})):
        expected = io.StringIO()
        trees = {qid: parse(text) for qid, text in texts.items()}
        if extra:
            trees = {qid: prf_expand(idx, tree) for qid, tree in trees.items()}
        write_trec_run([search(idx, tree, 1000, qid) for qid, tree in trees.items()], expected)
        fresh[tuple(extra)] = expected.getvalue()

    calls = {"leaves": 0, "windows": 0}
    leaf_block, window_matches = search_engine._leaf_block, search_engine._window_matches

    def count_leaves(idx, keys, *args):
        block = leaf_block(idx, keys, *args)
        calls["leaves"] += block.shape[0]  # one row per leaf built
        return block

    def count_windows(idx, windows):
        calls["windows"] += sum(len(tokens) > 1 for _n, tokens in windows)
        return window_matches(idx, windows)

    monkeypatch.setattr(search_engine, "_leaf_block", count_leaves)
    monkeypatch.setattr(search_engine, "_window_matches", count_windows)
    assert main(["search", "--index", graffiti_index_file, "--queries", str(path)]) == 0
    assert capsys.readouterr().out == fresh[()]
    assert calls == {"leaves": 3 + 2, "windows": 1}  # "#1(street art)" is matched once
    calls.update(leaves=0, windows=0)
    assert main(["search", "--index", graffiti_index_file, "--query", queries["1"], "--prf"]) == 0
    assert capsys.readouterr().out == fresh[("--prf",)]
    assert calls == {"leaves": 3 + 10, "windows": 1}  # the query's 3 leaves and 10 feedback terms


def test_search_query_whose_weights_sum_past_the_float_range_exits_2(graffiti_index_file, capsys):
    big = "1" + "0" * 308  # each weight is finite, their sum is not
    query = f"#combine( banksy #weight( {big} banksy {big} stencil ) )"
    assert main(["search", "--index", graffiti_index_file, "--query", query]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "sqe: error: at position 17: expected weights with a finite sum\n"


@pytest.mark.parametrize("line, fault", [
    ("q1\t", "empty request text"),
    ("q1\t#combine( banksy", "request 'q1': at position 16: expected a query node"),
], ids=["empty-text", "no-parse"])
def test_search_queries_line_fault_names_file_line_and_request(line, fault, graffiti_index_file,
                                                                tmp_path, capsys):
    queries, out = tmp_path / "queries.txt", tmp_path / "run.trec"
    queries.write_text(f"1\tbanksy\n{line}\n")
    assert main(["search", "--index", graffiti_index_file, "--queries", str(queries),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"sqe: error: line 2: {queries}: {fault}\n"
    assert not out.exists()


def test_link_stop_titles_file(cable_files, tmp_path, capsys):
    nodes, edges = cable_files
    stop = tmp_path / "stop.txt"
    stop.write_text("cable car\n")
    code = main(
        ["link", "--nodes", nodes, "--edges", edges, "--text", "cable car funicular",
         "--stop-titles", str(stop)]
    )
    assert code == 0
    assert capsys.readouterr().out == "Funicular\t1\n"


def test_usage_errors_exit_1(capsys):
    assert main(["expand", "--bogus-flag"]) == 1
    assert main(["nonsense-command"]) == 1
    capsys.readouterr()


def test_data_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.tsv")
    assert main(["ingest", "--nodes", missing, "--edges", missing]) == 2
    bad_nodes = write_tsv(tmp_path / "n.tsv", [("1", "Q", "Bad")])
    edges = write_tsv(tmp_path / "e.tsv", [])
    assert main(["ingest", "--nodes", bad_nodes, "--edges", edges]) == 2
    capsys.readouterr()

    def exits_2(*argv) -> str:  # the one error line
        code = main([str(arg) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("sqe: error:") and err.count("\n") == 1, err
        return err

    qrels = tmp_path / "q.txt"
    qrels.write_text("1 0 d1 1\n")
    run = tmp_path / "bad.trec"
    for rows, fault in [("1 Q0 d1 1 1.0 x\n1 Q0 d1 2 0.5 x\n", "doc ids must be unique"),
                        ("1 Q0 d1 1 0.5 x\n1 Q0 d2 2 1.0 x\n", "scores must be non-increasing")]:
        run.write_text("2 Q0 d1 1 1.0 x\n" + rows)
        for argv in (["merge", "--run", run, "--run", run, "--cutoffs", "5"],
                     ["eval", "--run", run, "--qrels", qrels],
                     ["ttest", "--run", run, "--run", run, "--qrels", qrels]):
            err = exits_2(*argv)
            assert "line 2:" in err and "request '1'" in err and fault in err

    not_utf8 = tmp_path / "not-utf8.txt"
    not_utf8.write_bytes(b"\xff\xfe1\tA\tAlpha\n")
    exits_2("ingest", "--nodes", not_utf8, "--edges", edges)
    exits_2("index", "--docs", not_utf8, "--out", tmp_path / "index.bin")
    exits_2("eval", "--run", run, "--qrels", not_utf8)
    exits_2("merge", "--run", not_utf8, "--run", run, "--cutoffs", "5")

    # a fault of the whole file names the file, with no line
    junk = tmp_path / "junk.bin"
    junk.write_text("not an index\n")
    assert exits_2("search", "--index", junk, "--query", "x").startswith(f"sqe: error: {junk}: ")
    cfg = tmp_path / "bad.cfg"
    for text in ("plan = eq1\n", "nonsense = 1\n"):
        cfg.write_text(text)
        err = exits_2("run", "--kb", junk, "--index", junk, "--topics", qrels, "--config", cfg)
        assert err.startswith(f"sqe: error: {cfg}: ")
    cfg.write_text("mu = 3\nprf = on\nmu = 4\n")  # a key given twice, at its second line
    err = exits_2("run", "--kb", junk, "--index", junk, "--topics", qrels, "--config", cfg)
    assert err == f"sqe: error: line 3: {cfg}: duplicate config key 'mu'\n"

    # a path the file system cannot encode
    for argv in (["analyze-cycles", "--kb", "\ud800", "--seeds", "x"],
                 ["search", "--index", "\ud800", "--query", "x"],
                 ["ingest", "--nodes", "\ud800", "--edges", edges],
                 ["eval", "--run", "\ud800", "--qrels", qrels],
                 ["run", "--kb", junk, "--index", junk, "--topics", qrels, "--config", "\ud800"],
                 ["run", "--kb", junk, "--index", junk, "--topics", qrels, "--out", "\ud800",
                  "--report", tmp_path / "report.tsv"]):
        assert "'\\ud800'" in exits_2(*argv)


def test_undecodable_byte_past_first_read_chunk_names_its_line(tmp_path, capsys):
    nodes = tmp_path / "n.tsv"
    rows = b"".join(f"a{i}\tA\tTitle {i}\n".encode() for i in range(1, 2000))
    assert len(rows) > 16384  # the reader decodes in chunks of a few KiB
    nodes.write_bytes(rows + b"a2000\tA\tTitle \xff\n")
    edges = write_tsv(tmp_path / "e.tsv", [])
    assert main(["ingest", "--nodes", str(nodes), "--edges", edges]) == 2
    err = capsys.readouterr().err
    assert err == f"sqe: error: line 2000: {nodes}: not UTF-8 (invalid start byte, byte 0xff)\n"


def test_run_with_a_nan_score_exits_2(tmp_path, capsys):
    qrels = tmp_path / "q.txt"
    qrels.write_text("1 0 d1 1\n")
    run = tmp_path / "nan.trec"
    run.write_text("2 Q0 d1 1 1.0 x\n1 Q0 d1 1 1.0 x\n1 Q0 d2 2 nan x\n1 Q0 d3 3 0.5 x\n")
    for argv in (["merge", "--run", run, "--run", run, "--cutoffs", "5"],
                 ["eval", "--run", run, "--qrels", qrels]):
        assert main([str(arg) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sqe: error: line 2:") and err.count("\n") == 1, err
        assert "request '1'" in err and "scores must be non-increasing" in err


def test_merge_keeps_requests_the_first_run_lacks(tmp_path, capsys):
    r1 = tmp_path / "r1.trec"
    r1.write_text("q1 Q0 a 1 2.0 first\n")
    r2 = tmp_path / "r2.trec"
    r2.write_text("q3 Q0 f 1 1.0 second\nq1 Q0 b 1 1.0 second\n"
                  "q2 Q0 d 1 2.0 second\nq2 Q0 e 2 1.0 second\n")
    argv = ["merge", "--run", str(r1), "--run", str(r2), "--cutoffs", "1", "--total", "5"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "q1 Q0 a 1 5.000000 first",
        "q1 Q0 b 2 4.000000 first",
        "q3 Q0 f 1 5.000000 first",
        "q2 Q0 d 1 5.000000 first",
        "q2 Q0 e 2 4.000000 first",
    ]


def test_byte_order_mark_is_not_part_of_the_text(tmp_path):
    files = {
        "topics.tsv": "q1\tgraffiti street art\n",
        "qrels.txt": "q1 0 d1 1\n",
        "run.trec": "q1 Q0 d1 1 1.0 x\n",
        "sqe.conf": "plan = eq2:both\ncutoffs =\n",
        "docs.jsonl": '{"id": "d1", "text": "street art"}\n',
        "nodes.tsv": "a1\tA\tGraffiti\na2\tA\tStreet_art\n",
        "edges.tsv": "a1\ta2\tAA\n",
    }

    def read_all(folder: Path) -> list:
        g = load_graph(str(folder / "nodes.tsv"), str(folder / "edges.tsv"))
        return [
            load_topics(str(folder / "topics.tsv")),
            Qrels.load(str(folder / "qrels.txt")).judgments,
            read_trec_run(str(folder / "run.trec")),
            PipelineConfig.from_file(str(folder / "sqe.conf")),
            list(read_documents(str(folder / "docs.jsonl"))),
            g.nodes,
            [g.out_neighbors(a, EdgeKind.AA).tolist() for a in range(len(g))],
        ]

    for folder, prefix in (("plain", ""), ("bom", "\ufeff")):
        (tmp_path / folder).mkdir()
        for name, text in files.items():
            (tmp_path / folder / name).write_text(prefix + text, encoding="utf-8")
    assert (tmp_path / "bom" / "run.trec").read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_all(tmp_path / "bom") == read_all(tmp_path / "plain")

    bad = tmp_path / "bom" / "bad.tsv"  # the mark does not shift the reported line
    bad.write_bytes(b"\xef\xbb\xbfq1\tgraffiti\nq2\t\xff\n")
    with pytest.raises(FormatError) as info:
        load_topics(str(bad))
    assert info.value.line == 2 and "byte 0xff" in str(info.value)


def test_eval_with_a_bad_run_writes_no_table(tmp_path, capsys):
    ok = tmp_path / "ok.trec"
    ok.write_text("q1 Q0 docA 1 1.000000 x\n")
    bad = tmp_path / "bad.trec"
    bad.write_text("q1 Q0 docA 1\n")
    qrels = tmp_path / "q.txt"
    qrels.write_text("q1 0 docA 1\n")
    table = tmp_path / "table.tsv"
    for second in (bad, tmp_path / "missing.trec"):
        argv = ["eval", "--run", str(ok), "--run", str(second), "--qrels", str(qrels)]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
        assert main(argv + ["--out", str(table)]) == 2
        assert not table.exists()


def test_run_with_a_repeated_topic_id_exits_2(tmp_path, graffiti_kb, graffiti_index_file, capsys):
    topics = tmp_path / "topics.tsv"
    topics.write_text("73\tgraffiti street art\n73\tbanksy\n")
    run_path = tmp_path / "out.trec"
    code = main(["run", "--kb", graffiti_kb, "--index", graffiti_index_file,
                 "--topics", str(topics), "--out", str(run_path)])
    err = capsys.readouterr().err
    assert code == 2 and err == f"sqe: error: line 2: {topics}: duplicate request id '73'\n"
    assert not run_path.exists()


def test_query_term_that_is_not_one_token_exits_2(graffiti_index_file, capsys):
    assert main(["search", "--index", graffiti_index_file, "--query", "#combine( a-b )"]) == 2
    assert "a plain alphanumeric token (got 'a-b')" in _one_error(capsys)


def test_search_k_below_one_exits_1(graffiti_index_file, capsys):
    assert main(["search", "--index", graffiti_index_file, "--query", "banksy", "--k", "0"]) == 1
    assert "--k: must be an integer >= 1, got '0'" in capsys.readouterr().err


BAD_ARGUMENTS = {
    "merge-cutoffs-not-int": ["merge", "--run", "{run}", "--cutoffs", "a"],
    "merge-total-0": ["merge", "--run", "{run}", "--run", "{run}", "--run", "{run}", "--total", "0"],
    "eval-k-not-int": ["eval", "--run", "{run}", "--qrels", "{qrels}", "--k", "a"],
    "eval-k-0": ["eval", "--run", "{run}", "--qrels", "{qrels}", "--k", "5,0"],
    "ttest-k-0": ["ttest", "--run", "{run}", "--run", "{run}", "--qrels", "{qrels}", "--k", "0"],
    "cycles-min-len-1": ["analyze-cycles", "--kb", "{kb}", "--seeds", "Graffiti", "--min-len", "1"],
    "cycles-max-len-9": ["analyze-cycles", "--kb", "{kb}", "--seeds", "Graffiti", "--max-len", "9"],
    "cycles-min-above-max": ["analyze-cycles", "--kb", "{kb}", "--seeds", "Graffiti",
                             "--min-len", "4", "--max-len", "3"],
    "search-mu-0": ["search", "--index", "{index}", "--query", "banksy", "--mu", "0"],
    "search-mu-negative": ["search", "--index", "{index}", "--query", "banksy", "--mu", "-5"],
    "search-mu-overflows": ["search", "--index", "{index}", "--query", "banksy", "--mu", "1e308"],
    # checked before any run file is read: the second one does not exist
    "merge-cutoffs-count": ["merge", "--run", "{run}", "--run", "{missing}", "--cutoffs", "5,30"],
    # checked before the topics file is read: it does not exist; requests run in order
    "run-jobs-unknown": ["run", "--kb", "{kb}", "--index", "{index}", "--topics", "{missing}",
                         "--jobs", "2"],
    "ttest-alpha-2": ["ttest", "--run", "{run}", "--run", "{run}", "--qrels", "{qrels}", "--alpha", "2"],
    "ttest-alpha-negative": ["ttest", "--run", "{run}", "--run", "{run}", "--qrels", "{qrels}",
                             "--alpha", "-1"],
    "ttest-alpha-nan": ["ttest", "--run", "{run}", "--run", "{run}", "--qrels", "{qrels}",
                        "--alpha", "nan"],
    "ttest-alpha-1": ["ttest", "--run", "{run}", "--run", "{run}", "--qrels", "{qrels}", "--alpha", "1"],
    # an input that one of two flags gives, with neither given
    "expand-no-input": ["expand", "--kb", "{kb}"],
    "build-query-no-input": ["build-query", "--kb", "{kb}"],
    "search-no-query": ["search", "--index", "{index}"],
    "link-no-kb": ["link", "--text", "x"],
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_argument_value_exits_1(case, tmp_path, graffiti_kb, graffiti_index_file, capsys):
    run, qrels = tmp_path / "r.trec", tmp_path / "q.txt"
    run.write_text("b1 Q0 doc01 1 1.000000 x\n")
    qrels.write_text("b1 0 doc01 1\nb2 0 doc02 1\n")
    files = {"run": str(run), "qrels": str(qrels), "kb": graffiti_kb, "index": graffiti_index_file,
             "missing": str(tmp_path / "missing.trec")}
    code = main([arg.format(**files) for arg in BAD_ARGUMENTS[case]])
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert code == 1 and "Traceback" not in err
    assert len(errors) == 1 and errors[0].startswith("sqe")


@pytest.mark.parametrize("config", [
    "plan = eq1:hexagon\n", "cutoffs = 5\n", "mu = 0\n", "total = 0\n",
    "orig_weight = 1\nprf = on\n", "max_ngram = 0\n", "mu = 1e308\n", "tag =\n", "tag = a b\n",
    "fb_docs = -3\nprf = on\n", "fb_terms = 0\nprf = on\n", "prf = banana\n",
    "plan = a\tb:both\ncutoffs =\n", "plan = :both\ncutoffs =\n",
])
def test_bad_config_value_exits_1(config, tmp_path, graffiti_kb, graffiti_index_file, capsys):
    topics = tmp_path / "topics.tsv"
    topics.write_text("b1\tbanksy\n")
    cfg = tmp_path / "sqe.conf"
    cfg.write_text(config)
    code = main(["run", "--kb", graffiti_kb, "--index", graffiti_index_file,
                 "--topics", str(topics), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("sqe: error:") and err.count("\n") == 1


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log")
def test_prf_with_an_underflowing_mu_keeps_the_query(graffiti_index_file, tmp_path, capsys):
    """At mu = 5e-324 every document scores -inf under an unseen term, so PRF has no feedback."""
    runs = {}
    for flags in ([], ["--prf"]):
        out = tmp_path / f"run{len(flags)}.trec"
        assert main(["search", "--index", graffiti_index_file, "--query", "#combine( zzz )",
                     "--mu", "5e-324", "--out", str(out), *flags]) == 0
        runs[len(flags)] = out.read_text()
    assert runs[0] == runs[1] and "-inf" in runs[0]
    assert capsys.readouterr().err == ""


def test_search_with_an_underflowing_mu_writes_nothing_to_stderr(graffiti_index_file):
    """A -inf score is a result, not a numpy warning on stderr; run as its own process,
    since pytest would catch the warning."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "sqe.cli", "search", "--index", graffiti_index_file,
                           "--mu", "5e-324", "--query", "the"],
                          capture_output=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stderr) == (0, b"")
    assert b"-inf" in done.stdout


def test_largest_accepted_mu_scores_finite(graffiti_index_file, tmp_path, capsys):
    out = tmp_path / "run.trec"
    assert main(["search", "--index", graffiti_index_file, "--query", "banksy",
                 "--mu", f"{MAX_MU:g}", "--out", str(out)]) == 0
    rows = [line.split() for line in out.read_text().splitlines()]
    assert len(rows) == len(GRAFFITI_DOCS) and all(math.isfinite(float(r[4])) for r in rows)
    assert {r[2] for r in rows[:2]} == {"doc01", "doc09"}  # the two banksy documents lead
    assert main(["search", "--index", graffiti_index_file, "--query", "banksy",
                 "--mu", f"{MAX_MU * 1.01:g}"]) == 1
    capsys.readouterr()


def test_one_entry_plan_config_runs(tmp_path, graffiti_kb, graffiti_index_file, capsys):
    topics = tmp_path / "topics.tsv"
    topics.write_text("b1\tbanksy\n")
    cfg = tmp_path / "sqe.conf"
    cfg.write_text("plan = only:both\ncutoffs =\ntotal = 5\ntag = one\n")
    out = tmp_path / "run.trec"
    assert main(["run", "--kb", graffiti_kb, "--index", graffiti_index_file,
                 "--topics", str(topics), "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines and all(line.split()[5] == "one" for line in lines)


def _edited_archive(**changes):
    """Rewrite the first good file given with columns replaced; a change of None drops one."""
    def make(good: Path, _other: Path, path: Path) -> None:
        with np.load(good) as data:
            arrays = dict(data)
        for name, change in changes.items():
            if change is None:
                del arrays[name]
            else:
                arrays[name] = change(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    return make


def _edited_strings(name: str, edit):
    """Rewrite the first good file given with its string column ``name`` passed through ``edit``."""
    ends = name.removesuffix("s") + "_ends"

    def make(good: Path, _other: Path, path: Path) -> None:
        with np.load(good) as data:
            arrays = dict(data)
        raw, cuts = arrays[name].tobytes(), [0, *arrays[ends].tolist()]
        encoded = [v.encode() for v in edit([raw[a:b].decode() for a, b in zip(cuts, cuts[1:])])]
        arrays[name] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
        arrays[ends] = np.cumsum([len(b) for b in encoded], dtype=np.int64)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    return make


# strings that no text file can hold, which a binary file must not hold either; the reason each names
NOT_IN_TEXT = {
    "repeated-word": "repeats or is not one token",
    "word-not-a-token": "repeats or is not one token",
    "empty-doc-id": "empty or holds whitespace",
    "doc-id-with-space": "empty or holds whitespace",
    "title-with-newline": "holds a tab or line break",
    "title-with-cr": "holds a tab or line break",
    "ext-id-with-tab": "holds a tab or line break",
}


def _with_first(column: np.ndarray, value) -> np.ndarray:
    out = column.copy()
    out[0] = value
    return out


STALE_INDEXES = {
    "tsv": lambda good, kb, path: path.write_text("73\tgraffiti street art\n"),
    "snapshot": lambda good, kb, path: path.write_bytes(kb.read_bytes()),
    "truncated": lambda good, kb, path: path.write_bytes(good.read_bytes()[:-100]),
    "bumped-version": _edited_archive(version=lambda a: a["version"] + 1),
    "unequal-columns": _edited_archive(doc_lengths=lambda a: a["doc_lengths"][:-1]),
    "repeated-word": _edited_strings("vocab", lambda words: [words[1], *words[1:]]),
    "word-not-a-token": _edited_strings("vocab", lambda words: ["Wall Art", *words[1:]]),
    "empty-doc-id": _edited_strings("doc_ids", lambda ids: ["", *ids[1:]]),
    "doc-id-with-space": _edited_strings("doc_ids", lambda ids: ["d 1", *ids[1:]]),
    # indexes were pickled Index objects before the columnar file format
    "pickle": lambda good, kb, path: path.write_bytes(
        pickle.dumps(build_index([Document.from_text("d", "banksy")]), pickle.HIGHEST_PROTOCOL)
    ),
}


@pytest.mark.parametrize("kind", sorted(STALE_INDEXES))
def test_foreign_or_stale_index_exits_2(kind, tmp_path, graffiti_kb, graffiti_index_file, capsys):
    path = tmp_path / "idx.bin"
    STALE_INDEXES[kind](Path(graffiti_index_file), Path(graffiti_kb), path)
    code = main(["search", "--index", str(path), "--query", "banksy"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("sqe: error:") and err.count("\n") == 1
    if kind in ("pickle", "bumped-version"):
        assert "rebuild it with `sqe index`" in err
    assert NOT_IN_TEXT.get(kind, "") in err


def test_max_ngram_below_one_exits_1(cable_files, capsys):
    nodes, edges = cable_files
    code = main(["link", "--nodes", nodes, "--edges", edges, "--text", "cable car",
                 "--max-ngram", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert [line for line in err.splitlines() if "error:" in line] == [
        "sqe link: error: argument --max-ngram: must be an integer >= 1, got '0'"
    ]


# the graffiti graph: articles are nodes 0-8, categories 9-14
STALE_SNAPSHOTS = {
    "index": lambda kb, index, path: path.write_bytes(index.read_bytes()),
    "tsv": lambda kb, index, path: path.write_text("73\tgraffiti street art\n"),
    "truncated": lambda kb, index, path: path.write_bytes(kb.read_bytes()[:-100]),
    "bumped-version": _edited_archive(version=lambda a: a["version"] + 1),
    # snapshots were pickled dicts before the columnar file format
    "pickle": lambda kb, index, path: path.write_bytes(pickle.dumps(
        {"magic": "sqe-kb-snapshot", "version": 1, "nodes": [("a1", "A", "Graffiti")],
         "edges": {"AA": np.zeros((0, 2), dtype=np.int64)}}, pickle.HIGHEST_PROTOCOL
    )),
    "missing-column": _edited_archive(titles=None),
    "unequal-pairs": _edited_archive(CC_src=lambda a: a["CC_src"][:-1]),
    "float-ids": _edited_archive(AA_src=lambda a: a["AA_src"].astype(float)),
    "bad-id": _edited_archive(AA_dst=lambda a: _with_first(a["AA_dst"], 99)),
    "self-loop": _edited_archive(AA_dst=lambda a: _with_first(a["AA_dst"], a["AA_src"][0])),
    "wrong-dst-kind": _edited_archive(AC_dst=lambda a: _with_first(a["AC_dst"], 1)),
    "wrong-src-kind": _edited_archive(CC_src=lambda a: _with_first(a["CC_src"], 0)),
    "bad-node-kind": _edited_archive(kinds=lambda a: _with_first(a["kinds"], ord("Q"))),
    "unequal-node-columns": _edited_archive(kinds=lambda a: a["kinds"][:-1]),
    "title-with-newline": _edited_strings("titles", lambda titles: ["Graffiti\nart", *titles[1:]]),
    "title-with-cr": _edited_strings("titles", lambda titles: ["Graffiti\r", *titles[1:]]),
    "ext-id-with-tab": _edited_strings("ext_ids", lambda ids: ["a\t1", *ids[1:]]),
}


@pytest.mark.parametrize("kind", sorted(STALE_SNAPSHOTS))
def test_foreign_or_stale_snapshot_exits_2(kind, tmp_path, graffiti_kb, graffiti_index_file,
                                           capsys):
    path = tmp_path / "kb-bad.bin"
    STALE_SNAPSHOTS[kind](Path(graffiti_kb), Path(graffiti_index_file), path)
    code = main(["link", "--kb", str(path), "--text", "graffiti"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("sqe: error:") and err.count("\n") == 1
    if kind in ("pickle", "bumped-version"):
        assert "re-create it with `sqe ingest --out`" in err
    assert NOT_IN_TEXT.get(kind, "") in err


# every file a subcommand reads, one per case; {bad} is the fuzzed file, the rest are good
FILE_INPUTS = {
    "ingest-nodes": ["ingest", "--nodes", "{bad}", "--edges", "{edges}"],
    "ingest-edges": ["ingest", "--nodes", "{nodes}", "--edges", "{bad}"],
    "index-docs": ["index", "--docs", "{bad}", "--out", "{out}"],
    "run-topics": ["run", "--kb", "{kb}", "--index", "{index}", "--topics", "{bad}"],
    "run-config": ["run", "--kb", "{kb}", "--index", "{index}", "--topics", "{topics}",
                   "--config", "{bad}"],
    "search-queries": ["search", "--index", "{index}", "--queries", "{bad}"],
    "eval-run": ["eval", "--run", "{bad}", "--qrels", "{qrels}"],
    "eval-qrels": ["eval", "--run", "{run}", "--qrels", "{bad}"],
    "merge-run": ["merge", "--run", "{run}", "--run", "{bad}", "--cutoffs", "2"],
    "ttest-run": ["ttest", "--run", "{bad}", "--run", "{run}", "--qrels", "{qrels}"],
    "ttest-qrels": ["ttest", "--run", "{run}", "--run", "{run}", "--qrels", "{bad}"],
    "link-stop-titles": ["link", "--kb", "{kb}", "--text", "graffiti", "--stop-titles", "{bad}"],
}
# pieces of every file format above, so that some fuzzed lines almost parse
_PIECES = st.sampled_from([
    "\t", " ", "0", "1", "-1", "2", "0.5", "nan", "inf", "Q0", "A", "C", "AA", "AC", "CC", "a1",
    "a2", "c1", "doc01", "b1", "graffiti", "banksy", "#", "=", ",", "plan", "eq1:both", "cutoffs",
    "total", "mu", "#1(", "#combine(", ")", '{"id": ', '"text": ', '"d"', "}", "[]",
])
_LINES = st.lists(st.lists(_PIECES | st.text(max_size=3), max_size=8).map("".join), max_size=6)
_FILE = (_LINES.map(lambda lines: "\n".join(lines).encode("utf-8"))
         | st.binary(max_size=24)
         | _LINES.map(lambda lines: b"\xff\xfe" + "\n".join(lines).encode("utf-8")))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(sorted(FILE_INPUTS)), content=_FILE)
@example(case="index-docs", content=b'{"id": "a", "text": ' + b"[" * 5000 + b"]" * 5000 + b"}\n")
@example(case="search-queries", content=b"#combine( " * 1200 + b"banksy" + b" )" * 1200)
@example(case="eval-qrels", content=b"\r\x80")
@example(case="eval-qrels", content=b"a\r\nb\r\xff")
@example(case="eval-qrels", content=b"\xef")  # a truncated byte-order mark
@example(case="eval-qrels", content=b"\xef\xbb")
def test_fuzzed_input_file_never_crashes(case, content, tmp_path, graffiti_kb, graffiti_index_file,
                                         capsys):
    """Any bytes in any input file end in exit 0, 1 or 2, never in a traceback.
    (The fixtures are read-only inputs, so every example may share them.)"""
    files = {"bad": tmp_path / "bad.txt", "nodes": tmp_path / "n.tsv", "edges": tmp_path / "e.tsv",
             "topics": tmp_path / "t.tsv", "run": tmp_path / "r.trec", "qrels": tmp_path / "q.txt",
             "out": tmp_path / "out.bin", "kb": graffiti_kb, "index": graffiti_index_file}
    write_tsv(files["nodes"], CABLE_NODES)
    write_tsv(files["edges"], CABLE_EDGES)
    files["topics"].write_text("b1\tbanksy\n")
    files["run"].write_text("b1 Q0 doc01 1 1.000000 x\nb1 Q0 doc09 2 0.500000 x\n")
    files["qrels"].write_text("b1 0 doc01 1\nb2 0 doc02 1\n")
    files["bad"].write_bytes(content)
    code = main([arg.format(**files) for arg in FILE_INPUTS[case]])
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "Traceback" not in err
    if code:
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1, err
    try:
        content.decode("utf-8")
    except UnicodeDecodeError as exc:  # every reader names the file and the line of the bad byte
        # the valid prefix's lines as open()'s universal newlines count them
        head = io.TextIOWrapper(io.BytesIO(content[: exc.start]), encoding="utf-8", newline=None)
        line = head.read().count("\n") + 1
        assert code == 2 and f"line {line}: {files['bad']}: not UTF-8" in err, err


@pytest.fixture()
def bang_kb(tmp_path):
    """The graffiti KB plus an article titled "!!!", which has no tokens; it is
    doubly linked with Graffiti and shares its category, so motifs find it."""
    nodes = write_tsv(tmp_path / "bn.tsv", GRAFFITI_NODES + [("a10", "A", "!!!")])
    edges = write_tsv(tmp_path / "be.tsv", GRAFFITI_EDGES + [("a1", "a10", "AA"),
                                                            ("a10", "a1", "AA"), ("a10", "c1", "AC")])
    snap = tmp_path / "bang.bin"
    assert main(["ingest", "--nodes", nodes, "--edges", edges, "--out", str(snap)]) == 0
    return str(snap)


def _one_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("sqe: error:") and err.count("\n") == 1, err
    return err


def test_expansion_title_without_tokens_is_left_out(tmp_path, bang_kb, graffiti_index_file,
                                                    capsys):
    assert main(["expand", "--kb", bang_kb, "--motif", "triangular", "--text", "graffiti"]) == 0
    assert "!!!\t1\n" in capsys.readouterr().out
    assert main(["build-query", "--kb", bang_kb, "--text", "graffiti", "--motif", "both"]) == 0
    query = capsys.readouterr().out
    assert "#weight( 3.0 #1(public art) 3.0 #1(stencil)" in query and "!" not in query
    topics = tmp_path / "topics.tsv"
    topics.write_text("73\tgraffiti\n")
    out = tmp_path / "run.trec"
    assert main(["run", "--kb", bang_kb, "--index", graffiti_index_file, "--topics", str(topics),
                 "--out", str(out)]) == 0
    assert out.read_text()
    capsys.readouterr()
    assert main(["build-query", "--kb", bang_kb, "--entities", "!!!"]) == 2
    assert "input tokens are empty" in _one_error(capsys)  # the text defaults to the titles
    assert main(["build-query", "--kb", bang_kb, "--entities", "Banksy", "!!!", "--text", "art"]) == 2
    assert "entity title '!!!' has no tokens" in _one_error(capsys)


# each reader of request or document ids, and a file whose second id cannot be written to a run
ID_READERS = {
    "run-topics": (["run", "--kb", "{kb}", "--index", "{index}", "--topics", "{file}"],
                   "1\tgraffiti\n{id}\tbanksy\n"),
    "search-queries": (["search", "--index", "{index}", "--queries", "{file}"],
                       "1\tgraffiti\n{id}\tbanksy\n"),
    "index-docs": (["index", "--docs", "{file}"],
                   '{{"id": "1", "text": "graffiti"}}\n{{"id": "{id}", "text": "banksy"}}\n'),
}


@pytest.mark.parametrize("bad_id", ["", "7 3", "1"], ids=["empty", "whitespace", "repeated"])
@pytest.mark.parametrize("reader", sorted(ID_READERS))
def test_id_that_a_run_cannot_hold_exits_2(reader, bad_id, tmp_path, graffiti_kb,
                                           graffiti_index_file, capsys):
    argv, content = ID_READERS[reader]
    path, out = tmp_path / "ids.txt", tmp_path / "out.bin"
    path.write_text(content.format(id=bad_id))
    files = {"kb": graffiti_kb, "index": graffiti_index_file, "file": str(path)}
    assert main([arg.format(**files) for arg in argv] + ["--out", str(out)]) == 2
    err = _one_error(capsys)
    assert repr(bad_id) in err and str(path) in err
    assert not out.exists()


def test_run_report_that_names_the_out_file_exits_1(tmp_path, graffiti_kb, graffiti_index_file,
                                                     capsys):
    topics = tmp_path / "topics.tsv"
    topics.write_text("73\tgraffiti\n")
    out = tmp_path / "run.trec"
    out.write_text("an earlier run\n")
    (tmp_path / "sub").mkdir()
    for report in (out, tmp_path / "sub" / ".." / "run.trec"):
        assert main(["run", "--kb", graffiti_kb, "--index", graffiti_index_file, "--topics",
                     str(topics), "--out", str(out), "--report", str(report)]) == 1
        assert "names the --out file" in _one_error(capsys)
        assert out.read_text() == "an earlier run\n"


def test_query_numbers_that_do_not_fit_exit_2(graffiti_index_file, tmp_path, capsys):
    out = tmp_path / "run.trec"
    for query in ("#99999999999999999999999(banksy street)", "#" + "9" * 400 + "(banksy street)",
                  "#weight( " + "1" * 310 + " banksy )"):
        assert main(["search", "--index", graffiti_index_file, "--query", query,
                     "--out", str(out)]) == 2
        assert "at position" in _one_error(capsys)
        assert not out.exists()
    assert main(["search", "--index", graffiti_index_file, "--query",
                 f"#combine( #{2**62}(banksy street) #weight( {'9' * 300} art ) )",
                 "--out", str(out)]) == 0
    rows = [line.split() for line in out.read_text().splitlines()]
    assert len(rows) == len(GRAFFITI_DOCS) and all(math.isfinite(float(r[4])) for r in rows)


def _options_by_subcommand() -> dict[str, list[tuple[str, bool]]]:
    """Each subcommand's options, read from the parser: the flag, and whether it takes a value."""
    subs = next(a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [(a.option_strings[-1], a.nargs != 0) for a in p._actions
                   if a.option_strings and a.dest != "help"] for name, p in subs.choices.items()}


OPTIONS = _options_by_subcommand()
# a good call of each subcommand; "@name" values are input files, the rest are literal
GOOD_CALLS = {
    "ingest": ["--nodes", "@nodes", "--edges", "@edges"],
    "index": ["--docs", "@docs", "--out", "index.bin"],
    "link": ["--kb", "@kb", "--text", "graffiti"],
    "expand": ["--kb", "@kb", "--text", "graffiti"],
    "analyze-cycles": ["--kb", "@kb", "--seeds", "Graffiti"],
    "build-query": ["--kb", "@kb", "--text", "graffiti"],
    "search": ["--index", "@index", "--query", "banksy"],
    "run": ["--kb", "@kb", "--index", "@index", "--topics", "@topics"],
    "merge": ["--run", "@run", "--run", "@run", "--cutoffs", "2"],
    "eval": ["--run", "@run", "--qrels", "@qrels"],
    "ttest": ["--run", "@run", "--run", "@run", "--qrels", "@qrels"],
}
INPUT_FILES = {  # besides "@nodes", "@edges", "@kb" and "@index", written by fixtures
    "@docs": "".join(json.dumps({"id": d, "text": t}) + "\n" for d, t in GRAFFITI_DOCS[:3]),
    "@topics": "1\tgraffiti street art\n2\tbanksy\n",
    "@queries": "1\t#combine( banksy #1(street art) )\nstencil\n",
    "@bad-ids": "7 3\tbanksy\n",
    "@repeated-ids": "1\tbanksy\n1\tgraffiti\n",
    "@run": "1 Q0 doc01 1 1.000000 x\n1 Q0 doc09 2 0.500000 x\n",
    "@qrels": "1 0 doc01 1\n2 0 doc02 1\n",
    "@config": "plan = one:both, two:square\ncutoffs = 2\ntotal = 20\nprf = on\n",
    "@tiny-mu-config": "mu = 5e-324\nprf = on\n",  # mu * cf / |C| underflows to 0
}
OUTPUT_FLAGS = ("--out", "--report")
RUN_WRITERS = ("search", "run", "merge")
_VALUES = (
    st.sampled_from(["", " ", "nan", "-nan", "inf", "-inf", "-1", "0", "1", "3", "0.5", "1e308",
                     "5,30", "5,", ",", "#", "(", ")", "#weight(", "#1(", "#combine(", "banksy",
                     "#2(banksy street)", "both", "square", "Graffiti", "!!!", "@nodes", "@edges",
                     "@kb", "@index", *INPUT_FILES])
    | st.integers(-10**6, 10**6).map(str)
    | st.floats().map(repr)
    | st.integers(1, 400).map(lambda n: "9" * n)
    | st.text(st.characters(exclude_characters="\x00"), max_size=8)  # argv cannot hold a NUL
)
_CALLS = st.sampled_from(sorted(GOOD_CALLS)).flatmap(lambda command: st.tuples(
    st.just(command), st.lists(st.tuples(st.sampled_from(OPTIONS[command]).map(lambda o: o[0]),
                                         _VALUES), max_size=3)))


def _mu_underflows(argv: list[str]) -> bool:
    """Whether the mu a good call scored with makes ``mu * UNSEEN_CF / |C|`` underflow to 0
    on its index: only then may a document without a query's pattern score -inf."""
    args = make_parser().parse_args(argv)
    if args.command == "search":
        mu = args.mu
    elif args.command == "run":
        mu = (PipelineConfig.from_file(args.config) if args.config else PipelineConfig()).mu
    else:  # merge scores total - rank + 1
        return False
    return mu * UNSEEN_CF / load_index(args.index).collection_length == 0


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=_CALLS)
@example(call=("search", [("--query", "#99999999999999999999999(banksy street)")]))
@example(call=("search", [("--query", "#" + "9" * 400 + "(banksy street)")]))
@example(call=("search", [("--query", "#weight( " + "1" * 310 + " banksy )")]))
@example(call=("search", [("--query", "#combine( " * 1200 + "banksy" + " )" * 1200)]))
@example(call=("run", [("--config", "@tiny-mu-config")]))  # PRF over -inf feedback scores
@example(call=("search", [("--queries", "@bad-ids")]))
@example(call=("search", [("--queries", "@repeated-ids")]))
@example(call=("run", [("--topics", "@bad-ids")]))
@example(call=("run", []))  # the KB's token-less "!!!" article expands "graffiti"
@example(call=("build-query", [("--motif", "both")]))
@example(call=("build-query", [("--entities", "!!!")]))
@example(call=("merge", [("--total", "9" * 400)]))
@example(call=("analyze-cycles", [("--kb", "\ud800")]))  # a path the file system cannot encode
@example(call=("run", [("--out", "\ud800")]))
@example(call=("search", [("--mu", "5e-324")]))  # -inf for the documents without "banksy"
def test_fuzzed_option_values_never_crash(call, tmp_path, bang_kb, graffiti_index_file,
                                          monkeypatch, capsys):
    """Any value for any option ends in exit 0, 1 or 2, never in a traceback, and a
    run that is written reads back with no nan score, and with no -inf score unless
    the call's mu underflows on its index.  Outputs go to a fresh directory."""
    assert set(GOOD_CALLS) == set(OPTIONS)  # every subcommand is fuzzed
    command, extra = call
    files = {"@kb": bang_kb, "@index": graffiti_index_file,
             "@nodes": write_tsv(tmp_path / "n.tsv", CABLE_NODES),
             "@edges": write_tsv(tmp_path / "e.tsv", CABLE_EDGES)}
    for name, content in INPUT_FILES.items():
        files[name] = str(tmp_path / name[1:])
        Path(files[name]).write_text(content)
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    monkeypatch.chdir(work)
    argv = [command] + [files.get(arg, arg) for arg in GOOD_CALLS[command]]
    for flag, value in extra:
        takes_value = dict(OPTIONS[command])[flag]
        argv += [flag, value if flag in OUTPUT_FLAGS else files.get(value, value)][:1 + takes_value]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    elif command in RUN_WRITERS:
        outs = {flag: Path(value) for flag, value in extra if flag in OUTPUT_FLAGS}  # the last counts
        if "--out" not in outs:
            outs["--out"] = work / "stdout.trec"
            outs["--out"].write_text(out)
        underflows = _mu_underflows(argv)
        for ranked in read_trec_run(str(outs["--out"])):
            for _doc, score in ranked.entries:
                assert math.isfinite(score) or (score == -math.inf and underflows), score
