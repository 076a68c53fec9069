import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sqe.cli import cmd_search, make_parser
from sqe.errors import FormatError, KindMismatch
from sqe.evaluation import Qrels
from sqe.kb_graph import load_graph
from sqe.pipeline import PipelineConfig, load_topics
from sqe.search_engine import Document, build_index, read_documents, read_trec_run, save_index
from sqe.text import lines, normalize_title, tokenize

from conftest import write_tsv

_NON_ALNUM = re.compile(r"[^0-9a-z]+")


@settings(max_examples=500)
@given(text=st.text())
@example(text="İstanbul STRASSE straße ΣΑΣ ς x_y 3.14 café")
def test_tokenize_equals_split_reference(text):
    assert tokenize(text) == [t for t in _NON_ALNUM.split(text.lower()) if t]


# whitespace of every kind, underscores and sigmas, mixed with any character
_TITLES = st.text(st.sampled_from(list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028"
                                       "\u2029\u202f\u3000_ΣσςAz0(")) | st.characters())


@settings(max_examples=500)
@given(title=_TITLES)
@example(title="\x1cStreet\x1dart\x1e \x1f")
@example(title="\x85Above\xa0(artist)\u2028")
@example(title="__Street___art__ _")
@example(title="ΟΔΟΣ_ΣΑΣ Σ")
def test_normalize_title_equals_the_regex_rule(title):
    """``str.split`` finds the whitespace that ``\\s`` matches, so titles normalize as the regex did."""
    assert normalize_title(title) == re.sub(r"\s+", " ", title.replace("_", " ").strip()).lower()


@settings(max_examples=500)
@given(title=_TITLES)
@example(title="ΟΔΟΣ_ΣΑΣ Σ")
@example(title="\u212aelvin_\u0130stanbul")
def test_normalized_title_has_the_tokens_of_the_title(title):
    """The linker matches request tokens against a title's tokens, and the query's entity
    phrase holds the normalized title's tokens: the two are the same."""
    assert tokenize(normalize_title(title)) == tokenize(title)


def test_lines_skip_blank_lines_and_keep_numbers(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"\xef\xbb\xbfa\tb\n\n  \t\r\nc \r\nd")
    assert list(lines(str(path))) == [(1, "a\tb"), (4, "c "), (5, "d")]


def _search_queries(path: str) -> None:
    index = path + ".index"
    save_index(build_index([Document.from_text("d1", "banksy art")]), index)
    cmd_search(make_parser().parse_args(["search", "--index", index, "--queries", path]))


def _load_nodes(path: str) -> None:
    load_graph(path, write_tsv(Path(path).with_name("edges.tsv"), []))


def _load_edges(path: str) -> None:
    nodes = write_tsv(Path(path).with_name("nodes.tsv"), [("1", "A", "X"), ("2", "A", "Y"), ("3", "C", "Z")])
    load_graph(nodes, path)


# each reader of an input file: the reader, a file whose line 3 is bad, and the fault;
# line 2 is blank or a comment where the format allows one
LINE_READERS = {
    "topics": (load_topics, "b1\tbanksy\n\nb2 art\n", "expected <qid>\\t<text>"),
    "config": (PipelineConfig.from_file, "mu = 3\n# mu = 5\nmu = 4\n", "duplicate config key 'mu'"),
    "queries": (_search_queries, "1\tbanksy\n\n1\tart\n", "duplicate request id '1'"),
    "qrels": (Qrels.load, "b1 0 d1 1\n\nb1 0 d2 x\n", "bad relevance 'x'"),
    "docs": (lambda path: list(read_documents(path)),
             '{"id": "a", "text": "x"}\n\n{"id": "a", "text": "y"}\n', "duplicate document id 'a'"),
    "runs": (read_trec_run, "b1 Q0 d1 1 1.0 x\n\nb1 Q0 d2 2 0.5\n", "expected 6 fields, got 5"),
    "runs-rank": (read_trec_run, "b1 Q0 d1 1 1.0 x\n\nb1 Q0 d2 two 0.5 x\n",
                  "invalid literal for int() with base 10: 'two'"),
    "runs-score": (read_trec_run, "b1 Q0 d1 1 1.0 x\n\nb1 Q0 d2 2 high x\n",
                   "could not convert string to float: 'high'"),
    "qrels-grade": (Qrels.load, "b1 0 d1 1\n\nb1 0 d2 -1\n", "negative relevance -1"),
    "nodes-columns": (_load_nodes, "1\tA\tX\n\n3\tA\n", "expected 3 columns, got 2"),
    "nodes-title": (_load_nodes, "1\tA\tX\n \t\n3\tA\t \n", "empty title"),
    "edges": (_load_edges, "1\t2\tAA\n\n1\t2\tAC\n",
              "edge kind contradicts endpoint kinds (AC needs A->C, got A->A)"),
}


@pytest.mark.parametrize("reader", sorted(LINE_READERS))
def test_format_error_names_path_line_and_reason(reader, tmp_path):
    read, content, reason = LINE_READERS[reader]
    path = tmp_path / "input.txt"
    path.write_text(content)
    with pytest.raises(FormatError) as err:
        read(str(path))
    assert (err.value.path, err.value.line, err.value.reason) == (str(path), 3, reason)
    assert str(err.value) == f"line 3: {path}: {reason}"
    assert isinstance(err.value, KindMismatch) == (reader == "edges")


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_undecodable_byte_is_numbered_as_readers_number_lines(newline, tmp_path):
    path = tmp_path / "qrels.txt"
    for bad, reason in ((b"x", "bad relevance 'x'"), (b"\xff", "not UTF-8 (invalid start byte, byte 0xff)")):
        path.write_bytes(newline.join([b"b1 0 d1 1", b"b1 0 d2 1", b"b1 0 d3 " + bad, b""]))
        with pytest.raises(FormatError) as err:
            Qrels.load(str(path))
        assert (err.value.line, err.value.reason) == (3, reason)
