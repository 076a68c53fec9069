import math

import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from sqe.errors import FormatError, LengthMismatch, TooFewPairs, UnknownQuery
from sqe.evaluation import (
    DEFAULT_KS,
    Qrels,
    _beta_cont_frac,
    evaluate,
    paired_t_test,
    precision_at_k,
    regularized_incomplete_beta,
    student_t_sf2,
)
from sqe.search_engine import RankedList

from oracles import precision_recount


def make_qrels(mapping):
    return Qrels({q: dict(docs) for q, docs in mapping.items()})


def test_precision_examples():
    qrels = make_qrels({"q1": {"a": 1, "b": 1, "c": 1}})
    assert precision_at_k(RankedList("q1", []), qrels, 5) == 0.0
    run = RankedList("q1", [("a", 5.0), ("x", 4.0), ("b", 3.0), ("y", 2.0), ("c", 1.0)])
    assert precision_at_k(run, qrels, 5) == 0.6
    # short lists keep k as the denominator
    short = RankedList("q1", [("a", 1.0)])
    assert precision_at_k(short, qrels, 5) == 0.2
    with pytest.raises(UnknownQuery):
        precision_at_k(RankedList("zz", []), qrels, 5)
    with pytest.raises(ValueError):
        precision_at_k(run, qrels, 0)


def test_precision_strictly_increases_with_new_relevant_doc():
    run = RankedList("q", [(f"d{i}", float(9 - i)) for i in range(9)])
    judged = {"d0": 1, "d7": 1}
    for k in (3, 5, 9):
        before = precision_at_k(run, make_qrels({"q": judged}), k)
        after = precision_at_k(run, make_qrels({"q": {**judged, "d2": 1}}), k)
        assert after == pytest.approx(before + 1 / k)


def test_precision_permutation_invariant_within_top_k():
    qrels = make_qrels({"q": {"a": 1, "b": 2}})
    r1 = RankedList("q", [("a", 3.0), ("b", 2.0), ("x", 1.0)])
    r2 = RankedList("q", [("b", 3.0), ("a", 2.0), ("x", 1.0)])
    assert precision_at_k(r1, qrels, 3) == precision_at_k(r2, qrels, 3)


# 10-query fixture: query i has rel_counts[i] relevant docs, ranked first.
REL_COUNTS = {f"q{i:02d}": r for i, r in enumerate([1, 2, 3, 0, 1, 2, 3, 0, 1, 2], 1)}


def _fixture_runs_and_qrels():
    qrels = {}
    runs = []
    for qid, r in REL_COUNTS.items():
        docs = [f"{qid}_d{j}" for j in range(10)]
        qrels[qid] = {d: 1 for d in docs[:r]}
        qrels[qid][f"{qid}_unjudged_rel0"] = 0  # graded 0 keeps the topic known
        runs.append(RankedList(qid, [(d, float(10 - j)) for j, d in enumerate(docs)]))
    return runs, make_qrels(qrels)


def test_evaluate_ten_query_fixture():
    runs, qrels = _fixture_runs_and_qrels()
    report = evaluate(runs, qrels, ks=(1, 5, 10))
    # hand computation: sum of rel counts is 15 over 10 topics
    assert report.means[5] == pytest.approx(15 / 50)
    assert report.means[10] == pytest.approx(15 / 100)
    assert report.means[1] == pytest.approx(8 / 10)
    # and the independent recount agrees per query
    for run in runs:
        judged = qrels.judgments[run.request_id]
        for k in (1, 5, 10):
            assert report.per_query[run.request_id][k] == precision_recount(
                run.entries, judged, k
            )


def test_evaluate_handles_missing_and_unknown_queries():
    runs, qrels = _fixture_runs_and_qrels()
    extra = RankedList("q99", [("zzz", 1.0)])
    report = evaluate(runs[:-1] + [extra], qrels, ks=(5,))
    # q10 judged but not retrieved: all zeros, still averaged
    assert report.per_query["q10"][5] == 0.0
    assert report.skipped == ["q99"]
    expected_sum = sum(min(r, 5) / 5 for qid, r in REL_COUNTS.items() if qid != "q10")
    assert report.means[5] == pytest.approx(expected_sum / 10)


def test_evaluate_zero_relevant_topic_contributes_zero():
    qrels = make_qrels({"q1": {"a": 1}, "q2": {"b": 0}})
    runs = [RankedList("q1", [("a", 1.0)]), RankedList("q2", [("b", 0.5)])]
    report = evaluate(runs, qrels, ks=(1,))
    assert report.per_query["q2"][1] == 0.0
    assert report.means[1] == 0.5


def test_default_ks():
    assert DEFAULT_KS == (5, 10, 15, 20, 30, 100, 200, 500, 1000)


def test_report_tsv():
    runs, qrels = _fixture_runs_and_qrels()
    text = evaluate(runs, qrels, ks=(5, 10)).to_tsv("fixture")
    lines = text.splitlines()
    assert lines[0] == "\tP@5\tP@10"
    assert lines[1].startswith("fixture\t0.3000\t0.1500")


def test_qrels_loading(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 docA 1\nq1 0 docB 0\nq2 0 docA 2\n")
    qrels = Qrels.load(str(path))
    assert qrels.grade("q1", "docA") == 1
    assert qrels.grade("q2", "docA") == 2
    assert "q1" in qrels and "q9" not in qrels
    bad = tmp_path / "dup.txt"
    bad.write_text("q1 0 docA 1\nq1 0 docA 1\n")
    with pytest.raises(FormatError):
        Qrels.load(str(bad))
    short = tmp_path / "short.txt"
    short.write_text("q1 docA 1\n")
    with pytest.raises(FormatError):
        Qrels.load(str(short))


# -- paired t-test --------------------------------------------------------------


def test_ttest_identical_samples():
    t, p, sig = paired_t_test([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
    assert (t, p, sig) == (0.0, 1.0, False)


def test_ttest_antisymmetry():
    before = [0.1, 0.4, 0.2, 0.8, 0.5]
    after = [0.3, 0.5, 0.1, 0.9, 0.7]
    fwd = paired_t_test(before, after)
    rev = paired_t_test(after, before)
    assert fwd.t == -rev.t
    assert fwd.p == pytest.approx(rev.p, abs=1e-15)


def test_ttest_zero_variance_sentinel():
    t, p, sig = paired_t_test([0.0] * 10, [1.0] * 10)
    assert math.isinf(t) and t > 0 and p == 0.0 and sig
    t2, _p2, _ = paired_t_test([1.0] * 10, [0.0] * 10)
    assert math.isinf(t2) and t2 < 0


def test_ttest_errors():
    with pytest.raises(LengthMismatch):
        paired_t_test([1.0], [1.0, 2.0])
    with pytest.raises(TooFewPairs):
        paired_t_test([1.0], [2.0])


def test_ttest_matches_scipy_reference():
    cases = [
        ([0.136, 0.13, 0.121, 0.112, 0.089, 0.035, 0.018, 0.007, 0.003, 0.5],
         [0.456, 0.402, 0.384, 0.349, 0.282, 0.147, 0.086, 0.04, 0.02, 0.6]),
        (list(range(12)), [x + ((-1) ** x) * 0.3 * x for x in range(12)]),
        ([0.2, 0.4, 0.1, 0.9], [0.3, 0.2, 0.4, 0.8]),
    ]
    for before, after in cases:
        mine = paired_t_test(before, after)
        ref = scipy.stats.ttest_rel(after, before)
        assert mine.t == pytest.approx(ref.statistic, abs=1e-9)
        assert mine.p == pytest.approx(ref.pvalue, abs=1e-9)


def test_incomplete_beta_matches_scipy():
    for x in (0.0, 1e-6, 0.2, 0.5, 0.83, 1.0):
        for a, b in ((0.5, 0.5), (4.5, 0.5), (24.5, 0.5), (2.0, 3.0)):
            assert regularized_incomplete_beta(x, a, b) == pytest.approx(
                scipy.special.betainc(a, b, x), abs=1e-12
            )


def test_p_values_against_reference_table():
    # two-sided Student tails at the spec's reference points
    for df in (9, 49):
        for t in (1.0, 2.0, 2.5):
            ref = 2 * scipy.stats.t.sf(t, df)
            assert student_t_sf2(t, df) == pytest.approx(ref, abs=1e-3)
            assert student_t_sf2(t, df) == pytest.approx(ref, abs=1e-12)
            assert student_t_sf2(-t, df) == pytest.approx(ref, abs=1e-12)


def beta_cont_frac_reference(x: float, a: float, b: float) -> float:
    """The continued fraction with both Lentz half-steps and each clamp written out."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


@settings(max_examples=2000)
@given(x=st.floats(0.0, 1.0), a=st.floats(1e-3, 1e3), b=st.floats(1e-3, 1e3))
@example(x=1.0, a=1.0, b=1.0)  # 1 - (a + b) x / (a + 1) is 0: the first clamp holds
@example(x=0.5, a=0.5, b=0.5)
def test_beta_cont_frac_matches_reference(x, a, b):
    assert _beta_cont_frac(x, a, b) == beta_cont_frac_reference(x, a, b)
