"""Precision@k over TREC-style judgments and paired-t significance.

Precision keeps the cutoff as its denominator even for short result
lists, and topics judged in the qrels but missing from a run score zero,
both matching the standard TrecEval conventions.  The paired t-test is
two-sided; the Student tail is one finite series at the integer
degrees of freedom (Abramowitz & Stegun 26.7.3 and 26.7.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import FormatError, LengthMismatch, TooFewPairs, UnknownQuery
from .search_engine import RankedList
from .text import lines

DEFAULT_KS = (5, 10, 15, 20, 30, 100, 200, 500, 1000)


@dataclass
class Qrels:
    """Relevance judgments: request id -> doc id -> grade (>= 0)."""

    judgments: dict[str, dict[str, int]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str) -> "Qrels":
        """Whitespace-separated ``qid 0 docid rel`` rows; duplicates rejected."""
        judgments: dict[str, dict[str, int]] = {}
        for lineno, line in lines(path):
            parts = line.split()
            if len(parts) != 4:
                raise FormatError(path, lineno, f"expected 4 fields, got {len(parts)}")
            qid, _iter, doc_id, rel_s = parts
            try:
                rel = int(rel_s)
            except ValueError:
                raise FormatError(path, lineno, f"bad relevance {rel_s!r}") from None
            if rel < 0:
                raise FormatError(path, lineno, f"negative relevance {rel}")
            per_q = judgments.setdefault(qid, {})
            if doc_id in per_q:
                raise FormatError(path, lineno, f"duplicate pair ({qid}, {doc_id})")
            per_q[doc_id] = rel
        return cls(judgments)

    def __contains__(self, request_id: str) -> bool:
        return request_id in self.judgments

    def request_ids(self) -> list[str]:
        return sorted(self.judgments)

    def grade(self, request_id: str, doc_id: str) -> int:
        return self.judgments.get(request_id, {}).get(doc_id, 0)


def precision_at_k(run: RankedList, qrels: Qrels, k: int) -> float:
    """Relevant fraction of the top k; denominator stays k for short runs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if run.request_id not in qrels:
        raise UnknownQuery(f"request {run.request_id!r} has no judgments")
    judged = qrels.judgments[run.request_id]
    hits = sum(1 for doc_id in run.ids[:k] if judged.get(doc_id, 0) > 0)
    return hits / k


@dataclass
class EvalReport:
    per_query: dict[str, dict[int, float]]
    means: dict[int, float]
    ks: tuple[int, ...]
    skipped: list[str] = field(default_factory=list)  # run ids with no judgments


def evaluate(
    runs: Iterable[RankedList], qrels: Qrels, ks: Sequence[int] = DEFAULT_KS
) -> EvalReport:
    """Per-query and mean P@k over every topic in the qrels.

    Topics without run entries score 0 at every cutoff; run entries for
    unjudged topics are skipped (and reported), not averaged.
    """
    ks = tuple(ks)
    if not ks:
        raise ValueError("at least one cutoff is required")
    by_qid: dict[str, RankedList] = {}
    skipped = []
    for run in runs:
        if run.request_id not in qrels:
            skipped.append(run.request_id)
            continue
        by_qid[run.request_id] = run
    per_query: dict[str, dict[int, float]] = {}
    for qid in qrels.request_ids():
        run = by_qid[qid] if qid in by_qid else RankedList(qid, [])
        per_query[qid] = {k: precision_at_k(run, qrels, k) for k in ks}
    n = max(len(per_query), 1)
    means = {k: sum(per_query[q][k] for q in per_query) / n for k in ks}
    return EvalReport(per_query, means, ks, skipped)


# -- paired t-test -------------------------------------------------------------


class TTestResult(NamedTuple):
    t: float
    p: float
    significant: bool


def student_t_sf2(t: float, df: int) -> float:
    """Two-sided tail of Student's t at an integer ``df`` >= 1: one minus the
    finite series A(t|df) of Abramowitz & Stegun 26.7.3 (odd df) or 26.7.4
    (even df), exact to about 1e-14 absolute.  A nan ``t`` raises ValueError."""
    if math.isnan(t):
        raise ValueError("t must not be nan")
    theta = math.atan(abs(t) / math.sqrt(df))
    c2, odd = math.cos(theta) ** 2, df % 2
    term = total = float(df > 1)  # the sum over cos(theta)**(2k), empty at df = 1
    for k in range(1, df // 2):
        term *= c2 * (2 * k - 1 + odd) / (2 * k + odd)
        total += term
    s = math.sin(theta) * total
    a = 2 * (theta + s * math.cos(theta)) / math.pi if odd else s
    return max(0.0, 1.0 - a)  # rounding can push A past 1 for a large t


def paired_t_test(
    before: Sequence[float], after: Sequence[float], alpha: float = 0.05
) -> TTestResult:
    """Two-sided paired t-test on per-topic metric pairs.

    Differences are after - before.  All-zero differences give t = 0 and
    p = 1; equal nonzero differences have zero variance and get a signed
    infinite t with p = 0.  t does not depend on the scale of the
    differences, so a largest one outside [2**-500, 2**500] is brought to
    [0.5, 1) by a power of two, where squares neither underflow nor
    overflow; inside, no rescale moves the last bit of t.
    """
    if len(before) != len(after):
        raise LengthMismatch(f"{len(before)} before vs {len(after)} after values")
    n = len(before)
    if n < 2:
        raise TooFewPairs("paired t-test needs at least 2 pairs")
    diffs = [a - b for b, a in zip(before, after)]
    largest = max(map(abs, diffs))
    if largest and not 2.0**-500 <= largest <= 2.0**500:  # nan and inf keep their scale
        diffs = [math.ldexp(d, -math.frexp(largest)[1]) for d in diffs]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0 and mean == 0.0:
        return TTestResult(0.0, 1.0, False)
    t = mean / math.sqrt(var / n) if var else math.copysign(math.inf, mean)
    p = student_t_sf2(t, n - 1)
    return TTestResult(t, p, p < alpha)
