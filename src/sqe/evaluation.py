"""Precision@k over TREC-style judgments and paired-t significance.

Precision keeps the cutoff as its denominator even for short result
lists, and topics judged in the qrels but missing from a run score zero,
both matching the standard TrecEval conventions.  The paired t-test is
two-sided; the Student tail is computed through the regularized
incomplete beta function.
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
    hits = sum(1 for doc_id, _s in run.entries[:k] if judged.get(doc_id, 0) > 0)
    return hits / k


@dataclass
class EvalReport:
    per_query: dict[str, dict[int, float]]
    means: dict[int, float]
    ks: tuple[int, ...]
    skipped: list[str] = field(default_factory=list)  # run ids with no judgments

    def to_tsv(self, label: str = "run") -> str:
        header = "\t".join([""] + [f"P@{k}" for k in self.ks])
        row = "\t".join([label] + [f"{self.means[k]:.4f}" for k in self.ks])
        return header + "\n" + row + "\n"


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
        run = by_qid.get(qid, RankedList(qid, []))
        per_query[qid] = {k: precision_at_k(run, qrels, k) for k in ks}
    n = max(len(per_query), 1)
    means = {k: sum(per_query[q][k] for q in per_query) / n for k in ks}
    return EvalReport(per_query, means, ks, skipped)


# -- paired t-test -------------------------------------------------------------


class TTestResult(NamedTuple):
    t: float
    p: float
    significant: bool


_TINY = 1e-300


def _off_zero(v: float) -> float:
    """``v``, or ``_TINY`` when it is too near 0 to divide by (Lentz's guard)."""
    return _TINY if abs(v) < _TINY else v


def _beta_cont_frac(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),  # the even, then the odd step
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _off_zero(1.0 + aa * d)
            c = _off_zero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(x, a, b) / a
    return 1.0 - front * _beta_cont_frac(1.0 - x, b, a) / b


def student_t_sf2(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t with ``df`` degrees of freedom."""
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / (df + t * t), df / 2.0, 0.5)


def paired_t_test(
    before: Sequence[float], after: Sequence[float], alpha: float = 0.05
) -> TTestResult:
    """Two-sided paired t-test on per-topic metric pairs.

    Differences are after - before.  All-zero differences give t = 0 and
    p = 1; equal nonzero differences have zero variance and get a signed
    infinite t with p = 0.
    """
    if len(before) != len(after):
        raise LengthMismatch(f"{len(before)} before vs {len(after)} after values")
    n = len(before)
    if n < 2:
        raise TooFewPairs("paired t-test needs at least 2 pairs")
    diffs = [a - b for b, a in zip(before, after)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 1.0, False)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(t, 0.0, 0.0 < alpha)
    t = mean / math.sqrt(var / n)
    p = student_t_sf2(t, n - 1)
    return TTestResult(t, p, p < alpha)
