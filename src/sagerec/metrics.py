"""Ranking evaluation: Recall@K, NDCG@K, corpus-level Entropy@K, ILD, Cold-Recall.

All metrics are pure functions over :class:`RankedRecommendation` values.
Users with no ground-truth relevant items cannot be scored and are excluded
from averages with an explicit count; Cold-Recall additionally reports absent
(None) rather than zero when no user has any relevant cold item. Averages use
compensated summation so results do not depend on accumulation order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .bounds import list_entropy

METRICS_SCHEMA_VERSION = 1
RANKING_CSV_HEADER = ("user_id", "rank", "item_id")
TRUTH_CSV_HEADER = ("user_id", "item_id")


@dataclass(frozen=True)
class RankedRecommendation:
    """One user's ranked item list plus the ground-truth relevant set."""

    user_id: int
    items: tuple[int, ...]
    relevant: frozenset[int]

    def __post_init__(self) -> None:
        if len(set(self.items)) != len(self.items):
            raise ValueError(f"user {self.user_id}: ranked list contains duplicates")


def top_k_ids(scores: np.ndarray, k: int) -> tuple[int, ...]:
    """The k highest-scoring item ids of one score row, ties broken by lower id.

    Equals the first k of a full (-score, id) lexsort. Only the items at or
    above the k-th largest score are sorted, which is O(n) per row instead of
    O(n log n).
    """
    n = scores.shape[0]
    kth = np.partition(scores, n - k)[n - k]
    candidates = np.flatnonzero(scores >= kth)
    order = np.lexsort((candidates, -scores[candidates]))
    return tuple(int(i) for i in candidates[order[:k]])


def _check_k(rec: RankedRecommendation, k: int) -> tuple[int, ...]:
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(rec.items) < k:
        raise ValueError(
            f"user {rec.user_id}: ranked list has {len(rec.items)} items, need {k}"
        )
    return rec.items[:k]


def recall_at_k(rec: RankedRecommendation, k: int) -> float:
    """|top-K intersect relevant| / |relevant|."""
    top = _check_k(rec, k)
    if not rec.relevant:
        raise ValueError(f"user {rec.user_id}: empty relevant set, recall undefined")
    return len(rec.relevant.intersection(top)) / len(rec.relevant)


def ndcg_at_k(rec: RankedRecommendation, k: int) -> float:
    """Binary-relevance NDCG with the 1/log2(rank+1) discount."""
    top = _check_k(rec, k)
    if not rec.relevant:
        raise ValueError(f"user {rec.user_id}: empty relevant set, ndcg undefined")
    dcg = math.fsum(
        1.0 / math.log2(rank + 1)
        for rank, item in enumerate(top, start=1)
        if item in rec.relevant
    )
    ideal_hits = min(k, len(rec.relevant))
    idcg = math.fsum(1.0 / math.log2(rank + 1) for rank in range(1, ideal_hits + 1))
    return dcg / idcg


def entropy_at_k(
    recs: Iterable[RankedRecommendation],
    categories,
    k: int,
    base: float | None = None,
) -> float:
    """Shannon entropy of the pooled sub-category distribution over all top-K items.

    Pooling across users (rather than averaging per-user entropies) makes this
    a corpus-level concentration measure: per-user lists can each look varied
    while the population still funnels into the same few categories.
    """
    pooled: list[int] = []
    for rec in recs:
        pooled.extend(_check_k(rec, k))
    if not pooled:
        raise ValueError("no recommendations to pool")
    return list_entropy(pooled, categories, base=base)


def ild(slate_items: Sequence[int], item_vectors: np.ndarray) -> float:
    """Mean pairwise (1 - cosine similarity) over unordered item pairs."""
    items = np.asarray(slate_items, dtype=np.intp)
    if items.shape[0] < 2:
        raise ValueError("ILD needs at least 2 items")
    if items.min() < 0 or items.max() >= item_vectors.shape[0]:
        raise ValueError("item id without a feature vector")
    vecs = item_vectors[items].astype(np.float64)
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm item vector, cosine undefined")
    unit = vecs / norms[:, None]
    sims = unit @ unit.T
    iu = np.triu_indices(items.shape[0], k=1)
    dists = np.clip(1.0 - sims[iu], 0.0, None)
    return float(dists.mean())


def cold_recall(
    recs: Iterable[RankedRecommendation], cold_set: frozenset[int], k: int
) -> tuple[float | None, int]:
    """Recall restricted to relevant cold items, averaged over eligible users.

    Returns (value, n_excluded) where value is None when no user has a
    relevant cold item: absence of evidence is reported as absence, not zero.
    """
    if not cold_set:
        raise ValueError("cold set is empty")
    scores: list[float] = []
    excluded = 0
    for rec in recs:
        top = _check_k(rec, k)
        rel_cold = rec.relevant.intersection(cold_set)
        if not rel_cold:
            excluded += 1
            continue
        scores.append(len(rel_cold.intersection(top)) / len(rel_cold))
    if not scores:
        return None, excluded
    return math.fsum(scores) / len(scores), excluded


def evaluate_rankings(
    recs: Sequence[RankedRecommendation],
    categories,
    item_vectors: np.ndarray | None,
    cold_set: frozenset[int],
    k: int,
    entropy_base: float | None = None,
) -> dict:
    """Aggregate the full metric suite over one set of per-user rankings.

    Users without relevant items are skipped for recall/NDCG and counted in
    ``excluded_no_relevant``; Cold-Recall's own exclusion count is reported
    alongside. Metrics whose inputs are unavailable (no category labels, no
    item vectors, empty cold set) are reported as None rather than guessed.
    The result is a flat JSON-serializable dict.
    """
    if not recs:
        raise ValueError("no recommendations to evaluate")
    recalls: list[float] = []
    ndcgs: list[float] = []
    excluded_no_relevant = 0
    for rec in recs:
        _check_k(rec, k)
        if not rec.relevant:
            excluded_no_relevant += 1
            continue
        recalls.append(recall_at_k(rec, k))
        ndcgs.append(ndcg_at_k(rec, k))
    if item_vectors is not None:
        ild_values = [ild(rec.items[:k], item_vectors) for rec in recs]
        ild_mean = math.fsum(ild_values) / len(ild_values)
    else:
        ild_mean = None
    if categories is not None:
        entropy = entropy_at_k(recs, categories, k, base=entropy_base)
    else:
        entropy = None
    if cold_set:
        cold_value, cold_excluded = cold_recall(recs, cold_set, k)
    else:
        cold_value, cold_excluded = None, len(recs)
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "kind": "metrics",
        "k": k,
        "n_users": len(recs),
        "recall_at_k": math.fsum(recalls) / len(recalls) if recalls else None,
        "ndcg_at_k": math.fsum(ndcgs) / len(ndcgs) if ndcgs else None,
        "entropy_at_k": entropy,
        "ild": ild_mean,
        "cold_recall": cold_value,
        "excluded_no_relevant": excluded_no_relevant,
        "excluded_no_cold_relevant": cold_excluded,
    }


def _read_csv_rows(path: str | Path, header: tuple[str, ...]) -> Iterable[tuple[int, list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or tuple(first) != header:
            raise ValueError(f"{path}: expected header {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
                )
            yield lineno, row


def load_ground_truth(path: str | Path) -> dict[int, frozenset[int]]:
    """Read relevant items as CSV ``user_id,item_id``; duplicates are rejected."""
    truth: dict[int, set[int]] = {}
    for lineno, row in _read_csv_rows(path, TRUTH_CSV_HEADER):
        try:
            user, item = int(row[0]), int(row[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-integer field") from exc
        if item in truth.setdefault(user, set()):
            raise ValueError(f"{path}:{lineno}: duplicate pair ({user}, {item})")
        truth[user].add(item)
    if not truth:
        raise ValueError(f"{path}: no ground-truth rows")
    return {u: frozenset(s) for u, s in truth.items()}


def load_rankings(
    path: str | Path, truth: dict[int, frozenset[int]]
) -> list[RankedRecommendation]:
    """Read rankings as CSV ``user_id,rank,item_id``.

    Ranks must form 1..n per user with no gaps; users missing from the ground
    truth get an empty relevant set (they are excluded from averages, with a
    count, rather than dropped silently).
    """
    per_user: dict[int, dict[int, int]] = {}
    for lineno, row in _read_csv_rows(path, RANKING_CSV_HEADER):
        try:
            user, rank, item = int(row[0]), int(row[1]), int(row[2])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-integer field") from exc
        ranks = per_user.setdefault(user, {})
        if rank in ranks:
            raise ValueError(f"{path}:{lineno}: duplicate rank {rank} for user {user}")
        ranks[rank] = item
    if not per_user:
        raise ValueError(f"{path}: no ranking rows")
    recs = []
    for user in sorted(per_user):
        ranks = per_user[user]
        expected = set(range(1, len(ranks) + 1))
        if set(ranks) != expected:
            raise ValueError(f"{path}: user {user} ranks are not contiguous from 1")
        items = tuple(ranks[r] for r in sorted(ranks))
        recs.append(
            RankedRecommendation(
                user_id=user, items=items, relevant=truth.get(user, frozenset())
            )
        )
    return recs


def load_cold_set(path: str | Path, require_nonempty: bool = True) -> frozenset[int]:
    """Read a cold-item set, one id per line; duplicates are rejected.

    With ``require_nonempty=False`` an id-free file yields the empty set, which
    downstream reporting renders as an absent Cold-Recall.
    """
    seen: set[int] = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                item = int(text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer id {text!r}") from exc
            if item in seen:
                raise ValueError(f"{path}:{lineno}: duplicate id {item}")
            seen.add(item)
    if not seen and require_nonempty:
        raise ValueError(f"{path}: cold set file is empty")
    return frozenset(seen)
