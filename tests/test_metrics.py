"""Unit tests for ranking metrics and their CSV loaders."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from sagerec.metrics import (
    RankedRecommendation,
    cold_recall,
    entropy_at_k,
    evaluate_rankings,
    ild,
    load_cold_set,
    load_ground_truth,
    load_rankings,
    ndcg_at_k,
    recall_at_k,
)


def rec(items, relevant, user_id=0):
    return RankedRecommendation(
        user_id=user_id, items=tuple(items), relevant=frozenset(relevant)
    )


def test_ranked_recommendation_rejects_duplicates():
    with pytest.raises(ValueError):
        rec([1, 2, 1], {1})


def test_recall_oracles():
    assert recall_at_k(rec(range(10), {0}), 10) == 1.0
    assert recall_at_k(rec(range(10), {99}), 10) == 0.0
    # Two relevant items, one of them at rank 3.
    assert recall_at_k(rec([5, 6, 7, 8, 9], {7, 42}), 5) == 0.5


def test_recall_validation():
    with pytest.raises(ValueError):
        recall_at_k(rec([1, 2], set()), 2)
    with pytest.raises(ValueError):
        recall_at_k(rec([1, 2], {1}), 0)
    with pytest.raises(ValueError):
        recall_at_k(rec([1, 2], {1}), 3)


def test_ndcg_oracles():
    assert ndcg_at_k(rec([3, 1, 2], {3}), 3) == 1.0
    assert ndcg_at_k(rec([9, 3, 2], {3}), 3) == pytest.approx(
        0.6309297535714574, abs=1e-12
    )
    assert ndcg_at_k(rec([9, 8, 7], {3}), 3) == 0.0
    # Both relevant items in the ideal positions.
    assert ndcg_at_k(rec([4, 5, 6], {4, 5}), 3) == pytest.approx(1.0, abs=1e-12)


def test_ndcg_idcg_truncates_at_k():
    # Three relevant items but k=2: a perfect prefix scores 1.0.
    assert ndcg_at_k(rec([1, 2], {1, 2, 3}), 2) == pytest.approx(1.0, abs=1e-12)


def test_ndcg_between_zero_and_one_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        items = tuple(rng.permutation(20)[:8].tolist())
        relevant = set(rng.choice(20, size=4, replace=False).tolist())
        value = ndcg_at_k(rec(items, relevant), 8)
        assert 0.0 <= value <= 1.0 + 1e-12


def test_entropy_at_k_oracles():
    categories = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    same = [rec([0, 1], {0}, user_id=0)]
    assert entropy_at_k(same, categories, 2) == 0.0
    # Pooled across two users the four categories appear once each.
    spread = [
        rec([0, 2], {0}, user_id=0),
        rec([4, 6], {0}, user_id=1),
    ]
    assert entropy_at_k(spread, categories, 2) == pytest.approx(
        math.log(4), abs=1e-12
    )
    assert entropy_at_k(spread, categories, 2, base=2.0) == pytest.approx(
        2.0, abs=1e-12
    )


@pytest.mark.parametrize("base", [None, 2.0])
def test_entropy_at_k_of_one_category_is_positive_zero(base):
    """A one-category pool has entropy +0.0, so metrics.json never holds -0.0."""
    categories = np.array([0, 0, 1, 1])
    value = entropy_at_k([rec([0, 1], {0})], categories, 2, base=base)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_entropy_at_k_pools_rather_than_averages():
    categories = np.array([0, 0, 1, 1])
    # Each user's list is pure, so a per-user average would be 0; the pooled
    # distribution is an even split.
    recs = [rec([0, 1], {0}, user_id=0), rec([2, 3], {0}, user_id=1)]
    assert entropy_at_k(recs, categories, 2) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_at_k_validation():
    categories = np.array([0, 1])
    with pytest.raises(ValueError):
        entropy_at_k([], categories, 2)
    with pytest.raises(ValueError):
        entropy_at_k([rec([0, 5], {0})], categories, 2)
    with pytest.raises(ValueError, match="item -1 has no category label"):
        entropy_at_k([rec([0, -1], {0})], categories, 2)


def test_ild_oracles():
    vectors = np.eye(3)
    assert ild([0, 1], vectors) == pytest.approx(1.0, abs=1e-12)
    assert ild([0, 1, 2], vectors) == pytest.approx(1.0, abs=1e-12)
    same = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert ild([0, 1], same) == pytest.approx(0.0, abs=1e-12)


def test_ild_permutation_invariant():
    rng = np.random.default_rng(3)
    vectors = rng.random((10, 4)) + 0.1
    items = [0, 3, 7, 9]
    base = ild(items, vectors)
    for _ in range(5):
        perm = rng.permutation(items).tolist()
        assert ild(perm, vectors) == pytest.approx(base, abs=1e-12)


def test_ild_validation():
    vectors = np.eye(3)
    with pytest.raises(ValueError):
        ild([0], vectors)
    with pytest.raises(ValueError):
        ild([0, 5], vectors)
    with pytest.raises(ValueError):
        ild([0, 1], np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_cold_recall_oracles():
    cold = frozenset({1, 2})
    # User 0 retrieves its only relevant cold item; user 1 has two relevant
    # cold items and retrieves one.
    recs = [
        rec([1, 5], {1, 5}, user_id=0),
        rec([2, 7], {1, 2}, user_id=1),
    ]
    value, excluded = cold_recall(recs, cold, 2)
    assert value == pytest.approx((1.0 + 0.5) / 2, abs=1e-12)
    assert excluded == 0


def test_cold_recall_none_when_no_eligible_user():
    recs = [rec([5, 6], {5}, user_id=0), rec([7, 8], {7}, user_id=1)]
    value, excluded = cold_recall(recs, frozenset({1}), 2)
    assert value is None
    assert excluded == 2
    with pytest.raises(ValueError):
        cold_recall(recs, frozenset(), 2)


def test_evaluate_rankings_aggregates():
    categories = np.array([0, 0, 1, 1])
    vectors = np.eye(4)
    recs = [
        rec([0, 2], {0}, user_id=0),
        rec([1, 3], {3}, user_id=1),
        rec([2, 0], set(), user_id=2),
    ]
    out = evaluate_rankings(recs, categories, vectors, frozenset({3}), k=2)
    assert out["schema_version"] == 1
    assert out["kind"] == "metrics"
    assert out["n_users"] == 3
    assert out["recall_at_k"] == pytest.approx(1.0, abs=1e-12)
    # User 0 hit at rank 1, user 1 hit at rank 2.
    assert out["ndcg_at_k"] == pytest.approx((1.0 + 1 / math.log2(3)) / 2, abs=1e-12)
    assert out["excluded_no_relevant"] == 1
    assert out["cold_recall"] == pytest.approx(1.0, abs=1e-12)
    assert out["excluded_no_cold_relevant"] == 2
    assert out["ild"] == pytest.approx(1.0, abs=1e-12)
    json.dumps(out)


def test_evaluate_rankings_all_excluded_yields_none():
    categories = np.array([0, 1])
    vectors = np.eye(2)
    recs = [rec([0, 1], set(), user_id=0)]
    out = evaluate_rankings(recs, categories, vectors, frozenset({0}), k=2)
    assert out["recall_at_k"] is None
    assert out["ndcg_at_k"] is None
    assert out["cold_recall"] is None
    assert out["excluded_no_relevant"] == 1


def test_evaluate_rankings_tolerates_missing_inputs():
    recs = [rec([0, 1], {0}, user_id=0)]
    out = evaluate_rankings(recs, None, None, frozenset(), k=2)
    assert out["entropy_at_k"] is None
    assert out["ild"] is None
    assert out["cold_recall"] is None
    assert out["excluded_no_cold_relevant"] == 1
    assert out["recall_at_k"] == 1.0


def test_load_ground_truth(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("user_id,item_id\n0,3\n0,5\n2,1\n")
    truth = load_ground_truth(path)
    assert truth == {0: frozenset({3, 5}), 2: frozenset({1})}


def test_load_ground_truth_rejects_duplicates_with_line(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("user_id,item_id\n0,3\n0,3\n")
    with pytest.raises(ValueError, match="truth.csv:3"):
        load_ground_truth(path)


def test_load_ground_truth_rejects_bad_header_and_fields(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("uid,item\n0,1\n")
    with pytest.raises(ValueError, match="expected header"):
        load_ground_truth(bad)
    nonint = tmp_path / "nonint.csv"
    nonint.write_text("user_id,item_id\n0,x\n")
    with pytest.raises(ValueError, match="nonint.csv:2"):
        load_ground_truth(nonint)


def test_load_rankings_roundtrip(tmp_path):
    path = tmp_path / "ranks.csv"
    path.write_text("user_id,rank,item_id\n1,2,9\n1,1,4\n0,1,2\n")
    truth = {0: frozenset({2}), 1: frozenset({9})}
    recs = load_rankings(path, truth)
    assert [r.user_id for r in recs] == [0, 1]
    assert recs[0].items == (2,)
    assert recs[1].items == (4, 9)
    assert recs[1].relevant == frozenset({9})


def test_load_rankings_missing_user_gets_empty_relevant(tmp_path):
    path = tmp_path / "ranks.csv"
    path.write_text("user_id,rank,item_id\n7,1,0\n")
    recs = load_rankings(path, {})
    assert recs[0].relevant == frozenset()


def test_load_rankings_rejects_rank_errors(tmp_path):
    gap = tmp_path / "gap.csv"
    gap.write_text("user_id,rank,item_id\n0,1,5\n0,3,6\n")
    with pytest.raises(ValueError, match="not contiguous"):
        load_rankings(gap, {})
    dup = tmp_path / "dup.csv"
    dup.write_text("user_id,rank,item_id\n0,1,5\n0,1,6\n")
    with pytest.raises(ValueError, match="dup.csv:3"):
        load_rankings(dup, {})


def test_load_cold_set(tmp_path):
    path = tmp_path / "cold.txt"
    path.write_text("3\n\n10\n7\n")
    assert load_cold_set(path) == frozenset({3, 7, 10})
    dup = tmp_path / "dup.txt"
    dup.write_text("3\n3\n")
    with pytest.raises(ValueError, match="dup.txt:2"):
        load_cold_set(dup)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ValueError, match="empty"):
        load_cold_set(empty)
    assert load_cold_set(empty, require_nonempty=False) == frozenset()
