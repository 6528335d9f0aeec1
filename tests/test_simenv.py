"""Unit tests for the synthetic world: catalog, users, log, feedback, cold set."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sagerec.simenv import (
    Catalog,
    FeedbackConfig,
    InteractionLog,
    WorldConfig,
    build_world,
    feedback,
    feedback_noise,
    generate_catalog,
    generate_users,
    identify_cold_items,
    item_vectors,
    load_catalog,
    logged_pretraining,
    relevant_items,
    save_catalog,
)


def make_catalog(n_items: int, n_subcats: int, zipf_exponent: float, seed):
    """The catalog of a world of these sizes, at ``WorldConfig``'s default cold fraction.

    The catalog does not read ``n_relevant``; 1 keeps a 10-item world valid.
    """
    config = WorldConfig(
        n_items=n_items, n_subcats=n_subcats, zipf_exponent=zipf_exponent, n_relevant=1
    )
    return generate_catalog(config, seed)


def make_users(n_users: int, n_subcats: int, seed, **knobs):
    """(preference, engagement) of a world with these sizes and ``WorldConfig`` ``knobs``."""
    return generate_users(WorldConfig(n_users=n_users, n_subcats=n_subcats, **knobs), seed)


def uniform_users(n_subcats: int, engagement: float = 30.0, n: int = 1):
    """(preference, engagement) arrays of ``n`` users with uniform taste."""
    return np.full((n, n_subcats), 1.0 / n_subcats), np.full(n, engagement)


def test_generate_catalog_shapes_and_ranges():
    cat = make_catalog(100, 8, 1.1, seed=4)
    assert cat.n_items == 100
    assert cat.categories.min() >= 0 and cat.categories.max() < 8
    assert np.all((cat.quality >= 0) & (cat.quality <= 1))
    assert np.all(cat.popularity > 0)
    assert cat.popularity.sum() == pytest.approx(1.0, abs=1e-12)
    assert cat.cold_items == frozenset()


def test_generate_catalog_deterministic():
    a = make_catalog(60, 6, 1.3, seed=9)
    b = make_catalog(60, 6, 1.3, seed=9)
    assert np.array_equal(a.categories, b.categories)
    assert np.array_equal(a.quality, b.quality)
    assert np.array_equal(a.popularity, b.popularity)


def test_generate_catalog_zero_exponent_is_uniform():
    cat = make_catalog(50, 5, 0.0, seed=1)
    assert np.all(np.abs(cat.popularity - 1.0 / 50) < 1e-9)


def test_generate_catalog_tail_contains_quality():
    """The less-popular half of the catalog holds every at-least-median quality value."""
    for seed in range(6):
        cat = make_catalog(100, 8, 1.2, seed=seed)
        pool = np.lexsort((np.arange(100), cat.popularity))[:50]
        median_q = np.median(cat.quality)
        assert np.all(cat.quality[pool] >= median_q)
        rest = np.lexsort((np.arange(100), cat.popularity))[50:]
        assert np.all(cat.quality[rest] < median_q)


def test_generate_catalog_floor_holds_top_quality():
    """The least-popular cold-fraction floor holds exactly the top quality values."""
    for seed in range(6):
        cat = make_catalog(100, 8, 1.2, seed=seed)
        floor = np.lexsort((np.arange(100), cat.popularity))[:20]
        top_values = np.sort(cat.quality)[-20:]
        assert np.array_equal(np.sort(cat.quality[floor]), top_values)


def test_generate_users_simplex_and_determinism():
    pref, engagement = make_users(30, 10, seed=2)
    assert pref.shape == (30, 10) and engagement.shape == (30,)
    assert np.all(pref >= 0)
    assert np.all(np.abs(pref.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all((engagement >= 20.0) & (engagement <= 60.0))
    again_pref, again_engagement = make_users(30, 10, seed=2)
    assert np.array_equal(pref, again_pref)
    assert np.array_equal(engagement, again_engagement)


def test_generate_users_pure_mainstream_collapses_to_prior():
    pref, _ = make_users(5, 6, seed=0, mainstream_weight=1.0)
    prior = 1.0 / (np.arange(6) + 1.0)
    prior = prior / prior.sum()
    for row in pref:
        assert row == pytest.approx(prior, abs=1e-12)


def test_logged_pretraining_deterministic_and_in_range():
    cat = make_catalog(40, 4, 1.1, seed=3)
    pref, _ = make_users(6, 4, seed=5)
    log1 = logged_pretraining(cat, pref, 500, seed=11)
    log2 = logged_pretraining(cat, pref, 500, seed=11)
    assert len(log1) == 500
    assert np.array_equal(log1.item_ids, log2.item_ids)
    assert np.array_equal(log1.user_ids, log2.user_ids)
    assert log1.item_ids.min() >= 0 and log1.item_ids.max() < 40
    assert log1.user_ids.min() >= 0 and log1.user_ids.max() < 6


def test_logged_pretraining_extreme_popularity_concentrates():
    # With a huge exponent all weight sits on the single most popular item.
    cat = make_catalog(10, 2, 60.0, seed=7)
    pref, _ = uniform_users(2)
    log = logged_pretraining(cat, pref, 300, seed=1)
    top = int(np.argmax(cat.popularity))
    assert np.all(log.item_ids == top)


def test_logged_pretraining_counts_track_weights():
    """Single-user draw frequencies stay within 3 sigma of the sampling weights."""
    cat = make_catalog(12, 3, 0.8, seed=8)
    pref, _ = uniform_users(3)
    n = 20000
    log = logged_pretraining(cat, pref, n, seed=2)
    weights = cat.popularity * pref[0, cat.categories]
    p = weights / weights.sum()
    counts = log.item_counts(12)
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3 * sigma + 1e-9)


def score(users, slates, cat, rng, cfg):
    """``feedback`` of the (preference, engagement) ``users`` on fresh draws from ``rng``,
    made as a training step makes them."""
    return feedback(*users, slates, cat, *feedback_noise(rng, np.shape(slates), cfg), cfg)


def score_one(user, items, cat, rng, cfg):
    """(clicks, watch) of one slate: a one-user, one-slate batch."""
    return score(user, [[items]], cat, rng, cfg)[0, 0]


def test_feedback_floor_and_ceiling():
    cat = make_catalog(20, 4, 1.0, seed=0)
    user = uniform_users(4, engagement=10.0)
    rng = np.random.default_rng(0)
    floor_cfg = FeedbackConfig(click_bias=-1e3, watch_noise_sigma=0.0)
    assert score_one(user, [0, 1, 2], cat, rng, floor_cfg) == pytest.approx([0.0, 0.0])
    ceil_cfg = FeedbackConfig(click_bias=1e3, watch_noise_sigma=0.0)
    items = [3, 4, 5, 6]
    reward = score_one(user, items, cat, rng, ceil_cfg)
    assert reward[0] == len(items)
    assert reward[1] == pytest.approx(10.0 * cat.quality[items].sum(), rel=1e-12)


def test_feedback_click_mean_matches_analytic():
    cat = make_catalog(30, 5, 1.0, seed=6)
    user = make_users(1, 5, seed=3)
    pref = user[0][0]
    cfg = FeedbackConfig()
    items = np.array([0, 5, 12, 20, 28])
    p = 1.0 / (
        1.0
        + np.exp(
            -(
                cfg.affinity_weight * pref[cat.categories[items]]
                + cfg.quality_weight * cat.quality[items]
                + cfg.click_bias
            )
        )
    )
    rng = np.random.default_rng(42)
    trials = 10000
    total = sum(score_one(user, items, cat, rng, cfg)[0] for _ in range(trials))
    mean = total / trials
    sigma = math.sqrt(float((p * (1 - p)).sum()) / trials)
    assert abs(mean - p.sum()) <= 3 * sigma


def test_feedback_watch_needs_clicks():
    cat = make_catalog(20, 4, 1.0, seed=1)
    uniform_pref, uniform_engagement = uniform_users(4)
    pref, engagement = make_users(1, 4, seed=2)
    users = np.vstack([uniform_pref, pref]), np.concatenate([uniform_engagement, engagement])
    cfg = FeedbackConfig()
    rng = np.random.default_rng(5)
    for _ in range(100):
        rewards = score(users, [[[1, 2, 3]] * 3, [[4, 5, 6]] * 3], cat, rng, cfg)
        assert rewards.shape == (2, 3, 2)
        clicks, watch = rewards[..., 0], rewards[..., 1]
        assert np.all(np.isfinite(watch)) and np.all(watch >= 0)
        assert np.all(watch[clicks == 0] == 0.0)


def test_feedback_rejects_bad_slates():
    cat = make_catalog(20, 4, 1.0, seed=1)
    user = uniform_users(4)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        score_one(user, [], cat, rng, FeedbackConfig())
    with pytest.raises(ValueError):
        score_one(user, [25], cat, rng, FeedbackConfig())
    with pytest.raises(ValueError):
        score(user, [0, 1, 2], cat, rng, FeedbackConfig())  # not (B, G, L)
    with pytest.raises(ValueError):
        score(uniform_users(4, n=2), [[[0, 1]]], cat, rng, FeedbackConfig())  # one row, two users
    with pytest.raises(ValueError):
        score((user[0], np.full(2, 30.0)), [[[0, 1]]], cat, rng, FeedbackConfig())  # two engagements
    uniforms, noise = feedback_noise(rng, (1, 1, 3), FeedbackConfig())
    with pytest.raises(ValueError, match="draws"):
        feedback(*user, [[[0, 1]]], cat, uniforms, noise, FeedbackConfig())


def test_feedback_batch_rejects_out_of_range_ids():
    cat = make_catalog(20, 4, 1.0, seed=1)
    users = make_users(3, 4, seed=9)
    rng = np.random.default_rng(0)
    slates = np.tile(np.arange(4), (3, 2, 1))
    assert score(users, slates, cat, rng, FeedbackConfig()).shape == (3, 2, 2)
    for bad in (20, -1):
        corrupt = slates.copy()
        corrupt[2, 1, 3] = bad
        with pytest.raises(ValueError, match="beyond the catalog"):
            score(users, corrupt, cat, rng, FeedbackConfig())


def test_feedback_random_stream_is_pinned():
    """A fixed seed scores one slate to the same numbers as the single-slate model it replaced."""
    cat = make_catalog(30, 5, 1.0, seed=11)
    user = make_users(1, 5, seed=4)
    rng = np.random.default_rng(2024)
    clicks, watch = score_one(user, [2, 7, 11, 19, 23, 29], cat, rng, FeedbackConfig())
    assert clicks == 2.0
    assert watch == pytest.approx(43.75727696174242, rel=1e-12)


def test_identify_cold_items_oracle():
    counts = np.array([5, 1, 3, 0])
    assert identify_cold_items(counts, 0.5, np.zeros(4)) == frozenset({1, 3})
    assert identify_cold_items(counts, 0.999, np.zeros(4)) == frozenset({0, 1, 2, 3})
    # All-equal counts and tiebreak keys fall back to the lowest ids.
    assert identify_cold_items(np.full(6, 7), 0.5, np.zeros(6)) == frozenset({0, 1, 2})
    # A tiebreak key beats the id fallback; ids still settle exact ties.
    key = np.array([3.0, 2.0, 1.0, 1.0, 5.0, 4.0])
    assert identify_cold_items(np.full(6, 7), 0.5, key) == frozenset({1, 2, 3})
    # Counts of a log: item 1 is never interacted with and is the coldest.
    log = InteractionLog(
        user_ids=np.zeros(4, dtype=np.int64),
        item_ids=np.array([0, 0, 2, 2], dtype=np.int64),
    )
    assert identify_cold_items(log.item_counts(3), 0.333, np.zeros(3)) == frozenset({1})
    assert identify_cold_items(log.item_counts(3), 0.5, np.zeros(3)) == frozenset({0, 1})


def test_relevant_items_follow_click_probability():
    config = WorldConfig(n_items=15, n_subcats=3, zipf_exponent=1.0, n_relevant=4)
    cat = generate_catalog(config, seed=4)
    pref, _ = make_users(1, 3, seed=9)
    (rel,) = relevant_items(cat, pref, config)
    cfg = config.feedback
    logits = (
        cfg.affinity_weight * pref[0, cat.categories]
        + cfg.quality_weight * cat.quality
        + cfg.click_bias
    )
    expected = set(np.lexsort((np.arange(15), -logits))[:4].tolist())
    assert rel == frozenset(expected)


def test_item_vectors_layout():
    cat = make_catalog(10, 4, 1.0, seed=2)
    vecs = item_vectors(cat)
    assert vecs.shape == (10, 5)
    for i in range(10):
        onehot = np.zeros(4)
        onehot[cat.categories[i]] = 1.0
        assert np.array_equal(vecs[i, :4], onehot)
        assert vecs[i, 4] == cat.quality[i]


def test_build_world_cold_set_comes_from_log():
    config = WorldConfig(
        n_items=80, n_subcats=6, n_users=12, n_pretrain_interactions=2000, n_relevant=6
    )
    world = build_world(config, seed=13)
    assert len(world.catalog.cold_items) == math.ceil(0.2 * 80)
    expected = identify_cold_items(world.log.item_counts(80), 0.2, world.catalog.popularity)
    assert world.catalog.cold_items == expected
    assert len(world.relevant) == 12
    assert world.preference.shape == (12, 6) and world.engagement.shape == (12,)


def test_build_world_deterministic():
    config = WorldConfig(
        n_items=50, n_subcats=5, n_users=6, n_pretrain_interactions=800, n_relevant=5
    )
    a = build_world(config, seed=21)
    b = build_world(config, seed=21)
    assert np.array_equal(a.catalog.quality, b.catalog.quality)
    assert np.array_equal(a.log.item_ids, b.log.item_ids)
    assert a.catalog.cold_items == b.catalog.cold_items
    assert a.relevant == b.relevant


def test_catalog_json_roundtrip(tmp_path):
    cat = make_catalog(25, 4, 1.1, seed=5).with_cold_items(frozenset({1, 7}))
    path = tmp_path / "catalog.json"
    save_catalog(cat, path)
    loaded = load_catalog(path)
    assert np.array_equal(loaded.categories, cat.categories)
    assert np.array_equal(loaded.quality, cat.quality)
    assert np.array_equal(loaded.popularity, cat.popularity)
    assert loaded.cold_items == cat.cold_items


def test_catalog_rejects_foreign_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"kind": "policy_checkpoint"}')
    with pytest.raises(ValueError):
        load_catalog(path)


def test_catalog_with_cold_items_validates_range():
    cat = make_catalog(10, 3, 1.0, seed=0)
    with pytest.raises(ValueError):
        cat.with_cold_items(frozenset({99}))
