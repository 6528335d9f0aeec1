"""Unit tests for the training loop, gradients, and reports."""

from __future__ import annotations

import functools
import math
import re
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sagerec import trainer
from sagerec.bounds import (
    BoundConfig,
    EntropyTracker,
    gbpo_coefficients,
    grpo_clip_coefficients,
    list_entropy,
    sage_coefficients,
    update_entropy_ema,
)
from sagerec.metrics import top_k_ids
from sagerec.policy import (
    PolicyGradient,
    PolicyParams,
    SlateScan,
    gumbel_top_k,
    init_policy,
    log_prob_grad,
    mean_first_position_mass,
    slate_log_prob,
    snapshot,
    user_scores,
)
from sagerec.signals import (
    batch_normalize,
    decoupled_advantage,
    group_normalize,
    naive_advantage,
)
from sagerec.simenv import WorldConfig, build_world
from sagerec.trainer import (
    ExperimentReport,
    NumericAbort,
    OptimizerState,
    StepBatch,
    StepRecord,
    TrainConfig,
    _batch_advantages,
    _collect_batch,
    _draw_step,
    apply_update,
    collect_batch,
    compute_gradient,
    evaluate_policy,
    rank_items,
    train,
)


WORLD_CONFIG = WorldConfig(
    n_items=30,
    n_subcats=5,
    n_users=10,
    zipf_exponent=1.0,
    cold_fraction=0.2,
    n_pretrain_interactions=600,
    n_relevant=5,
)


@functools.cache
def tiny_world():
    """Built once; the property tests call it because they cannot take fixtures."""
    return build_world(WORLD_CONFIG, seed=17)


@pytest.fixture(scope="module")
def world():
    return tiny_world()


def small_config(**overrides) -> TrainConfig:
    base = dict(
        optimizer="sage",
        group_size=4,
        users_per_step=4,
        learning_rate=0.05,
        total_steps=5,
        slate_length=3,
        embedding_dim=6,
        seed=11,
    )
    base.update(overrides)
    return TrainConfig(**base)


def make_params(world, seed=3):
    counts = world.log.item_counts(world.catalog.n_items)
    return init_policy(
        world.config.n_users, world.catalog.n_items, 6, seed=seed, item_counts=counts
    )


def reference_advantages(batch, cfg):
    per = []
    for rewards in batch.rewards:
        if cfg.advantage_mode == "decoupled":
            z = group_normalize(rewards, cfg.norm_eps)
            per.append(decoupled_advantage(z, cfg.reward_weights))
        else:
            per.append(naive_advantage(rewards, cfg.reward_weights, cfg.norm_eps))
    return batch_normalize(np.concatenate(per), cfg.norm_eps)


def reference_gradient(batch, params, config, tracker):
    """Slate-by-slate re-derivation of the batch gradient from public pieces."""
    cfg = config.resolve()
    L = cfg.slate_length
    S = batch.entropies.size
    advantages = reference_advantages(batch, cfg)
    grad = PolicyGradient.zeros_like(params)
    idx = 0
    for user, user_items, user_logps in zip(batch.users, batch.items, batch.logps):
        for items, old_logps in zip(user_items, user_logps):
            _, new_pp = slate_log_prob(params, int(user), items)
            r = float(np.exp(np.mean(new_pp - old_logps)))
            a = float(advantages[idx])
            if cfg.optimizer == "sage":
                coef = sage_coefficients(r, a, float(batch.entropies[idx]), tracker, cfg.bounds)
            elif cfg.optimizer == "gbpo":
                coef = gbpo_coefficients(r)
            else:
                coef = grpo_clip_coefficients(r, a, cfg.grpo_clip_eps)
            lg = log_prob_grad(params, int(user), items)
            scale = coef * a / (L * S)
            grad.item_bias += scale * lg.item_bias
            grad.item_embeddings += scale * lg.item_embeddings
            grad.user_embeddings += scale * lg.user_embeddings
            idx += 1
    return grad


def grads_close(a: PolicyGradient, b: PolicyGradient, atol=1e-12) -> bool:
    return (
        np.allclose(a.item_bias, b.item_bias, rtol=1e-9, atol=atol)
        and np.allclose(a.item_embeddings, b.item_embeddings, rtol=1e-9, atol=atol)
        and np.allclose(a.user_embeddings, b.user_embeddings, rtol=1e-9, atol=atol)
    )


def test_train_config_validation():
    with pytest.raises(ValueError):
        small_config(group_size=1)
    with pytest.raises(ValueError):
        small_config(optimizer="sagex")
    with pytest.raises(ValueError):
        small_config(advantage_mode="both")
    with pytest.raises(ValueError):
        small_config(learning_rate=0.0)
    with pytest.raises(ValueError):
        small_config(reward_weights=(0.5, -0.1))
    for weights in ((1.0,), (0.3, 0.3, 0.4)):
        with pytest.raises(ValueError, match="one per feedback objective"):
            small_config(reward_weights=weights)
    with pytest.raises(ValueError):
        small_config(updates_per_snapshot=0)
    with pytest.raises(ValueError, match="eval_k"):
        small_config(eval_k=0)
    with pytest.raises(ValueError, match="norm_eps"):
        small_config(norm_eps=-1.0)
    for clip_eps in (0.0, 1.0, 7.0, -0.2):
        with pytest.raises(ValueError, match="grpo_clip_eps"):
            small_config(grpo_clip_eps=clip_eps)
    for key, value in (
        ("slate_length", 0),
        ("users_per_step", 0),
        ("total_steps", -1),
        ("update_rule", "rmsprop"),
        ("embedding_dim", 0),
        ("checkpoint_every", -1),
    ):
        with pytest.raises(ValueError, match=key):
            small_config(**{key: value})
    small_config(eval_k=1, norm_eps=0.0, grpo_clip_eps=0.5)


def test_resolve_ablation_aliases():
    no_boost = small_config(optimizer="sage-no-boost").resolve()
    assert no_boost.optimizer == "sage"
    assert no_boost.bounds.eps_boost == 0.0
    no_entropy = small_config(optimizer="sage-no-entropy").resolve()
    assert no_entropy.optimizer == "sage"
    assert no_entropy.bounds.diversity_temp == 0.0
    no_decoupling = small_config(optimizer="sage-no-decoupling").resolve()
    assert no_decoupling.optimizer == "sage"
    assert no_decoupling.advantage_mode == "naive"
    base = small_config()
    assert base.resolve() is base


def test_collect_batch_contract(world):
    params = make_params(world)
    frozen = snapshot(params)
    for users in ([3], [3, 0, 7]):
        B = len(users)
        batch = collect_batch(frozen, world, np.array(users), 4, 3, np.random.default_rng(2))
        # The caller may move the parameters, so no scan of the snapshot is kept.
        assert batch.scan is None
        assert batch.users.tolist() == users
        assert batch.items.shape == batch.logps.shape == (B, 4, 3)
        assert batch.rewards.shape == (B, 4, 2)
        assert np.all(np.isfinite(batch.rewards))
        assert np.all(batch.rewards >= 0)
        assert batch.entropies.shape == (B * 4,)
        for user, user_items, user_logps in zip(users, batch.items, batch.logps):
            for items, logps in zip(user_items, user_logps):
                assert len(set(items.tolist())) == 3
                # Collected log-probs must be exactly what rescoring them gives.
                _, per_position = slate_log_prob(params, user, items)
                assert np.array_equal(logps, per_position)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="group_size"):
        collect_batch(frozen, world, np.array([1]), 1, 3, rng)
    with pytest.raises(ValueError, match="empty user batch"):
        collect_batch(frozen, world, np.array([], dtype=np.intp), 4, 3, rng)


def test_collect_batch_deterministic(world):
    """Equal seeds give equal batches, and the draws are one step's for the named users."""
    frozen = snapshot(make_params(world))
    for users in (np.array([1]), np.array([1, 6, 4])):
        a = collect_batch(frozen, world, users, 4, 3, np.random.default_rng(9))
        b = collect_batch(frozen, world, users, 4, 3, np.random.default_rng(9))
        noise = np.empty((len(users), 4, world.catalog.n_items))
        draws = _draw_step(np.random.default_rng(9), noise, 3, world.config.feedback)
        step = _collect_batch(frozen, world, users, draws)
        for other in (b, step):
            assert np.array_equal(a.users, other.users)
            assert np.array_equal(a.items, other.items)
            assert np.array_equal(a.logps, other.logps)
            assert np.array_equal(a.rewards, other.rewards)
            assert np.array_equal(a.entropies, other.entropies)


def test_compute_gradient_matches_reference(world):
    config = small_config()
    params = make_params(world)
    frozen = snapshot(params)
    batch = collect_batch(
        frozen, world, np.array([0, 2, 5]), config.group_size, config.slate_length,
        np.random.default_rng(5),
    )
    tracker = update_entropy_ema(EntropyTracker(decay=0.99), 1.5)
    for optimizer in ("sage", "gbpo", "grpo", "sage-no-decoupling"):
        cfg = replace(config, optimizer=optimizer)
        result = compute_gradient(batch, params, cfg, tracker)
        expected = reference_gradient(batch, params, cfg, tracker)
        assert grads_close(result.gradient, expected)
        assert result.ratios.shape == result.coefficients.shape == (12,)
        # On-policy: every ratio is exactly 1.
        assert np.all(result.ratios == 1.0)


def test_compute_gradient_matches_reference_off_policy(world):
    config = small_config()
    params = make_params(world)
    frozen = snapshot(params)
    batch = collect_batch(
        frozen, world, np.array([1, 4, 7]), config.group_size, config.slate_length,
        np.random.default_rng(5),
    )
    tracker = update_entropy_ema(EntropyTracker(decay=0.99), 1.5)
    first = compute_gradient(batch, params, config, tracker)
    apply_update(params, first.gradient, OptimizerState(), config)
    for optimizer in ("sage", "gbpo", "grpo"):
        cfg = replace(config, optimizer=optimizer)
        result = compute_gradient(batch, params, cfg, tracker)
        expected = reference_gradient(batch, params, cfg, tracker)
        assert grads_close(result.gradient, expected)
        assert result.ratios.max() > result.ratios.min()


def assert_results_identical(a, b):
    for name in ("item_bias", "item_embeddings", "user_embeddings"):
        assert np.array_equal(getattr(a.gradient, name), getattr(b.gradient, name))
    assert np.array_equal(a.ratios, b.ratios)
    assert np.array_equal(a.coefficients, b.coefficients)


batch_shapes = dict(
    n_users=st.integers(1, 4),
    group_size=st.integers(2, 5),
    slate_length=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=30, deadline=None)
@given(**batch_shapes, optimizer=st.sampled_from(("sage", "gbpo", "grpo", "sage-no-decoupling")))
def test_fast_path_equals_rescoring_scan(n_users, group_size, slate_length, seed, optimizer):
    """Pass 0 reuses the collection's scan; rescoring the users gives the same bits."""
    world = tiny_world()
    config = small_config(
        optimizer=optimizer, group_size=group_size, slate_length=slate_length, seed=seed
    )
    params = make_params(world, seed=seed)
    frozen = snapshot(params)
    rng = np.random.default_rng(seed)
    users = rng.choice(world.config.n_users, size=n_users, replace=False)
    noise = np.empty((n_users, group_size, world.catalog.n_items))
    batch = _collect_batch(frozen, world, users, _draw_step(rng, noise, slate_length, world.config.feedback))
    rescan = SlateScan(np.stack([user_scores(params, int(u)) for u in users]), batch.items)
    assert np.array_equal(batch.scan.logps, rescan.logps)
    tracker = update_entropy_ema(EntropyTracker(decay=0.99), 1.0)
    fast = compute_gradient(batch, params, config, tracker)
    scanned = compute_gradient(replace(batch, scan=None), params, config, tracker)
    assert_results_identical(fast, scanned)


@settings(max_examples=30, deadline=None)
@given(**batch_shapes)
def test_collected_entropies_are_list_entropy(n_users, group_size, slate_length, seed):
    """The penalty's per-slate entropies are the metric's ``list_entropy``, bitwise.

    The tiny world has five categories, and numpy adds a row of fewer than eight
    terms in order, so a zero-padded count row sums like the metric's compact one.
    """
    world = tiny_world()
    params = make_params(world, seed=seed)
    rng = np.random.default_rng(seed)
    users = rng.choice(world.config.n_users, size=n_users, replace=False)
    batch = collect_batch(snapshot(params), world, users, group_size, slate_length, rng)
    slates = batch.items.reshape(-1, slate_length)
    assert batch.entropies.tolist() == [list_entropy(s, world.catalog.categories) for s in slates]


def test_collected_entropies_on_a_wide_catalog_within_one_ulp():
    """At 24 categories the padded rows are summed pairwise, so the last bit may differ."""
    world = build_world(replace(WORLD_CONFIG, n_items=120, n_subcats=24), seed=3)
    params = make_params(world)
    rng = np.random.default_rng(4)
    users = np.arange(world.config.n_users)
    batch = collect_batch(snapshot(params), world, users, 8, 6, rng)
    expected = np.array([list_entropy(s, world.catalog.categories) for s in batch.items.reshape(-1, 6)])
    assert np.all(np.abs(batch.entropies - expected) <= np.spacing(expected))


@settings(max_examples=30, deadline=None)
@given(
    **batch_shapes,
    optimizer=st.sampled_from(("sage", "gbpo", "grpo", "sage-no-boost", "sage-no-decoupling")),
    updates=st.integers(1, 3),
    update_rule=st.sampled_from(("sgd", "adam")),
    constant_rewards=st.booleans(),
)
# Off-policy Adam passes, whatever else the search draws.
@example(
    n_users=3, group_size=4, slate_length=3, seed=7, optimizer="sage",
    updates=3, update_rule="adam", constant_rewards=False,
)
@example(
    n_users=2, group_size=3, slate_length=2, seed=8, optimizer="grpo",
    updates=3, update_rule="adam", constant_rewards=False,
)
def test_every_pass_matches_the_slate_reference(
    n_users, group_size, slate_length, seed, optimizer, updates, update_rule, constant_rewards
):
    """Every pass of a step, on-policy from the collection's scan and off-policy
    after rescoring the moved users, equals the slate-by-slate reference."""
    world = tiny_world()
    config = small_config(
        optimizer=optimizer,
        group_size=group_size,
        slate_length=slate_length,
        updates_per_snapshot=updates,
        update_rule=update_rule,
        learning_rate=5.0,
        seed=seed,
    )
    params = make_params(world, seed=seed)
    frozen = snapshot(params)
    rng = np.random.default_rng(seed)
    users = rng.choice(world.config.n_users, size=n_users, replace=False)
    noise = np.empty((n_users, group_size, world.catalog.n_items))
    batch = _collect_batch(frozen, world, users, _draw_step(rng, noise, slate_length, world.config.feedback))
    if constant_rewards:
        batch.rewards[:] = 1.0
    advantages = _batch_advantages(batch.rewards, config.resolve())
    assert np.allclose(advantages, reference_advantages(batch, config.resolve()), rtol=1e-12, atol=1e-12)
    tracker = update_entropy_ema(EntropyTracker(decay=0.99), 1.0)
    state = OptimizerState()
    for k in range(updates):
        result = compute_gradient(batch, params, config, tracker, advantages)
        assert grads_close(result.gradient, reference_gradient(batch, params, config, tracker))
        if k == 0:
            assert np.all(result.ratios == 1.0)
        if constant_rewards:
            assert not np.any(result.gradient.item_bias)
        batch.scan = None
        params = apply_update(params, result.gradient, state, config)


def test_on_policy_optimizers_agree(world):
    """With ratios at 1 and a fresh tracker, all three rules reduce to A*grad."""
    config = small_config()
    params = make_params(world)
    frozen = snapshot(params)
    batch = collect_batch(
        frozen, world, np.array([2, 6, 8]), config.group_size, config.slate_length,
        np.random.default_rng(5),
    )
    results = {
        name: compute_gradient(
            batch, params, replace(config, optimizer=name),
            EntropyTracker(decay=0.99),
        )
        for name in ("sage", "gbpo", "grpo")
    }
    for name in ("gbpo", "grpo"):
        assert np.allclose(
            results["sage"].gradient.item_bias,
            results[name].gradient.item_bias,
            atol=1e-12,
        )
        assert np.allclose(
            results["sage"].gradient.item_embeddings,
            results[name].gradient.item_embeddings,
            atol=1e-12,
        )
    assert np.all(results["sage"].coefficients == 1.0)


def hand_params():
    """One user, four items, d = 2; item 3 starts far behind (a cold item)."""
    return PolicyParams(
        user_embeddings=np.array([[0.6, -0.4]]),
        item_embeddings=np.array([[0.5, 0.1], [0.3, -0.2], [-0.1, 0.4], [0.2, 0.3]]),
        item_bias=np.array([0.4, 0.2, 0.0, -1.0]),
    )


def hand_batch(slates, log_ratios, entropies):
    """User 0's slates, with snapshot log-probs ``log_ratios`` below ``hand_params``'."""
    params = hand_params()
    logps = [slate_log_prob(params, 0, s)[1] - lr for s, lr in zip(slates, log_ratios)]
    return StepBatch(
        users=np.array([0]),
        items=np.array([slates]),
        logps=np.array([logps]),
        rewards=np.zeros((1, len(slates), 2)),
        entropies=np.array(entropies, dtype=np.float64),
    )


def one_step(batch, optimizer, tracker, advantages):
    """The gradient of one pass from ``hand_params`` and the parameters after its SGD step."""
    config = small_config(
        optimizer=optimizer, group_size=2, slate_length=2, learning_rate=0.1, embedding_dim=2
    )
    params = hand_params()
    result = compute_gradient(batch, params, config, tracker, advantages)
    return result, apply_update(params, result.gradient, OptimizerState(), config)


def assert_one_slate_apart(sage, gbpo, coefficient, items, advantage):
    """sage = gbpo + (coefficient - 1) * slate 0's own term A / (L S) * grad log pi."""
    term = log_prob_grad(hand_params(), 0, items)
    extra = (coefficient - 1.0) * advantage / (2 * 2)  # L = 2 items, S = 2 slates
    for name in ("item_bias", "item_embeddings", "user_embeddings"):
        assert np.any(getattr(term, name))
        expected = getattr(gbpo, name) + extra * getattr(term, name)
        assert np.allclose(getattr(sage, name), expected, rtol=1e-12, atol=1e-15), name
        assert not np.allclose(getattr(sage, name), getattr(gbpo, name), rtol=1e-6, atol=0.0)


def test_boost_lifts_a_winning_cold_item_beyond_gbpo():
    """A positive slate holding the cold item at r = 1.2 gets coefficient 1.2
    under the boost and 1 under GBPO's cap, so its first-position mass rises more."""
    items = (3, 0)
    batch = hand_batch([items, (1, 2)], [math.log(1.2), 0.0], [0.0, 0.0])
    advantages = np.array([1.0, -1.0])
    cold = np.array([3])
    before = mean_first_position_mass(hand_params(), cold)
    sage, sage_params = one_step(batch, "sage-no-entropy", EntropyTracker(), advantages)
    gbpo, gbpo_params = one_step(batch, "gbpo", EntropyTracker(), advantages)
    assert sage.ratios[0] == pytest.approx(1.2) and sage.ratios[1] == 1.0
    assert sage.coefficients[0] == pytest.approx(1.2) and sage.coefficients[1] == 1.0
    assert gbpo.coefficients.tolist() == [1.0, 1.0]
    assert_one_slate_apart(sage.gradient, gbpo.gradient, 1.2, items, 1.0)
    sage_rise = mean_first_position_mass(sage_params, cold) - before
    gbpo_rise = mean_first_position_mass(gbpo_params, cold) - before
    assert sage_rise > gbpo_rise > 0.0


def test_penalty_pushes_a_homogeneous_loser_down_beyond_gbpo():
    """A negative one-category slate, against a tracker mean of ln 2, gets
    coefficient 1 + 0.5 tanh(ln 2) = 1.3 at r = 1, and GBPO gives it 1."""
    categories = np.array([0, 0, 1, 1])
    items = (0, 1)
    slates = [items, (2, 0)]
    entropies = [list_entropy(s, categories) for s in slates]
    assert entropies == [0.0, math.log(2)]
    batch = hand_batch(slates, [0.0, 0.0], entropies)
    advantages = np.array([-1.0, 1.0])
    tracker = EntropyTracker(mean=math.log(2))
    before, _ = slate_log_prob(hand_params(), 0, items)
    sage, sage_params = one_step(batch, "sage-no-boost", tracker, advantages)
    gbpo, gbpo_params = one_step(batch, "gbpo", tracker, advantages)
    assert sage.ratios.tolist() == [1.0, 1.0]
    assert sage.coefficients[0] == pytest.approx(1.3) and sage.coefficients[1] == 1.0
    assert gbpo.coefficients.tolist() == [1.0, 1.0]
    assert_one_slate_apart(sage.gradient, gbpo.gradient, 1.3, items, -1.0)
    sage_fall = before - slate_log_prob(sage_params, 0, items)[0]
    gbpo_fall = before - slate_log_prob(gbpo_params, 0, items)[0]
    assert sage_fall > gbpo_fall > 0.0


def test_constant_rewards_give_zero_gradient(world):
    config = small_config()
    params = make_params(world)
    frozen = snapshot(params)
    batch = collect_batch(
        frozen, world, np.array([0, 1]), config.group_size, config.slate_length,
        np.random.default_rng(5),
    )
    flat = replace(batch, rewards=np.ones_like(batch.rewards))
    result = compute_gradient(flat, params, config, EntropyTracker(decay=0.99))
    assert np.all(result.gradient.item_bias == 0.0)
    assert np.all(result.gradient.item_embeddings == 0.0)
    assert np.all(result.gradient.user_embeddings == 0.0)
    assert not np.any(_batch_advantages(flat.rewards, config))
    assert np.all(result.ratios == 1.0) and np.all(result.coefficients == 1.0)


def test_compute_gradient_rejects_corrupt_logps(world):
    config = small_config()
    params = make_params(world)
    frozen = snapshot(params)
    batch = collect_batch(
        frozen, world, np.array([0, 1]), config.group_size, config.slate_length,
        np.random.default_rng(5),
    )
    batch.logps[0, 1] = -1e3
    with pytest.raises(NumericAbort, match="non-finite sequence ratio"):
        compute_gradient(batch, params, config, EntropyTracker(decay=0.99))


def test_underflowed_ratios_give_finite_gradients(world):
    """Old log-probs 800 nats above the new ones underflow every ratio to 0.0."""
    config = small_config()
    params = make_params(world)
    frozen = snapshot(params)
    batch = collect_batch(
        frozen, world, np.array([0, 1, 2]), config.group_size, config.slate_length,
        np.random.default_rng(5),
    )
    batch.logps += 800.0
    for optimizer in ("sage", "gbpo", "grpo"):
        cfg = replace(config, optimizer=optimizer)
        result = compute_gradient(batch, params, cfg, EntropyTracker(decay=0.99))
        assert not np.any(result.ratios)
        assert result.gradient.all_finite()
        assert not np.any(result.coefficients)


def test_compute_gradient_aborts_on_a_gradient_that_overflows():
    """Ratios near e^698 stay finite, and so do the GRPO coefficients, but
    weights that large times item embeddings of 1e8 overflow the user rows."""
    params = PolicyParams(
        user_embeddings=np.zeros((1, 2)),
        item_embeddings=np.full((4, 2), 1e8),
        item_bias=np.zeros(4),
    )
    batch = StepBatch(
        users=np.array([0]),
        items=np.array([[[0, 1], [2, 3]]]),
        logps=np.full((1, 2, 2), -700.0),
        rewards=np.array([[[1.0, 1.0], [0.0, 0.0]]]),
        entropies=np.zeros(2),
    )
    config = small_config(optimizer="grpo", group_size=2, slate_length=2, embedding_dim=2)
    with pytest.warns(RuntimeWarning, match="in matmul"):
        with pytest.raises(NumericAbort, match="non-finite gradient"):
            compute_gradient(batch, params, config, EntropyTracker(decay=0.99))


def test_compute_gradient_validates_batch(world):
    config = small_config()
    params = make_params(world)
    batch = collect_batch(
        snapshot(params), world, np.array([0, 1]), config.group_size, config.slate_length,
        np.random.default_rng(5),
    )
    with pytest.raises(ValueError, match="slate length disagrees with config"):
        compute_gradient(batch, params, replace(config, slate_length=4), EntropyTracker(decay=0.99))
    # One advantage per slate: a single value must not broadcast over the batch.
    S = batch.items.shape[0] * batch.items.shape[1]
    for advantages in (np.array([1.0]), np.ones(S + 1), np.ones((S, 1))):
        with pytest.raises(ValueError, match=rf"advantages must have shape \({S},\)"):
            compute_gradient(batch, params, config, EntropyTracker(decay=0.99), advantages)


def test_apply_update_sgd_oracle(world):
    config = small_config(learning_rate=0.1)
    params = make_params(world)
    before_bias = params.item_bias.copy()
    grad = PolicyGradient.zeros_like(params)
    grad.item_bias[:] = 1.0
    apply_update(params, grad, OptimizerState(), config)
    assert np.allclose(params.item_bias, before_bias + 0.1, atol=1e-15)


def test_apply_update_adam_zero_gradient_is_identity(world):
    config = small_config(update_rule="adam")
    params = make_params(world)
    before = params.item_bias.copy()
    state = OptimizerState()
    apply_update(params, PolicyGradient.zeros_like(params), state, config)
    assert np.array_equal(params.item_bias, before)
    assert state.step == 1


def test_apply_update_rejects_nonfinite(world):
    config = small_config(learning_rate=1e6)
    params = make_params(world)
    grad = PolicyGradient.zeros_like(params)
    grad.item_bias[:] = np.inf
    with pytest.raises(RuntimeError, match="non-finite parameters"):
        apply_update(params, grad, OptimizerState(), config)


def test_train_is_deterministic(world, tmp_path):
    config = small_config(total_steps=6)
    a = train(config, world)
    b = train(config, world)
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.report.save_jsonl(path_a)
    b.report.save_jsonl(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert np.array_equal(a.params.item_bias, b.params.item_bias)
    assert np.array_equal(a.params.user_embeddings, b.params.user_embeddings)


def test_train_single_update_keeps_positive_coef_at_one(world):
    """One update per snapshot means r stays exactly 1, so the boost is inert."""
    result = train(small_config(total_steps=5), world)
    records = result.report.records
    assert all(r.coef_pos_mean == 1.0 for r in records if r.coef_pos_mean is not None)
    assert records[0].coef_neg_mean == 1.0
    assert all(r.coef_neg_mean >= 1.0 for r in records[1:])
    assert result.tracker.initialized


def test_train_later_updates_rescore_the_moved_policy(world):
    """Only the first update reuses the collection's scan; later ones see ratios off 1."""
    result = train(small_config(total_steps=4, updates_per_snapshot=3, learning_rate=1.0), world)
    assert any(r.coef_pos_mean not in (None, 1.0) for r in result.report.records)


def test_report_statistics_are_the_steps(world, monkeypatch):
    """Advantage statistics are the step's; coefficient means are its last pass's."""
    passes = []

    def spy(batch, params, config, tracker, advantages=None):
        result = real(batch, params, config, tracker, advantages)
        passes.append((advantages, result))
        return result

    real = trainer.compute_gradient
    monkeypatch.setattr(trainer, "compute_gradient", spy)
    config = small_config(total_steps=4, updates_per_snapshot=3, learning_rate=1.0)
    records = train(config, world).report.records
    assert len(passes) == 3 * len(records) == 12
    moved = False
    for record, step in zip(records, range(0, len(passes), 3)):
        advantages, first = passes[step]
        last = passes[step + 2][1]
        assert all(a is advantages for a, _ in passes[step : step + 3])
        assert record.advantage_mean == float(advantages.mean())
        assert record.advantage_std == float(advantages.std())
        pos = advantages >= 0
        for mean, mask in ((record.coef_pos_mean, pos), (record.coef_neg_mean, ~pos)):
            assert mean == (float(last.coefficients[mask].mean()) if mask.any() else None)
            moved |= mask.any() and mean != float(first.coefficients[mask].mean())
    # The last pass differs from the first somewhere, so the check tells them apart.
    assert moved


@pytest.mark.parametrize("n_users", [None, 10])
def test_step_draws_are_the_stream_in_order(world, n_users):
    """One step's draws equal explicit same-seed calls, in the order a step
    makes them, and leave the generator in the same state."""
    B, G, L, n = 4, 3, 2, world.catalog.n_items
    sigma = world.config.feedback.watch_noise_sigma
    rng, ref = np.random.default_rng(31), np.random.default_rng(31)
    noise = np.full((B, G, n), np.nan)
    draws = _draw_step(rng, noise, L, world.config.feedback, n_users)
    if n_users is None:
        assert draws.users is None
    else:
        assert np.array_equal(draws.users, ref.permutation(n_users)[:B])
    assert draws.log_noise is noise
    assert np.array_equal(noise, np.log(ref.standard_exponential((B, G, n))))
    assert np.array_equal(draws.click_uniforms, ref.random((B, G, L)))
    assert np.array_equal(draws.watch_noise, ref.lognormal(-0.5 * sigma * sigma, sigma, (B, G, L)))
    assert rng.bit_generator.state == ref.bit_generator.state


def _worker_threads():
    return [t for t in threading.enumerate() if t.name.startswith("sagerec-worker")]


@pytest.mark.parametrize("updates", [1, 3])
def test_probe_rows_match_the_sequential_probe(world, updates, monkeypatch):
    """Row k's cold mass, probed on the next step's snapshot in the worker
    thread (or directly, for the last step), is the probe of the parameters
    a k+1-step run ends with. Step 0 is drawn on the main thread and every
    later step once, in order, on the worker, even with a probe slower than
    a step. Step k samples from the block step k was drawn into, and steps
    alternate between two blocks."""
    config = small_config(
        total_steps=4, updates_per_snapshot=updates, learning_rate=1.0, checkpoint_every=2
    )
    cold = np.array(sorted(world.catalog.cold_items), dtype=np.intp)
    drawn_on, drawn_into, sampled_from = [], [], []

    def slow_probe(*args):
        time.sleep(0.01)
        return mean_first_position_mass(*args)

    def traced_draw(rng, log_noise, *args):
        drawn_on.append(threading.current_thread().name.split("_")[0])
        drawn_into.append(log_noise.ctypes.data)
        return _draw_step(rng, log_noise, *args)

    def traced_sample(scores, slate_length, log_noise):
        sampled_from.append(log_noise.ctypes.data)
        return gumbel_top_k(scores, slate_length, log_noise)

    monkeypatch.setattr(trainer, "mean_first_position_mass", slow_probe)
    monkeypatch.setattr(trainer, "_draw_step", traced_draw)
    monkeypatch.setattr(trainer, "_sample_slates", traced_sample)
    full = train(config, world).report.records
    assert drawn_on == ["MainThread"] + ["sagerec-worker"] * (config.total_steps - 1)
    assert sampled_from == drawn_into
    assert drawn_into[0] != drawn_into[1]
    assert drawn_into == drawn_into[:2] * (config.total_steps // 2)
    drawn_on.clear()
    assert train(replace(config, total_steps=0), world).report.records == []
    assert drawn_on == []
    for k in range(config.total_steps):
        short = train(replace(config, total_steps=k + 1), world)
        assert short.report.records[k].cold_mass == mean_first_position_mass(short.params, cold)
        assert short.report.records == full[: k + 1]


def test_train_joins_the_probe_thread_on_return_and_on_abort(world, monkeypatch):
    """An abort in a step while the worker is still probing keeps that step;
    a failure in the worker's job carries the step beside which the job ran.
    No worker thread outlives ``train``."""
    train(small_config(total_steps=3), world)
    assert _worker_threads() == []

    bad_step = 2
    real_probe, real_update = trainer.mean_first_position_mass, trainer.apply_update
    calls = []

    def slow_probe(*args):
        time.sleep(0.05)
        return real_probe(*args)

    def failing_update(params, gradient, state, config):
        calls.append(1)
        if len(calls) > bad_step:
            raise NumericAbort("injected")
        return real_update(params, gradient, state, config)

    monkeypatch.setattr(trainer, "mean_first_position_mass", slow_probe)
    monkeypatch.setattr(trainer, "apply_update", failing_update)
    with pytest.raises(NumericAbort) as info:
        train(small_config(total_steps=5), world)
    assert info.value.step == bad_step
    assert _worker_threads() == []
    monkeypatch.undo()

    # The i-th draw is step i's; the worker makes step bad_step + 1's beside step bad_step.
    draws = []

    def failing_draw(*args):
        draws.append(threading.current_thread().name)
        if len(draws) == bad_step + 2:
            raise NumericAbort("injected draw")
        return _draw_step(*args)

    monkeypatch.setattr(trainer, "_draw_step", failing_draw)
    with pytest.raises(NumericAbort, match="injected draw") as info:
        train(small_config(total_steps=5), world)
    assert info.value.step == bad_step
    assert draws[-1].startswith("sagerec-worker")
    assert _worker_threads() == []
    monkeypatch.undo()

    # Step t's job probes step t - 1 first, so the first probe runs beside step 1.
    def failing_probe(*args):
        raise NumericAbort("injected probe")

    monkeypatch.setattr(trainer, "mean_first_position_mass", failing_probe)
    with pytest.raises(NumericAbort, match="injected probe") as info:
        train(small_config(total_steps=5), world)
    assert info.value.step == 1
    assert _worker_threads() == []


def test_train_adaptive_and_symmetric_rules_diverge(world):
    """Identical seeds keep step 0 in lockstep; the entropy penalty then splits them."""
    sage = train(small_config(total_steps=6), world).report.records
    gbpo = train(small_config(total_steps=6, optimizer="gbpo"), world).report.records
    assert sage[0] == gbpo[0]
    assert all(r.coef_neg_mean == 1.0 for r in gbpo)
    assert any(s.coef_neg_mean > 1.0 for s in sage[1:])


def test_train_zero_steps(world):
    result = train(small_config(total_steps=0), world)
    assert result.report.records == []
    assert not result.tracker.initialized


def test_train_rejects_oversized_batch(world, monkeypatch):
    """A user batch or a top-k ranking larger than the world is refused
    before step 0, not at the first checkpoint."""

    def no_step(*args):
        raise AssertionError("a step ran before the config was checked")

    monkeypatch.setattr(trainer, "_collect_batch", no_step)
    with pytest.raises(ValueError, match="users_per_step"):
        train(small_config(users_per_step=11), world)
    with pytest.raises(ValueError, match="eval_k"):
        train(small_config(total_steps=40, checkpoint_every=40, eval_k=31), world)
    monkeypatch.undo()
    train(small_config(total_steps=1, eval_k=30), world)


def test_train_checkpoint_records(world):
    result = train(small_config(total_steps=4, checkpoint_every=2, eval_k=5), world)
    records = result.report.records
    assert records[0].eval is None and records[2].eval is None
    for idx in (1, 3):
        assert records[idx].eval is not None
        assert records[idx].eval["k"] == 5
        assert records[idx].eval["kind"] == "metrics"


def test_report_jsonl_roundtrip(world, tmp_path):
    result = train(small_config(total_steps=4, checkpoint_every=2, eval_k=5), world)
    path = tmp_path / "report.jsonl"
    result.report.save_jsonl(path)
    loaded = ExperimentReport.load_jsonl(path)
    assert loaded.records == result.report.records


@pytest.mark.parametrize(
    "row, message",
    [
        ("{not json", r"Expecting property name .*"),
        ('{"step": 0, "bogus": 1}', r".*unexpected keyword argument 'bogus'"),
        ('{"step": 0}', r".*missing \d+ required positional arguments.*"),
        ("[1, 2]", r".*must be a mapping.*"),
    ],
    ids=["not-json", "unknown-key", "missing-keys", "not-an-object"],
)
def test_report_jsonl_rejects_a_malformed_row_at_its_line(world, tmp_path, row, message):
    path = tmp_path / "report.jsonl"
    train(small_config(total_steps=2), world).report.save_jsonl(path)
    path.write_text(path.read_text() + "\n" + row + "\n")
    with pytest.raises(ValueError) as info:
        ExperimentReport.load_jsonl(path)
    assert re.fullmatch(re.escape(f"{path}:4: ") + message, str(info.value))


def test_step_record_roundtrip():
    record = StepRecord(
        step=3,
        cold_mass=0.125,
        mean_entropy=1.25,
        advantage_mean=0.0,
        advantage_std=1.0,
        coef_pos_mean=1.0,
        coef_neg_mean=None,
        eval={"k": 10},
    )
    assert StepRecord.from_dict(record.to_dict()) == record


def test_rank_items_orders_by_score_then_id():
    params = PolicyParams(
        user_embeddings=np.array([[1.0]]),
        item_embeddings=np.array([[0.0], [0.0], [0.0], [1.0]]),
        item_bias=np.array([0.0, 0.0, 0.5, 0.0]),
        seed=0,
    )
    assert rank_items(params, 4) == [(3, 2, 0, 1)]
    assert rank_items(params, 2) == [(3, 2)]
    with pytest.raises(ValueError):
        rank_items(params, 0)


@settings(max_examples=40, deadline=None)
@given(
    n_users=st.integers(1, 25),
    n_items=st.sampled_from([5, 300, 1000, 5000, 50_000]),
    d=st.sampled_from([1, 8, 16, 32]),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 20),
)
# 50 000 items are scored ten users to a block, so 25 users take three
# blocks, the last of which repeats five users of the second.
@example(n_users=25, n_items=50_000, d=16, ties=False, seed=0, k=10)
def test_blocked_ranking_equals_full_matrix_ranking(n_users, n_items, d, ties, seed, k):
    """Ranking users block by block gives the rankings of the full score matrix.

    Integer-valued parameters (``ties``) make exact score ties, which both
    break by item id."""
    rng = np.random.default_rng(seed)
    draw = (lambda shape: rng.integers(-2, 3, shape).astype(float)) if ties else rng.standard_normal
    params = PolicyParams(draw((n_users, d)), draw((n_items, d)), draw(n_items))
    k = min(k, n_items)
    full = params.user_embeddings @ params.item_embeddings.T + params.item_bias
    assert rank_items(params, k) == [top_k_ids(row, k) for row in full]


def test_evaluate_policy_returns_metric_suite(world):
    params = make_params(world)
    out = evaluate_policy(params, world, k=5)
    assert out["kind"] == "metrics"
    assert out["n_users"] == 10
    assert 0.0 <= out["recall_at_k"] <= 1.0
    assert out["entropy_at_k"] >= 0.0
