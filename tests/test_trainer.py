"""Unit tests for the training loop, gradients, and reports."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from sagerec.bounds import (
    BoundConfig,
    EntropyTracker,
    effective_coefficient,
    gbpo_coefficient,
    grpo_clip_coefficient,
    update_entropy_ema,
)
from sagerec.policy import (
    PolicyGradient,
    PolicyParams,
    Slate,
    init_policy,
    log_prob_grad,
    slate_log_prob,
    snapshot,
    user_scores,
)
from sagerec.signals import (
    batch_normalize,
    decoupled_advantage,
    group_normalize,
    naive_advantage,
    sequence_ratio,
)
from sagerec.simenv import WorldConfig, build_world
from sagerec.trainer import (
    ExperimentReport,
    OptimizerState,
    StepRecord,
    TrainConfig,
    apply_update,
    collect_group,
    compute_gradient,
    evaluate_policy,
    rank_items,
    train,
)


@pytest.fixture(scope="module")
def world():
    config = WorldConfig(
        n_items=30,
        n_subcats=5,
        n_users=10,
        zipf_exponent=1.0,
        cold_fraction=0.2,
        n_pretrain_interactions=600,
        n_relevant=5,
    )
    return build_world(config, seed=17)


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


def collect_batch_groups(frozen, world, users, config, seed=5):
    rng = np.random.default_rng(seed)
    return [
        collect_group(
            frozen, world, u, config.group_size, config.slate_length, rng
        )
        for u in users
    ]


def reference_advantages(groups, cfg):
    per = []
    for g in groups:
        if cfg.advantage_mode == "decoupled":
            z = group_normalize(g.rewards, cfg.norm_eps)
            per.append(decoupled_advantage(z, cfg.reward_weights))
        else:
            per.append(naive_advantage(g.rewards, cfg.reward_weights, cfg.norm_eps))
    return batch_normalize(np.concatenate(per), cfg.norm_eps)


def reference_gradient(groups, params, config, tracker):
    """Slate-by-slate re-derivation of the batch gradient from public pieces."""
    cfg = config.resolve()
    L = cfg.slate_length
    S = sum(g.size for g in groups)
    advantages = reference_advantages(groups, cfg)
    grad = PolicyGradient.zeros_like(params)
    idx = 0
    for g in groups:
        for pos, slate in enumerate(g.slates):
            _, new_pp = slate_log_prob(params, g.user_id, slate.items)
            r = sequence_ratio(new_pp, slate.logps)
            a = float(advantages[idx])
            if cfg.optimizer == "sage":
                coef = effective_coefficient(
                    r, a, float(g.entropies[pos]), tracker, cfg.bounds
                )
            elif cfg.optimizer == "gbpo":
                coef = gbpo_coefficient(r)
            else:
                coef = grpo_clip_coefficient(r, a, cfg.grpo_clip_eps)
            lg = log_prob_grad(params, g.user_id, slate.items)
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
    with pytest.raises(ValueError):
        small_config(updates_per_snapshot=0)


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


def test_collect_group_contract(world):
    params = make_params(world)
    frozen = snapshot(params)
    rng = np.random.default_rng(2)
    group = collect_group(frozen, world, user=3, group_size=4, slate_length=3, rng=rng)
    assert group.size == 4
    assert group.rewards.shape == (4, 2)
    assert np.all(np.isfinite(group.rewards))
    assert np.all(group.rewards >= 0)
    assert np.array_equal(group.scores, user_scores(frozen, 3))
    for slate in group.slates:
        assert slate.user_id == 3
        assert len(set(slate.items)) == 3
        # Collected log-probs must be exactly what rescoring them gives.
        _, per_position = slate_log_prob(params, 3, slate.items)
        assert np.array_equal(slate.logps, per_position)


def test_collect_group_deterministic(world):
    frozen = snapshot(make_params(world))
    a = collect_group(
        frozen, world, 1, 4, 3, np.random.default_rng(9)
    )
    b = collect_group(
        frozen, world, 1, 4, 3, np.random.default_rng(9)
    )
    assert [s.items for s in a.slates] == [s.items for s in b.slates]
    assert np.array_equal(a.rewards, b.rewards)
    assert np.array_equal(a.entropies, b.entropies)


def test_compute_gradient_matches_reference(world):
    config = small_config()
    params = make_params(world)
    frozen = snapshot(params)
    groups = collect_batch_groups(frozen, world, [0, 2, 5], config)
    tracker = update_entropy_ema(EntropyTracker(decay=0.99), 1.5)
    for optimizer in ("sage", "gbpo", "grpo", "sage-no-decoupling"):
        cfg = replace(config, optimizer=optimizer)
        result = compute_gradient(groups, params, frozen, cfg, tracker)
        expected = reference_gradient(groups, params, cfg, tracker)
        assert grads_close(result.gradient, expected)
        assert result.n_slates == 12
        # On-policy: every ratio is exactly 1.
        assert result.ratio_min == 1.0 and result.ratio_max == 1.0


def test_compute_gradient_matches_reference_off_policy(world):
    config = small_config()
    params = make_params(world)
    frozen = snapshot(params)
    groups = collect_batch_groups(frozen, world, [1, 4, 7], config)
    tracker = update_entropy_ema(EntropyTracker(decay=0.99), 1.5)
    first = compute_gradient(groups, params, frozen, config, tracker)
    apply_update(params, first.gradient, OptimizerState(), config)
    for optimizer in ("sage", "gbpo", "grpo"):
        cfg = replace(config, optimizer=optimizer)
        result = compute_gradient(groups, params, frozen, cfg, tracker)
        expected = reference_gradient(groups, params, cfg, tracker)
        assert grads_close(result.gradient, expected)
        assert result.ratio_max > result.ratio_min


def test_fast_path_equals_rescoring_scan(world):
    config = small_config()
    params = make_params(world)
    frozen = snapshot(params)
    groups = collect_batch_groups(frozen, world, [0, 3], config)
    tracker = EntropyTracker(decay=0.99)
    fast = compute_gradient(groups, params, frozen, config, tracker)
    stripped = [replace(g, scores=None) for g in groups]
    scanned = compute_gradient(stripped, params, frozen, config, tracker)
    assert np.array_equal(fast.gradient.item_bias, scanned.gradient.item_bias)
    assert np.array_equal(
        fast.gradient.item_embeddings, scanned.gradient.item_embeddings
    )
    assert np.array_equal(
        fast.gradient.user_embeddings, scanned.gradient.user_embeddings
    )


def test_on_policy_optimizers_agree(world):
    """With ratios at 1 and a fresh tracker, all three rules reduce to A*grad."""
    config = small_config()
    params = make_params(world)
    frozen = snapshot(params)
    groups = collect_batch_groups(frozen, world, [2, 6, 8], config)
    results = {
        name: compute_gradient(
            groups, params, frozen, replace(config, optimizer=name),
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
    assert results["sage"].coef_pos_mean == 1.0
    assert results["sage"].coef_neg_mean == 1.0


def test_constant_rewards_give_zero_gradient(world):
    config = small_config()
    params = make_params(world)
    frozen = snapshot(params)
    groups = collect_batch_groups(frozen, world, [0, 1], config)
    flat = [replace(g, rewards=np.ones_like(g.rewards)) for g in groups]
    result = compute_gradient(flat, params, frozen, config, EntropyTracker(decay=0.99))
    assert np.all(result.gradient.item_bias == 0.0)
    assert np.all(result.gradient.item_embeddings == 0.0)
    assert np.all(result.gradient.user_embeddings == 0.0)
    assert result.advantage_mean == 0.0


def test_compute_gradient_rejects_corrupt_logps(world):
    config = small_config()
    params = make_params(world)
    frozen = snapshot(params)
    groups = collect_batch_groups(frozen, world, [0, 1], config)
    bad = groups[0].slates[1]
    groups[0].slates[1] = Slate(
        user_id=bad.user_id, items=bad.items, logps=np.full(3, -1e3)
    )
    stripped = [replace(g, scores=None) for g in groups]
    with pytest.raises(RuntimeError, match="non-finite sequence ratio"):
        compute_gradient(stripped, params, frozen, config, EntropyTracker(decay=0.99))


def test_underflowed_ratios_give_finite_gradients(world):
    """Old log-probs 800 nats above the new ones underflow every ratio to 0.0."""
    config = small_config()
    params = make_params(world)
    frozen = snapshot(params)
    groups = collect_batch_groups(frozen, world, [0, 1, 2], config)
    for g in groups:
        g.slates = [replace(s, logps=s.logps + 800.0) for s in g.slates]
    for optimizer in ("sage", "gbpo", "grpo"):
        cfg = replace(config, optimizer=optimizer)
        result = compute_gradient(groups, params, frozen, cfg, EntropyTracker(decay=0.99))
        assert result.ratio_max == 0.0
        assert result.gradient.all_finite()
        if optimizer == "grpo":
            assert result.coef_neg_mean == pytest.approx(0.8)
        else:
            assert result.coef_pos_mean == 0.0 and result.coef_neg_mean == 0.0


def test_compute_gradient_validates_batch(world):
    config = small_config()
    params = make_params(world)
    frozen = snapshot(params)
    with pytest.raises(ValueError):
        compute_gradient([], params, frozen, config, EntropyTracker(decay=0.99))
    groups = collect_batch_groups(frozen, world, [0], config)
    short = [replace(groups[0], entropies=None)]
    with pytest.raises(ValueError, match="entropies"):
        compute_gradient(short, params, frozen, config, EntropyTracker(decay=0.99))


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


def test_train_rejects_oversized_batch(world):
    with pytest.raises(ValueError, match="users_per_step"):
        train(small_config(users_per_step=11), world)


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


def test_evaluate_policy_returns_metric_suite(world):
    params = make_params(world)
    out = evaluate_policy(params, world, k=5)
    assert out["kind"] == "metrics"
    assert out["n_users"] == 10
    assert 0.0 <= out["recall_at_k"] <= 1.0
    assert out["entropy_at_k"] >= 0.0
