"""Acceptance gate: nine criteria, one PASS/FAIL line each.

Every test prints a single summary line (visible in the pytest report via
the -rP flag configured in pyproject.toml) and then asserts. Criteria 6 and
7 share one set of multi-seed training runs; criterion 8 drives the same
ablation path the CLI exposes. The dynamics criteria train real multi-seed
experiments and dominate the suite's runtime.
"""

import csv
import time
from dataclasses import replace

import numpy as np
import pytest

from sagerec.bounds import BoundConfig, EntropyTracker, write_boundary_curve
from sagerec.cli import main as cli_main
from sagerec.policy import init_policy, log_prob_grad, slate_log_prob, snapshot
from sagerec.signals import (
    batch_normalize,
    decoupled_advantage,
    group_normalize,
    naive_advantage,
)
from sagerec.simenv import WorldConfig, build_world
from sagerec.trainer import TrainConfig, collect_batch, compute_gradient, train

# Trainer knobs for the dynamics criteria (6-8). The world stays at package
# defaults; these strengthen per-update movement so the bound mechanisms are
# numerically active at desk scale within the runtime budget.
DYNAMICS = dict(
    group_size=8,
    users_per_step=4,
    learning_rate=30.0,
    total_steps=500,
    slate_length=6,
    updates_per_snapshot=4,
    embedding_dim=16,
)
N_SEEDS = 10


def _report(num, name, ok, details):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status} {details}")
    return ok


def test_criterion_1_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(20241001)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        n_items = int(rng.integers(6, 21))
        d = int(rng.integers(2, 9))
        L = int(rng.integers(1, min(6, n_items) + 1))
        n_users = int(rng.integers(1, 4))
        params = init_policy(n_users, n_items, d, seed=int(rng.integers(1 << 31)))
        params.item_bias = rng.normal(0.0, 1.0, size=n_items)
        user = int(rng.integers(n_users))
        items = tuple(int(i) for i in rng.choice(n_items, size=L, replace=False))

        grad = log_prob_grad(params, user, items)
        inactive = np.delete(grad.user_embeddings, user, axis=0)
        assert np.all(inactive == 0.0)

        def f():
            return slate_log_prob(params, user, items)[0]

        def central(arr, idx):
            orig = arr[idx]
            arr[idx] = orig + h
            hi = f()
            arr[idx] = orig - h
            lo = f()
            arr[idx] = orig
            return (hi - lo) / (2.0 * h)

        analytic = np.concatenate(
            [
                grad.user_embeddings[user],
                grad.item_embeddings.ravel(),
                grad.item_bias,
            ]
        )
        numeric = np.empty_like(analytic)
        pos = 0
        for j in range(d):
            numeric[pos] = central(params.user_embeddings, (user, j))
            pos += 1
        for i in range(n_items):
            for j in range(d):
                numeric[pos] = central(params.item_embeddings, (i, j))
                pos += 1
        for i in range(n_items):
            numeric[pos] = central(params.item_bias, (i,))
            pos += 1

        rel = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
        worst = max(worst, rel)
    secs = time.time() - t0
    ok = worst < 1e-5 and secs < 10.0
    assert _report(1, "gradient check", ok, f"max_rel_err={worst:.2e} over 100 instances [{secs:.1f}s]")


def test_criterion_2_boundary_geometry(tmp_path):
    t0 = time.time()
    grid = [k / 20 for k in range(1, 51)]
    rows = write_boundary_curve(tmp_path / "boundary.csv", grid, BoundConfig())
    tol = 1e-12
    worst = 0.0
    low, high = {}, {}
    for p in rows:
        if p.variant == "gbpo":
            worst = max(worst, abs(p.coefficient - min(p.r, 1.0)))
        elif p.variant == "sage_pos" and p.mode == "text-intent":
            worst = max(worst, abs(p.coefficient - min(p.r, 1.3)))
        elif p.variant == "sage_neg" and p.mode == "text-intent":
            (low if p.entropy_level == "low" else high)[p.r] = p.coefficient
        elif p.variant == "sage_neg" and p.mode == "literal":
            worst = max(worst, abs(p.coefficient / p.r - 1.0))
    assert set(low) == set(high) == set(grid)
    order_ok = all(low[r] >= high[r] - tol for r in grid)
    bound_ok = all(c <= 1.5 + tol for c in list(low.values()) + list(high.values()))
    secs = time.time() - t0
    ok = worst < tol and order_ok and bound_ok and secs < 1.0
    assert _report(
        2,
        "boundary geometry",
        ok,
        f"max_dev={worst:.2e} low>=high={order_ok} capped_1.5={bound_ok} [{secs:.2f}s]",
    )


def test_criterion_3_reward_collapse_witness():
    t0 = time.time()
    rewards = np.array([[1.0, 10.0], [0.0, 11.0], [1.0, 40.0]])
    w = (0.5, 0.5)
    naive = naive_advantage(rewards, w)
    decoupled = decoupled_advantage(group_normalize(rewards), w)
    tie = abs(naive[0] - naive[1])
    gap = abs(decoupled[0] - decoupled[1])
    secs = time.time() - t0
    ok = tie < 1e-12 and gap > 0.1
    assert _report(3, "reward-collapse witness", ok, f"naive_tie={tie:.1e} decoupled_gap={gap:.3f} [{secs:.2f}s]")


def test_criterion_4_normalization_invariants():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst_mu = worst_sd = worst_col = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        scale = 10.0 ** rng.uniform(-3, 3)
        batch = rng.normal(0.0, scale, size=n)
        if np.std(batch) > 1e-8:
            z = batch_normalize(batch)
            worst_mu = max(worst_mu, abs(float(z.mean())))
            worst_sd = max(worst_sd, abs(float(z.std()) - 1.0))
        G = int(rng.integers(2, 9))
        M = int(rng.integers(1, 5))
        zg = group_normalize(rng.normal(0.0, scale, size=(G, M)))
        worst_col = max(worst_col, float(np.max(np.abs(zg.mean(axis=0)))))
    secs = time.time() - t0
    ok = worst_mu < 1e-6 and worst_sd < 1e-6 and worst_col < 1e-12 and secs < 10.0
    assert _report(
        4,
        "normalization invariants",
        ok,
        f"|mu|={worst_mu:.1e} |sd-1|={worst_sd:.1e} group_mu={worst_col:.1e} over 1000 batches [{secs:.1f}s]",
    )


def test_criterion_5_on_policy_identity():
    t0 = time.time()
    world_cfg = WorldConfig(
        n_items=60,
        n_subcats=8,
        n_users=12,
        n_pretrain_interactions=1500,
        n_relevant=5,
    )
    base = TrainConfig(
        optimizer="sage",
        group_size=4,
        users_per_step=4,
        learning_rate=0.1,
        total_steps=1,
        slate_length=4,
        embedding_dim=6,
        seed=0,
    )
    worst = 0.0
    for batch_seed in range(20):
        world = build_world(world_cfg, seed=batch_seed)
        counts = world.log.item_counts(world_cfg.n_items)
        params = init_policy(world_cfg.n_users, world_cfg.n_items, 6, seed=batch_seed, item_counts=counts)
        frozen = snapshot(params)
        rng = np.random.default_rng(1000 + batch_seed)
        users = rng.choice(world_cfg.n_users, size=4, replace=False)
        batch = collect_batch(frozen, world, users, base.group_size, base.slate_length, rng)
        grads = []
        for opt in ("sage", "gbpo", "grpo"):
            cfg = replace(base, optimizer=opt)
            tracker = EntropyTracker(decay=0.99)
            g = compute_gradient(batch, params, cfg, tracker).gradient
            grads.append(g)
        for other in grads[1:]:
            worst = max(worst, float(np.max(np.abs(grads[0].user_embeddings - other.user_embeddings))))
            worst = max(worst, float(np.max(np.abs(grads[0].item_embeddings - other.item_embeddings))))
            worst = max(worst, float(np.max(np.abs(grads[0].item_bias - other.item_bias))))
    secs = time.time() - t0
    ok = worst < 1e-12 and secs < 10.0
    assert _report(5, "on-policy identity", ok, f"max_grad_diff={worst:.1e} over 20 batches [{secs:.1f}s]")


@pytest.fixture(scope="module")
def dynamics_runs():
    t0 = time.time()
    runs = {}
    for seed in range(N_SEEDS):
        world = build_world(WorldConfig(), seed=seed)
        for opt in ("sage", "gbpo"):
            cfg = TrainConfig(optimizer=opt, seed=seed, **DYNAMICS)
            res = train(cfg, world)
            recs = res.report.records
            runs[(opt, seed)] = {
                "final_cold": recs[-1].cold_mass,
                "ent100": float(np.mean([r.mean_entropy for r in recs[-100:]])),
            }
    runs["secs"] = time.time() - t0
    return runs


def test_criterion_6_cold_start_dynamics(dynamics_runs):
    sage = np.array([dynamics_runs[("sage", s)]["final_cold"] for s in range(N_SEEDS)])
    gbpo = np.array([dynamics_runs[("gbpo", s)]["final_cold"] for s in range(N_SEEDS)])
    factor = float(sage.mean() / gbpo.mean())
    agree = int((sage > gbpo).sum())
    secs = dynamics_runs["secs"]
    ok = factor >= 1.2 and agree >= 8 and secs < 600.0
    assert _report(
        6,
        "cold-start dynamics",
        ok,
        f"mean_factor={factor:.2f} seeds_agree={agree}/{N_SEEDS} [{secs:.0f}s total]",
    )


def test_criterion_7_diversity_dynamics(dynamics_runs):
    wins = sum(
        dynamics_runs[("sage", s)]["ent100"] >= dynamics_runs[("gbpo", s)]["ent100"]
        for s in range(N_SEEDS)
    )
    ok = wins >= 8
    assert _report(7, "diversity dynamics", ok, f"sage>=gbpo in {wins}/{N_SEEDS} seeds (final-100-step mean entropy)")


def test_criterion_8_ablation_ordering(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "ablation.yaml"
    train_lines = "\n".join(f"  {k}: {v}" for k, v in DYNAMICS.items())
    cfg.write_text(
        "seeds: [0, 1, 2, 3, 4]\n"
        f"out_dir: {tmp_path / 'out'}\n"
        f"train:\n{train_lines}\n"
    )
    rc = cli_main(["ablate", str(cfg), "--quiet"])
    assert rc == 0
    table = {}
    with open(tmp_path / "out" / "ablation.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["normalized"] != "":
                table[(row["variant"], row["metric"])] = float(row["normalized"])

    def lowest(metric):
        scores = {v: table.get((v, metric)) for v in ("full", "no_boost", "no_entropy", "no_decoupling")}
        if any(x is None for x in scores.values()):
            return f"missing:{metric}"
        return min(scores, key=scores.get)

    got = (lowest("cold_recall"), lowest("entropy_at_k"), lowest("ndcg_at_k"))
    want = ("no_boost", "no_entropy", "no_decoupling")
    secs = time.time() - t0
    ok = got == want and secs < 1800.0
    assert _report(
        8,
        "ablation ordering",
        ok,
        f"lowest(cold_recall,entropy,ndcg)={got} want={want} [{secs:.0f}s]",
    )


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "det.yaml"
    cfg.write_text(
        "seeds: [0, 1]\n"
        "train:\n"
        "  users_per_step: 4\n"
        "  group_size: 4\n"
        "  total_steps: 25\n"
        "  learning_rate: 5.0\n"
        "  updates_per_snapshot: 4\n"
        "  embedding_dim: 8\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["run", str(cfg), "--out", str(out), "--quiet"])
        assert rc == 0
        outs.append(out)
    same = True
    for seed in (0, 1):
        for artifact in ("report.jsonl", "metrics.json", "checkpoint.json"):
            a = (outs[0] / f"seed_{seed}" / artifact).read_bytes()
            b = (outs[1] / f"seed_{seed}" / artifact).read_bytes()
            same = same and a == b
    same = same and (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()
    secs = time.time() - t0
    ok = same
    assert _report(9, "determinism", ok, f"byte_identical={same} across two runs [{secs:.1f}s]")
