"""Group-sampled policy optimization loop.

One training step: freeze the policy, sample a group of slates per user in
the batch, score them with the environment, then run one or more gradient
updates against the frozen snapshot. The per-slate gradient is

    coefficient(r) * advantage * (1/L) * sum_t grad log pi(i_t | u, prefix)

batch-averaged over slates. The coefficient is the optimizer axis: adaptive
bounds, the static symmetric cap, or the clipped surrogate. Because the slate
log-probability gradient collapses to one weight vector w per slate (one-hot
of chosen items minus the masked softmax at each position), the whole batch
gradient reduces to a few matrix products; no per-parameter loops. Sampling,
log-probs and weights all come from the one Plackett–Luce kernel in
``policy``.

Everything is driven by one seeded generator in a fixed order, so runs are
bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bounds import BoundConfig, EntropyTracker, update_entropy_ema

# The batch's coefficient stage, bound to the names the per-layer trace
# (bench/tracing.py) times; the scalar forms stay in ``bounds``.
from .bounds import gbpo_coefficients as gbpo_coefficient
from .bounds import grpo_clip_coefficients as grpo_clip_coefficient
from .bounds import sage_coefficients as effective_coefficient
from .metrics import RankedRecommendation, evaluate_rankings, top_k_ids
from .policy import (
    FrozenPolicy,
    PolicyGradient,
    PolicyParams,
    Slate,
    SlateScan,
    init_policy,
    mean_first_position_mass,
    snapshot,
    user_scores,
)
from .policy import gumbel_top_k as _sample_slates
from .signals import (
    DEFAULT_NORM_EPS,
    TrajectoryGroup,
    batch_normalize,
    decoupled_advantage,
    group_normalize,
    naive_advantage,
)
from .simenv import World, item_vectors

REPORT_SCHEMA_VERSION = 1

OPTIMIZERS = ("sage", "gbpo", "grpo")
ABLATION_ALIASES = {
    "sage-no-boost": ("sage", "eps_boost"),
    "sage-no-entropy": ("sage", "diversity_temp"),
    "sage-no-decoupling": ("sage", "advantage_mode"),
}
ADVANTAGE_MODES = ("decoupled", "naive")
UPDATE_RULES = ("sgd", "adam")


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of one training run.

    ``optimizer`` accepts the three base names plus ablation aliases
    (sage-no-boost, sage-no-entropy, sage-no-decoupling) that resolve to the
    adaptive optimizer with the corresponding mechanism switched off.
    ``updates_per_snapshot`` > 1 takes several gradient steps against one
    frozen snapshot, which is what pushes sequence ratios away from 1.
    """

    optimizer: str = "sage"
    group_size: int = 8
    users_per_step: int = 32
    learning_rate: float = 0.05
    total_steps: int = 500
    slate_length: int = 6
    updates_per_snapshot: int = 1
    advantage_mode: str = "decoupled"
    reward_weights: tuple[float, ...] = (0.5, 0.5)
    grpo_clip_eps: float = 0.2
    update_rule: str = "sgd"
    embedding_dim: int = 16
    checkpoint_every: int = 0
    eval_k: int = 10
    norm_eps: float = DEFAULT_NORM_EPS
    bounds: BoundConfig = field(default_factory=BoundConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if self.slate_length < 1:
            raise ValueError("slate_length must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.users_per_step < 1:
            raise ValueError("users_per_step must be >= 1")
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if self.updates_per_snapshot < 1:
            raise ValueError("updates_per_snapshot must be >= 1")
        if self.advantage_mode not in ADVANTAGE_MODES:
            raise ValueError(f"unknown advantage_mode {self.advantage_mode!r}")
        if self.update_rule not in UPDATE_RULES:
            raise ValueError(f"unknown update_rule {self.update_rule!r}")
        if len(self.reward_weights) < 1 or any(w < 0 for w in self.reward_weights):
            raise ValueError("reward_weights must be nonnegative")
        if self.optimizer not in OPTIMIZERS and self.optimizer not in ABLATION_ALIASES:
            known = OPTIMIZERS + tuple(ABLATION_ALIASES)
            raise ValueError(f"unknown optimizer {self.optimizer!r}, expected one of {known}")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")

    def resolve(self) -> "TrainConfig":
        """Normalize ablation aliases into a base optimizer plus switched-off knobs."""
        if self.optimizer in OPTIMIZERS:
            return self
        base, knob = ABLATION_ALIASES[self.optimizer]
        if knob == "eps_boost":
            return replace(self, optimizer=base, bounds=replace(self.bounds, eps_boost=0.0))
        if knob == "diversity_temp":
            return replace(
                self, optimizer=base, bounds=replace(self.bounds, diversity_temp=0.0)
            )
        return replace(self, optimizer=base, advantage_mode="naive")


@dataclass
class OptimizerState:
    """First-order update state; empty for plain gradient steps."""

    step: int = 0
    m: PolicyGradient | None = None
    v: PolicyGradient | None = None


@dataclass(frozen=True)
class GradientResult:
    """Batch gradient plus the scalar diagnostics the step record needs."""

    gradient: PolicyGradient
    advantage_mean: float
    advantage_std: float
    coef_pos_mean: float | None
    coef_neg_mean: float | None
    ratio_min: float
    ratio_max: float
    n_slates: int


def _slate_entropies(items: np.ndarray, categories: np.ndarray, n_subcats: int) -> np.ndarray:
    """Category entropy of every slate row, in nats."""
    S, L = items.shape
    cats = categories[items] + n_subcats * np.arange(S)[:, None]
    counts = np.bincount(cats.ravel(), minlength=S * n_subcats).reshape(S, n_subcats)
    p = counts / L
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, p * np.log(p), 0.0)
    return np.maximum(-terms.sum(axis=1), 0.0)


def _score_feedback(
    users: np.ndarray, items: np.ndarray, world: World, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized two-objective feedback for a (S, L) block of slates.

    ``users`` gives the user id of each slate row. Per-slate math matches the
    environment's feedback op; draws are consumed as two (S, L) blocks.
    """
    cfg = world.config.feedback
    catalog = world.catalog
    pref = np.stack([world.users[int(u)].preference for u in users])
    engagement = np.array([world.users[int(u)].engagement_scale for u in users])
    affinity = np.take_along_axis(pref, catalog.categories[items], axis=1)
    quality = catalog.quality[items]
    logits = cfg.affinity_weight * affinity + cfg.quality_weight * quality + cfg.click_bias
    # Saturation at extreme logits is intended; silence the benign exp overflow.
    with np.errstate(over="ignore"):
        p_click = 1.0 / (1.0 + np.exp(-logits))
    clicks = rng.random(items.shape) < p_click
    sigma = cfg.watch_noise_sigma
    noise = rng.lognormal(-0.5 * sigma * sigma, sigma, items.shape)
    watch = clicks * engagement[:, None] * quality * noise
    return np.stack([clicks.sum(axis=1), watch.sum(axis=1)], axis=1).astype(np.float64)


def _build_groups(
    users: np.ndarray,
    scores: np.ndarray,
    items: np.ndarray,
    logps: np.ndarray,
    rewards: np.ndarray,
    entropies: np.ndarray,
) -> list[TrajectoryGroup]:
    """Split (B, G, ...) collection arrays into one group per user."""
    G = items.shape[1]
    rewards = rewards.reshape(len(users), G, -1)
    entropies = entropies.reshape(len(users), G)
    return [
        TrajectoryGroup(
            user_id=int(user),
            slates=[
                Slate(user_id=int(user), items=tuple(int(i) for i in items[b, g]), logps=logps[b, g])
                for g in range(G)
            ],
            rewards=rewards[b],
            entropies=entropies[b],
            scores=scores[b],
        )
        for b, user in enumerate(users)
    ]


def collect_group(
    frozen: FrozenPolicy,
    world: World,
    user: int,
    group_size: int,
    slate_length: int,
    rng: np.random.Generator,
) -> TrajectoryGroup:
    """Sample G slates for one user from the frozen policy and score them."""
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
    return _collect_batch(frozen, world, np.array([user]), group_size, slate_length, rng)[0]


def _collect_batch(
    frozen: FrozenPolicy,
    world: World,
    users: np.ndarray,
    group_size: int,
    slate_length: int,
    rng: np.random.Generator,
) -> list[TrajectoryGroup]:
    """Collect every user's group in one stacked pass (the training hot path).

    Sampling consumes one (B, G, n) block of noise, feedback two (S, L)
    blocks, so the random stream does not depend on what was drawn.
    """
    scores = np.stack([user_scores(frozen, int(u)) for u in users])
    items = _sample_slates(scores, group_size, slate_length, rng)
    logps = SlateScan(scores, items).logps
    flat = items.reshape(-1, slate_length)
    rewards = _score_feedback(np.repeat(users, group_size), flat, world, rng)
    entropies = _slate_entropies(flat, world.catalog.categories, world.catalog.n_subcats)
    return _build_groups(users, scores, items, logps, rewards, entropies)


def _batch_advantages(groups: list[TrajectoryGroup], config: TrainConfig) -> np.ndarray:
    """Per-slate advantages: per-group normalization, then one batch z-score."""
    rewards = np.stack([g.rewards for g in groups])
    if config.advantage_mode == "decoupled":
        per_group = decoupled_advantage(
            group_normalize(rewards, config.norm_eps), config.reward_weights
        )
    else:
        per_group = naive_advantage(rewards, config.reward_weights, config.norm_eps)
    return batch_normalize(per_group.ravel(), config.norm_eps)


def compute_gradient(
    groups: list[TrajectoryGroup],
    params: PolicyParams,
    frozen: FrozenPolicy,
    config: TrainConfig,
    tracker: EntropyTracker,
) -> GradientResult:
    """Batch-mean ascent gradient of the bounded, advantage-weighted objective.

    For every slate: the sequence ratio against the frozen log-probs, the
    advantage from the configured pipeline, the optimizer's coefficient, and
    the analytic per-item-averaged log-prob gradient, accumulated with one
    weight vector per user group.
    """
    if not groups:
        raise ValueError("empty batch")
    config = config.resolve()
    G = groups[0].size
    L = config.slate_length
    for group in groups:
        if group.size != G:
            raise ValueError("groups in a batch must share the group size")
        if group.entropies is None:
            raise ValueError(f"group for user {group.user_id} lacks slate entropies")
        if any(len(s) != L for s in group.slates):
            raise ValueError("slate length disagrees with config")

    B = len(groups)
    S = B * G
    users = np.array([g.user_id for g in groups])
    items = np.array([[s.items for s in g.slates] for g in groups], dtype=np.int64)
    old_logps = np.array([[s.logps for s in g.slates] for g in groups])
    entropies = np.concatenate([g.entropies for g in groups])
    advantages = _batch_advantages(groups, config)

    # Parameters that still equal the snapshot score users exactly as
    # collection did, so the rows it kept are reused instead of rescored.
    if all(g.scores is not None for g in groups) and all(
        np.array_equal(getattr(params, name), getattr(frozen, name))
        for name in ("item_bias", "item_embeddings", "user_embeddings")
    ):
        scores = np.stack([g.scores for g in groups])
    else:
        scores = np.stack([user_scores(params, int(u)) for u in users])
    scan = SlateScan(scores, items)
    log_r = (scan.logps - old_logps).mean(axis=2).ravel()
    # Overflow here produces inf ratios, which the explicit check below turns
    # into a diagnosable error; the warning itself is noise.
    with np.errstate(over="ignore"):
        ratios = np.exp(log_r)
    if not np.all(np.isfinite(ratios)):
        bad = int(np.flatnonzero(~np.isfinite(ratios))[0])
        raise RuntimeError(
            f"non-finite sequence ratio for slate {bad % G} of user {int(users[bad // G])}"
        )

    if config.optimizer == "sage":
        coefs = effective_coefficient(log_r, advantages, entropies, tracker, config.bounds)
    elif config.optimizer == "gbpo":
        coefs = gbpo_coefficient(log_r)
    else:
        coefs = grpo_clip_coefficient(log_r, advantages, config.grpo_clip_eps)
    if not np.all(np.isfinite(coefs)):
        raise RuntimeError("non-finite bound coefficient")

    w = scan.weights((coefs * advantages / (L * S)).reshape(B, G))
    grad = PolicyGradient.zeros_like(params)
    grad.item_bias[:] = w.sum(axis=0)
    grad.item_embeddings[:] = w.T @ params.user_embeddings[users]
    np.add.at(grad.user_embeddings, users, w @ params.item_embeddings)
    if not grad.all_finite():
        raise RuntimeError("non-finite gradient")

    pos = advantages >= 0
    return GradientResult(
        gradient=grad,
        advantage_mean=float(advantages.mean()),
        advantage_std=float(advantages.std()),
        coef_pos_mean=float(coefs[pos].mean()) if pos.any() else None,
        coef_neg_mean=float(coefs[~pos].mean()) if (~pos).any() else None,
        ratio_min=float(ratios.min()),
        ratio_max=float(ratios.max()),
        n_slates=S,
    )


def apply_update(
    params: PolicyParams,
    gradient: PolicyGradient,
    state: OptimizerState,
    config: TrainConfig,
) -> PolicyParams:
    """One ascent step, in place; plain SGD or bias-corrected adaptive moments."""
    lr = config.learning_rate
    names = ("user_embeddings", "item_embeddings", "item_bias")
    if config.update_rule == "sgd":
        for name in names:
            getattr(params, name)[...] += lr * getattr(gradient, name)
    else:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        if state.m is None:
            state.m = PolicyGradient.zeros_like(params)
            state.v = PolicyGradient.zeros_like(params)
        state.step += 1
        t = state.step
        for name in names:
            g = getattr(gradient, name)
            m = getattr(state.m, name)
            v = getattr(state.v, name)
            m[...] = beta1 * m + (1 - beta1) * g
            v[...] = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            getattr(params, name)[...] += lr * m_hat / (np.sqrt(v_hat) + eps)
    for name in names:
        if not np.all(np.isfinite(getattr(params, name))):
            raise RuntimeError(f"non-finite parameters in {name} after update")
    return params


@dataclass(frozen=True)
class StepRecord:
    """One training step's diagnostics; the rows of an experiment report."""

    step: int
    cold_mass: float
    mean_entropy: float
    advantage_mean: float
    advantage_std: float
    coef_pos_mean: float | None
    coef_neg_mean: float | None
    eval: dict | None = None

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "cold_mass": self.cold_mass,
            "mean_entropy": self.mean_entropy,
            "advantage_mean": self.advantage_mean,
            "advantage_std": self.advantage_std,
            "coef_pos_mean": self.coef_pos_mean,
            "coef_neg_mean": self.coef_neg_mean,
            "eval": self.eval,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StepRecord":
        return cls(**payload)


@dataclass
class ExperimentReport:
    """Per-step records of one run, losslessly serializable as JSON lines."""

    records: list[StepRecord] = field(default_factory=list)

    def save_jsonl(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record.to_dict(), sort_keys=True))
                fh.write("\n")

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "ExperimentReport":
        records = []
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    records.append(StepRecord.from_dict(json.loads(line)))
        return cls(records=records)


def rank_items(params: PolicyParams, k: int) -> list[tuple[int, ...]]:
    """Top-k item ids per user by unmasked score, ties broken by item id.

    Score order equals the policy's greedy slate order, so this is the
    deterministic ranking the policy induces.
    """
    if not 1 <= k <= params.n_items:
        raise ValueError("k must lie in [1, n_items]")
    scores = params.user_embeddings @ params.item_embeddings.T + params.item_bias
    return [top_k_ids(row, k) for row in scores]


def evaluate_policy(
    params: PolicyParams, world: World, k: int, entropy_base: float | None = None
) -> dict:
    """Score the policy's top-k rankings against the world's ground truth."""
    rankings = rank_items(params, k)
    recs = [
        RankedRecommendation(user_id=u, items=ranked, relevant=world.relevant[u])
        for u, ranked in enumerate(rankings)
    ]
    return evaluate_rankings(
        recs,
        world.catalog.categories,
        item_vectors(world.catalog),
        frozenset(world.catalog.cold_items),
        k,
        entropy_base=entropy_base,
    )


@dataclass
class TrainResult:
    report: ExperimentReport
    params: PolicyParams
    tracker: EntropyTracker


def train(config: TrainConfig, world: World) -> TrainResult:
    """Run the full optimization loop and collect the per-step report.

    Step order: snapshot, collect the user batch's groups, run the configured
    number of gradient updates against the snapshot, fold the batch-mean slate
    entropy into the tracker, then record diagnostics (and checkpoint metrics
    when due).
    """
    config = config.resolve()
    if config.users_per_step > world.config.n_users:
        raise ValueError("users_per_step exceeds the world's user count")
    ss = np.random.SeedSequence(config.seed)
    init_ss, run_ss = ss.spawn(2)
    init_seed = int(init_ss.generate_state(1)[0])
    counts = world.log.item_counts(world.catalog.n_items)
    params = init_policy(
        world.config.n_users,
        world.catalog.n_items,
        config.embedding_dim,
        seed=init_seed,
        item_counts=counts,
    )
    rng = np.random.default_rng(run_ss)
    tracker = EntropyTracker(decay=config.bounds.ema_decay)
    opt_state = OptimizerState()
    cold_ids = np.array(sorted(world.catalog.cold_items), dtype=np.intp)
    report = ExperimentReport()

    for step in range(config.total_steps):
        frozen = snapshot(params)
        users = rng.permutation(world.config.n_users)[: config.users_per_step]
        groups = _collect_batch(
            frozen, world, users, config.group_size, config.slate_length, rng
        )
        result = None
        for _ in range(config.updates_per_snapshot):
            try:
                result = compute_gradient(groups, params, frozen, config, tracker)
            except RuntimeError as exc:
                raise RuntimeError(f"step {step}: {exc}") from exc
            params = apply_update(params, result.gradient, opt_state, config)
        batch_entropy = float(np.mean([g.entropies.mean() for g in groups]))
        tracker = update_entropy_ema(tracker, batch_entropy)

        eval_metrics = None
        if config.checkpoint_every and (step + 1) % config.checkpoint_every == 0:
            eval_metrics = evaluate_policy(params, world, config.eval_k)
        report.records.append(
            StepRecord(
                step=step,
                cold_mass=mean_first_position_mass(params, cold_ids),
                mean_entropy=batch_entropy,
                advantage_mean=result.advantage_mean,
                advantage_std=result.advantage_std,
                coef_pos_mean=result.coef_pos_mean,
                coef_neg_mean=result.coef_neg_mean,
                eval=eval_metrics,
            )
        )
    return TrainResult(report=report, params=params, tracker=tracker)
