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

Every random number a step reads is drawn before the step runs, by one
function (``_draw_step``) from one seeded generator in a fixed order: the
user batch, the sampling noise, then the feedback draws. Sampling and
feedback read those arrays, so no draw depends on an outcome, and ``train``
can draw each step a step ahead on its worker thread without moving a bit.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .bounds import BoundConfig, EntropyTracker, count_entropy, update_entropy_ema

# The coefficient rules, bound to the names the per-layer trace
# (bench/tracing.py) times; nothing else goes by these names.
from .bounds import gbpo_coefficients as gbpo_coefficient
from .bounds import grpo_clip_coefficients as grpo_clip_coefficient
from .bounds import sage_coefficients as effective_coefficient
from .metrics import RankedRecommendation, evaluate_rankings, top_k_ids
from .policy import (
    ARRAY_NAMES,
    PolicyGradient,
    PolicyParams,
    RowScan,
    SlateScan,
    init_policy,
    mean_first_position_mass,
    probe_work,
    scan_slates,
    score_blocks,
    snapshot,
    user_scores,
)
from .policy import gumbel_top_k as _sample_slates
from .signals import (
    DEFAULT_NORM_EPS,
    batch_normalize,
    decoupled_advantage,
    group_normalize,
    log_ratio,
    naive_advantage,
)
from .simenv import N_OBJECTIVES, FeedbackConfig, World, feedback_noise, item_vectors
from .simenv import feedback as _score_feedback  # the traced feedback stage

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
        if len(self.reward_weights) != N_OBJECTIVES or any(w < 0 for w in self.reward_weights):
            raise ValueError(
                f"reward_weights must be {N_OBJECTIVES} nonnegative weights, one per feedback objective"
            )
        if self.optimizer not in OPTIMIZERS and self.optimizer not in ABLATION_ALIASES:
            known = OPTIMIZERS + tuple(ABLATION_ALIASES)
            raise ValueError(f"unknown optimizer {self.optimizer!r}, expected one of {known}")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.eval_k < 1:
            raise ValueError("eval_k must be >= 1")
        if self.norm_eps < 0:
            raise ValueError("norm_eps must be >= 0")
        if not 0 < self.grpo_clip_eps < 1:
            raise ValueError("grpo_clip_eps must lie in (0, 1)")

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
    """One pass's batch gradient and its (B*G,) per-slate sequence ratios and coefficients."""

    gradient: PolicyGradient
    ratios: np.ndarray
    coefficients: np.ndarray


class NumericAbort(RuntimeError):
    """A non-finite value in training; ``train`` sets the step, the CLI the seed and variant."""

    step: int | None = None
    seed: int | None = None
    variant: str | None = None


@dataclass
class StepBatch:
    """One step's slates as arrays: B users, G slates each, L items per slate.

    ``users`` is (B,); ``items`` and the snapshot's per-position ``logps`` are
    (B, G, L); ``rewards`` is (B, G, M); ``entropies`` is (B*G,). ``scan``, the
    collection's scan from :func:`scan_slates`, is valid while the parameters
    equal the snapshot.
    """

    users: np.ndarray
    items: np.ndarray
    logps: np.ndarray
    rewards: np.ndarray
    entropies: np.ndarray
    scan: SlateScan | RowScan | None = None


def _slate_entropies(items: np.ndarray, categories: np.ndarray, n_subcats: int) -> np.ndarray:
    """Category entropy of every slate row, in nats."""
    S = items.shape[0]
    cats = categories[items] + n_subcats * np.arange(S)[:, None]
    counts = np.bincount(cats.ravel(), minlength=S * n_subcats).reshape(S, n_subcats)
    return np.maximum(count_entropy(counts), 0.0)


def _build_groups(users, items, scan: SlateScan | RowScan, rewards, entropies) -> StepBatch:
    """Bundle the collection arrays into the step's batch."""
    return StepBatch(users, items, scan.logps, rewards, entropies, scan)


@dataclass
class StepDraws:
    """Every random number one step reads, drawn before the step runs.

    ``users`` is the (B,) user batch, or None when the caller names the
    users; ``log_noise`` is the (B, G, n) log(Exp(1)) block the sampler
    builds its keys in; ``click_uniforms`` and ``watch_noise`` are the
    (B, G, L) feedback draws.
    """

    users: np.ndarray | None
    log_noise: np.ndarray
    click_uniforms: np.ndarray
    watch_noise: np.ndarray


def _draw_step(
    rng: np.random.Generator,
    log_noise: np.ndarray,
    slate_length: int,
    feedback: FeedbackConfig,
    n_users: int | None = None,
) -> StepDraws:
    """One step's draws, in stream order, with the noise written into ``log_noise``.

    With ``n_users``, the first B of a permutation of the users; then one
    Exp(1) per entry of the (B, G, n) ``log_noise``, logged in place; then
    the click uniforms and the watch-time log-normals.
    """
    B, G, _ = log_noise.shape
    users = None if n_users is None else rng.permutation(n_users)[:B]
    rng.standard_exponential(out=log_noise)
    np.log(log_noise, out=log_noise)
    uniforms, watch = feedback_noise(rng, (B, G, slate_length), feedback)
    return StepDraws(users, log_noise, uniforms, watch)


def collect_batch(
    frozen: PolicyParams,
    world: World,
    users: np.ndarray,
    group_size: int,
    slate_length: int,
    rng: np.random.Generator,
) -> StepBatch:
    """One step's draws and collection for the (B,) named users.

    The batch carries no scan: the caller may move the parameters away from
    ``frozen`` before computing a gradient.
    """
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
    if len(users) == 0:
        raise ValueError("empty user batch")
    noise = np.empty((len(users), group_size, world.catalog.n_items))
    draws = _draw_step(rng, noise, slate_length, world.config.feedback)
    batch = _collect_batch(frozen, world, users, draws)
    batch.scan = None
    return batch


def _collect_batch(
    frozen: PolicyParams,
    world: World,
    users: np.ndarray,
    draws: StepDraws,
) -> StepBatch:
    """Collect every user's group in one stacked pass (the training hot path).

    The group size and slate length are those of ``draws``.
    """
    scores = np.stack([user_scores(frozen, int(u)) for u in users])
    slate_length = draws.click_uniforms.shape[2]
    items = _sample_slates(scores, slate_length, draws.log_noise)
    rewards = _score_feedback(
        world.preference[users],
        world.engagement[users],
        items,
        world.catalog,
        draws.click_uniforms,
        draws.watch_noise,
        world.config.feedback,
    )
    flat = items.reshape(-1, slate_length)
    entropies = _slate_entropies(flat, world.catalog.categories, world.catalog.n_subcats)
    return _build_groups(users, items, scan_slates(scores, items), rewards, entropies)


def _batch_advantages(rewards: np.ndarray, config: TrainConfig) -> np.ndarray:
    """Per-slate advantages of (B, G, M) rewards: group z-scores, then one batch z-score."""
    if config.advantage_mode == "decoupled":
        per_group = decoupled_advantage(
            group_normalize(rewards, config.norm_eps), config.reward_weights
        )
    else:
        per_group = naive_advantage(rewards, config.reward_weights, config.norm_eps)
    return batch_normalize(per_group.ravel(), config.norm_eps)


def compute_gradient(
    batch: StepBatch,
    params: PolicyParams,
    config: TrainConfig,
    tracker: EntropyTracker,
    advantages: np.ndarray | None = None,
) -> GradientResult:
    """Batch-mean ascent gradient of the bounded, advantage-weighted objective.

    For every slate: the sequence ratio against the snapshot's log-probs,
    which the batch carries, the advantage, the optimizer's coefficient, and
    the analytic per-item-averaged log-prob gradient, accumulated with one
    weight vector per user group. A batch without a scan is rescored under
    ``params``; ``advantages`` default to the batch's own. The result keeps
    the pass's per-slate ratios and coefficients unreduced.
    """
    config = config.resolve()
    B, G, L = batch.items.shape
    if L != config.slate_length:
        raise ValueError("slate length disagrees with config")
    S = B * G
    if advantages is None:
        advantages = _batch_advantages(batch.rewards, config)
    elif np.shape(advantages) != (S,):
        raise ValueError(f"advantages must have shape ({S},), one per slate; got {np.shape(advantages)}")

    scan = batch.scan
    if scan is None:
        scan = scan_slates(np.stack([user_scores(params, int(u)) for u in batch.users]), batch.items)
    # Overflow here produces inf ratios, which the explicit check below turns
    # into a diagnosable error; the warning itself is noise.
    with np.errstate(over="ignore"):
        ratios = np.exp(log_ratio(scan.logps, batch.logps).ravel())
    if not np.all(np.isfinite(ratios)):
        bad = int(np.flatnonzero(~np.isfinite(ratios))[0])
        raise NumericAbort(
            f"non-finite sequence ratio for slate {bad % G} of user {int(batch.users[bad // G])}"
        )

    if config.optimizer == "sage":
        coefs = effective_coefficient(ratios, advantages, batch.entropies, tracker, config.bounds)
    elif config.optimizer == "gbpo":
        coefs = gbpo_coefficient(ratios)
    else:
        coefs = grpo_clip_coefficient(ratios, advantages, config.grpo_clip_eps)
    if not np.all(np.isfinite(coefs)):
        raise NumericAbort("non-finite bound coefficient")

    w = scan.weights((coefs * advantages / (L * S)).reshape(B, G))
    # Only the user rows accumulate, so only they start from zeros.
    user_grad = np.zeros_like(params.user_embeddings)
    np.add.at(user_grad, batch.users, w @ params.item_embeddings)
    grad = PolicyGradient(user_grad, w.T @ params.user_embeddings[batch.users], w.sum(axis=0))
    if not grad.all_finite():
        raise NumericAbort("non-finite gradient")
    return GradientResult(grad, ratios, coefs)


def apply_update(
    params: PolicyParams,
    gradient: PolicyGradient,
    state: OptimizerState,
    config: TrainConfig,
) -> PolicyParams:
    """One ascent step, in place; plain SGD or bias-corrected adaptive moments."""
    lr = config.learning_rate
    if config.update_rule == "sgd":
        for name in ARRAY_NAMES:
            getattr(params, name)[...] += lr * getattr(gradient, name)
    else:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        if state.m is None:
            state.m = PolicyGradient.zeros_like(params)
            state.v = PolicyGradient.zeros_like(params)
        state.step += 1
        t = state.step
        for name in ARRAY_NAMES:
            g = getattr(gradient, name)
            m = getattr(state.m, name)
            v = getattr(state.v, name)
            m[...] = beta1 * m + (1 - beta1) * g
            v[...] = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            getattr(params, name)[...] += lr * m_hat / (np.sqrt(v_hat) + eps)
    for name in ARRAY_NAMES:
        if not np.all(np.isfinite(getattr(params, name))):
            raise NumericAbort(f"non-finite parameters in {name} after update")
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
        # A walk over the fields, not ``asdict``, whose recursive deep copy
        # of every value costs about five times as much per report row.
        return {f.name: getattr(self, f.name) for f in fields(self)}

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
        """Read a report; a row that is not a ``StepRecord`` is a ``ValueError`` at ``path:line``."""
        records = []
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if line.strip():
                    try:
                        records.append(StepRecord.from_dict(json.loads(line)))
                    except (TypeError, ValueError) as exc:
                        raise ValueError(f"{path}:{lineno}: {exc}") from exc
        return cls(records=records)


def rank_items(params: PolicyParams, k: int) -> list[tuple[int, ...]]:
    """Top-k item ids per user by unmasked score, ties broken by item id.

    Score order equals the policy's greedy slate order, so this is the
    deterministic ranking the policy induces. Users are scored in the
    blocks of :func:`score_blocks`, so the full score matrix never exists.
    """
    if not 1 <= k <= params.n_items:
        raise ValueError("k must lie in [1, n_items]")
    rankings: list[tuple[int, ...]] = []
    for start, z in score_blocks(params):
        # A block may repeat users the previous one ranked.
        rankings.extend(top_k_ids(row, k) for row in z[len(rankings) - start :])
    return rankings


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


def _worker_job(probe: tuple | None, draw: tuple | None) -> tuple[float | None, StepDraws | None]:
    """A step's one worker job: probe the previous step's cold mass, then draw the next step."""
    mass = None if probe is None else mean_first_position_mass(*probe)
    return mass, None if draw is None else _draw_step(*draw)


def train(config: TrainConfig, world: World) -> TrainResult:
    """Run the full optimization loop and collect the per-step report.

    Step order: snapshot, collect the user batch and its advantages, run the
    configured number of gradient updates against the snapshot, fold the
    batch-mean slate entropy into the tracker, then record the step's
    statistics once (the advantages' mean and std, and the last update's
    coefficient means over the nonnegative- and negative-advantage slates)
    and, when due, checkpoint metrics. A :class:`NumericAbort` carries its step.

    Step 0 is drawn before the loop. At the top of step t, after the
    snapshot, the one worker thread gets one job: probe step t-1's cold mass
    on that snapshot (the parameters step t-1 ended with), then draw step
    t+1 into the noise block step t does not read. Step t takes the result
    at its end, so an error in the job carries step t; the last step is
    probed directly. After step 0 only the worker uses the generator. The
    ``with`` block joins the worker whether the loop returns or raises.
    """
    config = config.resolve()
    if config.users_per_step > world.config.n_users:
        raise ValueError("users_per_step exceeds the world's user count")
    if config.eval_k > world.catalog.n_items:
        raise ValueError("eval_k exceeds the world's item count")
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
    probe = (cold_ids, probe_work(params.n_users, params.n_items))
    blocks = np.empty((2, config.users_per_step, config.group_size, params.n_items))
    draw_args = (config.slate_length, world.config.feedback, world.config.n_users)
    draws = _draw_step(rng, blocks[0], *draw_args) if config.total_steps else None
    pending = None  # the previous step's record fields, waiting for its cold mass

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="sagerec-worker") as worker:
        for step in range(config.total_steps):
            try:
                frozen = snapshot(params)
                last = step + 1 == config.total_steps
                job = worker.submit(
                    _worker_job,
                    None if pending is None else (frozen, *probe),
                    None if last else (rng, blocks[(step + 1) % 2], *draw_args),
                )
                batch = _collect_batch(frozen, world, draws.users, draws)
                advantages = _batch_advantages(batch.rewards, config)
                for _ in range(config.updates_per_snapshot):
                    result = compute_gradient(batch, params, config, tracker, advantages)
                    # Only the first pass sees the snapshot's parameters.
                    batch.scan = None
                    params = apply_update(params, result.gradient, opt_state, config)
                batch_entropy = float(
                    batch.entropies.reshape(len(draws.users), -1).mean(axis=1).mean()
                )
                tracker = update_entropy_ema(tracker, batch_entropy)

                eval_metrics = None
                if config.checkpoint_every and (step + 1) % config.checkpoint_every == 0:
                    eval_metrics = evaluate_policy(params, world, config.eval_k)
                mass, draws = job.result()
                if pending is not None:
                    report.records.append(StepRecord(cold_mass=mass, **pending))
            except NumericAbort as exc:
                exc.step = step
                raise
            pos, coefs = advantages >= 0, result.coefficients
            pending = dict(
                step=step,
                mean_entropy=batch_entropy,
                advantage_mean=float(advantages.mean()),
                advantage_std=float(advantages.std()),
                coef_pos_mean=float(coefs[pos].mean()) if pos.any() else None,
                coef_neg_mean=float(coefs[~pos].mean()) if (~pos).any() else None,
                eval=eval_metrics,
            )
    if pending is not None:
        mass = mean_first_position_mass(params, *probe)
        report.records.append(StepRecord(cold_mass=mass, **pending))
    return TrainResult(report=report, params=params, tracker=tracker)
