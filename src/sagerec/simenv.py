"""Seeded synthetic recommendation world.

The world has three generated pieces: a catalog (sub-categories, power-law
popularity, quality drawn independently of popularity), a user population
(simplex preferences over sub-categories with a shared mainstream tilt, plus
an engagement scale), and a logged pretraining history sampled proportional
to popularity times preference. The log defines the cold-item set (bottom
fraction by interaction count) and seeds the policy's popularity-biased
bias vector. Feedback is two-objective: Bernoulli clicks from a sigmoid of
affinity and quality, and watch-time gated on the click.

Everything is a pure function of (config, seed); repeated calls with the same
arguments produce identical worlds.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .metrics import top_k_ids

CATALOG_SCHEMA_VERSION = 1
LOG_CSV_HEADER = ("user_id", "item_id", "timestamp_ordinal")


@dataclass(frozen=True)
class Catalog:
    """Item-side world state. All arrays are indexed by item id.

    ``cold_items`` is empty until a logged history exists; ``build_world``
    fills it from the pretraining log (bottom fraction by interaction count).
    """

    n_subcats: int
    categories: np.ndarray
    quality: np.ndarray
    popularity: np.ndarray
    cold_items: frozenset[int] = frozenset()

    @property
    def n_items(self) -> int:
        return self.categories.shape[0]

    def with_cold_items(self, cold: frozenset[int]) -> "Catalog":
        bad = [i for i in cold if not 0 <= i < self.n_items]
        if bad:
            raise ValueError(f"cold ids out of range: {sorted(bad)[:5]}")
        return replace(self, cold_items=frozenset(int(i) for i in cold))

    def validate(self) -> None:
        if not (self.categories.shape == self.quality.shape == self.popularity.shape):
            raise ValueError("catalog arrays must share one shape")
        if self.categories.min() < 0 or self.categories.max() >= self.n_subcats:
            raise ValueError("category labels out of range")
        if np.any(self.quality < 0) or np.any(self.quality > 1):
            raise ValueError("quality must lie in [0, 1]")
        if np.any(self.popularity <= 0):
            raise ValueError("popularity weights must be positive")


@dataclass(frozen=True)
class UserModel:
    """Per-user taste: simplex weights over sub-categories plus a watch-time scale."""

    preference: np.ndarray
    engagement_scale: float

    def validate(self) -> None:
        if np.any(self.preference < 0):
            raise ValueError("preference weights must be nonnegative")
        if abs(float(self.preference.sum()) - 1.0) > 1e-9:
            raise ValueError("preference weights must sum to 1")
        if self.engagement_scale <= 0:
            raise ValueError("engagement_scale must be positive")


@dataclass(frozen=True)
class FeedbackConfig:
    """Two-objective feedback model.

    Click probability is sigmoid(affinity_weight * preference[category]
    + quality_weight * quality + click_bias); watch-time is click *
    engagement_scale * quality * lognormal noise with unit mean.
    """

    affinity_weight: float = 6.0
    quality_weight: float = 2.0
    click_bias: float = -3.0
    watch_noise_sigma: float = 0.35

    def __post_init__(self) -> None:
        if self.watch_noise_sigma < 0:
            raise ValueError("watch_noise_sigma must be >= 0")


@dataclass(frozen=True)
class InteractionLog:
    """Ordered user-item interaction events; row index is the timestamp ordinal."""

    user_ids: np.ndarray
    item_ids: np.ndarray

    def __post_init__(self) -> None:
        if self.user_ids.shape != self.item_ids.shape or self.user_ids.ndim != 1:
            raise ValueError("log columns must be 1-D and equally long")

    def __len__(self) -> int:
        return self.user_ids.shape[0]

    def item_counts(self, n_items: int) -> np.ndarray:
        if len(self) and self.item_ids.max() >= n_items:
            raise ValueError("log references items beyond the catalog")
        return np.bincount(self.item_ids, minlength=n_items)


def generate_catalog(
    n_items: int,
    n_subcats: int,
    zipf_exponent: float,
    cold_fraction: float,
    seed,
) -> Catalog:
    """Build the item side of the world.

    Sub-categories are assigned round-robin, then a tenth of the items are
    rescattered so category sizes are uneven. Popularity follows a power law
    over a random rank permutation. Quality values are drawn independently of
    popularity, then rearranged so popularity reads as exposure rather than
    merit: every at-least-median value is swapped into the less-popular half
    of the catalog, and the global top values land on the least-exposed
    cold-fraction floor, where the latent winners live.
    """
    if n_subcats < 2 or n_items < n_subcats:
        raise ValueError("need n_items >= n_subcats >= 2")
    if zipf_exponent < 0:
        raise ValueError("zipf_exponent must be >= 0")
    if not 0 < cold_fraction < 1:
        raise ValueError("cold_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)

    categories = np.arange(n_items) % n_subcats
    n_jitter = n_items // 10
    if n_jitter:
        moved = rng.choice(n_items, size=n_jitter, replace=False)
        categories = categories.copy()
        categories[moved] = rng.integers(0, n_subcats, size=n_jitter)

    ranks = rng.permutation(n_items)
    popularity = (ranks + 1.0) ** (-zipf_exponent)
    popularity = popularity / popularity.sum()

    quality = rng.uniform(0.0, 1.0, n_items)
    # Popularity models past exposure, not merit: after the independent draw,
    # every at-least-median quality value is swapped into the less-popular
    # half of the catalog, so the head is safe but mediocre and everything
    # worth discovering sits in the shadows with the cold items.
    pool_size = n_items // 2
    pool = np.lexsort((np.arange(n_items), popularity))[:pool_size]
    median_q = float(np.median(quality))
    floor = pool_size
    good_in_pool = pool[quality[pool] >= median_q]
    deficit = floor - good_in_pool.shape[0]
    if deficit > 0:
        outside = np.setdiff1d(np.arange(n_items), pool, assume_unique=False)
        donors = rng.permutation(outside[quality[outside] >= median_q])[:deficit]
        poor = pool[quality[pool] < median_q]
        poor = poor[np.argsort(quality[poor])][: donors.shape[0]]
        quality = quality.copy()
        quality[poor], quality[donors] = quality[donors], quality[poor].copy()

    # The exposure floor (the cold-fraction least-popular items) hides the
    # catalog's best work: the global top quality values are swapped in, in
    # shuffled order, so the latent winners the optimizers are judged on
    # really are the items the logged history never surfaced.
    floor_size = math.ceil(cold_fraction * n_items)
    floor_items = np.lexsort((np.arange(n_items), popularity))[:floor_size]
    holders = np.argsort(quality, kind="stable")[-floor_size:]
    on_floor = np.zeros(n_items, dtype=bool)
    on_floor[floor_items] = True
    holding = np.zeros(n_items, dtype=bool)
    holding[holders] = True
    give = rng.permutation(holders[~on_floor[holders]])
    take = rng.permutation(floor_items[~holding[floor_items]])
    if give.shape[0]:
        quality = quality.copy()
        quality[take], quality[give] = quality[give], quality[take].copy()

    catalog = Catalog(
        n_subcats=n_subcats,
        categories=categories,
        quality=quality,
        popularity=popularity,
    )
    catalog.validate()
    return catalog


def generate_users(
    n_users: int,
    n_subcats: int,
    seed,
    mainstream_weight: float = 0.5,
    concentration: float = 0.3,
    engagement_low: float = 20.0,
    engagement_high: float = 60.0,
) -> list[UserModel]:
    """Draw user preference vectors with a shared mainstream tilt.

    Every user's preference is a blend of one global prior (mass decaying as
    1/(c+1) over sub-categories) and an individual Dirichlet draw. The shared
    component concentrates the population on the same few head categories,
    which is what lets diversity collapse become visible at the corpus level.
    """
    if n_users < 1 or n_subcats < 2:
        raise ValueError("need n_users >= 1 and n_subcats >= 2")
    if not 0 <= mainstream_weight <= 1:
        raise ValueError("mainstream_weight must lie in [0, 1]")
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    if not 0 < engagement_low <= engagement_high:
        raise ValueError("engagement range must satisfy 0 < low <= high")
    rng = np.random.default_rng(seed)
    prior = 1.0 / (np.arange(n_subcats) + 1.0)
    prior = prior / prior.sum()
    users = []
    for _ in range(n_users):
        own = rng.dirichlet(np.full(n_subcats, concentration))
        pref = mainstream_weight * prior + (1.0 - mainstream_weight) * own
        pref = pref / pref.sum()
        engagement = float(rng.uniform(engagement_low, engagement_high))
        user = UserModel(preference=pref, engagement_scale=engagement)
        user.validate()
        users.append(user)
    return users


def logged_pretraining(
    catalog: Catalog,
    users: list[UserModel],
    n_interactions: int,
    seed,
) -> InteractionLog:
    """Sample a popularity-biased interaction history.

    Each event picks a user uniformly at random and an item with probability
    proportional to popularity * preference[category]. The result is the world
    the policy is pretrained on and the frequency distribution that defines
    cold items.
    """
    if n_interactions < 1:
        raise ValueError("n_interactions must be >= 1")
    if not users:
        raise ValueError("need at least one user")
    rng = np.random.default_rng(seed)
    n_users = len(users)
    user_ids = rng.integers(0, n_users, size=n_interactions)
    uniforms = rng.random(n_interactions)
    item_ids = np.empty(n_interactions, dtype=np.int64)
    for u in np.unique(user_ids):
        weights = catalog.popularity * users[u].preference[catalog.categories]
        cdf = np.cumsum(weights / weights.sum())
        rows = np.flatnonzero(user_ids == u)
        picked = np.searchsorted(cdf, uniforms[rows], side="right")
        item_ids[rows] = np.minimum(picked, catalog.n_items - 1)
    return InteractionLog(user_ids=user_ids.astype(np.int64), item_ids=item_ids)


def feedback(
    user: UserModel,
    slate_items,
    catalog: Catalog,
    rng: np.random.Generator,
    config: FeedbackConfig,
) -> np.ndarray:
    """Score one slate, returning the reward vector (total clicks, total watch-time).

    Exactly 2L random draws are consumed per call (one uniform and one noise
    value per item) regardless of outcomes, so downstream draws do not depend
    on which items were clicked.
    """
    items = np.asarray(slate_items, dtype=np.intp)
    if items.ndim != 1 or items.shape[0] == 0:
        raise ValueError("slate must be a nonempty 1-D item sequence")
    if items.min() < 0 or items.max() >= catalog.n_items:
        raise ValueError("slate references items beyond the catalog")
    affinity = user.preference[catalog.categories[items]]
    quality = catalog.quality[items]
    logits = (
        config.affinity_weight * affinity
        + config.quality_weight * quality
        + config.click_bias
    )
    # The sigmoid is meant to saturate at extreme logits, so overflow in the
    # intermediate exp is expected and harmless.
    with np.errstate(over="ignore"):
        p_click = 1.0 / (1.0 + np.exp(-logits))
    clicks = rng.random(items.shape[0]) < p_click
    sigma = config.watch_noise_sigma
    noise = rng.lognormal(-0.5 * sigma * sigma, sigma, items.shape[0])
    watch = clicks * user.engagement_scale * quality * noise
    return np.array([float(clicks.sum()), float(watch.sum())])


def identify_cold_items(
    log, fraction: float, n_items: int, tiebreak: np.ndarray | None = None
) -> frozenset[int]:
    """Bottom ceil(fraction * n_items) items by interaction count.

    ``log`` may be an :class:`InteractionLog` or a precomputed per-item count
    vector. Items never interacted with count as zero and are the coldest.
    Count ties are broken by ``tiebreak`` ascending when given (``build_world``
    passes catalog popularity, so the least-exposed items win the tie), then
    by item id so the set is reproducible.
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must lie in (0, 1)")
    if isinstance(log, InteractionLog):
        if len(log) == 0:
            raise ValueError("empty interaction log")
        counts = log.item_counts(n_items)
    else:
        counts = np.asarray(log)
        if counts.shape != (n_items,):
            raise ValueError("count vector length must equal n_items")
    k = math.ceil(fraction * n_items)
    if tiebreak is None:
        tiebreak = np.zeros(n_items)
    elif np.asarray(tiebreak).shape != (n_items,):
        raise ValueError("tiebreak vector length must equal n_items")
    order = np.lexsort((np.arange(n_items), np.asarray(tiebreak), counts))
    return frozenset(int(i) for i in order[:k])


def relevant_items(
    catalog: Catalog,
    users: list[UserModel],
    config: FeedbackConfig,
    n_relevant: int,
) -> list[frozenset[int]]:
    """Ground-truth relevant set per user: top items by true click probability.

    Ties are broken by item id so the sets are reproducible.
    """
    if not 1 <= n_relevant <= catalog.n_items:
        raise ValueError("n_relevant must lie in [1, n_items]")
    out = []
    for user in users:
        logits = (
            config.affinity_weight * user.preference[catalog.categories]
            + config.quality_weight * catalog.quality
            + config.click_bias
        )
        out.append(frozenset(top_k_ids(logits, n_relevant)))
    return out


def item_vectors(catalog: Catalog) -> np.ndarray:
    """Per-item feature vectors for diversity metrics: one-hot category plus quality."""
    vecs = np.zeros((catalog.n_items, catalog.n_subcats + 1))
    vecs[np.arange(catalog.n_items), catalog.categories] = 1.0
    vecs[:, -1] = catalog.quality
    return vecs


@dataclass(frozen=True)
class WorldConfig:
    """Knobs of the synthetic world; defaults give a minute-scale experiment."""

    n_items: int = 1000
    n_subcats: int = 24
    n_users: int = 200
    zipf_exponent: float = 1.1
    cold_fraction: float = 0.2
    n_pretrain_interactions: int = 20000
    mainstream_weight: float = 0.5
    preference_concentration: float = 0.3
    engagement_low: float = 20.0
    engagement_high: float = 60.0
    n_relevant: int = 20
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)


@dataclass(frozen=True)
class World:
    catalog: Catalog
    users: list[UserModel]
    log: InteractionLog
    relevant: list[frozenset[int]]
    config: WorldConfig


def build_world(config: WorldConfig, seed: int) -> World:
    """Generate catalog, users and pretraining log from one master seed.

    Sub-streams are spawned from a SeedSequence so the pieces are independent
    but jointly reproducible. The catalog's cold set is derived from the log.
    """
    ss = np.random.SeedSequence(seed)
    catalog_ss, users_ss, log_ss = ss.spawn(3)
    catalog = generate_catalog(
        config.n_items,
        config.n_subcats,
        config.zipf_exponent,
        config.cold_fraction,
        seed=catalog_ss,
    )
    users = generate_users(
        config.n_users,
        config.n_subcats,
        seed=users_ss,
        mainstream_weight=config.mainstream_weight,
        concentration=config.preference_concentration,
        engagement_low=config.engagement_low,
        engagement_high=config.engagement_high,
    )
    log = logged_pretraining(catalog, users, config.n_pretrain_interactions, seed=log_ss)
    cold = identify_cold_items(
        log, config.cold_fraction, config.n_items, tiebreak=catalog.popularity
    )
    catalog = catalog.with_cold_items(cold)
    relevant = relevant_items(catalog, users, config.feedback, config.n_relevant)
    return World(catalog=catalog, users=users, log=log, relevant=relevant, config=config)


def save_log(log: InteractionLog, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_CSV_HEADER)
        for ordinal, (u, i) in enumerate(zip(log.user_ids, log.item_ids)):
            writer.writerow([int(u), int(i), ordinal])


def load_log(path: str | Path) -> InteractionLog:
    users, items = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != LOG_CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(LOG_CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                users.append(int(row[0]))
                items.append(int(row[1]))
                int(row[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer field") from exc
    if not users:
        raise ValueError(f"{path}: log has no rows")
    return InteractionLog(
        user_ids=np.asarray(users, dtype=np.int64),
        item_ids=np.asarray(items, dtype=np.int64),
    )


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    payload = {
        "schema_version": CATALOG_SCHEMA_VERSION,
        "kind": "catalog",
        "n_subcats": catalog.n_subcats,
        "categories": catalog.categories.tolist(),
        "quality": catalog.quality.tolist(),
        "popularity": catalog.popularity.tolist(),
        "cold_items": sorted(catalog.cold_items),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def load_catalog(path: str | Path) -> Catalog:
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != "catalog":
        raise ValueError(f"{path}: not a catalog file")
    catalog = Catalog(
        n_subcats=int(payload["n_subcats"]),
        categories=np.asarray(payload["categories"], dtype=np.int64),
        quality=np.asarray(payload["quality"], dtype=np.float64),
        popularity=np.asarray(payload["popularity"], dtype=np.float64),
        cold_items=frozenset(int(i) for i in payload["cold_items"]),
    )
    catalog.validate()
    return catalog
