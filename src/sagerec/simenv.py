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

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .metrics import top_k_ids
from .policy import json_integers

CATALOG_SCHEMA_VERSION = 1


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
        catalog = replace(self, cold_items=frozenset(int(i) for i in cold))
        catalog.validate()
        return catalog

    def validate(self) -> None:
        if not (self.categories.shape == self.quality.shape == self.popularity.shape):
            raise ValueError("catalog arrays must share one shape")
        if self.categories.min() < 0 or self.categories.max() >= self.n_subcats:
            raise ValueError("category labels out of range")
        if np.any(self.quality < 0) or np.any(self.quality > 1):
            raise ValueError("quality must lie in [0, 1]")
        if np.any(self.popularity <= 0):
            raise ValueError("popularity weights must be positive")
        bad = sorted(i for i in self.cold_items if not 0 <= i < self.n_items)
        if bad:
            raise ValueError(f"cold ids out of range: {bad[:5]}")


@dataclass(frozen=True)
class FeedbackConfig:
    """Two-objective feedback model.

    Click probability is sigmoid(affinity_weight * preference[category]
    + quality_weight * quality + click_bias); watch-time is click *
    engagement * quality * lognormal noise with unit mean.
    """

    affinity_weight: float = 6.0
    quality_weight: float = 2.0
    click_bias: float = -3.0
    watch_noise_sigma: float = 0.35

    def __post_init__(self) -> None:
        if self.watch_noise_sigma < 0:
            raise ValueError("watch_noise_sigma must be >= 0")

    def click_logits(self, affinity, quality):
        """Click logit of items with these preference weights and qualities."""
        return self.affinity_weight * affinity + self.quality_weight * quality + self.click_bias


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


def generate_catalog(config: WorldConfig, seed) -> Catalog:
    """Build the item side of the world of ``config``.

    Sub-categories are assigned round-robin, then a tenth of the items are
    rescattered so category sizes are uneven. Popularity follows a power law
    over a random rank permutation. Quality values are drawn independently of
    popularity, then rearranged so popularity reads as exposure rather than
    merit: every at-least-median value is swapped into the less-popular half
    of the catalog, and the global top values land on the least-exposed
    cold-fraction floor, where the latent winners live.
    """
    n_items, n_subcats = config.n_items, config.n_subcats
    rng = np.random.default_rng(seed)

    categories = np.arange(n_items) % n_subcats
    n_jitter = n_items // 10
    if n_jitter:
        moved = rng.choice(n_items, size=n_jitter, replace=False)
        categories = categories.copy()
        categories[moved] = rng.integers(0, n_subcats, size=n_jitter)

    ranks = rng.permutation(n_items)
    popularity = (ranks + 1.0) ** (-config.zipf_exponent)
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
    floor_size = math.ceil(config.cold_fraction * n_items)
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


def generate_users(config: WorldConfig, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw the preference vectors of ``config``'s users, with a shared mainstream tilt.

    Returns the (n_users, n_subcats) preference rows, each on the simplex,
    and the (n_users,) watch-time engagement scales. Every user's preference
    is a blend of one global prior (mass decaying as 1/(c+1) over
    sub-categories) and an individual Dirichlet draw. The shared component
    concentrates the population on the same few head categories, which is
    what lets diversity collapse become visible at the corpus level.
    """
    n_users, n_subcats = config.n_users, config.n_subcats
    mainstream = config.mainstream_weight
    rng = np.random.default_rng(seed)
    prior = 1.0 / (np.arange(n_subcats) + 1.0)
    prior = prior / prior.sum()
    preference = np.empty((n_users, n_subcats))
    engagement = np.empty(n_users)
    for u in range(n_users):
        own = rng.dirichlet(np.full(n_subcats, config.preference_concentration))
        pref = mainstream * prior + (1.0 - mainstream) * own
        preference[u] = pref / pref.sum()
        engagement[u] = rng.uniform(config.engagement_low, config.engagement_high)
    return preference, engagement


def logged_pretraining(
    catalog: Catalog,
    preference: np.ndarray,
    n_interactions: int,
    seed,
) -> InteractionLog:
    """Sample a popularity-biased interaction history of the users' ``preference`` rows.

    Each event picks a user uniformly at random and an item with probability
    proportional to popularity * preference[category]. The result is the world
    the policy is pretrained on and the frequency distribution that defines
    cold items.
    """
    rng = np.random.default_rng(seed)
    n_users = len(preference)
    user_ids = rng.integers(0, n_users, size=n_interactions)
    uniforms = rng.random(n_interactions)
    item_ids = np.empty(n_interactions, dtype=np.int64)
    for u in np.unique(user_ids):
        # Row first: ``preference[u, categories]`` is a slower advanced index.
        weights = catalog.popularity * preference[u][catalog.categories]
        cdf = np.cumsum(weights / weights.sum())
        rows = np.flatnonzero(user_ids == u)
        picked = np.searchsorted(cdf, uniforms[rows], side="right")
        item_ids[rows] = np.minimum(picked, catalog.n_items - 1)
    return InteractionLog(user_ids=user_ids.astype(np.int64), item_ids=item_ids)


def feedback_noise(
    rng: np.random.Generator, shape: tuple[int, ...], config: FeedbackConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The draws :func:`feedback` reads for slates of ``shape``: click uniforms, then watch noise.

    The watch noise is log-normal with unit mean and log-scale
    ``config.watch_noise_sigma``.
    """
    sigma = config.watch_noise_sigma
    return rng.random(shape), rng.lognormal(-0.5 * sigma * sigma, sigma, shape)


# The feedback objectives, in the order of the last axis of :func:`feedback`.
N_OBJECTIVES = 2


def feedback(
    preference: np.ndarray,
    engagement: np.ndarray,
    slates,
    catalog: Catalog,
    click_uniforms: np.ndarray,
    watch_noise: np.ndarray,
    config: FeedbackConfig,
) -> np.ndarray:
    """Score (B, G, L) slates, returning (B, G, 2) rewards (total clicks, total watch-time).

    Row b's G slates are shown to the user whose (n_subcats,) preference row
    is ``preference[b]`` and whose engagement is ``engagement[b]``. An item is
    clicked when its entry of ``click_uniforms`` lies below its click
    probability, and a click watches ``engagement * quality * watch_noise``.
    Both draw arrays have the slates' shape and come from
    :func:`feedback_noise`, drawn before the slates are known, so no draw
    depends on which items were clicked.
    """
    items = np.asarray(slates, dtype=np.intp)
    B = len(preference)
    if items.ndim != 3 or items.size == 0 or not items.shape[0] == B == len(engagement):
        raise ValueError("slates must be a nonempty (B, G, L) item array, one row per user")
    if items.min() < 0 or items.max() >= catalog.n_items:
        raise ValueError("slate references items beyond the catalog")
    if click_uniforms.shape != items.shape or watch_noise.shape != items.shape:
        raise ValueError("feedback draws must have the slates' shape")
    affinity = preference[np.arange(B)[:, None, None], catalog.categories[items]]
    quality = catalog.quality[items]
    logits = config.click_logits(affinity, quality)
    # The sigmoid is meant to saturate at extreme logits, so overflow in the
    # intermediate exp is expected and harmless.
    with np.errstate(over="ignore"):
        p_click = 1.0 / (1.0 + np.exp(-logits))
    clicks = click_uniforms < p_click
    watch = clicks * engagement[:, None, None] * quality * watch_noise
    return np.stack([clicks.sum(axis=2), watch.sum(axis=2)], axis=2).astype(np.float64)


def identify_cold_items(
    counts: np.ndarray, fraction: float, tiebreak: np.ndarray
) -> frozenset[int]:
    """The ceil(fraction * n) coldest of the n items that ``counts`` counts interactions of.

    Items never interacted with count as zero and are the coldest. Count ties
    are broken by ``tiebreak`` ascending (``build_world`` passes catalog
    popularity, so the least-exposed items win the tie), then by item id so
    the set is reproducible.
    """
    n_items = len(counts)
    order = np.lexsort((np.arange(n_items), tiebreak, counts))
    return frozenset(int(i) for i in order[: math.ceil(fraction * n_items)])


def relevant_items(
    catalog: Catalog, preference: np.ndarray, config: WorldConfig
) -> list[frozenset[int]]:
    """Ground-truth relevant set per ``preference`` row: the ``config.n_relevant``
    items of highest true click probability under ``config.feedback``.

    Ties are broken by item id so the sets are reproducible. Users are ranked
    one at a time, so no (n_users, n_items) logit matrix is built.
    """
    out = []
    for pref in preference:
        logits = config.feedback.click_logits(pref[catalog.categories], catalog.quality)
        out.append(frozenset(top_k_ids(logits, config.n_relevant)))
    return out


def item_vectors(catalog: Catalog) -> np.ndarray:
    """Per-item feature vectors for diversity metrics: one-hot category plus quality."""
    vecs = np.zeros((catalog.n_items, catalog.n_subcats + 1))
    vecs[np.arange(catalog.n_items), catalog.categories] = 1.0
    vecs[:, -1] = catalog.quality
    return vecs


@dataclass(frozen=True)
class WorldConfig:
    """Knobs of the synthetic world; defaults give a minute-scale experiment.

    The generators read their values from here and check none of them again,
    so each rule and default of the world is written once.
    """

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

    def __post_init__(self) -> None:
        # The world's only checks, made when the config is built, so a config
        # file reports them at the key's line before any output exists.
        if not 2 <= self.n_subcats <= self.n_items:
            raise ValueError("need n_items >= n_subcats >= 2")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be >= 0")
        if not 0 < self.cold_fraction < 1:
            raise ValueError("cold_fraction must lie in (0, 1)")
        if self.n_pretrain_interactions < 1:
            raise ValueError("n_pretrain_interactions must be >= 1")
        if not 0 <= self.mainstream_weight <= 1:
            raise ValueError("mainstream_weight must lie in [0, 1]")
        if self.preference_concentration <= 0:
            raise ValueError("preference_concentration must be positive")
        if not 0 < self.engagement_low <= self.engagement_high:
            raise ValueError("need 0 < engagement_low <= engagement_high")
        if not 1 <= self.n_relevant <= self.n_items:
            raise ValueError("n_relevant must lie in [1, n_items]")


@dataclass(frozen=True)
class World:
    """The generated world; ``preference`` (n_users, n_subcats) and
    ``engagement`` (n_users,) are indexed by user id.
    """

    catalog: Catalog
    preference: np.ndarray
    engagement: np.ndarray
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
    catalog = generate_catalog(config, seed=catalog_ss)
    preference, engagement = generate_users(config, seed=users_ss)
    log = logged_pretraining(catalog, preference, config.n_pretrain_interactions, seed=log_ss)
    counts = log.item_counts(config.n_items)
    catalog = catalog.with_cold_items(
        identify_cold_items(counts, config.cold_fraction, catalog.popularity)
    )
    relevant = relevant_items(catalog, preference, config)
    return World(catalog, preference, engagement, log, relevant, config)


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
    """Read a catalog file; every malformed file is a ``ValueError`` naming ``path``."""
    try:
        payload = json.loads(Path(path).read_bytes())
        if not isinstance(payload, dict) or payload.get("kind") != "catalog":
            raise ValueError("not a catalog file")
        (n_subcats,) = json_integers(payload, CATALOG_SCHEMA_VERSION, "n_subcats")
        cold = payload["cold_items"]
        if not isinstance(cold, list) or any(type(i) is not int for i in cold):
            raise ValueError("cold_items must be a list of integer ids")
        return Catalog(
            n_subcats=n_subcats,
            categories=np.asarray(payload["categories"], dtype=np.int64),
            quality=np.asarray(payload["quality"], dtype=np.float64),
            popularity=np.asarray(payload["popularity"], dtype=np.float64),
        ).with_cold_items(frozenset(cold))
    except KeyError as exc:
        raise ValueError(f"{path}: catalog lacks {exc.args[0]}") from exc
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
