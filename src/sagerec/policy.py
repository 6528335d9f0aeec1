"""Toy autoregressive slate policy over a finite catalog.

The policy scores item i for user u as ``user_emb(u) . item_emb(i) + item_bias(i)``
and generates a slate by repeated softmax draws over the items not already
picked (no-repeat masking): a Plackett–Luce distribution. One array kernel,
``gumbel_top_k`` to sample and ``SlateScan`` to score, serves both the
training batches and the one-slate functions. Everything is exact 64-bit
numpy: log-probabilities and their analytic gradients are available in closed
form, which is what the optimizers build on.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHECKPOINT_SCHEMA_VERSION = 1


@dataclass
class PolicyParams:
    """Parameters of the bilinear softmax slate policy.

    ``user_embeddings`` is (n_users, d), ``item_embeddings`` is (n_items, d),
    ``item_bias`` is (n_items,). ``seed`` records how the parameters were
    initialized, for checkpoint provenance.
    """

    user_embeddings: np.ndarray
    item_embeddings: np.ndarray
    item_bias: np.ndarray
    seed: int = 0

    @property
    def n_users(self) -> int:
        return self.user_embeddings.shape[0]

    @property
    def n_items(self) -> int:
        return self.item_embeddings.shape[0]

    @property
    def d(self) -> int:
        return self.item_embeddings.shape[1]

    def validate(self) -> None:
        if self.user_embeddings.ndim != 2 or self.item_embeddings.ndim != 2:
            raise ValueError("embedding matrices must be 2-D")
        if self.user_embeddings.shape[1] != self.item_embeddings.shape[1]:
            raise ValueError(
                "user and item embeddings disagree on dimension: "
                f"{self.user_embeddings.shape[1]} vs {self.item_embeddings.shape[1]}"
            )
        if self.item_bias.shape != (self.n_items,):
            raise ValueError("item_bias shape does not match item count")
        for name in ("user_embeddings", "item_embeddings", "item_bias"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite entries in {name}")


class FrozenPolicy(PolicyParams):
    """An immutable copy of :class:`PolicyParams` taken at sampling time."""


@dataclass
class Slate:
    """An ordered list of L distinct items with their sampling log-probs.

    ``logps[t]`` is the log-probability of ``items[t]`` given the preceding
    items, under the policy the slate was sampled from.
    """

    user_id: int
    items: tuple[int, ...]
    logps: np.ndarray

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class PolicyGradient:
    """Gradient with the same shape as :class:`PolicyParams`."""

    user_embeddings: np.ndarray
    item_embeddings: np.ndarray
    item_bias: np.ndarray

    @classmethod
    def zeros_like(cls, params: PolicyParams) -> "PolicyGradient":
        return cls(
            user_embeddings=np.zeros_like(params.user_embeddings),
            item_embeddings=np.zeros_like(params.item_embeddings),
            item_bias=np.zeros_like(params.item_bias),
        )

    def scaled(self, factor: float) -> "PolicyGradient":
        return PolicyGradient(
            user_embeddings=self.user_embeddings * factor,
            item_embeddings=self.item_embeddings * factor,
            item_bias=self.item_bias * factor,
        )

    def all_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.user_embeddings))
            and np.all(np.isfinite(self.item_embeddings))
            and np.all(np.isfinite(self.item_bias))
        )


def init_policy(
    n_users: int,
    n_items: int,
    d: int,
    seed: int,
    item_counts: np.ndarray | None = None,
    bias_smoothing: float = 10.0,
) -> PolicyParams:
    """Initialize policy parameters from a seeded stream.

    Embeddings are zero-mean normal with scale 1/sqrt(d). When ``item_counts``
    (per-item interaction counts from a logged history) is given, the item bias
    is the log of the additively smoothed empirical frequency: the policy
    starts popularity-biased, and ``bias_smoothing`` sets how many phantom
    interactions every item gets, which bounds how far behind the unseen
    items start.
    """
    if n_users < 1 or n_items < 1 or d < 1:
        raise ValueError("n_users, n_items and d must all be >= 1")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d)
    user_embeddings = rng.normal(0.0, scale, size=(n_users, d))
    item_embeddings = rng.normal(0.0, scale, size=(n_items, d))
    if item_counts is None:
        item_bias = np.zeros(n_items)
    else:
        if bias_smoothing <= 0:
            raise ValueError("bias_smoothing must be positive")
        counts = np.asarray(item_counts, dtype=np.float64)
        if counts.shape != (n_items,):
            raise ValueError("item_counts must have one entry per item")
        if np.any(counts < 0):
            raise ValueError("item_counts must be nonnegative")
        item_bias = np.log(
            (counts + bias_smoothing) / (counts.sum() + bias_smoothing * n_items)
        )
    params = PolicyParams(user_embeddings, item_embeddings, item_bias, seed=seed)
    params.validate()
    return params


def user_scores(params: PolicyParams, user: int) -> np.ndarray:
    """Unmasked logits for every item: ``item_emb @ user_emb[user] + bias``."""
    if not 0 <= user < params.n_users:
        raise ValueError(f"user id {user} out of range")
    return params.item_embeddings @ params.user_embeddings[user] + params.item_bias


def gumbel_top_k(
    scores: np.ndarray, group_size: int, slate_length: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``group_size`` slates per score row, returned as (B, G, L) item ids.

    Gumbel-top-k (Kool, van Hoof & Welling, 2019): perturbing every score
    once with -log(Exp(1)) noise and keeping the L largest keys in key order
    is an exact draw of the sequential no-repeat softmax. The noise is one
    (B, G, n) block, so the random stream does not depend on the outcome.
    """
    B, n = scores.shape
    if slate_length < 1:
        raise ValueError("slate length must be >= 1")
    if slate_length > n:
        raise ValueError(f"catalog has {n} items, cannot fill L={slate_length}")
    keys = rng.standard_exponential((B, group_size, n))
    np.log(keys, out=keys)
    np.subtract(scores[:, None, :], keys, out=keys)
    top = np.argpartition(keys, n - slate_length, axis=2)[:, :, n - slate_length :]
    order = np.argsort(-np.take_along_axis(keys, top, axis=2), axis=2)
    return np.take_along_axis(top, order, axis=2)


class SlateScan:
    """Plackett–Luce log-probabilities of slates, and their gradient weights.

    ``scores`` is (B, n), one row per user; ``items`` is (B, G, L), G slates
    of L distinct items per row. The normaliser at position t of a slate is
    ``logaddexp(out, LSE(score[i_t:]))``: ``out`` is the log-sum-exp of the
    items outside the slate, taken in one masked pass shifted by the row's
    own max, and the second term is a reverse accumulation over the slate's
    own L scores. Both are sums of positive terms, so no digits cancel
    however much mass the prefix holds. Every slate is reduced on its own,
    so a slate's numbers do not depend on the rest of the batch.
    """

    def __init__(self, scores: np.ndarray, items: np.ndarray) -> None:
        B, G, L = items.shape
        rows = np.arange(B)[:, None, None]
        self.items = items
        self.chosen = scores[rows, items]
        # outside[b, g] holds exp(score - m) off slate (b, g) and 0 on it.
        self.outside = np.repeat(scores[:, None, :], G, axis=1)
        self.outside[rows, np.arange(G)[None, :, None], items] = -np.inf
        self.m = self.outside.max(axis=2)
        # A catalog-covering slate leaves nothing outside: its m is -inf.
        shift = np.where(np.isneginf(self.m), 0.0, self.m)
        np.subtract(self.outside, shift[:, :, None], out=self.outside)
        np.exp(self.outside, out=self.outside)
        with np.errstate(divide="ignore"):
            out = shift + np.log(self.outside.sum(axis=2))
        tail = np.logaddexp.accumulate(self.chosen[:, :, ::-1], axis=2)[:, :, ::-1]
        self.lognorm = np.logaddexp(out[:, :, None], tail)
        self.logps = self.chosen - self.lognorm

    def weights(self, alpha: np.ndarray) -> np.ndarray:
        """Per row, sum over slates of alpha times the log-prob gradient weights.

        A slate's weight vector is the sum over positions of one-hot(chosen)
        minus the masked softmax; ``alpha`` is (B, G). Items outside a slate
        carry exp(score) / Z_t at every position, which factors into the
        stored ``outside`` row times one scalar per slate. The slate's own
        items, available up to their position, are added with one bincount.
        """
        B, G, L = self.items.shape
        n = self.outside.shape[2]
        out_coef = -alpha * np.exp(self.m[:, :, None] - self.lognorm).sum(axis=2)
        w = np.einsum("bg,bgn->bn", out_coef, self.outside)
        taken = np.exp(self.chosen + np.logaddexp.accumulate(-self.lognorm, axis=2))
        flat = (np.arange(B)[:, None, None] * n + self.items).ravel()
        w += np.bincount(
            flat, (alpha[:, :, None] * (1.0 - taken)).ravel(), minlength=B * n
        ).reshape(B, n)
        return w


def _check_items(params: PolicyParams, items) -> tuple[int, ...]:
    items = tuple(int(i) for i in items)
    if len(items) == 0:
        raise ValueError("empty item sequence")
    if len(set(items)) != len(items):
        raise ValueError(f"repeated item in slate: {items}")
    for i in items:
        if not 0 <= i < params.n_items:
            raise ValueError(f"item id {i} out of range")
    return items


def _scan_one(params: PolicyParams, user: int, items) -> SlateScan:
    items = _check_items(params, items)
    return SlateScan(user_scores(params, user)[None, :], np.array([[items]]))


def next_item_distribution(
    params: PolicyParams, user: int, prefix=()
) -> np.ndarray:
    """Probability of each item at the next slate position.

    The returned vector has one entry per catalog item, is exactly zero on
    prefix items, and sums to 1 over the rest: the plain masked softmax.
    """
    prefix = tuple(int(i) for i in prefix)
    if len(set(prefix)) != len(prefix):
        raise ValueError("prefix contains repeated items")
    if len(prefix) >= params.n_items:
        raise RuntimeError("prefix exhausts the catalog; no next item exists")
    masked = user_scores(params, user)
    for i in prefix:
        if not 0 <= i < params.n_items:
            raise ValueError(f"prefix item id {i} out of range")
        masked[i] = -np.inf
    probs = np.exp(masked - masked.max())
    return probs / probs.sum()


def sample_slate(
    params: PolicyParams, user: int, L: int, rng: np.random.Generator
) -> Slate:
    """Draw L items without replacement, recording their log-probs."""
    scores = user_scores(params, user)[None, :]
    items = gumbel_top_k(scores, 1, L, rng)
    logps = SlateScan(scores, items).logps[0, 0]
    return Slate(user_id=user, items=tuple(int(i) for i in items[0, 0]), logps=logps)


def slate_log_prob(
    params: PolicyParams, user: int, items
) -> tuple[float, np.ndarray]:
    """Total and per-position log-probability of generating ``items`` in order."""
    per_position = _scan_one(params, user, items).logps[0, 0]
    return float(per_position.sum()), per_position


def log_prob_grad(params: PolicyParams, user: int, items) -> PolicyGradient:
    """Analytic gradient of the total slate log-probability.

    Returns the sum over positions of grad log pi(i_t | u, prefix); callers
    that want the per-item average apply their own 1/L. The slate's weight
    vector w carries the whole gradient: d/d bias = w, d/d item_emb =
    outer(w, u), d/d user_emb = item_emb.T @ w.
    """
    w = _scan_one(params, user, items).weights(np.ones((1, 1)))[0]
    grad = PolicyGradient.zeros_like(params)
    grad.item_bias[:] = w
    grad.item_embeddings[:] = np.outer(w, params.user_embeddings[user])
    grad.user_embeddings[user] = params.item_embeddings.T @ w
    return grad


def snapshot(params: PolicyParams) -> FrozenPolicy:
    """Immutable deep copy of the parameters; later updates leave it unchanged."""
    frozen = FrozenPolicy(
        user_embeddings=params.user_embeddings.copy(),
        item_embeddings=params.item_embeddings.copy(),
        item_bias=params.item_bias.copy(),
        seed=params.seed,
    )
    for arr in (frozen.user_embeddings, frozen.item_embeddings, frozen.item_bias):
        arr.setflags(write=False)
    return frozen


def mean_first_position_mass(params: PolicyParams, items: np.ndarray) -> float:
    """Mean over users of the first-position probability mass on ``items``.

    The probe the training reports use to track how much of the policy's head
    distribution sits on a given item pool (e.g. the cold set).
    """
    items = np.asarray(items, dtype=np.intp)
    z = params.user_embeddings @ params.item_embeddings.T
    z += params.item_bias
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    return float((z[:, items].sum(axis=1) / z.sum(axis=1)).mean())


def save_checkpoint(params: PolicyParams, path: str | Path) -> None:
    """Write parameters to a self-describing JSON checkpoint."""
    payload = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "kind": "policy_checkpoint",
        "n_users": params.n_users,
        "n_items": params.n_items,
        "d": params.d,
        "seed": params.seed,
        "user_embeddings": params.user_embeddings.tolist(),
        "item_embeddings": params.item_embeddings.tolist(),
        "item_bias": params.item_bias.tolist(),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def load_checkpoint(path: str | Path) -> PolicyParams:
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != "policy_checkpoint":
        raise ValueError(f"{path}: not a policy checkpoint")
    params = PolicyParams(
        user_embeddings=np.array(payload["user_embeddings"], dtype=np.float64),
        item_embeddings=np.array(payload["item_embeddings"], dtype=np.float64),
        item_bias=np.array(payload["item_bias"], dtype=np.float64),
        seed=int(payload["seed"]),
    )
    expected = (payload["n_users"], payload["n_items"], payload["d"])
    if (params.n_users, params.n_items, params.d) != tuple(expected):
        raise ValueError(f"{path}: checkpoint dimensions inconsistent with matrices")
    params.validate()
    return params


def clone(params: PolicyParams) -> PolicyParams:
    """Writable deep copy (snapshot returns the read-only variant)."""
    return dataclasses.replace(
        params,
        user_embeddings=params.user_embeddings.copy(),
        item_embeddings=params.item_embeddings.copy(),
        item_bias=params.item_bias.copy(),
    )
