"""Toy autoregressive slate policy over a finite catalog.

The policy scores item i for user u as ``user_emb(u) . item_emb(i) + item_bias(i)``
and generates a slate by repeated softmax draws over the items not already
picked (no-repeat masking): a Plackett–Luce distribution. One array kernel,
``gumbel_top_k`` to sample and ``SlateScan`` to score, serves both the
training batches and the one-slate functions; ``score_blocks`` scores all
users block by block for the cold-mass probe and the rankings. Everything is
exact 64-bit numpy: log-probabilities and their analytic gradients are
available in closed form, which is what the optimizers build on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHECKPOINT_SCHEMA_VERSION = 1
# The parameter arrays, in field order.
ARRAY_NAMES = ("user_embeddings", "item_embeddings", "item_bias")


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
        for name in ARRAY_NAMES:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite entries in {name}")


@dataclass
class PolicyGradient:
    """Gradient with the same shape as :class:`PolicyParams`."""

    user_embeddings: np.ndarray
    item_embeddings: np.ndarray
    item_bias: np.ndarray

    @classmethod
    def zeros_like(cls, params: PolicyParams) -> "PolicyGradient":
        return cls(*(np.zeros_like(getattr(params, name)) for name in ARRAY_NAMES))

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(getattr(self, name))) for name in ARRAY_NAMES)


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


def gumbel_top_k(scores: np.ndarray, slate_length: int, log_noise: np.ndarray) -> np.ndarray:
    """Draw G slates per score row, returned as (B, G, L) item ids.

    Gumbel-top-k (Kool, van Hoof & Welling, 2019): perturbing every score
    once with -log(Exp(1)) noise and keeping the L largest keys in key order
    is an exact draw of the sequential no-repeat softmax. ``log_noise`` is a
    (B, G, n) block of log(Exp(1)) draws, made before the scores are known,
    so the random stream does not depend on the outcome. The keys are built
    in ``log_noise`` itself, which is overwritten.
    """
    B, n = scores.shape
    if log_noise.shape[0] != B or log_noise.shape[2] != n:
        raise ValueError("noise block must be (B, G, n) for (B, n) scores")
    if slate_length < 1:
        raise ValueError("slate length must be >= 1")
    if slate_length > n:
        raise ValueError(f"catalog has {n} items, cannot fill L={slate_length}")
    keys = np.subtract(scores[:, None, :], log_noise, out=log_noise)
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


def _scan_one(params: PolicyParams, user: int, items) -> SlateScan:
    items = tuple(int(i) for i in items)
    if len(items) == 0:
        raise ValueError("empty item sequence")
    if len(set(items)) != len(items):
        raise ValueError(f"repeated item in slate: {items}")
    for i in items:
        if not 0 <= i < params.n_items:
            raise ValueError(f"item id {i} out of range")
    return SlateScan(user_scores(params, user)[None, :], np.array([[items]]))


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


def snapshot(params: PolicyParams) -> PolicyParams:
    """Read-only deep copy of the parameters; later updates leave it unchanged.

    Nothing can write to it, so another thread may read it while training
    updates ``params``.
    """
    frozen = PolicyParams(*(getattr(params, name).copy() for name in ARRAY_NAMES), seed=params.seed)
    for name in ARRAY_NAMES:
        getattr(frozen, name).setflags(write=False)
    return frozen


def probe_work(n_users: int, n_items: int) -> np.ndarray:
    """Score block for :func:`score_blocks`: about 2**19 scores, >= 2 rows."""
    return np.empty((min(n_users, max(2, 2**19 // n_items)), n_items))


def score_blocks(params: PolicyParams, work: np.ndarray | None = None):
    """Yield ``(start, z)``: users ``start, start + 1, ...``'s unmasked scores as rows of ``z``.

    ``z`` is the leading rows of ``work`` (default :func:`probe_work`),
    overwritten block after block, so all users are scored in one buffer and
    the (n_users, n_items) matrix never exists. The last block is moved back
    to end at the last user, so every block has the same rows and a block
    may repeat the previous one's last users: a one-row block would take
    BLAS's matrix-vector path and round differently. At 1000 and 50 000
    items any block of two or more rows gives the bits of the full score
    matrix; at some other shapes BLAS picks its kernel by the block's rows,
    and the last bit can move.
    """
    if work is None:
        work = probe_work(params.n_users, params.n_items)
    rows = min(work.shape[0], params.n_users)
    z = work[:rows]
    for start in range(0, params.n_users, rows):
        start = min(start, params.n_users - rows)
        np.matmul(params.user_embeddings[start : start + rows], params.item_embeddings.T, out=z)
        z += params.item_bias
        yield start, z


def mean_first_position_mass(
    params: PolicyParams, items: np.ndarray, work: np.ndarray | None = None
) -> float:
    """Mean over users of the first-position probability mass on ``items``.

    The probe the training reports use to track how much of the policy's head
    distribution sits on a given item pool (e.g. the cold set). Users are
    scored by :func:`score_blocks` into ``work``, so a caller can keep one
    buffer for a whole run.
    """
    items = np.asarray(items, dtype=np.intp)
    mass = np.empty(params.n_users)
    for start, z in score_blocks(params, work):
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        mass[start : start + z.shape[0]] = z[:, items].sum(axis=1) / z.sum(axis=1)
    return float(mass.mean())


# Values per block of a checkpoint array: encoding a block holds about 160
# bytes per value at once, so a block stays near 0.7 MB at any catalog size.
_BLOCK_VALUES = 2**12


def save_checkpoint(params: PolicyParams, path: str | Path) -> None:
    """Write parameters to a self-describing JSON checkpoint.

    The bytes are those of ``json.dumps(payload, sort_keys=True)``, but each
    array is encoded a block of rows at a time, so no copy of the whole payload
    exists. The scalars are encoded before the file is opened: one that JSON
    cannot encode raises before an existing file is truncated.
    """
    payload = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "kind": "policy_checkpoint",
        "n_users": params.n_users,
        "n_items": params.n_items,
        "d": params.d,
        "seed": params.seed,
        **{name: getattr(params, name) for name in ARRAY_NAMES},
    }
    text = {k: json.dumps(v) for k, v in payload.items() if not isinstance(v, np.ndarray)}
    with open(path, "w") as fh:
        for i, key in enumerate(sorted(payload)):
            fh.write(("{" if i == 0 else ", ") + json.dumps(key) + ": ")
            if key in text:
                fh.write(text[key])
                continue
            arr = payload[key]
            rows = max(1, _BLOCK_VALUES // max(1, arr[:1].size))
            fh.write("[")
            for start in range(0, len(arr), rows):
                block = json.dumps(arr[start : start + rows].tolist())[1:-1]
                fh.write(", " + block if start else block)
            fh.write("]")
        fh.write("}")


def json_integers(payload: dict, version: int, *keys: str) -> list[int]:
    """Check that ``schema_version`` is ``version``; return the integers at ``keys``.

    ``1.0`` and ``true`` compare equal to 1, but are refused, not coerced.
    """
    for key in ("schema_version", *keys):
        if type(payload[key]) is not int:
            raise ValueError(f"{key} must be an integer, got {json.dumps(payload[key])}")
    if payload["schema_version"] != version:
        raise ValueError(f"schema_version {payload['schema_version']} is not {version}")
    return [payload[key] for key in keys]


def load_checkpoint(path: str | Path) -> PolicyParams:
    """Read a checkpoint; every malformed file is a ``ValueError`` naming ``path``."""
    try:
        payload = json.loads(Path(path).read_bytes())
        if not isinstance(payload, dict) or payload.get("kind") != "policy_checkpoint":
            raise ValueError("not a policy checkpoint")
        *expected, seed = json_integers(
            payload, CHECKPOINT_SCHEMA_VERSION, "n_users", "n_items", "d", "seed"
        )
        arrays = [np.array(payload[name], dtype=np.float64) for name in ARRAY_NAMES]
        params = PolicyParams(*arrays, seed=seed)
        params.validate()
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint lacks {exc.args[0]}") from exc
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if (params.n_users, params.n_items, params.d) != tuple(expected):
        raise ValueError(f"{path}: checkpoint dimensions inconsistent with matrices")
    return params
