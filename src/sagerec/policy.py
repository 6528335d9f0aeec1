"""Toy autoregressive slate policy over a finite catalog.

The policy scores item i for user u as ``user_emb(u) . item_emb(i) + item_bias(i)``
and generates a slate by repeated softmax draws over the items not already
picked (no-repeat masking): a Plackett–Luce distribution. One array kernel,
``gumbel_top_k`` to sample and ``scan_slates`` to score, serves both the
training batches and the one-slate functions. ``SlateScan`` holds the one
Plackett–Luce normaliser and its weights; ``RowScan`` reduces a large catalog
to each row's slate items plus one column for all the others and runs
``SlateScan`` on that, and ``scan_slates`` holds the one size rule between them.
The cold-mass probe scores all users in cache-sized tiles of items, and
``score_blocks`` scores them in blocks of rows for the rankings. Everything
is exact 64-bit numpy: log-probabilities and their analytic gradients are
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
    in ``log_noise`` itself, which is overwritten. The L keys are picked by L
    argmax passes over the block, each writing -inf over its pick: L reads
    of B·G·n keys, cheaper than a partition of the block while L is a
    handful of positions.
    """
    B, n = scores.shape
    if log_noise.shape[0] != B or log_noise.shape[2] != n:
        raise ValueError("noise block must be (B, G, n) for (B, n) scores")
    if slate_length < 1:
        raise ValueError("slate length must be >= 1")
    if slate_length > n:
        raise ValueError(f"catalog has {n} items, cannot fill L={slate_length}")
    keys = np.subtract(scores[:, None, :], log_noise, out=log_noise)
    picks = np.empty((B, log_noise.shape[1], slate_length), dtype=np.intp)
    for t in range(slate_length):
        picks[:, :, t] = keys.argmax(axis=2)
        np.put_along_axis(keys, picks[:, :, t : t + 1], -np.inf, axis=2)
    return picks


class SlateScan:
    """Plackett–Luce log-probabilities of slates, and their gradient weights.

    ``scores`` is (B, n), one row per user; ``items`` is (B, G, L), G slates
    of L distinct items per row. The normaliser at position t of a slate is
    ``logaddexp(out, LSE(score[i_t:]))``: ``out`` is the log-sum-exp of the
    items outside the slate, taken in one masked pass per slate over a
    (B, G, n) buffer shifted by the slate's own outside max, and the second
    term is a reverse accumulation over the slate's own L scores. Both are
    sums of positive terms, so no digits cancel however much mass the prefix
    holds. Every slate is reduced on its own, so a slate's numbers do not
    depend on the rest of the batch.

    This is the one Plackett–Luce kernel. :class:`RowScan` runs it on a
    reduced catalog for large catalogs; :func:`scan_slates` picks between them.
    """

    def __init__(self, scores: np.ndarray, items: np.ndarray) -> None:
        B, G, _ = items.shape
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
        B, n = alpha.shape[0], self.outside.shape[2]
        out_coef = -alpha * np.exp(self.m[:, :, None] - self.lognorm).sum(axis=2)
        w = np.einsum("bg,bgn->bn", out_coef, self.outside)
        taken = np.exp(self.chosen + np.logaddexp.accumulate(-self.lognorm, axis=2))
        flat = (np.arange(B)[:, None, None] * n + self.items).ravel()
        w += np.bincount(
            flat, (alpha[:, :, None] * (1.0 - taken)).ravel(), minlength=B * n
        ).reshape(B, n)
        return w


class RowScan:
    """:class:`SlateScan` on a reduced catalog: no (B, G, n) buffer, for large catalogs.

    A row's union holds the items of any of its G slates, at most K = G·L
    of them. One masked pass per row folds the items in none of the row's
    slates into ``rest``, their log-sum-exp, and keeps their exp(score - m)
    as a (B, n) buffer with its row sum. :class:`SlateScan` then scans the
    row's slates over K + 1 columns: column 0 holds ``rest``, the others the
    sorted union's scores with each repeat at -inf, and a slate item stands
    at the column of its first copy. Column 0 is every item outside the
    union at once, so the numbers are the reference kernel's to rounding,
    not bit for bit. A row's numbers do not depend on the other rows, but a
    slate's depend on the other slates of its row.
    """

    def __init__(self, scores: np.ndarray, items: np.ndarray) -> None:
        B, G, L = items.shape
        rows = np.arange(B)[:, None]
        flat = items.reshape(B, G * L)
        order = np.argsort(flat, axis=1)
        self.union = np.take_along_axis(flat, order, axis=1)
        repeat = np.zeros(self.union.shape, dtype=bool)
        repeat[:, 1:] = self.union[:, 1:] == self.union[:, :-1]
        # A slate item's column is 1 + the sorted index of its item's first copy.
        first = np.maximum.accumulate(np.where(repeat, 0, np.arange(G * L)), axis=1)
        slots = np.empty_like(flat)
        np.put_along_axis(slots, order, 1 + first, axis=1)
        # outside[b] holds exp(score - m) off row b's union and 0 on it.
        self.outside = scores.copy()
        self.outside[rows, self.union] = -np.inf
        m = self.outside.max(axis=1)
        # A union that covers the catalog leaves nothing outside: its m is -inf.
        shift = np.where(np.isneginf(m), 0.0, m)
        np.subtract(self.outside, shift[:, None], out=self.outside)
        np.exp(self.outside, out=self.outside)
        self.total = self.outside.sum(axis=1)
        reduced = np.empty((B, G * L + 1))
        with np.errstate(divide="ignore"):
            reduced[:, 0] = shift + np.log(self.total)
        reduced[:, 1:] = np.where(repeat, -np.inf, scores[rows, self.union])
        self.scan = SlateScan(reduced, slots.reshape(B, G, L))
        self.logps = self.scan.logps

    def weights(self, alpha: np.ndarray) -> np.ndarray:
        """As :meth:`SlateScan.weights`, mapped back from the reduced catalog.

        An item outside the union takes exp(score - rest) of column 0's
        weight, its buffer entry over the row sum (0 where nothing is
        outside); each union column's weight goes to its item, a repeat's
        column adding 0.
        """
        reduced = self.scan.weights(alpha)
        coef = np.divide(reduced[:, 0], self.total, out=np.zeros_like(self.total), where=self.total > 0)
        w = coef[:, None] * self.outside
        np.add.at(w, (np.arange(w.shape[0])[:, None], self.union), reduced[:, 1:])
        return w


# Catalogs of more items than this are scanned by RowScan, which runs
# SlateScan on each row's reduced catalog, the others by SlateScan on the
# whole catalog. Scan plus weights, G 8, L 6, one BLAS thread on a 2-vCPU
# Xeon, medians of 200 calls: at B 4 the kernels cross between 1000 and 1500
# items (at 1000, 133-138 us whole and 151-159 us reduced; at 1500, 167-169
# against 160-163 us); at B 32 the reduced scan is 0.63x already at 1000
# items; at 50 000 items it is 0.18x at B 4 and 0.14x at B 32. 1024 is that
# crossover taken past 1000, so every world of 1000 items or fewer keeps the
# whole-catalog bits.
ROW_SCAN_ABOVE = 1024


def scan_slates(scores: np.ndarray, items: np.ndarray) -> SlateScan | RowScan:
    """The scan of (B, G, L) ``items`` under (B, n) ``scores``, by the one size rule on n."""
    kernel = RowScan if scores.shape[1] > ROW_SCAN_ABOVE else SlateScan
    return kernel(scores, items)


def _scan_one(params: PolicyParams, user: int, items) -> SlateScan | RowScan:
    items = tuple(int(i) for i in items)
    if len(items) == 0:
        raise ValueError("empty item sequence")
    if len(set(items)) != len(items):
        raise ValueError(f"repeated item in slate: {items}")
    for i in items:
        if not 0 <= i < params.n_items:
            raise ValueError(f"item id {i} out of range")
    return scan_slates(user_scores(params, user)[None, :], np.array([[items]]))


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
    """Work buffer of :func:`score_blocks` and the cold-mass probe: about 2**19 scores, >= 2 rows."""
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


# Item columns per probe tile. A tile of the default world's 200 users is
# 1.6 MB and stays in a 2 MB L2. One probe of 200 users x 50 000 items, one
# BLAS thread on a 2-vCPU Xeon, two runs: 28-41 ms at 512 columns, 29-42 at
# 1024, 33-43 at 2048, 46-55 at 4096 and 54-63 in one tile per score row;
# the untiled probe took 46 ms beside the second run. At 1024, a catalog of
# 1000 items or fewer is one tile per row and keeps its bits.
PROBE_TILE = 1024
# How far a later tile's scores may rise above a user's shift before the
# shift moves up to them: exp(64) cannot overflow a sum of any catalog, and
# the rounding of score - shift stays within 64 * 2**-53 of each term.
PROBE_SHIFT_SLACK = 64.0


def mean_first_position_mass(
    params: PolicyParams, items: np.ndarray, work: np.ndarray | None = None
) -> float:
    """Mean over users of the first-position probability mass on ``items``.

    The probe the training reports use to track how much of the policy's head
    distribution sits on a given item pool (e.g. the cold set). Users are
    scored in tiles of up to :data:`PROBE_TILE` items, one matrix product per
    tile, into the memory of ``work`` (default :func:`probe_work`), so a
    caller can keep one buffer for a whole run and no score row leaves the
    cache. A tile holds as many users as fit in ``work``; the last row block
    is moved back to end at the last user, as in :func:`score_blocks`.

    Each user keeps a shift and the sums of exp(score - shift) over all items
    and over ``items``, rescaled when the shift moves (the online softmax
    normaliser of Milakov & Gimelshein, 2018). The first tile sets the shift
    to the tile's max, so with one tile per row (n_items <= PROBE_TILE) this
    is the one-pass softmax over :func:`score_blocks`' blocks, to the bit.
    Later tiles fold the bias and the shift into their product, as the
    columns of ``[u, 1, -shift] @ [v, b, 1].T``, and move a user's shift up
    only when a score rises more than :data:`PROBE_SHIFT_SLACK` above it.
    """
    items = np.asarray(items, dtype=np.intp)
    n, width = params.n_items, min(params.n_items, PROBE_TILE)
    if items.size and not 0 <= items.min() <= items.max() < n:
        raise ValueError(f"probe item ids must lie in [0, {n})")
    if work is None:
        work = probe_work(params.n_users, params.n_items)
    starts = range(0, n, width)
    # The items of each tile, in their given order, as columns of the tile.
    tile_of = items // width
    picks = [items[tile_of == j] - start for j, start in enumerate(starts)]
    rows = min(params.n_users, work.size // width)
    buffer = work.reshape(-1)
    d = params.d
    if n > width:
        rhs = np.ones((width, d + 2))
    mass = np.empty(params.n_users)
    for first in range(0, params.n_users, rows):
        first = min(first, params.n_users - rows)
        users = params.user_embeddings[first : first + rows]
        z = buffer[: rows * width].reshape(rows, width)
        np.matmul(users, params.item_embeddings[:width].T, out=z)
        z += params.item_bias[:width]
        shift = z.max(axis=1)
        z -= shift[:, None]
        np.exp(z, out=z)
        total = z.sum(axis=1)
        hit = z[:, picks[0]].sum(axis=1)
        if n > width:
            lhs = np.hstack([users, np.ones((rows, 1)), -shift[:, None]])
        for start, pick in zip(starts[1:], picks[1:]):
            stop = min(start + width, n)
            z = buffer[: rows * (stop - start)].reshape(rows, stop - start)
            right = rhs[: stop - start]
            right[:, :d] = params.item_embeddings[start:stop]
            right[:, d] = params.item_bias[start:stop]
            np.matmul(lhs, right.T, out=z)
            rise = z.max(axis=1)
            if np.any(rise > PROBE_SHIFT_SLACK):
                rise = np.where(rise > PROBE_SHIFT_SLACK, rise, 0.0)
                z -= rise[:, None]
                lhs[:, d + 1] -= rise
                scale = np.exp(-rise)
                total *= scale
                hit *= scale
            np.exp(z, out=z)
            total += z.sum(axis=1)
            hit += z[:, pick].sum(axis=1)
        mass[first : first + rows] = hit / total
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
