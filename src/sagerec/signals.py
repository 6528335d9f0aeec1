"""Importance ratios and multi-objective advantage signals.

Ratios are sequence-level: the geometric mean over slate positions of the
new-to-old probability ratio, which smooths per-position noise into one scalar
per slate. Advantages are decoupled: each reward objective is z-scored within
its sampling group before the weighted sum, so objectives with different
scales cannot silently swallow each other (the failure the naive weighted-sum
baseline exhibits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import Slate

DEFAULT_NORM_EPS = 1e-8


@dataclass
class TrajectoryGroup:
    """G slates sampled for one user under a single frozen policy.

    ``rewards`` is (G, M): one row per slate, one column per objective.
    ``entropies`` caches each slate's category entropy at collection time,
    for the diversity-aware penalty. ``scores`` optionally keeps the user's
    (n_items,) score row under the sampling policy, so a gradient pass
    against unchanged parameters need not rescore the user.
    """

    user_id: int
    slates: list[Slate]
    rewards: np.ndarray
    entropies: np.ndarray | None = None
    scores: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.slates)


def _check_logps(new_logps, old_logps) -> tuple[np.ndarray, np.ndarray]:
    new = np.asarray(new_logps, dtype=np.float64)
    old = np.asarray(old_logps, dtype=np.float64)
    if new.ndim != 1 or old.ndim != 1:
        raise ValueError("log-prob sequences must be 1-D")
    if new.shape != old.shape:
        raise ValueError(f"length mismatch: {new.shape[0]} vs {old.shape[0]}")
    if new.shape[0] < 1:
        raise ValueError("log-prob sequences must have length >= 1")
    if not (np.all(np.isfinite(new)) and np.all(np.isfinite(old))):
        raise ValueError("non-finite log-probabilities")
    return new, old


def sequence_ratio(new_logps, old_logps) -> float:
    """Geometric mean of per-position probability ratios.

    exp(mean(new - old)); equals 1 exactly when the policies agree on the
    slate, and is strictly positive otherwise.
    """
    new, old = _check_logps(new_logps, old_logps)
    return float(np.exp(np.mean(new - old)))


def token_ratios(new_logps, old_logps) -> np.ndarray:
    """Element-wise probability ratios, the per-position baseline signal."""
    new, old = _check_logps(new_logps, old_logps)
    return np.exp(new - old)


def group_normalize(
    group_rewards: np.ndarray, eps: float = DEFAULT_NORM_EPS
) -> np.ndarray:
    """Per-objective z-scores within one sampling group.

    Each column is centered by the group mean and divided by the population
    standard deviation plus ``eps``. Constant columns come out all zero.
    A (..., G, M) stack of groups is normalized group by group.
    """
    rewards = _check_groups(group_rewards)
    mu = rewards.mean(axis=-2, keepdims=True)
    sd = rewards.std(axis=-2, keepdims=True)
    denom = sd + eps
    centered = rewards - mu
    with np.errstate(invalid="ignore", divide="ignore"):
        z = centered / denom
    return np.where(sd == 0.0, 0.0, z)


def decoupled_advantage(z: np.ndarray, weights) -> np.ndarray:
    """Weighted sum of per-objective z-scores, one advantage per slate.

    Weights need not sum to 1; they set the relative priority of objectives
    that have already been brought to a common scale.
    """
    z = np.asarray(z, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if z.ndim < 2 or w.ndim != 1 or z.shape[-1] != w.shape[0]:
        raise ValueError(
            f"shape mismatch: z is {z.shape}, weights has length {w.shape[0] if w.ndim == 1 else '?'}"
        )
    return z @ w


def batch_normalize(advantages, eps: float = DEFAULT_NORM_EPS) -> np.ndarray:
    """z-score over a whole training batch of advantages.

    Output has mean 0 and population std 1 for any batch whose spread exceeds
    ``eps``; batches that are constant (or within ``eps`` of it) map to all
    zeros, the neutral no-gradient signal.
    """
    a = np.asarray(advantages, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("advantages must be 1-D")
    if a.shape[0] < 2:
        raise ValueError("batch statistics need at least 2 advantages")
    sd = a.std()
    if sd <= eps:
        return np.zeros_like(a)
    return (a - a.mean()) / sd


def naive_advantage(
    group_rewards: np.ndarray, weights, eps: float = DEFAULT_NORM_EPS
) -> np.ndarray:
    """z-score of pre-summed weighted rewards: the collapse-prone baseline.

    Summing raw objectives first lets one high-variance objective dominate and
    maps behaviorally distinct slates with equal weighted sums to identical
    advantages. Kept as the comparison point for the decoupled estimator.
    A (..., G, M) stack of groups is normalized group by group.
    """
    rewards = _check_groups(group_rewards)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (rewards.shape[-1],):
        raise ValueError("weights length must match objective count")
    sums = rewards @ w
    sd = sums.std(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (sums - sums.mean(axis=-1, keepdims=True)) / (sd + eps)
    return np.where(sd == 0.0, 0.0, z)


def _check_groups(group_rewards) -> np.ndarray:
    rewards = np.asarray(group_rewards, dtype=np.float64)
    if rewards.ndim < 2:
        raise ValueError("group_rewards must be a (G, M) matrix or a stack of them")
    if rewards.shape[-2] < 2:
        raise ValueError("group statistics need at least 2 slates")
    return rewards
