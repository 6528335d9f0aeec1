"""Importance ratios and multi-objective advantage signals.

Ratios are sequence-level: the geometric mean over slate positions of the
new-to-old probability ratio, which smooths per-position noise into one scalar
per slate. Advantages are decoupled: each reward objective is z-scored within
its sampling group before the weighted sum, so objectives with different
scales cannot silently swallow each other (the failure the naive weighted-sum
baseline exhibits).
"""

from __future__ import annotations

import numpy as np

DEFAULT_NORM_EPS = 1e-8


def log_ratio(new_logps: np.ndarray, old_logps: np.ndarray) -> np.ndarray:
    """Log of the sequence ratio: mean over the last (position) axis of new - old.

    exp of it is the geometric mean of the per-position probability ratios,
    exactly 1 where the policies agree on the slate. Unchecked, for any stack
    of slates; non-finite inputs give non-finite output.
    """
    return (new_logps - old_logps).mean(axis=-1)


def group_normalize(
    group_rewards: np.ndarray, eps: float = DEFAULT_NORM_EPS
) -> np.ndarray:
    """Per-objective z-scores within one sampling group.

    Each column is centered by the group mean and divided by the population
    standard deviation plus ``eps``. Columns spread by at most ``eps`` are 0.
    A (..., G, M) stack of groups is normalized group by group.
    """
    rewards = _check_groups(group_rewards)
    mu = rewards.mean(axis=-2, keepdims=True)
    sd = rewards.std(axis=-2, keepdims=True)
    denom = sd + eps
    centered = rewards - mu
    with np.errstate(invalid="ignore", divide="ignore"):
        z = centered / denom
    return np.where(sd <= eps, 0.0, z)


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
    A (..., G, M) stack is normalized group by group; a spread <= ``eps`` gives 0.
    """
    rewards = _check_groups(group_rewards)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (rewards.shape[-1],):
        raise ValueError("weights length must match objective count")
    sums = rewards @ w
    sd = sums.std(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (sums - sums.mean(axis=-1, keepdims=True)) / (sd + eps)
    return np.where(sd <= eps, 0.0, z)


def _check_groups(group_rewards) -> np.ndarray:
    rewards = np.asarray(group_rewards, dtype=np.float64)
    if rewards.ndim < 2:
        raise ValueError("group_rewards must be a (G, M) matrix or a stack of them")
    if rewards.shape[-2] < 2:
        raise ValueError("group statistics need at least 2 slates")
    return rewards
