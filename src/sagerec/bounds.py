"""Adaptive gradient bounds: boost for winners, entropy-aware penalty for losers.

Every optimizer variant here reduces to a pure function from the sequence
ratio r to the effective gradient coefficient r / denominator:

* GBPO baseline: symmetric static cap, coefficient min(r, 1).
* Positive boost: when the advantage is nonnegative the cap is raised to
  1 + eps_boost, letting slates the policy is successfully learning grow
  super-linearly instead of stalling at the symmetric bound.
* Entropy-aware penalty: when the advantage is negative, the coefficient is
  amplified by a factor between 1 and 1 + temperature, larger the further the
  slate's category entropy sits below its historical moving average. Diverse
  failures are treated as ordinary samples; homogeneous failures are punished
  harder to break repetitive-recommendation lock-in.

Each denominator has two modes. "literal" is the published piecewise form
taken at face value; "text-intent" realizes the behavior the surrounding
description ascribes to it. The literal positive form jumps discontinuously
to r * (1 + eps_boost) above the threshold instead of holding the cap, and
the literal negative form max(1, (1 - r)/scale) is identically 1 for every
r > 0 and scale >= 1, so its coefficient is just r. Both are kept: text-intent
is the default, literal is the fidelity/regression variant.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

LITERAL = "literal"
TEXT_INTENT = "text-intent"
_MODES = (LITERAL, TEXT_INTENT)

BOUNDARY_CSV_HEADER = ("r", "variant", "mode", "entropy_level", "coefficient")

# Default (entropy, entropy_average) pairs for boundary tables: "low" sits one
# nat below the running average, "high" sits at it.
DEFAULT_ENTROPY_LEVELS: Mapping[str, tuple[float, float]] = {
    "low": (0.0, 1.0),
    "high": (1.0, 1.0),
}


@dataclass(frozen=True)
class BoundConfig:
    """Configuration of the gradient manifold.

    ``eps_boost`` raises the positive-advantage cap to 1 + eps_boost (0 turns
    the boost off and reverts to the GBPO cap). ``diversity_temp`` bounds the
    maximum penalty amplification at 1 + diversity_temp. ``ema_decay`` is the
    smoothing of the historical entropy average.
    """

    eps_boost: float = 0.3
    diversity_temp: float = 0.5
    pos_mode: str = TEXT_INTENT
    neg_mode: str = TEXT_INTENT
    ema_decay: float = 0.99

    def __post_init__(self) -> None:
        if self.eps_boost < 0:
            raise ValueError("eps_boost must be >= 0")
        if self.diversity_temp < 0:
            raise ValueError("diversity_temp must be >= 0")
        if not 0 < self.ema_decay < 1:
            raise ValueError("ema_decay must lie in (0, 1)")
        for mode in (self.pos_mode, self.neg_mode):
            if mode not in _MODES:
                raise ValueError(f"unknown bound mode {mode!r}, expected one of {_MODES}")


@dataclass(frozen=True)
class EntropyTracker:
    """Exponential moving average of observed slate entropy.

    ``mean`` is None until the first observation; the first update seeds it
    directly, later ones blend with weight ``decay`` on the history.
    """

    decay: float = 0.99
    mean: float | None = None

    @property
    def initialized(self) -> bool:
        return self.mean is not None


def update_entropy_ema(tracker: EntropyTracker, h: float) -> EntropyTracker:
    """Fold one entropy observation into the tracker, returning the new state."""
    if not math.isfinite(h) or h < 0:
        raise ValueError(f"entropy must be finite and >= 0, got {h}")
    if not tracker.initialized:
        return replace(tracker, mean=float(h))
    return replace(tracker, mean=tracker.decay * tracker.mean + (1.0 - tracker.decay) * h)


def list_entropy(slate_items, categories, base: float | None = None) -> float:
    """Shannon entropy of the slate's category distribution.

    ``categories`` maps item id to category id (array or mapping). Natural log
    by default; pass ``base`` to change units (the corpus-level entropy metric
    shares this setting).
    """
    items = list(slate_items)
    if not items:
        raise ValueError("empty slate")
    cats = []
    for item in items:
        try:
            cat = categories[item]
        except (KeyError, IndexError) as exc:
            raise ValueError(f"item {item} has no category label") from exc
        cats.append(int(cat))
    _, counts = np.unique(np.asarray(cats), return_counts=True)
    p = counts / counts.sum()
    h = float(-(p * np.log(p)).sum())
    if base is not None:
        h /= math.log(base)
    return max(h, 0.0)


def entropy_penalty_scale(h: float, h_avg: float, temperature: float) -> float:
    """Penalty amplification for a slate of entropy ``h``: 1 + temp * tanh(max(0, avg - h)).

    Equals 1 whenever the slate is at least as diverse as the running average
    (exploration tolerance) and saturates below 1 + temperature as the slate
    collapses far under it.
    """
    if h < 0 or h_avg < 0:
        raise ValueError("entropies must be >= 0")
    return 1.0 + temperature * math.tanh(max(0.0, h_avg - h))


def _check_ratio(r: float) -> float:
    r = float(r)
    if not math.isfinite(r) or r <= 0:
        raise ValueError(f"sequence ratio must be finite and > 0, got {r}")
    return r


def boost_denominator(r: float, config: BoundConfig) -> float:
    """Denominator applied when the advantage is nonnegative.

    text-intent: r / (1 + eps_boost) above the threshold, so the effective
    coefficient is held at the raised cap min(r, 1 + eps_boost). literal: the
    published constant 1 / (1 + eps_boost), whose coefficient jumps to
    r * (1 + eps_boost).
    """
    r = _check_ratio(r)
    cap = 1.0 + config.eps_boost
    if r <= cap:
        return 1.0
    if config.pos_mode == TEXT_INTENT:
        return r / cap
    return 1.0 / cap


def penalty_denominator(r: float, scale: float, config: BoundConfig) -> float:
    """Denominator applied when the advantage is negative.

    text-intent: max(1, r) / scale, so the effective coefficient is
    min(r, 1) * scale: the GBPO bound amplified by the diversity penalty, and
    exactly the GBPO bound when scale is 1. literal: max(1, (1 - r)/scale),
    which is identically 1 over the whole operating range (the documented
    degeneracy), leaving the coefficient unbounded at r.
    """
    r = _check_ratio(r)
    if not math.isfinite(scale) or scale < 1.0:
        raise ValueError(f"penalty scale must be >= 1, got {scale}")
    if config.neg_mode == TEXT_INTENT:
        return max(1.0, r) / scale
    return max(1.0, (1.0 - r) / scale)


def effective_coefficient(
    r: float,
    advantage: float,
    h: float,
    tracker: EntropyTracker,
    config: BoundConfig,
) -> float:
    """The scalar multiplying advantage * mean-log-prob gradient: r / denominator.

    Dispatches on the advantage sign: nonnegative goes through the boost
    denominator, negative through the entropy-aware penalty with the scale
    computed from the slate entropy and the tracker's running average. An
    uninitialized tracker contributes no penalty (scale 1). Computed in the
    equivalent capped form (e.g. min(r, 1 + eps_boost)) shared with
    :func:`sage_coefficients`.
    """
    if h < 0:
        raise ValueError("entropies must be >= 0")
    return float(_sage(_check_ratio(r), advantage, h, tracker, config))


def gbpo_coefficient(r: float) -> float:
    """Static symmetric baseline bound: min(r, 1) for either advantage sign."""
    return min(_check_ratio(r), 1.0)


def grpo_clip_coefficient(r: float, advantage: float, clip_eps: float = 0.2) -> float:
    """Effective coefficient of the clipped-surrogate baseline.

    Clipping binds only in the direction that would enlarge the objective:
    positive advantages are capped at 1 + clip_eps, negative ones floored at
    1 - clip_eps; inside the band the raw ratio passes through.
    """
    return float(_grpo(_check_ratio(r), advantage, clip_eps))


# The array forms below take log-ratios, one entry per slate. A ratio that
# underflows to exp(log_r) == 0.0 is a valid, vanishing ratio; an overflow
# gives an inf coefficient, which the caller reports as a numeric failure.


def _ratios(log_r) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.exp(np.asarray(log_r, dtype=np.float64))


def sage_coefficients(log_r, advantages, entropies, tracker: EntropyTracker, config: BoundConfig):
    """Array form of :func:`effective_coefficient` over a batch of slates."""
    return _sage(_ratios(log_r), advantages, entropies, tracker, config)


def gbpo_coefficients(log_r):
    """Array form of :func:`gbpo_coefficient`."""
    return np.minimum(_ratios(log_r), 1.0)


def grpo_clip_coefficients(log_r, advantages, clip_eps: float = 0.2):
    """Array form of :func:`grpo_clip_coefficient`; an underflowed ratio gets the floor."""
    return _grpo(_ratios(log_r), advantages, clip_eps)


def _sage(r, advantages, entropies, tracker: EntropyTracker, config: BoundConfig):
    h = np.asarray(entropies, dtype=np.float64)
    h_avg = tracker.mean if tracker.initialized else h
    scale = 1.0 + config.diversity_temp * np.tanh(np.maximum(0.0, h_avg - h))
    cap = 1.0 + config.eps_boost
    if config.pos_mode == TEXT_INTENT:
        pos = np.minimum(r, cap)
    else:
        pos = np.where(r <= cap, r, r * cap)
    if config.neg_mode == TEXT_INTENT:
        neg = np.minimum(r, 1.0) * scale
    else:
        neg = r / np.maximum(1.0, (1.0 - r) / scale)
    return np.where(np.asarray(advantages) >= 0, pos, neg)


def _grpo(r, advantages, clip_eps: float):
    if not 0 < clip_eps < 1:
        raise ValueError(f"clip_eps must lie in (0, 1), got {clip_eps}")
    return np.where(
        np.asarray(advantages) >= 0, np.minimum(r, 1.0 + clip_eps), np.maximum(r, 1.0 - clip_eps)
    )


class BoundaryPoint(NamedTuple):
    r: float
    variant: str
    mode: str
    entropy_level: str
    coefficient: float


def boundary_curve(
    r_grid: Sequence[float],
    config: BoundConfig,
    entropy_levels: Mapping[str, tuple[float, float]] | None = None,
) -> list[BoundaryPoint]:
    """Tabulate effective coefficients over a ratio grid for plotting.

    Emits one row per (r, variant, mode, entropy level) with variants gbpo,
    sage_pos and sage_neg. The entropy level only matters for sage_neg; the
    other variants repeat their value across levels so the table stays
    rectangular.
    """
    levels = dict(entropy_levels if entropy_levels is not None else DEFAULT_ENTROPY_LEVELS)
    grid = [float(r) for r in r_grid]
    if any(r <= 0 for r in grid):
        raise ValueError("r grid must be strictly positive")
    if sorted(grid) != grid:
        raise ValueError("r grid must be sorted ascending")
    rows: list[BoundaryPoint] = []
    for r in grid:
        for mode in _MODES:
            pos_cfg = replace(config, pos_mode=mode, neg_mode=mode)
            for level, (h, h_avg) in levels.items():
                scale = entropy_penalty_scale(h, h_avg, config.diversity_temp)
                rows.append(BoundaryPoint(r, "gbpo", mode, level, gbpo_coefficient(r)))
                rows.append(
                    BoundaryPoint(
                        r, "sage_pos", mode, level, r / boost_denominator(r, pos_cfg)
                    )
                )
                rows.append(
                    BoundaryPoint(
                        r, "sage_neg", mode, level, r / penalty_denominator(r, scale, pos_cfg)
                    )
                )
    return rows


def write_boundary_curve(
    path: str | Path,
    r_grid: Sequence[float],
    config: BoundConfig,
    entropy_levels: Mapping[str, tuple[float, float]] | None = None,
) -> list[BoundaryPoint]:
    """Write the boundary table as CSV with header r,variant,mode,entropy_level,coefficient."""
    rows = boundary_curve(r_grid, config, entropy_levels)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BOUNDARY_CSV_HEADER)
        for row in rows:
            writer.writerow([repr(row.r), row.variant, row.mode, row.entropy_level, repr(row.coefficient)])
    return rows
