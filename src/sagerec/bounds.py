"""Adaptive gradient bounds: boost for winners, entropy-aware penalty for losers.

Every optimizer variant here reduces to a pure function from the sequence
ratio r to the effective gradient coefficient that multiplies the advantage:

* GBPO baseline: symmetric static cap, coefficient min(r, 1).
* Positive boost: when the advantage is nonnegative the cap is raised to
  1 + eps_boost, letting slates the policy is successfully learning grow
  super-linearly instead of stalling at the symmetric bound.
* Entropy-aware penalty: when the advantage is negative, the coefficient is
  amplified by a factor between 1 and 1 + temperature, larger the further the
  slate's category entropy sits below its historical moving average. Diverse
  failures are treated as ordinary samples; homogeneous failures are punished
  harder to break repetitive-recommendation lock-in.

The paper writes each rule as r divided by a piecewise denominator; the code
keeps only the coefficient it implies. Each rule has two modes. "literal"
takes the published denominator at face value; "text-intent" realizes the
behavior the surrounding description ascribes to it. The literal positive
denominator 1 / (1 + eps_boost) makes the coefficient jump discontinuously to
r * (1 + eps_boost) above the threshold instead of holding the cap, and the
literal negative denominator max(1, (1 - r)/scale) is identically 1 for every
r > 0 and scale >= 1, so its coefficient is just r. Both are kept: text-intent
is the default, literal is the fidelity/regression variant.

One public array function per rule computes every coefficient from sequence
ratios: training calls it on a batch of slates with the ratios it has already
checked, and :func:`boundary_curve` on the whole ratio grid, so the boundary
table holds the numbers training applies.
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
            if item < 0:  # an array would index it from its end
                raise IndexError(item)
            cat = categories[item]
        except (KeyError, IndexError) as exc:
            raise ValueError(f"item {item} has no category label") from exc
        cats.append(int(cat))
    _, counts = np.unique(np.asarray(cats), return_counts=True)
    h = float(count_entropy(counts))
    if base is not None:
        h /= math.log(base)
    return max(0.0, h)  # max keeps the first of equal zeros, so never -0.0


def count_entropy(counts) -> np.ndarray:
    """Shannon entropy in nats of category counts along the last axis.

    Zero counts contribute nothing, so a row may be padded to a fixed width.
    """
    counts = np.asarray(counts)
    p = counts / counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, p * np.log(p), 0.0)
    return -terms.sum(axis=-1)


def entropy_penalty_scale(h, h_avg, temperature: float):
    """Penalty amplification for slates of entropy ``h``: 1 + temp * tanh(max(0, avg - h)).

    Equals 1 whenever the slate is at least as diverse as the running average
    (exploration tolerance) and saturates below 1 + temperature as the slate
    collapses far under it. Elementwise over arrays.
    """
    if np.any(np.asarray(h) < 0) or np.any(np.asarray(h_avg) < 0):
        raise ValueError("entropies must be >= 0")
    return 1.0 + temperature * np.tanh(np.maximum(0.0, h_avg - h))


# The coefficient rules take sequence ratios, one entry per slate, and do not
# check them: the caller does. A ratio that underflowed to 0.0 is a valid,
# vanishing ratio with coefficient 0.


def sage_coefficients(r, advantages, entropies, tracker: EntropyTracker, config: BoundConfig):
    """SAGE's coefficient of every slate, by the sign of its advantage.

    A nonnegative advantage goes through the boost, a negative one through
    the entropy-aware penalty, scaled by the slate entropy against the
    tracker's running average. An uninitialized tracker contributes no
    penalty (scale 1).
    """
    h = np.asarray(entropies, dtype=np.float64)
    h_avg = tracker.mean if tracker.initialized else h
    scale = entropy_penalty_scale(h, h_avg, config.diversity_temp)
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


def gbpo_coefficients(r):
    """Static symmetric baseline bound: min(r, 1) for either advantage sign."""
    return np.minimum(r, 1.0)


def grpo_clip_coefficients(r, advantages, clip_eps: float = 0.2):
    """Effective coefficient of the clipped surrogate (PPO-clip, as in GRPO).

    min(r * A, clip(r, 1 - clip_eps, 1 + clip_eps) * A) has zero gradient where
    clipping binds: r > 1 + clip_eps if A >= 0, r < 1 - clip_eps if A < 0.
    Elsewhere the raw ratio passes through.
    """
    if not 0 < clip_eps < 1:
        raise ValueError(f"clip_eps must lie in (0, 1), got {clip_eps}")
    clipped = np.where(np.asarray(advantages) >= 0, r > 1.0 + clip_eps, r < 1.0 - clip_eps)
    return np.where(clipped, 0.0, r)


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
    sage_pos (advantage +1) and sage_neg (advantage -1), each computed by the
    coefficient function training calls. A level (h, h_avg) is the slate
    entropy against the tracker's running average. It only matters for
    sage_neg; the other variants repeat their value across levels so the
    table stays rectangular.
    """
    levels = dict(entropy_levels if entropy_levels is not None else DEFAULT_ENTROPY_LEVELS)
    grid = [float(r) for r in r_grid]
    if not all(0 < r < math.inf for r in grid):
        raise ValueError("r grid must be finite and strictly positive")
    if sorted(grid) != grid:
        raise ValueError("r grid must be sorted ascending")
    r = np.array(grid)
    gbpo = gbpo_coefficients(r).tolist()
    # (mode, level) -> the gbpo, sage_pos and sage_neg columns over the grid.
    columns = {}
    for mode in _MODES:
        cfg = replace(config, pos_mode=mode, neg_mode=mode)
        for level, (h, h_avg) in levels.items():
            tracker = EntropyTracker(mean=h_avg)
            sage = [sage_coefficients(r, a, h, tracker, cfg).tolist() for a in (1.0, -1.0)]
            columns[mode, level] = [gbpo, *sage]
    return [
        BoundaryPoint(x, variant, mode, level, columns[mode, level][v][i])
        for i, x in enumerate(grid)
        for mode in _MODES
        for level in levels
        for v, variant in enumerate(("gbpo", "sage_pos", "sage_neg"))
    ]


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
