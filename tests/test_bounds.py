"""Unit tests for the adaptive bound machinery and baseline coefficients."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagerec import trainer
from sagerec.bounds import (
    BOUNDARY_CSV_HEADER,
    DEFAULT_ENTROPY_LEVELS,
    BoundConfig,
    EntropyTracker,
    boundary_curve,
    entropy_penalty_scale,
    gbpo_coefficients,
    grpo_clip_coefficients,
    list_entropy,
    sage_coefficients,
    update_entropy_ema,
    write_boundary_curve,
)

LITERAL_CFG = BoundConfig(pos_mode="literal", neg_mode="literal")
INTENT_CFG = BoundConfig()
NO_TRACKER = EntropyTracker()


def boost(r, cfg):
    """Coefficient of a nonnegative-advantage slate."""
    return float(sage_coefficients(r, 1.0, 0.0, NO_TRACKER, cfg))


def penalty(r, h, h_avg, cfg):
    """Coefficient of a negative-advantage slate of entropy h against a running average h_avg."""
    return float(sage_coefficients(r, -1.0, h, EntropyTracker(mean=h_avg), cfg))


def test_config_validation():
    BoundConfig(eps_boost=0.0)  # turning the boost off is legal
    with pytest.raises(ValueError):
        BoundConfig(eps_boost=-0.1)
    with pytest.raises(ValueError):
        BoundConfig(diversity_temp=-1.0)
    with pytest.raises(ValueError):
        BoundConfig(pos_mode="verbatim")
    with pytest.raises(ValueError):
        BoundConfig(ema_decay=1.0)


def test_list_entropy_oracles():
    cats = np.array([0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 5])
    assert list_entropy(range(6), cats) == 0.0
    # 6 items spread evenly over 3 categories.
    even3 = np.array([0, 0, 1, 1, 2, 2])
    assert list_entropy(range(6), even3) == pytest.approx(math.log(3), abs=1e-12)
    even6 = np.arange(6)
    assert list_entropy(range(6), even6) == pytest.approx(math.log(6), abs=1e-12)


def test_list_entropy_permutation_invariant_and_maximal():
    rng = np.random.default_rng(3)
    cats = rng.integers(0, 4, size=30)
    slate = [5, 12, 3, 28, 17, 9]
    h = list_entropy(slate, cats)
    for _ in range(5):
        rng.shuffle(slate)
        assert list_entropy(slate, cats) == pytest.approx(h, abs=1e-12)
    assert h <= math.log(4) + 1e-12


def test_list_entropy_base_and_errors():
    even4 = np.array([0, 1, 2, 3])
    assert list_entropy(range(4), even4, base=2) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        list_entropy([], even4)
    with pytest.raises(ValueError):
        list_entropy([99], even4)
    # A negative id must not wrap around to the array's last labels.
    with pytest.raises(ValueError, match="item -1 has no category label"):
        list_entropy([-1, 0], np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        list_entropy([1], {0: 2})


def test_entropy_ema_first_update_seeds_directly():
    tracker = EntropyTracker(decay=0.01)
    assert not tracker.initialized
    tracker = update_entropy_ema(tracker, 1.5)
    assert tracker.mean == 1.5


def test_entropy_ema_one_step_arithmetic():
    tracker = EntropyTracker(decay=0.5, mean=2.0)
    assert update_entropy_ema(tracker, 0.0).mean == pytest.approx(1.0, abs=1e-15)


def test_entropy_ema_constant_stream_fixed_point():
    tracker = EntropyTracker(decay=0.99)
    for _ in range(25):
        tracker = update_entropy_ema(tracker, 0.7)
    assert tracker.mean == pytest.approx(0.7, abs=1e-12)


def test_entropy_ema_rejects_bad_values():
    tracker = EntropyTracker()
    with pytest.raises(ValueError):
        update_entropy_ema(tracker, -0.1)
    with pytest.raises(ValueError):
        update_entropy_ema(tracker, float("nan"))


def test_penalty_scale_tolerates_diverse_slates():
    for h in (1.0, 1.5, 7.0):
        assert entropy_penalty_scale(h, 1.0, 0.5) == 1.0


def test_penalty_scale_unit_gap_oracle():
    expected = 1.0 + 0.5 * math.tanh(1.0)
    assert entropy_penalty_scale(0.0, 1.0, 0.5) == pytest.approx(expected, abs=1e-15)
    assert entropy_penalty_scale(0.0, 1.0, 0.5) == pytest.approx(1.3807970779778824, abs=1e-12)


def test_penalty_scale_saturates_below_one_plus_temp():
    assert entropy_penalty_scale(0.0, 1e6, 0.5) == pytest.approx(1.5, abs=1e-9)
    gaps = np.linspace(0.0, 20.0, 200)
    scales = [entropy_penalty_scale(0.0, g, 0.5) for g in gaps]
    assert all(1.0 <= s < 1.5 + 1e-12 for s in scales)
    # Nonincreasing in the slate entropy for a fixed average.
    hs = np.linspace(0.0, 3.0, 60)
    vals = [entropy_penalty_scale(h, 1.5, 0.5) for h in hs]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_boost_coefficient_below_threshold_is_identity():
    for cfg in (LITERAL_CFG, INTENT_CFG):
        assert boost(1.0, cfg) == 1.0
        assert boost(1.2, cfg) == 1.2


def test_boost_coefficient_above_threshold_by_mode():
    # text-intent holds the cap; literal jumps to r * (1 + eps).
    assert boost(1.5, INTENT_CFG) == pytest.approx(1.3, abs=1e-12)
    assert boost(1.5, LITERAL_CFG) == pytest.approx(1.95, abs=1e-12)


def test_boost_text_intent_curve_is_min_r_cap():
    for r in np.arange(0.1, 2.05, 0.1):
        assert boost(float(r), INTENT_CFG) == pytest.approx(min(r, 1.3), abs=1e-12)


def test_boost_text_intent_monotone_continuous_bounded():
    grid = np.linspace(0.01, 3.0, 500)
    coefs = [boost(float(r), INTENT_CFG) for r in grid]
    assert all(b >= a - 1e-12 for a, b in zip(coefs, coefs[1:]))
    assert max(coefs) <= 1.3 + 1e-12
    jumps = np.abs(np.diff(coefs))
    assert jumps.max() < 2 * (grid[1] - grid[0])


def test_penalty_literal_mode_is_degenerate():
    """max(1, (1-r)/scale) stays at 1 over the whole operating range, so the coefficient is r."""
    # Penalty scales 1, 1 + 0.5 tanh(1) and 1.5 (saturated).
    for h, h_avg in ((1.0, 1.0), (0.0, 1.0), (0.0, 1e6)):
        for r in np.arange(0.05, 2.0, 0.05):
            assert penalty(float(r), h, h_avg, LITERAL_CFG) == float(r)


def test_penalty_text_intent_amplifies_low_entropy():
    # A saturated gap gives scale exactly 1 + diversity_temp = 1.4.
    cfg = BoundConfig(diversity_temp=0.4)
    assert penalty(0.8, 0.0, 50.0, cfg) == pytest.approx(1.12, abs=1e-12)
    # scale 1 (a diverse slate, or no temperature) reverts to the symmetric baseline bound.
    for r in (0.3, 0.8, 1.0, 1.7):
        assert penalty(r, 1.2, 1.0, INTENT_CFG) == pytest.approx(min(r, 1.0), abs=1e-12)
        assert penalty(r, 0.0, 1.0, BoundConfig(diversity_temp=0.0)) == min(r, 1.0)


def test_penalty_rejects_bad_args():
    # A ratio that underflowed to 0 is a vanishing ratio, not an error.
    assert penalty(0.0, 0.0, 1.0, INTENT_CFG) == 0.0
    # A scale below 1 needs a negative temperature or entropy; both are refused.
    with pytest.raises(ValueError):
        BoundConfig(diversity_temp=-0.1)
    with pytest.raises(ValueError):
        penalty(1.0, -0.1, 1.0, INTENT_CFG)
    with pytest.raises(ValueError):
        entropy_penalty_scale(0.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        entropy_penalty_scale(np.array([0.5, -0.1]), 1.0, 0.5)


def test_effective_coefficient_on_policy_start():
    tracker = EntropyTracker()
    for advantage in (1.0, 0.0, -1.0):
        for cfg in (LITERAL_CFG, INTENT_CFG):
            assert sage_coefficients(1.0, advantage, 0.0, tracker, cfg) == 1.0


def test_effective_coefficient_negative_with_diverse_slate():
    tracker = update_entropy_ema(EntropyTracker(), 1.0)
    for r in (0.4, 0.9, 1.3):
        got = sage_coefficients(r, -1.0, 1.2, tracker, INTENT_CFG)
        assert got == pytest.approx(min(r, 1.0), abs=1e-12)


def test_effective_coefficient_uninitialized_tracker_adds_no_penalty():
    got = sage_coefficients(0.5, -1.0, 0.0, EntropyTracker(), INTENT_CFG)
    assert got == pytest.approx(0.5, abs=1e-15)


def test_effective_coefficient_negative_low_entropy_amplified():
    tracker = update_entropy_ema(EntropyTracker(), 1.0)
    scale = entropy_penalty_scale(0.0, 1.0, 0.5)
    got = sage_coefficients(0.8, -1.0, 0.0, tracker, INTENT_CFG)
    assert got == pytest.approx(0.8 * scale, abs=1e-12)
    assert got > 0.8


def test_effective_coefficient_positive_grid():
    tracker = EntropyTracker()
    for r in np.arange(0.1, 2.05, 0.1):
        got = sage_coefficients(float(r), 2.0, 0.5, tracker, INTENT_CFG)
        assert got == pytest.approx(min(r, 1.3), abs=1e-12)


def test_gbpo_coefficient_values():
    assert gbpo_coefficients(0.5) == 0.5
    assert gbpo_coefficients(1.7) == 1.0
    assert gbpo_coefficients(1.0) == 1.0
    assert gbpo_coefficients(0.0) == 0.0
    assert gbpo_coefficients(np.array([0.5, 1.7, 1.0, 0.0])).tolist() == [0.5, 1.0, 1.0, 0.0]


def test_grpo_clip_coefficient_values():
    assert grpo_clip_coefficients(1.0, 1.0) == 1.0
    # Where clipping binds the clipped surrogate is flat: no gradient.
    assert grpo_clip_coefficients(1.5, 1.0, clip_eps=0.2) == 0.0
    assert grpo_clip_coefficients(0.5, -1.0, clip_eps=0.2) == 0.0
    # Clipping binds only in the direction that would enlarge the objective.
    assert grpo_clip_coefficients(1.5, -1.0, clip_eps=0.2) == 1.5
    assert grpo_clip_coefficients(0.5, 1.0, clip_eps=0.2) == 0.5
    # Inside the band the raw ratio passes through for either sign.
    assert grpo_clip_coefficients(1.1, 1.0) == pytest.approx(1.1, abs=1e-15)
    assert grpo_clip_coefficients(1.1, -1.0) == pytest.approx(1.1, abs=1e-15)
    # One batch mixes both signs and both sides of the band.
    r = np.array([1.5, 0.5, 1.5, 0.5, 1.1])
    a = np.array([1.0, -1.0, -1.0, 1.0, -1.0])
    assert grpo_clip_coefficients(r, a).tolist() == [0.0, 0.0, 1.5, 0.5, 1.1]
    with pytest.raises(ValueError):
        grpo_clip_coefficients(1.0, 1.0, clip_eps=1.5)


def test_boundary_curve_geometry():
    grid = np.arange(0.05, 2.5001, 0.05)
    rows = boundary_curve(grid, BoundConfig())
    by_key = {}
    for row in rows:
        by_key[(round(row.r, 6), row.variant, row.mode, row.entropy_level)] = row.coefficient

    for r in grid:
        key = round(float(r), 6)
        assert by_key[(key, "gbpo", "text-intent", "low")] == min(r, 1.0)
        pos = by_key[(key, "sage_pos", "text-intent", "low")]
        assert pos == pytest.approx(min(r, 1.3), abs=1e-12)
        assert pos >= by_key[(key, "gbpo", "text-intent", "low")] - 1e-12
        low = by_key[(key, "sage_neg", "text-intent", "low")]
        high = by_key[(key, "sage_neg", "text-intent", "high")]
        assert low >= high - 1e-12
        assert low <= 1.5 and high <= 1.5
        # The published negative denominator is constant 1, so its
        # coefficient is the bare ratio (degeneracy regression).
        assert by_key[(key, "sage_neg", "literal", "low")] == float(r)

    assert by_key[(2.0, "gbpo", "literal", "high")] == 1.0


@settings(max_examples=60, deadline=None)
@given(
    eps_boost=st.floats(0.0, 2.0),
    diversity_temp=st.floats(0.0, 3.0),
    h=st.floats(0.0, 5.0),
    h_avg=st.floats(0.0, 5.0),
)
def test_boundary_rows_are_the_training_coefficients(eps_boost, diversity_temp, h, h_avg):
    """Every row equals, bitwise, the rule on its single ratio and on a batch as training runs it."""
    assert trainer.effective_coefficient is sage_coefficients
    assert trainer.gbpo_coefficient is gbpo_coefficients
    assert trainer.grpo_clip_coefficient is grpo_clip_coefficients
    config = BoundConfig(eps_boost=eps_boost, diversity_temp=diversity_temp)
    levels = {**DEFAULT_ENTROPY_LEVELS, "drawn": (h, h_avg)}
    grid = [k / 20 for k in range(1, 51)]
    rows = boundary_curve(grid, config, levels)
    assert len(rows) == len(grid) * 2 * len(levels) * 3
    r = np.array(grid)
    for mode in ("literal", "text-intent"):
        cfg = BoundConfig(eps_boost, diversity_temp, pos_mode=mode, neg_mode=mode)
        for level, (lh, lavg) in levels.items():
            tracker = EntropyTracker(mean=lavg)
            # The batch form sees one entropy per slate, as in training.
            entropies = np.full(len(grid), lh)
            batch = {
                "gbpo": gbpo_coefficients(r),
                "sage_pos": sage_coefficients(r, np.ones(len(grid)), entropies, tracker, cfg),
                "sage_neg": sage_coefficients(r, -np.ones(len(grid)), entropies, tracker, cfg),
            }
            for row in (x for x in rows if x.mode == mode and x.entropy_level == level):
                i = grid.index(row.r)
                if row.variant == "gbpo":
                    scalar = gbpo_coefficients(row.r)
                else:
                    advantage = 1.0 if row.variant == "sage_pos" else -1.0
                    scalar = sage_coefficients(row.r, advantage, lh, tracker, cfg)
                assert row.coefficient == scalar == batch[row.variant][i], row


def test_boundary_curve_rejects_bad_grid():
    with pytest.raises(ValueError):
        boundary_curve([0.2, 0.1], BoundConfig())
    with pytest.raises(ValueError):
        boundary_curve([-0.1, 0.5], BoundConfig())
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            boundary_curve([0.5, bad], BoundConfig())
        with pytest.raises(ValueError, match="finite"):
            boundary_curve([bad], BoundConfig())


def test_boundary_csv_roundtrip(tmp_path):
    path = tmp_path / "boundary.csv"
    grid = np.arange(0.05, 2.5001, 0.05)
    rows = write_boundary_curve(path, grid, BoundConfig())
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        parsed = list(reader)
    assert tuple(header) == BOUNDARY_CSV_HEADER
    assert len(parsed) == len(rows)
    for raw, row in zip(parsed, rows):
        assert float(raw[0]) == row.r
        assert raw[1] == row.variant
        assert raw[2] == row.mode
        assert raw[3] == row.entropy_level
        assert float(raw[4]) == row.coefficient
