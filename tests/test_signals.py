"""Unit tests for sequence ratios and the advantage-normalization pipeline."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sagerec.signals import (
    batch_normalize,
    decoupled_advantage,
    group_normalize,
    log_ratio,
    naive_advantage,
)


def slate_ratio(new_logps, old_logps) -> float:
    """The sequence ratio exp(log_ratio) of one slate."""
    return float(np.exp(log_ratio(np.asarray(new_logps), np.asarray(old_logps))))


def test_sequence_ratio_identity():
    logps = np.log(np.array([0.3, 0.1, 0.25]))
    assert slate_ratio(logps, logps) == 1.0


def test_sequence_ratio_uniform_shift():
    # new = old + c per token makes the geometric-mean ratio exactly e^c.
    old = np.array([-1.0, -2.5, -0.7, -3.1])
    for c in (0.2, -0.4, 1.0):
        assert slate_ratio(old + c, old) == pytest.approx(math.exp(c), rel=1e-12)


def test_sequence_ratio_single_token():
    assert slate_ratio(np.array([-1.0]), np.array([-2.0])) == pytest.approx(
        math.e, rel=1e-12
    )


def test_sequence_ratio_is_geometric_mean_of_token_ratios():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        old = rng.normal(-2.0, 0.8, n)
        new = old + rng.normal(0.0, 0.3, n)
        per_token = np.exp(new - old)
        geo = float(np.exp(np.log(per_token).mean()))
        assert slate_ratio(new, old) == pytest.approx(geo, rel=1e-12)


def test_sequence_ratio_invariant_under_tiling():
    # The per-position mean makes the ratio independent of slate length when
    # the position-wise log-prob gaps repeat, so longer slates are not
    # penalized just for being longer.
    old = np.array([-1.5, -0.25, -2.0])
    new = np.array([-1.0, -0.5, -1.75])
    base = slate_ratio(new, old)
    assert slate_ratio(np.tile(new, 2), np.tile(old, 2)) == base
    assert slate_ratio(np.tile(new, 4), np.tile(old, 4)) == base


def test_log_ratio_rows_equal_sequence_ratio():
    """The batched log-ratio training uses gives each slate's own ratio, bitwise."""
    rng = np.random.default_rng(8)
    for length in range(1, 21):
        new = rng.normal(-3.0, 1.0, (5, 4, length))
        old = rng.normal(-3.0, 1.0, (5, 4, length))
        batched = np.exp(log_ratio(new, old)).ravel()
        rows = [slate_ratio(n, o) for n, o in zip(new.reshape(-1, length), old.reshape(-1, length))]
        assert batched.tolist() == rows


def test_group_normalize_two_point_oracle():
    # Column (1, 0): mean 1/2, population std 1/2, so z is (+1, -1).
    z = group_normalize(np.array([[1.0], [0.0]]))
    assert z[:, 0] == pytest.approx([1.0, -1.0], abs=1e-7)


def test_group_normalize_constant_column_is_zero():
    rewards = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 6.0]])
    z = group_normalize(rewards)
    assert np.all(z[:, 0] == 0.0)
    assert np.any(z[:, 1] != 0.0)


def test_group_normalize_columns_are_standardized():
    rng = np.random.default_rng(12)
    for _ in range(50):
        g = int(rng.integers(2, 12))
        m = int(rng.integers(1, 4))
        rewards = rng.normal(5.0, 3.0, (g, m))
        z = group_normalize(rewards)
        assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-6)


def test_group_normalize_shape_errors():
    with pytest.raises(ValueError):
        group_normalize(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        group_normalize(np.array([[1.0, 2.0]]))


def test_decoupled_advantage_weighted_sum():
    z = np.array([[1.0, -1.0], [-1.0, 1.0]])
    adv = decoupled_advantage(z, (0.75, 0.25))
    assert adv == pytest.approx([0.5, -0.5], abs=1e-12)
    with pytest.raises(ValueError):
        decoupled_advantage(z, (0.75, 0.25, 0.1))


def test_batch_normalize_two_point_oracle():
    out = batch_normalize(np.array([1.0, 0.0]))
    assert out == pytest.approx([1.0, -1.0], abs=1e-12)


def test_batch_normalize_constant_batch_is_zero():
    out = batch_normalize(np.full(6, 2.5))
    assert np.all(out == 0.0)


def test_batch_normalize_moments_over_many_batches():
    """Mean within 1e-6 of 0 and std within 1e-6 of 1 for random batches."""
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        scale = 10.0 ** rng.integers(-3, 4)
        batch = rng.normal(rng.normal() * scale, scale, n)
        if np.std(batch) == 0.0:
            continue
        out = batch_normalize(batch)
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 1e-6


def test_batch_normalize_errors():
    with pytest.raises(ValueError):
        batch_normalize(np.array([1.0]))
    with pytest.raises(ValueError):
        batch_normalize(np.array([[1.0, 2.0]]))


def test_collapse_witness_naive_vs_decoupled():
    """Two slates with opposite per-objective profiles but equal weighted sums.

    Slate 0: click but short watch. Slate 1: no click, slightly longer watch.
    Slate 2: click and long watch. Under equal weights the raw sums of slates
    0 and 1 tie at 5.5, so the naive pipeline cannot tell them apart; the
    per-objective pipeline separates them by more than 0.1.
    """
    rewards = np.array([[1.0, 10.0], [0.0, 11.0], [1.0, 40.0]])
    weights = (0.5, 0.5)

    naive = naive_advantage(rewards, weights)
    assert abs(naive[0] - naive[1]) < 1e-12
    assert naive == pytest.approx([-0.70710678, -0.70710678, 1.41421356], abs=1e-6)

    decoupled = decoupled_advantage(group_normalize(rewards), weights)
    assert abs(decoupled[0] - decoupled[1]) > 0.1
    assert decoupled == pytest.approx([-0.01781, -1.04254, 1.06035], abs=1e-4)


def test_naive_advantage_constant_sums_are_zero():
    rewards = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    out = naive_advantage(rewards, (0.5, 0.5))
    assert np.all(out == 0.0)


def test_naive_advantage_validation():
    with pytest.raises(ValueError):
        naive_advantage(np.array([[1.0, 2.0]]), (0.5, 0.5))
    with pytest.raises(ValueError):
        naive_advantage(np.array([[1.0], [2.0]]), (0.5, 0.5))


# A power of two, so the two-point column (0, 2 * spread) has a population
# std of exactly ``spread``.
EPS = 2.0**-20


@pytest.mark.parametrize("spread", [0.0, EPS, 2 * EPS], ids=["sd=0", "sd=eps", "sd=2eps"])
def test_zero_spread_rule_is_shared(spread):
    """All three normalisers zero a spread of at most eps and keep a larger one."""
    column = np.array([[0.0], [2 * spread]])
    assert column.std() == spread
    group = group_normalize(column, EPS)[:, 0]
    naive = naive_advantage(column, (1.0,), EPS)
    batch = batch_normalize(column[:, 0], EPS)
    if spread <= EPS:
        assert not (group.any() or naive.any() or batch.any())
    else:
        # (+-2 eps) / (2 eps + eps) in the group forms, +-1 in the batch form.
        assert group == pytest.approx([-2 / 3, 2 / 3], rel=1e-12)
        assert naive == pytest.approx([-2 / 3, 2 / 3], rel=1e-12)
        assert batch == pytest.approx([-1.0, 1.0], rel=1e-12)
