"""Property tests for the batched Plackett–Luce kernel and the partial top-k.

The kernel (``gumbel_top_k`` and ``SlateScan``) is checked against a plain
position-by-position reference: the masked log-softmax for log-probs and
``next_item_distribution`` for gradient weights.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sagerec.metrics import top_k_ids
from sagerec.policy import PolicyParams, SlateScan, gumbel_top_k, next_item_distribution


def _params_for(scores: np.ndarray) -> PolicyParams:
    """Parameters whose user_scores(u) equal ``scores[u]`` bit for bit."""
    B, n = scores.shape
    return PolicyParams(
        user_embeddings=np.eye(B), item_embeddings=scores.T.copy(), item_bias=np.zeros(n)
    )


def _reference(params: PolicyParams, user: int, scores: np.ndarray, slate) -> tuple:
    """Per-position log-probs and the summed weight vector, one position at a time."""
    logps, w = [], np.zeros(scores.shape[0])
    for t, item in enumerate(slate):
        masked = scores.copy()
        masked[list(slate[:t])] = -np.inf
        m = masked.max()
        logps.append(scores[item] - (m + math.log(np.exp(masked - m).sum())))
        w -= next_item_distribution(params, user, slate[:t])
        w[item] += 1.0
    return np.array(logps), w


@st.composite
def batches(draw):
    n = draw(st.integers(1, 7))
    L = n if draw(st.booleans()) else draw(st.integers(1, n))
    B = draw(st.integers(1, 3))
    G = draw(st.integers(1, 3))
    spread = draw(st.sampled_from([1.0, 30.0, 800.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.uniform(-spread / 2, spread / 2, size=(B, n))
    # Slates of one user are drawn independently, so items repeat across them.
    items = np.array([[rng.permutation(n)[:L] for _ in range(G)] for _ in range(B)])
    alpha = rng.normal(size=(B, G))
    return scores, items, alpha


@settings(max_examples=60, deadline=None)
@given(batches())
def test_scan_matches_positionwise_reference(batch):
    scores, items, alpha = batch
    B, G, L = items.shape
    params = _params_for(scores)
    scan = SlateScan(scores, items)
    weights = scan.weights(alpha)
    assert np.all(np.isfinite(weights))
    tol_w = 1e-12 * max(np.abs(alpha).sum(), 1.0)
    for b in range(B):
        expected_w = np.zeros(scores.shape[1])
        for g in range(G):
            slate = tuple(int(i) for i in items[b, g])
            ref_logps, ref_w = _reference(params, b, scores[b], slate)
            assert np.max(np.abs(scan.logps[b, g] - ref_logps)) <= 1e-12
            expected_w += alpha[b, g] * ref_w
        assert np.max(np.abs(weights[b] - expected_w)) <= tol_w


@settings(max_examples=40, deadline=None)
@given(batches())
def test_single_row_equals_its_batch_row_bitwise(batch):
    scores, items, alpha = batch
    scan = SlateScan(scores, items)
    weights = scan.weights(alpha)
    for b in range(items.shape[0]):
        user = SlateScan(scores[b : b + 1], items[b : b + 1])
        assert user.weights(alpha[b : b + 1])[0].tobytes() == weights[b].tobytes()
        for g in range(items.shape[1]):
            alone = SlateScan(scores[b : b + 1], items[b : b + 1, g : g + 1])
            assert alone.logps[0, 0].tobytes() == scan.logps[b, g].tobytes()


def test_catalog_covering_slates_have_no_outside_term():
    scores = np.array([[-790.0, 5.0, 10.0], [3.0, -3.0, 0.0]])
    items = np.array([[[2, 0, 1]], [[1, 2, 0]]])
    scan = SlateScan(scores, items)
    assert np.all(scan.logps[:, :, -1] == 0.0)
    weights = scan.weights(np.ones((2, 1)))
    assert np.all(np.isfinite(weights))
    # The slate's own weights sum to zero: one-hot minus a distribution, per position.
    assert np.allclose(weights.sum(axis=1), 0.0, atol=1e-12)


def test_gumbel_top_k_matches_plackett_luce_on_ordered_pairs():
    scores = np.array([[0.3, -1.0, 1.2, 0.0, -0.4]])
    p = np.exp(scores[0])
    pairs = list(itertools.permutations(range(5), 2))
    exact = np.array([p[i] / p.sum() * p[j] / (p.sum() - p[i]) for i, j in pairs])
    draws = gumbel_top_k(scores, 20_000, 2, np.random.default_rng(2019))[0]
    index = {pair: k for k, pair in enumerate(pairs)}
    observed = np.bincount([index[(int(a), int(b))] for a, b in draws], minlength=len(pairs))
    _, pvalue = stats.chisquare(observed, exact * draws.shape[0])
    assert pvalue > 1e-3


def test_gumbel_top_k_shapes_and_validation():
    rng = np.random.default_rng(0)
    items = gumbel_top_k(np.zeros((3, 7)), 4, 7, rng)
    assert items.shape == (3, 4, 7)
    assert all(sorted(row) == list(range(7)) for row in items.reshape(-1, 7).tolist())
    for L in (0, 8):
        with pytest.raises(ValueError):
            gumbel_top_k(np.zeros((1, 7)), 1, L, rng)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=40).map(lambda v: np.array(v, float)),
    st.data(),
)
def test_top_k_ids_equals_full_lexsort_with_ties(scores, data):
    k = data.draw(st.integers(1, scores.shape[0]))
    full = np.lexsort((np.arange(scores.shape[0]), -scores))[:k]
    assert top_k_ids(scores, k) == tuple(int(i) for i in full)
