"""Property tests for the batched Plackett–Luce kernel and the partial top-k.

The kernel (``gumbel_top_k`` and the reference ``SlateScan``, which the
per-row ``RowScan`` runs on a reduced catalog) is checked against a plain
position-by-position reference: the masked log-softmax for log-probs and
``test_policy``'s oracle ``next_item_distribution`` for gradient weights, or
the Plackett–Luce law summed term by term with ``math.fsum``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from sagerec.metrics import top_k_ids
from sagerec.policy import ROW_SCAN_ABOVE, PolicyParams, RowScan, SlateScan, gumbel_top_k, scan_slates
from test_policy import next_item_distribution


def _log_exp(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """A block of log(Exp(1)) noise, as a training step draws it."""
    return np.log(rng.standard_exponential(shape))


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
    """The reference kernel reduces every slate on its own."""
    scores, items, alpha = batch
    scan = SlateScan(scores, items)
    weights = scan.weights(alpha)
    for b in range(items.shape[0]):
        user = SlateScan(scores[b : b + 1], items[b : b + 1])
        assert user.weights(alpha[b : b + 1])[0].tobytes() == weights[b].tobytes()
        for g in range(items.shape[1]):
            alone = SlateScan(scores[b : b + 1], items[b : b + 1, g : g + 1])
            assert alone.logps[0, 0].tobytes() == scan.logps[b, g].tobytes()


def _law(row: np.ndarray, slate) -> tuple[np.ndarray, np.ndarray]:
    """Per-position log-probs and the summed weight vector of one slate under
    the Plackett–Luce law, every normaliser a ``math.fsum`` of its terms."""
    available = set(range(row.shape[0]))
    logps, w = [], np.zeros(row.shape[0])
    for item in slate:
        m = max(row[j] for j in available)
        lognorm = m + math.log(math.fsum(math.exp(row[j] - m) for j in available))
        logps.append(row[item] - lognorm)
        for j in available:
            w[j] -= math.exp(row[j] - lognorm)
        w[item] += 1.0
        available.remove(item)
    return np.array(logps), w


CASES = ("plain", "scale300", "collapsed", "shared", "covering", "crowded")


@st.composite
def hard_batches(draw):
    """Batches at small n for both scans, one case each:

    - ``scale300``: scores spread over 300 nats;
    - ``collapsed``: every slate of a row holds the same L items, scored 126
      nats above the rest, so about 1e-55 of the mass lies outside a slate;
    - ``shared``: a row's slates draw from a pool of L + 1 items;
    - ``covering``: the row's slates together hold every item;
    - ``crowded``: G·L > n.
    """
    case = draw(st.sampled_from(CASES))
    n = draw(st.integers(2, 9))
    L = draw(st.integers(1, n))
    B = draw(st.integers(1, 3))
    G = draw(st.integers(1, 4))
    if case in ("covering", "crowded"):
        G = max(G, -(-n // L) + (case == "crowded"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = 300.0 if case == "scale300" else 30.0
    scores = rng.uniform(-spread / 2, spread / 2, size=(B, n))
    items = np.empty((B, G, L), dtype=np.intp)
    for b in range(B):
        perm = rng.permutation(n)
        for g in range(G):
            if case == "collapsed":
                items[b, g] = rng.permutation(perm[:L])
            elif case == "shared":
                items[b, g] = rng.permutation(perm[: min(n, L + 1)])[:L]
            elif case == "covering":
                items[b, g] = perm[(g * L + np.arange(L)) % n]
            else:
                items[b, g] = rng.permutation(n)[:L]
        if case == "collapsed":
            scores[b] = rng.normal(size=n)
            scores[b, perm[:L]] += 126.0
    return scores, items, rng.normal(size=(B, G))


def _assert_logps_close(actual: np.ndarray, expected: np.ndarray) -> None:
    """Within 1e-12 relative; a log-prob near 0 is held to 1e-12 absolute."""
    assert np.all(np.abs(actual - expected) <= 1e-12 * np.maximum(np.abs(expected), 1.0))


def _assert_weights_close(
    actual: np.ndarray, expected: np.ndarray, alpha: np.ndarray, scores: np.ndarray, L: int
) -> None:
    """Within 1e-12 of the largest weight, or of the kernels' rounding floor.

    A weight sums alpha times exp(score - lognorm) over L positions and the
    row's slates. ``lognorm`` is rounded to a few ulps of itself, about
    eps·max|score|, and exp turns that absolute error into a relative one:
    each term is off by up to eps·max(1, max|score|) of its |alpha|. A chosen
    item's 1 minus its probability cancels down to that error when the slate
    holds almost all the mass, so the bound never goes below
    4·eps·max(1, max|score|)·L·sum |alpha|.
    """
    floor = 4 * np.finfo(float).eps * max(1.0, np.max(np.abs(scores))) * L * np.abs(alpha).sum()
    assert np.max(np.abs(actual - expected)) <= max(1e-12 * np.max(np.abs(expected)), floor)


def _law_batch(scores: np.ndarray, items: np.ndarray, alpha: np.ndarray) -> tuple:
    """(B, G, L) law log-probs and (B, n) law weights, each slate's weighted by its alpha."""
    logps, weights = np.zeros(items.shape), np.zeros(scores.shape)
    for b, g in np.ndindex(items.shape[:2]):
        logps[b, g], w = _law(scores[b], [int(i) for i in items[b, g]])
        weights[b] += alpha[b, g] * w
    return logps, weights


# Two items 6.4 nats apart at -131 and -137: the first pick holds 99.8% of
# the mass, so the weights are 1.6e-3 alpha after cancelling, and both
# kernels' rounding (8.9e-15) sits above 1e-12 of them.
PINNED = (
    np.array([[-131.11501581324143, -137.53468515048004]]),
    np.array([[[0, 1]]]),
    np.array([[1.291]]),
)


@pytest.mark.parametrize("kernel", [SlateScan, RowScan])
@settings(max_examples=80, deadline=None)
@given(batch=hard_batches())
@example(batch=PINNED)
def test_both_scans_match_the_plackett_luce_law(kernel, batch):
    scores, items, alpha = batch
    scan = kernel(scores, items)
    logps, expected = _law_batch(scores, items, alpha)
    _assert_logps_close(scan.logps, logps)
    for b, w in enumerate(scan.weights(alpha)):
        _assert_weights_close(w, expected[b], alpha[b], scores[b], items.shape[2])


@settings(max_examples=40, deadline=None)
@given(hard_batches())
@example(PINNED)
def test_weight_bound_rejects_an_error_of_1e_9(batch):
    """The rounding floor stays far below a real error in one weight."""
    scores, items, alpha = batch
    _, expected = _law_batch(scores, items, alpha)
    for b, item in enumerate(items[:, 0, 0]):
        perturbed = expected[b].copy()
        perturbed[item] += 1e-9
        with pytest.raises(AssertionError):
            _assert_weights_close(perturbed, expected[b], alpha[b], scores[b], items.shape[2])


@settings(max_examples=80, deadline=None)
@given(hard_batches())
def test_row_scan_matches_the_reference_kernel(batch):
    scores, items, alpha = batch
    row, ref = RowScan(scores, items), SlateScan(scores, items)
    _assert_logps_close(row.logps, ref.logps)
    for b, (w_row, w_ref) in enumerate(zip(row.weights(alpha), ref.weights(alpha))):
        _assert_weights_close(w_row, w_ref, alpha[b], scores[b], items.shape[2])


@settings(max_examples=30, deadline=None)
@given(hard_batches())
def test_row_scan_rows_do_not_depend_on_other_rows(batch):
    """A row's union is its own, so a row scanned alone gives its bits in the batch."""
    scores, items, alpha = batch
    scan = RowScan(scores, items)
    weights = scan.weights(alpha)
    for b in range(items.shape[0]):
        alone = RowScan(scores[b : b + 1], items[b : b + 1])
        assert alone.logps.tobytes() == scan.logps[b : b + 1].tobytes()
        assert alone.weights(alpha[b : b + 1]).tobytes() == weights[b : b + 1].tobytes()


@pytest.mark.parametrize("spread", [1.0, 300.0])
def test_row_scan_probabilities_of_all_ordered_slates_sum_to_one(spread):
    """Every ordered slate of 3 from 5 items, one per slate of one row: the
    union covers the catalog, and the law's probabilities sum to 1."""
    n, L = 5, 3
    scores = np.random.default_rng(7).uniform(-spread / 2, spread / 2, size=(1, n))
    slates = np.array(list(itertools.permutations(range(n), L)))[None]
    scan = RowScan(scores, slates)
    assert math.fsum(np.exp(scan.logps.sum(axis=2)).ravel()) == pytest.approx(1.0, abs=1e-12)


def test_dispatch_keeps_every_catalog_of_1000_items_or_fewer_on_the_reference_kernel():
    assert ROW_SCAN_ABOVE >= 1000
    items = np.array([[[0, 1, 2]]])
    for n in (3, 300, 1000, ROW_SCAN_ABOVE):
        assert type(scan_slates(np.zeros((1, n)), items)) is SlateScan
    assert type(scan_slates(np.zeros((1, ROW_SCAN_ABOVE + 1)), items)) is RowScan


def _arrays(obj):
    """Every array an object holds, through the objects it holds."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            yield value
        elif hasattr(value, "__dict__"):
            yield from _arrays(value)


def test_row_scan_holds_no_array_of_one_entry_per_slate_and_item():
    B, G, L, n = 4, 8, 6, 50_000
    rng = np.random.default_rng(11)
    scores = rng.normal(size=(B, n))
    items = gumbel_top_k(scores, L, _log_exp(rng, (B, G, n)))
    assert max(a.size for a in _arrays(SlateScan(scores, items))) >= B * G * n
    scan = RowScan(scores, items)
    assert max(a.size for a in _arrays(scan)) < B * G * n
    assert any(isinstance(v, SlateScan) for v in vars(scan).values())


@pytest.mark.parametrize("spread", [7.0, 885.0])
@pytest.mark.parametrize("B", [4, 32])
def test_scan_slates_above_the_threshold_matches_the_reference_kernel(B, spread):
    """At 2000 items, slates drawn from the scores as in training."""
    G, L, n = 8, 6, 2000
    rng = np.random.default_rng(int(spread) + B)
    scores = rng.uniform(-spread / 2, spread / 2, size=(B, n))
    items = gumbel_top_k(scores, L, _log_exp(rng, (B, G, n)))
    alpha = rng.normal(size=(B, G))
    scan, ref = scan_slates(scores, items), SlateScan(scores, items)
    assert n > ROW_SCAN_ABOVE and type(scan) is RowScan
    _assert_logps_close(scan.logps, ref.logps)
    for b, (w, w_ref) in enumerate(zip(scan.weights(alpha), ref.weights(alpha))):
        _assert_weights_close(w, w_ref, alpha[b], scores[b], L)


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
    draws = gumbel_top_k(scores, 2, _log_exp(np.random.default_rng(2019), (1, 20_000, 5)))[0]
    index = {pair: k for k, pair in enumerate(pairs)}
    observed = np.bincount([index[(int(a), int(b))] for a, b in draws], minlength=len(pairs))
    _, pvalue = stats.chisquare(observed, exact * draws.shape[0])
    assert pvalue > 1e-3


def test_gumbel_top_k_shapes_and_validation():
    rng = np.random.default_rng(0)
    items = gumbel_top_k(np.zeros((3, 7)), 7, _log_exp(rng, (3, 4, 7)))
    assert items.shape == (3, 4, 7)
    assert all(sorted(row) == list(range(7)) for row in items.reshape(-1, 7).tolist())
    for L in (0, 8):
        with pytest.raises(ValueError):
            gumbel_top_k(np.zeros((1, 7)), L, _log_exp(rng, (1, 1, 7)))
    for shape in ((2, 1, 7), (1, 1, 6)):
        with pytest.raises(ValueError, match="noise"):
            gumbel_top_k(np.zeros((1, 7)), 2, _log_exp(rng, shape))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=40).map(lambda v: np.array(v, float)),
    st.data(),
)
def test_top_k_ids_equals_full_lexsort_with_ties(scores, data):
    k = data.draw(st.integers(1, scores.shape[0]))
    full = np.lexsort((np.arange(scores.shape[0]), -scores))[:k]
    assert top_k_ids(scores, k) == tuple(int(i) for i in full)
