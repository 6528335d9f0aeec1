"""Unit tests for the toy slate policy: sampling, scoring, analytic gradients."""

from __future__ import annotations

import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sagerec.policy import (
    _BLOCK_VALUES,
    PROBE_TILE,
    PolicyGradient,
    PolicyParams,
    init_policy,
    load_checkpoint,
    log_prob_grad,
    mean_first_position_mass,
    probe_work,
    save_checkpoint,
    score_blocks,
    slate_log_prob,
    snapshot,
    user_scores,
)


def next_item_distribution(params: PolicyParams, user: int, prefix=()) -> np.ndarray:
    """Probability of each item at the next slate position: the test oracle.

    The returned vector has one entry per catalog item, is exactly zero on
    prefix items, and sums to 1 over the rest: the plain masked softmax.
    """
    prefix = tuple(int(i) for i in prefix)
    if len(set(prefix)) != len(prefix):
        raise ValueError("prefix contains repeated items")
    if len(prefix) >= params.n_items:
        raise RuntimeError("prefix exhausts the catalog; no next item exists")
    masked = user_scores(params, user)
    for i in prefix:
        if not 0 <= i < params.n_items:
            raise ValueError(f"prefix item id {i} out of range")
        masked[i] = -np.inf
    probs = np.exp(masked - masked.max())
    return probs / probs.sum()


def zero_params(n_users: int = 2, n_items: int = 4, d: int = 3) -> PolicyParams:
    return PolicyParams(
        user_embeddings=np.zeros((n_users, d)),
        item_embeddings=np.zeros((n_items, d)),
        item_bias=np.zeros(n_items),
    )


def test_init_policy_shapes_and_determinism():
    a = init_policy(5, 7, 3, seed=11)
    b = init_policy(5, 7, 3, seed=11)
    c = init_policy(5, 7, 3, seed=12)
    assert a.user_embeddings.shape == (5, 3)
    assert a.item_embeddings.shape == (7, 3)
    assert a.item_bias.shape == (7,)
    assert np.array_equal(a.user_embeddings, b.user_embeddings)
    assert np.array_equal(a.item_embeddings, b.item_embeddings)
    assert not np.array_equal(a.user_embeddings, c.user_embeddings)


def test_init_policy_bias_from_counts():
    counts = np.array([3.0, 0.0, 1.0])
    params = init_policy(2, 3, 2, seed=0, item_counts=counts, bias_smoothing=1.0)
    # Smoothing 1 gives Laplace frequencies: (c+1)/(sum+n) = 4/7, 1/7, 2/7.
    probs = np.exp(params.item_bias)
    assert probs == pytest.approx([4 / 7, 1 / 7, 2 / 7], abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # The default smoothing keeps the same ordering with a softer gap.
    soft = np.exp(init_policy(2, 3, 2, seed=0, item_counts=counts).item_bias)
    assert soft == pytest.approx([13 / 34, 10 / 34, 11 / 34], abs=1e-12)
    assert soft[0] / soft[1] < probs[0] / probs[1]


def test_init_policy_rejects_bad_args():
    with pytest.raises(ValueError):
        init_policy(0, 3, 2, seed=0)
    with pytest.raises(ValueError):
        init_policy(2, 3, 2, seed=0, item_counts=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        init_policy(2, 3, 2, seed=0, item_counts=np.array([1.0, -1.0, 0.0]))
    with pytest.raises(ValueError):
        init_policy(2, 3, 2, seed=0, item_counts=np.array([1.0, 1.0, 0.0]), bias_smoothing=0.0)


def test_user_scores_matches_matmul():
    params = init_policy(4, 6, 3, seed=5)
    for u in range(4):
        expected = params.item_embeddings @ params.user_embeddings[u] + params.item_bias
        assert np.array_equal(user_scores(params, u), expected)
    with pytest.raises(ValueError):
        user_scores(params, 4)


def test_next_item_distribution_uniform_for_zero_params():
    params = zero_params(n_items=4)
    probs = next_item_distribution(params, 0)
    assert probs == pytest.approx(np.full(4, 0.25), abs=1e-15)
    masked = next_item_distribution(params, 0, prefix=(1,))
    assert masked[1] == 0.0
    others = [masked[i] for i in (0, 2, 3)]
    assert others == pytest.approx([1 / 3] * 3, abs=1e-15)


def test_next_item_distribution_softmax_oracle():
    # Scores (ln 2, 0) give probabilities (2/3, 1/3).
    params = PolicyParams(
        user_embeddings=np.array([[1.0]]),
        item_embeddings=np.array([[math.log(2.0)], [0.0]]),
        item_bias=np.zeros(2),
    )
    probs = next_item_distribution(params, 0)
    assert probs == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


def test_next_item_distribution_errors():
    params = zero_params(n_items=3)
    with pytest.raises(ValueError):
        next_item_distribution(params, 0, prefix=(1, 1))
    with pytest.raises(ValueError):
        next_item_distribution(params, 0, prefix=(7,))
    with pytest.raises(RuntimeError):
        next_item_distribution(params, 0, prefix=(0, 1, 2))


def test_slate_log_prob_uniform_oracle():
    # Without-replacement uniform draws over 4 items: 1/4 then 1/3.
    params = zero_params(n_items=4)
    total, per_position = slate_log_prob(params, 0, (2, 0))
    assert per_position == pytest.approx([math.log(0.25), math.log(1 / 3)], abs=1e-12)
    assert total == pytest.approx(math.log(0.25) + math.log(1 / 3), abs=1e-12)


def test_slate_log_prob_last_item_is_certain():
    params = zero_params(n_items=2)
    _, per_position = slate_log_prob(params, 0, (1, 0))
    assert per_position[1] == 0.0


def test_slate_log_prob_rejects_bad_slates():
    params = zero_params(n_items=4)
    with pytest.raises(ValueError):
        slate_log_prob(params, 0, ())
    with pytest.raises(ValueError):
        slate_log_prob(params, 0, (1, 1))
    with pytest.raises(ValueError):
        slate_log_prob(params, 0, (0, 9))


def test_bias_gradient_two_item_oracle():
    # Zero params, two items, pick item 0: w = onehot(0) - (1/2, 1/2).
    params = zero_params(n_items=2)
    grad = log_prob_grad(params, 0, (0,))
    assert grad.item_bias == pytest.approx([0.5, -0.5], abs=1e-15)
    assert np.all(grad.user_embeddings == 0.0)
    assert np.all(grad.item_embeddings == 0.0)


def test_gradient_touches_only_the_scored_user():
    params = init_policy(4, 8, 3, seed=9)
    grad = log_prob_grad(params, 2, (1, 5, 0))
    for u in (0, 1, 3):
        assert np.all(grad.user_embeddings[u] == 0.0)
    assert np.any(grad.user_embeddings[2] != 0.0)


def test_gradient_matches_finite_differences():
    """Central-difference check of every parameter block on random instances."""
    rng = np.random.default_rng(31)
    h = 1e-6
    for _ in range(5):
        params = init_policy(3, 6, 2, seed=int(rng.integers(10_000)))
        user = int(rng.integers(3))
        items = tuple(rng.permutation(6)[:4].tolist())
        grad = log_prob_grad(params, user, items)

        def total_at(p: PolicyParams) -> float:
            return slate_log_prob(p, user, items)[0]

        for name in ("user_embeddings", "item_embeddings", "item_bias"):
            analytic = getattr(grad, name)
            arr = getattr(params, name)
            numeric = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _v in it:
                idx = it.multi_index
                bumped = replace(params, **{name: arr.copy()})
                getattr(bumped, name)[idx] = arr[idx] + h
                up = total_at(bumped)
                getattr(bumped, name)[idx] = arr[idx] - h
                down = total_at(bumped)
                numeric[idx] = (up - down) / (2 * h)
            assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


def test_snapshot_is_immutable_and_detached():
    params = init_policy(2, 4, 2, seed=3)
    frozen = snapshot(params)
    before = frozen.item_bias.copy()
    params.item_bias += 1.0
    assert np.array_equal(frozen.item_bias, before)
    with pytest.raises((ValueError, RuntimeError)):
        frozen.item_bias[0] = 5.0


def test_mean_first_position_mass_uniform_oracle():
    params = zero_params(n_users=3, n_items=5)
    mass = mean_first_position_mass(params, np.array([0, 3]))
    assert mass == pytest.approx(2 / 5, abs=1e-12)


def test_mean_first_position_mass_refuses_an_item_outside_the_catalog():
    params = zero_params(n_users=3, n_items=5)
    for items in ([0, 5], [-1, 2]):
        with pytest.raises(ValueError, match=r"probe item ids must lie in \[0, 5\)"):
            mean_first_position_mass(params, np.array(items))


def test_mean_first_position_mass_matches_per_user_distribution():
    params = init_policy(4, 9, 3, seed=17)
    items = np.array([2, 4, 8])
    expected = np.mean(
        [next_item_distribution(params, u)[items].sum() for u in range(4)]
    )
    assert mean_first_position_mass(params, items) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n_users=st.integers(1, 40),
    rows=st.integers(2, 42),
    n_items=st.sampled_from([1000, 50_000]),
    d=st.integers(1, 32),
    scale=st.sampled_from([0.1, 1.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
# Five users in blocks of two: a last block of one row would round differently.
@example(n_users=5, rows=2, n_items=1000, d=16, scale=1.0, seed=0)
# A two-row buffer at 50 000 items holds tiles of 97 users: two row blocks.
@example(n_users=150, rows=2, n_items=50_000, d=16, scale=1.0, seed=0)
def test_blocked_cold_probe_equals_one_block(n_users, rows, n_items, d, scale, seed):
    """At the catalog sizes the benchmark trains (1000 and 50 000 items), any
    work buffer of two or more rows, whether or not its tiles divide the
    users, gives the bits of the probe over one buffer holding every user.
    Some other shapes (300 items, or 100 or fewer with d >= 32) make this
    BLAS pick a kernel by the block's rows, and the last bit can move."""
    rng = np.random.default_rng(seed)
    params = PolicyParams(
        user_embeddings=rng.normal(0.0, scale, (n_users, d)),
        item_embeddings=rng.normal(0.0, scale, (n_items, d)),
        item_bias=rng.normal(0.0, scale, n_items),
    )
    items = np.flatnonzero(rng.random(n_items) < 0.3)
    one = mean_first_position_mass(params, items, np.full((n_users, n_items), np.nan))
    blocked = mean_first_position_mass(params, items, np.full((rows, n_items), np.nan))
    assert blocked == one
    assert mean_first_position_mass(params, items) == one


def one_pass_probe(params: PolicyParams, items: np.ndarray, work: np.ndarray) -> float:
    """The probe as one softmax pass over :func:`score_blocks`' blocks: the
    oracle of ``mean_first_position_mass`` at ``n_items <= PROBE_TILE``."""
    mass = np.empty(params.n_users)
    for start, z in score_blocks(params, work):
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        mass[start : start + z.shape[0]] = z[:, items].sum(axis=1) / z.sum(axis=1)
    return float(mass.mean())


@settings(max_examples=60, deadline=None)
@given(
    n_users=st.integers(1, 60),
    rows=st.integers(1, 62),
    n_items=st.one_of(st.integers(1, 120), st.sampled_from([300, 1000, PROBE_TILE])),
    d=st.integers(1, 32),
    scale=st.sampled_from([0.1, 1.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_users=200, rows=200, n_items=1000, d=16, scale=1.0, seed=0)
def test_probe_within_one_tile_is_the_one_pass_softmax_bitwise(n_users, rows, n_items, d, scale, seed):
    rng = np.random.default_rng(seed)
    params = PolicyParams(
        user_embeddings=rng.normal(0.0, scale, (n_users, d)),
        item_embeddings=rng.normal(0.0, scale, (n_items, d)),
        item_bias=rng.normal(0.0, scale, n_items),
    )
    items = rng.permutation(n_items)[: rng.integers(0, n_items + 1)]
    expected = one_pass_probe(params, items, np.empty((rows, n_items)))
    assert mean_first_position_mass(params, items, np.empty((rows, n_items))) == expected
    if rows == min(n_users, max(2, 2**19 // n_items)):
        assert mean_first_position_mass(params, items) == expected


def fsum_probe(scores: np.ndarray, items) -> float:
    """Mean first-position mass on ``items`` of (n_users, n_items) ``scores``, summed with ``math.fsum``."""
    masses = []
    for row in scores.tolist():
        m = max(row)
        total = math.fsum(math.exp(s - m) for s in row)
        masses.append(math.fsum(math.exp(row[i] - m) for i in items) / total)
    return math.fsum(masses) / len(masses)


def exact_score_params(scores: np.ndarray) -> PolicyParams:
    """Parameters whose every score is one product ``1.0 * s``: exact in any BLAS kernel."""
    n_users, n_items = scores.shape
    return PolicyParams(np.eye(n_users), scores.T.copy(), np.zeros(n_items))


@settings(max_examples=25, deadline=None)
@given(
    n_users=st.integers(1, 6),
    n_items=st.integers(PROBE_TILE + 1, 4 * PROBE_TILE),
    scale=st.sampled_from([1.0, 30.0, 300.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tiled_probe_matches_an_fsum_reference(n_users, n_items, scale, seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(0.0, scale, (n_users, n_items))
    # The last row's max sits in the last tile, 760 nats above the first tile.
    scores[-1, :PROBE_TILE] = rng.uniform(-400.0, -360.0, PROBE_TILE)
    scores[-1, PROBE_TILE:] = rng.uniform(-20.0, 20.0, n_items - PROBE_TILE)
    scores[-1, -1] = 360.0
    items = rng.permutation(n_items)[: rng.integers(1, n_items)]
    items = np.append(items, n_items - 1)
    params = exact_score_params(scores)
    expected = fsum_probe(scores, items)
    for work in (None, np.empty((2, n_items)), np.empty((n_users, n_items))):
        got = mean_first_position_mass(params, items, work)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_probe_writes_only_the_buffer_it_is_given():
    """Above one tile the probe scores inside ``work``: no score buffer of its own."""
    rng = np.random.default_rng(3)
    params = init_policy(50, 20_000, 8, seed=2)
    items = np.flatnonzero(rng.random(20_000) < 0.2)
    work = probe_work(params.n_users, params.n_items)
    mean_first_position_mass(params, items, work)
    tracemalloc.start()
    try:
        mean_first_position_mass(params, items, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * work.nbytes


def test_checkpoint_roundtrip_is_exact(tmp_path):
    params = init_policy(3, 5, 4, seed=21)
    path = tmp_path / "policy.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.user_embeddings, params.user_embeddings)
    assert np.array_equal(loaded.item_embeddings, params.item_embeddings)
    assert np.array_equal(loaded.item_bias, params.item_bias)
    assert loaded.seed == 21


def test_checkpoint_roundtrip_is_byte_stable(tmp_path):
    params = init_policy(2, 3, 2, seed=8)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(params, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def _whole_payload_bytes(params: PolicyParams) -> bytes:
    """The checkpoint as one ``json.dumps`` of the whole payload writes it."""
    payload = {
        "schema_version": 1,
        "kind": "policy_checkpoint",
        "n_users": params.n_users,
        "n_items": params.n_items,
        "d": params.d,
        "seed": params.seed,
        "user_embeddings": params.user_embeddings.tolist(),
        "item_embeddings": params.item_embeddings.tolist(),
        "item_bias": params.item_bias.tolist(),
    }
    return json.dumps(payload, sort_keys=True).encode()


# Row counts around the block size R of a (rows, d) array: R - 1, R, R + 1
# and 2R + 3 rows end a block early, exactly, one row into the next block,
# and three rows into the third. At d = 1, R is also item_bias's block.
def _row_counts(d: int) -> list[int]:
    rows = _BLOCK_VALUES // d
    return [0, rows - 1, rows, rows + 1, 2 * rows + 3]


SPECIAL_VALUES = np.array([-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf])


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([1, 16]),
    user_index=st.integers(0, 4),
    item_index=st.integers(0, 4),
    special_share=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
    seed=st.integers(-(2**70), 2**70),
    data_seed=st.integers(0, 2**32 - 1),
)
@example(d=16, user_index=4, item_index=3, special_share=0.5, seed=0, data_seed=0)
@example(d=1, user_index=0, item_index=4, special_share=0.01, seed=-1, data_seed=1)
def test_checkpoint_bytes_equal_one_dump_of_the_payload(
    tmp_path_factory, d, user_index, item_index, special_share, seed, data_seed
):
    """The block writer gives ``json.dumps(payload, sort_keys=True)``'s bytes at
    every block boundary, with -0.0, subnormals, huge values, NaN and the
    infinities, which the writer does not validate."""
    rng = np.random.default_rng(data_seed)
    n_users, n_items = _row_counts(d)[user_index], _row_counts(d)[item_index]
    arrays = [rng.normal(0.0, 1.0, shape) for shape in ((n_users, d), (n_items, d), (n_items,))]
    for arr in arrays:
        special = rng.random(arr.shape) < special_share
        arr[special] = rng.choice(SPECIAL_VALUES, int(special.sum()))
    params = PolicyParams(*arrays, seed=seed)
    path = tmp_path_factory.mktemp("ckpt") / "policy.json"
    save_checkpoint(params, path)
    assert path.read_bytes() == _whole_payload_bytes(params)


def test_checkpoint_writer_holds_no_copy_of_the_payload(tmp_path):
    """Saving a 20,000-item policy peaks below a quarter of the file it writes.

    One ``json.dumps`` of the whole payload holds its nested lists, its string
    and the string's encoded copy at once: several times the file's size.
    """
    params = init_policy(200, 20_000, 16, seed=3)
    path = tmp_path / "policy.json"
    tracemalloc.start()
    try:
        save_checkpoint(params, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4
    assert path.read_bytes() == _whole_payload_bytes(params)


def test_save_checkpoint_refuses_a_seed_json_cannot_encode_before_truncating(tmp_path):
    path = tmp_path / "policy.json"
    save_checkpoint(init_policy(3, 5, 4, seed=21), path)
    before = path.read_bytes()
    params = replace(init_policy(3, 5, 4, seed=21), seed=np.int64(21))
    with pytest.raises(TypeError):
        save_checkpoint(params, path)
    assert path.read_bytes() == before


def test_load_checkpoint_rejects_foreign_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"kind": "something_else"}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _ragged(p):
    rows = p["user_embeddings"]
    return {**p, "user_embeddings": [rows[0], rows[1][:2], rows[2]]}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: [p], "not a policy checkpoint"),
        (lambda p: {k: v for k, v in p.items() if k != "item_bias"}, "checkpoint lacks item_bias"),
        (lambda p: b"{not json", r"Expecting property name .*"),
        (lambda p: b"\xff{}", r"'utf-8' codec can't decode byte 0xff .*"),
        (_ragged, r"setting an array element with a sequence.*"),
        (lambda p: {**p, "item_bias": ["a"] * 5}, r"could not convert string to float: 'a'"),
        (lambda p: {**p, "item_embeddings": [[{}] * 4] * 5}, r"float\(\) argument must be .*"),
        (lambda p: {**p, "user_embeddings": None}, r"embedding matrices must be 2-D"),
        (lambda p: {**p, "item_bias": [None] * 5}, r"non-finite entries in item_bias"),
        (lambda p: {**p, "schema_version": 2}, r"schema_version 2 is not 1"),
        (lambda p: {**p, "schema_version": "a"}, r'schema_version must be an integer, got "a"'),
        (lambda p: {**p, "seed": 1.5}, r"seed must be an integer, got 1\.5"),
        (lambda p: {**p, "seed": True}, r"seed must be an integer, got true"),
        (lambda p: {**p, "n_users": 3.0}, r"n_users must be an integer, got 3\.0"),
        (lambda p: {**p, "n_items": 5.0}, r"n_items must be an integer, got 5\.0"),
        (lambda p: {**p, "d": True}, r"d must be an integer, got true"),
        (lambda p: {**p, "n_users": 4}, r"checkpoint dimensions inconsistent with matrices"),
        (lambda p: {**p, "item_bias": [0.0] * 4}, r"item_bias shape does not match item count"),
        (
            lambda p: {**p, "user_embeddings": [row[:3] for row in p["user_embeddings"]]},
            r"user and item embeddings disagree on dimension: 3 vs 4",
        ),
    ],
    ids=[
        "list",
        "missing-key",
        "not-json",
        "not-utf8",
        "ragged",
        "string",
        "object",
        "null",
        "nan",
        "schema-version-2",
        "schema-version-string",
        "seed-float",
        "seed-bool",
        "n-users-float",
        "n-items-float",
        "d-bool",
        "n-users-disagrees",
        "item-bias-length",
        "embedding-dims-disagree",
    ],
)
def test_load_checkpoint_rejects_a_malformed_payload(tmp_path, edit, message):
    """``edit`` maps the saved payload to a new payload or to the file's raw bytes."""
    path = tmp_path / "policy.json"
    save_checkpoint(init_policy(3, 5, 4, seed=21), path)
    edited = edit(json.loads(path.read_text()))
    path.write_bytes(edited if isinstance(edited, bytes) else json.dumps(edited).encode())
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert re.fullmatch(re.escape(f"{path}: ") + message, str(info.value))


def test_gradient_container_helpers():
    params = init_policy(2, 3, 2, seed=1)
    grad = PolicyGradient.zeros_like(params)
    assert grad.all_finite()
    grad.item_bias[0] = np.inf
    assert not grad.all_finite()
