"""The benchmark's own checks reject perturbed outputs, and failures are counted.

Runs tiny operations (60 items, a few steps) so the file takes about a second.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import harness
from checks import check_operation
from sagerec import trainer
from sagerec.policy import load_checkpoint
from sagerec.simenv import WorldConfig, build_world
from sagerec.trainer import TrainConfig

TINY_WORLD = WorldConfig(
    n_items=60, n_subcats=4, n_users=12, n_pretrain_interactions=600, n_relevant=5
)
TINY_TRAIN = TrainConfig(
    group_size=4, users_per_step=4, total_steps=6, slate_length=3, embedding_dim=4
)
FAIL_SEED = 99
FAIL_STEP = 2


def _op(seed, optimizer="sage", updates=1):
    config = replace(TINY_TRAIN, optimizer=optimizer, updates_per_snapshot=updates, seed=seed)
    return harness.Operation(TINY_WORLD, config)


@pytest.fixture
def done(tmp_path):
    """A successful operation: its result, artifact directory and check inputs."""
    op = _op(3, updates=2)
    res = harness.run_operation(op, tmp_path)
    assert res.ok and res.problems == []
    world = build_world(TINY_WORLD, seed=3)
    params = load_checkpoint(tmp_path / "checkpoint.json")
    return tmp_path, lambda: check_operation(tmp_path, world, op.train.resolve(), params, 10)


def _edit_json(path: Path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, sort_keys=True))


def test_gbpo_operation_passes_checks(tmp_path):
    res = harness.run_operation(_op(4, optimizer="gbpo", updates=3), tmp_path)
    assert res.ok and res.problems == []


def test_nudged_checkpoint_entry_is_rejected(done):
    out, check = done
    cold = min(build_world(TINY_WORLD, seed=3).catalog.cold_items)

    def nudge(payload):
        payload["item_bias"][cold] += 1e-6

    _edit_json(out / "checkpoint.json", nudge)
    problems = check()
    assert any(p.startswith("cold_mass from checkpoint") for p in problems)
    assert any("item_bias bitwise" in p for p in problems)


def test_edited_metrics_value_is_rejected(done):
    out, check = done

    def edit(payload):
        payload["ndcg_at_k"] += 1e-9

    _edit_json(out / "metrics.json", edit)
    assert [p for p in check() if p.startswith("ndcg_at_k recomputed")]


def test_report_row_with_half_advantage_std_is_rejected(done):
    out, check = done
    path = out / "report.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[2]["advantage_std"] = 0.5
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    assert check() == ["report row 2: advantage_std 0.5 is neither 0 nor 1"]


def test_raising_operation_is_counted_as_failed(tmp_path, monkeypatch):
    real_update = trainer.apply_update
    calls = []

    def failing_update(params, gradient, state, config):
        if config.seed == FAIL_SEED:
            calls.append(1)
            if len(calls) > FAIL_STEP:
                raise RuntimeError("injected")
        return real_update(params, gradient, state, config)

    monkeypatch.setattr(trainer, "apply_update", failing_update)
    monkeypatch.setitem(harness.WORKLOADS, "tiny", lambda seed: (_op(seed), _op(FAIL_SEED)))
    result = harness.run_workload("tiny", 5, 0.0, False, tmp_path)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, True)
    error = result["operations"][1]["error"]
    assert (error["phase"], error["type"], error["step"]) == ("train", "RuntimeError", FAIL_STEP)
    assert set(result["metrics"]) == {"setup_s", "train_ms_per_step", "finish_s", "peak_rss_mb"}


def test_traced_run_reports_every_declared_layer_metric(tmp_path, monkeypatch):
    declared = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    monkeypatch.setitem(harness.WORKLOADS, "tiny", lambda seed: (_op(seed, updates=2),))
    result = harness.run_workload("tiny", 5, 0.0, True, tmp_path)
    assert result["correct"] and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert result["metrics"]["trainer.gradient_offpolicy_calls"]["value"] == TINY_TRAIN.total_steps
    assert result["metrics"]["trainer.step_samples"]["value"] == TINY_TRAIN.total_steps
