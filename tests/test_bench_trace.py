"""The names the benchmark's per-layer trace and failure record reach into.

``bench/tracing.py`` wraps module attributes of ``sagerec.simenv`` and
``sagerec.trainer`` by name, and ``bench/harness.py`` reads the ``step``
local of ``trainer.train`` from a failure's traceback. A refactor that
renames any of them breaks ``bench/run.py --trace 1`` without failing a
unit test, so this file pins them.
"""

from __future__ import annotations

import importlib.util
import traceback
from pathlib import Path

import pytest

from sagerec import simenv, trainer
from sagerec.policy import PROBE_TILE, ROW_SCAN_ABOVE, RowScan

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped():
    return _tracing().WRAPPED


def _small_world():
    small = simenv.WorldConfig(
        n_items=30, n_subcats=5, n_users=10, n_pretrain_interactions=500, n_relevant=5
    )
    return simenv.build_world(small, seed=0)


def test_every_traced_attribute_exists():
    modules = {"simenv": simenv, "trainer": trainer}
    wrapped = _wrapped()
    assert wrapped
    missing = [(m, attr) for m, attr, _ in wrapped if not callable(getattr(modules[m], attr, None))]
    assert missing == []
    assert callable(trainer.compute_gradient)
    assert callable(trainer.snapshot)


def test_a_failure_in_train_shows_its_step_local(monkeypatch):
    """The harness finds a failure's step as the ``step`` local of ``train``'s frame."""
    world = _small_world()
    calls = []

    def failing_update(*args):
        calls.append(1)
        if len(calls) > 2:
            raise KeyError("injected")
        return real_update(*args)

    real_update = trainer.apply_update
    monkeypatch.setattr(trainer, "apply_update", failing_update)
    config = trainer.TrainConfig(group_size=4, users_per_step=4, total_steps=5, slate_length=3)
    with pytest.raises(KeyError) as info:
        trainer.train(config, world)
    steps = [
        frame.f_locals.get("step")
        for frame, _ in traceback.walk_tb(info.value.__traceback__)
        if frame.f_code is trainer.train.__code__
    ]
    assert steps == [2]


def test_trace_classifies_each_pass():
    """The first pass of a step reuses the collection's scan; the later ones rescore users."""
    world = _small_world()
    tracer = _tracing().Tracer()
    config = trainer.TrainConfig(
        group_size=4, users_per_step=4, total_steps=4, slate_length=3, updates_per_snapshot=3
    )
    with tracer.install():
        trainer.train(config, world)
    assert tracer.calls["trainer.gradient_onpolicy"] == 4
    assert tracer.calls["trainer.gradient_offpolicy"] == 8
    assert tracer.calls["bounds.coefficient"] == 12


def test_trace_classifies_each_pass_above_the_row_scan_threshold(monkeypatch):
    """The split holds where collection and the rescans take the per-row scan."""
    n_items = max(ROW_SCAN_ABOVE, PROBE_TILE) + 500
    world = simenv.build_world(
        simenv.WorldConfig(n_items=n_items, n_subcats=5, n_users=10, n_pretrain_interactions=500, n_relevant=5),
        seed=0,
    )
    kernels = []
    real_scan = trainer.scan_slates

    def recording_scan(scores, items):
        scan = real_scan(scores, items)
        kernels.append(type(scan))
        return scan

    monkeypatch.setattr(trainer, "scan_slates", recording_scan)
    tracer = _tracing().Tracer()
    config = trainer.TrainConfig(
        group_size=4, users_per_step=4, total_steps=3, slate_length=3, updates_per_snapshot=4
    )
    with tracer.install():
        trainer.train(config, world)
    assert set(kernels) == {RowScan}
    assert tracer.calls["trainer.gradient_onpolicy"] == 3
    assert tracer.calls["trainer.gradient_offpolicy"] == 9
    assert tracer.calls["bounds.coefficient"] == 12
