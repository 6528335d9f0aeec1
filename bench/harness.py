"""Workloads, operations and metrics of the sagerec training benchmark.

One operation is one experiment done the way ``sagerec run`` does one seed:
``build_world``, ``train``, ``evaluate_policy``, then writing
``report.jsonl``, ``metrics.json`` and ``checkpoint.json``. Each public call
is timed from here. A round runs every operation of a workload once; a run
repeats whole rounds while the next one fits in the time budget, so the share
of failed operations is the same in every run.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from checks import check_operation
from sagerec import trainer as trainer_module
from sagerec.policy import save_checkpoint
from sagerec.simenv import WorldConfig, build_world
from sagerec.trainer import TrainConfig, evaluate_policy, train
from tracing import Tracer

# The acceptance gate's trainer knobs for its dynamics criteria, copied from
# DYNAMICS in tests/test_acceptance.py.
DYNAMICS = dict(
    group_size=8,
    users_per_step=4,
    learning_rate=30.0,
    total_steps=500,
    slate_length=6,
    updates_per_snapshot=4,
    embedding_dim=16,
)
# The gate trains sage and gbpo on seeds range(N_SEEDS); dynamics maps the
# benchmark seed onto two seeds of that range, so it replays the gate's own
# traffic and its median rests on four operations.
GATE_SEEDS = 10
# Fails at step index 374: a sequence ratio underflows to 0.0 and the bound
# check raises. Its inputs do not depend on the benchmark seed, so every
# round fails it the same way until the fault is mended.
FAILING_SEED = 1
DEFAULT32_STEPS = 150
DEFAULT32_OPERATIONS = 4
CATALOG_ITEMS = 50_000
CATALOG_STEPS = 6
CATALOG_OPERATIONS = 3
# build_world and the finish phase repeat until they have taken this long or
# run this often, and the run reports the median over all repeats. Short
# phases at 1000 items get several samples; the seconds-long phases at 50k
# items run once. Training runs once per operation and averages its steps.
REPEAT_BUDGET_S = 0.25
MAX_REPEATS = 5
EVAL_K = 10


@dataclass(frozen=True)
class Operation:
    """One experiment; the world is built with the training seed, as ``sagerec run`` does."""

    world: WorldConfig
    train: TrainConfig

    @property
    def name(self) -> str:
        return f"{self.train.optimizer}-seed{self.train.seed}"


def _dynamics(seed: int) -> tuple[Operation, ...]:
    base = TrainConfig(**DYNAMICS)
    gate_seeds = (seed % GATE_SEEDS, (seed + GATE_SEEDS // 2) % GATE_SEEDS)
    return tuple(
        Operation(WorldConfig(), replace(base, optimizer=optimizer, seed=s))
        for s in gate_seeds
        for optimizer in ("sage", "gbpo")
    ) + (Operation(WorldConfig(), replace(base, optimizer="sage-no-boost", seed=FAILING_SEED)),)


def _default32(seed: int) -> tuple[Operation, ...]:
    return tuple(
        Operation(WorldConfig(), TrainConfig(total_steps=DEFAULT32_STEPS, seed=seed + i))
        for i in range(DEFAULT32_OPERATIONS)
    )


def _catalog50k(seed: int) -> tuple[Operation, ...]:
    config = TrainConfig(**{**DYNAMICS, "total_steps": CATALOG_STEPS})
    return tuple(
        Operation(WorldConfig(n_items=CATALOG_ITEMS), replace(config, seed=seed + i))
        for i in range(CATALOG_OPERATIONS)
    )


WORKLOADS = {"dynamics": _dynamics, "default32": _default32, "catalog50k": _catalog50k}


@dataclass
class OpResult:
    """Timings, digests and check results of one attempted operation."""

    name: str
    steps: int
    traced: bool = False
    setup_s: list[float] = field(default_factory=list)
    train_s: float | None = None
    finish_s: list[float] = field(default_factory=list)
    error: dict | None = None
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def train_ms_per_step(self) -> float:
        return 1e3 * self.train_s / self.steps

    def signature(self):
        """What two runs of the same operation must agree on."""
        if self.ok:
            return ("ok", self.digests["report.jsonl"], self.digests["checkpoint.json"])
        return ("failed", self.error["type"], self.error["step"])

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "traced": self.traced,
            "ok": self.ok,
            "setup_s": self.setup_s,
            "train_ms_per_step": self.train_ms_per_step if self.ok else None,
            "finish_s": self.finish_s,
            "error": self.error,
            "digests": self.digests,
            "problems": self.problems,
        }


def _failure(exc: Exception, phase: str) -> dict:
    """Exception type, message and the training step index it escaped from."""
    step = None
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        if frame.f_code is trainer_module.train.__code__:
            step = frame.f_locals.get("step")
    return {"phase": phase, "type": type(exc).__name__, "message": str(exc), "step": step}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _more(samples: list[float]) -> bool:
    return len(samples) < MAX_REPEATS and sum(samples) < REPEAT_BUDGET_S


def run_operation(op: Operation, out_dir: Path, tracer: Tracer | None = None) -> OpResult:
    """Attempt one operation; an exception marks it failed instead of ending the run."""
    res = OpResult(op.name, op.train.total_steps, traced=tracer is not None, tracer=tracer)
    clock = time.perf_counter
    phase = "setup"
    try:
        with tracer.install() if tracer else nullcontext():
            while _more(res.setup_s):
                t0 = clock()
                world = build_world(op.world, seed=op.train.seed)
                res.setup_s.append(clock() - t0)
            phase = "train"
            t0 = clock()
            result = train(op.train, world)
            res.train_s = clock() - t0
            if tracer:
                tracer.end_train()
            phase = "finish"
            out_dir.mkdir(parents=True, exist_ok=True)
            while _more(res.finish_s):
                t0 = clock()
                metrics = evaluate_policy(result.params, world, EVAL_K)
                t1 = clock()
                result.report.save_jsonl(out_dir / "report.jsonl")
                (out_dir / "metrics.json").write_text(json.dumps(metrics, sort_keys=True) + "\n")
                t2 = clock()
                save_checkpoint(result.params, out_dir / "checkpoint.json")
                t3 = clock()
                res.finish_s.append(t3 - t0)
                if tracer:
                    tracer.record("cli.artifacts", t2 - t1)
                    tracer.record("policy.save_checkpoint", t3 - t2)
    except Exception as exc:  # one failed operation must not end the run
        res.error = _failure(exc, phase)
        return res
    if tracer:
        for setup in res.setup_s:
            tracer.record("simenv.build_world", setup)
    for name in ("report.jsonl", "metrics.json", "checkpoint.json"):
        res.digests[name] = _sha256(out_dir / name)
    try:
        res.problems = check_operation(out_dir, world, op.train.resolve(), result.params, EVAL_K)
    except Exception as exc:  # a malformed artifact is a failed check, not a crash
        res.problems = [f"check raised {type(exc).__name__}: {exc}"]
    return res


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_root: Path) -> dict:
    """Run whole rounds of a workload for about ``seconds`` and summarise them.

    The untraced run repeats rounds while the next is expected to fit in
    ``seconds``; at least one round always runs. The traced run is exactly
    one round in which every operation runs untraced and then traced, so its
    counts repeat exactly and the pair gives the tracing overhead.
    """
    operations = WORKLOADS[name](seed)
    results: list[OpResult] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for op in operations:
            out_dir = out_root / name / op.name
            results.append(run_operation(op, out_dir))
            if trace:
                results.append(run_operation(op, out_dir, Tracer()))
        rounds += 1
        now = time.perf_counter()
        if trace or (now - start) + (now - round_start) > seconds:
            break
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [f"{r.name}: {p}" for r in results for p in r.problems]
    first: dict[str, tuple] = {}
    for r in results:
        if first.setdefault(r.name, r.signature()) != r.signature():
            problems.append(f"{r.name}: outcome differs between repeats: {r.signature()}")
    untraced = [r for r in results if r.ok and not r.traced]
    if not untraced:
        raise RuntimeError(f"workload {name}: every operation failed")
    if trace:
        metrics = layer_metrics(results)
    else:
        metrics = {
            "setup_s": (statistics.median(s for r in untraced for s in r.setup_s), "s"),
            "train_ms_per_step": (statistics.median(r.train_ms_per_step for r in untraced), "ms"),
            "finish_s": (statistics.median(s for r in untraced for s in r.finish_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "rounds": rounds,
        "measured_s": measured_s,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "correct": not problems,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "operations": [r.to_dict() for r in results],
        "environment": environment(seed),
    }


def layer_metrics(results: list[OpResult]) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the successful traced operations of one round."""
    traced = [r for r in results if r.ok and r.traced]
    if not traced:
        raise RuntimeError("no traced operation succeeded")
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for r in traced:
        for key, value in r.tracer.seconds.items():
            seconds[key] = seconds.get(key, 0.0) + value
        for key, value in r.tracer.calls.items():
            calls[key] = calls.get(key, 0) + value
    steps = sum(r.steps for r in traced)
    step_ms = np.concatenate([r.tracer.step_ms for r in traced])

    def ms_per_step(key):
        return 1e3 * seconds.get(key, 0.0) / steps, "ms"

    def ms_per_call(key):
        n = calls.get(key, 0)
        return (1e3 * seconds[key] / n if n else 0.0), "ms"

    def s_per_call(key):
        return seconds[key] / calls[key], "s"

    def count(key):
        return calls.get(key, 0), "count"

    untraced = {r.name: r for r in results if r.ok and not r.traced}
    overhead = [r.train_ms_per_step - untraced[r.name].train_ms_per_step for r in traced]
    return {
        "simenv.build_world_s": s_per_call("simenv.build_world"),
        "simenv.pretrain_log_s": s_per_call("simenv.pretrain_log"),
        "simenv.relevant_items_s": s_per_call("simenv.relevant_items"),
        "trainer.collect_ms_per_step": ms_per_step("trainer.collect"),
        "trainer.sample_ms_per_step": ms_per_step("trainer.sample"),
        "trainer.feedback_ms_per_step": ms_per_step("trainer.feedback"),
        "trainer.batch_build_ms_per_step": ms_per_step("trainer.batch_build"),
        "trainer.gradient_onpolicy_ms_per_call": ms_per_call("trainer.gradient_onpolicy"),
        "trainer.gradient_offpolicy_ms_per_call": ms_per_call("trainer.gradient_offpolicy"),
        "trainer.gradient_onpolicy_calls": count("trainer.gradient_onpolicy"),
        "trainer.gradient_offpolicy_calls": count("trainer.gradient_offpolicy"),
        "trainer.update_ms_per_step": ms_per_step("trainer.update"),
        "trainer.step_ms_p50": (float(np.percentile(step_ms, 50)), "ms"),
        "trainer.step_ms_p98": (float(np.percentile(step_ms, 98)), "ms"),
        "trainer.step_samples": (int(step_ms.shape[0]), "count"),
        "policy.cold_probe_ms_per_step": ms_per_step("policy.cold_probe"),
        "policy.user_scores_calls": count("policy.user_scores"),
        "policy.user_scores_ms_per_step": ms_per_step("policy.user_scores"),
        "policy.snapshot_ms_per_step": ms_per_step("policy.snapshot"),
        "policy.save_checkpoint_s": s_per_call("policy.save_checkpoint"),
        "bounds.coefficient_calls": count("bounds.coefficient"),
        "bounds.coefficient_ms_per_step": ms_per_step("bounds.coefficient"),
        "signals.normalize_calls": count("signals.normalize"),
        "signals.advantage_ms_per_step": ms_per_step("signals.advantage"),
        "trainer.rank_items_s": s_per_call("trainer.rank_items"),
        "metrics.evaluate_rankings_s": s_per_call("metrics.evaluate_rankings"),
        "cli.artifacts_s": s_per_call("cli.artifacts"),
        "trace.overhead_ms_per_step": (statistics.median(overhead), "ms"),
    }


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
