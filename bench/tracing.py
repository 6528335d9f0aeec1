"""Per-layer spans for the traced benchmark run, recorded from outside the program.

``Tracer.install`` replaces module attributes of ``sagerec.simenv`` and
``sagerec.trainer`` with timing wrappers and puts the originals back on exit.
Public functions are wrapped where they exist. Stages that have no public
boundary are wrapped at the private trainer helper that does them:
``_collect_batch``, ``_sample_slates``, ``_score_feedback``, ``_build_groups``
and ``_batch_advantages``. The trainer imported the policy, bounds, signals
and metrics functions by name, so those are wrapped under ``sagerec.trainer``,
the namespace the training loop looks them up in.

Spans are folded into per-name totals and call counts as they close, so the
trace costs constant memory; only the step durations are kept one by one.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name)
WRAPPED = (
    ("simenv", "logged_pretraining", "simenv.pretrain_log"),
    ("simenv", "relevant_items", "simenv.relevant_items"),
    ("trainer", "_collect_batch", "trainer.collect"),
    ("trainer", "_sample_slates", "trainer.sample"),
    ("trainer", "_score_feedback", "trainer.feedback"),
    ("trainer", "_build_groups", "trainer.batch_build"),
    ("trainer", "apply_update", "trainer.update"),
    ("trainer", "rank_items", "trainer.rank_items"),
    ("trainer", "mean_first_position_mass", "policy.cold_probe"),
    ("trainer", "user_scores", "policy.user_scores"),
    ("trainer", "effective_coefficient", "bounds.coefficient"),
    ("trainer", "gbpo_coefficient", "bounds.coefficient"),
    ("trainer", "grpo_clip_coefficient", "bounds.coefficient"),
    ("trainer", "group_normalize", "signals.normalize"),
    ("trainer", "batch_normalize", "signals.normalize"),
    ("trainer", "naive_advantage", "signals.normalize"),
    ("trainer", "_batch_advantages", "signals.advantage"),
    ("trainer", "evaluate_rankings", "metrics.evaluate_rankings"),
)


class Tracer:
    """Span totals for one operation: seconds and calls per span name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.step_ms: list[float] = []
        self._step_start: float | None = None

    def span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0
                self.calls[name] += 1

        return wrapped

    def record(self, name: str, seconds: float) -> None:
        """Add a span the benchmark timed itself around a public call."""
        self.seconds[name] += seconds
        self.calls[name] += 1

    def _gradient(self, fn):
        # A pass that rescored users ran the off-policy rescan; one that did
        # not reused the sampling mass collection cached.
        def wrapped(*args, **kwargs):
            before = self.calls["policy.user_scores"]
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                rescored = self.calls["policy.user_scores"] > before
                self.record("trainer.gradient_" + ("offpolicy" if rescored else "onpolicy"), elapsed)

        return wrapped

    def _snapshot(self, fn):
        # ``train`` snapshots the policy first thing in every step, so the
        # interval between two snapshot calls is one step.
        def wrapped(*args, **kwargs):
            now = time.perf_counter()
            if self._step_start is not None:
                self.step_ms.append((now - self._step_start) * 1e3)
            self._step_start = now
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record("policy.snapshot", time.perf_counter() - t0)

        return wrapped

    def end_train(self) -> None:
        """Close the last step span when ``train`` returns."""
        if self._step_start is not None:
            self.step_ms.append((time.perf_counter() - self._step_start) * 1e3)
            self._step_start = None

    @contextmanager
    def install(self):
        from sagerec import simenv, trainer

        modules = {"simenv": simenv, "trainer": trainer}
        patches = [(modules[m], attr, self.span(name, getattr(modules[m], attr))) for m, attr, name in WRAPPED]
        patches.append((trainer, "compute_gradient", self._gradient(trainer.compute_gradient)))
        patches.append((trainer, "snapshot", self._snapshot(trainer.snapshot)))
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)
