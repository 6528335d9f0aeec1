"""The package's public surface: what ``sagerec.__all__`` names."""

from __future__ import annotations

import sagerec
from sagerec import bounds, signals, simenv, trainer

# Entry points that duplicated a rule or a container another public name
# already gives: the scalar coefficient and ratio forms, the per-user object,
# and the one-user collector whose list of batches ``StepBatch.concat`` joined.
REMOVED = (
    "UserModel",
    "collect_group",
    "effective_coefficient",
    "gbpo_coefficient",
    "grpo_clip_coefficient",
    "sequence_ratio",
)


def test_every_exported_name_resolves():
    assert len(set(sagerec.__all__)) == len(sagerec.__all__)
    namespace: dict = {}
    exec("from sagerec import *", namespace)
    assert [name for name in sagerec.__all__ if name not in namespace] == []


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in sagerec.__all__
        assert not hasattr(sagerec, name)
    assert not hasattr(simenv, "UserModel")
    assert not hasattr(signals, "sequence_ratio")
    assert not hasattr(trainer, "collect_group")
    assert not hasattr(trainer.StepBatch, "concat")
    for name in ("effective_coefficient", "gbpo_coefficient", "grpo_clip_coefficient"):
        assert not hasattr(bounds, name)


def test_exported_rules_are_the_ones_training_calls():
    assert sagerec.sage_coefficients is trainer.effective_coefficient
    assert sagerec.gbpo_coefficients is trainer.gbpo_coefficient
    assert sagerec.grpo_clip_coefficients is trainer.grpo_clip_coefficient
    assert sagerec.log_ratio is trainer.log_ratio
