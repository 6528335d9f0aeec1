"""Tests for experiment-config loading and the command-line entry points."""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from sagerec import cli, trainer
from sagerec.bounds import BoundConfig
from sagerec.cli import main
from sagerec.config import ConfigError, ExperimentConfig, MetricConfig, load_experiment_config
from sagerec.simenv import WorldConfig, generate_catalog, save_catalog

# The world of the small catalogs the eval tests save.
CATALOG_WORLD = WorldConfig(n_items=10, n_subcats=3, zipf_exponent=1.0, n_relevant=10)

MINIMAL = """\
out_dir: {out}
seeds: [0]
"""

TINY_RUN = """\
out_dir: {out}
seeds: [0, 1]
world:
  n_items: 30
  n_subcats: 5
  n_users: 10
  n_pretrain_interactions: 500
  n_relevant: 5
train:
  group_size: 4
  users_per_step: 4
  total_steps: 4
  slate_length: 3
  embedding_dim: 6
metrics:
  k: 5
"""


def write_config(tmp_path, body, name="config.yaml"):
    path = tmp_path / name
    path.write_text(body)
    return path


def tiny_config(tmp_path, out_name="out", **edits):
    body = TINY_RUN.format(out=tmp_path / out_name)
    for key, value in edits.items():
        body += f"{key}: {value}\n"
    return write_config(tmp_path, body)


def test_minimal_config_gets_defaults(tmp_path):
    path = write_config(tmp_path, MINIMAL.format(out=tmp_path / "out"))
    config = load_experiment_config(path)
    assert config.seeds == (0,)
    assert config.world.n_items == 1000
    assert config.train.optimizer == "sage"
    assert config.train.bounds.eps_boost == 0.3
    assert config.metrics.k == 10


def test_full_config_section_wiring(tmp_path):
    body = """\
out_dir: results
seeds: [3, 4]
world:
  n_items: 50
  n_subcats: 4
  n_users: 12
  feedback:
    click_bias: -2.0
train:
  optimizer: gbpo
  group_size: 4
  users_per_step: 6
  total_steps: 2
  reward_weights: [0.7, 0.3]
bounds:
  eps_boost: 0.5
  diversity_temp: 0.25
metrics:
  k: 7
  entropy_base: 2.0
"""
    config = load_experiment_config(write_config(tmp_path, body))
    assert config.world.feedback.click_bias == -2.0
    assert config.train.optimizer == "gbpo"
    assert config.train.reward_weights == (0.7, 0.3)
    assert config.train.bounds.eps_boost == 0.5
    assert config.train.bounds.diversity_temp == 0.25
    assert config.metrics.entropy_base == 2.0


def test_json_config_accepted(tmp_path):
    payload = {
        "out_dir": "results",
        "seeds": [1],
        "train": {"group_size": 4, "users_per_step": 8, "total_steps": 1},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    config = load_experiment_config(path)
    assert config.train.group_size == 4


def test_readme_config_example_loads_with_the_defaults_it_shows(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"### Experiment config.*?```yaml\n(.*?)```", readme, re.S)
    config = load_experiment_config(write_config(tmp_path, example))
    assert config.world == WorldConfig()
    assert config.train.bounds == BoundConfig()
    assert config.metrics == MetricConfig()


def test_unknown_top_level_key_has_line(tmp_path):
    body = MINIMAL.format(out="x") + "grou_size: 8\n"
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match=r"config\.yaml:3.*grou_size"):
        load_experiment_config(path)


def test_unknown_nested_key_has_line(tmp_path):
    body = "out_dir: x\nseeds: [0]\nworld:\n  n_item: 10\n"
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match=r"config\.yaml:4.*world\.n_item"):
        load_experiment_config(path)


def test_invalid_value_names_section(tmp_path):
    for section, setting in (
        ("train", "group_size: 1"),
        ("metrics", "k: 0"),
        ("metrics", "entropy_base: 1.0"),
    ):
        body = f"out_dir: x\nseeds: [0]\n{section}:\n  {setting}\n"
        with pytest.raises(ConfigError, match=f"invalid {section}: "):
            load_experiment_config(write_config(tmp_path, body))
    with pytest.raises(ValueError, match="k must be >= 1"):
        MetricConfig(k=0)
    with pytest.raises(ValueError, match="entropy_base must be positive and not 1"):
        MetricConfig(entropy_base=1.0)


def test_seed_list_validation(tmp_path):
    with pytest.raises(ConfigError, match="seeds"):
        load_experiment_config(write_config(tmp_path, "out_dir: x\n"))
    with pytest.raises(ConfigError, match="distinct"):
        load_experiment_config(write_config(tmp_path, "out_dir: x\nseeds: [1, 1]\n"))
    with pytest.raises(ConfigError, match="integer"):
        load_experiment_config(write_config(tmp_path, "out_dir: x\nseeds: [a]\n"))
    with pytest.raises(ConfigError, match="integer"):
        load_experiment_config(write_config(tmp_path, "out_dir: x\nseeds: [true]\n"))
    with pytest.raises(ConfigError, match="seeds must be a nonempty list"):
        load_experiment_config(write_config(tmp_path, "out_dir: x\nseeds: []\n"))


def test_overrides_apply_before_validation(tmp_path):
    path = write_config(tmp_path, "seeds: [0, 1]\n")
    with pytest.raises(ConfigError, match="out_dir"):
        load_experiment_config(path)
    config = load_experiment_config(path, out_override="elsewhere", seed_override=9)
    assert config.out_dir == "elsewhere"
    assert config.seeds == (9,)


def test_cross_field_validation(tmp_path):
    body = (
        "out_dir: x\nseeds: [0]\n"
        "world:\n  n_users: 4\n  n_items: 30\n  n_subcats: 5\n"
        "train:\n  users_per_step: 8\n"
    )
    with pytest.raises(ConfigError, match="users_per_step"):
        load_experiment_config(write_config(tmp_path, body))
    for section, setting, message in (
        ("train", "slate_length: 31", "train.slate_length exceeds world.n_items"),
        ("metrics", "k: 31", r"metrics\.k \(31\) exceeds world\.n_items"),
        ("train", "eval_k: 31", r"train\.eval_k \(31\) exceeds world\.n_items"),
    ):
        body = (
            "out_dir: x\nseeds: [0]\n"
            f"world:\n  n_items: 30\n  n_subcats: 5\n{section}:\n  {setting}\n"
        )
        with pytest.raises(ConfigError, match=message):
            load_experiment_config(write_config(tmp_path, body))
    # The loader refuses an empty out_dir first; the config refuses it on its own too.
    with pytest.raises(ValueError, match="out_dir must be a nonempty path"):
        ExperimentConfig(out_dir="", seeds=(0,))


def test_malformed_yaml_reports_line(tmp_path):
    path = write_config(tmp_path, "out_dir: x\nseeds: [0\n")
    with pytest.raises(ConfigError, match=r"config\.yaml"):
        load_experiment_config(path)
    with pytest.raises(ConfigError, match="mapping"):
        load_experiment_config(write_config(tmp_path, "- just\n- a list\n"))


def test_run_writes_declared_artifacts(tmp_path):
    out = tmp_path / "out"
    code = main(["run", str(tiny_config(tmp_path)), "--quiet"])
    assert code == 0
    for seed in (0, 1):
        assert (out / f"seed_{seed}" / "report.jsonl").exists()
        metrics = json.loads((out / f"seed_{seed}" / "metrics.json").read_text())
        assert metrics["kind"] == "metrics"
        assert (out / f"seed_{seed}" / "checkpoint.json").exists()
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "seed", "value", "std"]
    # 5 metrics x (2 seed rows + 1 aggregate row).
    assert len(rows) == 1 + 5 * 3
    aggregate = [r for r in rows if r[1] == "aggregate"]
    assert len(aggregate) == 5


def test_run_is_byte_deterministic(tmp_path):
    config = tiny_config(tmp_path)
    assert main(["run", str(config), "--quiet", "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(config), "--quiet", "--out", str(tmp_path / "b")]) == 0
    for seed in (0, 1):
        rel = f"seed_{seed}/report.jsonl"
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (
        tmp_path / "b" / "summary.csv"
    ).read_bytes()


def test_run_zero_steps_emits_baseline_metrics(tmp_path):
    body = TINY_RUN.format(out=tmp_path / "out").replace(
        "total_steps: 4", "total_steps: 0"
    )
    code = main(["run", str(write_config(tmp_path, body)), "--quiet"])
    assert code == 0
    report = (tmp_path / "out" / "seed_0" / "report.jsonl").read_text()
    assert report == ""
    metrics = json.loads((tmp_path / "out" / "seed_0" / "metrics.json").read_text())
    assert metrics["n_users"] == 10


def test_run_seed_override(tmp_path):
    out = tmp_path / "out"
    code = main(["run", str(tiny_config(tmp_path)), "--quiet", "--seed-override", "5"])
    assert code == 0
    assert (out / "seed_5").exists()
    assert not (out / "seed_0").exists()


def test_run_config_error_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, "out_dir: x\nseeds: [0]\nnonsense: 1\n")
    assert main(["run", str(path), "--quiet"]) == 1
    assert "nonsense" in capsys.readouterr().err
    # A train value that would fail mid-run, or silently train the wrong way,
    # is refused at its key's line before any world is built.
    out = tmp_path / "out"
    for setting in ("eval_k: 0", "norm_eps: -1.0", "grpo_clip_eps: 7.0", "reward_weights: [1.0]"):
        path = write_config(tmp_path, f"out_dir: {out}\nseeds: [0]\ntrain:\n  {setting}\n")
        assert main(["run", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}:4: invalid train: ")
        assert setting.split(":")[0] in err
        assert not out.exists()


@pytest.mark.parametrize(
    "seeds, flags",
    [("[0, -1]", []), ("-2", []), ("[0]", ["--seed-override", "-3"])],
    ids=["list", "scalar", "override"],
)
def test_negative_seed_exits_1_before_any_output(tmp_path, capsys, seeds, flags):
    out = tmp_path / "out"
    path = write_config(tmp_path, f"out_dir: {out}\nseeds: {seeds}\n")
    assert main(["run", str(path), "--quiet", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}")
    assert "seeds must be nonnegative" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "seeds, message",
    [("[0, -1]", "seeds must be nonnegative, got -1"), ("[1, 1]", "seeds must be distinct")],
    ids=["negative", "repeated"],
)
def test_invalid_seed_list_exits_1_at_its_line(tmp_path, capsys, seeds, message):
    path = write_config(tmp_path, f"out_dir: {tmp_path / 'out'}\nseeds: {seeds}\n")
    assert main(["run", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"config error: {path}:2: invalid config: {message}\n"


def test_overridden_seed_has_no_line_of_the_file(tmp_path, capsys):
    path = write_config(tmp_path, f"out_dir: {tmp_path / 'out'}\nseeds: [0]\n")
    assert main(["run", str(path), "--quiet", "--seed-override", "-3"]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {path}: invalid config: seeds must be nonnegative, got -3\n"


@pytest.mark.parametrize(
    "section, setting",
    [
        ("train", "total_steps: 2.5"),
        ("train", "group_size: 4.0"),
        ("train", "users_per_step: 2.0"),
        ("train", "embedding_dim: 6.5"),
        ("train", "checkpoint_every: true"),
        ("train", "learning_rate: 1e-3"),  # a string in YAML 1.1
        ("train", "optimizer: 5"),
        ("train", "reward_weights: [0.5, high]"),
        ("train", "reward_weights: 0.5"),
        ("world", "n_relevant: 5.0"),
        ("bounds", "eps_boost: false"),
        ("metrics", "entropy_base: two"),
    ],
)
def test_mistyped_value_exits_1_at_its_key(tmp_path, capsys, section, setting):
    out = tmp_path / "out"
    path = write_config(tmp_path, f"out_dir: {out}\nseeds: [0]\n{section}:\n  {setting}\n")
    assert main(["run", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    key = setting.split(":")[0]
    assert err.startswith(f"config error: {path}:4: {section}.{key} must be ")
    assert not out.exists()


@pytest.mark.parametrize(
    "setting",
    [
        "n_relevant: 2000",
        "cold_fraction: 1.5",
        "n_subcats: 0",
        "engagement_low: 90.0",
        "n_pretrain_interactions: 0",
        "preference_concentration: -1.0",
        "n_users: 0",
        "zipf_exponent: -1.0",
        "mainstream_weight: 1.5",
        "n_items: 3",
    ],
)
def test_invalid_world_value_exits_1_at_its_key(tmp_path, capsys, setting):
    """A world value ``WorldConfig`` refuses (the generators check none again)
    is refused at its key's line, before any output directory exists."""
    out = tmp_path / "out"
    path = write_config(tmp_path, f"out_dir: {out}\nseeds: [0]\nworld:\n  {setting}\n")
    assert main(["run", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}:4: invalid world: ")
    assert setting.split(":")[0] in err
    assert not out.exists()


def test_missing_config_exits_3(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.yaml"), "--quiet"]) == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_numeric_abort_exits_2_with_manifest(tmp_path, capsys):
    config = tiny_config(tmp_path, out_name="abort_out")
    body = config.read_text().replace("train:", "train:\n  learning_rate: 1.0e+308")
    config.write_text(body)
    assert main(["run", str(config), "--quiet"]) == 2
    manifest = json.loads((tmp_path / "abort_out" / "error.json").read_text())
    assert manifest["kind"] == "error_manifest"
    assert manifest["seed"] == 0
    assert "non-finite" in manifest["message"]
    assert "numeric abort" in capsys.readouterr().err


def test_numeric_abort_names_its_step(tmp_path, monkeypatch, capsys):
    """A gradient pass that turns non-finite at a known step names that step in error.json."""
    bad_step = 2
    calls = []
    real = trainer.effective_coefficient

    def poisoned(ratios, *args):
        calls.append(1)
        coefs = real(ratios, *args)
        return coefs * np.inf if len(calls) > bad_step else coefs

    monkeypatch.setattr(trainer, "effective_coefficient", poisoned)
    config = tiny_config(tmp_path, out_name="abort_out")
    assert main(["run", str(config), "--quiet"]) == 2
    manifest = json.loads((tmp_path / "abort_out" / "error.json").read_text())
    assert (manifest["seed"], manifest["variant"], manifest["step"]) == (0, None, bad_step)
    assert manifest["message"] == "non-finite bound coefficient"
    assert "numeric abort" in capsys.readouterr().err


def test_a_runtime_error_other_than_a_numeric_abort_is_not_reported_as_one(
    tmp_path, monkeypatch, capsys
):
    """``NumericAbort`` is the only numeric abort; ``NotImplementedError`` is a
    ``RuntimeError`` too, but it propagates, with no exit code 2 and no error.json."""

    def unimplemented(*args, **kwargs):
        raise NotImplementedError("injected")

    monkeypatch.setattr(cli, "train", unimplemented)
    with pytest.raises(NotImplementedError, match="injected"):
        main(["run", str(tiny_config(tmp_path)), "--quiet"])
    assert "numeric abort" not in capsys.readouterr().err
    assert not (tmp_path / "out" / "error.json").exists()


def test_ablate_numeric_abort_names_its_variant(tmp_path, monkeypatch, capsys):
    """An abort in one variant stops the sweep with that variant, seed and step in error.json."""
    bad_seed, bad_step, steps = 1, 2, 4
    calls = []
    real = trainer.effective_coefficient

    def poisoned(ratios, advantages, entropies, tracker, bounds):
        coefs = real(ratios, advantages, entropies, tracker, bounds)
        if bounds.diversity_temp != 0.0:  # only no_entropy switches the penalty off
            return coefs
        calls.append(1)  # one call per step: one update per snapshot
        return coefs * np.inf if len(calls) > bad_seed * steps + bad_step else coefs

    monkeypatch.setattr(trainer, "effective_coefficient", poisoned)
    out = tmp_path / "out"
    assert main(["ablate", str(tiny_config(tmp_path)), "--quiet"]) == 2
    manifest = json.loads((out / "error.json").read_text())
    assert (manifest["command"], manifest["variant"]) == ("ablate", "no_entropy")
    assert (manifest["seed"], manifest["step"]) == (bad_seed, bad_step)
    assert manifest["message"] == "non-finite bound coefficient"
    err = capsys.readouterr().err
    assert err == "numeric abort at seed 1 step 2 (no_entropy): non-finite bound coefficient\n"
    # Variants run one after another, so the two before no_entropy finished.
    for variant in ("full", "no_boost"):
        assert (out / "ablation" / variant / "seed_1" / "checkpoint.json").exists()
    assert not (out / "ablation" / "no_entropy" / "seed_1").exists()
    assert not (out / "ablation.csv").exists()


def test_run_artifacts_equal_ablate_full_variant(tmp_path):
    config = tiny_config(tmp_path)
    assert main(["run", str(config), "--quiet", "--out", str(tmp_path / "run")]) == 0
    assert main(["ablate", str(config), "--quiet", "--out", str(tmp_path / "ablate")]) == 0
    for seed in (0, 1):
        for artifact in ("report.jsonl", "metrics.json", "checkpoint.json"):
            run = tmp_path / "run" / f"seed_{seed}" / artifact
            full = tmp_path / "ablate" / "ablation" / "full" / f"seed_{seed}" / artifact
            assert run.read_bytes() == full.read_bytes()


def test_run_grpo_survives_underflowed_ratios(tmp_path):
    """At the acceptance gate's dynamics knobs, grpo can drive sequence
    ratios to exactly 0.0; they are valid vanishing ratios whose
    coefficient is 0."""
    out = tmp_path / "out"
    body = (
        f"out_dir: {out}\n"
        "seeds: [0]\n"
        "train:\n"
        "  optimizer: grpo\n"
        "  group_size: 8\n"
        "  users_per_step: 4\n"
        "  learning_rate: 30.0\n"
        "  total_steps: 5\n"
        "  slate_length: 6\n"
        "  updates_per_snapshot: 4\n"
        "  embedding_dim: 16\n"
    )
    assert main(["run", str(write_config(tmp_path, body)), "--quiet"]) == 0
    for artifact in ("report.jsonl", "metrics.json", "checkpoint.json"):
        assert (out / "seed_0" / artifact).exists()


def test_boundary_curve_export(tmp_path):
    out = tmp_path / "out"
    code = main(["boundary", str(tiny_config(tmp_path)), "--quiet"])
    assert code == 0
    with open(out / "boundary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 50 grid points x 3 variants x 2 modes x 2 entropy levels.
    assert len(rows) == 600
    gbpo_two = [
        r
        for r in rows
        if r["variant"] == "gbpo" and float(r["r"]) == 2.0
    ]
    assert gbpo_two and all(float(r["coefficient"]) == 1.0 for r in gbpo_two)
    plateau = [
        float(r["coefficient"])
        for r in rows
        if r["variant"] == "sage_pos"
        and r["mode"] == "text-intent"
        and float(r["r"]) >= 1.3
    ]
    assert plateau and all(c == pytest.approx(1.3, abs=1e-12) for c in plateau)


def test_quiet_suppresses_progress(tmp_path, capsys):
    assert main(["boundary", str(tiny_config(tmp_path)), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["boundary", str(tiny_config(tmp_path))]) == 0
    assert "boundary" in capsys.readouterr().err


def test_ablate_normalizes_to_full(tmp_path):
    out = tmp_path / "out"
    body = TINY_RUN.format(out=out).replace("seeds: [0, 1]", "seeds: [0]")
    code = main(["ablate", str(write_config(tmp_path, body)), "--quiet"])
    assert code == 0
    with open(out / "ablation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 5
    variants = {r["variant"] for r in rows}
    assert variants == {"full", "no_boost", "no_entropy", "no_decoupling"}
    for row in rows:
        # A zero full-model value has no defined ratio and stays blank.
        if row["variant"] == "full" and row["value"] != "" and float(row["value"]) != 0.0:
            assert float(row["normalized"]) == 1.0
    for variant in variants:
        assert (out / "ablation" / variant / "seed_0" / "report.jsonl").exists()


def test_eval_happy_path(tmp_path, capsys):
    recs = tmp_path / "recs.csv"
    recs.write_text("user_id,rank,item_id\n0,1,3\n0,2,4\n1,1,7\n1,2,8\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("user_id,item_id\n0,3\n1,7\n")
    cold = tmp_path / "cold.txt"
    cold.write_text("3\n")
    assert main(["eval", str(recs), str(truth), str(cold), "-k", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["recall_at_k"] == 1.0
    assert out["ndcg_at_k"] == 1.0
    assert out["cold_recall"] == 1.0
    assert out["entropy_at_k"] is None
    assert out["ild"] is None


def test_eval_empty_cold_file_reports_absent(tmp_path, capsys):
    recs = tmp_path / "recs.csv"
    recs.write_text("user_id,rank,item_id\n0,1,3\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("user_id,item_id\n0,3\n")
    cold = tmp_path / "cold.txt"
    cold.write_text("")
    assert main(["eval", str(recs), str(truth), str(cold), "-k", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cold_recall"] is None
    assert out["excluded_no_cold_relevant"] == 1


def test_eval_with_catalog_enables_diversity_metrics(tmp_path, capsys):
    catalog = generate_catalog(CATALOG_WORLD, seed=0)
    catalog_path = tmp_path / "catalog.json"
    save_catalog(catalog, catalog_path)
    recs = tmp_path / "recs.csv"
    recs.write_text("user_id,rank,item_id\n0,1,3\n0,2,4\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("user_id,item_id\n0,3\n")
    cold = tmp_path / "cold.txt"
    cold.write_text("9\n")
    code = main(
        ["eval", str(recs), str(truth), str(cold), "-k", "2", "--catalog", str(catalog_path)]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entropy_at_k"] is not None
    assert out["ild"] is not None


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: {k: v for k, v in p.items() if k != "quality"}, "catalog lacks quality"),
        (lambda p: [p], "not a catalog file"),
        (lambda p: {**p, "cold_items": [3, 10]}, "cold ids out of range: [10]"),
        (
            lambda p: b"{not json",
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
        (
            lambda p: b"\xff{}",
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
        (lambda p: {**p, "schema_version": 2}, "schema_version 2 is not 1"),
        (lambda p: {**p, "schema_version": None}, "schema_version must be an integer, got null"),
        (lambda p: {**p, "n_subcats": 3.0}, "n_subcats must be an integer, got 3.0"),
        (lambda p: {**p, "cold_items": {}}, "cold_items must be a list of integer ids"),
        (lambda p: {**p, "cold_items": "ab"}, "cold_items must be a list of integer ids"),
        (lambda p: {**p, "cold_items": [1.5]}, "cold_items must be a list of integer ids"),
        (lambda p: {**p, "cold_items": [True]}, "cold_items must be a list of integer ids"),
    ],
    ids=[
        "missing-key",
        "list",
        "cold-id-out-of-range",
        "not-json",
        "not-utf8",
        "schema-version-2",
        "schema-version-null",
        "n-subcats-float",
        "cold-items-object",
        "cold-items-string",
        "cold-items-float",
        "cold-items-bool",
    ],
)
def test_eval_rejects_a_malformed_catalog(tmp_path, capsys, edit, message):
    """``edit`` maps the saved payload to a new payload or to the file's raw bytes."""
    catalog_path = tmp_path / "catalog.json"
    save_catalog(generate_catalog(CATALOG_WORLD, seed=0), catalog_path)
    edited = edit(json.loads(catalog_path.read_text()))
    catalog_path.write_bytes(edited if isinstance(edited, bytes) else json.dumps(edited).encode())
    recs = tmp_path / "recs.csv"
    recs.write_text("user_id,rank,item_id\n0,1,3\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("user_id,item_id\n0,3\n")
    cold = tmp_path / "cold.txt"
    cold.write_text("3\n")
    args = ["eval", str(recs), str(truth), str(cold), "-k", "1", "--catalog", str(catalog_path)]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {catalog_path}: {message}\n"


def test_eval_rejects_malformed_rows(tmp_path, capsys):
    recs = tmp_path / "recs.csv"
    recs.write_text("user_id,rank,item_id\n0,1,3\n0,1,4\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("user_id,item_id\n0,3\n")
    cold = tmp_path / "cold.txt"
    cold.write_text("3\n")
    assert main(["eval", str(recs), str(truth), str(cold)]) == 1
    err = capsys.readouterr().err
    assert "recs.csv:3" in err


def test_eval_duplicate_item_in_ranking_rejected(tmp_path, capsys):
    recs = tmp_path / "recs.csv"
    recs.write_text("user_id,rank,item_id\n0,1,3\n0,2,3\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("user_id,item_id\n0,3\n")
    cold = tmp_path / "cold.txt"
    cold.write_text("3\n")
    assert main(["eval", str(recs), str(truth), str(cold), "-k", "2"]) == 1
    assert "duplicates" in capsys.readouterr().err


def test_eval_writes_output_file(tmp_path, capsys):
    recs = tmp_path / "recs.csv"
    recs.write_text("user_id,rank,item_id\n0,1,3\n")
    truth = tmp_path / "truth.csv"
    truth.write_text("user_id,item_id\n0,3\n")
    cold = tmp_path / "cold.txt"
    cold.write_text("3\n")
    out_dir = tmp_path / "evalout"
    code = main(
        ["eval", str(recs), str(truth), str(cold), "-k", "1", "--out", str(out_dir)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    written = (out_dir / "eval_metrics.json").read_text()
    assert written == stdout
