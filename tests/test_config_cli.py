"""Tests for experiment-config loading and the command-line entry points."""

from __future__ import annotations

import csv
import json

import pytest

from sagerec.cli import main
from sagerec.config import ConfigError, load_experiment_config
from sagerec.simenv import generate_catalog, save_catalog

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
    body = "out_dir: x\nseeds: [0]\ntrain:\n  group_size: 1\n"
    with pytest.raises(ConfigError, match="train"):
        load_experiment_config(write_config(tmp_path, body))


def test_seed_list_validation(tmp_path):
    with pytest.raises(ConfigError, match="seeds"):
        load_experiment_config(write_config(tmp_path, "out_dir: x\n"))
    with pytest.raises(ConfigError, match="distinct"):
        load_experiment_config(write_config(tmp_path, "out_dir: x\nseeds: [1, 1]\n"))
    with pytest.raises(ConfigError, match="integer"):
        load_experiment_config(write_config(tmp_path, "out_dir: x\nseeds: [a]\n"))
    with pytest.raises(ConfigError, match="integer"):
        load_experiment_config(write_config(tmp_path, "out_dir: x\nseeds: [true]\n"))


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


def test_run_grpo_survives_underflowed_ratios(tmp_path):
    """At the acceptance gate's dynamics knobs, grpo drives sequence ratios
    to exactly 0.0 from the second step on; they are valid vanishing ratios
    whose coefficient is the 0.8 floor on negative advantages."""
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
    catalog = generate_catalog(10, 3, 1.0, 0.2, seed=0)
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
