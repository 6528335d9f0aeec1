"""Output checks for one benchmark operation, computed apart from the program.

Every function returns a list of problems; an empty list means the check
passed. Each check either recomputes a written number with code of its own
(softmax, top-k ranking, recall and NDCG) or tests a property the method must
have (finite report rows, normalised advantages, coefficient caps, a lossless
checkpoint). Only the world and the written files are read; no program
function is reused for the recomputation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# The program and this module sum in different orders; the difference stays
# orders of magnitude below these tolerances.
COLD_MASS_TOL = 1e-9
METRIC_TOL = 1e-12
ADVANTAGE_TOL = 1e-9
RANGE_TOL = 1e-12
REPORT_FIELDS = (
    "cold_mass",
    "mean_entropy",
    "advantage_mean",
    "advantage_std",
    "coef_pos_mean",
    "coef_neg_mean",
)
# Rows of the score matrix handled at once, so the checks never hold an
# (n_users, n_items) block and add nothing to the run's peak memory.
ROW_CHUNK = 16


def read_checkpoint(path: Path) -> dict[str, np.ndarray]:
    payload = json.loads(Path(path).read_text())
    return {
        name: np.array(payload[name], dtype=np.float64)
        for name in ("user_embeddings", "item_embeddings", "item_bias")
    }


def _score_chunks(ckpt: dict[str, np.ndarray]):
    users = ckpt["user_embeddings"]
    items_t = ckpt["item_embeddings"].T
    for lo in range(0, users.shape[0], ROW_CHUNK):
        yield lo, users[lo : lo + ROW_CHUNK] @ items_t + ckpt["item_bias"]


def cold_mass(ckpt: dict[str, np.ndarray], cold_items) -> float:
    """Mean over users of the first-position softmax mass on the cold items."""
    cold = np.array(sorted(cold_items), dtype=np.intp)
    per_user = []
    for _, scores in _score_chunks(ckpt):
        z = np.exp(scores - scores.max(axis=1, keepdims=True))
        per_user.append(z[:, cold].sum(axis=1) / z.sum(axis=1))
    return float(np.concatenate(per_user).mean())


def top_k(scores: np.ndarray, k: int) -> list[int]:
    """The k best item ids by score, ties broken by the lower item id."""
    threshold = np.partition(scores, scores.shape[0] - k)[scores.shape[0] - k]
    candidates = np.flatnonzero(scores >= threshold)
    order = np.lexsort((candidates, -scores[candidates]))
    return [int(i) for i in candidates[order[:k]]]


def ranking_metrics(ckpt: dict[str, np.ndarray], relevant, k: int) -> dict[str, float]:
    """Mean Recall@k and binary NDCG@k over users with a relevant item."""
    recalls, ndcgs = [], []
    for lo, scores in _score_chunks(ckpt):
        for row in range(scores.shape[0]):
            rel = relevant[lo + row]
            if not rel:
                continue
            hits = [rank for rank, item in enumerate(top_k(scores[row], k), 1) if item in rel]
            recalls.append(len(hits) / len(rel))
            dcg = math.fsum(1.0 / math.log2(rank + 1) for rank in hits)
            ideal = math.fsum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(rel)) + 1))
            ndcgs.append(dcg / ideal)
    return {
        "recall_at_k": math.fsum(recalls) / len(recalls),
        "ndcg_at_k": math.fsum(ndcgs) / len(ndcgs),
    }


def check_report_rows(rows: list[dict], train_config, n_subcats: int) -> list[str]:
    """Invariants every report row must hold; ``train_config`` is resolved."""
    problems = []
    if [row.get("step") for row in rows] != list(range(train_config.total_steps)):
        problems.append(f"report steps are not 0..{train_config.total_steps - 1}")
    bounds = train_config.bounds
    text_intent = bounds.pos_mode == bounds.neg_mode == "text-intent"
    max_entropy = math.log(min(train_config.slate_length, n_subcats))
    for i, row in enumerate(rows):
        where = f"report row {i}"
        values = {name: row.get(name) for name in REPORT_FIELDS}
        if values["coef_neg_mean"] is None and values["advantage_std"] == 0.0:
            # An all-zero advantage batch has no negative slate to average.
            values.pop("coef_neg_mean")
        bad = [n for n, v in values.items() if not (isinstance(v, float) and math.isfinite(v))]
        if bad:
            problems.append(f"{where}: non-finite or missing {bad}")
            continue
        if not 0.0 <= values["cold_mass"] <= 1.0:
            problems.append(f"{where}: cold_mass {values['cold_mass']} outside [0, 1]")
        if not 0.0 <= values["mean_entropy"] <= max_entropy + RANGE_TOL:
            problems.append(
                f"{where}: mean_entropy {values['mean_entropy']} outside [0, {max_entropy}]"
            )
        if abs(values["advantage_mean"]) > ADVANTAGE_TOL:
            problems.append(f"{where}: advantage_mean {values['advantage_mean']} is not 0")
        std = values["advantage_std"]
        if abs(std) > ADVANTAGE_TOL and abs(std - 1.0) > ADVANTAGE_TOL:
            problems.append(f"{where}: advantage_std {std} is neither 0 nor 1")
        pos, neg = values["coef_pos_mean"], values.get("coef_neg_mean")
        if train_config.optimizer == "sage" and text_intent:
            if not 0.0 < pos <= 1.0 + bounds.eps_boost + RANGE_TOL:
                problems.append(f"{where}: coef_pos_mean {pos} outside (0, 1+eps_boost]")
            if neg is not None and not 0.0 < neg <= 1.0 + bounds.diversity_temp + RANGE_TOL:
                problems.append(f"{where}: coef_neg_mean {neg} outside (0, 1+diversity_temp]")
        elif train_config.optimizer == "gbpo":
            if pos > 1.0 + RANGE_TOL or (neg is not None and neg > 1.0 + RANGE_TOL):
                problems.append(f"{where}: gbpo coefficient mean above 1 ({pos}, {neg})")
    return problems


def check_operation(out_dir: Path, world, train_config, params, k: int) -> list[str]:
    """All checks on the artifacts one successful operation wrote to ``out_dir``.

    ``train_config`` is the operation's resolved config and ``params`` the
    parameters ``train`` returned.
    """
    from sagerec.policy import load_checkpoint

    out_dir = Path(out_dir)
    rows = [json.loads(line) for line in (out_dir / "report.jsonl").read_text().splitlines()]
    written = json.loads((out_dir / "metrics.json").read_text())
    ckpt = read_checkpoint(out_dir / "checkpoint.json")
    problems = check_report_rows(rows, train_config, world.catalog.n_subcats)

    if rows:
        mass = cold_mass(ckpt, world.catalog.cold_items)
        if not abs(mass - rows[-1]["cold_mass"]) <= COLD_MASS_TOL:
            problems.append(
                f"cold_mass from checkpoint {mass!r} != last report row {rows[-1]['cold_mass']!r}"
            )
    for name, value in ranking_metrics(ckpt, world.relevant, k).items():
        if not abs(value - written[name]) <= METRIC_TOL:
            problems.append(f"{name} recomputed {value!r} != metrics.json {written[name]!r}")

    loaded = load_checkpoint(out_dir / "checkpoint.json")
    for name in ("user_embeddings", "item_embeddings", "item_bias"):
        a, b = getattr(loaded, name), getattr(params, name)
        if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
            problems.append(f"load_checkpoint does not return the trained {name} bitwise")
    return problems
