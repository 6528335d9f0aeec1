"""Training benchmark for sagerec; run from the repository root.

    python3 bench/run.py --workload dynamics --seed 0 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another in this
process. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
full record of the run (environment, every operation's timings, digests and
failures) goes to ``bench/out/<workload>/``. Exit code 2 means the benchmark
could not run at all; the program's own failures are counted, not fatal.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("dynamics", "default32", "catalog50k")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=_nonnegative, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--threads", type=int, default=1, help="BLAS/OpenMP threads (default 1)"
    )
    return parser.parse_args(argv)


def _summary_lines(result: dict) -> list[str]:
    lines = [
        f"{result['workload']} seed {result['seed']}: {result['rounds']} round(s) in "
        f"{result['measured_s']:.1f} s, {result['attempted']} attempted, {result['failed']} failed"
    ]
    for op in result["operations"]:
        tag = " traced" if op["traced"] else ""
        if op["ok"]:
            lines.append(
                f"  {op['name']}{tag}: train {op['train_ms_per_step']:.3f} ms/step, "
                f"finish {statistics.median(op['finish_s']):.4f} s, report {op['digests']['report.jsonl'][:16]}, "
                f"checkpoint {op['digests']['checkpoint.json'][:16]}"
            )
        else:
            err = op["error"]
            lines.append(
                f"  {op['name']}{tag}: FAILED in {err['phase']} at step {err['step']}: "
                f"{err['type']}: {err['message']}"
            )
    lines.extend(f"  problem: {p}" for p in result["problems"])
    for name, metric in result["metrics"].items():
        lines.append(f"  {name} = {metric['value']!r} {metric['unit']}")
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    # Set before numpy is first imported, so the BLAS pool is sized by them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harness
    except ImportError as exc:
        print(f"cannot import the benchmark or sagerec from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    out_root = BENCH_DIR / "out"
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = harness.run_workload(name, args.seed, args.seconds, bool(args.trace), out_root)
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        record = out_root / name / f"result_seed{args.seed}_trace{args.trace}.json"
        record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print("\n".join(_summary_lines(result)))
        print(f"  environment: {json.dumps(result['environment'], sort_keys=True)}")
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        final["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
