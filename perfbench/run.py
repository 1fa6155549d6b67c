"""Two-clock benchmark: run one workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` is the
traced run that yields the per-layer metrics (see README.md).  ``all`` runs
every workload, each in a fresh process so ``peak_rss_mb`` is per workload.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full records
(stamp, clocks, tail percentiles) and span files go to ``perfbench/out/``.
The exit code is non-zero when any output disagrees with its oracle.
"""

from __future__ import annotations

import os
import sys

# One caller: pin native thread pools before NumPy/SciPy load.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("analytics", "serve", "churn")


def _bootstrap() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}/repro")
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; one combined JSON line."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode or 0
        if not lines:
            combined["correct"] = False
            code = code or 1
            continue
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return code


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description="Two-clock GraphBLAS benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _bootstrap()
    if args.workload == "all":
        return run_all(args)
    from perfbench import runner

    result, record = runner.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    runner.save_record(record, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    runner.print_record(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
