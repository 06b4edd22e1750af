"""Run the benchmark repeatedly and record a baseline.

    python3 perfbench/collect.py --runs 10 --out perfbench/baseline.json

For each workload named in ``BENCHMARK.json`` (or given with
``--workloads``), makes ``--runs`` untraced runs with seeds
``--first-seed``, ``--first-seed + 1``, ... and one traced run with the
first seed, one process at a time.  Prints, per end-to-end metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, which is the distance between the quartiles as a share of the
median, next to a third of the metric's bound.  With ``--out`` it also
writes all of that, every value measured and the traced per-layer table to
a JSON file, together with the Python version and the CPU count.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["process_s"] = elapsed
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            raise SystemExit(f"{workload}: a run reported failed items")
        entry = {
            "attempted": runs[0]["attempted"],
            "process_s": summary([r["process_s"] for r in runs]),
            "end_to_end": {name: summary([r["metrics"][name]["value"] for r in runs])
                           for name in bounds},
        }
        print(f"{workload}: {args.runs} runs, process median "
              f"{entry['process_s']['median']:.1f} s")
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  "
                  f"bound/3 {bounds[name] / 3:.4f}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in s["values"]))
        traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
        if not traced["correct"] or traced["failed"]:
            raise SystemExit(f"{workload}: the traced run reported failed items")
        entry["traced_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_process_s"] = traced["process_s"]
        print(f"  traced wall {entry['per_layer']['trace.wall_s']:.3f} s, "
              f"overhead {entry['per_layer']['trace.overhead_s']:.3f} s")
        record["workloads"][workload] = entry
        if args.out:
            args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
