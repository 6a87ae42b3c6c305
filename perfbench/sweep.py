"""Repeat ``run.py`` over seeds and summarise each metric's spread.

Usage (from the repository root):

    python3 perfbench/sweep.py --seeds 0-9 [--workloads a,b] [--traced-seed 0] [--out FILE]

For every workload (default: all in BENCHMARK.json) it runs
``run.py --trace 0`` once per seed, with ``run_seconds`` from
BENCHMARK.json, and reports each end-to-end metric's median, quartiles and
spread: the distance between the quartiles as a share of the median, which
must stay under the metric's bound. ``--traced-seed`` adds one
``--trace 1`` run per workload. ``--out`` writes everything, the raw runs
included, as one JSON file for the bench trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {"seed": seed, "exit_code": 0, "env": env, **json.loads(lines[-1])}


def summarise(runs: list, bounds: dict) -> dict:
    out = {}
    ok = [r for r in runs if r["exit_code"] == 0]
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in ok]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-9 or 3,7,100")
    parser.add_argument("--workloads", help="comma list; default all")
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    result = {"run_seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(name, seed, spec["run_seconds"], 0)
            runs.append(run)
            status = "ok" if run["exit_code"] == 0 and run["correct"] else "FAILED"
            print(f"{name} seed {seed}: {status}", file=sys.stderr, flush=True)
        entry = {"runs": runs, "summary": summarise(runs, bounds)}
        if args.traced_seed is not None:
            entry["traced"] = run_once(name, args.traced_seed, spec["run_seconds"], 1)
        result["workloads"][name] = entry
        for metric, s in entry["summary"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above a third of the bound"
            if metric != "setup_s":
                worst = max(worst, s["spread"] / s["bound"])
            print(f"{name:14} {metric:13} median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f} bound {s['bound']}{flag}")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
