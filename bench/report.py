"""Repeat bench runs and print every metric with its median and quartiles.

    python3 bench/report.py                       # 5 seeds from 1
    python3 bench/report.py --repeat 10 --seed 100

For every workload: ``--repeat`` untraced runs of run.py on consecutive
seeds, then one traced run on the first seed, each ``run_seconds`` long as
BENCHMARK.json sets it. Prints each end-to-end metric by name and unit with
median, quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and
spread = (Q3 - Q1) / median next to its bound, the output checks (failed /
attempted, worst |printed - reference|) and the per-layer table of the
traced run. Raw values go to ``bench/out/REPORT_seed<seed>_x<repeat>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    result_path = OUT / f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    return {"summary": summary, "result": json.loads(result_path.read_text())}


def spread_row(name: str, unit: str, values: list[float], bound: float) -> str:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else float("nan")
    return (f"  {name:14s} {unit:5s} {median:14.6g} {q1:14.6g} {q3:14.6g} "
            f"{spread:8.4f} {bound:8.3f}")


def report_workload(workload: str, seeds: list[int], seconds: int, limits: dict) -> dict:
    runs = []
    for seed in seeds:
        started = time.perf_counter()
        runs.append(run_once(workload, seed, seconds, 0))
        print(f"  ran {workload} seed {seed} in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for run in runs:
        for name, metric in run["summary"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    attempted = sum(run["summary"]["attempted"] for run in runs)
    failed = sum(run["summary"]["failed"] for run in runs)
    worst = max(run["result"]["max_abs_err"] for run in runs)
    samples = [run["result"]["samples"] for run in runs]
    print(f"\n== {workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}, "
          f"{runs[0]['result']['jobs']} jobs per pass, {min(samples)}-{max(samples)} job samples per run")
    print(f"  checks: failed {failed} / attempted {attempted} (failed_frac {failed / attempted:.4g}), "
          f"max_abs_err {worst:.3e}, tolerance {runs[0]['result']['tolerance']}")
    print(f"  {'metric':14s} {'unit':5s} {'median':>14s} {'Q1':>14s} {'Q3':>14s} {'spread':>8s} {'bound':>8s}")
    for name, vals in values.items():
        print(spread_row(name, units[name], vals, limits[name]))
    traced = run_once(workload, seeds[0], seconds, 1)
    layers = traced["summary"]["metrics"]
    print(f"  per-layer (traced run, seed {seeds[0]}, "
          f"failed {traced['summary']['failed']} / {traced['summary']['attempted']}):")
    for name, metric in layers.items():
        print(f"    {name:36s} {metric['value']:16.6g} {metric['unit']}")
    return {"seeds": seeds, "values": values, "units": units, "failed": failed,
            "attempted": attempted, "max_abs_err": worst, "per_layer": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seeds = list(range(args.seed, args.seed + args.repeat))
    spec = benchmark()
    limits = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    report = {workload["name"]: report_workload(workload["name"], seeds, spec["run_seconds"], limits)
              for workload in spec["workloads"]}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"REPORT_seed{args.seed}_x{args.repeat}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nraw values: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
