"""Benchmark of the alphabug CLI: one workload, one seed, one run.

    python3 bench/run.py --workload spectrum-large --seed 1 --seconds 30 --trace 0

Generates the workload's jobs from the seed (workloads.py), computes the
reference answers (oracle.py), measures the set-up time of a fresh
interpreter, then runs the jobs in a worker process with a deadline
(worker.py) and checks every captured output (checks.py). With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced pass (spans.py). The full result, with its
provenance, goes to ``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json``;
the last line of stdout is the summary JSON. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One client on a small machine: keep every BLAS pool at one thread, here
# (before numpy loads) and in every process this script starts.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.stats.mstats import hdquantiles  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402
from probe import REF_S, probe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPS = 7
SOLVE_TOL_ENV = "ALPHA_BUG_SOLVE_TOL"
EXIT_NO_PROGRAM = 2
EXIT_WORKER_BROKEN = 3


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    # a stray solver tolerance can make bisection spin forever
    env.pop(SOLVE_TOL_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict) -> tuple[float, float]:
    """Median time of a fresh interpreter importing alphabug.cli, calibrated
    by a speed probe on each side of every start, and uncalibrated."""
    command = [sys.executable, "-c", "import alphabug.cli"]
    subprocess.run(command, env=env, cwd=ROOT, check=True)  # compiles bytecode once
    raw, calibrated = [], []
    for _ in range(SETUP_REPS):
        before = probe()
        started = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        elapsed = time.perf_counter() - started
        speed = REF_S / statistics.mean([before, probe()])
        raw.append(elapsed)
        calibrated.append(elapsed * speed)
    return statistics.median(calibrated), statistics.median(raw)


def git_commit() -> dict | None:
    """HEAD and whether the working tree differs from it; None outside git."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def materialize(jobs: list[dict], run_dir: Path) -> list[list[str]]:
    """argv lists with each batch placeholder replaced by a written file."""
    argvs = []
    for job_id, job in enumerate(jobs):
        argv = list(job["argv"])
        if job["batch"] is not None:
            path = run_dir / f"batch_{job_id:04d}.json"
            path.write_text(json.dumps(job["batch"]), encoding="utf-8")
            argv[argv.index(workloads.BATCH_FILE)] = str(path)
        argvs.append(argv)
    return argvs


def run_worker(plan: dict, env: dict, deadline: float) -> tuple[int | None, str]:
    """Start the worker, feed it the plan, wait at most deadline seconds."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=env, cwd=ROOT, text=True,
    )
    try:
        _, err = proc.communicate(json.dumps(plan), timeout=deadline)
        return proc.returncode, err
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        return None, err + f"\nworker killed at the {deadline:.0f} s deadline"


def read_records(path: Path) -> tuple[list[dict], dict | None]:
    records, summary = [], None
    if not path.is_file():
        return records, summary
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.endswith("\n"):
                break  # cut off by a kill
            item = json.loads(line)
            if "summary" in item:
                summary = item["summary"]
            else:
                records.append(item)
    return records, summary


def judge(jobs, refs, records, summary) -> dict:
    """Check every record; count the jobs a killed worker never finished."""
    failures, errors, emitted = [], [], {}
    cache: dict = {}
    failed = 0
    for record in records:
        job_id = record["job"]
        key = (job_id, record["code"], record["out"])
        if record["status"] != "done":
            outcome = checks.Outcome(False, 0.0, 0, record["status"])
        else:
            if key not in cache:
                cache[key] = checks.check(jobs[job_id]["spec"], refs[job_id],
                                          record["code"], record["out"])
            outcome = cache[key]
        errors.append(outcome.max_abs_err)
        emitted[record["pass"]] = emitted.get(record["pass"], 0) + outcome.emitted
        if not outcome.ok:
            failed += 1
            if len(failures) < 20:
                detail = record["err"].strip().splitlines()[-1:] if record["err"] else []
                failures.append(f"pass {record['pass']} job {job_id} {jobs[job_id]['argv']}: "
                                f"{outcome.message} {' '.join(detail)}".strip())
    unfinished = 0
    if summary is None:
        last = max((r["pass"] for r in records), default=0)
        unfinished = len(jobs) - sum(1 for r in records if r["pass"] == last)
    attempted = len(records) + unfinished
    return {
        "attempted": attempted,
        "failed": failed + unfinished,
        "unfinished": unfinished,
        "failures": failures,
        "max_abs_err": max(errors, default=0.0),
        "emitted": emitted,
    }


def segment_speeds(probes: list[float]) -> list[float]:
    """REF_S / the local probe time, for each stretch between two probes;
    the local time is the median of the probes on each side and one more
    beyond each, which discounts a probe that an interrupt hit."""
    return [REF_S / statistics.median(probes[max(0, k - 1):k + 3])
            for k in range(len(probes) - 1)]


def timings(records: list[dict], summary: dict | None, unfinished: int, deadline: float) -> dict:
    """Raw and calibrated pass walls and job latencies. If the worker was
    killed, nothing can be calibrated: raw times stand in, the wall is the
    deadline, and each unfinished job counts as taking the whole deadline."""
    timed = [r for r in records if r["ms"] is not None]
    raw_ms = [r["ms"] for r in timed]
    if summary is None:
        raw_ms += [1000.0 * deadline] * unfinished
        return {"raw_ms": raw_ms, "cal_ms": raw_ms, "walls": [deadline], "cal_walls": [deadline]}
    passes = summary["passes"]
    speeds = [segment_speeds(p["probes"]) for p in passes]
    return {
        "raw_ms": raw_ms,
        "cal_ms": [r["ms"] * speeds[r["pass"]][r["segment"]] for r in timed],
        "walls": [sum(p["segments"]) for p in passes],
        "cal_walls": [sum(t * v for t, v in zip(p["segments"], sp)) for p, sp in zip(passes, speeds)],
    }


def end_to_end(times: dict, summary: dict | None, setup: tuple[float, float]) -> tuple[dict, dict]:
    """(metrics, the same figures uncalibrated) of an untraced run."""
    if summary is not None:
        rss_kb = summary["peak_rss_kb"]
    else:  # killed worker; an upper bound, as it includes this process at the fork
        import resource
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Harrell-Davis quantiles weight every order statistic, not just the two
    # next to the rank, so p90 of ~100 samples moves less from run to run
    raw_p50, raw_p90 = hdquantiles(times["raw_ms"], prob=(0.5, 0.9))
    p50, p90 = hdquantiles(times["cal_ms"], prob=(0.5, 0.9))
    metrics = {
        "setup_s": (setup[0], "s"),
        "wall_cal_s": (statistics.median(times["cal_walls"]), "s"),
        "job_p50_cal_ms": (float(p50), "ms"),
        "job_p90_cal_ms": (float(p90), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    raw = {
        "setup_s": setup[1],
        "wall_s": statistics.median(times["walls"]),
        "job_p50_ms": float(raw_p50),
        "job_p90_ms": float(raw_p90),
    }
    return metrics, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "alphabug" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'alphabug'} is missing", file=sys.stderr)
        return EXIT_NO_PROGRAM

    jobs = workloads.generate(args.workload, args.seed)
    refs = [oracle.reference(job["spec"]) for job in jobs]
    env = child_env()
    setup = measure_setup(env) if args.trace == 0 else None

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    run_dir = OUT / f"run_{tag}_{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        plan = {
            "jobs": materialize(jobs, run_dir),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "records": str(run_dir / "records.ndjson"),
            "spans": str(run_dir / "spans.json"),
        }
        deadline = min(150.0, 3.0 * args.seconds + 60.0)
        code, worker_err = run_worker(plan, env, deadline)
        records, summary = read_records(run_dir / "records.ndjson")
        if summary is None and code is not None and not records:
            # not killed at the deadline: the worker itself broke
            print(f"error: the worker exited {code}:\n{worker_err}", file=sys.stderr)
            return EXIT_WORKER_BROKEN
        verdict = judge(jobs, refs, records, summary)
        if summary is None:
            verdict["failures"].append(f"worker exit {code}: {worker_err.strip()[-500:]}")
        times = timings(records, summary, verdict["unfinished"], deadline)
        raw = {}
        if args.trace == 0:
            metrics, raw = end_to_end(times, summary, setup)
        else:
            metrics = {}
            if summary is not None and summary["traced_pass"] is not None:
                with open(plan["spans"], encoding="utf-8") as handle:
                    span_list = json.load(handle)
                metrics = spanlib.layer_metrics(
                    span_list, verdict["emitted"].get(1, 0), times["walls"][1],
                    times["cal_walls"][1] / times["cal_walls"][0] - 1.0)
                shutil.copyfile(plan["spans"], OUT / f"spans_{args.workload}_seed{args.seed}.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "jobs": len(jobs),
        "passes": len(times["walls"]),
        "pass_walls_s": times["walls"],
        "pass_walls_cal_s": times["cal_walls"],
        "samples": len(times["raw_ms"]),
        "uncalibrated": raw,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "failed_frac": verdict["failed"] / verdict["attempted"],
        "max_abs_err": verdict["max_abs_err"],
        "tolerance": f"|printed - reference| <= {oracle.TOL_SCALE:g} * max(1, rho)",
        "failures": verdict["failures"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} jobs={len(jobs)} samples={result['samples']} "
          f"failed={verdict['failed']}/{verdict['attempted']} max_abs_err={verdict['max_abs_err']:.3e}")
    for failure in verdict["failures"][:5]:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:16.6g} {unit}")
    for name, value in raw.items():
        print(f"  (uncalibrated {name} {value:.6g})")
    print(json.dumps({
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
