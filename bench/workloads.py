"""Seeded job lists for the three bench workloads.

A job is a plain dict: the argv handed to ``alphabug.cli.main``, an
optional batch file body (a ``batch`` job's argv names the file through
the ``BATCH_FILE`` placeholder, replaced by a real path at run time), and
a ``spec`` holding the parameters the reference oracle needs. Nothing here
imports ``alphabug``: the program only ever sees the generated argv and
batch files.

Sizes are drawn by stratified sampling (one draw inside each of N equal
strata of the log range), so every seed gets the same spread of problem
sizes and the per-seed cost of a pass stays steady while the exact
instances differ.
"""

from __future__ import annotations

import random

BATCH_FILE = "@batch-file"

SPECTRUM_JOBS = 100
SPECTRUM_D = (150, 1000)
SPECTRUM_MAX_N = 1_000_000

SCAN_JOBS = 100
SCAN_D = (10, 48)
SCAN_N_PER_D = 40
SWEEP_ALPHAS = 8

GRID_MAX_N = 12
GRID_ALPHAS = (0.0, 0.25, 0.5, 0.75, 0.99)
VERIFY_MAX_N = 8


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def _stratified_ints(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """count integers spread log-uniformly over [lo, hi], one per stratum,
    in shuffled order."""
    ratio = hi / lo
    values = [int(lo * ratio ** ((k + rng.random()) / count)) for k in range(count)]
    rng.shuffle(values)
    return values


def _alpha(rng: random.Random) -> float:
    # six decimals: the argv text and the float the oracle uses agree exactly
    return round(0.99 * rng.random(), 6)


def _split(rng: random.Random, d: int) -> int:
    return 1 + int(rng.random() * (d - 1))


def _bug_argv(n: int, d: int, i: int) -> list[str]:
    return ["--n", str(n), "--d", str(d), "--i", str(i)]


def spectrum_large(rng: random.Random) -> list[dict]:
    jobs = []
    for d in _stratified_ints(rng, SPECTRUM_JOBS, *SPECTRUM_D):
        n = int(_log_uniform(rng, d + 2, SPECTRUM_MAX_N))
        i = _split(rng, d)
        alpha = _alpha(rng)
        argv = ["spectrum", *_bug_argv(n, d, i), "--alpha", str(alpha),
                "--method", "structured"]
        spec = {"kind": "spectrum", "method": "structured",
                "n": n, "d": d, "i": i, "alpha": alpha}
        jobs.append({"argv": argv, "batch": None, "spec": spec})
    return jobs


def radius_scan(rng: random.Random) -> list[dict]:
    jobs = []
    for d in _stratified_ints(rng, SCAN_JOBS, *SCAN_D):
        n = int(_log_uniform(rng, d + 2, SCAN_N_PER_D * d))
        scan_alpha = _alpha(rng)
        i = _split(rng, d)
        alphas = sorted({_alpha(rng) for _ in range(SWEEP_ALPHAS)})
        batch = [
            {"command": "scan", "n": n, "d": d, "alpha": scan_alpha},
            {"command": "sweep", "n": n, "d": d, "i": i, "alphas": alphas},
        ]
        spec = {"kind": "radius", "n": n, "d": d, "i": i,
                "scan_alpha": scan_alpha, "alphas": alphas}
        jobs.append({"argv": ["batch", BATCH_FILE], "batch": batch, "spec": spec})
    return jobs


def _grid_bugs(max_n: int):
    for n in range(3, max_n + 1):
        for d in range(2, n):
            for i in range(1, d // 2 + 1):
                yield n, d, i


def verify_grid(rng: random.Random) -> list[dict]:
    """The fixed oracle grid; the seed sets only the order of the jobs."""
    jobs = []
    for n, d, i in _grid_bugs(GRID_MAX_N):
        balanced = d % 2 == 0 and d >= 4 and i == d // 2
        methods = ("all", "halved") if balanced else ("all",)
        for alpha in GRID_ALPHAS:
            for method in methods:
                argv = ["spectrum", *_bug_argv(n, d, i), "--alpha", str(alpha),
                        "--method", method]
                spec = {"kind": "spectrum", "method": method,
                        "n": n, "d": d, "i": i, "alpha": alpha}
                jobs.append({"argv": argv, "batch": None, "spec": spec})
    alphas = ",".join(str(a) for a in GRID_ALPHAS)
    jobs.append({
        "argv": ["verify", "--max-n", str(VERIFY_MAX_N), "--alphas", alphas],
        "batch": None,
        "spec": {"kind": "verify", "max_n": VERIFY_MAX_N, "alphas": list(GRID_ALPHAS)},
    })
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "spectrum-large": spectrum_large,
    "radius-scan": radius_scan,
    "verify-grid": verify_grid,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of one workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
