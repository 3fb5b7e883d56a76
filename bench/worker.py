"""Run one workload's jobs through ``alphabug.cli.main`` in this process.

Started by run.py as a child process with a deadline. Reads its plan as
JSON on stdin: ``{"jobs": [argv, ...], "seconds": s, "trace": bool,
"records": path, "spans": path}``. One closed-loop client: one job at a
time, stdout and stderr captured in memory. Each finished job appends one
record ``{"pass", "job", "segment", "code", "ms", "status", "out", "err"}`` to the
records file and flushes it, so the jobs a killed worker did finish are
still counted. A job that runs past JOB_TIMEOUT_S is interrupted by
SIGALRM and recorded as a timeout. A speed probe (probe.py) runs between
jobs so run.py can calibrate the times.

Untraced (trace false): a short warm-up, then full passes over the job list
while another pass still fits in ``seconds``. Traced: one untraced pass,
then one pass with spans installed (see spans.py); the spans are written
to the spans file at the end.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
import traceback

import spans as spanlib
from probe import probe

JOB_TIMEOUT_S = 20.0
WARMUP_JOBS = 3
PROBE_EVERY_S = 0.1


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def run_job(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, status, elapsed = None, "done", None
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            try:
                code = cli.main(argv)
            finally:
                elapsed = time.perf_counter() - started
    except JobTimeout:
        status = "timeout"
    except Exception:  # a crash fails this job only; the traceback is kept
        status = "crash"
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    return {"code": code, "ms": None if elapsed is None else 1000.0 * elapsed,
            "status": status, "out": out.getvalue(), "err": err.getvalue()}


def run_pass(cli, jobs, pass_no: int, records, tracer=None) -> dict:
    """One pass over the jobs, with a speed probe at the start, at the end
    and after every PROBE_EVERY_S of jobs. Each record names the segment
    (the stretch between two probes) it ran in."""
    gc.collect()
    probes, segments = [probe()], []
    segment_start = time.perf_counter()
    for job_id, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job = job_id
        record = run_job(cli, argv)
        record.update({"pass": pass_no, "job": job_id, "segment": len(segments)})
        records.write(json.dumps(record) + "\n")
        records.flush()
        now = time.perf_counter()
        if now - segment_start >= PROBE_EVERY_S or job_id == len(jobs) - 1:
            segments.append(now - segment_start)
            probes.append(probe())
            segment_start = time.perf_counter()
    return {"probes": probes, "segments": segments}


def peak_rss_kb() -> int:
    """High-water RSS of this process image. getrusage's ru_maxrss would
    also count the parent's RSS at the fork, which the kernel carries over
    the exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    plan = json.load(sys.stdin)
    import alphabug
    from alphabug import cli

    signal.signal(signal.SIGALRM, _alarm)
    jobs = plan["jobs"]
    for argv in jobs[:WARMUP_JOBS]:
        if run_job(cli, argv)["status"] != "done":
            break
    passes = []
    summary = {"traced_pass": None, "spans": 0}
    with open(plan["records"], "w", encoding="utf-8") as records:
        if plan["trace"]:
            passes.append(run_pass(cli, jobs, 0, records))
            tracer = spanlib.Tracer()
            undo = spanlib.install(tracer, alphabug)
            try:
                passes.append(run_pass(cli, jobs, 1, records, tracer))
            finally:
                spanlib.uninstall(undo)
            with open(plan["spans"], "w", encoding="utf-8") as handle:
                json.dump(tracer.spans, handle)
            summary.update(traced_pass=1, spans=len(tracer.spans))
        else:
            clock = time.perf_counter()
            while True:
                passes.append(run_pass(cli, jobs, len(passes), records))
                elapsed = time.perf_counter() - clock
                if elapsed * (len(passes) + 1) / len(passes) > plan["seconds"]:
                    break
        summary.update(
            passes=passes,
            peak_rss_kb=peak_rss_kb(),
        )
        records.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
