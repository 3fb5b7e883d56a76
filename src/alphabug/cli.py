"""Command-line front end.

Subcommands: ``spectrum`` (one bug, one alpha), ``sweep`` (alpha grid),
``scan`` (spectral radius across path splits), ``verify`` (oracle grid),
and ``batch`` (newline-delimited results for a JSON array of jobs).

Output is deterministic: fixed field order, floats rendered at 12
significant digits, LF line endings.  Timings are opt-in (``--timings``)
precisely so that the default output of a given job is byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .eigensolve import (
    DEFAULT_CONFIG,
    ConvergenceError,
    SolveConfig,
    _run_eigenvalues,
    jacobi_eigenvalues,
    tridiag_eigenvalues,
)
from .graphs import BugSpec, _check_real, assemble_dense_alpha, check_alpha
from .spectrum import DENSE, Spectrum
from .structured import (_bug_runs, _halvable, _spectrum_from_quotient, bug_tridiagonal,
                         closed_form, halved_tridiagonal)
from .verify import DEFAULT_ALPHAS, compare_spectra, extremal_scan, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

ENV_TOL = "ALPHA_BUG_SOLVE_TOL"
COMPARE_TOL = 1e-8
# Largest order the dense route (--method dense/all) assembles. Its cyclic
# Jacobi rotates lists of Python floats and grows like n**3: at n = 200,
# i = d/2, alpha = 0.5 a fresh `spectrum --method dense` process took
# 1.1-1.3 s for d = 40 and 5.3-6.4 s for d = 190, and at n = 500, d = 490
# the library took 179-198 s (3 runs each, 2-core x86-64, Python 3.11,
# numpy 2.4). Without a cap, n = 10**6 would ask for an 8 TB matrix.
DENSE_MAX_N = 200
# Largest d of any job. A spectrum solves d+1 eigenvalues and a scan d/2
# quotients: at d = 10**6 they took 5.5 s / 464 MB and 8.2 s / 803 MB peak
# RSS in a fresh process (2-core x86-64, Python 3.11, numpy 2.4).
D_MAX = 10**6

_METHODS = ("structured", "dense", "halved", "all")
_FORMATS = ("json", "csv")


@dataclass(frozen=True)
class JobConfig:
    """One fully validated unit of work, shared by the CLI and batch mode.
    Its defaults are the only defaults of the optional job fields."""

    command: str
    bug: BugSpec | None = None
    input_form: str | None = None
    n: int | None = None
    d: int | None = None
    alpha: float | None = None
    alphas: tuple[float, ...] | None = None
    method: str = "structured"
    fmt: str = "json"
    output: str | None = None
    timings: bool = False
    max_n: int = 12
    tol: float = COMPARE_TOL


def _resolve_bug(n, d, i, p, q, r) -> tuple[BugSpec, str]:
    ndi = (n, d, i)
    pqr = (p, q, r)
    if all(v is not None for v in ndi) and not any(v is not None for v in pqr):
        return BugSpec.from_ndi(n, d, i), "ndi"
    if all(v is not None for v in pqr) and not any(v is not None for v in ndi):
        return BugSpec.from_pqr(p, q, r), "pqr"
    raise ValueError(
        "provide exactly one complete parameter triple: --n/--d/--i or --p/--q/--r"
    )


def config_from_env(environ=None) -> SolveConfig:
    """Default solver tolerances, overridden by ALPHA_BUG_SOLVE_TOL if set."""
    environ = os.environ if environ is None else environ
    raw = environ.get(ENV_TOL)
    if raw is None:
        return DEFAULT_CONFIG
    # SolveConfig checks the tolerance (graphs._check_positive)
    try:
        tol = float(raw)
        return replace(DEFAULT_CONFIG, bisection_tol=tol, jacobi_off_tol=tol, power_tol=tol)
    except ValueError:
        raise ValueError(f"{ENV_TOL} must be a positive finite number, got {raw!r}") from None


# ---------------------------------------------------------------------------
# payload builders (plain dicts with a fixed key order)


def _bug_echo(bug: BugSpec, input_form: str) -> dict:
    return {
        "input_form": input_form,
        "n": bug.n,
        "d": bug.d,
        "i": bug.q,
        "p": bug.p,
        "q": bug.q,
        "r": bug.r,
    }


def _closed_form(bug: BugSpec, alpha: float) -> dict | None:
    value, mult = closed_form(bug, alpha)
    return {"value": value, "multiplicity": mult} if mult >= 1 else None


def _cmd_spectrum(cfg: JobConfig, solve: SolveConfig) -> dict:
    bug, alpha, method = cfg.bug, cfg.alpha, cfg.method
    if method in ("dense", "all") and bug.n > DENSE_MAX_N:
        raise ValueError(
            f"method={method} assembles an n x n matrix and allows n <= {DENSE_MAX_N}, "
            f"got n={bug.n}; use method=structured"
        )
    if method == "halved" and not _halvable(bug.d, bug.i):
        raise ValueError(
            "method=halved needs a balanced bug of even diameter >= 4 "
            f"(got d={bug.d}, i={bug.i})"
        )
    started = time.perf_counter()
    closed = _closed_form(bug, alpha)
    quotient = dense_entries = verification = None
    if method != "dense":
        if method == "halved":
            tridiagonal = halved_tridiagonal(bug.n, bug.d, alpha)
        else:
            tridiagonal = bug_tridiagonal(bug, alpha)
        quotient = tridiag_eigenvalues(tridiagonal, solve).tolist()
        rho = quotient[-1]
    if method in ("dense", "all"):
        dense_values = jacobi_eigenvalues(assemble_dense_alpha(bug, alpha), solve)
        if method == "dense":
            radius = 1e-7 * max(1.0, float(dense_values[-1]))
            clustered = Spectrum.from_values(dense_values, DENSE, radius)
            dense_entries = [
                {"value": e.value, "multiplicity": e.multiplicity}
                for e in clustered.entries
            ]
            rho = float(dense_values[-1])
            closed = None
        else:
            structured = _spectrum_from_quotient(bug, alpha, quotient)
            report = compare_spectra(structured, dense_values, cfg.tol)
            verification = {
                "matched": report.matched,
                "max_abs_deviation": report.max_abs_deviation,
                "tolerance": cfg.tol,
            }
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    echo = _bug_echo(bug, cfg.input_form)
    echo["alpha"] = alpha
    return {
        "input": echo,
        "method": method,
        "closed_form": closed,
        "quotient_eigenvalues": quotient,
        "rho": rho,
        "dense_spectrum": dense_entries,
        "timings_ms": elapsed_ms if cfg.timings else None,
        "verification": verification,
    }


def _cmd_sweep(cfg: JobConfig, solve: SolveConfig) -> dict:
    bug = cfg.bug
    runs = _bug_runs(bug.n, bug.d, bug.i, cfg.alphas)
    extremes = _run_eigenvalues(runs, bug.d + 1, np.array([1, bug.d + 1]), solve)
    rows = []
    for alpha, (smallest, largest) in zip(cfg.alphas, extremes.tolist()):
        value, mult = closed_form(bug, alpha)
        rows.append(
            {
                "alpha": alpha,
                "rho": largest,
                "closed_form": value if mult else None,
                "closed_mult": mult,
                "min_quotient": smallest,
            }
        )
    echo = _bug_echo(bug, cfg.input_form)
    echo["alphas"] = list(cfg.alphas)
    return {"input": echo, "method": "structured", "rows": rows}


def _cmd_scan(cfg: JobConfig, solve: SolveConfig) -> dict:
    rows = extremal_scan(cfg.n, cfg.d, cfg.alpha, solve)
    return {
        "input": {"n": cfg.n, "d": cfg.d, "alpha": cfg.alpha},
        "rows": [
            {"i": row.i, "rho": row.rho, "is_argmax": row.is_argmax} for row in rows
        ],
        "argmax_i": next(row.i for row in rows if row.is_argmax),
    }


def _cmd_verify(cfg: JobConfig, solve: SolveConfig) -> dict:
    alphas = cfg.alphas if cfg.alphas is not None else DEFAULT_ALPHAS
    summary = run_verification(cfg.max_n, alphas, cfg.tol, solve)
    failures = list(summary.failures)
    if summary.failures_dropped:
        failures.append(f"{summary.failures_dropped} further failures not listed")
    return {
        "input": {"max_n": cfg.max_n, "alphas": list(alphas), "tolerance": cfg.tol},
        "summary": {key: getattr(summary, key) for key in _COMMANDS["verify"].columns},
        "failures": failures,
    }


def _spectrum_rows(payload: dict) -> list[dict]:
    rows = [{"value": v, "multiplicity": 1, "source": "quotient"}
            for v in payload["quotient_eigenvalues"] or []]
    if payload["closed_form"] is not None:
        rows.append({**payload["closed_form"], "source": "closed-form"})
    rows.extend({**entry, "source": "dense"} for entry in payload["dense_spectrum"] or [])
    return sorted(rows, key=lambda row: row["value"])


class _Command(NamedTuple):
    help: str
    fields: tuple[str, ...]  # the fields it takes, in the order of its flags
    required: tuple[str, ...]
    run: Callable[[JobConfig, SolveConfig], dict]
    columns: tuple[str, ...]  # its CSV header
    rows: Callable[[dict], list[dict]]  # its CSV rows, keyed by column


_BUG_FIELDS = ("n", "d", "i", "p", "q", "r")
# The job commands. build_parser, job_from_dict, run_job and render_csv all
# read this table, so the fields and the CSV shape of a command are declared
# here and nowhere else.
_COMMANDS = {
    "spectrum": _Command("full spectrum of one bug at one alpha",
                         (*_BUG_FIELDS, "alpha", "method", "timings"), ("alpha",), _cmd_spectrum,
                         ("value", "multiplicity", "source"), _spectrum_rows),
    "sweep": _Command("spectral radius over an alpha grid",
                      (*_BUG_FIELDS, "alphas"), ("alphas",), _cmd_sweep,
                      ("alpha", "rho", "closed_form", "closed_mult"), lambda p: p["rows"]),
    "scan": _Command("spectral radius across all path splits",
                     ("n", "d", "alpha"), ("n", "d", "alpha"), _cmd_scan,
                     ("i", "rho", "is_argmax"), lambda p: p["rows"]),
    "verify": _Command("run the structured-vs-dense check grid",
                       ("max_n", "alphas", "tol"), (), _cmd_verify,
                       ("instances", "checks_run", "checks_passed", "checks_failed",
                        "worst_deviation", "ok"), lambda p: [p["summary"]]),
}


def run_job(cfg: JobConfig, solve: SolveConfig) -> tuple[dict, int]:
    """Execute one job; returns (payload, exit code)."""
    payload = _COMMANDS[cfg.command].run(cfg, solve)
    if cfg.command == "verify" and not payload["summary"]["ok"]:
        return payload, EXIT_VERIFY_FAILED
    return payload, EXIT_OK


# ---------------------------------------------------------------------------
# rendering


# 10**k for k = 0..22, each an exact double
_POW10 = 10.0 ** np.arange(23)
# From this length up, a list of floats is rounded as one array: below it,
# numpy's fixed cost per call exceeds the per-value f-strings it saves (at 13
# values 27 us against 10 us, at 50 values 30 us against 43 us; 2-core
# x86-64, numpy 2.4)
_ARRAY_MIN = 40


def _round12(values) -> list[float]:
    """float(f"{v:.12g}") of each value, with +-0 as 0.0, in one array pass.

    With k = 11 - floor(log10|x|) in 0..22, 10**k is exact and y = |x| * 10**k
    < 10**12 is one correctly rounded product, off by at most 2**-14. So
    where y lies more than 1e-3 from a half-integer and d = rint(y) has 12
    digits, d is the f-string's digits and d / 10**k, one correctly rounded
    division of exact operands, its value. Zeros, |x| >= 1e12, |x| below
    about 1e-11, non-finite values and near-ties take the f-string."""
    x = np.asarray(values, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 11.0 - np.floor(np.log10(np.abs(x)))
        fast = (k >= 0.0) & (k <= 22.0)
        scale = _POW10[np.where(fast, k, 0.0).astype(np.intp)]
        y = np.abs(x) * scale
        d = np.rint(y)
        fast &= (d >= 1e11) & (d < 1e12) & (np.abs(y - np.floor(y) - 0.5) > 1e-3)
    rounded = np.copysign(d / scale, x).tolist()
    for j in np.flatnonzero(~fast).tolist():
        v = float(x[j])
        rounded[j] = float(f"{v:.12g}") if v else 0.0
    return rounded


def _jsonable(obj, held: list | None = None):
    """Deep-copy a payload into JSON with 12-digit floats. A payload holds
    only dict, list, str, int, float, bool and None; -0.0 prints as 0.0.
    Given held, each long float list is rounded onto held and the string
    "\\x00" stands in for it."""
    if isinstance(obj, dict):
        return {k: _jsonable(v, held) for k, v in obj.items()}
    if isinstance(obj, list):
        if len(obj) >= _ARRAY_MIN and set(map(type, obj)) == {float}:
            if held is None:
                return _round12(obj)
            held.append(_round12(obj))
            return "\x00"
        return [_jsonable(v, held) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if obj else 0.0
    return obj


# json's text for the string "\x00", which stands in for a long float list
_HELD = '"\\u0000"'


def render_json(payload: dict) -> str:
    """json.dumps(_jsonable(payload), indent=2) + "\\n". json's indenting
    encoder writes one float at a time, so _jsonable holds each long float
    list back behind a stand-in string, and its rounded values are joined
    into the text after."""
    held = []
    pieces = json.dumps(_jsonable(payload, held), indent=2).split(_HELD)
    if len(pieces) != len(held) + 1:  # the payload holds the stand-in itself
        return json.dumps(_jsonable(payload), indent=2) + "\n"
    out = [pieces[0]]
    for values, before, after in zip(held, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        pad = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        text = ("," + pad + "  ").join(map(float.__repr__, values))
        if "n" in text:  # json writes nan and inf as NaN and Infinity
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        out += ("[", pad, "  ", text, pad, "]", after)
    out.append("\n")
    return "".join(out)


def _fmt_num(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    # +-0 prints as 0, as in JSON
    return f"{x:.12g}" if x else "0"


def render_csv(command: str, payload: dict) -> str:
    spec = _COMMANDS[command]
    lines = [",".join(spec.columns)]
    lines.extend(",".join(_fmt_num(row[key]) for key in spec.columns)
                 for row in spec.rows(payload))
    return "\n".join(lines) + "\n"


def render(cfg: JobConfig, payload: dict) -> str:
    if cfg.fmt == "json":
        return render_json(payload)
    return render_csv(cfg.command, payload)


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it.

    Building it costs about a millisecond, a large share of a small job.
    Sharing it is safe: each parse_args call fills a fresh namespace, and
    every default lives in JobConfig, not in the parser.
    """
    parser = argparse.ArgumentParser(
        prog="alphabug",
        description="Spectra of A_alpha matrices of bug graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # allow_abbrev=False: `sweep --alpha` must not read as --alphas
    for name, command in _COMMANDS.items():
        job = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for field in command.fields:
            job.add_argument("--" + field.replace("_", "-"), **_FIELDS[field][1])
        job.add_argument("--format", choices=_FORMATS, default="json", dest="fmt")
        job.add_argument("--output", default=None, help="output path (default: stdout)")
    batch = sub.add_parser(
        "batch", help="run a JSON array of jobs, one result per line", allow_abbrev=False
    )
    batch.add_argument("source", nargs="?", default="-", help="jobs file (default: stdin)")
    batch.add_argument("--output", default=None)
    return parser


def _config_from_namespace(ns: argparse.Namespace) -> JobConfig:
    """The parsed flags as a job: the CLI and batch share one validator."""
    fields = {k: v for k, v in vars(ns).items() if k not in ("fmt", "output")}
    if fields.get("alphas") is not None:
        items = fields["alphas"].split(",")
        fields["alphas"] = [_list_item("alphas", s) for s in items if s.strip()]
    return replace(job_from_dict(fields), fmt=ns.fmt, output=ns.output)


def _list_item(key, text) -> float:
    """One item of a comma-separated flag as a finite float. The error
    names the field and echoes the item as given: "1e400" parses to inf."""
    try:
        return _check_real(f"'{key}'", float(text))
    except ValueError:
        raise ValueError(f"'{key}' must be a finite number, got {text!r}") from None


def _integer(key, value):
    # bool subclasses int, and 10.0 is not a JSON integer
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"'{key}' must be an integer, got {value!r}")
    return value


def _number(key, value) -> float:
    """A finite int or float, not a bool. json.loads also reads NaN and
    Infinity, which JSON does not have."""
    return _check_real(f"'{key}'", value)


def _alpha(key, value) -> float:
    return check_alpha(_number(key, value))


def _alpha_list(key, value) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"'{key}' must be a non-empty list of numbers, got {value!r}")
    return tuple(_alpha(key, v) for v in value)


def _boolean(key, value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"'{key}' must be a boolean, got {value!r}")
    return value


def _method(key, value) -> str:
    if value not in _METHODS:
        raise ValueError(f"'{key}' must be one of {_METHODS}, got {value!r}")
    return value


# Each field's check, which job_from_dict applies, and its flag, as argparse
# keywords. No flag has a default: an absent flag is None, like an absent
# batch field, and JobConfig holds the defaults.
_FIELDS = {
    "n": (_integer, {"type": int, "help": "order of the bug"}),
    "d": (_integer, {"type": int, "help": "diameter of the bug"}),
    "i": (_integer, {"type": int, "help": "path split (first path length)"}),
    "p": (_integer, {"type": int, "help": "clique order before edge removal"}),
    "q": (_integer, {"type": int, "help": "first attached path length"}),
    "r": (_integer, {"type": int, "help": "second attached path length"}),
    "alpha": (_alpha, {"type": float}),
    "method": (_method, {"metavar": "{" + ",".join(_METHODS) + "}"}),
    "timings": (_boolean, {
        "action": "store_true", "default": None,
        "help": "include wall-clock milliseconds (makes output non-reproducible)"}),
    "alphas": (_alpha_list, {"help": "comma-separated alphas in [0,1)"}),
    "max_n": (_integer, {"type": int}),
    "tol": (_number, {"type": float}),
}


def job_from_dict(raw: dict) -> JobConfig:
    """Validate one job: a batch entry, or the CLI's parsed flags.

    null counts as absent. Per-job format/output are rejected: batch
    results always go to the single newline-delimited JSON stream.
    """
    if not isinstance(raw, dict):
        raise ValueError("each batch entry must be a JSON object")
    fields = {k: v for k, v in raw.items() if v is not None}
    command = fields.pop("command", None)
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ValueError(f"command must be one of {tuple(_COMMANDS)}, got {command!r}")
    spec = _COMMANDS[command]
    extra = set(fields) - set(spec.fields)
    if extra & {"format", "output"}:
        raise ValueError("per-job 'format'/'output' are not allowed in batch mode")
    if extra:
        raise ValueError(f"{command} does not take {sorted(extra)}")
    fields = {k: _FIELDS[k][0](k, v) for k, v in fields.items()}
    missing = [k for k in spec.required if k not in fields]
    if missing:
        raise ValueError(f"{command} needs " + ", ".join(f"'{k}'" for k in missing))
    if "p" in spec.fields:  # the command takes a bug: n/d/i or p/q/r
        triple = (fields.pop(k, None) for k in _BUG_FIELDS)
        fields["bug"], fields["input_form"] = _resolve_bug(*triple)
    d = fields["bug"].d if "bug" in fields else fields.get("d", 0)
    if d > D_MAX:
        raise ValueError(f"{command} allows d <= {D_MAX}, got d={d}")
    return JobConfig(command, **fields)


def _run_batch(ns: argparse.Namespace, solve: SolveConfig) -> int:
    if ns.source == "-":
        text = sys.stdin.read()
    else:
        with open(ns.source, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        jobs = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested past the decoder's depth
        raise ValueError(f"batch input is not valid JSON: {exc}") from None
    if not isinstance(jobs, list):
        raise ValueError("batch input must be a JSON array of job objects")
    lines = []
    worst = EXIT_OK
    for job_id, raw in enumerate(jobs):
        result = None
        error = None
        try:
            cfg = job_from_dict(raw)
            result, code = run_job(cfg, solve)
            if code == EXIT_VERIFY_FAILED:
                error = "verification reported failing checks"
        except ValueError as exc:
            code, error = EXIT_USAGE, str(exc)
        except ConvergenceError as exc:
            code, error = EXIT_SOLVER, str(exc)
        except Exception as exc:
            # any other failure is this job's alone: the batch goes on
            code, error = EXIT_USAGE, f"{type(exc).__name__}: {exc}"
        if worst == EXIT_OK and code != EXIT_OK:
            worst = code
        line = {
            "job_id": job_id,
            "status": "ok" if code == EXIT_OK else "error",
            "exit_code": code,
            "result": result,
            "error": error,
        }
        lines.append(json.dumps(_jsonable(line), separators=(",", ":")))
    _write_output(ns.output, "".join(line + "\n" for line in lines))
    return worst


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        solve = config_from_env()
        if ns.command == "batch":
            return _run_batch(ns, solve)
        cfg = _config_from_namespace(ns)
        payload, code = run_job(cfg, solve)
        _write_output(cfg.output, render(cfg, payload))
        return code
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OverflowError, OSError) as exc:
        # OverflowError: an integer argument too large for a float;
        # OSError: an unreadable batch input or an unwritable --output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
