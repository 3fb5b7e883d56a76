"""Parse one job's captured output and compare it with the reference.

Every printed eigenvalue and spectral radius must lie within
``oracle.tolerance(rho)`` of the reference value. For ``scan`` each row's
rho is checked, and the flagged argmax must carry the largest rho within
that tolerance; which split "wins" is not checked, because splits whose rho
agree to the last bit are left to a tie-break rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import oracle

# the CLI's own structured-vs-dense comparison tolerance (`--method all`)
COMPARE_TOL = 1e-8


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Outcome:
    ok: bool
    max_abs_err: float
    emitted: int
    message: str = ""


class _Errors:
    """Running maximum of |printed - reference| over every compared value."""

    def __init__(self):
        self.worst = 0.0

    def close(self, what: str, got, want, tol: float) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            raise CheckFailed(f"{what}: {got.size} values, expected {want.size}")
        if got.size == 0:
            return
        if not np.all(np.isfinite(got)):
            raise CheckFailed(f"{what}: non-finite value printed")
        err = float(np.max(np.abs(got - want)))
        self.worst = max(self.worst, err)
        if err > tol:
            raise CheckFailed(f"{what}: off by {err:.3e}, tolerance {tol:.3e}")


def _spectrum_json(out: str) -> dict:
    payload = json.loads(out)
    closed = payload["closed_form"]
    return {
        "quotient": payload["quotient_eigenvalues"],
        "closed": None if closed is None else (closed["value"], closed["multiplicity"]),
        "rho": payload["rho"],
        "verification": payload["verification"],
    }


def _check_closed(errors: _Errors, closed, ref: dict, tol: float) -> None:
    if ref["closed_mult"] == 0:
        if closed is not None:
            raise CheckFailed("closed form printed for a bug without a clique")
        return
    if closed is None or closed[1] != ref["closed_mult"]:
        raise CheckFailed(f"closed form {closed!r}, expected multiplicity {ref['closed_mult']}")
    errors.close("closed form", closed[0], ref["closed_form"], tol)


def _check_spectrum(spec: dict, ref: dict, out: str, errors: _Errors) -> int:
    got = _spectrum_json(out)
    tol = oracle.tolerance(ref["rho"])
    quotient = np.sort(np.asarray(got["quotient"], dtype=float))
    _check_closed(errors, got["closed"], ref, tol)
    errors.close("rho", got["rho"], ref["rho"], tol)
    method = spec["method"]
    if method == "structured":
        errors.close("quotient eigenvalues", quotient, ref["quotient"], tol)
    elif method == "all":
        value, mult = got["closed"] if got["closed"] else (0.0, 0)
        merged = np.sort(np.concatenate([quotient, np.full(mult, value)]))
        errors.close("full spectrum", merged, ref["full"], tol)
        verification = got["verification"]
        if not verification["matched"] or verification["max_abs_deviation"] > COMPARE_TOL:
            raise CheckFailed(f"structured and dense disagree: {verification!r}")
    elif method == "halved":
        # the halved matrix's eigenvalues are a subset of the bug's spectrum
        # and its largest is the bug's rho
        full = ref["full"]
        nearest = full[np.argmin(np.abs(full[None, :] - quotient[:, None]), axis=1)]
        errors.close("halved eigenvalues", quotient, nearest, tol)
        errors.close("halved rho", quotient[-1], ref["rho"], tol)
    return quotient.size


def _check_radius(ref: dict, out: str, errors: _Errors) -> int:
    lines = [json.loads(line) for line in out.splitlines()]
    if len(lines) != 2:
        raise CheckFailed(f"batch printed {len(lines)} lines, expected 2")
    for job_id, line in enumerate(lines):
        if (line["job_id"], line["status"], line["exit_code"]) != (job_id, "ok", 0):
            raise CheckFailed(f"batch job {job_id} failed: {line['error']!r}")
    scan, sweep = lines[0]["result"], lines[1]["result"]

    want = np.asarray(ref["scan"])
    tol = oracle.tolerance(float(want.max()))
    rows = scan["rows"]
    if [row["i"] for row in rows] != list(range(1, want.size + 1)):
        raise CheckFailed("scan rows do not list every split once, in order")
    rhos = [row["rho"] for row in rows]
    errors.close("scan rho", rhos, want, tol)
    flagged = [row for row in rows if row["is_argmax"]]
    if len(flagged) != 1 or flagged[0]["i"] != scan["argmax_i"]:
        raise CheckFailed("scan must flag exactly the reported argmax_i")
    if flagged[0]["rho"] < float(want.max()) - tol:
        raise CheckFailed("scan argmax does not carry the largest rho")

    if len(sweep["rows"]) != len(ref["sweep"]):
        raise CheckFailed("sweep row count differs from the alpha grid")
    for row, want_row in zip(sweep["rows"], ref["sweep"]):
        tol = oracle.tolerance(want_row["rho"])
        errors.close("sweep alpha", row["alpha"], want_row["alpha"], 1e-12)
        errors.close("sweep rho", row["rho"], want_row["rho"], tol)
        errors.close("sweep min_quotient", row["min_quotient"], want_row["min_quotient"], tol)
        closed = None if row["closed_form"] is None else (row["closed_form"], row["closed_mult"])
        if closed is None and row["closed_mult"] != 0:
            raise CheckFailed("sweep row without closed form has a nonzero multiplicity")
        _check_closed(errors, closed, want_row, tol)
    return len(rows) + 2 * len(sweep["rows"])


def _check_verify(ref: dict, out: str) -> int:
    summary = json.loads(out)["summary"]
    expected = {"instances": ref["instances"], "checks_run": ref["checks"],
                "checks_failed": 0, "ok": True}
    got = {key: summary[key] for key in expected}
    if got != expected or summary["worst_deviation"] > COMPARE_TOL:
        raise CheckFailed(f"verify summary {summary!r}, expected {expected!r}")
    return 0


def check(spec: dict, ref: dict, exit_code, out: str) -> Outcome:
    """Judge one run of one job. A job fails on a nonzero or missing exit
    code, unparsable output, or a value outside the tolerance."""
    errors = _Errors()
    try:
        if exit_code != 0:
            raise CheckFailed(f"exit code {exit_code}")
        kind = spec["kind"]
        if kind == "spectrum":
            emitted = _check_spectrum(spec, ref, out, errors)
        elif kind == "radius":
            emitted = _check_radius(ref, out, errors)
        else:
            emitted = _check_verify(ref, out)
    except CheckFailed as exc:
        return Outcome(False, errors.worst, 0, str(exc))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(False, errors.worst, 0, f"unparsable output: {exc!r}")
    return Outcome(True, errors.worst, emitted)
