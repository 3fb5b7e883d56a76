"""Cross-checks between the structured spectra and the dense oracle.

Everything checkable gets a check: multiset equality of the two spectrum
routes, the halving decomposition and its strict interlacing, closed-form
cluster multiplicities, and the extremal scan over the path split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolve import SolveConfig, _run_spectrum, jacobi_eigenvalues
from .graphs import BugSpec, _check_int, _check_positive, assemble_dense_alpha, check_alpha
from .spectrum import Spectrum
from .structured import (_bug_lanes, _bug_runs, _halvable, _halving_slots, _pack, _slot_values,
                         _spectrum_from_quotient, closed_form)

DEFAULT_ALPHAS = (0.0, 0.25, 0.5, 0.75, 0.99)
HALVING_ALPHAS = (0.0, 0.3, 0.7)
CLUSTER_RADIUS = 1e-7
# run_verification lists at most this many failures and counts the rest.
MAX_FAILURES_LISTED = 50
# Largest max_n run_verification accepts. Every grid bug goes through the
# dense Jacobi solve, which runs in Python: on the default alpha grid
# `alphabug verify` took 0.8 s at max_n = 12 and 2.8 s at max_n = 16, whole
# process, median of 5 (2-core x86-64, Python 3.11, numpy 2.4).
VERIFY_MAX_N = 16


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of pairing a structured spectrum against dense eigenvalues."""

    matched: bool
    max_abs_deviation: float
    pairing: tuple[tuple[float, float], ...]
    multiplicity_diagnostics: str


@dataclass(frozen=True)
class ScanRow:
    i: int
    rho: float
    is_argmax: bool


def cluster_multiplicity(values, center: float, radius: float = CLUSTER_RADIUS) -> int:
    """How many of the given eigenvalues lie within radius of center."""
    arr = np.asarray(values, dtype=float)
    return int(np.count_nonzero(np.abs(arr - center) <= radius))


def compare_spectra(structured: Spectrum, dense, tol: float) -> ComparisonReport:
    """L-infinity comparison of two complete spectra of the same graph.

    The structured side is expanded by multiplicity and paired positionally
    with the sorted dense values -- the correct multiset metric, since both
    lists carry the full spectrum.
    """
    dense = np.sort(np.asarray(dense, dtype=float).reshape(-1))
    expanded = structured.expand()
    if expanded.size != dense.size:
        raise ValueError(
            f"cardinality mismatch: structured spectrum carries {expanded.size} "
            f"eigenvalues, dense carries {dense.size}"
        )
    deviation = float(np.max(np.abs(expanded - dense)))
    notes = []
    for e in structured.entries:
        if e.multiplicity > 1:
            found = cluster_multiplicity(dense, e.value)
            notes.append(
                f"{e.source} value {e.value:.12g} expects multiplicity "
                f"{e.multiplicity}, dense cluster holds {found}"
            )
    diagnostics = "; ".join(notes) if notes else "all structured entries simple"
    pairing = tuple(zip(expanded.tolist(), dense.tolist()))
    return ComparisonReport(deviation <= tol, deviation, pairing, diagnostics)


def check_interlacing(inner, outer, strict_margin: float = 1e-10) -> bool:
    """True iff the inner eigenvalues strictly interlace the outer ones,
    with room to spare: outer_k + margin < inner_k < outer_{k+1} - margin."""
    inner = np.sort(np.asarray(inner, dtype=float).reshape(-1))
    outer = np.sort(np.asarray(outer, dtype=float).reshape(-1))
    if outer.size != inner.size + 1:
        raise ValueError(
            f"outer spectrum must have exactly one more eigenvalue than inner "
            f"(got {outer.size} and {inner.size})"
        )
    below = np.all(outer[:-1] + strict_margin < inner)
    above = np.all(inner < outer[1:] - strict_margin)
    return bool(below and above)


def extremal_scan(n, d, alpha, config: SolveConfig | None = None) -> list[ScanRow]:
    """Spectral radius across every canonical split i = 1..d//2.

    The d//2 quotients share the order d+1, so they are built as one set
    of runs (_bug_runs) and their top eigenvalues solved together as lanes
    of one call: below order 64 by certified Laguerre steps, from 64 up by
    bisection. Each rho is bit-identical to spectral_radius of its split.
    Ties on rho go to the larger i, so the balanced bug wins when splits
    coincide (as they do when the middle clique collapses).
    """
    n, d = _check_int("n", n), _check_int("d", d)
    alpha = check_alpha(alpha)
    if d < 2:
        raise ValueError(f"diameter must be >= 2, got {d}")
    if n < d + 2:
        raise ValueError(f"scan needs n >= d+2 so the splits differ, got n={n}, d={d}")
    lanes = _bug_lanes(n, d, np.arange(1, d // 2 + 1), alpha)
    rhos = [rho for rho, in _slot_values(*lanes, d + 1, [d + 1], config)]
    best = max(range(len(rhos)), key=lambda j: (rhos[j], j))
    return [ScanRow(j + 1, rho, j == best) for j, rho in enumerate(rhos)]


def _full_spectra(sets, config: SolveConfig | None) -> list[list[np.ndarray]]:
    """The ascending spectra of the lanes of each (order, runs) set, one
    array a lane, solved as one _run_spectrum call per order. A lane's
    values depend only on its own entries, so each array equals
    tridiag_eigenvalues of that lane bit for bit."""
    spectra: list[list[np.ndarray]] = [None] * len(sets)
    for m in sorted({m for m, _ in sets}):
        members = [k for k, (order, _) in enumerate(sets) if order == m]
        parts = [sets[k][1] for k in members]
        # the sets' runs back to back, each set's first moved past the runs before it
        shift = np.cumsum([0] + [part[0].size for part in parts[:-1]])
        runs = (*(np.concatenate(column) for column in list(zip(*parts))[:3]),
                np.concatenate([part[3] + at for part, at in zip(parts, shift)]))
        values = iter(_run_spectrum(runs, m, config))
        for k, part in zip(members, parts):
            spectra[k] = [next(values) for _ in part[3]]
    return spectra


def enumerate_bugs(max_n: int):
    """Every canonical BugSpec with order up to max_n, smallest first.

    max_n must be an integer (not a bool); anything else raises ValueError
    at the call, before the first bug is drawn."""
    max_n = _check_int("max_n", max_n)
    return (
        BugSpec(n, d, i)
        for n in range(3, max_n + 1)
        for d in range(2, n)
        for i in range(1, d // 2 + 1)
    )


@dataclass(frozen=True)
class VerificationSummary:
    instances: int
    checks_run: int
    checks_passed: int
    worst_deviation: float
    failures: tuple[str, ...]
    failures_dropped: int = 0

    @property
    def checks_failed(self) -> int:
        return self.checks_run - self.checks_passed

    @property
    def ok(self) -> bool:
        return self.checks_failed == 0


def run_verification(
    max_n: int = 12,
    alphas=DEFAULT_ALPHAS,
    tol: float = 1e-8,
    config: SolveConfig | None = None,
) -> VerificationSummary:
    """Run the oracle-equivalence grid plus the decomposition checks.

    Per (bug, alpha) pair on the main grid: structured-vs-Jacobi multiset
    equality, and the closed-form cluster count in the dense output against
    the count the structured spectrum itself predicts at the same radius
    (quotient eigenvalues may legitimately coincide with the closed-form
    value at special alphas, so the honest expectation comes from the full
    structured multiset, not from n-d-1 alone).

    Balanced bugs of even diameter >= 4 additionally get the halving checks
    -- spectrum union, strict interlacing, radius agreement -- on their own
    moderate alpha grid (HALVING_ALPHAS). The margin-strict interlacing
    test only makes sense there: as alpha approaches 1 the splitting
    between the symmetric and antisymmetric end-localized eigenpair decays
    exponentially in the path length, so the genuine gap drops below any
    fixed noise margin even though strict interlacing still holds exactly.

    Every quotient spectrum is built as runs and solved before the checks
    run, one lane solve per order (_full_spectra); the values are those of
    solving each quotient alone. At most MAX_FAILURES_LISTED failure
    messages are kept, and failures_dropped counts the rest.

    max_n may not exceed VERIFY_MAX_N, and tol must be positive and finite;
    both are checked before any matrix is assembled.
    """
    max_n = _check_int("max_n", max_n)
    if not 3 <= max_n <= VERIFY_MAX_N:
        raise ValueError(f"max_n must lie in 3..{VERIFY_MAX_N}, got {max_n}")
    alphas = tuple(check_alpha(a) for a in alphas)
    if not alphas:
        raise ValueError("alpha grid must be non-empty")
    tol = _check_positive("tolerance", tol)
    # (order, runs) sets in the order the checks read them: a bug's
    # quotients at its grid and halving alphas, then its halved matrices and
    # their inner blocks at the halving alphas
    bugs, sets = list(enumerate_bugs(max_n)), []
    for b in bugs:
        halving = HALVING_ALPHAS if _halvable(b.d, b.i) else ()
        sets.append((b.d + 1, _bug_runs(b.n, b.d, b.i, alphas + halving)))
        if halving:
            slots, lanes = _halving_slots(b.n, b.d, halving)
            sets += [(b.d // 2 + 1, _pack(slots, lanes)), (b.d // 2, _pack(slots[:3], lanes))]
    spectra = iter(_full_spectra(sets, config))

    checks = []  # (passed, deviation, failure message), in the order run
    for b in bugs:
        quotients = next(spectra)
        for alpha, values in zip(alphas, quotients):
            structured = _spectrum_from_quotient(b, alpha, values)
            dense = jacobi_eigenvalues(assemble_dense_alpha(b, alpha), config)
            report = compare_spectra(structured, dense, tol)
            checks.append((report.matched, report.max_abs_deviation,
                           f"spectrum mismatch for n={b.n} d={b.d} i={b.i} alpha={alpha}: "
                           f"deviation {report.max_abs_deviation:.3e}"))
            closed, multiplicity = closed_form(b, alpha)
            if multiplicity >= 1:
                expected = cluster_multiplicity(structured.expand(), closed)
                found = cluster_multiplicity(dense, closed)
                checks.append((found == expected, 0.0,
                               f"closed-form cluster for n={b.n} d={b.d} i={b.i} "
                               f"alpha={alpha}: expected {expected}, found {found}"))
        if not _halvable(b.d, b.i):
            continue
        blocks = zip(HALVING_ALPHAS, next(spectra), next(spectra), quotients[len(alphas):])
        for alpha, outer_vals, inner_vals, full_vals in blocks:
            union = np.sort(np.concatenate([outer_vals, inner_vals]))
            deviation = float(np.max(np.abs(union - full_vals)))
            checks.append((deviation <= tol, deviation,
                           f"halving union for n={b.n} d={b.d} alpha={alpha}: "
                           f"deviation {deviation:.3e}"))
            checks.append((check_interlacing(inner_vals, outer_vals), 0.0,
                           f"interlacing failed for n={b.n} d={b.d} alpha={alpha}"))
            checks.append((abs(float(outer_vals[-1]) - float(full_vals[-1])) <= 1e-9, 0.0,
                           f"halved radius for n={b.n} d={b.d} alpha={alpha} "
                           f"drifts from the full quotient radius"))
    failures = [message for passed, _, message in checks if not passed]
    return VerificationSummary(
        instances=len(bugs) * len(alphas),
        checks_run=len(checks),
        checks_passed=len(checks) - len(failures),
        worst_deviation=max((deviation for _, deviation, _ in checks), default=0.0),
        failures=tuple(failures[:MAX_FAILURES_LISTED]),
        failures_dropped=max(0, len(failures) - MAX_FAILURES_LISTED),
    )
