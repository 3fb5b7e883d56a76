"""Cross-checks between the structured spectra and the dense oracle.

Everything checkable gets a check: multiset equality of the two spectrum
routes, the halving decomposition and its strict interlacing, closed-form
cluster multiplicities, and the extremal scan over the path split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolve import SolveConfig, jacobi_eigenvalues, lane_eigenvalues
from .graphs import BugSpec, _check_int, _check_positive, assemble_dense_alpha, check_alpha
from .spectrum import Spectrum
from .structured import (_halvable, _spectrum_from_quotient, bug_tridiagonal, closed_form,
                         proof_decomposition)

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

    The d//2 quotients share the order d+1, so their top eigenvalues are
    bisected together as lanes of one lane_eigenvalues call; each rho is
    bit-identical to spectral_radius of its split. Ties on rho go to the
    larger i, so the balanced bug wins when splits coincide (as they do
    when the middle clique collapses).
    """
    n, d = _check_int("n", n), _check_int("d", d)
    check_alpha(alpha)
    if d < 2:
        raise ValueError(f"diameter must be >= 2, got {d}")
    if n < d + 2:
        raise ValueError(f"scan needs n >= d+2 so the splits differ, got n={n}, d={d}")
    lanes = [bug_tridiagonal(BugSpec(n, d, i), alpha) for i in range(1, d // 2 + 1)]
    rhos = lane_eigenvalues(lanes, [d + 1], config)[:, 0].tolist()
    best = max(range(len(rhos)), key=lambda j: (rhos[j], j))
    return [ScanRow(j + 1, rho, j == best) for j, rho in enumerate(rhos)]


def _full_spectra(lanes, config: SolveConfig | None) -> list[np.ndarray]:
    """The ascending spectrum of each tridiagonal, solved as one
    lane_eigenvalues call per order. A lane's values depend only on its
    own entries, so each equals tridiag_eigenvalues of that tridiagonal
    bit for bit."""
    by_order: dict[int, list[int]] = {}
    for k, t in enumerate(lanes):
        by_order.setdefault(t.order, []).append(k)
    spectra: list[np.ndarray] = [None] * len(lanes)
    for m, members in by_order.items():
        values = lane_eigenvalues([lanes[k] for k in members], np.arange(1, m + 1), config)
        for k, row in zip(members, np.sort(values, axis=1)):
            spectra[k] = row
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

    Every quotient spectrum is solved before the checks run, as one
    lane_eigenvalues call per order (_full_spectra); the values are those
    of solving each quotient alone. At most MAX_FAILURES_LISTED failure
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
    # (bug, alpha, halving) in the order the checks run: each bug's grid
    # alphas, then, for a balanced bug of even diameter >= 4, its halving
    # alphas
    plan = []
    for b in enumerate_bugs(max_n):
        plan.extend((b, alpha, False) for alpha in alphas)
        if _halvable(b.d, b.i):
            plan.extend((b, alpha, True) for alpha in HALVING_ALPHAS)
    lanes = []
    for b, alpha, halving in plan:
        if halving:
            lanes.extend(proof_decomposition(b, alpha))
        lanes.append(bug_tridiagonal(b, alpha))
    spectra = iter(_full_spectra(lanes, config))

    checks = []  # (passed, deviation, failure message), in the order run
    for b, alpha, halving in plan:
        if not halving:
            structured = _spectrum_from_quotient(b, alpha, next(spectra))
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
            continue
        outer_vals, inner_vals, full_vals = next(spectra), next(spectra), next(spectra)
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
        instances=sum(not halving for _, _, halving in plan),
        checks_run=len(checks),
        checks_passed=len(checks) - len(failures),
        worst_deviation=max((deviation for _, deviation, _ in checks), default=0.0),
        failures=tuple(failures[:MAX_FAILURES_LISTED]),
        failures_dropped=max(0, len(failures) - MAX_FAILURES_LISTED),
    )
