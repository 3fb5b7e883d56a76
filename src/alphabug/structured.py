"""Structured spectral reductions for bugs.

The bug's vertices fall into d+1 cells along its longest path: one vertex
per path cell and the middle clique K_{n-d} as one cell. That partition is
equitable, so the full A_alpha spectrum splits into a closed-form
eigenvalue carried by the clique plus the spectrum of the symmetrized
quotient, a tridiagonal of order d+1. For the balanced bug (i = d/2)
reflection symmetry halves it once more.
"""

from __future__ import annotations

import math

from .eigensolve import SolveConfig, SymTridiag, lane_eigenvalues, tridiag_eigenvalues
from .graphs import BugSpec, _check_int, check_alpha
from .spectrum import CLOSED_FORM, QUOTIENT, Spectrum, SpectrumEntry


def bug_tridiagonal(b: BugSpec, alpha) -> SymTridiag:
    """Order d+1 tridiagonal carrying the simple part of the bug spectrum.

    Built from (n, d, i) by SymTridiag.path; the tests check it entrywise
    against the symmetrized quotient of the cell partition built from the
    edge list. Cells i-1, i, i+1 (0-based) are the deleted-edge endpoints
    around the middle clique; endpoints that coincide with a path end lose
    one neighbor cell, hence the alpha*w corrections below.
    """
    alpha = check_alpha(alpha)
    beta = 1.0 - alpha
    d, i = b.d, b.i
    w = b.clique_order
    cells = {0: alpha, d: alpha}
    cells[i - 1] = alpha * (w + 1) if i - 1 > 0 else alpha * w
    cells[i + 1] = alpha * (w + 1) if i + 1 < d else alpha * w
    cells[i] = 2.0 * alpha + (w - 1)
    side = beta * math.sqrt(w)
    return SymTridiag.path(d + 1, 2.0 * alpha, beta, cells, {i: side, i + 1: side})


def bug_spectrum(b: BugSpec, alpha, config: SolveConfig | None = None) -> Spectrum:
    """Complete A_alpha spectrum of a bug.

    The closed-form eigenvalue (n-d+2)*alpha - 1 enters with multiplicity
    n-d-1 (absent when the middle clique is a single vertex); the remaining
    d+1 eigenvalues are the simple spectrum of the tridiagonal quotient.
    """
    alpha = check_alpha(alpha)
    values = tridiag_eigenvalues(bug_tridiagonal(b, alpha), config)
    return _spectrum_from_quotient(b, alpha, values)


def closed_form(b: BugSpec, alpha: float) -> tuple[float, int]:
    """The closed-form eigenvalue (n-d+2)*alpha - 1 and its multiplicity n-d-1."""
    return (b.n - b.d + 2) * alpha - 1.0, b.n - b.d - 1


def _spectrum_from_quotient(b: BugSpec, alpha: float, values) -> Spectrum:
    """The bug's spectrum from already solved quotient eigenvalues."""
    entries = [SpectrumEntry(float(v), 1, QUOTIENT) for v in values]
    value, multiplicity = closed_form(b, alpha)
    if multiplicity >= 1:
        entries.append(SpectrumEntry(value, multiplicity, CLOSED_FORM))
    spectrum = Spectrum.from_entries(entries)
    assert spectrum.order == b.n
    return spectrum


def _halvable(d: int, i: int) -> bool:
    """The halving rule: d even, d >= 4 and the balanced split i = d/2."""
    return d % 2 == 0 and d >= 4 and i == d // 2


def halved_tridiagonal(n, d, alpha) -> SymTridiag:
    """Order d/2+1 tridiagonal of the balanced bug (i = d/2, d even), the
    part of its quotient that is symmetric under the bug's reflection.

    The quotient is orthogonally similar to this matrix plus the inner
    block of proof_decomposition, so all d/2+1 eigenvalues belong to the
    bug's spectrum, and the largest is rho_alpha.
    """
    n, d = _check_int("n", n), _check_int("d", d)
    alpha = check_alpha(alpha)
    if not _halvable(d, d // 2):
        raise ValueError(f"halving requires an even diameter >= 4, got d={d}")
    if n < d + 1:
        raise ValueError(f"order n={n} too small for diameter d={d} (need n >= d+1)")
    beta = 1.0 - alpha
    w = n - d
    half = d // 2 + 1
    cells = {0: alpha, half - 2: alpha * (w + 1), half - 1: 2.0 * alpha + (w - 1)}
    return SymTridiag.path(half, 2.0 * alpha, beta, cells, {half - 1: beta * math.sqrt(2.0 * w)})


def proof_decomposition(b: BugSpec, alpha) -> tuple[SymTridiag, SymTridiag]:
    """Split the balanced bug's quotient into the halved (bordered) matrix
    and its inner block S.

    The order-(d+1) quotient is orthogonally similar to the direct sum of
    the bordered matrix (= halved_tridiagonal) and S, so their spectra
    union to the quotient's, and the eigenvalues of S strictly interlace
    the bordered ones.
    """
    alpha = check_alpha(alpha)
    if not _halvable(b.d, b.d // 2):
        raise ValueError(f"decomposition requires an even diameter >= 4, got d={b.d}")
    if not _halvable(b.d, b.i):
        raise ValueError(f"decomposition applies to balanced bugs (i = d/2), got i={b.i}")
    half = b.d // 2
    cells = {0: alpha, half - 1: alpha * (b.clique_order + 1)}
    inner = SymTridiag.path(half, 2.0 * alpha, 1.0 - alpha, cells, {})
    return halved_tridiagonal(b.n, b.d, alpha), inner


def spectral_radius(b: BugSpec, alpha, config: SolveConfig | None = None) -> float:
    """Largest A_alpha eigenvalue of the bug.

    Always attained in the quotient part: the diagonal entry for the
    clique cell already exceeds the closed-form eigenvalue by
    (n-d)(1-alpha) > 0. Only that eigenvalue (index d+1 of the quotient)
    is bisected; the value is bit-identical to the top of the full
    quotient spectrum.
    """
    values = lane_eigenvalues([bug_tridiagonal(b, alpha)], [b.d + 1], config)
    return float(values[0, 0])
