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

import numpy as np

from .eigensolve import SolveConfig, SymTridiag, lane_eigenvalues, tridiag_eigenvalues
from .graphs import BugSpec, _check_int, check_alpha
from .spectrum import CLOSED_FORM, QUOTIENT, Spectrum, SpectrumEntry


def _clique_counts(n: int, d: int) -> tuple[float, float, float, float]:
    """w - 1, w, w + 1 and w + 2 as floats, for the clique order w = n - d:
    the counts that the quotient's and the closed form's entries are made
    of. Where they do not fit a float, a ValueError names n."""
    w = n - d
    try:
        return float(w - 1), float(w), float(w + 1), float(w + 2)
    except OverflowError:
        raise ValueError(
            f"n is too large: n - d + 2 must fit a float (at most {np.finfo(float).max:.4g})"
        ) from None


def _cells(n: int, d: int, alpha):
    """The entries of the bug quotient at (n, d) other than the path's 2
    alpha on the diagonal: beta = 1 - alpha, the path's lead; alpha w for a
    clique neighbour that ends the path and alpha (w + 1) for one inside
    it; 2 alpha + w - 1 for the clique cell; beta sqrt(w), the clique
    cell's two leads. alpha is a float or an array of them."""
    below, w, above, _ = _clique_counts(n, d)
    beta = 1.0 - alpha
    return beta, alpha * w, alpha * above, 2.0 * alpha + below, beta * math.sqrt(w)


def bug_tridiagonal(b: BugSpec, alpha) -> SymTridiag:
    """Order d+1 tridiagonal carrying the simple part of the bug spectrum.

    Built from (n, d, i) by SymTridiag.path; the tests check it entrywise
    against the symmetrized quotient of the cell partition built from the
    edge list. Cells i-1, i, i+1 (0-based) are the deleted-edge endpoints
    around the middle clique; endpoints that coincide with a path end lose
    one neighbor cell, hence their alpha*w (_cells). _bug_runs builds the
    same rows for many splits or alphas at once.
    """
    alpha = check_alpha(alpha)
    d, i = b.d, b.i
    beta, end, beside, clique, side = _cells(b.n, d, alpha)
    # a neighbour of the clique at a path end overwrites that end's alpha
    cells = {0: alpha, d: alpha, i - 1: beside if i > 1 else end,
             i + 1: beside if i + 1 < d else end, i: clique}
    return SymTridiag.path(d + 1, 2.0 * alpha, beta, cells, {i: side, i + 1: side})


def _bug_runs(n: int, d: int, splits, alphas) -> tuple:
    """The quotients of the bugs B(n, d, i) at alpha, one lane for each
    (i, alpha) of splits and alphas broadcast together, as the runs
    (diag, lead, reps, first) that eigensolve's lane solve reads
    (_lane_runs): the runs of every lane back to back, and the run each
    starts at. A lane's runs are bug_tridiagonal's, bit for bit: seven
    slots, each dropped where it holds no row. No object is made per lane.
    The caller checks the splits and alphas."""
    i, alpha = np.asarray(splits), np.asarray(alphas, dtype=float)
    beta, end, beside, clique, side = _cells(n, d, alpha)
    two = 2.0 * alpha
    inner = i + 1 < d
    slots = (  # (diagonal entry, lead, rows) of
        (np.where(i > 1, alpha, end), 0.0, 1),  # row 0
        (two, beta, np.maximum(i - 2, 0)),  # rows 1 .. i - 2
        (beside, beta, i > 1),  # row i - 1
        (clique, side, 1),  # row i
        (np.where(inner, beside, end), side, 1),  # row i + 1
        (two, beta, np.maximum(d - i - 2, 0)),  # rows i + 2 .. d - 1
        (alpha, beta, inner),  # row d
    )
    lanes = np.broadcast(i, alpha).size
    diag, lead = np.empty((lanes, 7)), np.empty((lanes, 7))
    reps = np.empty((lanes, 7), dtype=np.intp)
    for slot, (a, b, k) in enumerate(slots):
        diag[:, slot], lead[:, slot], reps[:, slot] = a, b, k
    keep = reps > 0
    first = np.zeros(lanes, dtype=np.intp)
    np.cumsum(np.count_nonzero(keep[:-1], axis=1), out=first[1:])
    return diag[keep], lead[keep], reps[keep], first


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
    """The closed-form eigenvalue (n-d+2)*alpha - 1 and its multiplicity n-d-1.
    Where n - d + 2 does not fit a float, a ValueError names n."""
    return _clique_counts(b.n, b.d)[3] * alpha - 1.0, b.n - b.d - 1


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
    below, w, above, _ = _clique_counts(n, d)
    half = d // 2 + 1
    cells = {0: alpha, half - 2: alpha * above, half - 1: 2.0 * alpha + below}
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
    cells = {0: alpha, half - 1: alpha * _clique_counts(b.n, b.d)[2]}
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
