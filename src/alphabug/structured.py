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

from .eigensolve import SolveConfig, SymTridiag, _run_eigenvalues, _run_spectrum
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


def _bug_slots(n: int, d: int, i, alpha) -> tuple:
    """The quotient of B(n, d, i) at alpha as seven slots (diagonal entry,
    lead, rows), row 0 first: the only place that states its entries. The
    path's rows hold 2 alpha, joined by beta = 1 - alpha; the clique cell i
    holds 2 alpha + w - 1, joined to both neighbours by beta sqrt(w); a
    clique neighbour holds alpha (w + 1) inside the path and alpha w at its
    end, which overwrites that end's alpha. i and alpha are numbers or
    arrays that broadcast; a slot holds rows where its count is positive."""
    below, w, above, _ = _clique_counts(n, d)
    beta, two, end, beside = 1.0 - alpha, 2.0 * alpha, alpha * w, alpha * above
    side, left, inner = beta * math.sqrt(w), i > 1, i + 1 < d
    return (
        (np.where(left, alpha, end), 0.0, 1),  # row 0
        (two, beta, (i - 2) * left),  # rows 1 .. i - 2
        (beside, beta, left),  # row i - 1
        (two + below, side, 1),  # row i
        (np.where(inner, beside, end), side, 1),  # row i + 1
        (two, beta, (d - i - 2) * inner),  # rows i + 2 .. d - 1
        (alpha, beta, inner),  # row d
    )


def _pack(slots: tuple, lanes: int) -> tuple:
    """The runs (diag, lead, reps, first) that eigensolve's lane solve
    reads (_lane_runs) of lanes lanes given as slots: each slot one run,
    dropped where it holds no row, the runs of every lane back to back and
    first the run each lane starts at. No object is made per lane."""
    diag, lead = np.empty((lanes, len(slots))), np.empty((lanes, len(slots)))
    reps = np.empty((lanes, len(slots)), dtype=np.intp)
    for slot, (a, b, k) in enumerate(slots):
        diag[:, slot], lead[:, slot], reps[:, slot] = a, b, k
    keep = reps > 0
    first = np.zeros(lanes, dtype=np.intp)
    np.cumsum(keep[:-1].sum(axis=1), out=first[1:])
    return diag[keep], lead[keep], reps[keep], first


def _bug_runs(n: int, d: int, splits, alphas) -> tuple:
    """The quotients of the bugs B(n, d, i) at alpha, one lane for each
    (i, alpha) of splits and alphas broadcast together, as runs (_pack)
    of all seven slots. The caller checks the splits and alphas."""
    i, alpha = np.asarray(splits), np.asarray(alphas, dtype=float)
    # [()] makes a 0-d array a scalar, whose arithmetic costs less
    return _pack(_bug_slots(n, d, i[()], alpha[()]), np.broadcast(i, alpha).size)


def bug_tridiagonal(b: BugSpec, alpha) -> SymTridiag:
    """Order d+1 tridiagonal carrying the simple part of the bug spectrum:
    one lane of _bug_runs. The tests check it entrywise against the
    symmetrized quotient of the cell partition built from the edge list."""
    return SymTridiag._from_runs(*_bug_runs(b.n, b.d, b.i, check_alpha(alpha))[:3])


def bug_spectrum(b: BugSpec, alpha, config: SolveConfig | None = None) -> Spectrum:
    """Complete A_alpha spectrum of a bug.

    The closed-form eigenvalue (n-d+2)*alpha - 1 enters with multiplicity
    n-d-1 (absent when the middle clique is a single vertex); the remaining
    d+1 eigenvalues are the simple spectrum of the tridiagonal quotient.
    """
    alpha = check_alpha(alpha)
    values = _run_spectrum(_bug_runs(b.n, b.d, b.i, alpha), b.d + 1, config)[0]
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


def _halving_slots(n: int, d: int, alphas) -> tuple[tuple, int]:
    """The halved matrices of the balanced bug B(n, d, d/2) at alphas as
    slots, and their count: slots 0-3 of its quotient, whose row d/2 is
    joined by beta sqrt(2 w) instead. The first three slots are the inner
    blocks of proof_decomposition. The caller checks n, d and alphas."""
    alpha = np.asarray(alphas, dtype=float)
    head = _bug_slots(n, d, d // 2, alpha[()])[:4]
    fold = (1.0 - alpha[()]) * math.sqrt(2.0 * _clique_counts(n, d)[1])
    return (*head[:3], (head[3][0], fold, 1)), alpha.size


def halved_tridiagonal(n, d, alpha) -> SymTridiag:
    """Order d/2+1 tridiagonal of the balanced bug (i = d/2, d even), the
    part of its quotient that is symmetric under the bug's reflection.

    The quotient is orthogonally similar to this matrix plus the inner
    block of proof_decomposition, so all d/2+1 eigenvalues belong to the
    bug's spectrum, and the largest is rho_alpha.
    """
    d = _check_int("d", d)
    return proof_decomposition(BugSpec(n, d, d // 2), alpha)[0]


def proof_decomposition(b: BugSpec, alpha) -> tuple[SymTridiag, SymTridiag]:
    """Split the balanced bug's quotient into the halved (bordered) matrix
    and its inner block S, the quotient's first d/2 rows.

    The order-(d+1) quotient is orthogonally similar to the direct sum of
    the bordered matrix (= halved_tridiagonal) and S, so their spectra
    union to the quotient's, and the eigenvalues of S strictly interlace
    the bordered ones.
    """
    if not _halvable(b.d, b.i):
        raise ValueError("halving applies to balanced bugs (i = d/2) of even diameter >= 4, "
                         f"got d={b.d}, i={b.i}")
    slots, _ = _halving_slots(b.n, b.d, check_alpha(alpha))
    return tuple(SymTridiag._from_runs(*_pack(part, 1)[:3]) for part in (slots, slots[:3]))


def spectral_radius(b: BugSpec, alpha, config: SolveConfig | None = None) -> float:
    """Largest A_alpha eigenvalue of the bug.

    Always attained in the quotient part: the diagonal entry for the
    clique cell already exceeds the closed-form eigenvalue by
    (n-d)(1-alpha) > 0. Only that eigenvalue (index d+1 of the quotient)
    is solved: below order 64 by certified Laguerre steps, to a 4-ulp
    bracket, and from 64 up by bisection. The value is bit-identical to
    the top of the full quotient spectrum.
    """
    runs = _bug_runs(b.n, b.d, b.i, check_alpha(alpha))
    return float(_run_eigenvalues(runs, b.d + 1, np.array([b.d + 1]), config)[0, 0])
