"""Independent reference constructions used by the tests.

Everything here is built straight from first principles -- edge lists of
the graph definition and explicit degree/adjacency assembly -- so it
shares no code path with the package's dense assembly or its quotient.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def bug_edges(p: int, q: int, r: int) -> list[tuple[int, int]]:
    """Edge list of the bug graph built from its definition.

    Vertices 0..p-1 form a complete graph with the edge (0, 1) removed;
    a chain of q-1 extra vertices hangs off vertex 0 and a chain of r-1
    extra vertices hangs off vertex 1.
    """
    edges = [(a, b) for a in range(p) for b in range(a + 1, p) if (a, b) != (0, 1)]
    nxt = p
    for anchor, extra in ((0, q - 1), (1, r - 1)):
        prev = anchor
        for _ in range(extra):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return edges


def bug_cells(p: int, q: int, r: int) -> list[list[int]]:
    """The d+1 cells of the bug of bug_edges(p, q, r), in path order.

    One cell per vertex of the left path, from its free end to vertex 0,
    then the p-2 remaining clique vertices as one cell, then vertex 1 and
    the right path out to its free end.
    """
    left = [[x] for x in range(p + q - 2, p - 1, -1)]
    right = [[x] for x in range(p + q - 1, p + q + r - 2)]
    return left + [[0], list(range(2, p)), [1]] + right


def cell_quotient(n: int, edges, cells, alpha: float) -> np.ndarray:
    """Symmetrized quotient of alpha*D + (1-alpha)*A over an equitable
    partition.

    counts[j, k] is the number of neighbours every vertex of cell j has in
    cell k (a ValueError if the vertices of cell j disagree). Row j of the
    quotient is one vertex's A_alpha row summed over each cell:
    (1-alpha)*counts[j, k] off the diagonal, symmetrized to
    sqrt(B[j, k] * B[k, j]), and alpha*degree + (1-alpha)*counts[j, j] on
    it, evaluated as alpha*(degree - counts[j, j]) + counts[j, j].
    """
    a = adjacency(n, edges)
    k = len(cells)
    counts = np.zeros((k, k))
    for j, own in enumerate(cells):
        for m, other in enumerate(cells):
            per_vertex = a[np.ix_(own, other)].sum(axis=1)
            if np.any(per_vertex != per_vertex[0]):
                raise ValueError(f"cells {j} and {m} break equitability")
            counts[j, m] = per_vertex[0]
    inside = np.diag(counts).copy()
    weights = (1.0 - alpha) * counts
    quotient = np.sqrt(weights * weights.T)
    np.fill_diagonal(quotient, alpha * (counts.sum(axis=1) - inside) + inside)
    return quotient


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(j, j + 1) for j in range(n - 1)]


def complete_edges(m: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(m) for b in range(a + 1, m)]


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for x, y in edges:
        a[x, y] = a[y, x] = 1.0
    return a


def alpha_matrix(n: int, edges, alpha: float) -> np.ndarray:
    """alpha*D + (1-alpha)*A assembled directly from an edge list."""
    a = adjacency(n, edges)
    return alpha * np.diag(a.sum(axis=1)) + (1.0 - alpha) * a


def signless_laplacian(n: int, edges) -> np.ndarray:
    a = adjacency(n, edges)
    return np.diag(a.sum(axis=1)) + a


def exact_alpha_nullity(n: int, edges, alpha, value) -> int:
    """Exact multiplicity of value as an eigenvalue of alpha*D + (1-alpha)*A.

    alpha and value are taken as exact rationals (a float converts to the
    exact value it holds), A_alpha - value*I is assembled from the edge list
    in Fractions, and its nullity n - rank comes from Gaussian elimination
    without any rounding.
    """
    alpha, value = Fraction(alpha), Fraction(value)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for x, y in edges:
        rows[x][y] = rows[y][x] = 1 - alpha
        rows[x][x] += alpha
        rows[y][y] += alpha
    for j in range(n):
        rows[j][j] -= value
    rank = 0
    for col in range(n):
        pivot = next((k for k in range(rank, n) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for k in range(rank + 1, n):
            factor = rows[k][col] / top[col]
            if factor:
                rows[k] = [a - factor * b for a, b in zip(rows[k], top)]
        rank += 1
    return n - rank


def exact_inertia_bounds(diag, offdiag, x) -> tuple[int, int]:
    """(#(lambda < x), #(lambda <= x)) for a symmetric tridiagonal T, from
    the inertia of T - xI computed in Fractions (floats convert exactly).

    Block LDL^T without rounding: a nonzero pivot is a 1x1 block. A zero
    pivot with a nonzero off-diagonal below it forms the 2x2 block
    [[0, b], [b, *]], one negative and one positive eigenvalue, whose
    Schur complement leaves the row after it at a - x. A zero pivot with a
    zero off-diagonal below it (or in the last row) is a zero eigenvalue.
    """
    a = [Fraction(v) - Fraction(x) for v in diag]
    b = [Fraction(v) for v in offdiag]
    negative = zero = 0
    pivot = None  # None: the next row starts over at a - x
    j = 0
    while j < len(a):
        p = a[j] if pivot is None else a[j] - b[j - 1] ** 2 / pivot
        if p != 0:
            negative += p < 0
            pivot, j = p, j + 1
        elif j + 1 < len(a) and b[j] != 0:
            negative += 1
            pivot, j = None, j + 2
        else:
            zero += 1
            pivot, j = None, j + 1
    return negative, negative + zero


def _pivot_count(diag, off_sq, x: float) -> int:
    """Non-positive pivots of the shifted LDL^T recurrence, one row at a
    time. A zero pivot counts as negative and the next pivot is +inf; a
    squared off-diagonal of 0 enters as the smallest subnormal."""
    tiny = float(np.finfo(float).smallest_subnormal)
    below = 0
    pivot = 1.0
    with np.errstate(over="ignore"):
        for j in range(diag.size):
            if j == 0:
                pivot = diag[j] - x
            elif pivot == 0.0:
                pivot = math.inf
            else:
                # a subnormal pivot overflows the quotient to inf, as in the package
                pivot = (diag[j] - x) - max(off_sq[j - 1], tiny) / pivot
            below += pivot <= 0.0
    return below


def row_loop_count(diag, offdiag, x: float) -> int:
    """Eigenvalues of a symmetric tridiagonal below x, by the scalar pivot
    recurrence over every row, with the package's zero-pivot rule."""
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    return _pivot_count(diag, offdiag**2, float(x))


def plain_bisection_eigenvalues(diag, offdiag, rel_tol: float = 1e-13) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal by textbook bisection.

    One Sturm count per shift through the scalar-loop LDL^T recurrence and
    one bisection step per round for every bracket, stopped once every
    bracket is within rel_tol * max(1, Gershgorin span). These are the
    start, midpoints and stop the package's multisection kernel promises to
    reproduce bit for bit at the default tolerance.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    m = diag.size
    if m == 1:
        return diag.copy()
    radius = np.zeros(m)
    radius[:-1] += np.abs(offdiag)
    radius[1:] += np.abs(offdiag)
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    off_sq = offdiag**2
    tol = rel_tol * max(1.0, hi - lo)
    pad = tol + 16.0 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi))

    def count(x: float) -> int:
        return _pivot_count(diag, off_sq, x)

    lower = [lo - pad] * m
    upper = [hi + pad] * m
    while max(u - v for u, v in zip(upper, lower)) > tol:
        for k in range(m):
            mid = 0.5 * (lower[k] + upper[k])
            if count(mid) >= k + 1:
                upper[k] = mid
            else:
                lower[k] = mid
    return np.sort(0.5 * (np.array(lower) + np.array(upper)))


def _offdiag_norm(w: np.ndarray) -> float:
    stripped = w.copy()
    np.fill_diagonal(stripped, 0.0)
    return float(np.sqrt(np.sum(stripped * stripped)))


def two_pass_jacobi_eigenvalues(
    a, off_tol: float = 1e-12, max_sweeps: int = 64
) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix by cyclic-by-rows Jacobi,
    each rotation applied to rows p and q and then, separately, to columns
    p and q.

    A frozen copy of the package's earlier Jacobi kernel at its default
    tolerances. The package rotates lists of Python floats, where one pass
    over k stores each new entry in its row and its column at once, and
    promises the same bits as this two-pass form.
    """
    w = np.array(a, dtype=float)
    m = w.shape[0]
    if m == 1:
        return w.diagonal().copy()
    frobenius = float(np.sqrt(np.sum(w * w)))
    if frobenius == 0.0:
        return np.zeros(m)
    stop = off_tol * frobenius
    skip = stop / (2.0 * m)
    for _ in range(max_sweeps):
        if _offdiag_norm(w) <= stop:
            return np.sort(w.diagonal().copy())
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = w[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (w[q, q] - w[p, p]) / (2.0 * apq)
                sign = 1.0 if tau >= 0.0 else -1.0
                tval = sign / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + tval * tval)
                s = tval * c
                row_p = w[p, :].copy()
                row_q = w[q, :].copy()
                w[p, :] = c * row_p - s * row_q
                w[q, :] = s * row_p + c * row_q
                col_p = w[:, p].copy()
                col_q = w[:, q].copy()
                w[:, p] = c * col_p - s * col_q
                w[:, q] = s * col_p + c * col_q
                w[p, q] = 0.0
                w[q, p] = 0.0
    if _offdiag_norm(w) <= stop:
        return np.sort(w.diagonal().copy())
    raise RuntimeError(f"Jacobi did not converge in {max_sweeps} sweeps")
