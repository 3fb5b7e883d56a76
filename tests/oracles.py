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


def quotient_layouts(n: int, d: int, i: int, alpha: float) -> dict:
    """The bug quotient at (n, d, i, alpha) as a path with a few special
    cells, the arguments (order, diagonal, lead, diagonal cells, lead
    cells) of SymTridiag.path, and for a balanced bug (i = d/2, d even and
    >= 4) the halved matrix and its inner block too, keyed "bug", "halved"
    and "inner". A second statement of the entries the library writes as
    slot rows: beta = 1 - alpha on the path, 2 alpha + w - 1 and
    beta sqrt(w) at the clique cell i, alpha (w + 1) at a clique neighbour
    inside the path and alpha w at one that ends it; the halved matrix is
    rows 0..d/2 with last lead beta sqrt(2 w), the inner block rows
    0..d/2 - 1. The arithmetic is the library's, so the runs agree bit for
    bit."""
    below, w, above = float(n - d - 1), float(n - d), float(n - d + 1)
    beta = 1.0 - alpha
    beside, end = alpha * above, alpha * w
    # a neighbour of the clique at a path end overwrites that end's alpha
    cells = {0: alpha, d: alpha, i - 1: beside if i > 1 else end,
             i + 1: beside if i + 1 < d else end, i: 2.0 * alpha + below}
    side = beta * math.sqrt(w)
    layouts = {"bug": (d + 1, 2.0 * alpha, beta, cells, {i: side, i + 1: side})}
    if d % 2 == 0 and d >= 4 and i == d // 2:
        half = d // 2
        layouts["halved"] = (half + 1, 2.0 * alpha, beta,
                             {0: alpha, half - 1: beside, half: 2.0 * alpha + below},
                             {half: beta * math.sqrt(2.0 * w)})
        layouts["inner"] = (half, 2.0 * alpha, beta, {0: alpha, half - 1: beside}, {})
    return layouts


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


def longdouble_eigenvalues(diags, offdiags, indices=None) -> np.ndarray:
    """Eigenvalues by index of each of L symmetric tridiagonals of one
    order, rounded to float: bisection in np.longdouble (a 64-bit mantissa
    on x86-64) from the Gershgorin ends, one bracket per lane and index,
    until no bracket shrinks or each is within 2**-100 of its lane's span,
    with one Sturm count a level by the scalar pivot recurrence, run on
    every bracket at once. diags is (L, m), offdiags (L, m - 1) and indices
    1-based (all m by default); the result is (L, len(indices)). Only
    meaningful where np.finfo(np.longdouble).nmant >= 63.

    The count at x is the number of negative pivots of T - x. As in LAPACK's
    dstebz, a pivot smaller in magnitude than pivmin (the smallest normal
    long double times max(1, the largest squared off-diagonal)) is taken as
    -pivmin, so no quotient is 0/0 or overflows: the count is then exact
    for a matrix within a few pivmin of T."""
    a = np.asarray(diags, dtype=np.longdouble)
    b = np.asarray(offdiags, dtype=np.longdouble)
    lanes, m = a.shape
    k = np.arange(1, m + 1) if indices is None else np.asarray(indices).reshape(-1)
    squares = b * b
    tiny = np.finfo(np.longdouble).tiny
    pivmin = tiny * np.maximum(1, squares.max(axis=1, initial=0))[:, None]
    radius = np.zeros(a.shape, dtype=np.longdouble)
    radius[:, :-1] += np.abs(b)
    radius[:, 1:] += np.abs(b)
    lo = np.repeat((a - radius).min(axis=1)[:, None], k.size, axis=1)
    hi = np.repeat((a + radius).max(axis=1)[:, None], k.size, axis=1)
    floor = (hi - lo) * np.longdouble(2.0) ** -100
    while True:
        x = (lo + hi) / 2
        if not ((lo < x) & (x < hi) & (hi - lo > floor)).any():
            return x.astype(float)
        below = np.zeros(x.shape, dtype=np.intp)
        pivot = np.ones(x.shape, dtype=np.longdouble)
        for j in range(m):
            pivot = a[:, j, None] - x - (squares[:, j - 1, None] / pivot if j else 0)
            pivot = np.where(np.abs(pivot) < pivmin, -pivmin, pivot)
            below += pivot < 0
        reached = below >= k
        hi, lo = np.where(reached, x, hi), np.where(reached, lo, x)


def longdouble_tops(diags, offdiags) -> np.ndarray:
    """The largest eigenvalue of each of L symmetric tridiagonals of one
    order (longdouble_eigenvalues at index m), as an array of shape (L,)."""
    m = np.shape(diags)[1]
    return longdouble_eigenvalues(diags, offdiags, [m])[:, 0]
