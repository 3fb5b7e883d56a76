"""Self-contained symmetric eigensolvers.

Three kernels, deliberately independent of any LAPACK-backed routine:

* Sturm-count bisection for symmetric tridiagonal matrices (the fast
  structured path): one routine solves selected eigenvalues of several
  tridiagonals of the same order in lockstep,
* cyclic-by-rows Jacobi for dense symmetric matrices (the brute-force
  oracle everything else is checked against),
* power iteration for the dominant eigenpair of a nonnegative matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError


@dataclass(frozen=True, eq=False)
class SymTridiag:
    """A real symmetric tridiagonal matrix stored as its two defining arrays."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = np.array(self.diag, dtype=float, copy=True).reshape(-1)
        offdiag = np.array(self.offdiag, dtype=float, copy=True).reshape(-1)
        if diag.size < 1:
            raise ValueError("tridiagonal matrix must have at least one row")
        if offdiag.size != diag.size - 1:
            raise ValueError(
                f"off-diagonal length {offdiag.size} does not fit diagonal length {diag.size}"
            )
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
            raise ValueError("matrix entries must be finite")
        diag.setflags(write=False)
        offdiag.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)

    @property
    def order(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        if self.offdiag.size:
            idx = np.arange(self.order - 1)
            a[idx, idx + 1] = self.offdiag
            a[idx + 1, idx] = self.offdiag
        return a


@dataclass(frozen=True)
class SolveConfig:
    """Stopping rules for the iterative kernels.

    bisection_tol is relative to the Gershgorin span (and never tighter
    than 4 ulps), jacobi_off_tol to the Frobenius norm, power_tol to
    max(1, rho). Every tolerance must be positive and finite.
    """

    bisection_tol: float = 1e-13
    jacobi_off_tol: float = 1e-12
    max_jacobi_sweeps: int = 64
    power_tol: float = 1e-10
    max_power_iters: int = 100_000

    def __post_init__(self):
        for name in ("bisection_tol", "jacobi_off_tol", "power_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("max_jacobi_sweeps", "max_power_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


DEFAULT_CONFIG = SolveConfig()


# Below this many shifts per round a row of the Sturm recurrence costs about
# the same however wide it is: numpy's per-call overhead dominates. Narrow
# problems therefore evaluate several levels of each bracket's bisection
# tree per round; wide ones (a full spectrum of order >= 86) keep one level.
_MULTISECTION_WIDTH = 256
# Each bisection step at least halves a bracket (up to rounding) until it
# is a few ulps wide, and float64 spans fewer than 2100 halvings from its
# largest finite value to its smallest subnormal. A bracket still open after
# this many steps has stopped shrinking, and the solve fails rather than
# looping.
_MAX_BISECTION_STEPS = 2200


def _lane_bounds(diag: np.ndarray, offdiag: np.ndarray):
    """Gershgorin ends and norm scale of each lane: three arrays of shape (L,)."""
    mag = np.abs(offdiag)
    radius = np.zeros(diag.shape)
    radius[:, :-1] += mag
    radius[:, 1:] += mag
    lo = np.min(diag - radius, axis=1)
    hi = np.max(diag + radius, axis=1)
    scale = np.max(np.abs(diag), axis=1)
    if offdiag.shape[1]:
        scale += 2.0 * np.max(mag, axis=1)
    return lo, hi, np.maximum(1.0, scale)


def gershgorin_interval(t: SymTridiag) -> tuple[float, float]:
    """A closed interval [lo, hi] containing every eigenvalue of t."""
    lo, hi, _ = _lane_bounds(t.diag[None], t.offdiag[None])
    return float(lo[0]), float(hi[0])


def _sturm_counts(diag: np.ndarray, off_sq: np.ndarray, shifts: np.ndarray, scale) -> np.ndarray:
    """Eigenvalues strictly below each shift, lane by lane.

    diag is (L, m), off_sq (L, m-1), shifts (L, k) and scale a scalar or
    (L, 1); the result is (L, k). Runs the shifted LDL^T pivot recurrence
    for every lane and shift at once and counts non-positive pivots. Zero
    pivots are replaced by a tiny negative value proportional to the matrix
    norm, which keeps the division safe without disturbing counts away from
    exact eigenvalue hits.
    """
    neg_tiny = np.finfo(float).eps * scale * (1.0 + np.abs(shifts))
    np.negative(neg_tiny, out=neg_tiny)
    rows = np.ascontiguousarray(diag.T)[:, :, None]
    offs = np.ascontiguousarray(off_sq.T)[:, :, None]
    m = rows.shape[0]
    pivot = np.subtract(rows[0], shifts)
    quotient = np.empty_like(pivot)
    zero = np.empty(pivot.shape, dtype=bool)
    counts = np.zeros(pivot.shape, dtype=np.intp)
    # sign flags of up to 64 rows, added to counts a block at a time: one
    # comparison per row without holding an m-row flag array
    flags = np.empty((min(m, 64),) + pivot.shape, dtype=bool)
    # a subnormal pivot overflows the next quotient to inf; the pivot after
    # it is then -inf, which counts as negative as it should
    with np.errstate(over="ignore"):
        for j in range(m):
            if j:
                np.divide(offs[j - 1], pivot, out=quotient)
                np.subtract(rows[j], shifts, out=pivot)
                np.subtract(pivot, quotient, out=pivot)
            # a zero pivot counts as negative: it is replaced by -tiny below
            np.less_equal(pivot, 0.0, out=flags[j % 64])
            np.equal(pivot, 0.0, out=zero)
            np.copyto(pivot, neg_tiny, where=zero)
            if j % 64 == 63 or j == m - 1:
                counts += flags[: j % 64 + 1].sum(axis=0)
    return counts


def sturm_count(t: SymTridiag, x: float) -> int:
    """Number of eigenvalues of t strictly less than x."""
    _, _, scale = _lane_bounds(t.diag[None], t.offdiag[None])
    shifts = np.asarray([[float(x)]])
    return int(_sturm_counts(t.diag[None], np.square(t.offdiag)[None], shifts, scale[0])[0, 0])


def _tree_depth(brackets: int) -> int:
    """Levels of each bisection tree to evaluate per round."""
    depth = 1
    while brackets * (2 ** (depth + 1) - 1) <= _MULTISECTION_WIDTH:
        depth += 1
    return depth


def _tree(lower: np.ndarray, upper: np.ndarray, depth: int):
    """The next depth levels of each bracket's bisection tree.

    Returns (lo, mid, hi), each of shape lower.shape + (2**depth - 1,) in
    heap order (root, then each level left to right; the children of node
    h are 2h+1 and 2h+2): node h bisects [lo[h], hi[h]] at mid[h], the same
    midpoint plain bisection computes when it reaches that interval.
    """
    lo, hi = lower[..., None], upper[..., None]
    los, mids, his = [], [], []
    for _ in range(depth):
        mid = 0.5 * (lo + hi)
        los.append(lo)
        mids.append(mid)
        his.append(hi)
        lo = np.stack([lo, mid], axis=-1).reshape(mid.shape[:-1] + (-1,))
        hi = np.stack([mid, hi], axis=-1).reshape(mid.shape[:-1] + (-1,))
    return tuple(np.concatenate(level, axis=-1) for level in (los, mids, his))


def _open(lower: np.ndarray, upper: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Brackets still wider than their stop: tol, or 4 ulps where that is larger."""
    ulps = 4.0 * np.spacing(np.maximum(np.abs(lower), np.abs(upper)))
    return upper - lower > np.maximum(tol, ulps)


def lane_eigenvalues(lanes, indices, config: SolveConfig | None = None) -> np.ndarray:
    """Selected eigenvalues of L symmetric tridiagonals of one order.

    indices are 1-based positions in ascending order (1 is the smallest,
    the order m the largest). Returns an (L, len(indices)) array whose
    entry [l, j] is eigenvalue indices[j] of lanes[l].

    Every (lane, index) pair keeps its own bracket, started at the lane's
    padded Gershgorin interval and bisected until it is no wider than
    bisection_tol times max(1, Gershgorin span), or 4 ulps where that is
    larger. All brackets advance in lockstep, so one vectorized Sturm
    recurrence serves every lane; when the brackets are few, each round
    evaluates several levels of their bisection trees at once. The value
    of a bracket depends only on its own lane and index, so asking for one
    eigenvalue gives the same bits as reading it off the full spectrum.
    """
    cfg = config or DEFAULT_CONFIG
    lanes = list(lanes)
    if not lanes:
        raise ValueError("need at least one tridiagonal")
    m = lanes[0].order
    if any(t.order != m for t in lanes):
        raise ValueError("every lane must have the same order")
    need = np.asarray(indices, dtype=np.int64).reshape(-1)
    if need.size == 0 or need.min() < 1 or need.max() > m:
        raise ValueError(f"eigenvalue indices must lie in 1..{m}, got {need.tolist()}")
    diag = np.stack([t.diag for t in lanes])
    if m == 1:
        return np.repeat(diag, need.size, axis=1)
    offdiag = np.stack([t.offdiag for t in lanes])
    lo, hi, scale = _lane_bounds(diag, offdiag)
    tol = cfg.bisection_tol * np.maximum(1.0, hi - lo)
    # widen so counts at the ends are unambiguous even when an eigenvalue
    # sits exactly on a Gershgorin endpoint
    pad = tol + 16.0 * np.finfo(float).eps * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    # one bracket per (lane, index), flattened lane-major
    shape = (len(lanes), need.size)
    lower = np.repeat(lo - pad, need.size)
    upper = np.repeat(hi + pad, need.size)
    tol = np.repeat(tol, need.size)
    need = np.tile(need, len(lanes))
    off_sq = np.square(offdiag)
    depth = _tree_depth(lower.size)
    nodes = 2**depth - 1
    roots = np.arange(lower.size) * nodes
    steps = 0
    while np.any(_open(lower, upper, tol)):
        if steps >= _MAX_BISECTION_STEPS:
            raise ConvergenceError(
                f"bisection did not converge in {steps} steps; "
                f"widest bracket {float(np.max(upper - lower)):.3e}"
            )
        tree_lo, mid, tree_hi = _tree(lower, upper, depth)
        still_open = _open(tree_lo, tree_hi, tol[:, None]).ravel()
        counts = _sturm_counts(diag, off_sq, mid.reshape(shape[0], -1), scale[:, None]).ravel()
        mid = mid.ravel()
        heap = np.zeros(lower.size, dtype=np.intp)
        active = np.ones(lower.size, dtype=bool)
        for _ in range(depth):
            at = roots + heap
            below = counts[at] >= need
            # a bracket that has stopped stays stopped, even where the
            # ulp part of a child's stop would let it reopen
            active &= still_open[at]
            upper = np.where(active & below, mid[at], upper)
            lower = np.where(active & ~below, mid[at], lower)
            heap = 2 * heap + 2 - below
        steps += depth
    return (0.5 * (lower + upper)).reshape(shape)


def tridiag_eigenvalues(t: SymTridiag, config: SolveConfig | None = None) -> np.ndarray:
    """All eigenvalues of t in ascending order, via Sturm-count bisection.

    One lane of lane_eigenvalues with every index. The result is
    deterministic: no seeds, no rotation order, just interval halving.
    """
    return np.sort(lane_eigenvalues([t], np.arange(1, t.order + 1), config)[0])


def _offdiag_norm(w: np.ndarray) -> float:
    # Summed directly over off-diagonal entries: the tempting shortcut
    # ||A||_F^2 - ||diag||^2 cancels catastrophically near convergence and
    # would stall the sweep loop around sqrt(eps) * ||A||.
    stripped = w.copy()
    np.fill_diagonal(stripped, 0.0)
    return float(np.sqrt(np.sum(stripped * stripped)))


def jacobi_eigenvalues(a, config: SolveConfig | None = None) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix by cyclic-by-rows Jacobi."""
    cfg = config or DEFAULT_CONFIG
    w = np.array(a, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    if not np.array_equal(w, w.T):
        raise ValueError("matrix must be symmetric")
    m = w.shape[0]
    if m == 1:
        return w.diagonal().copy()
    frobenius = float(np.sqrt(np.sum(w * w)))
    if frobenius == 0.0:
        return np.zeros(m)
    stop = cfg.jacobi_off_tol * frobenius
    # Entries below this cannot by themselves keep the off-norm above stop,
    # so skipping them is safe and saves the tail sweeps.
    skip = stop / (2.0 * m)
    for _ in range(cfg.max_jacobi_sweeps):
        if _offdiag_norm(w) <= stop:
            return np.sort(w.diagonal().copy())
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = w[p, q]
                if abs(apq) <= skip:
                    continue
                # symmetric Schur 2x2: smaller-angle root for stability
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
    remaining = _offdiag_norm(w)
    if remaining <= stop:
        return np.sort(w.diagonal().copy())
    raise ConvergenceError(
        f"Jacobi did not converge in {cfg.max_jacobi_sweeps} sweeps; "
        f"off-diagonal norm {remaining:.3e} above target {stop:.3e}"
    )


def perron_pair(a, config: SolveConfig | None = None) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and positive unit eigenvector of a nonnegative
    symmetric matrix (the A_alpha matrix of a connected graph).

    The iteration multiplies by a + I rather than a: an adjacency matrix of
    a connected bipartite graph has -rho on the spectral circle too, where
    the unshifted iteration never settles. The shift restores a gap while
    leaving eigenvectors, Rayleigh quotients and residuals untouched.
    """
    cfg = config or DEFAULT_CONFIG
    w = np.array(a, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    if not np.array_equal(w, w.T):
        raise ValueError("matrix must be symmetric")
    if np.any(w < 0.0):
        raise ValueError("matrix must be entrywise nonnegative")
    m = w.shape[0]
    v = np.full(m, 1.0 / math.sqrt(m))
    for _ in range(cfg.max_power_iters):
        image = w @ v
        rho = float(v @ image)
        residual = float(np.linalg.norm(image - rho * v))
        if residual < cfg.power_tol * max(1.0, rho):
            if not np.all(v > 0.0):
                raise ConvergenceError("power iteration lost strict positivity")
            return rho, v
        shifted = image + v
        v = shifted / float(np.linalg.norm(shifted))
    raise ConvergenceError(
        f"power iteration did not reach residual {cfg.power_tol:.1e} "
        f"within {cfg.max_power_iters} steps"
    )
