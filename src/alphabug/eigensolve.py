"""Self-contained symmetric eigensolvers.

Three kernels, deliberately independent of any LAPACK-backed routine:

* Sturm-count bisection for symmetric tridiagonal matrices (the fast
  structured path), stored as runs of equal rows that the Gershgorin
  bounds and count plans read directly: one routine solves selected
  eigenvalues of several tridiagonals of the same order in lockstep, each
  round evaluating the next levels of every distinct bracket's bisection
  tree once and moving each bracket down its tree in one step, as deep as
  gives the most levels per unit of a round's cost; every count goes
  through one kernel, which forms x - a for up to 64 rows at a time, steps
  the negated pivot recurrence with two numpy calls per row, counts signs
  once per block, carries an exact zero pivot by IEEE signed zeros and
  infinities with no test for it and, from order 64 up, jumps runs of
  equal rows in closed form, computing what a jump reads of the shifts
  alone once for all runs of equal entries (the two paths of a bug
  quotient); a small call (below order 64, with
  lanes x distinct indices x order at most _SCALAR_MAX_WORK = 840, as for
  a full spectrum up to order 28, an 8-alpha sweep up to order 52 or a
  scan up to order 42) instead walks each bisection tree on Python floats,
  one scalar Sturm count per node, with the same bits, which a node of rho
  alone or of the smallest value alone stops at its first deciding pivot:
  sweeps and scans walk in 0.47-0.65 and full spectra in 0.61-1.11 of the
  rounds' time per call at work 200-800 (medians),
* cyclic-by-rows Jacobi for dense symmetric matrices (the brute-force
  oracle everything else is checked against), which rotates lists of
  Python floats: at the orders the oracle grid uses, a Python loop over a
  row costs less than the numpy calls of a rotation on short rows,
* power iteration for the dominant eigenpair of a nonnegative matrix.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .graphs import _check_int, _check_positive, _check_real


@dataclass(frozen=True, eq=False, init=False)
class SymTridiag:
    """A real symmetric tridiagonal matrix stored as runs of equal rows.

    runs is (diag, lead, reps): run e is reps[e] rows with diagonal entry
    diag[e], each joined to the row above by lead[e]; row 0 is a run of its
    own, with lead 0. SymTridiag(diag, offdiag) stores one run per row. The
    arrays are read-only, and so are diag and offdiag, expanded when read.
    """

    runs: tuple
    order: int

    def __init__(self, diag, offdiag):
        diag = np.array(diag, dtype=float).reshape(-1)
        offdiag = np.array(offdiag, dtype=float).reshape(-1)
        if diag.size < 1:
            raise ValueError("tridiagonal matrix must have at least one row")
        if offdiag.size != diag.size - 1:
            raise ValueError(
                f"off-diagonal length {offdiag.size} does not fit diagonal length {diag.size}"
            )
        self._store(np.array((diag, np.append(0.0, offdiag))), np.ones(diag.size, dtype=np.intp),
                    diag.size)

    @classmethod
    def path(cls, m: int, diag: float, lead: float, diag_cells: dict, lead_cells: dict):
        """Order m, each row with diagonal entry diag and joined to the row
        above by lead (whose square must be nonzero), except the special
        cells: diag_cells and lead_cells map rows to their own diagonal
        entry and lead. Its runs are the special rows and the stretches
        between them, whatever m is."""
        cells = sorted({0, *diag_cells, *lead_cells})
        if not (cells[0] == 0 and cells[-1] < m and 0 not in lead_cells and lead * lead > 0):
            raise ValueError(f"no path of order {m} with lead {lead} and special rows {cells}")
        diags, leads, reps = [], [], []
        for row, end in zip(cells, cells[1:] + [m]):
            diags.append(diag_cells.get(row, diag))
            leads.append(lead_cells.get(row, lead) if row else 0.0)
            reps.append(1)
            if end > row + 1:
                diags.append(diag)
                leads.append(lead)
                reps.append(end - row - 1)
        columns = np.array((diags, leads), dtype=float)
        t = cls.__new__(cls)
        t._store(columns, np.array(reps, dtype=np.intp), m)
        return t

    def _store(self, columns: np.ndarray, reps: np.ndarray, order: int):
        """Keep the runs: columns holds the diag and lead columns as rows."""
        if not np.isfinite(columns).all():
            raise ValueError("matrix entries must be finite")
        columns.setflags(write=False)
        reps.setflags(write=False)
        object.__setattr__(self, "runs", (columns[0], columns[1], reps))
        object.__setattr__(self, "order", order)

    def _rows(self, values: np.ndarray) -> np.ndarray:
        rows = np.repeat(values, self.runs[2])
        rows.setflags(write=False)
        return rows

    @property
    def diag(self) -> np.ndarray:
        return self._rows(self.runs[0])

    @property
    def offdiag(self) -> np.ndarray:
        return self._rows(self.runs[1])[1:]

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        idx = np.arange(self.order - 1)
        a[idx, idx + 1] = a[idx + 1, idx] = self.offdiag
        return a


@dataclass(frozen=True)
class SolveConfig:
    """Stopping rules for the iterative kernels.

    bisection_tol is relative to the Gershgorin span (and never tighter
    than 4 ulps), jacobi_off_tol to the Frobenius norm, power_tol to
    max(1, rho). Every tolerance must be positive and finite, and each
    iteration cap an integer >= 1 (not a bool).
    """

    bisection_tol: float = 1e-13
    jacobi_off_tol: float = 1e-12
    max_jacobi_sweeps: int = 64
    power_tol: float = 1e-10
    max_power_iters: int = 100_000

    def __post_init__(self):
        for name in ("bisection_tol", "jacobi_off_tol", "power_tol"):
            object.__setattr__(self, name, _check_positive(name, getattr(self, name)))
        for name in ("max_jacobi_sweeps", "max_power_iters"):
            cap = _check_int(name, getattr(self, name))
            if cap < 1:
                raise ValueError(f"{name} must be >= 1")
            object.__setattr__(self, name, cap)


DEFAULT_CONFIG = SolveConfig()


# A round costs a fixed part, in shifts' worth, plus one per shift, and
# _deeper takes the depth with the most levels per unit of that cost: 8 levels
# for one tree, 3 for 100, 2 up to 1,199 and 1 from 1,200. On run plans (from
# _RUN_PLAN_MIN_ORDER up), fitted over the rounds of full spectra solved at
# that depth and at one level per round (B(10^6, 1000, 500) at alpha 0.6,
# B(10^5, 300, 40) at 0.2, B(10^6, 150, 75) at 0.9; 2-core x86-64, Python
# 3.11, numpy 2.4; least CPU time of 41 solves per round, three fits), a
# round's fixed part is 145-160 us (a count kernel call 105-120 us of it) and
# a shift 0.12-0.14 us, a ratio of 1,100-1,250 (on a busier host 160-290 us
# and 0.10-0.21 us). Interleaved in-process passes over the spectrum-large
# jobs took 1.01-1.04, 0.99-1.01 and 1.02-1.04 times as long at 800, 1,600 and
# 2,400 as at 1,200. Plans of row steps take the same rule: their rounds serve
# only calls above _SCALAR_MAX_WORK (13 of the bench workloads' seed-1 calls;
# 15 at the bound of 800 this was measured at), and those 15 took 1.01 times
# as long as under a 512-shift budget a round, 29.1 ms against 28.8 (median
# CPU time of 21 interleaved passes, same host). A round
# goes past one level only while trees < _ROUND_COST, so a deeper round holds
# at most 3 * (_ROUND_COST - 1) = 3,597 shifts (two levels of 1,199 trees),
# and the count kernel's buffer (_BLOCK_ROWS = 64 rows of them, 1.8 MB) stays
# within 2 MiB; one level is always taken.
_ROUND_COST = 1200
# lane_eigenvalues drops its shared-bracket layout once it saves fewer shifts
# a round than this: laying it out costs 20-40 us, a shift 0.1-0.2 us. On
# spectrum-large, 200 to 3,000 took 0.91-0.97 of the time of never dropping
# it, and balanced bugs ran 1.04-1.08 times slower without it (interleaved
# in-process passes; 2-core x86-64, numpy 2.4).
_LAYOUT_COST = 200
# Each bisection step at least halves a bracket (up to rounding) until it
# is a few ulps wide, and float64 spans fewer than 2100 halvings from its
# largest finite value to its smallest subnormal. A bracket still open after
# this many steps has stopped shrinking, and the solve fails rather than
# looping.
_MAX_BISECTION_STEPS = 2200
# From this order up, _run_plan cuts each lane into generic rows and uniform
# runs, which the count kernel jumps in closed form; below it every row is one
# step. Below it, the gate also lets small calls bisect on Python floats. A
# jump costs about forty numpy calls against two per row. Measured on bug
# quotients (2-core x86-64, numpy 2.4), jumps win from order about 56 for rho
# alone, 85 for a full spectrum, 128 for an 8-alpha sweep and 150 for a scan
# of all d/2 splits, whose lanes fall into four plan shapes. At order 64 they
# save 8 % on rho alone and cost 1.2 times the row steps for a full spectrum
# and 1.6 times for a sweep or a scan.
# The gate is on the order, not on run length: lane i of a scan has a left
# run of i - 2 rows, so a run-length threshold K would split a scan's lanes
# into up to K plan shapes, each counted in its own pass.
_RUN_PLAN_MIN_ORDER = 64
# Below _RUN_PLAN_MIN_ORDER, a call whose lanes x distinct indices x order
# is at most this bisects on Python floats (_scalar_bisection), one count
# per tree node, instead of in multisection rounds, each a few dozen numpy
# calls on arrays of a few rows. Per call, Python-float time over round time
# on bug quotients (rho alone, full spectra, 8-alpha sweeps and scans of
# order 4-63, 240 calls; 2-core x86-64, Python 3.11, numpy 2.4; medians of
# three measurements): 0.14-0.16 at work below 200, 0.53-0.55 at 200-400,
# 0.61-0.63 at 400-800, 0.65-0.66 at 800-1000, 0.76-0.78 at 1000-1200 and
# 1.10-1.15 at 1200-1400. Nodes of rho alone or of the smallest value alone
# stop their counts early, so full spectra cross near 700-800 (1.14-1.20 at
# 800-1000, where sweeps read 0.62-0.63 and scans 0.67-0.71). Summed over
# those calls and the bench's radius-scan calls, the time falls up to a
# bound of about 1,200; but past 840 full spectra walk too (order 29 at
# 841; verify's multi-lane ones at 960 and 1,080), and they slow.
_SCALAR_MAX_WORK = 840
# The count kernel forms a - x for up to this many generic rows in one
# subtract and counts their signs in one pass, so its buffer is at most
# this many rows of shifts, whatever the order.
_BLOCK_ROWS = 64


def _lane_runs(lanes: list):
    """The runs of all lanes back to back, and the run each lane starts at."""
    diag, lead, reps = (np.concatenate(column) for column in zip(*(t.runs for t in lanes)))
    first = np.cumsum([0] + [t.runs[2].size for t in lanes[:-1]])
    return diag, lead, reps, first


def _lane_bounds(runs: tuple):
    """Gershgorin ends of each lane, and its largest |lead|: three arrays
    of shape (L,), from the lanes' runs (_lane_runs).

    A run stands in for at most three rows: its first and inner rows have
    radius 2 |lead|, its last |lead| plus the next run's lead, which is the
    0 of the next lane's row 0 at a lane's end."""
    diag, lead, reps, first = runs
    mag = np.abs(lead)
    radius = mag + np.append(mag[1:], 0.0)
    np.maximum(radius, mag + mag, out=radius, where=reps > 1)
    return (
        np.minimum.reduceat(diag - radius, first),
        np.maximum.reduceat(diag + radius, first),
        np.maximum.reduceat(mag, first),
    )


def gershgorin_interval(t: SymTridiag) -> tuple[float, float]:
    """A closed interval [lo, hi] containing every eigenvalue of t."""
    lo, hi, _ = _lane_bounds(_lane_runs([t]))
    return float(lo[0]), float(hi[0])


# the largest |lead| whose square is finite: the next float up squares to inf
_LEAD_MAX = math.sqrt(np.finfo(float).max)


def _fitted(runs: tuple) -> tuple[tuple, np.ndarray]:
    """The lanes' runs (_lane_runs), each lane whose largest |lead| exceeds
    _LEAD_MAX times a power of two that brings it below 2**511 (so its
    square stays below 2**1022), and each lane's power (1.0 where none is
    needed). Like LAPACK's scaling before dstebz, the scaled counts and
    midpoints are the original ones times that power, exactly for every
    entry and shift that stays normal."""
    diag, lead, reps, first = runs
    top = np.maximum.reduceat(np.abs(lead), first)
    scales = np.ldexp(1.0, np.where(top > _LEAD_MAX, 511 - np.frexp(top)[1], 0))
    per_run = np.repeat(scales, np.diff(first, append=diag.size))
    return (diag * per_run, lead * per_run, reps, first), scales


def _lead_squares(lead: np.ndarray):
    """Squared leads, and the same floored at the smallest subnormal (see
    _run_plan). Every lead is at most _LEAD_MAX (_fitted), so no square
    overflows."""
    lead_sq = np.square(lead)
    return lead_sq, np.maximum(lead_sq, np.finfo(float).smallest_subnormal)


def _run_plan(runs: tuple, order: int) -> list:
    """Cut each lane's rows into generic rows and uniform runs, and group
    the lanes whose cuts have the same shape: runs are the lanes' runs
    (_lane_runs) and order their order.

    A run is a maximal stretch of two or more rows j >= 1 that share their
    diagonal entry and squared lead, and the lead is nonzero; every other
    row is a generic row, and row 0 is always one. Neighbouring stored runs
    merge by that rule, so the cut depends only on a lane's entries, not on
    how it was built. Returns a list of groups (lanes, blocks, preludes),
    made by _group: lanes indexes the group's lanes (an index array, or a
    slice when one group holds them all), and each step is (a, c, k),
    columns of shape (len(lanes), 1) holding a segment's diagonal entry,
    its squared lead (not read for row 0) and, for a run, its row count
    (None for a generic row). Below order _RUN_PLAN_MIN_ORDER no runs are
    sought: one group holds every lane, with one generic step per row. A
    squared lead of 0 is read as the smallest subnormal, so no quotient of
    the recurrence is 0/0; that moves an eigenvalue by less than its
    square root, 2.3e-162. A lead above _LEAD_MAX would square to inf and
    make every count wrong: callers scale such lanes first (_fitted).
    """
    diag, lead, reps, first = runs
    lead_sq, floored = _lead_squares(lead)
    if order < _RUN_PLAN_MIN_ORDER:
        diag, floored = (np.repeat(v, reps).reshape(first.size, -1) for v in (diag, floored))
        steps = [(diag[:, j:j + 1], floored[:, j:j + 1], None) for j in range(diag.shape[1])]
        return [_group(slice(None), steps)]
    # a run continues the stretch of the run before it; row 0's lead of 0
    # keeps it and the lane's next run from joining anything
    joined = np.zeros(diag.size, dtype=bool)
    joined[1:] = (diag[1:] == diag[:-1]) & (lead_sq[1:] == lead_sq[:-1]) & (lead_sq[1:] > 0.0)
    starts = np.flatnonzero(~joined)
    sizes = np.add.reduceat(reps, starts)
    is_run = sizes > 1
    # lane l holds stretches bounds[l] .. bounds[l+1] - 1
    bounds = np.searchsorted(starts, np.append(first, diag.size))
    groups: dict[bytes, list] = {}
    for lane in range(first.size):
        groups.setdefault(is_run[bounds[lane]:bounds[lane + 1]].tobytes(), []).append(lane)
    plan = []
    for shape, members in groups.items():
        group = np.array(members)
        at = bounds[group][:, None] + np.arange(len(shape))
        a, c, k = diag[starts[at]], floored[starts[at]], sizes[at]
        steps = [
            (a[:, s:s + 1], c[:, s:s + 1], k[:, s:s + 1] if run else None)
            for s, run in enumerate(shape)
        ]
        plan.append(_group(group if len(groups) > 1 else slice(None), steps))
    return plan


def _band(u):
    """|t| < 1: what _inside reads of the shift, u with sin theta and theta."""
    sin_theta = np.sqrt((1.0 - u) * (1.0 + u))
    return u, sin_theta, np.arctan2(sin_theta, u)


def _inside(angle, q, k):
    """|t| < 1: s[j] = sin(j theta + phi) with cos theta = |t|.

    Returns the sign changes of s[0..k] and of s[0..k+1], and s[k+1]/s[k].
    With psi = k theta + phi that ratio is sin(psi + theta)/sin psi =
    cos theta + sin theta/tan psi: one tan, about 2 ns a shift where a sine
    takes 7-9 ns (numpy 2.4 on AVX-512 x86-64, angles up to 3,000). Its
    sign at a pole of tan may be either; _jump reads only its magnitude,
    and the sign from the floors.
    """
    u, sin_theta, theta = angle
    phi = np.arctan2(sin_theta, q - u)
    psi = k * theta + phi
    end = psi + theta
    return np.floor(psi / np.pi), np.floor(end / np.pi), u + sin_theta / np.tan(psi)


def _hyperbolic(u):
    """|t| > 1: what _outside reads of the shift, u with sinh mu and mu."""
    sh = np.sqrt(u - 1.0) * np.sqrt(u + 1.0)
    return u, sh, np.log1p((u - 1.0) + sh)


def _outside(angle, q, k):
    """|t| > 1: s[j] = sinh(j mu + phi) with cosh mu = |t|, whose one zero
    is at j = -phi/mu, or cosh(j mu + phi), which has none.

    Returns as _inside.
    """
    u, sh, mu = angle
    slope = (q - u) / sh
    sinh = np.abs(slope) > 1.0
    phi = np.arctanh(np.where(sinh, 1.0 / slope, slope))
    psi = k * mu + phi
    falling = sinh & (phi < 0.0)
    tanh = np.tanh(psi)
    return (
        falling & (psi >= 0.0),
        falling & (psi + mu >= 0.0),
        u + sh * np.where(sinh, 1.0 / tanh, tanh),
    )


def _edge(angle, q, k):
    """|t| = 1: s[j] is proportional to w + j with w = 1/(q - 1); angle is
    None.

    Returns as _inside.
    """
    w = 1.0 / (q - 1.0)
    falling = w < 0.0
    return falling & (w + k >= 0.0), falling & (w + k + 1.0 >= 0.0), 1.0 + 1.0 / (w + k)


# each regime of a jump, in the order |t| < 1, |t| > 1, |t| = 1: what its
# closed form reads of the shift alone (the angle theta or mu), and the
# closed form
_REGIMES = ((_band, _inside), (_hyperbolic, _outside), (None, _edge))


def _prelude(a, c, shifts):
    """The prelude of a jump along a run of (a, c): what it reads of the
    shifts alone, not of the incoming pivot or the run's length. Returns
    the signed b (sqrt(c), negated where t = (a - x)/(2b) is negative);
    that flip; the main regime (_REGIMES), the one that holds the most |t|
    (the first on a tie), with its closed form and its angle over every
    shift, NaN at the other regimes' shifts; and for each other regime that
    holds some |t|, the flat indices of its shifts and their lanes, its
    closed form and its angle over those. So the regimes are split once per
    count, for every jump that shares the prelude: runs of one plan group
    with equal a and c columns (_group)."""
    b = np.sqrt(c)
    t = (a - shifts) / (2.0 * b)
    flip = t < 0.0
    signed = np.where(flip, -b, b)
    u = np.abs(t)
    held = [u < 1.0, u > 1.0]
    sizes = [np.count_nonzero(live) for live in held]
    # the rest have |t| = 1, as no shift or entry is NaN
    sizes.append(u.size - sum(sizes))
    main = sizes.index(max(sizes))
    angle, regime = _REGIMES[main]
    with np.errstate(invalid="ignore"):
        whole = regime, angle(u) if angle else None
    others = []
    for r, (angle, regime) in enumerate(_REGIMES):
        if r != main and sizes[r]:
            at = np.flatnonzero(held[r] if r < len(held) else u == 1.0)
            others.append((at, at // u.shape[1], regime, angle(u.take(at)) if angle else None))
    return signed, flip, whole, others


def _run_end(q, before, after, ratio):
    """A run's count at |t| and its last pivot over b, from a closed form's
    crossings and ratio (see _jump)."""
    below = np.maximum(after.astype(np.intp) - np.signbit(q), 0)
    last = np.abs(ratio)
    # np.where: a masked np.negative takes about three times as long
    return below, np.where(after > before, -last, last)


def _jump(pivot: np.ndarray, a, c, k, shifts: np.ndarray, prelude):
    """Negative pivots along a run of k rows of (a, c), and its last pivot.

    With b = sqrt(c), t = (a - x)/(2b) and q = pivot/b, the pivot map of one
    row is q -> 2t - 1/q, whose iterates are ratios s[j+1]/s[j] of a
    solution of s[j+1] = 2t s[j] - s[j-1] (the Chebyshev recurrence) with
    s[0] = 1, s[1] = q. For t < 0 the sequence -q follows the same map at
    -t, so only |t| is solved, in the regime it falls in (_inside,
    _outside, _edge): q is the pivot over the signed b. Whatever reads only
    the shifts (the signed b, the flip, the regimes and their angles) is
    the prelude, _prelude(a, c, shifts), which a caller may compute once
    for several runs of the same a and c: the bits are those of a fresh
    prelude.

    The main regime's closed form runs on every shift. Each other regime's
    runs on its own shifts, gathered by the prelude's indices (and the run
    lengths by their lanes), and its counts and last pivots overwrite the
    main one's there: a count whose shifts mostly fall in the band gathers
    only the few outside it. Each shift gets the bits it gets alone, where
    its regime is the only one.

    With cross[j] the sign changes of s[0..j], the run's count is
    cross[k+1] less one when the incoming pivot is negative (-0 included),
    and its last pivot is negative exactly when cross[k+1] > cross[k].
    Taking both from the same crossings, and the start from the incoming
    pivot itself, keeps a rounding slip at a crossing from being counted
    twice: a last pivot of the wrong sign is tiny, and the next row undoes
    it. A last pivot of 0 carries the sign it was counted with.
    """
    signed, flip, (regime, angle), others = prelude
    q = pivot / signed
    # the main closed form at other regimes' shifts gives NaN or inf,
    # overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        below, last = _run_end(q, *regime(angle, q, k))
    for at, lane, regime, angle in others:
        gathered = q.take(at)
        counted, ended = _run_end(gathered, *regime(angle, gathered, k.take(lane)))
        below.put(at, counted)
        last.put(at, ended)
    return np.where(flip, k - below, below), signed * last


def _blocks(steps: list) -> list:
    """Cut plan steps into blocks of up to _BLOCK_ROWS generic rows, each
    block starting at a generic row. Returns (steps, entries) pairs, entries
    stacking the diagonal columns of the block's generic rows as
    (rows, lanes, 1)."""
    starts = [s for s, step in enumerate(steps) if step[2] is None][::_BLOCK_ROWS]
    return [
        (steps[i:j], np.stack([step[0] for step in steps[i:j] if step[2] is None]))
        for i, j in zip(starts, starts[1:] + [len(steps)])
    ]


def _group(lanes, steps: list) -> tuple:
    """A plan group: its lanes, its steps cut into blocks (_blocks) and the
    number of prelude slots. A plan is made once per solve and counted once
    per bisection round, so the blocks are cut and their entries stacked
    once. Each step also holds the slot of its run's prelude (None for a
    generic row): runs whose a and c columns are equal, as the two paths of
    a bug quotient are, share a slot, and a count computes each slot's
    prelude once (_prelude)."""
    slots: dict[tuple, int] = {}
    marked = []
    for a, c, k in steps:
        slot = None if k is None else slots.setdefault((a.tobytes(), c.tobytes()), len(slots))
        marked.append((a, c, k, slot))
    return lanes, _blocks(marked), len(slots)


def _walk(steps, pivot, entries, x, rows, quotient, preludes):
    """One pass of the negated pivot recurrence over a block of plan steps.

    The pivots are kept negated: row j holds n[j] = (x - a[j]) - c[j]/n[j-1],
    the negative of the LDL^T pivot of T - x. pivot enters the block (None
    before row 0). entries holds the diagonal entries of the block's
    generic rows as (rows, lanes, 1); rows receives x - entries in one
    subtract, and each generic row then turns its own entry into its pivot
    with two numpy calls. A run is jumped in closed form (_jump), with the
    prelude of its slot in preludes, computed here if no run before it in
    the count has. Returns the number of negative LDL^T pivots along the
    block's runs, and the block's last pivot, negated.
    """
    np.subtract(x, entries, out=rows)
    jumped = 0
    r = 0
    for a, c, k, slot in steps:
        if k is None:
            row = rows[r]
            r += 1
            if pivot is not None:
                np.divide(c, pivot, out=quotient)
                np.subtract(row, quotient, out=row)
            pivot = row
        else:
            if preludes[slot] is None:
                preludes[slot] = _prelude(a, c, x)
            run, last = _jump(np.negative(pivot), a, c, k, x, preludes[slot])
            jumped = jumped + run
            pivot = np.negative(last, out=last)
    return jumped, pivot


def _plan_counts(plan: list, shifts: np.ndarray) -> np.ndarray:
    """Non-positive LDL^T pivots of T - x for every lane T and shift x, for
    a plan from _run_plan: shifts is (L, k) and the result (L, k). That is
    the number of eigenvalues below x, up to rounding near an eigenvalue
    (see sturm_count).

    Runs the negated pivot recurrence (_walk) for every lane and shift of
    a group at once and counts pivots n >= 0. The steps go in the blocks
    of up to _BLOCK_ROWS generic rows that _run_plan cut (_blocks), each
    with its rows' diagonal entries stacked. A block costs two numpy calls
    per generic row and one closed-form jump per run, and its signs are
    counted once, at its end. Runs of a group with equal a and c columns
    share one prelude per count. An exact zero pivot needs no test (Kahan;
    Demmel, Dhillon and Ren, ETNA 3, 1995): it arises as +0 and counts,
    its quotient c/(+0) = +inf makes the next pivot -inf, which does not,
    and the row after that starts over at x - a. The pair counts once, as
    the 2x2 block [[0, b], [b, *]] it stands for has one negative
    eigenvalue. A zero ending a run keeps the sign _jump counted it with.
    A shift of -0 would make a zero first pivot -0, which counts, and hand
    on +inf, which counts again, so sturm_count passes +0 instead.
    """
    counts = np.empty(shifts.shape, dtype=np.intp)
    rows_most = max(len(entries) for _, blocks, _ in plan for _, entries in blocks)
    buffer = np.empty(rows_most * shifts.size)
    quotient_buffer = np.empty(shifts.size)
    # a zero or subnormal pivot overflows the next quotient to inf; the
    # pivot after it is then inf of the sign its count needs
    with np.errstate(all="ignore"):
        for lanes, blocks, slots in plan:
            x = shifts[lanes]
            quotient = quotient_buffer[: x.size].reshape(x.shape)
            below = 0
            pivot = None
            preludes = [None] * slots
            for b, (block, entries) in enumerate(blocks):
                rows = buffer[: len(entries) * x.size].reshape((len(entries),) + x.shape)
                jumped, pivot = _walk(block, pivot, entries, x, rows, quotient, preludes)
                below = below + jumped + (rows >= 0.0).sum(axis=0)
                if b + 1 < len(blocks):
                    # the next block writes its pivots over rows
                    pivot = pivot.copy()
            counts[lanes] = below
    return counts


def sturm_count(t: SymTridiag, x: float) -> int:
    """Number of eigenvalues of t less than x, up to rounding near one.

    Away from the eigenvalues (beyond rounding of the LDL^T recurrence)
    this is the number strictly below x. At an exact eigenvalue it is not
    that number under any zero-pivot rule: it lies between the numbers
    below x and at most x. x = -inf gives 0 and x = +inf the order; -0.0
    counts as +0.0. A NaN shift, or one that is no real number (a bool, a
    string), raises ValueError.
    """
    if x != x:
        raise ValueError("shift must not be NaN")
    if x not in (-math.inf, math.inf):
        x = _check_real("shift", x)
    x = float(x) + 0.0  # -0.0 + 0.0 is +0.0
    runs, scales = _fitted(_lane_runs([t]))
    return int(_plan_counts(_run_plan(runs, t.order), scales[:, None] * x)[0, 0])


def _deeper(trees: int, depth: int) -> bool:
    """Whether a round of trees trees takes one level more than depth: while
    that gives more levels per unit of round cost (_ROUND_COST plus one per
    shift), so while that cost exceeds depth times the next level's shifts."""
    return _ROUND_COST + trees * (2**depth - 1) > depth * trees * 2**depth


def _tree_depth(trees: int, width: np.ndarray, stop: np.ndarray, active: np.ndarray, left: int):
    """Levels of each tree to evaluate this round: as many as _deeper
    allows, but no more than the open bracket widest against its stop
    needs, nor than left, the steps left below _MAX_BISECTION_STEPS. Also
    whether an open bracket may stop above its leaf: a level halves a
    bracket up to an ulp of its ends and its stop never grows, so one more
    than 2**depth times wider than its stop cannot."""
    if not _deeper(trees, 1):
        return 1, False
    # an open bracket is wider than its stop and a closed one is not
    ratio = width / stop
    widest, depth = ratio.max(), 1
    while depth < left and 2.0**depth < widest and _deeper(trees, depth):
        depth += 1
    return depth, depth > 1 and ratio[active].min() <= 2.0**depth


def _stops(lower: np.ndarray, upper: np.ndarray, tol: np.ndarray, ulps: bool):
    """Width and stop (tol, or 4 ulps where larger, read only if ulps) of
    brackets: open while width > stop."""
    if not ulps:
        return upper - lower, tol
    # max(-lower, upper) is max(|lower|, |upper|) as lower <= upper
    return upper - lower, np.maximum(tol, 4.0 * np.spacing(np.maximum(-lower, upper)))


def _scalar_bisection(runs: tuple, wanted: list, lo, hi, tol, ulps):
    """The wanted eigenvalues (1-based indices, ascending and distinct) of
    lanes below _RUN_PLAN_MIN_ORDER, one dict per lane from index to value,
    bisected on Python floats from the lanes' runs (_lane_runs) and
    lane_eigenvalues's brackets lo..hi, tolerances tol and 4-ulp flags ulps
    (arrays of shape (L,)).

    Walks each lane's bisection tree one node at a time, with one Sturm
    count per node: the row loop of _walk on scalars, (x - a) - c/n with c
    the floored squared lead. A zero pivot's quotient is inf of its sign, as
    c/(+-0) is in numpy: Python raises ZeroDivisionError there, and the row
    is finished from that inf. A node's indices go left where the count at
    its midpoint reaches them, as in the tree descent, and a node stops
    where _stops would close it, so every value has the multisection
    rounds' bits. A node of index m (rho) alone goes right at its first
    negative pivot, one of index 1 alone left at its first non-negative
    one, each the other way if there is none: the full count's decision,
    from 65 % and 75 % of the rows on the bench's radius-scan calls.
    A node still open at depth _MAX_BISECTION_STEPS raises ConvergenceError.
    """
    diag, lead, reps, first = runs
    shape = (first.size, -1)
    rows = np.repeat(diag, reps).reshape(shape).tolist()
    squares = np.repeat(_lead_squares(lead)[1], reps).reshape(shape).tolist()
    m = len(rows[0])
    found = []
    for a, c, start, end, stop, near in zip(
        rows, squares, lo.tolist(), hi.tolist(), tol.tolist(), ulps.tolist()
    ):
        top, rest = a[0], list(zip(a[1:], c[1:]))
        values = {}
        # a node descends to its left child and leaves its right child here
        # when the indices split between them
        nodes = [(start, end, 0, wanted)]
        while nodes:
            lower, upper, depth, indices = nodes.pop()
            least, most = indices[0], indices[-1]
            # index m alone, or 1 alone: the node stops its count early
            extreme = least == m or most == 1
            while True:
                width = upper - lower
                # _stops, read only in a lane whose 4 ulps can bind:
                # max(-lower, upper) is max(|lower|, |upper|) as lower <=
                # upper, and math.ulp is np.spacing on it
                if width <= stop or (near and width <= 4.0 * math.ulp(max(-lower, upper))):
                    values.update(dict.fromkeys(indices, 0.5 * (lower + upper)))
                    break
                if depth >= _MAX_BISECTION_STEPS:
                    raise ConvergenceError(
                        f"bisection did not converge in {depth} steps; open bracket {width:.3e}"
                    )
                depth += 1
                x = (lower + upper) * 0.5
                pivot = x - top
                below = pivot >= 0.0
                steps = iter(rest)
                while True:
                    try:
                        if not extreme:
                            for entry, square in steps:
                                pivot = (x - entry) - square / pivot
                                if pivot >= 0.0:
                                    below += 1
                        elif least == m:
                            # below m from the first negative pivot on
                            if pivot >= 0.0:
                                for entry, square in steps:
                                    pivot = (x - entry) - square / pivot
                                    if pivot < 0.0:
                                        break
                        elif pivot < 0.0:
                            # above 0 from the first non-negative pivot on
                            for entry, square in steps:
                                pivot = (x - entry) - square / pivot
                                if pivot >= 0.0:
                                    break
                        break
                    except ZeroDivisionError:
                        # the row's quotient is inf of the zero pivot's sign
                        # (c > 0), so its pivot is -inf after +0 and +inf
                        # after -0; the loop resumes at the next row, or an
                        # extreme node's stops there by the sign tests above
                        pivot = -math.copysign(math.inf, pivot)
                        below += pivot > 0.0
                if extreme:
                    # the last pivot taken is negative just where the
                    # count is below the node's one index
                    below = least - (pivot < 0.0)
                # the indices reached are those up to below
                if below < least:
                    lower = x
                    continue
                if below < most:
                    split = bisect.bisect_right(indices, below)
                    nodes.append((x, upper, depth, indices[split:]))
                    indices = indices[:split]
                    most = indices[-1]
                    extreme = most == 1
                upper = x
        found.append(values)
    return found


def lane_eigenvalues(lanes, indices, config: SolveConfig | None = None) -> np.ndarray:
    """Selected eigenvalues of L symmetric tridiagonals of one order.

    indices are 1-based positions in any order, repeats allowed (1 is the
    smallest, the order m the largest). Returns an (L, len(indices)) array
    whose entry [l, j] is eigenvalue indices[j] of lanes[l].

    Every (lane, index) pair keeps its own bracket, started at the lane's
    padded Gershgorin interval and bisected until it is no wider than
    bisection_tol times max(1, Gershgorin span), or 4 ulps where that is
    larger (read only where 4 ulps of some lane's padded ends are larger).
    All brackets advance in lockstep, and brackets on the same interval of
    a lane share its midpoints: a round lays out the next levels of the
    bisection tree of each distinct (lane, interval) bracket as sorted
    breakpoints, counts them in one pass of the kernel (_plan_counts, on
    the plan _run_plan cuts once per solve) and moves each bracket down its
    tree in one descent, level by level as in plain bisection, whether the
    counts rise or dip (possible from the closed-form jumps near an
    eigenvalue); the descent stops a bracket at the first closed node on
    its path. Parted brackets never share again: once sharing saves fewer
    than _LAYOUT_COST shifts a round and one tree per bracket would take as
    many levels, the call runs one tree per bracket. A round's depth counts
    its trees, each lane padded to the widest lane's count: it is as deep
    as gives the most levels per unit of a round's cost (_ROUND_COST plus
    one per shift), and a round deeper than one level holds at most 3,597
    shifts.
    So while brackets are few (a full spectrum's first rounds, or one index
    per lane) a round goes several levels deep, but never deeper than the
    widest open bracket needs nor past _MAX_BISECTION_STEPS levels in all,
    where a bracket still open raises ConvergenceError. From order
    _RUN_PLAN_MIN_ORDER up, a count jumps a lane's uniform runs of rows in
    closed form, which can differ from walking every row only at shifts
    within rounding of an eigenvalue. Below that order, a call whose lanes
    x distinct indices x order is at most _SCALAR_MAX_WORK runs no rounds:
    it walks each lane's tree one node at a time on Python floats
    (_scalar_bisection), with the same midpoints, counts and stops, so the
    same bits; its fixed cost is lower, and its cost per node higher, than
    a round's, and a node of the largest or the smallest index alone stops
    its count at the first pivot that decides it (the constant has the
    crossover measurement). A bracket's
    value depends only on its own lane and index, so asking for one
    eigenvalue gives the same bits as reading it off the full spectrum.
    indices must be integers (not bools). A lane whose padded Gershgorin
    interval reaches past half the largest float raises ValueError: its
    midpoints overflow. A lane whose largest |lead| squares past the
    largest float (above about 1.34e154) is solved times a power of two
    and its values scaled back (_fitted); other lanes keep their bits.
    This function checks the lanes and indices, and _run_eigenvalues
    solves the lanes' runs.
    """
    lanes = list(lanes)
    if not lanes:
        raise ValueError("need at least one tridiagonal")
    m = lanes[0].order
    if any(t.order != m for t in lanes):
        raise ValueError("every lane must have the same order")
    need = np.asarray(indices).reshape(-1)
    # a bool among ints becomes an int in need: look at the elements given
    given = () if isinstance(indices, np.ndarray) else np.asarray(indices, dtype=object).ravel()
    integers = need.dtype.kind in "iu" and not any(isinstance(v, (bool, np.bool_)) for v in given)
    if not integers or need.size == 0 or need.min() < 1 or need.max() > m:
        shown = list(given) or need.tolist()
        raise ValueError(f"eigenvalue indices must be integers in 1..{m}, got {shown}")
    return _run_eigenvalues(_lane_runs(lanes), m, need, config)


def _brackets(runs: tuple, cfg: SolveConfig):
    """Each lane's padded Gershgorin ends lo and hi, its stop tol and its
    largest |lead| (lane_eigenvalues), from the lanes' runs (_lane_runs):
    arrays of shape (L,)."""
    # entries near the float limit overflow these sums to inf: such a lane
    # is rejected by _run_eigenvalues
    with np.errstate(over="ignore"):
        lo, hi, top = _lane_bounds(runs)
        tol = cfg.bisection_tol * np.maximum(1.0, hi - lo)
        # widen so counts at the ends are unambiguous even when an eigenvalue
        # sits exactly on a Gershgorin endpoint
        pad = tol + 16.0 * np.finfo(float).eps * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        return lo - pad, hi + pad, tol, top


def _run_eigenvalues(runs: tuple, m: int, need: np.ndarray, config: SolveConfig | None = None):
    """lane_eigenvalues of lanes of order m given as their runs
    (_lane_runs), at need, an array of indices already checked: the solve
    that scans and sweeps call on quotients built as runs
    (structured._bug_runs)."""
    cfg = config or DEFAULT_CONFIG
    if m == 1:
        return np.repeat(runs[0][:, None], need.size, axis=1)
    lo, hi, tol, top = _brackets(runs, cfg)
    reach = float(np.max(np.maximum(-lo, hi)))
    if not reach <= 0.5 * np.finfo(float).max:
        raise ValueError(
            f"Gershgorin bound {reach:.3e} exceeds half the largest float: "
            "bisection midpoints would overflow"
        )
    if top.max() <= _LEAD_MAX:
        return _bisect(runs, m, need, lo, hi, tol)
    # lanes whose squared leads overflow are solved scaled (_fitted), and
    # their values scaled back
    runs, scales = _fitted(runs)
    return _bisect(runs, m, need, *_brackets(runs, cfg)[:3]) / scales[:, None]


def _bisect(runs: tuple, m: int, need: np.ndarray, lo, hi, tol):
    """The values of _run_eigenvalues, from the brackets lo..hi and stops
    tol of _brackets, by the Python-float walk or by rounds."""
    # a bracket's 4 ulps are at most those of its lane's padded ends, so the
    # 4-ulp stop can bind only in lanes where those exceed tol
    ulps = 4.0 * np.spacing(np.maximum(-lo, hi)) > tol
    if m < _RUN_PLAN_MIN_ORDER:
        picked = need.tolist()
        # a set, not np.unique, whose first call costs about 1 MB of RSS
        wanted = sorted(set(picked))
        if lo.size * len(wanted) * m <= _SCALAR_MAX_WORK:
            found = _scalar_bisection(runs, wanted, lo, hi, tol, ulps)
            return np.array([[values[k] for k in picked] for values in found])
    # one bracket per (lane, index), flattened lane-major and, within a
    # lane, in ascending index order: brackets that share an interval are
    # then neighbours, and once parted they never share again
    order = np.argsort(need, kind="stable")
    shape = (lo.size, need.size)
    lower = np.repeat(lo, need.size)
    upper = np.repeat(hi, need.size)
    ulps = bool(ulps.any())
    tol = np.repeat(tol, need.size)
    need = np.tile(need[order], lo.size)
    plan = _run_plan(runs, m)
    width, stop = _stops(lower, upper, tol, ulps)
    active = width > stop
    # the layout: bracket j's tree is tree_of[j], each for one tree a bracket;
    # a shared layout (None before the first round) is laid out every round
    each = np.arange(lower.size)
    trees, tree_of = lower.size, each if shape[1] == 1 else None
    steps = 0
    while active.any():
        if steps >= _MAX_BISECTION_STEPS:
            raise ConvergenceError(
                f"bisection did not converge in {steps} steps; "
                f"widest bracket {float(np.max(upper - lower)):.3e}"
            )
        if tree_of is not each:
            distinct = np.append(True, (lower[1:] != lower[:-1]) | (upper[1:] != upper[:-1]))
            distinct[:: shape[1]] = True
            # each lane is padded to the widest lane's count: shifts stay (L, k)
            slot = np.cumsum(distinct.reshape(shape), axis=1) - 1
            per_lane = int(slot[:, -1].max()) + 1
            trees = shape[0] * per_lane
            tree_of = (np.arange(shape[0])[:, None] * per_lane + slot).ravel()
        left = _MAX_BISECTION_STEPS - steps
        depth, may_stop = _tree_depth(trees, width, stop, active, left)
        # parted brackets never share again, so the shifts a layout saves
        # only fall: once too few, one tree per bracket for good
        if (
            tree_of is not each
            and (lower.size - trees) * (2**depth - 1) < _LAYOUT_COST
            and _tree_depth(lower.size, width, stop, active, left)[0] == depth
        ):
            trees, tree_of = lower.size, each
        steps += depth
        n = 2**depth
        # column r holds tree r's breakpoints in order: its ends, then level
        # by level the midpoint of every pair of neighbours s apart
        ends = np.zeros((n + 1, trees))
        if tree_of is each:
            ends[0], ends[n] = lower, upper
        else:
            ends[0, tree_of], ends[n, tree_of] = lower, upper
        for s in (n >> k for k in range(depth)):
            mid = ends[s // 2 :: s]
            np.multiply(np.add(ends[0:n:s], ends[s::s], out=mid), 0.5, out=mid)
        # counts[(b - 1) * trees + r] counts ends[b, r]: each lane's shifts
        # go breakpoint by breakpoint, tree by tree
        inner = ends[1:n].reshape(n - 1, shape[0], -1)
        counts = _plan_counts(plan, inner.transpose(1, 0, 2).reshape(shape[0], -1))
        counts = counts.reshape(shape[0], n - 1, -1).transpose(1, 0, 2).ravel()
        # each bracket descends its tree one level at a time, as plain
        # bisection does, from node p = 0 to p .. p + half: right where the
        # midpoint's count is below its index, whether the counts rise or
        # dip. node carries p * trees + r, where ends holds p's value. An
        # open bracket takes its node at the leaf and, where may_stop
        # allows, at each level above it, so it stops at the first closed
        # node on its path even where the ulp part of a deeper node's stop
        # would let it reopen. Checking stops at every level of every round
        # instead was 13 % slower on spectrum-large
        node = tree_of
        for half in (n >> k for k in range(1, depth + 1)):
            right = counts.take(node + (half - 1) * trees if half > 1 else node) < need
            node = node + (half * trees) * right
            if may_stop or half == 1:
                lower = np.where(active, ends.take(node), lower)
                upper = np.where(active, ends.take(node + half * trees), upper)
                width, stop = _stops(lower, upper, tol, ulps)
                active &= width > stop
    values = np.empty(shape)
    values[:, order] = (0.5 * (lower + upper)).reshape(shape)
    return values


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


def _symmetric(a) -> tuple[np.ndarray, float]:
    """a as a float array, and its Frobenius norm; ValueError unless a is
    square and symmetric and its entries and norm are finite."""
    w = np.array(a, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    # first, so a NaN entry, which equals nothing, is not called asymmetric
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.sqrt(np.sum(w * w)))
    if not math.isfinite(norm):
        raise ValueError("matrix entries and their Frobenius norm must be finite")
    if not np.array_equal(w, w.T):
        raise ValueError("matrix must be symmetric")
    return w, norm


def jacobi_eigenvalues(a, config: SolveConfig | None = None) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix by cyclic-by-rows Jacobi.

    Sweeps rotate every pair p < q in row order, on a list of row lists of
    Python floats, until the off-diagonal norm is at most jacobi_off_tol
    times the Frobenius norm. A rotation J(p, q) makes one pass over k: it
    rotates entry k of rows p and q (c x - s y and s x + c y over the old
    ones) and stores each new value in its row and, by symmetry, in column
    p or q of row k. The matrix stays symmetric bit for bit: the column
    rotation of entry (k, p), k not p or q, takes the very products the row
    rotation took for (p, k). The pass goes wrong only inside the 2x2 block
    at (p, q), whose entry (p, q) it overwrites at k = p and reads again at
    k = q; the block is set afterwards from scalar formulas that apply the
    column step to the row step's values, taken from the old block. Its old
    entry (q, p) is apq, as the matrix is symmetric and apq is not a zero
    of either sign. A rotation on numpy rows (c * x - s * y over whole
    rows, copied into the columns) takes the same operations in the same
    order and gives the same bits.

    Lists beat numpy rows at small orders, where a rotation would pay for
    about 16 numpy calls on short rows: at order 16 they take about half
    the time, at 40 about 0.92 of it. From about order 44 numpy rows win,
    by 1.38 times at 64, 2.2 at 120 and 3.1 at 200 (B(m, m/2, m/6) at
    alpha 0.4 and random symmetric matrices, 2-core x86-64, Python 3.11,
    numpy 2.4). Every benchmarked call is of order 12 or less, so one
    kernel serves every order.
    """
    cfg = config or DEFAULT_CONFIG
    w, norm = _symmetric(a)
    m = w.shape[0]
    # A diagonal matrix, 1 x 1 and all-zero ones included, meets the stop
    # test before the first sweep and returns its sorted diagonal.
    stop = cfg.jacobi_off_tol * norm
    # Entries below this cannot by themselves keep the off-norm above stop,
    # so skipping them is safe and saves the tail sweeps. max(m, 1) spares
    # the 0 x 0 matrix a division by zero.
    skip = stop / (2.0 * max(m, 1))
    rows = w.tolist()
    for _ in range(cfg.max_jacobi_sweeps):
        w = np.reshape(rows, (m, m))
        if _offdiag_norm(w) <= stop:
            return np.sort(w.diagonal())
        for p in range(m - 1):
            x = rows[p]
            for q in range(p + 1, m):
                apq = x[q]
                if abs(apq) <= skip:
                    continue
                y = rows[q]
                app, aqq = x[p], y[q]
                # symmetric Schur 2x2: smaller-angle root for stability
                tau = (aqq - app) / (2.0 * apq)
                sign = 1.0 if tau >= 0.0 else -1.0
                tval = sign / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + tval * tval)
                s = tval * c
                # entries (p, p), (p, q), (q, p) and (q, q) of the rotated rows
                pp, pq = c * app - s * apq, c * apq - s * aqq
                qp, qq = s * app + c * apq, s * apq + c * aqq
                for k, row in enumerate(rows):
                    u, v = x[k], y[k]
                    row[p] = x[k] = c * u - s * v
                    row[q] = y[k] = s * u + c * v
                x[p] = c * pp - s * pq
                y[q] = s * qp + c * qq
                x[q] = y[p] = 0.0
    w = np.reshape(rows, (m, m))
    remaining = _offdiag_norm(w)
    if remaining <= stop:
        return np.sort(w.diagonal())
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
    w, _ = _symmetric(a)
    if np.any(w < 0.0):
        raise ValueError("matrix must be entrywise nonnegative")
    m = w.shape[0]
    if m == 0:
        raise ValueError("matrix is empty: it has no dominant eigenpair")
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
