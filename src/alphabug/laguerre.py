"""Certified Laguerre steps for eigenvalues of symmetric tridiagonals
below eigensolve._RUN_PLAN_MIN_ORDER, from their rows (eigensolve._rows):
a loop on the Python floats of one lane (_scalar_top) and the same loop on
lane arrays (_lane_tops), with the same bits. eigensolve._solve takes each
lane's largest eigenvalue from them, its smallest as minus the top of the
lane with its diagonal negated and, at eigensolve._FINISH_ORDERS, each
value between them from the bisection node that isolates it.

Kept apart from eigensolve: compiling a module briefly holds its whole
syntax tree, so where no bytecode is cached, peak memory at import
follows the largest module.
"""

from __future__ import annotations

import math

import numpy as np

# A lane still stepping after this many evaluations is bisected: bug quotients
# take 2-5 (rho) or 2-13, random tridiagonals 12 at most, and a double rho,
# which plain steps approach only linearly, 27-33.
_MAX_STEPS = 16
# A step of at most this times |x| is certified where it lands (the next is
# below rounding), over a bracket at least _FLOOR wide, so that values near 0
# certify too.
_NEAR = 1e-6
_FLOOR = 2.0 * float(np.finfo(float).eps)
# _lane_tops hands its lanes to the Python-float loop once at most this many
# still step: on 128 lanes of order 31 its last iterations ran 13, 4 and 2.
_TAIL_LANES = 16


def _under(x: float, row: list, skip: int = 0) -> bool:
    """Whether a lane's count at x (eigensolve._plan_counts) is below its
    order less skip, from its rows (eigensolve._row_lists): more than skip
    pivots are negative, a zero one (+0) handing on -inf."""
    pivot, wrong = 1.0, 0
    for entry, square in row:
        pivot = (x - entry) - square / pivot if pivot else -math.inf
        if pivot < 0.0:
            wrong += 1
            if wrong > skip:
                return True
    return False


def _certified(row: list, x: float, under: bool, skip: int = 0) -> float:
    """The midpoint of the bracket from x toward eigenvalue m - skip of a
    lane of order m, max(4 ulp(x), _FLOOR) wide, or NaN unless its far
    end's count differs from under, whether the count at x is below that
    index (_under)."""
    width = max(4.0 * math.ulp(x), _FLOOR)
    end = x + width if under else x - width
    return 0.5 * (x + end) if _under(end, row, skip) != under else math.nan


def _over(m: int, y: float) -> float:
    """m / y, and inf of y's sign at y = +-0, as numpy gives it."""
    return m / y if y else math.copysign(math.inf, y)


def _scalar_top(row: list, x: float, bottom: bool = False, skip: int = 0,
                safe: float | None = None, double: bool | None = None,
                left: int | None = None) -> float:
    """_lane_tops of one lane, on Python floats from its rows
    (eigensolve._row_lists); safe (x), double (bottom) and left, the
    evaluations left (_MAX_STEPS), where given, resume a lane from its array
    state."""
    m = len(row)
    safe = x if safe is None else safe
    double = bottom if double is None else double
    # negative pivots stop the top's steps only
    climb = bottom or skip > 0
    # an inner value near 0 certifies once a step is within _FLOOR
    floor = _FLOOR if skip else 0.0
    for _ in range(_MAX_STEPS if left is None else left):
        p, r, v, s1, s2, wrong = 1.0, 0.0, 0.0, 0.0, 0.0, 0
        for entry, square in row:
            t = square / p
            p = (x - entry) - t
            if not p > 0.0:
                if not (climb and p < 0.0):
                    return _certified(row, x, p < 0.0 or _under(x, row, skip), skip)
                wrong += 1
            t /= p
            g = t * (r * r + v)
            r = 1.0 / p + t * r
            v = r * r + g
            s1 += r
            s2 += v
        extra = wrong - skip
        if extra > 1 or extra < 0:
            x, double = safe, False
            continue
        spread = m * s2 - s1 * s1
        disc = (m - 1) * spread
        root = math.sqrt(disc if disc > 0.0 else 0.0)
        if extra:
            step = _over(m, s1 - root)
        else:
            step = _over(m, s1 + root)
            safe = x - step
            if double and s1 * s1 > 1.5 * s2:
                disc = (m - 2) / 2 * spread
                step = _over(m, s1 + math.sqrt(disc if disc > 0.0 else 0.0))
        size = abs(step)
        if not size > 2.0 * math.ulp(x):
            return _certified(row, x, extra > 0, skip)
        near = size <= _NEAR * abs(x) or size <= floor
        x -= step
        if near:
            value = _certified(row, x, _under(x, row, skip), skip)
            if value == value:
                return value
    return math.nan


def _row_counts(a: np.ndarray, c: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """eigensolve._plan_counts of lanes at shifts (L, k), with its
    operations, from their rows as columns: a and c of shape (m, L), c[0]
    unread."""
    rows = shifts - a[:, :, None]
    for k in range(1, len(rows)):
        np.subtract(rows[k], c[k][:, None] / rows[k - 1], out=rows[k])
    return (rows >= 0.0).sum(axis=0)


def _lane_tops(a: np.ndarray, c: np.ndarray, x: np.ndarray, bottom: bool = False,
               skip: np.ndarray | None = None, safe: np.ndarray | None = None) -> np.ndarray:
    """The top eigenvalue of each lane, from its rows (eigensolve._rows: a
    and c of shape (L, m)), by Laguerre steps down from x, or NaN where it
    must be bisected. The pivots n = (x - a) - c/n' carry r = n'/n and
    v = r^2 - n''/n, summed into S1 = sum 1/(x - l) and S2 = sum
    1/(x - l)^2; above the eigenvalues l, x - m/(S1 + sqrt((m - 1)(m S2 -
    S1^2))) falls to the top cubically (Li and Zeng, SIAM J. Sci. Comput.
    15, 1994). A step of at most _NEAR |x| is taken and certified: counts
    at x and x -+ w, w = max(4 ulp(x), _FLOOR), must see the top in that
    bracket, whose midpoint is the value, or the steps go on. At a step of
    2 ulps or less, a non-finite S1 or S2 or a pivot not above 0 (a last
    step lands below the top about half the time), the counts decide at
    once.

    bottom (negated lanes, whose top is minus the smallest value) serves a
    near-double top, as two pendant paths give: where S1^2 > 1.5 S2 the
    step is the one for a double root, x - m/(S1 + sqrt((m - 2)/2 (m S2 -
    S1^2))). With bottom a negative pivot does not stop the steps (a zero
    one does): a lane with one climbs back by Laguerre's other root,
    x - m/(S1 - sqrt(...)), which rises monotonically to the top, and one
    with more, past the next value, goes back to the plain step from its
    last point above the top (safe, x where not given) and takes only
    plain steps. More than _MAX_STEPS evaluations give NaN.

    skip, given, asks each lane for eigenvalue m - skip instead, from an x
    whose count is that index, or one less: between two eigenvalues the
    plain step falls monotonically to the lower one and the other root
    rises to the upper one, as at the top. Its steps go as bottom's, with
    skip more negative pivots and plain steps only.

    Lanes step as arrays with _scalar_top's operations in its order, so its
    bits, until at most _TAIL_LANES still step: those go on in _scalar_top
    from their state."""
    m = a.shape[1]
    climb = bottom or skip is not None
    skip = np.zeros(x.size, dtype=np.intp) if skip is None else skip
    floor = np.where(skip > 0, _FLOOR, 0.0)
    a, c = a.T.copy(), c.T.copy()
    x, double = x.copy(), np.full(x.size, bottom)
    safe = x.copy() if safe is None else safe.copy()
    value, live = np.full(x.size, math.nan), np.arange(x.size)
    # rows past a pivot not above 0 make infs and NaNs that no lane reads
    with np.errstate(all="ignore"):
        for used in range(_MAX_STEPS):
            if live.size <= _TAIL_LANES:
                rows = zip(a.T.tolist(), c.T.tolist())
                for j, (entries, squares) in zip(live.tolist(), rows):
                    value[j] = _scalar_top(list(zip(entries, squares)), float(x[j]), bottom,
                                           int(skip[j]), float(safe[j]), bool(double[j]),
                                           _MAX_STEPS - used)
                break
            at = x[live]
            n = at - a
            p, r, v, s1, s2 = 1.0, 0.0, 0.0, 0.0, 0.0
            for k in range(m):
                t = c[k] / p
                p = np.subtract(n[k], t, out=n[k])
                t = t / p
                g = t * (r * r + v)
                r = 1.0 / p + t * r
                v = r * r + g
                s1, s2 = s1 + r, s2 + v
            extra = (n < 0.0).sum(axis=0) - skip[live]
            # where _scalar_top returns: a pivot not above 0, or climbing a zero one
            stop = ~((n > 0.0) | (n < 0.0) if climb else n > 0.0).all(axis=0)
            back = ~stop & ((extra > 1) | (extra < 0))
            spread = m * s2 - s1 * s1
            disc = (m - 1) * spread
            root = np.sqrt(np.where(disc > 0.0, disc, 0.0))
            step = m / (s1 + root)
            if climb:
                safe[live] = np.where(extra == 0, at - step, safe[live])
                if bottom:
                    twice = double[live] & (s1 * s1 > 1.5 * s2)
                    disc = (m - 2) / 2 * spread
                    step = np.where(twice, m / (s1 + np.sqrt(np.where(disc > 0.0, disc, 0.0))),
                                    step)
                step = np.where(extra == 1, m / (s1 - root), step)
                x[live[back]] = safe[live[back]]
                double[live[back]] = False
            moving = ~stop & ~back & (np.abs(step) > 2.0 * np.spacing(np.abs(at)))
            near = moving & (np.abs(step) <= np.maximum(_NEAR * np.abs(at), floor[live]))
            x[live] = np.where(moving, at - step, x[live])
            done = ~back & ~moving
            check = done | near
            go = ~done
            if check.any():
                point = x[live[check]]
                width = np.maximum(4.0 * np.spacing(np.abs(point)), _FLOOR)
                shifts = np.stack([point - width, point, point + width], axis=1)
                index = (m - skip[live[check]])[:, None]
                below = _row_counts(a[:, check], c[:, check], shifts) < index
                under = below[:, 1]
                held = np.where(under, below[:, 2], below[:, 0]) != under
                end = np.where(under, point + width, point - width)
                value[live[check]] = np.where(held, 0.5 * (point + end), math.nan)
                go[check] &= ~held
            live = live[go]
            if not live.size:
                break
            a, c = a[:, go], c[:, go]
    return value
