"""Certified Laguerre steps for eigenvalues of symmetric tridiagonals
below eigensolve._RUN_PLAN_MIN_ORDER, on the Python floats of one lane's
rows (the (entry, square) pairs of eigensolve._row_lists and
_float_brackets): _scalar_top. eigensolve._solve takes each lane's largest
eigenvalue from it, its smallest as minus the top of the lane with its
diagonal negated and, at eigensolve._FINISH_ORDERS, each value between
them from the bisection node that isolates it.

Kept apart from eigensolve: compiling a module briefly holds its whole
syntax tree, so where no bytecode is cached, peak memory at import
follows the largest module.
"""

from __future__ import annotations

import math
import sys

# A lane still stepping after this many evaluations is bisected: bug quotients
# take 2-5 (rho) or 2-13, random tridiagonals 12 at most, and a double rho,
# which plain steps approach only linearly, 27-33.
_MAX_STEPS = 16
# A step of at most this times |x| is certified where it lands (the next is
# below rounding), over a bracket at least _FLOOR wide, so that values near 0
# certify too.
_NEAR = 1e-6
_FLOOR = 2.0 * sys.float_info.epsilon


def _under(x: float, row: list, skip: int = 0) -> bool:
    """Whether a lane's count at x (eigensolve._plan_counts) is below its
    order less skip, from its rows (eigensolve._row_lists or
    _float_brackets): more than skip pivots are negative, a zero one (+0)
    handing on -inf."""
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
    lane of order m, max(4 ulp(x), _FLOOR) wide, or +0 where the bracket
    holds 0, or NaN unless its far end's count differs from under, whether
    the count at x is below that index (_under)."""
    width = max(4.0 * math.ulp(x), _FLOOR)
    end = x + width if under else x - width
    if _under(end, row, skip) == under:
        return math.nan
    # an exact zero would print as its bracket's rounding noise
    return 0.0 if min(x, end) <= 0.0 <= max(x, end) else 0.5 * (x + end)


def _over(m: int, y: float) -> float:
    """m / y, and inf of y's sign at y = +-0, as numpy gives it."""
    return m / y if y else math.copysign(math.inf, y)


def _scalar_top(row: list, x: float, bottom: bool = False, skip: int = 0,
                safe: float | None = None) -> float:
    """The top eigenvalue of a lane of order m, from its rows
    (eigensolve._row_lists or _float_brackets), by Laguerre steps down from
    x, or NaN where it must be bisected. The pivots n = (x - a) - c/n'
    carry r = n'/n and v = r^2 - n''/n, summed into S1 = sum 1/(x - l) and
    S2 = sum 1/(x - l)^2; above the eigenvalues l, x - m/(S1 + sqrt((m - 1)(m
    S2 - S1^2))) falls to the top cubically (Li and Zeng, SIAM J. Sci.
    Comput. 15, 1994). A step of at most _NEAR |x| is taken and certified:
    counts at x and x -+ w, w = max(4 ulp(x), _FLOOR), must see the top in
    that bracket, whose midpoint is the value (+0 where it holds 0), or
    the steps go on. At a step of 2 ulps or less, a non-finite S1 or S2 or
    a pivot not above 0 (a last step lands below the top about half the
    time), the counts decide at once.

    bottom (a negated lane, whose top is minus the smallest value) serves a
    near-double top, as two pendant paths give: while S1^2 > 1.5 S2 the
    step is the one for a double root, x - m/(S1 + sqrt((m - 2)/2 (m S2 -
    S1^2))). With bottom a negative pivot does not stop the steps (a zero
    one does): a lane with one climbs back by Laguerre's other root,
    x - m/(S1 - sqrt(...)), which rises monotonically to the top, and one
    with more, past the next value, goes back to the plain step from its
    last point above the top (safe, x where not given) and takes only
    plain steps. More than _MAX_STEPS evaluations give NaN.

    skip asks for eigenvalue m - skip instead, from an x whose count is
    that index, or one less: between two eigenvalues the plain step falls
    monotonically to the lower one and the other root rises to the upper
    one, as at the top. Its steps go as bottom's, with skip more negative
    pivots and plain steps only."""
    m = len(row)
    safe = x if safe is None else safe
    double = bottom
    # negative pivots stop the top's steps only
    climb = bottom or skip > 0
    # an inner value near 0 certifies once a step is within _FLOOR
    floor = _FLOOR if skip else 0.0
    for _ in range(_MAX_STEPS):
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
