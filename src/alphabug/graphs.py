"""Bug graphs and their dense A_alpha matrices.

A bug is a complete graph with one edge uv removed and a path glued onto
each of u and v. The structured spectrum code reduces it to a quotient of
order d+1; the dense matrix here is assembled straight from the bug's edge
list instead, so that comparing the two checks the reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# what int() and math.isfinite() raise on a value that is no real number
# (None, a string) or no finite one (an infinity, NaN): each check below
# turns these into a ValueError that names the field
_NOT_A_NUMBER = (TypeError, ValueError, OverflowError)
# bool subclasses int, and numpy's bool converts to one: neither is a number
_BOOLS = (bool, np.bool_)


def _check_real(name, value) -> float:
    """value as a float, if it is a finite real number, not a bool or a
    string: the one such check of the library and the CLI. Every other
    check of a real calls it and adds only its own range."""
    try:
        if not isinstance(value, _BOOLS) and math.isfinite(value):
            return float(value)
    except _NOT_A_NUMBER:
        pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def check_alpha(alpha) -> float:
    """Validate the A_alpha weight: a finite real in [0, 1)."""
    value = _check_real("alpha", alpha)
    if 0.0 <= value < 1.0:
        return value
    raise ValueError(f"alpha must lie in [0, 1), got {alpha}")


def _check_int(name, value) -> int:
    try:
        if not isinstance(value, _BOOLS) and int(value) == value:
            return int(value)
    except _NOT_A_NUMBER:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_positive(name, value) -> float:
    """value as a float, if it is a positive finite real (_check_real)."""
    real = _check_real(name, value)
    if real > 0.0:
        return real
    raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class BugSpec:
    """Bug graph parameters in canonical (n, d, i) form.

    Attributes
    ----------
    n : int
        Number of vertices, n >= d + 1.
    d : int
        Diameter, d >= 2.
    i : int
        Length of the left path, canonicalized to 1 <= i <= d // 2
        (the splits i and d - i give isomorphic graphs).
    mirrored : bool
        True when the caller's (q, r) had q > r, so front ends can echo
        the original orientation. Ignored by equality.
    """

    n: int
    d: int
    i: int
    mirrored: bool = field(default=False, compare=False)

    def __post_init__(self):
        for name in ("n", "d", "i"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name)))
        if self.d < 2:
            raise ValueError(f"diameter must be >= 2, got {self.d}")
        if self.n < self.d + 1:
            raise ValueError(
                f"order n={self.n} too small for diameter d={self.d} (need n >= d+1)"
            )
        if not 1 <= self.i <= self.d - 1:
            raise ValueError(f"path split i={self.i} outside 1..d-1 for d={self.d}")
        if self.i > self.d // 2:
            raise ValueError(
                f"canonical form stores i <= d//2 (got i={self.i}, d={self.d}); "
                "use BugSpec.from_ndi to mirror automatically"
            )

    @classmethod
    def from_ndi(cls, n, d, i) -> "BugSpec":
        """Build from (order, diameter, split), mirroring i > d//2 to d - i."""
        n, d, i = _check_int("n", n), _check_int("d", d), _check_int("i", i)
        if d >= 2 and not 1 <= i <= d - 1:
            raise ValueError(f"path split i={i} outside 1..d-1 for d={d}")
        if i > d // 2:
            return cls(n, d, d - i, mirrored=True)
        return cls(n, d, i)

    @classmethod
    def from_pqr(cls, p, q, r) -> "BugSpec":
        """Build from (clique order p, left path length q, right path length r)."""
        p, q, r = _check_int("p", p), _check_int("q", q), _check_int("r", r)
        if p < 3:
            raise ValueError(f"clique order p must be >= 3, got {p}")
        if q < 1 or r < 1:
            raise ValueError(f"path lengths q, r must be >= 1, got q={q}, r={r}")
        return cls.from_ndi(p + q + r - 2, q + r, q)

    @property
    def p(self) -> int:
        return self.n - self.d + 2

    @property
    def q(self) -> int:
        return self.d - self.i if self.mirrored else self.i

    @property
    def r(self) -> int:
        return self.i if self.mirrored else self.d - self.i

    @property
    def order(self) -> int:
        """Number of vertices (the same as n)."""
        return self.n

    @property
    def clique_order(self) -> int:
        """Order of the middle clique K_{n-d} (1 collapses the bug to a path)."""
        return self.n - self.d


def assemble_dense_alpha(bug: BugSpec, alpha) -> np.ndarray:
    """Dense A_alpha = alpha*D + (1-alpha)*A of the bug, from its edge list.

    Vertices are numbered along the bug: the left path ending at u
    (0..i-1), the middle clique K_{n-d}, then v and the right path. The
    edges are the two paths, u and v each joined to every clique vertex,
    and the clique's own edges.
    """
    alpha = check_alpha(alpha)
    n, u, w = bug.n, bug.i - 1, bug.clique_order
    v = u + w + 1
    clique = np.arange(u + 1, v)
    steps = np.concatenate([np.arange(u), np.arange(v, n - 1)])
    x = np.concatenate([steps, np.full(w, u), clique])
    y = np.concatenate([steps + 1, clique, np.full(w, v)])
    a = np.zeros((n, n))
    # the clique's own edges fill its block, whose diagonal is set below
    a[u + 1:v, u + 1:v] = 1.0 - alpha
    a[x, y] = 1.0 - alpha
    a[y, x] = 1.0 - alpha
    degrees = np.bincount(np.concatenate([x, y]), minlength=n)
    degrees[u + 1:v] += w - 1
    np.fill_diagonal(a, alpha * degrees)
    return a
