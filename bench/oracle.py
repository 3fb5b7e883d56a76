"""Reference spectra the bench checks the program's output against.

Built from the graph definition alone; nothing is imported from
``alphabug``. Two routes:

* small n: A_alpha assembled from the bug's (p, q, r) edge list and solved
  by ``numpy.linalg.eigvalsh``;
* large n: the clique eigenvalue in closed form plus the spectrum of the
  symmetrized quotient of the path of cells (i single vertices, the clique
  K_{n-d}, d-i single vertices), solved by scipy's
  ``eigvalsh_tridiagonal``. The bench tests cross-check this route against
  the edge-list route on every small bug.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

# Scaled correctness tolerance: |printed - reference| <= TOL_SCALE * max(1, rho).
# Bisection stops at 1e-13 of the Gershgorin span (about 2 rho) and the CLI
# prints 12 significant digits (5e-12 rho), so 1e-10 leaves a tenfold margin.
TOL_SCALE = 1e-10


def bug_edges(p: int, q: int, r: int) -> list[tuple[int, int]]:
    """Edges of B(p, q, r): K_p minus the edge (0, 1), with a path of q-1
    further vertices hung on vertex 0 and one of r-1 vertices on vertex 1."""
    edges = [(a, b) for a in range(p) for b in range(a + 1, p) if (a, b) != (0, 1)]
    nxt = p
    for anchor, extra in ((0, q - 1), (1, r - 1)):
        prev = anchor
        for _ in range(extra):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return edges


def edge_list_spectrum(n: int, d: int, i: int, alpha: float) -> np.ndarray:
    """All n eigenvalues of alpha*D + (1-alpha)*A, ascending."""
    adj = np.zeros((n, n))
    for a, b in bug_edges(n - d + 2, i, d - i):
        adj[a, b] = adj[b, a] = 1.0
    matrix = alpha * np.diag(adj.sum(axis=1)) + (1.0 - alpha) * adj
    return np.linalg.eigvalsh(matrix)


def cell_sizes(n: int, d: int, i: int) -> list[int]:
    return [1] * i + [n - d] + [1] * (d - i)


def path_of_cliques_quotient(sizes: list[int], alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized quotient of a path of cells, each cell a clique joined
    completely to the neighbouring cells.

    A vertex of cell j has degree (s_j - 1) + s_{j-1} + s_{j+1}; on
    cell-constant vectors A_alpha acts as alpha*deg_j + (1-alpha)(s_j - 1)
    on the diagonal and (1-alpha) s_k towards a neighbour k, which the
    similarity diag(sqrt(s)) makes symmetric.
    """
    s = np.asarray(sizes, dtype=float)
    beta = 1.0 - alpha
    neighbours = np.zeros_like(s)
    neighbours[1:] += s[:-1]
    neighbours[:-1] += s[1:]
    diag = alpha * (s - 1.0 + neighbours) + beta * (s - 1.0)
    off = beta * np.sqrt(s[:-1] * s[1:])
    return diag, off


def closed_form(n: int, d: int, alpha: float) -> tuple[float | None, int]:
    """The clique eigenvalue and its multiplicity, (None, 0) without a clique.

    A vector on the clique summing to zero sees alpha*(w+1) from the degree
    and -(1-alpha) from the clique adjacency, w = n - d.
    """
    w = n - d
    if w < 2:
        return None, 0
    return alpha * (w + 1) - (1.0 - alpha), w - 1


def quotient_spectrum(n: int, d: int, i: int, alpha: float) -> np.ndarray:
    """The d+1 simple eigenvalues of the bug, ascending."""
    diag, off = path_of_cliques_quotient(cell_sizes(n, d, i), alpha)
    return eigvalsh_tridiagonal(diag, off)


def structured_spectrum(n: int, d: int, i: int, alpha: float) -> np.ndarray:
    """All n eigenvalues from the closed form plus the quotient, ascending."""
    value, mult = closed_form(n, d, alpha)
    parts = [quotient_spectrum(n, d, i, alpha)]
    if mult:
        parts.append(np.full(mult, value))
    return np.sort(np.concatenate(parts))


def tolerance(rho: float) -> float:
    return TOL_SCALE * max(1.0, abs(rho))


def _verify_counts(max_n: int, n_alphas: int) -> tuple[int, int]:
    """(instances, checks) the verify grid runs: per bug and alpha one
    spectrum check plus a cluster check when a clique exists; per balanced
    bug of even d >= 4 three checks at each of three halving alphas."""
    instances = checks = 0
    for n in range(3, max_n + 1):
        for d in range(2, n):
            for i in range(1, d // 2 + 1):
                instances += n_alphas
                checks += n_alphas * (2 if n - d >= 2 else 1)
                if d % 2 == 0 and d >= 4 and i == d // 2:
                    checks += 3 * 3
    return instances, checks


def reference(spec: dict) -> dict:
    """Everything the checks need for one job, computed once per run."""
    kind = spec["kind"]
    if kind == "spectrum":
        n, d, i, alpha = spec["n"], spec["d"], spec["i"], spec["alpha"]
        value, mult = closed_form(n, d, alpha)
        ref = {"closed_form": value, "closed_mult": mult}
        if spec["method"] == "structured":
            quotient = quotient_spectrum(n, d, i, alpha)
            ref.update(quotient=quotient, rho=float(quotient[-1]))
        else:
            full = edge_list_spectrum(n, d, i, alpha)
            ref.update(full=full, rho=float(full[-1]))
        return ref
    if kind == "radius":
        n, d = spec["n"], spec["d"]
        scan = [float(quotient_spectrum(n, d, j, spec["scan_alpha"])[-1])
                for j in range(1, d // 2 + 1)]
        sweep = []
        for alpha in spec["alphas"]:
            quotient = quotient_spectrum(n, d, spec["i"], alpha)
            value, mult = closed_form(n, d, alpha)
            sweep.append({"alpha": alpha, "rho": float(quotient[-1]),
                          "min_quotient": float(quotient[0]),
                          "closed_form": value, "closed_mult": mult})
        return {"scan": scan, "sweep": sweep}
    if kind == "verify":
        instances, checks = _verify_counts(spec["max_n"], len(spec["alphas"]))
        return {"instances": instances, "checks": checks}
    raise ValueError(f"unknown job kind {kind!r}")
