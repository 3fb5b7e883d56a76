from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

from alphabug import BugSpec, Spectrum, assemble_dense_alpha, bug_spectrum, jacobi_eigenvalues

GRID_ALPHAS = (0.0, 0.25, 0.5, 0.75, 0.99)
GRID_MAX_N = 12


@dataclass(frozen=True)
class GridInstance:
    bug: BugSpec
    alpha: float
    structured: Spectrum
    matrix: np.ndarray
    dense_values: np.ndarray


@dataclass(frozen=True)
class GridResult:
    instances: tuple[GridInstance, ...]
    elapsed_seconds: float


def all_bugs(max_n: int) -> list[BugSpec]:
    """Every canonical bug up to the given order, enumerated directly."""
    return [
        BugSpec(n, d, i)
        for n in range(3, max_n + 1)
        for d in range(2, n)
        for i in range(1, d // 2 + 1)
    ]


@pytest.fixture(scope="session")
def oracle_grid() -> GridResult:
    """Structured and dense spectra for every bug with n <= 12, timed once
    and shared across the suite."""
    started = time.perf_counter()
    instances = []
    for bug in all_bugs(GRID_MAX_N):
        for alpha in GRID_ALPHAS:
            matrix = assemble_dense_alpha(bug, alpha)
            instances.append(
                GridInstance(
                    bug=bug,
                    alpha=alpha,
                    structured=bug_spectrum(bug, alpha),
                    matrix=matrix,
                    dense_values=jacobi_eigenvalues(matrix),
                )
            )
    elapsed = time.perf_counter() - started
    return GridResult(tuple(instances), elapsed)
