"""Spectra of A_alpha matrices of bug graphs.

A bug is a complete graph with one edge removed and a path attached at
each end of the missing edge.  Its A_alpha spectrum splits into a
closed-form eigenvalue of known multiplicity plus the eigenvalues of a
small tridiagonal quotient matrix, which makes million-vertex instances
tractable.  The package ships the structured route, a dense route built
from the bug's edge list, self-contained eigensolvers, and a
verification harness tying them together.
"""

from .eigensolve import (
    DEFAULT_CONFIG,
    SolveConfig,
    SymTridiag,
    gershgorin_interval,
    jacobi_eigenvalues,
    lane_eigenvalues,
    perron_pair,
    sturm_count,
    tridiag_eigenvalues,
)
from .errors import ConvergenceError
from .graphs import BugSpec, assemble_dense_alpha
from .spectrum import Spectrum, SpectrumEntry
from .structured import (
    bug_spectrum,
    bug_tridiagonal,
    halved_tridiagonal,
    proof_decomposition,
    spectral_radius,
)
from .verify import (
    ComparisonReport,
    ScanRow,
    VerificationSummary,
    check_interlacing,
    cluster_multiplicity,
    compare_spectra,
    enumerate_bugs,
    extremal_scan,
    run_verification,
)

__version__ = "0.1.0"

__all__ = [
    "BugSpec",
    "ComparisonReport",
    "ConvergenceError",
    "DEFAULT_CONFIG",
    "ScanRow",
    "SolveConfig",
    "Spectrum",
    "SpectrumEntry",
    "SymTridiag",
    "VerificationSummary",
    "assemble_dense_alpha",
    "bug_spectrum",
    "bug_tridiagonal",
    "check_interlacing",
    "cluster_multiplicity",
    "compare_spectra",
    "enumerate_bugs",
    "extremal_scan",
    "gershgorin_interval",
    "halved_tridiagonal",
    "jacobi_eigenvalues",
    "lane_eigenvalues",
    "perron_pair",
    "proof_decomposition",
    "run_verification",
    "spectral_radius",
    "sturm_count",
    "tridiag_eigenvalues",
]
