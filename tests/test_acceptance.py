"""End-to-end guarantees of the package, one test per guarantee.

Every test here states an externally checkable fact about the published
behavior -- golden values, oracle agreement, decomposition identities,
extremality, Perron properties, and scaling -- at explicit tolerances.
"""

import json
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import alphabug
from alphabug import (
    DEFAULT_CONFIG,
    BugSpec,
    bug_spectrum,
    bug_tridiagonal,
    check_interlacing,
    cluster_multiplicity,
    compare_spectra,
    extremal_scan,
    halved_tridiagonal,
    lane_eigenvalues,
    perron_pair,
    proof_decomposition,
    spectral_radius,
    tridiag_eigenvalues,
)
from alphabug.cli import JobConfig, _cmd_sweep
from alphabug.spectrum import CLOSED_FORM, QUOTIENT
from oracles import (
    adjacency,
    bug_edges,
    exact_alpha_nullity,
    plain_bisection_eigenvalues,
    signless_laplacian,
)


def test_golden_example_reproduction():
    """The bug with n=11, d=5, i=2 at alpha=0.6 yields the closed-form
    eigenvalue 3.8 with multiplicity 5 and six known quotient eigenvalues,
    in under 10 ms."""
    bug = BugSpec(11, 5, 2)
    durations = []
    for _ in range(3):
        started = time.perf_counter()
        spectrum = bug_spectrum(bug, 0.6)
        durations.append(time.perf_counter() - started)
    closed = spectrum.with_source(CLOSED_FORM)
    assert len(closed) == 1
    assert closed[0].value == pytest.approx(3.8, abs=5e-5)
    assert closed[0].multiplicity == 5
    quotient = [e.value for e in spectrum.with_source(QUOTIENT)]
    expected = [0.3909, 0.5539, 1.3521, 3.5403, 4.2486, 6.9144]
    assert np.allclose(quotient, expected, atol=5e-5)
    assert min(durations) < 0.010


def test_oracle_equivalence_grid(oracle_grid):
    """For every bug with n <= 12 and alpha in {0, 0.25, 0.5, 0.75, 0.99},
    the structured spectrum matches the dense Jacobi solve within 1e-8,
    and computing the whole grid stays under 30 seconds."""
    assert len(oracle_grid.instances) == 625
    worst = 0.0
    for inst in oracle_grid.instances:
        report = compare_spectra(inst.structured, inst.dense_values, 1e-8)
        assert report.matched, (
            f"n={inst.bug.n} d={inst.bug.d} i={inst.bug.i} alpha={inst.alpha}: "
            f"deviation {report.max_abs_deviation:.3e}"
        )
        worst = max(worst, report.max_abs_deviation)
    assert worst <= 1e-8
    assert oracle_grid.elapsed_seconds < 30.0


def halving_grid():
    for d in (4, 6, 8):
        for n in range(d + 1, d + 7):
            for alpha in (0.0, 0.3, 0.7):
                yield BugSpec(n, d, d // 2), alpha


def test_halving_equivalence():
    """For balanced bugs of even diameter, the top eigenvalue of the
    half-size matrix equals the full quotient's spectral radius within
    1e-9, and the two split blocks together reproduce the full quotient
    spectrum within 1e-8."""
    for bug, alpha in halving_grid():
        full = tridiag_eigenvalues(bug_tridiagonal(bug, alpha))
        halved = tridiag_eigenvalues(halved_tridiagonal(bug.n, bug.d, alpha))
        assert abs(halved[-1] - full[-1]) <= 1e-9, (bug, alpha)
        bordered, inner = proof_decomposition(bug, alpha)
        union = np.sort(
            np.concatenate(
                [tridiag_eigenvalues(bordered), tridiag_eigenvalues(inner)]
            )
        )
        assert np.max(np.abs(union - full)) <= 1e-8, (bug, alpha)


def test_strict_interlacing_margin():
    """The inner block's eigenvalues strictly interlace the bordered
    half-size matrix's eigenvalues with margin above 1e-10."""
    for bug, alpha in halving_grid():
        bordered, inner = proof_decomposition(bug, alpha)
        assert check_interlacing(
            tridiag_eigenvalues(inner), tridiag_eigenvalues(bordered), 1e-10
        ), (bug, alpha)


def test_closed_form_cluster_multiplicity(oracle_grid):
    """Wherever the middle clique is nontrivial, (n-d+2)*alpha-1 is an
    eigenvalue of multiplicity at least n-d-1 (the paper's clique part) and
    at most n-d: at special alphas one quotient root coincides with it, and
    no more than one can, since the quotient's off-diagonals are nonzero for
    alpha < 1. The exact multiplicity k comes from rational arithmetic on the
    edge list at the exact value of the float alpha; the dense cluster and
    the structured multiset must both hold exactly k values within 1e-7."""
    failures = []
    for inst in oracle_grid.instances:
        bug, alpha = inst.bug, inst.alpha
        n, d = bug.n, bug.d
        if n - d < 2:
            continue
        exact_value = (n - d + 2) * Fraction(alpha) - 1
        k = exact_alpha_nullity(n, bug_edges(bug.p, bug.q, bug.r), alpha, exact_value)
        value = float(exact_value)
        dense = cluster_multiplicity(inst.dense_values, value, 1e-7)
        structured = cluster_multiplicity(inst.structured.expand(), value, 1e-7)
        if not n - d - 1 <= k <= n - d or dense != k or structured != k:
            failures.append(
                f"B({n},{d},{bug.i}) alpha={alpha}: exact {k}, dense {dense}, "
                f"structured {structured} (clique part n-d-1 = {n - d - 1})"
            )
    assert not failures, (
        f"{len(failures)} grid instances disagree with the exact multiplicity "
        f"of the closed-form value: " + "; ".join(failures)
    )


def test_adjacency_and_signless_laplacian_consistency():
    """At alpha=0 the structured spectrum equals the adjacency spectrum
    and at alpha=0.5 half the signless-Laplacian spectrum, both computed
    from independently assembled edge-list matrices, within 1e-8."""
    for n in range(3, 13):
        for d in range(2, n):
            for i in range(1, d // 2 + 1):
                bug = BugSpec(n, d, i)
                edges = bug_edges(bug.p, bug.q, bug.r)
                reference_a = np.linalg.eigvalsh(adjacency(n, edges))
                deviation = np.max(
                    np.abs(bug_spectrum(bug, 0.0).expand() - reference_a)
                )
                assert deviation <= 1e-8, (bug, 0.0, deviation)
                reference_q = np.linalg.eigvalsh(signless_laplacian(n, edges)) / 2
                deviation = np.max(
                    np.abs(bug_spectrum(bug, 0.5).expand() - reference_q)
                )
                assert deviation <= 1e-8, (bug, 0.5, deviation)


def test_balanced_split_maximizes_radius():
    """At alpha in {0, 0.5}, for 5 <= n <= 14 and 2 <= d <= n-2, the
    spectral radius over all path splits peaks at the balanced split."""
    for alpha in (0.0, 0.5):
        for n in range(5, 15):
            for d in range(2, n - 1):
                rows = extremal_scan(n, d, alpha)
                winner = next(row.i for row in rows if row.is_argmax)
                assert winner == d // 2, (n, d, alpha, rows)


def test_perron_pair_properties(oracle_grid):
    """Power iteration reproduces the structured spectral radius within
    1e-8 on every grid instance, with a strictly positive unit eigenvector
    and residual below 1e-10 * max(1, rho)."""
    for inst in oracle_grid.instances:
        rho, vector = perron_pair(inst.matrix)
        assert abs(rho - inst.structured.rho) <= 1e-8, (inst.bug, inst.alpha)
        assert np.all(vector > 0), (inst.bug, inst.alpha)
        residual = np.linalg.norm(inst.matrix @ vector - rho * vector)
        assert residual < 1e-10 * max(1.0, rho), (inst.bug, inst.alpha)


def test_selected_eigenvalues_match_full_spectrum(oracle_grid):
    """On every grid instance, spectral_radius, the extremal scan and both
    columns of sweep, which bisect only the eigenvalues they report, give
    exactly the top and bottom of the full quotient spectrum."""
    full = {}
    for inst in oracle_grid.instances:
        values = tridiag_eigenvalues(bug_tridiagonal(inst.bug, inst.alpha))
        full[inst.bug, inst.alpha] = values
        assert spectral_radius(inst.bug, inst.alpha) == values[-1], (inst.bug, inst.alpha)
    bugs = {inst.bug for inst in oracle_grid.instances}
    alphas = tuple(sorted({inst.alpha for inst in oracle_grid.instances}))
    for bug in bugs:
        job = JobConfig("sweep", bug=bug, input_form="ndi", alphas=alphas)
        for row in _cmd_sweep(job, DEFAULT_CONFIG)["rows"]:
            values = full[bug, row["alpha"]]
            assert (row["min_quotient"], row["rho"]) == (values[0], values[-1]), (bug, row)
    for n, d in {(b.n, b.d) for b in bugs if b.n >= b.d + 2}:
        for alpha in alphas:
            for row in extremal_scan(n, d, alpha):
                assert row.rho == full[BugSpec(n, d, row.i), alpha][-1], (n, d, alpha, row)


@pytest.mark.parametrize("n, d", [(2000, 200), (1200, 500)])
def test_selected_eigenvalues_match_full_spectrum_on_run_plans(n, d):
    """At orders that jump uniform runs in closed form, spectral_radius,
    every extremal_scan row and both sweep columns are still exactly the
    top and bottom of the full quotient spectrum.

    The full spectra of all d/2 splits come from one lane_eigenvalues call
    per alpha; a sample of its lanes is checked against tridiag_eigenvalues,
    the route bug_spectrum takes."""
    alphas = (0.0, 0.37, 0.5)
    splits = range(1, d // 2 + 1)
    full = {}
    for alpha in alphas:
        lanes = [bug_tridiagonal(BugSpec(n, d, i), alpha) for i in splits]
        values = np.sort(lane_eigenvalues(lanes, np.arange(1, d + 2)), axis=1)
        for i, row in zip(splits, values):
            full[i, alpha] = row
        for i in (1, 2, 3, 4, d // 2):
            assert np.array_equal(tridiag_eigenvalues(lanes[i - 1]), full[i, alpha]), (i, alpha)
        for row in extremal_scan(n, d, alpha):
            assert row.rho == full[row.i, alpha][-1], (alpha, row)
    for i in (1, 2, 3, 4, d // 4, d // 2):
        bug = BugSpec(n, d, i)
        for alpha in alphas:
            assert spectral_radius(bug, alpha) == full[i, alpha][-1], (i, alpha)
        job = JobConfig("sweep", bug=bug, input_form="ndi", alphas=alphas)
        for row in _cmd_sweep(job, DEFAULT_CONFIG)["rows"]:
            values = full[i, row["alpha"]]
            assert (row["min_quotient"], row["rho"]) == (values[0], values[-1]), (i, row)


def test_run_plan_spectra_match_plain_bisection():
    """On 50 seeded random bugs with d >= 64, every quotient eigenvalue is
    within 1e-12 * max(1, rho) of textbook bisection with the row loop."""
    rng = np.random.default_rng(64)
    for _ in range(50):
        d = int(rng.integers(64, 81))
        n = d + int(rng.integers(2, 10**6))
        bug = BugSpec(n, d, int(rng.integers(1, d // 2 + 1)))
        alpha = float(rng.choice([0.0, 0.5, round(rng.uniform(0.0, 0.99), 6)]))
        t = bug_tridiagonal(bug, alpha)
        values = tridiag_eigenvalues(t)
        reference = plain_bisection_eigenvalues(t.diag, t.offdiag)
        bound = 1e-12 * max(1.0, float(reference[-1]))
        assert np.max(np.abs(values - reference)) <= bound, (bug, alpha)


def test_scan_solves_only_the_radius():
    """The scan over all 100 splits of n=2000, d=200 finishes in under one
    second: each split bisects one eigenvalue, not its whole quotient."""
    started = time.perf_counter()
    rows = extremal_scan(2000, 200, 0.5)
    elapsed = time.perf_counter() - started
    assert len(rows) == 100
    assert elapsed < 1.0


def test_one_path_below_order_64(monkeypatch, capsys):
    """Below order 64 every solve takes one path, on Python floats, however
    many lanes it holds: neither the bisection rounds nor the count kernel
    runs for the full spectra of 100 mixed bug quotients of order 50, a
    200-alpha sweep at d = 40 or the verification of the n <= 12 grid."""
    import alphabug.eigensolve as eigensolve
    from alphabug.cli import main
    from alphabug.verify import run_verification

    def refuse(*args, **kwargs):
        raise AssertionError("a round or the count kernel ran below order 64")

    monkeypatch.setattr(eigensolve, "_rounds", refuse)
    monkeypatch.setattr(eigensolve, "_plan_counts", refuse)
    rng = np.random.default_rng(50)
    lanes = [bug_tridiagonal(BugSpec(int(n), 49, int(i)), float(alpha)) for n, i, alpha in
             zip(rng.integers(51, 10**6, 100), rng.integers(1, 25, 100), rng.uniform(0, 1, 100))]
    values = lane_eigenvalues(lanes, np.arange(1, 51))
    assert values.shape == (100, 50) and np.all(np.diff(values, axis=1) >= 0.0)
    alphas = ",".join(f"{k / 200:g}" for k in range(200))
    assert main(["sweep", "--n", "1000", "--d", "40", "--i", "7", "--alphas", alphas]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 200
    summary = run_verification(12)
    assert summary.checks_passed == summary.checks_run


def test_million_vertex_structured_solve():
    """A bug with a million vertices and diameter 1000 solves through the
    structured path (order-1001 tridiagonal plus the closed form) in under
    one second."""
    bug = BugSpec(1_000_000, 1000, 500)
    started = time.perf_counter()
    spectrum = bug_spectrum(bug, 0.6)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert spectrum.order == 1_000_000
    closed_value = (bug.n - bug.d + 2) * 0.6 - 1.0
    assert cluster_multiplicity(spectrum.expand(), closed_value, 0.0) >= (
        bug.n - bug.d - 1
    )
    assert spectrum.rho > bug.n - bug.d - 1


# An address-space limit well above what the scans and the sweep below need
# (a virtual peak of about 385 MB with one BLAS thread, on x86-64 Linux,
# most of it for the scan of 300,000 splits) and below what building them
# as objects per lane did: a virtual peak of about 610 MB with a BugSpec and
# a SymTridiag per split, 1.8 GB of RSS for a 33-alpha sweep at d = 10**6 as
# dense lanes, and about 1.7 GB for a scan at d = 8,000.
_ADDRESS_SPACE_LIMIT = 2**29
_SCAN_AND_SWEEP = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, ({_ADDRESS_SPACE_LIMIT}, {_ADDRESS_SPACE_LIMIT}))
from alphabug import BugSpec, bug_tridiagonal, lane_eigenvalues
from alphabug.verify import extremal_scan
rows = extremal_scan(640_000, 64_000, 0.5)
bug = BugSpec(2_000_000, 1_000_000, 2)
extremes = lane_eigenvalues([bug_tridiagonal(bug, k / 100) for k in range(40)], [1, bug.d + 1])
print(len(rows), sum(row.is_argmax for row in rows), extremes.shape)
rows = extremal_scan(6_000_000, 600_000, 0.5)
print(len(rows), rows[-1].is_argmax)
"""


def test_scan_and_sweep_memory_does_not_grow_with_lanes_times_order():
    """A scan of 32,000 splits of order 64,001, a 40-alpha sweep at
    d = 10**6 and a scan of 300,000 splits of order 600,001 complete under
    a 512 MiB address-space limit. The limit is set in a child process,
    never on the test runner."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    package_root = str(Path(alphabug.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_SCAN_AND_SWEEP)],
        env=env, capture_output=True, text=True, check=False, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["32000", "1", "(40,", "2)", "300000", "True"]
