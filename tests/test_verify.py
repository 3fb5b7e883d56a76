import sys

import numpy as np
import pytest

from alphabug import (
    BugSpec,
    SolveConfig,
    assemble_dense_alpha,
    bug_spectrum,
    bug_tridiagonal,
    check_interlacing,
    cluster_multiplicity,
    compare_spectra,
    enumerate_bugs,
    extremal_scan,
    halved_tridiagonal,
    jacobi_eigenvalues,
    proof_decomposition,
    run_verification,
    spectral_radius,
    tridiag_eigenvalues,
)
from alphabug.structured import _bug_runs, closed_form
from alphabug.verify import MAX_FAILURES_LISTED, VERIFY_MAX_N, _full_spectra


def dense_values(bug, alpha):
    return jacobi_eigenvalues(assemble_dense_alpha(bug, alpha))


class TestCompareSpectra:
    def test_golden_bug_matches(self):
        bug = BugSpec(11, 5, 2)
        report = compare_spectra(bug_spectrum(bug, 0.6), dense_values(bug, 0.6), 1e-8)
        assert report.matched
        assert report.max_abs_deviation <= 1e-8
        assert len(report.pairing) == 11
        assert "multiplicity 5" in report.multiplicity_diagnostics

    def test_identical_inputs_give_zero_deviation(self):
        bug = BugSpec(7, 3, 1)
        s = bug_spectrum(bug, 0.4)
        report = compare_spectra(s, s.expand(), 1e-300)
        assert report.matched and report.max_abs_deviation == 0.0

    def test_multiplicity_seven_on_both_sides(self):
        bug = BugSpec(12, 4, 2)
        s = bug_spectrum(bug, 0.3)
        dense = dense_values(bug, 0.3)
        report = compare_spectra(s, dense, 1e-8)
        assert report.matched
        assert cluster_multiplicity(s.expand(), 2.0) == 7
        assert cluster_multiplicity(dense, 2.0) == 7

    def test_cardinality_mismatch(self):
        bug = BugSpec(6, 2, 1)
        with pytest.raises(ValueError):
            compare_spectra(bug_spectrum(bug, 0.1), np.zeros(5), 1e-8)


class TestCheckInterlacing:
    def test_decomposition_interlaces(self):
        bordered, inner = proof_decomposition(BugSpec(10, 4, 2), 0.6)
        assert check_interlacing(
            tridiag_eigenvalues(inner), tridiag_eigenvalues(bordered), 1e-10
        )

    def test_simple_cases(self):
        assert check_interlacing([0.0], [-1.0, 1.0], 0.5)
        assert not check_interlacing([0.0], [0.0, 1.0], 1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_interlacing([0.0, 1.0], [0.0, 1.0], 1e-10)


class TestExtremalScan:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_balanced_split_wins(self, alpha):
        rows = extremal_scan(10, 4, alpha)
        assert [row.i for row in rows] == [1, 2]
        assert [row.is_argmax for row in rows] == [False, True]

    def test_reports_single_argmax(self):
        rows = extremal_scan(11, 5, 0.6)
        assert len(rows) == 2
        assert sum(row.is_argmax for row in rows) == 1
        assert rows[0].rho < rows[1].rho

    def test_single_split(self):
        rows = extremal_scan(6, 2, 0.0)
        assert len(rows) == 1 and rows[0].is_argmax

    def test_domain(self):
        with pytest.raises(ValueError):
            extremal_scan(5, 4, 0.0)  # n < d+2
        with pytest.raises(ValueError):
            extremal_scan(6, 1, 0.0)


def test_enumerate_bugs_small():
    bugs = list(enumerate_bugs(4))
    assert bugs == [BugSpec(3, 2, 1), BugSpec(4, 2, 1), BugSpec(4, 3, 1)]


def test_enumerate_bugs_counts():
    # the number of canonical (d, i) pairs per order n is sum over d of d//2
    assert len(list(enumerate_bugs(12))) == 125


class TestRunVerification:
    def test_small_grid_passes(self):
        summary = run_verification(max_n=6)
        assert summary.ok
        assert summary.instances == 65
        # 65 spectrum comparisons + 35 closed-form clusters (bugs with a
        # clique to collapse) + 2 balanced even-d bugs x 3 halving alphas
        # x 3 decomposition checks
        assert summary.checks_run == 118
        assert summary.checks_passed == 118
        assert summary.checks_failed == 0
        assert summary.worst_deviation < 1e-8
        assert summary.failures == ()

    def test_impossible_tolerance_reports_failures(self):
        summary = run_verification(max_n=4, alphas=(0.6,), tol=1e-300)
        assert not summary.ok
        assert summary.checks_failed > 0
        assert summary.failures

    @pytest.mark.parametrize("max_n, instances, checks, worst", [
        (8, 170, 334, 2.6201263381153694e-13),
        (12, 625, 1280, 4.783831586692797e-13),
    ])
    def test_pinned_summary(self, max_n, instances, checks, worst):
        # recorded when each quotient was still solved alone
        summary = run_verification(max_n)
        assert summary.instances == instances
        assert summary.checks_run == summary.checks_passed == checks
        assert summary.failures == () and summary.failures_dropped == 0
        assert summary.worst_deviation == worst

    def test_counts_the_failures_it_does_not_list(self):
        summary = run_verification(max_n=6, tol=1e-300)
        assert summary.checks_failed > MAX_FAILURES_LISTED
        assert len(summary.failures) == MAX_FAILURES_LISTED
        assert summary.failures_dropped == summary.checks_failed - MAX_FAILURES_LISTED

    def test_validation(self):
        with pytest.raises(ValueError):
            run_verification(max_n=2)
        with pytest.raises(ValueError):
            run_verification(max_n=5, alphas=())
        with pytest.raises(ValueError):
            run_verification(max_n=5, tol=0.0)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
    def test_rejects_non_finite_or_negative_tolerance(self, tol):
        with pytest.raises(ValueError):
            run_verification(max_n=5, tol=tol)

    def test_rejects_max_n_above_cap(self):
        with pytest.raises(ValueError, match=str(VERIFY_MAX_N)):
            run_verification(max_n=VERIFY_MAX_N + 1)


@pytest.mark.parametrize("call", [
    pytest.param(lambda bad: halved_tridiagonal(bad, 4, 0.5), id="halved-n"),
    pytest.param(lambda bad: halved_tridiagonal(10, bad, 0.5), id="halved-d"),
    pytest.param(lambda bad: extremal_scan(bad, 4, 0.5), id="scan-n"),
    pytest.param(lambda bad: extremal_scan(10, bad, 0.5), id="scan-d"),
    pytest.param(lambda bad: run_verification(bad), id="verify-max_n"),
    pytest.param(lambda bad: enumerate_bugs(bad), id="enumerate-max_n"),
])
@pytest.mark.parametrize("bad", [10.5, 4.99, 3.7, True])
def test_sizes_must_be_integers(call, bad):
    # int() would truncate 10.5 to 10 and read True as 1
    with pytest.raises(ValueError, match="must be an integer"):
        call(bad)


@pytest.mark.parametrize("call, field", [
    pytest.param(lambda bad: BugSpec(bad, 5, 2), "n", id="bug-n"),
    pytest.param(lambda bad: BugSpec(11, bad, 2), "d", id="bug-d"),
    pytest.param(lambda bad: BugSpec(11, 5, bad), "i", id="bug-i"),
    pytest.param(lambda bad: BugSpec.from_ndi(bad, 5, 2), "n", id="ndi-n"),
    pytest.param(lambda bad: BugSpec.from_ndi(11, 5, bad), "i", id="ndi-i"),
    pytest.param(lambda bad: BugSpec.from_pqr(bad, 2, 3), "p", id="pqr-p"),
    pytest.param(lambda bad: BugSpec.from_pqr(8, 2, bad), "r", id="pqr-r"),
    pytest.param(lambda bad: SolveConfig(max_jacobi_sweeps=bad), "max_jacobi_sweeps", id="sweeps"),
    pytest.param(lambda bad: SolveConfig(max_power_iters=bad), "max_power_iters", id="iters"),
    pytest.param(lambda bad: SolveConfig(bisection_tol=bad), "bisection_tol", id="bisection_tol"),
    pytest.param(lambda bad: SolveConfig(jacobi_off_tol=bad), "jacobi_off_tol", id="jacobi_off_tol"),
    pytest.param(lambda bad: SolveConfig(power_tol=bad), "power_tol", id="power_tol"),
    pytest.param(lambda bad: enumerate_bugs(bad), "max_n", id="enumerate-max_n"),
    pytest.param(lambda bad: run_verification(bad), "max_n", id="verify-max_n"),
    pytest.param(lambda bad: run_verification(4, alphas=(0.5, bad)), "alpha", id="verify-alpha"),
    pytest.param(lambda bad: run_verification(4, tol=bad), "tolerance", id="verify-tol"),
    pytest.param(lambda bad: extremal_scan(bad, 4, 0.5), "n", id="scan-n"),
    pytest.param(lambda bad: extremal_scan(10, 4, bad), "alpha", id="scan-alpha"),
    pytest.param(lambda bad: halved_tridiagonal(10, bad, 0.5), "d", id="halved-d"),
    pytest.param(lambda bad: halved_tridiagonal(10, 4, bad), "alpha", id="halved-alpha"),
    pytest.param(lambda bad: bug_tridiagonal(BugSpec(11, 5, 2), bad), "alpha", id="quotient-alpha"),
])
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), None, "0.5", True,
                                 False, pytest.param(np.True_, id="np.True_")])
def test_non_numbers_are_value_errors_naming_the_field(call, field, bad):
    # int(), float() and math.isfinite() raise OverflowError on an infinity,
    # a ValueError that names no field on NaN and TypeError on None; float()
    # reads "0.5" as 0.5, and int() and float() read a bool as a number
    with pytest.raises(ValueError, match=f"^{field} must"):
        call(bad)


# n - d + 2 past the largest float: float() raises OverflowError on it
HUGE_N = 10**400


@pytest.mark.parametrize("call", [
    pytest.param(lambda: extremal_scan(HUGE_N, 4, 0.5), id="scan"),
    pytest.param(lambda: halved_tridiagonal(HUGE_N, 4, 0.5), id="halved"),
    pytest.param(lambda: proof_decomposition(BugSpec(HUGE_N, 4, 2), 0.5), id="decomposition"),
    pytest.param(lambda: bug_tridiagonal(BugSpec(HUGE_N, 4, 2), 0.5), id="quotient"),
    pytest.param(lambda: spectral_radius(BugSpec(HUGE_N, 4, 2), 0.5), id="radius"),
    pytest.param(lambda: bug_spectrum(BugSpec(HUGE_N, 4, 2), 0.5), id="spectrum"),
    pytest.param(lambda: closed_form(BugSpec(HUGE_N, 4, 2), 0.5), id="closed-form"),
])
def test_an_order_past_the_float_range_is_a_value_error_naming_n(call):
    with pytest.raises(ValueError, match="^n is too large"):
        call()


def test_the_largest_order_that_fits_a_float_keeps_its_closed_form():
    n = 4 - 2 + int(sys.float_info.max)
    assert closed_form(BugSpec(n, 4, 2), 0.5) == (sys.float_info.max * 0.5 - 1.0, n - 5)
    with pytest.raises(ValueError, match="^n is too large"):
        closed_form(BugSpec(n + 2**971, 4, 2), 0.5)


def test_closed_form_cluster_can_absorb_a_quotient_eigenvalue():
    """At special alphas a quotient eigenvalue can coincide exactly with
    the closed-form value, so the dense cluster is larger than the
    closed-form multiplicity alone; both routes must still agree."""
    bug = BugSpec(5, 2, 1)  # complete graph K_5 minus one edge
    alpha = 0.5
    closed_value = (bug.n - bug.d + 2) * alpha - 1  # 1.5, multiplicity n-d-1 = 2
    structured = bug_spectrum(bug, alpha)
    dense = dense_values(bug, alpha)
    assert cluster_multiplicity(structured.expand(), closed_value) == 3
    assert cluster_multiplicity(dense, closed_value) == 3
    summary = run_verification(max_n=5, alphas=(0.5,))
    assert summary.ok


def test_interlacing_margin_collapses_near_alpha_one():
    """Interlacing stays strict at every alpha, but the gap between the
    symmetric and antisymmetric end-localized eigenpair shrinks
    exponentially as alpha approaches 1 -- below any fixed noise margin.
    The margin check therefore runs on its own moderate-alpha grid, and
    the default verification sweep must stay green even for bugs whose
    gap at alpha=0.99 is tiny."""
    bordered, inner = proof_decomposition(BugSpec(8, 6, 3), 0.99)
    outer_vals = tridiag_eigenvalues(bordered)
    inner_vals = tridiag_eigenvalues(inner)
    assert check_interlacing(inner_vals, outer_vals, strict_margin=0.0)
    assert not check_interlacing(inner_vals, outer_vals, strict_margin=1e-10)
    summary = run_verification(max_n=8, alphas=(0.99,))
    assert summary.ok


def test_lane_spectra_match_solving_each_quotient_alone():
    # sets of several lanes (a bug's alphas) and of one, of orders 2-8,
    # interleaved: each lane's spectrum is that of its quotient alone
    alphas = (0.0, 0.3, 0.99)
    sets, quotients = [], []
    for b in enumerate_bugs(8):
        sets.append((b.d + 1, _bug_runs(b.n, b.d, b.i, alphas)))
        quotients.append([bug_tridiagonal(b, alpha) for alpha in alphas])
        if b.d % 2 == 0 and b.d >= 4 and b.i == b.d // 2:
            for alpha in alphas:
                for t in proof_decomposition(b, alpha):
                    sets.append((t.order, (*t.runs, np.zeros(1, dtype=np.intp))))
                    quotients.append([t])
    spectra = _full_spectra(sets, None)
    assert len(spectra) == len(sets) and {m for m, _ in sets} == set(range(2, 9))
    for lanes, values in zip(quotients, spectra):
        assert len(values) == len(lanes)
        for t, row in zip(lanes, values):
            assert np.array_equal(row, tridiag_eigenvalues(t))
