import math

import numpy as np
import pytest

import alphabug.eigensolve as eigensolve
from alphabug import (
    BugSpec,
    SymTridiag,
    assemble_dense_alpha,
    bug_spectrum,
    bug_tridiagonal,
    gershgorin_interval,
    halved_tridiagonal,
    jacobi_eigenvalues,
    lane_eigenvalues,
    proof_decomposition,
    spectral_radius,
    sturm_count,
    tridiag_eigenvalues,
)
from alphabug.cli import _closed_form
from alphabug.spectrum import CLOSED_FORM, QUOTIENT
from alphabug.structured import _bug_runs, closed_form
from oracles import alpha_matrix, bug_cells, bug_edges, cell_quotient, path_edges

GOLDEN_BUG = BugSpec(11, 5, 2)
GOLDEN_ALPHA = 0.6
GOLDEN_QUOTIENT = [0.3909, 0.5539, 1.3521, 3.5403, 4.2486, 6.9144]

# spectral radius of the bug with n=10, d=4, i=2 at alpha=0: the largest
# root of x^3 - 5x^2 - 13x + 5 (characteristic cubic of the order-3
# halved matrix [[0,1,0],[1,0,sqrt(12)],[0,sqrt(12),5]])
RHO_10_4_2_AT_0 = 6.802908345718773


def test_bug_tridiagonal_of_a_path_is_its_dense_matrix():
    # with n-d = 1 every cell is one vertex, so the quotient is the matrix
    for d in range(2, 9):
        b = BugSpec(d + 1, d, d // 2)
        for alpha in (0.0, 0.7):
            dense = assemble_dense_alpha(b, alpha)
            assert np.array_equal(bug_tridiagonal(b, alpha).to_dense(), dense)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9])
def test_bug_tridiagonal_equals_quotient_entrywise(alpha):
    """The direct assembly agrees with the symmetrized quotient of the cell
    partition computed from the edge list: the diagonal exactly, the
    off-diagonal to a few ulps (the reference takes sqrt of a product)."""
    for n in range(3, 11):
        for d in range(2, n):
            for i in range(1, d // 2 + 1):
                b = BugSpec(n, d, i)
                t = bug_tridiagonal(b, alpha)
                m = cell_quotient(
                    n, bug_edges(b.p, b.q, b.r), bug_cells(b.p, b.q, b.r), alpha
                )
                assert np.array_equal(t.diag, np.diag(m)), (n, d, i, alpha)
                np.testing.assert_array_max_ulp(t.offdiag, np.diag(m, 1), maxulp=4)
                assert np.count_nonzero(np.triu(m, 2)) == 0, (n, d, i, alpha)


def test_bug_tridiagonal_golden():
    t = bug_tridiagonal(GOLDEN_BUG, GOLDEN_ALPHA)
    assert np.allclose(t.diag, [0.6, 4.2, 6.2, 4.2, 1.2, 0.6])
    root6 = 0.4 * np.sqrt(6)
    assert np.allclose(t.offdiag, [0.4, root6, root6, 0.4, 0.4])


def test_bug_tridiagonal_path_collapse():
    for alpha in (0.0, 0.4):
        beta = 1 - alpha
        t = bug_tridiagonal(BugSpec(4, 3, 1), alpha)
        assert t.diag.tolist() == [alpha, 2 * alpha, 2 * alpha, alpha]
        assert t.offdiag.tolist() == [beta, beta, beta]


def test_bug_tridiagonal_balanced_example():
    t = bug_tridiagonal(BugSpec(10, 4, 2), 0.0)
    assert t.diag.tolist() == [0, 0, 5, 0, 0]
    assert np.allclose(t.offdiag, [1, np.sqrt(6), np.sqrt(6), 1])


def test_bug_tridiagonal_short_left_path():
    # with i=1 the clique sits in the second cell and the first diagonal
    # entry is alpha*(n-d), not alpha
    alpha = 0.5
    t = bug_tridiagonal(BugSpec(10, 7, 1), alpha)
    w = 3
    assert t.diag.tolist() == [
        alpha * w,
        2 * alpha + w - 1,
        alpha * (w + 1),
        2 * alpha,
        2 * alpha,
        2 * alpha,
        2 * alpha,
        alpha,
    ]
    beta = 1 - alpha
    assert np.allclose(t.offdiag, [beta * np.sqrt(w), beta * np.sqrt(w)] + [beta] * 5)


def test_bug_tridiagonal_diameter_two():
    # d=2: both path cells flank the clique directly
    alpha = 0.25
    n = 6
    w = n - 2
    t = bug_tridiagonal(BugSpec(n, 2, 1), alpha)
    assert t.diag.tolist() == [alpha * w, 2 * alpha + w - 1, alpha * w]
    beta = 1 - alpha
    assert np.allclose(t.offdiag, [beta * np.sqrt(w)] * 2)


def test_bug_spectrum_golden():
    s = bug_spectrum(GOLDEN_BUG, GOLDEN_ALPHA)
    assert s.order == 11
    closed = s.with_source(CLOSED_FORM)
    assert len(closed) == 1
    assert closed[0].value == pytest.approx(3.8, abs=1e-12)
    assert closed[0].multiplicity == 5
    quotient = s.with_source(QUOTIENT)
    assert np.allclose([e.value for e in quotient], GOLDEN_QUOTIENT, atol=5e-5)


def test_bug_spectrum_no_closed_form_when_clique_is_trivial():
    s = bug_spectrum(BugSpec(4, 3, 1), 0.0)
    assert s.order == 4
    assert s.with_source(CLOSED_FORM) == ()
    assert all(e.multiplicity == 1 for e in s.entries)


def test_bug_spectrum_closed_form_multiplicity_seven():
    s = bug_spectrum(BugSpec(12, 4, 2), 0.3)
    closed = s.with_source(CLOSED_FORM)
    assert closed[0].value == pytest.approx(2.0, abs=1e-12)
    assert closed[0].multiplicity == 7
    # the dense solve shows the same cluster
    dense = jacobi_eigenvalues(assemble_dense_alpha(BugSpec(12, 4, 2), 0.3))
    assert np.count_nonzero(np.abs(dense - 2.0) <= 1e-7) == 7


def test_bug_spectrum_mirror_invariance():
    left = bug_spectrum(BugSpec.from_ndi(11, 5, 2), 0.35)
    right = bug_spectrum(BugSpec.from_ndi(11, 5, 3), 0.35)
    assert left == right


def test_bug_spectrum_eigenvalues_are_simple():
    for (n, d, i) in [(11, 5, 2), (9, 4, 2), (7, 6, 3)]:
        for alpha in (0.0, 0.5, 0.9):
            values = tridiag_eigenvalues(bug_tridiagonal(BugSpec(n, d, i), alpha))
            assert np.min(np.diff(values)) > 0


def test_bug_spectrum_of_a_path():
    s = bug_spectrum(BugSpec(4, 3, 1), 0.0)
    expected = sorted(2 * np.cos(k * np.pi / 5) for k in (1, 2, 3, 4))
    assert np.allclose(s.expand(), expected, atol=1e-10)


def test_halved_tridiagonal_examples():
    t = halved_tridiagonal(10, 4, 0.0)
    assert t.diag.tolist() == [0, 0, 5]
    assert np.allclose(t.offdiag, [1, np.sqrt(12)])

    alpha = 0.3
    t = halved_tridiagonal(5, 4, alpha)
    assert np.allclose(t.diag, [alpha, 2 * alpha, 2 * alpha])
    assert np.allclose(t.offdiag, [1 - alpha, (1 - alpha) * np.sqrt(2)])
    # n-d=1 collapses the bug to a path, so the top eigenvalue is the
    # path's spectral radius
    rho_path = np.linalg.eigvalsh(alpha_matrix(5, path_edges(5), alpha))[-1]
    assert tridiag_eigenvalues(t)[-1] == pytest.approx(rho_path, abs=1e-9)


def test_halved_tridiagonal_matches_half_signless_laplacian():
    values = tridiag_eigenvalues(halved_tridiagonal(12, 6, 0.5))
    q = alpha_matrix(12, bug_edges(8, 3, 3), 0.5)
    assert values[-1] == pytest.approx(np.linalg.eigvalsh(q)[-1], abs=1e-9)


def test_halved_tridiagonal_domain():
    with pytest.raises(ValueError):
        halved_tridiagonal(10, 5, 0.1)  # d odd
    with pytest.raises(ValueError):
        halved_tridiagonal(6, 2, 0.1)  # d too small
    with pytest.raises(ValueError):
        halved_tridiagonal(4, 4, 0.1)  # n < d+1


def test_proof_decomposition_golden():
    bordered, inner = proof_decomposition(BugSpec(10, 4, 2), 0.6)
    reference = halved_tridiagonal(10, 4, 0.6)
    assert np.array_equal(bordered.diag, reference.diag)
    assert np.array_equal(bordered.offdiag, reference.offdiag)
    assert np.allclose(inner.diag, [0.6, 4.2])
    assert np.allclose(inner.offdiag, [0.4])


@pytest.mark.parametrize(
    "bug, alpha",
    [
        (BugSpec(10, 4, 2), 0.6),
        (BugSpec(5, 4, 2), 0.3),
        (BugSpec(14, 6, 3), 0.25),
    ],
)
def test_proof_decomposition_union(bug, alpha):
    bordered, inner = proof_decomposition(bug, alpha)
    assert bordered.order + inner.order == bug.d + 1
    union = np.sort(
        np.concatenate([tridiag_eigenvalues(bordered), tridiag_eigenvalues(inner)])
    )
    full = tridiag_eigenvalues(bug_tridiagonal(bug, alpha))
    assert np.max(np.abs(union - full)) < 1e-8


def test_proof_decomposition_domain():
    with pytest.raises(ValueError):
        proof_decomposition(BugSpec(10, 5, 2), 0.3)  # d odd
    with pytest.raises(ValueError):
        proof_decomposition(BugSpec(10, 4, 1), 0.3)  # unbalanced split


def test_spectral_radius_golden():
    assert spectral_radius(GOLDEN_BUG, GOLDEN_ALPHA) == pytest.approx(6.9144, abs=5e-5)


def test_spectral_radius_known_cubic_root():
    assert spectral_radius(BugSpec(10, 4, 2), 0.0) == pytest.approx(
        RHO_10_4_2_AT_0, abs=1e-10
    )


def test_spectral_radius_equals_spectrum_max():
    for alpha in (0.0, 0.5, 0.99):
        b = BugSpec(9, 3, 1)
        assert spectral_radius(b, alpha) == pytest.approx(
            bug_spectrum(b, alpha).rho, abs=1e-12
        )


def test_spectral_radius_exceeds_closed_form():
    # the closed-form eigenvalue is never the Perron root
    for alpha in (0.0, 0.5, 0.99):
        for b in (BugSpec(12, 4, 2), BugSpec(8, 2, 1)):
            closed = (b.n - b.d + 2) * alpha - 1
            assert spectral_radius(b, alpha) > closed


def test_closed_form_is_one_helper_for_spectrum_and_cli():
    b = BugSpec(20, 6, 2)
    value, multiplicity = closed_form(b, 0.3)
    assert (value, multiplicity) == ((20 - 6 + 2) * 0.3 - 1.0, 13)
    entry, = bug_spectrum(b, 0.3).with_source(CLOSED_FORM)
    assert (entry.value, entry.multiplicity) == (value, multiplicity)
    assert _closed_form(b, 0.3) == {"value": value, "multiplicity": multiplicity}
    path = BugSpec(7, 6, 3)  # a one-vertex clique carries no closed-form eigenvalue
    assert closed_form(path, 0.3)[1] == 0 and _closed_form(path, 0.3) is None


def _runs_of_lane(runs, lane):
    diag, lead, reps, first = runs
    part = slice(first[lane], first[lane + 1] if lane + 1 < first.size else diag.size)
    return diag[part], lead[part], reps[part]


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


# d = 2 and 3: the clique's neighbours end the path on one side or both;
# 48 and 63 below the order-64 gate, 64 at it
@pytest.mark.parametrize("d", [2, 3, 4, 48, 63, 64])
def test_bug_runs_are_bug_tridiagonal_lanes_bit_for_bit(d):
    splits = sorted({1, d // 2})
    sweep_alphas = (0.3, 0.0, 0.99, 0.3)
    for n in (d + 2, d + 3, 10 * d + 7, 10**6 + 3, 10**15):
        built = {}
        for alpha in (0.0, 0.3, 0.99):
            scan = _bug_runs(n, d, np.array(splits), alpha)
            built.update({(i, alpha): _runs_of_lane(scan, k) for k, i in enumerate(splits)})
        for i in splits:
            sweep = _bug_runs(n, d, i, sweep_alphas)
            for k, alpha in enumerate(sweep_alphas):
                assert all(map(np.array_equal, _runs_of_lane(sweep, k), built[i, alpha]))
        for (i, alpha), (diag, lead, reps) in built.items():
            t = bug_tridiagonal(BugSpec(n, d, i), alpha)
            assert diag.size <= 7 and reps.min() >= 1 and reps.sum() == d + 1
            # the same runs, so the same Gershgorin bounds and the same plan
            assert [_bits(diag), _bits(lead), reps.tolist()] == [
                _bits(t.runs[0]), _bits(t.runs[1]), t.runs[2].tolist()]
            assert _bits(np.repeat(diag, reps)) == _bits(t.diag)
            assert _bits(np.repeat(lead, reps)[1:]) == _bits(t.offdiag)


FOLD_ALPHAS = (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.6, 0.75, 0.9, 0.99)


def test_halved_and_inner_matrices_fold_the_balanced_quotient():
    # the halved matrix is the quotient's first d/2+1 rows with its last
    # off-diagonal entry beta*sqrt(2w), the inner block its first d/2 rows
    cases = 0
    for n in range(5, 60):
        for d in range(4, n, 2):
            half = d // 2
            for alpha in FOLD_ALPHAS:
                b = BugSpec(n, d, half)
                t = bug_tridiagonal(b, alpha)
                halved, inner = proof_decomposition(b, alpha)
                edge = (1.0 - alpha) * math.sqrt(2.0 * (n - d))
                assert np.array_equal(halved.diag, t.diag[:half + 1])
                assert np.array_equal(halved.offdiag, [*t.offdiag[:half - 1], edge])
                assert np.array_equal(inner.diag, t.diag[:half])
                assert np.array_equal(inner.offdiag, t.offdiag[:half - 1])
                cases += 1
    assert cases == 7056


def _plan_steps(t):
    (_, blocks, _), = eigensolve._run_plan(eigensolve._lane_runs([t]), t.order)
    steps = [step for block, _ in blocks for step in block]
    return [(a.tolist(), c.tolist(), None if k is None else k.tolist()) for a, c, k, _ in steps]


# d = 40: every matrix below the order-64 gate; d = 126: the quotient
# (127) and the halved matrix (64) above it, the inner block (63) below;
# d = 200: all above
@pytest.mark.parametrize("d", [40, 126, 200])
def test_path_built_matrices_solve_as_their_dense_form(d):
    for alpha in (0.0, 0.5, 0.8):
        # at alpha = 0 the cells at rows 0, i - 1, i + 1 and d equal the
        # uniform diagonal 0, and their runs must merge with their neighbours'
        matrices = [bug_tridiagonal(BugSpec(10 * d, d, i), alpha) for i in (1, 2, d // 2)]
        matrices += proof_decomposition(BugSpec(10 * d, d, d // 2), alpha)
        for t in matrices:
            dense = SymTridiag(t.diag, t.offdiag)
            assert t.runs[0].size <= 9 and dense.runs[0].size == t.order
            assert _plan_steps(t) == _plan_steps(dense)
            assert gershgorin_interval(t) == gershgorin_interval(dense)
            everything = np.arange(1, t.order + 1)
            assert np.array_equal(lane_eigenvalues([t], everything),
                                  lane_eigenvalues([dense], everything))
            lo, hi = gershgorin_interval(t)
            band = 2.0 * alpha + np.arange(-2.5, 2.75, 0.25)
            for x in [*np.linspace(lo, hi, 25), *band]:
                assert sturm_count(t, x) == sturm_count(dense, x), x
        bugs = matrices[:3]
        mixed = [bugs[0], SymTridiag(bugs[1].diag, bugs[1].offdiag), bugs[2],
                 SymTridiag(bugs[0].diag, bugs[0].offdiag)]
        indices = [1, 2, d // 2, d + 1]
        together = lane_eigenvalues(mixed, indices)
        for row, t in zip(together, mixed):
            assert np.array_equal(row, lane_eigenvalues([t], indices)[0])
        assert np.array_equal(together[0], together[3])
