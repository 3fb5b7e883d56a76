import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphabug.eigensolve as eigensolve
import alphabug.laguerre as laguerre
from alphabug import (
    DEFAULT_CONFIG,
    BugSpec,
    ConvergenceError,
    SolveConfig,
    SymTridiag,
    assemble_dense_alpha,
    bug_spectrum,
    bug_tridiagonal,
    gershgorin_interval,
    jacobi_eigenvalues,
    lane_eigenvalues,
    perron_pair,
    spectral_radius,
    sturm_count,
    tridiag_eigenvalues,
)
from alphabug.structured import (_bug_lanes, _bug_runs, _halving_slots, _slot_values,
                                 halved_tridiagonal, proof_decomposition)
from alphabug.verify import enumerate_bugs, extremal_scan
from oracles import (
    exact_inertia_bounds,
    longdouble_eigenvalues,
    longdouble_tops,
    plain_bisection_eigenvalues,
    quotient_layouts,
    row_loop_count,
    two_pass_jacobi_eigenvalues,
)

# quotient matrix of the worked example: bug with n=11, d=5, i=2 at alpha=0.6
GOLDEN = SymTridiag(
    [0.6, 4.2, 6.2, 4.2, 1.2, 0.6],
    [0.4, 0.4 * np.sqrt(6), 0.4 * np.sqrt(6), 0.4, 0.4],
)
GOLDEN_EIGENVALUES = [0.3909, 0.5539, 1.3521, 3.5403, 4.2486, 6.9144]


def random_tridiag(rng, m):
    return SymTridiag(rng.uniform(-10, 10, m), rng.uniform(-10, 10, max(m - 1, 0)))


# np.longdouble has the 64-bit mantissa the 80-bit reference needs
_EXTENDED = np.finfo(np.longdouble).nmant >= 63


def _certified_bound(ref, t: SymTridiag):
    """How far a value certified to max(4 ulps, 2 eps) may lie from its
    80-bit reference ref: the certifying counts are exact for t with its
    off-diagonals moved by a few eps, so the bound also allows 8 eps times
    its largest |off-diagonal|, and the 2.3e-162 by which a zero
    off-diagonal's floor moves an eigenvalue."""
    eps = np.finfo(float).eps
    slack = 8.0 * eps * np.max(np.abs(t.offdiag), initial=0.0) + 2.3e-162
    return np.maximum(4.0 * np.spacing(np.abs(ref)), 2.0 * eps) + slack


def assert_end(value, t: SymTridiag, plain: float, top: bool = True):
    """value, eigenvalue m (top) or 1 of t below the run-plan gate, comes
    from certified Laguerre steps or, where they fell back, from bisection:
    it has the bits of plain bisection's value there, plain, or lies within
    _certified_bound of the 80-bit reference (where np.longdouble has
    one)."""
    if value == plain or not _EXTENDED:
        return
    ref = longdouble_eigenvalues(t.diag[None], t.offdiag[None], [t.order if top else 1])[0, 0]
    assert abs(value - ref) <= _certified_bound(ref, t), (value, ref, plain, top)


def assert_certified_or_plain(values, t: SymTridiag):
    """values, t's eigenvalues 1..m in order, are certified below the
    run-plan gate or have plain bisection's bits: both ends (assert_end),
    and at _FINISH_ORDERS every value between them, lie within
    _certified_bound of the 80-bit reference or have those bits (a value
    whose steps fell back); the others have those bits, with index 2
    raised to index 1's value where below it and m - 1 lowered to m's."""
    m = t.order
    plain = plain_bisection_eigenvalues(t.diag, t.offdiag)
    assert_end(values[0], t, plain[0], top=False)
    assert_end(values[-1], t, plain[-1])
    if m < 3:
        return
    plain[1] = max(plain[1], values[0])
    plain[-2] = min(plain[-2], values[-1])
    inner = values[1:-1] != plain[1:-1]
    if m not in eigensolve._FINISH_ORDERS or not _EXTENDED:
        assert not inner.any(), np.flatnonzero(inner) + 2
        return
    ref = longdouble_eigenvalues(t.diag[None], t.offdiag[None])[0, 1:-1]
    far = np.abs(values[1:-1] - ref) > _certified_bound(ref, t)
    assert not (inner & far).any(), (np.flatnonzero(inner & far) + 2, values, ref)


def one_group(lanes):
    """The one group _run_plan makes of lanes: its lanes, its steps as
    (a, c, k, slot) read from its blocks, and its prelude slot count."""
    (group, blocks, slots), = eigensolve._run_plan(eigensolve._lane_runs(lanes), lanes[0].order)
    return group, [step for block, _ in blocks for step in block], slots


class TestSymTridiag:
    def test_validation(self):
        with pytest.raises(ValueError):
            SymTridiag([1.0, 2.0], [0.5, 0.5])  # offdiag too long
        with pytest.raises(ValueError):
            SymTridiag([], [])
        with pytest.raises(ValueError):
            SymTridiag([1.0, np.inf], [0.5])

    def test_arrays_are_frozen(self):
        t = SymTridiag([1.0, 2.0], [0.5])
        with pytest.raises(ValueError):
            t.diag[0] = 7.0
        path = SymTridiag.path(6, 1.0, 0.5, {0: 3.0}, {4: 2.0})
        for matrix in (t, path, bug_tridiagonal(BugSpec(10**6, 1000, 7), 0.4)):
            for array in (matrix.diag, matrix.offdiag, *matrix.runs):
                with pytest.raises(ValueError):
                    array[0] = 7.0

    def test_path_stores_its_special_cells_and_stretches_as_runs(self):
        t = SymTridiag.path(8, 1.0, 0.5, {0: 3.0, 6: 1.0}, {4: 2.0})
        assert t.order == 8
        assert t.diag.tolist() == [3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        assert t.offdiag.tolist() == [0.5, 0.5, 0.5, 2.0, 0.5, 0.5, 0.5]
        diag, lead, reps = t.runs
        assert reps.tolist() == [1, 3, 1, 1, 1, 1]
        assert lead.tolist() == [0.0, 0.5, 2.0, 0.5, 0.5, 0.5]
        assert diag.tolist() == [3.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        one_row = SymTridiag.path(1, 2.0, 1.0, {}, {})
        assert one_row.order == 1 and one_row.offdiag.size == 0

    @pytest.mark.parametrize("args", [
        (3, 1.0, 0.0, {}, {}),  # a zero lead decouples the rows of a run
        (3, 1.0, 1e-170, {}, {}),  # and so does one whose square underflows
        (3, 1.0, 1.0, {3: 2.0}, {}),  # no row 3
        (3, 1.0, 1.0, {-1: 2.0}, {}),
        (3, 1.0, 1.0, {}, {0: 2.0}),  # row 0 has no lead
        (3, 1.0, 1.0, {1: np.inf}, {}),
        (3, np.nan, 1.0, {}, {}),
        (0, 1.0, 1.0, {}, {}),
        (4, 1.0, 0.5, {1.5: 2.0}, {}),  # stored a run of 0 rows: 3 rows at order 4
        (4, 1.0, 0.5, {}, {2.5: 2.0}),
        (4, 1.0, 0.5, {True: 2.0}, {}),
        (3.5, 1.0, 0.5, {}, {}),
        (True, 1.0, 0.5, {}, {}),
        (np.float64(4.5), 1.0, 0.5, {}, {}),
    ])
    def test_path_rejects_bad_cells(self, args):
        with pytest.raises(ValueError):
            SymTridiag.path(*args)

    def test_path_runs_keep_the_bits_of_a_tuple_per_run(self):
        """path fills both columns with one np.array call; every run entry
        and the order equal those of the construction that lists a
        (diag, lead, reps) tuple per run, on the layouts of bug, halved and
        inner matrices (oracles.quotient_layouts)."""
        layouts = []
        for n, d, i in [(7, 4, 2), (40, 12, 5), (41, 12, 6), (10**6, 200, 1), (10**6, 200, 100)]:
            for alpha in (0.0, 0.3, 0.99):
                layouts.extend(quotient_layouts(n, d, i, alpha).values())
        assert len(layouts) == 5 * 3 + 3 * 3 * 2
        for m, diag, lead, diag_cells, lead_cells in layouts:
            t = SymTridiag.path(m, diag, lead, diag_cells, lead_cells)
            cells = sorted({0, *diag_cells, *lead_cells})
            runs = []
            for row, end in zip(cells, cells[1:] + [m]):
                runs.append((diag_cells.get(row, diag), lead_cells.get(row, lead) if row else 0.0, 1))
                if end > row + 1:
                    runs.append((diag, lead, end - row - 1))
            columns = [np.array(c, dtype=k) for c, k in zip(zip(*runs), (float, float, np.intp))]
            assert t.order == m == int(columns[2].sum())
            for got, want in zip(t.runs, columns):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_path_takes_integral_rows_of_any_number_type(self):
        plain = SymTridiag.path(6, 1.0, 0.5, {0: 3.0, 2: 4.0}, {2: 2.0})
        for rows in ({np.int64(2): 4.0}, {2.0: 4.0}):
            for t in (SymTridiag.path(np.int64(6), 1.0, 0.5, {0: 3.0, **rows}, {2.0: 2.0}),
                      SymTridiag.path(6.0, 1.0, 0.5, {0: 3.0, **rows}, {np.int64(2): 2.0})):
                assert t.order == 6 and type(t.order) is int
                for got, want in zip(t.runs, plain.runs):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_to_dense(self):
        t = SymTridiag([1.0, 2.0, 3.0], [0.5, 0.25])
        w = t.to_dense()
        assert np.array_equal(w, w.T)
        assert np.array_equal(np.diag(w), [1.0, 2.0, 3.0])
        assert w[0, 1] == 0.5 and w[1, 2] == 0.25 and w[0, 2] == 0.0


class TestSolveConfig:
    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(ValueError):
            SolveConfig(bisection_tol=0.0)
        with pytest.raises(ValueError):
            SolveConfig(jacobi_off_tol=-1e-9)
        with pytest.raises(ValueError):
            SolveConfig(max_jacobi_sweeps=0)
        with pytest.raises(ValueError):
            SolveConfig(max_power_iters=0)

    @pytest.mark.parametrize(
        "field, bad",
        [("max_jacobi_sweeps", 2.5), ("max_power_iters", 10.5), ("max_jacobi_sweeps", True)],
    )
    def test_rejects_caps_that_are_not_integers(self, field, bad):
        # each would reach range() and fail there, or (True) read as 1
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolveConfig(**{field: bad})

    def test_integral_float_cap_is_stored_as_int(self):
        config = SolveConfig(max_jacobi_sweeps=8.0)
        assert config.max_jacobi_sweeps == 8 and type(config.max_jacobi_sweeps) is int

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_tolerances(self, bad):
        for name in ("bisection_tol", "jacobi_off_tol", "power_tol"):
            with pytest.raises(ValueError):
                SolveConfig(**{name: bad})


class TestGershgorin:
    def test_golden_matrix(self):
        lo, hi = gershgorin_interval(GOLDEN)
        assert lo == pytest.approx(0.2, abs=5e-5)
        assert hi == pytest.approx(8.1596, abs=5e-5)

    def test_single_entry(self):
        assert gershgorin_interval(SymTridiag([0.7], [])) == (0.7, 0.7)

    def test_two_by_two(self):
        lo, hi = gershgorin_interval(SymTridiag([0.0, 0.0], [1.0]))
        assert (lo, hi) == (-1.0, 1.0)


class TestSturmCount:
    def test_single_entry(self):
        t = SymTridiag([0.6], [])
        assert sturm_count(t, 0.5) == 0
        assert sturm_count(t, 0.7) == 1

    def test_golden_matrix_counts(self):
        # eigenvalues: 0.3909, 0.5539, 1.3521, 3.5403, 4.2486, 6.9144
        assert sturm_count(GOLDEN, 8.2) == 6
        assert sturm_count(GOLDEN, 2.0) == 3
        assert sturm_count(GOLDEN, 4.0) == 4
        assert sturm_count(GOLDEN, 0.0) == 0

    def test_count_at_exact_eigenvalue(self):
        # a shift on an eigenvalue makes a zero pivot, which must not crash
        t = SymTridiag([0.0, 0.0], [1.0])
        assert sturm_count(t, 1.0) in (1, 2)
        assert sturm_count(t, -1.0) in (0, 1)
        assert sturm_count(t, 0.0) == 1

    def test_monotone_in_shift(self):
        rng = np.random.default_rng(7)
        t = random_tridiag(rng, 12)
        lo, hi = gershgorin_interval(t)
        shifts = np.linspace(lo - 1, hi + 1, 40)
        counts = [sturm_count(t, x) for x in shifts]
        assert counts == sorted(counts)
        assert counts[0] == 0 and counts[-1] == 12

    @pytest.mark.parametrize("m", [1, 5, 63, 64, 200])
    def test_infinite_shifts_count_none_or_all_and_nan_is_rejected(self, m):
        t = random_tridiag(np.random.default_rng(m), m)
        assert sturm_count(t, -math.inf) == 0
        assert sturm_count(t, math.inf) == m
        with pytest.raises(ValueError, match="NaN"):
            sturm_count(t, float("nan"))

    @pytest.mark.parametrize("shift", ["3.5", True, False, np.True_, None],
                             ids=["str", "True", "False", "np.True_", "None"])
    def test_non_numbers_are_rejected(self, shift):
        # float() would read "3.5" as 3.5 and True as 1.0
        t = bug_tridiagonal(BugSpec(11, 5, 2), 0.5)
        with pytest.raises(ValueError, match="^shift must"):
            sturm_count(t, shift)
        assert sturm_count(t, 3.5) == 4


class TestTridiagEigenvalues:
    def test_golden_matrix(self):
        values = tridiag_eigenvalues(GOLDEN)
        assert np.allclose(values, GOLDEN_EIGENVALUES, atol=5e-5)

    def test_two_by_two(self):
        assert np.allclose(tridiag_eigenvalues(SymTridiag([0.0, 0.0], [1.0])), [-1, 1])

    def test_path_adjacency(self):
        # P_4 adjacency eigenvalues are 2cos(k*pi/5)
        t = bug_tridiagonal(BugSpec(4, 3, 1), 0.0)
        expected = [2 * np.cos(k * np.pi / 5) for k in (4, 3, 2, 1)]
        assert np.allclose(tridiag_eigenvalues(t), expected, atol=1e-12)

    def test_ascending_and_complete(self):
        rng = np.random.default_rng(3)
        t = random_tridiag(rng, 17)
        values = tridiag_eigenvalues(t)
        assert values.shape == (17,)
        assert np.all(np.diff(values) >= 0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 21, 34, 50])
    def test_agrees_with_jacobi_on_random_matrices(self, m):
        rng = np.random.default_rng(20260814 + m)
        t = random_tridiag(rng, m)
        from_bisection = tridiag_eigenvalues(t)
        from_jacobi = jacobi_eigenvalues(t.to_dense())
        assert np.max(np.abs(from_bisection - from_jacobi)) <= 1e-9

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 21, 34, 50])
    def test_trace_and_frobenius_invariants(self, m):
        rng = np.random.default_rng(911 + m)
        t = random_tridiag(rng, m)
        values = tridiag_eigenvalues(t)
        trace = t.diag.sum()
        assert abs(values.sum() - trace) <= 1e-9 * max(1.0, abs(trace))
        fro_sq = (t.diag**2).sum() + 2 * (t.offdiag**2).sum()
        assert abs((values**2).sum() - fro_sq) <= 1e-9 * max(1.0, fro_sq)


@st.composite
def lane_problems(draw):
    """L random tridiagonals of one order plus a random index list."""
    m = draw(st.integers(1, 12))
    entries = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
    lanes = [
        SymTridiag(
            draw(st.lists(entries, min_size=m, max_size=m)),
            draw(st.lists(entries, min_size=m - 1, max_size=m - 1)),
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    indices = draw(st.lists(st.integers(1, m), min_size=1, max_size=m))
    return lanes, indices


@st.composite
def ordered_lane_problems(draw):
    """One to three tridiagonals of one order 1..63, with float or
    half-integer entries (which repeat eigenvalues), and an index list in
    any order with repeats."""
    m = draw(st.integers(1, _BELOW_GATE))
    entries = draw(st.sampled_from([
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        st.integers(-6, 6).map(lambda k: k / 2),
    ]))
    lanes = [
        SymTridiag(
            draw(st.lists(entries, min_size=m, max_size=m)),
            draw(st.lists(entries, min_size=m - 1, max_size=m - 1)),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    indices = draw(st.lists(st.integers(1, m), min_size=1, max_size=2 * m))
    return lanes, indices


class TestLaneEigenvalues:
    @settings(max_examples=150, deadline=None)
    @given(lane_problems())
    def test_lanes_match_per_matrix_spectra(self, problem):
        lanes, indices = problem
        got = lane_eigenvalues(lanes, indices)
        picked = np.asarray(indices) - 1
        expected = np.array([tridiag_eigenvalues(t)[picked] for t in lanes])
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 40])
    def test_full_spectrum_matches_plain_bisection(self, m):
        # between the ends; the ends come from Laguerre steps
        rng = np.random.default_rng(5150 + m)
        for t in (random_tridiag(rng, m), bug_tridiagonal(BugSpec(m + 30, max(m - 1, 2), 1), 0.3)):
            assert_certified_or_plain(tridiag_eigenvalues(t), t)

    def test_one_index_of_a_wide_matrix(self):
        # one bracket runs several tree levels per round, the full spectrum
        # one level; both must follow the same bisection path
        rng = np.random.default_rng(12)
        t = random_tridiag(rng, 300)
        full = tridiag_eigenvalues(t)
        for index in (1, 150, 300):
            assert lane_eigenvalues([t], [index])[0, 0] == full[index - 1]

    def test_rejects_bad_requests(self):
        t = SymTridiag([1.0, 2.0], [0.5])
        with pytest.raises(ValueError):
            lane_eigenvalues([t, SymTridiag([1.0], [])], [1])
        # indices that are not integers: a float index was once truncated,
        # so [1.7] solved index 1
        bools = ([True], [1, True], np.array([1, 0], dtype=bool))
        for bad in ([0], [3], [], [1.7], [2.0], ["1"], *bools):
            with pytest.raises(ValueError):
                lane_eigenvalues([t], bad)
        with pytest.raises(ValueError):
            lane_eigenvalues([], [1])

    def test_accepts_numpy_integer_indices(self):
        t = SymTridiag([1.0, 2.0, 3.0], [0.5, 0.5])
        full = tridiag_eigenvalues(t)
        for indices in (np.array([3, 1], dtype=np.uint8), [np.int64(2)]):
            got = lane_eigenvalues([t], indices)[0]
            assert np.array_equal(got, full[np.asarray(indices, dtype=np.intp) - 1])

    def test_tolerance_below_one_ulp_terminates(self):
        values = tridiag_eigenvalues(GOLDEN, SolveConfig(bisection_tol=1e-300))
        assert np.allclose(values, GOLDEN_EIGENVALUES, atol=5e-5)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(eigensolve, "_MAX_BISECTION_STEPS", 4)
        with pytest.raises(ConvergenceError):
            tridiag_eigenvalues(GOLDEN)

    @pytest.mark.parametrize("diag, offdiag", [
        ([9e307] * 3, [1.0, 1.0]),
        ([-9e307, 0.0], [1.0]),
        ([1e308, 1e308], [1e308]),  # the Gershgorin sum itself overflows
    ])
    def test_bounds_past_half_the_largest_float_are_rejected(self, diag, offdiag):
        # midpoints of such brackets overflow; they used to come back as inf
        t = SymTridiag(diag, offdiag)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="half the largest float"):
                tridiag_eigenvalues(t)
            with pytest.raises(ValueError, match="half the largest float"):
                lane_eigenvalues([SymTridiag(np.zeros(t.order), np.ones(t.order - 1)), t], [1])

    def test_a_stop_too_large_for_the_brackets_is_named(self):
        # the padded brackets overflow only through the stop, so the error
        # names bisection_tol, not the matrix's Gershgorin bound
        huge = SolveConfig(bisection_tol=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (lambda: tridiag_eigenvalues(GOLDEN, huge),
                          lambda: lane_eigenvalues([GOLDEN], [6], huge),
                          lambda: bug_spectrum(BugSpec(12, 6, 2), 0.5, huge),
                          lambda: spectral_radius(BugSpec(12, 6, 2), 0.5, huge)):
                with pytest.raises(ValueError, match="^bisection_tol 1e[+]308 takes") as raised:
                    solve()
                assert "Gershgorin bound" not in str(raised.value)
            # a matrix past the bound is still blamed whatever the stop
            with pytest.raises(ValueError, match="^Gershgorin bound"):
                tridiag_eigenvalues(SymTridiag([9e307] * 3, [1.0, 1.0]), huge)
        # a stop that keeps the brackets finite stops at once, as before
        loose = tridiag_eigenvalues(GOLDEN, SolveConfig(bisection_tol=1e300))
        assert loose.size == 6 and np.isfinite(loose).all()

    def test_overflowing_offdiagonal_squares_are_scaled(self):
        # the kernel reads squared off-diagonals: these square to inf (they
        # once gave [-2e160, 2e160, 2e160] with only a RuntimeWarning, then
        # raised), so such a lane is solved times a power of two
        t = SymTridiag([0.0, 1.0, 0.0], [1e160, 1e160])
        wide = SymTridiag(np.ones(6), [1e160] * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = tridiag_eigenvalues(t)
            together = lane_eigenvalues([GOLDEN, wide], [1, 6])
            counts = [sturm_count(t, x) for x in (-2e160, -1e160, 0.5e160, 2e160)]
        atol = 1e-12 * 1.5e160
        assert np.allclose(values, np.linalg.eigvalsh(t.to_dense()), rtol=0.0, atol=atol)
        expected = np.linalg.eigvalsh(wide.to_dense())[[0, 5]]
        assert np.allclose(together[1], expected, rtol=0.0, atol=atol)
        # the lane below the limit keeps its bits
        assert np.array_equal(together[0], tridiag_eigenvalues(GOLDEN)[[0, 5]])
        assert counts == [0, 1, 2, 3]

    def test_large_offdiagonal_below_the_limit_is_solved(self):
        t = SymTridiag([0.0, 1.0, 0.0], [1e150, 1e150])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = tridiag_eigenvalues(t)
        expected = np.linalg.eigvalsh(t.to_dense())
        assert np.allclose(values, expected, rtol=0.0, atol=1e-12 * 1.5e150)
        assert sturm_count(t, 0.5e150) == 2

    def test_bounds_below_half_the_largest_float_are_solved(self):
        values = tridiag_eigenvalues(SymTridiag([4e307] * 3, [1.0, 1.0]))
        assert np.all(np.isfinite(values))
        assert np.allclose(values, 4e307, rtol=1e-15, atol=0.0)


def _count_calls(monkeypatch) -> dict:
    """Tally the calls of the count kernel and the shifts they evaluate."""
    tally = {"calls": 0, "shifts": 0}
    kernel = eigensolve._plan_counts

    def counted(plan, shifts):
        tally["calls"] += 1
        tally["shifts"] += shifts.size
        return kernel(plan, shifts)

    monkeypatch.setattr(eigensolve, "_plan_counts", counted)
    return tally


class TestDistinctBrackets:
    """Brackets that hold the same interval share its midpoints: a full
    spectrum evaluates each distinct bracket's tree once, and its early
    rounds, with few distinct brackets, go several levels deep."""

    def test_full_spectrum_of_a_wide_quotient(self, monkeypatch):
        # one bracket per index took 44 calls and 44,044 shifts, and a
        # 512-shift budget per round (a depth rule since folded into the
        # cost rule) 21 calls and 9,569 shifts; with the depth set by a
        # round's cost, 12 calls and 13,344 shifts
        tally = _count_calls(monkeypatch)
        tridiag_eigenvalues(bug_tridiagonal(BugSpec(10**6, 1000, 500), 0.6))
        assert tally["calls"] <= 13 and tally["shifts"] <= 14_000

    def test_one_index_per_lane_costs_no_more(self, monkeypatch):
        # a scan below the gate bisects nothing: its lanes take rho by
        # Laguerre steps, which count on Python floats
        tally = _count_calls(monkeypatch)
        extremal_scan(2000, 40, 0.5)
        extremal_scan(2000, 48, 0.5)
        assert tally["calls"] == 0

    def test_one_index_per_lane_at_the_widest_bench_scan(self, monkeypatch):
        # index 2 of as many lanes as the widest bench scan has, 24, in
        # rounds at order 65 (below order 64 they walk on Python floats):
        # 5 levels a round, 44 levels in 9 rounds
        tally = _count_calls(monkeypatch)
        lanes = [bug_tridiagonal(BugSpec(2000, 64, i), 0.5) for i in range(1, 25)]
        lane_eigenvalues(lanes, [2])
        assert tally["calls"] <= 9 and tally["shifts"] <= 6_312

    def test_small_full_spectrum_costs_no_more(self, monkeypatch):
        # an order-65 quotient, just past the gate below which no call runs
        # rounds: 65 brackets, 8 levels in the first round, then fewer as
        # they part
        tally = _count_calls(monkeypatch)
        tridiag_eigenvalues(bug_tridiagonal(BugSpec(100, 64, 3), 0.5))
        assert tally["calls"] <= 10 and tally["shifts"] <= 8_031

    @settings(max_examples=50, deadline=None)
    @given(ordered_lane_problems())
    def test_any_index_order_matches_plain_bisection(self, problem):
        # the reference takes one bisection step per bracket and round, with
        # one scalar count per midpoint, and shares no code with
        # lane_eigenvalues; the ends, and at _FINISH_ORDERS the values
        # between them, come from certified Laguerre steps. Each value has
        # the bits of its lane's full spectrum
        lanes, indices = problem
        got = lane_eigenvalues(lanes, indices)
        for row, t in zip(got, lanes):
            full = tridiag_eigenvalues(t)
            assert_certified_or_plain(full, t)
            assert row.tobytes() == full[np.array(indices) - 1].tobytes()


# bug quotients of order 64 to 1001, balanced and not, where rounds run on
# run plans
_RUN_PLAN_BUGS = [
    BugSpec(100, 63, 31), BugSpec(500, 63, 2), BugSpec(10**4, 200, 100),
    BugSpec(10**4, 200, 9), BugSpec(10**6, 1000, 500), BugSpec(10**6, 1000, 17),
]


class TestRoundDepth:
    """A round's depth is set by its cost: a fixed part (_ROUND_COST) plus
    one per shift. The midpoints are plain bisection's at any depth, and a
    bracket stops at the first closed node on its path, so no value moves.
    The 4-ulp stop (bisection_tol 1e-300) is where stopping above the leaf
    matters: without it, values of every quotient below would move."""

    @pytest.mark.parametrize("tol", [1e-13, 1e-300])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.99])
    def test_values_match_one_level_per_round(self, monkeypatch, alpha, tol):
        config = SolveConfig(bisection_tol=tol)
        lanes = [bug_tridiagonal(b, alpha) for b in _RUN_PLAN_BUGS]
        tally = _count_calls(monkeypatch)
        got = [tridiag_eigenvalues(t, config) for t in lanes]
        deep = tally["calls"]
        monkeypatch.setattr(eigensolve, "_tree_depth", lambda *args: (1, False))
        for t, values in zip(lanes, got):
            assert np.array_equal(values, tridiag_eigenvalues(t, config)), t.order
        # one level per round took more than twice the calls
        assert 2 * deep < tally["calls"] - deep

    @pytest.mark.parametrize("tol", [1e-13, 1e-300])
    def test_multi_lane_values_match_one_level_per_round(self, monkeypatch, tol):
        config = SolveConfig(bisection_tol=tol)
        lanes = [bug_tridiagonal(BugSpec(5000, 120, i), a) for i in (1, 7, 60) for a in (0.0, 0.5)]
        indices = [1, 60, 121, 60, 2]
        got = lane_eigenvalues(lanes, indices, config)
        # each lane's values are those of its own single-lane solve
        for t, row in zip(lanes, got):
            assert t.order >= eigensolve._RUN_PLAN_MIN_ORDER
            assert np.array_equal(row, tridiag_eigenvalues(t, config)[np.subtract(indices, 1)])
        monkeypatch.setattr(eigensolve, "_tree_depth", lambda *args: (1, False))
        assert np.array_equal(got, lane_eigenvalues(lanes, indices, config))

    @pytest.mark.parametrize("tol", [1e-13, 1e-300])
    def test_dropped_layout_matches_one_level_per_round(self, monkeypatch, tol):
        # an unbalanced quotient: its brackets share the layout in the first
        # rounds, which it then drops while a pair still shares an interval
        config = SolveConfig(bisection_tol=tol)
        t = bug_tridiagonal(BugSpec(10**6, 1000, 37), 0.6)
        kernel = eigensolve._plan_counts

        def solve(cost, depth=eigensolve._tree_depth):
            widths = []
            monkeypatch.setattr(eigensolve, "_LAYOUT_COST", cost)
            monkeypatch.setattr(eigensolve, "_tree_depth", depth)
            monkeypatch.setattr(eigensolve, "_plan_counts",
                                lambda plan, shifts: widths.append(shifts.size) or kernel(plan, shifts))
            return tridiag_eigenvalues(t, config), widths

        got, dropped = solve(eigensolve._LAYOUT_COST)
        kept, shared = solve(0)
        assert np.array_equal(got, kept)
        assert len(dropped) == len(shared)
        # 1001 brackets: one tree each once dropped, fewer where kept
        later = [r for r, w in enumerate(dropped) if w % t.order == 0 and w > shared[r]]
        assert later and 0 < later[0] < len(dropped) - 1
        assert dropped[: later[0]] == shared[: later[0]]
        assert np.array_equal(got, solve(eigensolve._LAYOUT_COST, lambda *args: (1, False))[0])
        assert np.array_equal(got, solve(0, lambda *args: (1, False))[0])
        for index in (1, 2, 37, 501, 1000, 1001):
            assert lane_eigenvalues([t], [index], config)[0, 0] == got[index - 1]

    def test_depth_per_round(self):
        def depth(trees, left=2200):
            width, stop = np.full(1, 2.0**60), np.ones(1)
            return eigensolve._tree_depth(trees, width, stop, np.ones(1, dtype=bool), left)[0]

        # the most levels per unit of cost
        assert [depth(t) for t in (1, 100, 1001, 1199, 1200)] == [8, 3, 2, 2, 1]
        assert depth(1, left=3) == 3 and depth(1, left=1) == 1
        for trees in range(1, 5000):
            shifts = trees * (2 ** depth(trees) - 1)
            assert shifts <= max(trees, 3 * (eigensolve._ROUND_COST - 1)), trees


def _bisect_each(t: SymTridiag, indices, count) -> np.ndarray:
    """One bracket per index, bisected one step at a time with count(x) and
    lane_eigenvalues's start and stop rules: the values its trees must give
    whatever the counts are."""
    lo, hi = gershgorin_interval(t)
    tol = 1e-13 * max(1.0, hi - lo)
    pad = tol + 16.0 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi))
    values = []
    for k in indices:
        a, b = lo - pad, hi + pad
        while b - a > max(tol, 4.0 * np.spacing(max(abs(a), abs(b)))):
            mid = 0.5 * (a + b)
            if count(mid) >= k:
                b = mid
            else:
                a = mid
        values.append(0.5 * (a + b))
    return np.array(values)


class TestDescent:
    """Each bracket descends its tree level by level, as plain bisection
    does, whether the tree's counts rise or dip, and stops at the first
    closed node on its path."""

    def test_counts_that_dip_descend_as_plain_bisection(self, monkeypatch):
        # counts two too high on a window inside the gap between the 28th
        # and 29th eigenvalues of a random matrix of order 64 (no uniform
        # runs, so its plan counts every row, as the scalar loop does) rise
        # into it and fall after it, so the first tree of each call is not
        # monotone: brackets 29 and 30 are steered into the window, and a
        # leaf read off the counts by search would put them elsewhere
        t = random_tridiag(np.random.default_rng(64), eigensolve._RUN_PLAN_MIN_ORDER)
        exact = np.linalg.eigvalsh(t.to_dense())
        window = (-1.4, -0.6)
        assert exact[27] < window[0] and window[1] < exact[28]
        kernel = eigensolve._plan_counts

        def dipping(plan, shifts):
            return kernel(plan, shifts) + 2 * ((shifts > window[0]) & (shifts < window[1]))

        def count(x):
            return row_loop_count(t.diag, t.offdiag, x) + 2 * (window[0] < x < window[1])

        monkeypatch.setattr(eigensolve, "_plan_counts", dipping)
        indices = np.arange(1, t.order + 1)
        expected = _bisect_each(t, indices, count)
        assert not np.allclose(expected[28:30], exact[28:30], atol=1e-3)
        assert np.array_equal(lane_eigenvalues([t], indices)[0], expected)
        for k in (29, 30):
            got = lane_eigenvalues([t, t], [k])
            assert np.array_equal(got[:, 0], expected[[k - 1, k - 1]])


@st.composite
def path_like_counts(draw):
    """A path-like tridiagonal of order 64..400 with a list of shifts.

    Either uniform (a, b != 0) with up to six random special cells, or a
    bug, halved or inner matrix (alpha 0, 0.5 or random). The shifts are
    random reals, integers, halves and thirds over the Gershgorin interval,
    and the band edges a +- 2b of the uniform part.
    """
    kind = draw(st.sampled_from(["path", "bug", "halved", "inner"]))
    if kind == "path":
        m = draw(st.integers(64, 400))
        a = draw(st.floats(-5, 5))
        b = draw(st.floats(0.05, 5)) * draw(st.sampled_from([-1.0, 1.0]))
        diag, offdiag = np.full(m, a), np.full(m - 1, b)
        for _ in range(draw(st.integers(0, 6))):
            j = draw(st.integers(0, m - 2))
            if draw(st.booleans()):
                diag[j] = draw(st.floats(-10, 10))
            else:
                offdiag[j] = draw(st.floats(-5, 5))
        t = SymTridiag(diag, offdiag)
    else:
        alpha = draw(st.sampled_from([0.0, 0.5]) | st.floats(0, 0.99))
        a, b = 2.0 * alpha, 1.0 - alpha
        d = draw(st.integers(128, 400))
        n = d + draw(st.integers(2, 10**6))
        if kind == "bug":
            t = bug_tridiagonal(BugSpec(n, d, draw(st.integers(1, d // 2))), alpha)
        else:
            d -= d % 2  # the halved and inner matrices need an even diameter
            if kind == "halved":
                t = halved_tridiagonal(n, d, alpha)
            else:
                t = proof_decomposition(BugSpec(n, d, d // 2), alpha)[1]
    lo, hi = gershgorin_interval(t)
    whole = st.integers(math.floor(3 * lo) - 1, math.ceil(3 * hi) + 1)
    shifts = draw(st.lists(st.floats(lo - 1, hi + 1), max_size=10))
    shifts += [k / 3 for k in draw(st.lists(whole, max_size=10))]
    shifts += [k / 2 for k in draw(st.lists(whole, max_size=10))]
    shifts += [float(k // 3) for k in draw(st.lists(whole, max_size=10))]
    shifts += [a - 2 * abs(b), a + 2 * abs(b)]
    return t, shifts


@st.composite
def small_counts(draw):
    """A tridiagonal of order 1..63 with integer or half-integer entries,
    and shifts that hit its eigenvalues and make zero pivots: integers,
    halves and the eigvalsh values."""
    m = draw(st.integers(1, _BELOW_GATE))
    entries = st.integers(-6, 6).map(lambda k: k / 2)
    diag = draw(st.lists(entries, min_size=m, max_size=m))
    offdiag = draw(st.lists(entries, min_size=m - 1, max_size=m - 1))
    t = SymTridiag(diag, offdiag)
    whole = st.integers(-40, 40)
    shifts = [float(k) for k in draw(st.lists(whole, min_size=1, max_size=8))]
    shifts += [k / 2 for k in draw(st.lists(whole, min_size=1, max_size=8))]
    shifts += np.linalg.eigvalsh(t.to_dense()).tolist()
    return t, shifts


_BELOW_GATE = eigensolve._RUN_PLAN_MIN_ORDER - 1


class TestRowStepCounts:
    @settings(max_examples=200, deadline=None)
    @given(small_counts())
    def test_counts_match_the_row_loop_at_every_shift(self, problem):
        # below the gate every row is one step of the recurrence, so the
        # count matches the scalar loop exactly, eigenvalue hits included
        t, shifts = problem
        for x in shifts:
            assert sturm_count(t, x) == row_loop_count(t.diag, t.offdiag, x), x

    def test_one_step_per_row_in_one_group(self):
        t = bug_tridiagonal(BugSpec(300, _BELOW_GATE - 1, 20), 0.3)
        group, steps, _ = one_group([t, t])
        assert np.arange(2)[group].tolist() == [0, 1]
        assert len(steps) == t.order and all(k is None for _, _, k, _ in steps)


class TestRunPlanCounts:
    @settings(max_examples=120, deadline=None)
    @given(path_like_counts())
    def test_counts_match_the_row_loop_away_from_eigenvalues(self, problem):
        t, shifts = problem
        assert t.order >= eigensolve._RUN_PLAN_MIN_ORDER
        values = np.linalg.eigvalsh(t.to_dense())
        margin = 1e-9 * max(1.0, float(np.max(np.abs(values))))
        for x in shifts:
            if np.min(np.abs(values - x)) > margin:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    count = sturm_count(t, x)
                assert count == row_loop_count(t.diag, t.offdiag, x), x

    def test_runs_are_jumped_in_closed_form(self):
        t = bug_tridiagonal(BugSpec(1000, 200, 50), 0.3)
        lanes, steps, _ = one_group([t])
        # one group holds every lane by slice
        assert lanes == slice(None)
        assert [None if k is None else int(k[0, 0]) for _, _, k, _ in steps] == [
            None, 48, None, None, None, 148, None,
        ]

    def test_mixed_lanes_match_each_lane_alone(self):
        # lanes of different plan shapes share one call; each must keep the
        # bits it has when solved alone
        d = 120
        lanes = [
            bug_tridiagonal(BugSpec(900, d, i), alpha)
            for i in (1, 2, 3, d // 2)
            for alpha in (0.0, 0.5)
        ]
        indices = [1, 2, d // 2, d, d + 1]
        together = lane_eigenvalues(lanes, indices)
        for row, t in zip(together, lanes):
            alone = lane_eigenvalues([t], indices)[0]
            assert np.array_equal(row, alone)
            assert np.array_equal(row, tridiag_eigenvalues(t)[np.asarray(indices) - 1])


def _jump_both_ways(pivot, a, c, k, x):
    """_jump with a fresh prelude and with one computed beforehand, used
    twice as two runs of one count would use it."""
    own = eigensolve._jump(pivot, a, c, k, x, eigensolve._prelude(a, c, x))
    prelude = eigensolve._prelude(a, c, x)
    shared = [eigensolve._jump(pivot, a, c, k, x, prelude) for _ in range(2)]
    for run, last in shared:
        assert np.array_equal(run, own[0])
        assert last.tobytes() == own[1].tobytes()
    return own


class TestSharedPrelude:
    """Runs of a plan group with equal a and c columns share the part of
    the jump that reads only the shifts (_prelude), once per count."""

    @pytest.mark.parametrize("shifts, regimes", [
        ([-0.9, -0.5, 0.3, 1.0, 2.2, 2.99], "inside"),  # t = (1 - x)/2, |t| < 1
        ([-40.0, -5.0, -1.5, 3.5, 7.0, 1e6], "outside"),
        ([-1.0, 3.0], "edge"),  # t = 1 and t = -1
        ([-5.0, -1.0, -0.5, 1.0, 3.0, 3.5, 1e6], "mixed"),
    ])
    def test_jump_with_a_prelude_matches_jump_without(self, shifts, regimes):
        x = np.array([shifts, shifts[::-1]])
        u = np.abs((1.0 - x) / 2.0)
        holds = {"inside": u < 1.0, "outside": u > 1.0, "edge": u == 1.0}
        if regimes == "mixed":
            assert all(v.any() for v in holds.values())
        else:
            assert holds[regimes].all()
        rng = np.random.default_rng(len(shifts))
        a, c, k = np.ones((2, 1)), np.ones((2, 1)), np.array([[5], [200]])
        for pivot in (rng.uniform(-3.0, 3.0, x.shape), np.zeros(x.shape), np.full(x.shape, -0.0)):
            _jump_both_ways(pivot, a, c, k, x)

    @pytest.mark.parametrize("t_sign", [1.0, -1.0])
    def test_jump_ending_on_an_exact_zero_matches(self, t_sign):
        # the run of test_run_ending_on_an_exact_zero_pivot: it ends on -0.0
        # for t = 1 and +0.0 for t = -1
        pivot, x = np.array([[t_sign * 63 / 64]]), np.array([[-2.0 * t_sign]])
        _, pivot = _jump_both_ways(pivot, 0.0, np.ones((1, 1)), np.array([[63]]), x)
        assert pivot[0, 0] == 0.0 and np.signbit(pivot[0, 0]) == (t_sign > 0)

    def test_runs_share_a_prelude_only_when_a_and_c_are_equal(self):
        def slots(lanes):
            _, steps, slots = one_group(lanes)
            marked = [step for step in steps if step[2] is not None]
            assert len(marked) == 2
            assert slots == len({step[3] for step in marked})
            return slots

        # the two paths of a bug quotient, and two runs split by one cell
        assert slots([bug_tridiagonal(BugSpec(1000, 200, 50), 0.3)]) == 1
        same = SymTridiag.path(150, 1.0, 0.5, {70: 3.0}, {})
        assert slots([same]) == 1
        # runs that differ in a, in c, or in one lane of a group do not share
        other_a = SymTridiag([1.0] * 70 + [2.0] * 80, np.ones(149))
        other_c = SymTridiag(np.ones(150), [1.0] * 75 + [2.0] * 74)
        assert slots([other_a]) == slots([other_c]) == 2
        mixed = SymTridiag([1.0] * 70 + [3.0] + [2.0] * 79, np.full(149, 0.5))
        assert slots([same, mixed]) == 2


# |t| of each regime, all exact in x = a - 2bt and back in t = (a - x)/(2b)
_REGIME_T = {
    "inside": [0.0, 0.25, -0.5, 0.75, -0.9375, 0.125, -0.0625],
    "outside": [1.5, -3.0, 2.0**20, -1.25, 7.0],
    "edge": [1.0, -1.0],
}


class TestMainRegime:
    """A count whose shifts fall in several regimes evaluates the regime
    holding the most on every shift and overwrites the others' shifts with
    their own closed forms."""

    @pytest.mark.parametrize("main, held", [
        ("inside", {"inside": 23, "outside": 5, "edge": 3}),
        ("outside", {"inside": 6, "outside": 19, "edge": 4}),  # bool crossings take float ones
        ("edge", {"inside": 5, "outside": 7, "edge": 17}),
    ])
    def test_mixed_jump_matches_each_shift_alone(self, main, held):
        rng = np.random.default_rng(len(main))
        a, c, k = np.array([[1.0], [0.5]]), np.array([[1.0], [4.0]]), np.array([[5], [200]])
        kinds = [kind for kind, count in held.items() for _ in range(count)]
        t = np.array([[rng.choice(_REGIME_T[kind]) for kind in rng.permutation(kinds)]
                      for _ in range(2)])
        x = a - 2.0 * np.sqrt(c) * t
        prelude = eigensolve._prelude(a, c, x)
        assert prelude[2][0] is getattr(eigensolve, f"_{main}")
        assert len(prelude[3]) == 2
        for pivot in (rng.uniform(-3.0, 3.0, x.shape), np.zeros(x.shape), np.full(x.shape, -0.0)):
            run, last = eigensolve._jump(pivot, a, c, k, x, prelude)
            for l, j in np.ndindex(x.shape):
                one = (slice(l, l + 1), slice(j, j + 1))
                alone = eigensolve._prelude(a[one[0]], c[one[0]], x[one])
                assert not alone[3]
                run_alone, last_alone = eigensolve._jump(
                    pivot[one], a[one[0]], c[one[0]], k[one[0]], x[one], alone
                )
                assert run[l, j] == run_alone[0, 0], (l, j)
                assert last[l, j].tobytes() == last_alone[0, 0].tobytes(), (l, j)

    @pytest.mark.parametrize("u", [0.05, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("k", [2, 37, 999])
    def test_inside_ratio_is_the_ratio_of_sines(self, u, k):
        # psi = k theta + phi is steered next to j pi and j pi + pi/2, where
        # one of the two sines is within 1e-9 of 0
        angle = eigensolve._band(np.array([[u]]))
        _, sin_theta, theta = (float(v[0, 0]) for v in angle)
        base = math.floor(k * theta / math.pi) + 1
        for target in (base * math.pi, (base - 0.5) * math.pi, (base + 0.5) * math.pi):
            for offset in (-1e-9, -3e-10, 2e-10, 1e-9, 0.3, -0.2):
                phi = target + offset - k * theta
                if not 0.0 < phi < math.pi:
                    continue
                q = np.array([[u + sin_theta / math.tan(phi)]])
                psi = k * theta + np.arctan2(sin_theta, q - u)
                assert abs(float(psi[0, 0]) - (target + offset)) < 1e-11
                ratio = eigensolve._inside(angle, q, np.array([[k]]))[2]
                end = psi + theta
                sines = np.sin(end) / np.sin(psi)
                # the sines' own error: end is rounded to its ulp
                slack = np.spacing(end) / abs(np.sin(psi))
                assert abs(ratio - sines) <= 1e-12 * abs(sines) + slack, (target, offset)


def _lane_with_runs(runs, run_diag, run_lead, cells=(), m=96) -> SymTridiag:
    """Order m: generic rows of diagonal 0 joined by leads 0.3 and 0.45 in
    turn, except the runs, (start, rows) pairs of rows of diagonal run_diag
    joined by run_lead, and the cells, (row, diagonal, lead) triples."""
    diag, lead = np.zeros(m), np.resize([0.3, 0.45], m)
    for start, rows in runs:
        diag[start:start + rows], lead[start:start + rows] = run_diag, run_lead
    for row, entry, joint in cells:
        diag[row], lead[row] = entry, joint
    return SymTridiag(diag, lead[1:])


class TestRegimeSplit:
    """A count finds each minority regime's shifts once, as flat indices and
    their lanes, and every jump sharing its prelude gathers and writes back
    by them: in a group of several lanes, each lane keeps its own bits."""

    def test_multi_lane_group_matches_each_lane_alone(self, monkeypatch):
        # one plan shape (two runs, 28 generic rows between them), with
        # different run lengths per lane. Lane 0 lies within its runs'
        # band |t| < 1, lane 1 mostly (two eigenvalues beyond it) and lane
        # 2, whose runs sit at 50.123 with a lead of 1e-6, is asked for
        # eigenvalues far from them
        lanes = [
            _lane_with_runs([(20, 2), (50, 4)], 0.0, 1.0),
            _lane_with_runs([(20, 3), (51, 3)], 0.0, 1.0, [(40, 0.0, 2.5)]),
            _lane_with_runs([(20, 4), (52, 2)], 50.123, 1e-6, [(60, 100.0, 0.45)]),
        ]
        indices = [1, 96, 48]
        group, steps, slots = one_group(lanes)
        assert group == slice(None) and slots == 1
        assert [int(k[2, 0]) for _, _, k, _ in steps if k is not None] == [4, 2]
        held = []
        prelude = eigensolve._prelude

        def spy(a, c, x):
            u = np.abs((a - x) / (2.0 * np.sqrt(c)))
            held.append([(int((row < 1.0).sum()), int((row > 1.0).sum())) for row in u])
            return prelude(a, c, x)

        monkeypatch.setattr(eigensolve, "_prelude", spy)
        together = lane_eigenvalues(lanes, indices)
        assert all(count[0][1] == 0 for count in held)
        assert all(count[2][0] == 0 for count in held)
        assert any(0 < count[1][1] < count[1][0] for count in held)
        # the main regime is the band in some counts and outside it in others
        assert {sum(i for i, _ in count) > sum(o for _, o in count) for count in held} == {True, False}
        monkeypatch.undo()
        for row, t in zip(together, lanes):
            assert row.tobytes() == lane_eigenvalues([t], indices).tobytes()


def _unit_pivot_lane(rng, m: int, zero_row: int) -> SymTridiag:
    """A run-free tridiagonal with integer entries whose pivot at shift 0 is
    exactly 1 on rows 1 .. zero_row - 1 and exactly 0 on zero_row, followed
    by random integer rows.

    Row j has pivot diag[j] - off[j-1]**2 / pivot[j-1], so diag[j] =
    off[j-1]**2 + 1 keeps a unit pivot and diag[zero_row] = off**2 zeroes
    it. Neighbouring squared off-diagonals differ, so no two rows form a run.
    """
    off_sq = [1.0]
    while len(off_sq) < m - 1:
        off_sq.append(float(rng.choice([v for v in (1.0, 4.0, 9.0) if v != off_sq[-1]])))
    offdiag = np.sqrt(off_sq) * rng.choice([-1.0, 1.0], m - 1)
    diag = rng.integers(-4, 5, m).astype(float)
    diag[0] = 1.0
    for j in range(1, zero_row):
        diag[j] = off_sq[j - 1] + 1.0
    diag[zero_row] = off_sq[zero_row - 1]
    for j in range(zero_row + 1, m):
        while diag[j] == diag[j - 1]:
            diag[j] = float(rng.integers(-4, 5))
    return SymTridiag(diag, offdiag)


def _first_zero_pivot(t: SymTridiag, x: float):
    """The first row whose pivot at shift x is exactly zero, or None."""
    pivot = None
    with np.errstate(divide="ignore", over="ignore"):
        for j in range(t.order):
            pivot = t.diag[j] - x if j == 0 else (t.diag[j] - x) - t.offdiag[j - 1] ** 2 / pivot
            if pivot == 0.0:
                return j
    return None


class TestBlockedCounts:
    """The count kernel forms x - a for a block of rows at once and counts
    its signs at the end; an exact zero pivot needs no second pass."""

    @pytest.mark.parametrize("m, zero_row", [
        (40, 20),  # below the gate: one block of row steps
        (80, 70),  # above the gate, run-free: the zero falls in the second block
    ])
    def test_exact_zero_pivots_match_the_row_loop(self, m, zero_row):
        t = _unit_pivot_lane(np.random.default_rng(m), m, zero_row)
        _, steps, _ = one_group([t])
        assert len(steps) == m and all(k is None for _, _, k, _ in steps)
        # shift diag[0] zeroes row 0, shift 0 the middle row zero_row
        assert _first_zero_pivot(t, t.diag[0]) == 0
        assert _first_zero_pivot(t, 0.0) == zero_row
        for x in (t.diag[0], 0.0, *np.arange(-12.0, 12.5, 0.5)):
            assert sturm_count(t, x) == row_loop_count(t.diag, t.offdiag, x), x
        assert_certified_or_plain(tridiag_eigenvalues(t), t)

    @pytest.mark.parametrize("t_sign", [1.0, -1.0])
    @pytest.mark.parametrize("last", [0.5, 3.0, -1.0])
    def test_run_ending_on_an_exact_zero_pivot(self, t_sign, last):
        # rows 1..63 are (0, 1), a run at t = (0 - x)/2 = t_sign, and row 0
        # enters it with pivot t_sign * 63/64. The pivots are then exactly
        # t_sign * (63 - j)/(64 - j), so the run ends on an exact zero:
        # -0.0 for t = 1 and +0.0 for t = -1, whose crossings call it
        # positive. Row 64 reads it with the sign it was counted with.
        x = -2.0 * t_sign
        diag = np.array([x + t_sign * 63 / 64] + [0.0] * 63 + [last])
        t = SymTridiag(diag, np.ones(64))
        _, steps, _ = one_group([t])
        assert [None if k is None else int(k[0, 0]) for _, _, k, _ in steps] == [None, 63, None]
        _, c, k, _ = steps[1]
        shift = np.array([[x]])
        prelude = eigensolve._prelude(0.0, c, shift)
        _, pivot = eigensolve._jump(np.array([[t_sign * 63 / 64]]), 0.0, c, k, shift, prelude)
        assert pivot[0, 0] == 0.0 and np.signbit(pivot[0, 0]) == (t_sign > 0)
        expected = 1 if t_sign > 0 else 64
        assert sturm_count(t, x) == row_loop_count(t.diag, t.offdiag, x) == expected
        values = np.linalg.eigvalsh(t.to_dense())
        for shift in np.arange(-3.0, 3.25, 0.25):
            if np.min(np.abs(values - shift)) > 1e-9:
                assert sturm_count(t, shift) == row_loop_count(t.diag, t.offdiag, shift), shift
        # closed-form jumps match the row loop to rounding, not bit for bit
        reference = plain_bisection_eigenvalues(t.diag, t.offdiag)
        assert np.max(np.abs(tridiag_eigenvalues(t) - reference)) <= 1e-12 * max(1.0, reference[-1])

    def test_run_free_lane_spanning_several_blocks(self):
        rng = np.random.default_rng(20)
        diag = rng.integers(-6, 7, 200) / 2
        for j in range(1, diag.size):
            if diag[j] == diag[j - 1]:  # equal neighbours could form a run
                diag[j] += 0.5
        t = SymTridiag(diag, rng.integers(-6, 7, 199) / 2)
        _, steps, _ = one_group([t])
        assert all(k is None for _, _, k, _ in steps)
        assert t.order > 3 * eigensolve._BLOCK_ROWS
        shifts = [*np.arange(-12.0, 12.5, 0.5), *np.linalg.eigvalsh(t.to_dense())]
        for x in shifts:
            assert sturm_count(t, x) == row_loop_count(t.diag, t.offdiag, x), x
        assert np.array_equal(tridiag_eigenvalues(t), plain_bisection_eigenvalues(t.diag, t.offdiag))

    def test_working_memory_is_bounded_by_the_block(self):
        # one float per row and shift would be 1,500 x 1,500 x 8 B = 18 MB
        rng = np.random.default_rng(21)
        t = random_tridiag(rng, 1500)
        tracemalloc.start()
        try:
            tridiag_eigenvalues(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


@st.composite
def half_integer_counts(draw):
    """A tridiagonal with half-integer entries, zero off-diagonals allowed,
    of order 2..63 or 64..160, and every half-integer shift over its
    Gershgorin interval. It is uniform (a, b) with up to eight special
    cells, so above the gate its plan has runs, and half-integer shifts hit
    its eigenvalues and make zero pivots."""
    m = draw(st.integers(2, _BELOW_GATE) | st.integers(eigensolve._RUN_PLAN_MIN_ORDER, 160))
    half = st.integers(-6, 6).map(lambda k: k / 2)
    diag, offdiag = np.full(m, draw(half)), np.full(m - 1, draw(half))
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            diag[draw(st.integers(0, m - 1))] = draw(half)
        else:
            offdiag[draw(st.integers(0, m - 2))] = draw(half)
    reach = math.ceil(np.max(np.abs(diag)) + 2.0 * np.max(np.abs(offdiag)))
    return SymTridiag(diag, offdiag), np.arange(-reach - 0.5, reach + 1.0, 0.5)


class TestZeroPivots:
    """An exact zero pivot arises as +0 in the negated recurrence: it counts
    as negative and its quotient hands the next row a pivot of -inf."""

    @settings(max_examples=80, deadline=None)
    @given(half_integer_counts())
    def test_counts_lie_within_the_exact_inertia(self, problem):
        # at an eigenvalue x the count lies in [#(l < x), #(l <= x)]. A float
        # count is exact only for a matrix within rounding of T, so an
        # eigenvalue within rounding of x that is not at x may fall either
        # way: the ends are taken m ulps of ||T|| out from x. The closed-form
        # jumps slip so on about one shift in 20,000 of these matrices, at
        # an eigenvalue 1e-16 to 1e-18 from x.
        t, shifts = problem
        reach = Fraction(float(np.max(shifts)))
        slack = t.order * reach / 2**52
        for x in shifts:
            below = exact_inertia_bounds(t.diag, t.offdiag, Fraction(x) - slack)[0]
            at_most = exact_inertia_bounds(t.diag, t.offdiag, Fraction(x) + slack)[1]
            assert below <= sturm_count(t, x) <= at_most, x

    def test_zero_diagonal_and_zero_offdiagonal(self):
        # the first pivot is 0 and the second row's quotient would be 0/0
        t = SymTridiag([0.0, 0.0], [0.0])
        assert exact_inertia_bounds(t.diag, t.offdiag, 0.0) == (0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sturm_count(t, 0.0) == row_loop_count(t.diag, t.offdiag, 0.0) == 1
            assert np.allclose(tridiag_eigenvalues(t), 0.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("x", [0.5, -1.0, 3.0, -2.5, 4.5])
    def test_zero_pivot_entering_a_run(self, x):
        # row 0's pivot x - x is zero, and rows 1..80 form one run the kernel
        # jumps in closed form at t = (1 - x)/2: 0.25, 1, -1, 1.75 and -1.75,
        # inside the band, on its edge and outside it, each mirrored or not
        t = SymTridiag([x] + [1.0] * 80, np.ones(80))
        _, steps, _ = one_group([t])
        assert [None if k is None else int(k[0, 0]) for _, _, k, _ in steps] == [None, 80]
        assert _first_zero_pivot(t, x) == 0
        assert sturm_count(t, x) == row_loop_count(t.diag, t.offdiag, x)
        for shift in (x, *np.arange(-1.5, 3.75, 0.25)):
            below, at_most = exact_inertia_bounds(t.diag, t.offdiag, shift)
            assert below <= sturm_count(t, shift) <= at_most, shift

    def test_negative_zero_shift_counts_as_positive_zero(self):
        # at -0.0 a zero first pivot would be -0, which counts, and hand the
        # next row +inf, which counts again
        for t in (SymTridiag([0.0, 0.0], [0.0]), SymTridiag([0.0] * 81, np.ones(80)), GOLDEN):
            assert sturm_count(t, -0.0) == sturm_count(t, 0.0)

    def test_zero_pivot_at_a_large_norm(self):
        # the shift 1e150 zeroes row 0's pivot. The stand-in that replaced a
        # zero pivot, -eps * ||T|| * (1 + |x|), grew like ||T||^2 and
        # decoupled row 0: the values erred by 3.2e-3 ||T||, and the count
        # at 1e150 was 41
        m = 80
        t = SymTridiag(np.full(m, 1e150), np.full(m - 1, 1e149))
        expected = 1e150 + 2e149 * np.cos(np.arange(m, 0, -1) * np.pi / (m + 1))
        assert np.max(np.abs(tridiag_eigenvalues(t) - expected)) <= 1e-13 * 1.2e150
        assert sturm_count(t, 1e150) == 40


def _alone_and_together(lanes, indices, config=None, many=False):
    """lane_eigenvalues of each lane alone and of all lanes in one call
    (with many, the lanes repeated past 80, every copy checked to have the
    first copy's bits, which are returned), both with config and with the
    count kernel forbidden below the gate, where every lane is solved on
    its own on Python floats."""
    def forbidden(plan, shifts):
        raise AssertionError("the count kernel ran below the run-plan gate")

    repeats = 80 // len(lanes) + 1 if many else 1
    with pytest.MonkeyPatch.context() as mp:
        if lanes[0].order < eigensolve._RUN_PLAN_MIN_ORDER:
            mp.setattr(eigensolve, "_plan_counts", forbidden)
        alone = np.concatenate([lane_eigenvalues([t], indices, config) for t in lanes])
        together = lane_eigenvalues(lanes * repeats, indices, config)
    first = together[: len(lanes)]
    assert together.tobytes() == np.tile(first, (repeats, 1)).tobytes()
    assert alone.shape == first.shape == (len(lanes), len(indices))
    return alone, first


def _reversed(t: SymTridiag) -> SymTridiag:
    """t with its rows in reverse order: the same spectrum, other rows."""
    return SymTridiag(t.diag[::-1], t.offdiag[::-1])


# the default stop, and one below an ulp everywhere: every bracket then
# stops at 4 ulps of its ends
_BOTH_STOPS = (DEFAULT_CONFIG, SolveConfig(bisection_tol=1e-300))


def _sweep_lanes(t):
    """Eight lanes of t's order: t and t reversed, each negated or not, and
    each as it is or shifted to centre its Gershgorin interval on 0, where
    its root midpoint then falls exactly."""
    lanes = []
    for diag, offdiag in ((t.diag, t.offdiag), (t.diag[::-1], t.offdiag[::-1])):
        for sign in (1.0, -1.0):
            lane = SymTridiag(sign * diag, offdiag)
            lo, hi = gershgorin_interval(lane)
            lanes += [lane, SymTridiag(sign * diag - 0.5 * (lo + hi), offdiag)]
    return lanes


def _check_extreme_calls(lanes):
    """Index m alone on up to four lanes (a scan's shape), index 1 alone on
    one, and both on every lane and on those lanes repeated past 80 (a
    sweep's shape), at both stops: each value has the bits it has in its
    lane's full spectrum. Below the gate, at the default stop, the first
    lane's ends are certified (assert_end)."""
    t = lanes[0]
    m = t.order
    for config in _BOTH_STOPS:
        full = lane_eigenvalues(lanes, np.arange(1, m + 1), config)
        for count, indices, many in ((4, [m], False), (1, [1], False), (len(lanes), [1, m], True)):
            expected = full[:count, np.array(indices) - 1]
            for got in _alone_and_together(lanes[:count], indices, config, many):
                assert got.tobytes() == expected.tobytes(), (indices, config)
    if m < eigensolve._RUN_PLAN_MIN_ORDER:
        plain = plain_bisection_eigenvalues(t.diag, t.offdiag)
        values = lane_eigenvalues([t], [1, m])[0]
        assert_end(values[0], t, plain[0], top=False)
        assert_end(values[1], t, plain[-1])


class TestScalarBisection:
    """Below the run-plan gate, every call, whatever its number of lanes,
    walks each lane's bisection tree on Python floats, one count per node,
    with no round and no count kernel: a lane's values have the bits they
    have alone, at the default stop and at the 4-ulp stop. Indices 1 and m
    are not bisected there (TestLaguerreTop, TestLaguerreBottom) but where
    their steps fail."""

    @settings(max_examples=150, deadline=None)
    @given(small_counts())
    def test_same_bits_on_small_counts(self, problem):
        t, _ = problem
        lanes, indices = [t, _reversed(t)], np.arange(1, t.order + 1)
        for config in _BOTH_STOPS:
            alone, together = _alone_and_together(lanes, indices, config)
            assert alone.tobytes() == together.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(half_integer_counts())
    def test_same_bits_with_zero_offdiagonals_and_zero_pivots(self, problem):
        t, _ = problem
        lanes, indices = [t, _reversed(t)], np.arange(1, t.order + 1)
        for config in _BOTH_STOPS:
            alone, together = _alone_and_together(lanes, indices, config)
            assert alone.tobytes() == together.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(ordered_lane_problems())
    def test_same_bits_on_lanes_with_repeated_unsorted_indices(self, problem):
        lanes, indices = problem
        for config in _BOTH_STOPS:
            alone, together = _alone_and_together(lanes, indices, config)
            assert alone.tobytes() == together.tobytes()

    def test_same_bits_on_several_bug_lanes(self):
        lanes = [bug_tridiagonal(BugSpec(30, 12, i), alpha) for i in (1, 3, 6) for alpha in (0.0, 0.5)]
        alone, together = _alone_and_together(lanes, [13, 2, 7, 2, 1, 13, 7])
        assert alone.tobytes() == together.tobytes()

    def test_same_bits_on_the_oracle_grid(self):
        # the full spectra of the n <= 12 grid's quotients at its alphas,
        # and of the halved ones, each alone and as one call per order, as
        # verify solves them: 80 to 90 lanes at orders 5 and 7
        lanes = {}
        for b in enumerate_bugs(12):
            for alpha in (0.0, 0.25, 0.5, 0.75, 0.99):
                group = [bug_tridiagonal(b, alpha)]
                if b.d % 2 == 0 and b.d >= 4 and b.i == b.d // 2:
                    group.append(halved_tridiagonal(b.n, b.d, alpha))
                for t in group:
                    lanes.setdefault(t.order, []).append(t)
        assert max(len(group) for group in lanes.values()) > 80
        for m, group in lanes.items():
            for config in _BOTH_STOPS:
                alone, together = _alone_and_together(group, np.arange(1, m + 1), config)
                assert alone.tobytes() == together.tobytes(), (m, config)

    def test_same_bits_where_the_ulp_stop_binds_in_one_lane(self):
        # near 1e6 an ulp is 1.2e-10, so 4 ulps pass the default stop of
        # 1e-13 times the span 3: that lane's brackets stop at 4 ulps. The
        # other lane's 4 ulps stay below its stop, so there the clause
        # never binds and the walk skips it
        near = SymTridiag([1e6, 1e6 + 1, 1e6 + 2], [0.5, 0.5])
        far = SymTridiag([0.0, 1.0, 2.0], [0.5, 0.5])
        binds = []
        for t in (near, far):
            lo, hi = gershgorin_interval(t)
            binds.append(4.0 * math.ulp(max(-lo, hi)) > DEFAULT_CONFIG.bisection_tol * (hi - lo))
        assert binds == [True, False]
        alone, together = _alone_and_together([near, far], [3, 1, 2, 1])
        assert alone.tobytes() == together.tobytes()
        for row, t in zip(together, (near, far)):
            expected = np.linalg.eigvalsh(t.to_dense())
            assert np.allclose(row[[1, 2, 0]], expected, rtol=0, atol=1e-9)

    def test_same_bits_where_a_zero_pivot_is_met_mid_walk(self):
        # Each lane's Gershgorin interval is symmetric about 0 (padded
        # alike at both ends), so its root midpoint is exactly 0. On
        # path_zero the pivots at 0 are +0, then c/(+0) makes -inf, then
        # (0 - 0) - 1/(-inf) = +0 again: rows 1 and 3 divide by +0. On
        # later_zero the pivots at 0 are -1, then (0 - 1) - 1/(-1) = +0
        # after a nonzero row, so row 2 divides by +0, and the last pivot is
        # (0 + 1) - 1/1 = +0
        path_zero = SymTridiag(np.zeros(5), np.ones(4))
        later_zero = SymTridiag([1.0, 1.0, 0.0, -1.0, -1.0], np.ones(4))
        for t in (path_zero, later_zero):
            lo, hi = gershgorin_interval(t)
            assert lo == -hi
        assert sturm_count(path_zero, 0.0) == 3 and sturm_count(later_zero, 0.0) == 3
        alone, together = _alone_and_together([path_zero, later_zero], np.arange(1, 6))
        assert alone.tobytes() == together.tobytes()
        for row, t in zip(together, (path_zero, later_zero)):
            assert_certified_or_plain(row, t)

    @settings(max_examples=60, deadline=None)
    @given(small_counts())
    def test_same_bits_for_extreme_indices_on_small_counts(self, problem):
        t, _ = problem
        _check_extreme_calls(_sweep_lanes(t))

    @settings(max_examples=40, deadline=None)
    @given(half_integer_counts())
    def test_same_bits_for_extreme_indices_with_zero_pivots(self, problem):
        t, _ = problem
        _check_extreme_calls(_sweep_lanes(t))

    def test_same_bits_where_a_zero_pivot_decides_an_extreme_node(self):
        # Each lane's Gershgorin interval is symmetric about 0, so its root
        # midpoint is exactly 0 (path_zero and later_zero as above). At 0,
        # mirrored_zero's pivots are 1, +0, -inf, -1, +0: index 5 goes
        # right at the -inf, though the last pivot is not negative.
        # bottom_zero's are -1, +0, -inf, -1, -0.75 and first_zero's +0,
        # -inf, -1, -0.75, -2/3: index 1 goes left at the +0, though every
        # later pivot is negative
        path_zero = SymTridiag(np.zeros(5), np.ones(4))
        later_zero = SymTridiag([1.0, 1.0, 0.0, -1.0, -1.0], np.ones(4))
        mirrored_zero = SymTridiag([-1.0, -1.0, 0.0, 1.0, 1.0], np.ones(4))
        bottom_zero = SymTridiag([1.0, 1.0, -1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.5])
        first_zero = SymTridiag([0.0, -0.5, 1.0, 1.0, 1.0], [1.0, 1.0, 0.5, 0.5])
        lanes = [path_zero, later_zero, mirrored_zero, bottom_zero, first_zero]
        for t in lanes:
            lo, hi = gershgorin_interval(t)
            assert lo == -hi
        assert [row_loop_count(t.diag, t.offdiag, 0.0) for t in lanes] == [3, 3, 3, 1, 1]
        for k in range(len(lanes)):
            _check_extreme_calls(lanes[k:] + lanes[:k])

    @pytest.mark.parametrize("m", [2, 3, 7, 16, 40, _BELOW_GATE])
    def test_matches_plain_bisection(self, m):
        rng = np.random.default_rng(6150 + m)
        for t in (random_tridiag(rng, m), bug_tridiagonal(BugSpec(m + 30, max(m - 1, 2), 1), 0.3)):
            alone, _ = _alone_and_together([t], np.arange(1, t.order + 1))
            assert_certified_or_plain(alone[0], t)

    def test_overflowing_offdiagonal_squares_are_scaled(self):
        t = SymTridiag([0.0, 1.0, 0.0], [1e160, 1e160])
        expected = np.linalg.eigvalsh(t.to_dense())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone, together = _alone_and_together([t] * 81, np.arange(1, 4))
        assert np.allclose(alone[0], expected, rtol=0.0, atol=1e-12 * 1.5e160)
        # among 80 other lanes it takes the same scaled midpoints
        assert alone.tobytes() == together.tobytes()

    def test_step_cap_raises(self, monkeypatch):
        # GOLDEN's brackets 1-5 close at level 44, and so does the top one
        # of an order-81 bug quotient. The walk and the rounds on a run plan
        # raise at exactly the cap: a round takes no more levels than are
        # left. GOLDEN's top comes from Laguerre steps, which no bisection
        # cap stops, and so do its other values unless they are bisected to
        # the stop (no _FINISH_ORDERS)
        monkeypatch.setattr(eigensolve, "_FINISH_ORDERS", range(0))
        wide = bug_tridiagonal(BugSpec(200, 80, 30), 0.5)
        for t, indices in ((GOLDEN, np.arange(1, 7)), (wide, [81]), (wide, np.arange(1, 82))):
            monkeypatch.setattr(eigensolve, "_MAX_BISECTION_STEPS", 43)
            with pytest.raises(ConvergenceError, match="43 steps"):
                lane_eigenvalues([t], indices)
            monkeypatch.setattr(eigensolve, "_MAX_BISECTION_STEPS", 44)
            lane_eigenvalues([t], indices)
        assert np.allclose(tridiag_eigenvalues(GOLDEN), GOLDEN_EIGENVALUES, atol=5e-5)
        monkeypatch.setattr(eigensolve, "_MAX_BISECTION_STEPS", 1)
        top = lane_eigenvalues([GOLDEN], [6])[0, 0]
        assert_end(top, GOLDEN, math.nan)

    def test_lanes_at_the_gate_stay_on_the_rounds(self, monkeypatch):
        tally = _count_calls(monkeypatch)
        rng = np.random.default_rng(64)
        lane_eigenvalues([random_tridiag(rng, _BELOW_GATE)], [1])
        assert tally["calls"] == 0
        lane_eigenvalues([random_tridiag(rng, eigensolve._RUN_PLAN_MIN_ORDER)], [1])
        assert tally["calls"] > 0


@st.composite
def laguerre_lanes(draw):
    """One to four tridiagonals of one order 2..63, with float or
    half-integer entries (zero off-diagonals, repeated eigenvalues and
    exact zero pivots), each lane scaled by 1, 1e-300 (squared
    off-diagonals below the smallest subnormal) or 1e160 (squares that
    overflow, so the call solves it scaled, _fitted)."""
    m = draw(st.integers(2, _BELOW_GATE))
    entries = draw(st.sampled_from([
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        st.integers(-6, 6).map(lambda k: k / 2),
    ]))
    lanes = []
    for _ in range(draw(st.integers(1, 4))):
        scale = draw(st.sampled_from([1.0, 1e-300, 1e160]))
        diag = draw(st.lists(entries, min_size=m, max_size=m))
        offdiag = draw(st.lists(entries, min_size=m - 1, max_size=m - 1))
        lanes.append(SymTridiag(scale * np.array(diag), scale * np.array(offdiag)))
    return lanes


class TestLaguerreTop:
    """Below the run-plan gate, index m (rho) of every lane comes from
    Laguerre steps down from the padded Gershgorin top, certified by a
    count at the far end of a 4-ulp bracket; a lane whose steps fail is
    bisected. Each lane steps on Python floats, alone or among any number
    of lanes, with the same bits."""

    @pytest.mark.skipif(not _EXTENDED, reason="np.longdouble has no 64-bit mantissa here")
    def test_every_bug_rho_below_the_gate_is_right_to_4_ulps(self, monkeypatch):
        # every split of d = 2..62 (orders 3..63) at four alphas and three n:
        # 11,532 values, each certified after at most 6 evaluations; the
        # default bisection stop is 1e-13 times the span, 2e-7 at n = 10^6
        # the scans' rhos are also those of one call on all of d's lanes,
        # more than 80 from d = 14
        for d in range(2, _BELOW_GATE):
            cases = [(n, a) for n in (d + 2, 10 * d + 7, 10**6) for a in (0.0, 0.3, 0.6, 0.99)]
            lanes = [bug_tridiagonal(BugSpec(n, d, i), a) for n, a in cases for i in range(1, d // 2 + 1)]
            reference = longdouble_tops([t.diag for t in lanes], [t.offdiag for t in lanes])
            rhos = np.array([row.rho for n, a in cases for row in extremal_scan(n, d, a)])
            assert rhos.tobytes() == lane_eigenvalues(lanes, [d + 1])[:, 0].tobytes(), d
            assert np.all(np.abs(rhos - reference) <= 4.0 * np.spacing(reference)), d

    @settings(max_examples=100, deadline=None)
    @given(laguerre_lanes())
    def test_one_lane_and_many_lanes_give_the_same_bits(self, lanes):
        # the steps themselves, NaN where a lane falls back and its value
        # where not, and the ends of each lane alone and among more than 80
        m = lanes[0].order
        runs, scales = eigensolve._fitted(eigensolve._lane_runs(lanes))
        hi = eigensolve._brackets(runs, DEFAULT_CONFIG)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            steps = np.array([laguerre._scalar_top(row, x)
                              for row, x in zip(eigensolve._row_lists(runs), hi.tolist())])
            alone, together = _alone_and_together(lanes, [m, 1], many=True)
        assert alone.tobytes() == together.tobytes()
        stepped = steps == steps
        got = lane_eigenvalues(lanes, [m])[:, 0]
        assert got[stepped].tobytes() == (steps / scales)[stepped].tobytes()

    def test_a_doubled_top_falls_back_to_bisection(self, monkeypatch):
        # two equal blocks joined by a zero off-diagonal: the steps approach
        # a double top only linearly (27-33 steps on such blocks), so past
        # laguerre._MAX_STEPS the lane is walked by bisection, with its
        # bits, alone and among 80 copies alike, in one walk a call
        diag, offdiag = [1.0, 3.0, 2.0], [1.0, 0.5]
        t = SymTridiag(diag * 2, offdiag + [0.0] + offdiag)
        asked = []
        walk = eigensolve._scalar_bisection

        def walked(rows, wanted, *brackets):
            asked.append(wanted)
            return walk(rows, wanted, *brackets)

        monkeypatch.setattr(eigensolve, "_scalar_bisection", walked)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = lane_eigenvalues([t], [6])
            many = lane_eigenvalues([t] * 81, [6])
        assert asked == [[6], [6]]
        plain = plain_bisection_eigenvalues(t.diag, t.offdiag)[-1]
        assert alone[0, 0] == plain and np.all(many == plain)
        # bisection's step cap still holds
        monkeypatch.setattr(eigensolve, "_MAX_BISECTION_STEPS", 4)
        with pytest.raises(ConvergenceError):
            lane_eigenvalues([t], [6])

    def test_rho_is_4_ulps_whatever_the_stop(self):
        # a stop of 1e-3 leaves index 2 loose but not the top
        loose = lane_eigenvalues([GOLDEN], [2, 6], SolveConfig(bisection_tol=1e-3))[0]
        assert abs(loose[0] - GOLDEN_EIGENVALUES[1]) <= 1e-3 * 7.0
        assert_end(loose[1], GOLDEN, math.nan)


def _bisected(lanes, indices):
    """lane_eigenvalues with every Laguerre step refused, so that every end
    falls back to the walk: the bisection bits of a failed certificate."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laguerre, "_MAX_STEPS", 0)
        return lane_eigenvalues(lanes, indices)


def _check_bottoms(lanes):
    """Index 1 of every lane either lies within max(4 ulps, 2 eps) of the
    80-bit reference, minus the top of the negated lane, or has the bits
    bisection gives it (a lane whose steps fell back). Returns the number
    of lanes that match bisection's bits."""
    got = lane_eigenvalues(lanes, [1])[:, 0]
    plain = _bisected(lanes, [1])[:, 0]
    ref = -longdouble_tops([-t.diag for t in lanes], [t.offdiag for t in lanes])
    bound = np.maximum(4.0 * np.spacing(np.abs(ref)), 2.0 * np.finfo(float).eps)
    certified = np.abs(got - ref) <= bound
    assert np.all(certified | (got == plain)), np.flatnonzero(~certified)
    return int(np.count_nonzero(got == plain))


class TestLaguerreBottom:
    """Below the run-plan gate, index 1 of every lane is minus the top of
    the lane with its diagonal negated, from Laguerre steps started at
    minus the padded Gershgorin bottom. Where S1^2 > 1.5 S2 a step is the
    one for a double root; one that lands below the top climbs back by
    Laguerre's other root, and one that lands past the next value goes back
    to plain steps. A step of at most 1e-6 |x| is certified at once, by
    counts over max(4 ulps, 2 eps); a lane whose steps fail is bisected.
    Each lane steps on Python floats, alone or among any number of lanes,
    with the same bits."""

    @pytest.mark.skipif(not _EXTENDED, reason="np.longdouble has no 64-bit mantissa here")
    def test_every_sweep_bottom_below_the_gate_is_certified(self):
        # every split of d = 2..62 at four alphas and three n, solved as a
        # sweep solves them (one call per split, one lane per alpha) and in
        # one call on all of d's lanes (more than 80 from d = 14): 11,532
        # values, each within max(4 ulps, 2 eps) of the reference or, where
        # its steps fell back, bisection's
        alphas = np.array([0.0, 0.3, 0.6, 0.99])
        fallbacks = 0
        for d in range(2, _BELOW_GATE):
            lanes, values = [], []
            for n in (d + 2, 10 * d + 7, 10**6):
                for i in range(1, d // 2 + 1):
                    runs = _bug_runs(n, d, i, alphas)
                    values.append(eigensolve._run_eigenvalues(runs, d + 1, np.array([1, d + 1])))
                    lanes += [bug_tridiagonal(BugSpec(n, d, i), a) for a in alphas.tolist()]
            values = np.concatenate(values)
            assert values[:, 0].tobytes() == lane_eigenvalues(lanes, [1])[:, 0].tobytes(), d
            fallbacks += _check_bottoms(lanes)
        assert fallbacks <= 12

    @settings(max_examples=100, deadline=None)
    @given(laguerre_lanes())
    def test_one_lane_and_many_lanes_give_the_same_bits(self, lanes):
        # the steps on the negated lanes, NaN where a lane falls back and
        # minus its value where not, and the ends of each lane alone and
        # among more than 80
        m = lanes[0].order
        runs, scales = eigensolve._fitted(eigensolve._lane_runs(lanes))
        flipped = (np.negative(runs[0]), *runs[1:])
        start = -eigensolve._brackets(runs, DEFAULT_CONFIG)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            steps = np.array([laguerre._scalar_top(row, x, True)
                              for row, x in zip(eigensolve._row_lists(flipped), start.tolist())])
            alone, together = _alone_and_together(lanes, [1, m], many=True)
        assert alone.tobytes() == together.tobytes()
        stepped = steps == steps
        got = lane_eigenvalues(lanes, [1])[:, 0]
        assert got[stepped].tobytes() == ((0.0 - steps) / scales)[stepped].tobytes()

    @pytest.mark.skipif(not _EXTENDED, reason="np.longdouble has no 64-bit mantissa here")
    def test_near_double_bottoms_certify_or_fall_back(self):
        # long equal or nearly equal pendant paths at alpha >= 0.8 give two
        # smallest values 1e-11 to 1e-16 apart (B(148, 28, 13) at 0.83:
        # 6e-15), which plain steps approach only linearly
        groups = [[bug_tridiagonal(BugSpec(148, 28, 13), 0.83)]]
        for d in (20, 31, 44, 62):
            groups.append([bug_tridiagonal(BugSpec(n, d, i), a)
                           for i in (d // 2 - 1, d // 2) for n in (d + 2, 5 * d, 10**5)
                           for a in (0.8, 0.9, 0.99)])
        gaps = []
        for t in (t for lanes in groups for t in lanes):
            low = np.linalg.eigvalsh(t.to_dense())[:2]
            gaps.append((low[1] - low[0]) / abs(low[0]))
        assert min(gaps) < 1e-14 and np.median(gaps) < 1e-8
        fallbacks = sum(_check_bottoms(lanes) for lanes in groups)
        assert fallbacks <= len(gaps) // 10

    @pytest.mark.skipif(not _EXTENDED, reason="np.longdouble has no 64-bit mantissa here")
    def test_zero_pivots_scaled_lanes_and_values_near_0(self):
        # exact zero pivots at the root midpoint 0 (TestScalarBisection);
        # GOLDEN scaled past the squares' range (_fitted) and far below 1;
        # P3 at alpha 0.5, whose smallest value is 0 exactly; a smallest
        # value of 5e-21; and the zero matrix, whose three values are 0
        lanes = [
            SymTridiag(np.zeros(5), np.ones(4)),
            SymTridiag([1.0, 1.0, 0.0, -1.0, -1.0], np.ones(4)),
            SymTridiag([1.0, 1.0, -1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.5]),
            SymTridiag([0.0, -0.5, 1.0, 1.0, 1.0], [1.0, 1.0, 0.5, 0.5]),
            SymTridiag(GOLDEN.diag * 1e160, GOLDEN.offdiag * 1e160),
            SymTridiag(GOLDEN.diag * 1e-3, GOLDEN.offdiag * 1e-3),
            bug_tridiagonal(BugSpec(3, 2, 1), 0.5),
            SymTridiag([1.0, 1.0 + 1e-20], [1.0]),
            SymTridiag(np.zeros(3), np.zeros(2)),
        ]
        for t in lanes:
            # plain bisection's squares overflow on the scaled lane
            plain = _bisected([t], [1])[0, 0]
            got = lane_eigenvalues([t], [1])[0, 0]
            assert_end(got, t, plain, top=False)
            for values in _alone_and_together([t], [1, t.order], many=True):
                assert got == values[0, 0]
        # the values near 0 certify, within 2 eps, where bisection's stop is
        # about 1e-13
        for t in lanes[-3:]:
            got = lane_eigenvalues([t], [1])[0, 0]
            assert abs(got) <= 2.0 * np.finfo(float).eps
            assert got != _bisected([t], [1])[0, 0]

    def test_smallest_value_is_certified_whatever_the_stop(self):
        # a stop of 1e-3 leaves index 2 loose but not index 1
        loose = lane_eigenvalues([GOLDEN], [1, 2], SolveConfig(bisection_tol=1e-3))[0]
        assert abs(loose[1] - GOLDEN_EIGENVALUES[1]) <= 1e-3 * 7.0
        assert_end(loose[0], GOLDEN, math.nan, top=False)


def _check_inner(lanes) -> tuple[int, int]:
    """Every lane's full spectrum ascends, and each value between its ends
    lies within _certified_bound of the 80-bit reference or has the bits
    bisection to the default stop gives it (a value whose steps fell back,
    with index 2 raised to index 1's value where below it and m - 1 lowered
    to m's). Returns the number of values between the ends, and of those
    outside the bound."""
    m = lanes[0].order
    got = lane_eigenvalues(lanes, np.arange(1, m + 1))
    assert np.all(np.diff(got, axis=1) >= 0.0)
    ref = longdouble_eigenvalues([t.diag for t in lanes], [t.offdiag for t in lanes])
    far = 0
    for t, values, reference in zip(lanes, got, ref):
        outside = np.flatnonzero(np.abs(values - reference) > _certified_bound(reference, t))
        for j in outside[(outside > 0) & (outside < m - 1)]:
            plain = plain_bisection_eigenvalues(t.diag, t.offdiag)[j]
            plain = max(plain, values[0]) if j == 1 else plain
            plain = min(plain, values[-1]) if j == m - 2 else plain
            assert values[j] == plain, (t, j + 1, values[j], reference[j])
            far += 1
    return got[:, 1:-1].size, far


class TestLaguerreInterior:
    """At _FINISH_ORDERS (4-40), the walk bisects each index k between the
    ends only to the first node on its path whose ends count k - 1 and k,
    or where its bracket is max(4 ulps, 2 eps) wide. Laguerre steps from
    that node's midpoint (falling where its count is k, climbing by the
    other root where it is k - 1), then from its upper and lower ends,
    finish the value, certified by counts as the ends are; a value whose
    steps all fail is bisected to the default stop. Every value steps on
    Python floats, whatever the number of lanes, with the same bits. A
    value of index 2 bisected to its stop may not lie below index 1's, nor
    one of m - 1 above m's."""

    @pytest.mark.skipif(not _EXTENDED, reason="np.longdouble has no 64-bit mantissa here")
    def test_every_inner_bug_value_below_the_gate_is_certified(self):
        # every split of d = 3-39 at four alphas and three n, one call per
        # d (more than 80 lanes from d = 14), and the first lanes alone
        values = far = 0
        for d in (m - 1 for m in eigensolve._FINISH_ORDERS):
            lanes = [bug_tridiagonal(BugSpec(n, d, i), a) for n in (d + 2, 10 * d + 7, 10**6)
                     for a in (0.0, 0.3, 0.6, 0.99) for i in range(1, d // 2 + 1)]
            counted = _check_inner(lanes)
            values, far = values + counted[0], far + counted[1]
            full = lane_eigenvalues(lanes[:4], np.arange(1, d + 2))
            for t, row in zip(lanes[:4], full):
                assert tridiag_eigenvalues(t).tobytes() == row.tobytes(), (t, d)
        assert values == 116_268 and far <= values // 100

    def test_spectra_bisected_between_the_ends_ascend(self):
        # their values between the ends are bisected to the stop: index 2
        # of B(3000, 50, 25) at 0.7 lay 4.2e-11 below index 1
        t = bug_tridiagonal(BugSpec(3000, 50, 25), 0.7)
        values = tridiag_eigenvalues(t)
        assert np.all(np.diff(values) >= 0.0) and values[1] == values[0]
        for d in (2, *range(eigensolve._FINISH_ORDERS.stop - 1, _BELOW_GATE)):
            lanes = [bug_tridiagonal(BugSpec(n, d, i), a) for n in (d + 2, 3000, 10**6)
                     for a in (0.7, 0.99) for i in sorted({1, max(d // 3, 1), d // 2})]
            got = lane_eigenvalues(lanes, np.arange(1, d + 2))
            assert np.all(np.diff(got, axis=1) >= 0.0), d

    @settings(max_examples=100, deadline=None)
    @given(laguerre_lanes(), st.sampled_from(_BOTH_STOPS))
    def test_walk_rounds_and_one_index_calls_give_the_same_bits(self, lanes, config):
        # zero pivots, zero off-diagonals, lanes solved scaled (_fitted) and
        # values near 0 (lanes scaled by 1e-300): the walk bisects each
        # value to its stop as the rounds do on the lanes' row steps, at
        # either stop, and each value of a call has the bits it has alone
        # and asked alone
        m = lanes[0].order
        runs, _ = eigensolve._fitted(eigensolve._lane_runs(lanes))
        lo, hi, tol, _ = eigensolve._brackets(runs, config)
        indices = np.arange(1, m + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            walked, _ = eigensolve._scalar_bisection(eigensolve._row_lists(runs), indices.tolist(),
                                                     lo.tolist(), hi.tolist(), tol.tolist())
            walked = np.array([[values[k] for k in indices.tolist()] for values in walked])
            rounds = eigensolve._rounds(eigensolve._run_plan(runs, m), indices, lo, hi, tol)
            assert walked.tobytes() == rounds.tobytes()
            alone, together = _alone_and_together(lanes, indices, config)
            assert alone.tobytes() == together.tobytes()
            for k in sorted({2, m // 2, m - 1} & set(range(2, m))):
                one = lane_eigenvalues(lanes, [k], config)[:, 0]
                assert one.tobytes() == alone[:, k - 1].tobytes()

    def test_zero_pivots_at_a_node_fall_back_to_its_ends(self):
        # at alpha 0 a bug quotient has a zero diagonal, and its padded
        # Gershgorin interval is symmetric about 0: its root midpoint is 0,
        # where every other pivot is +0. Each value still certifies
        lanes = [bug_tridiagonal(b, 0.0) for b in enumerate_bugs(12) if b.d >= 3]
        assert _check_inner([t for t in lanes if t.order == 4]) == (9 * 2, 0)
        for m in range(5, 12):
            assert _check_inner([t for t in lanes if t.order == m])[1] == 0

    def test_a_loose_stop_reaches_only_fallbacks(self):
        # a stop of 1e-3 leaves no value between GOLDEN's ends loose, unless
        # its steps fail
        loose = lane_eigenvalues([GOLDEN], np.arange(1, 7), SolveConfig(bisection_tol=1e-3))[0]
        assert_certified_or_plain(loose, GOLDEN)
        assert loose.tobytes() == tridiag_eigenvalues(GOLDEN).tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laguerre, "_MAX_STEPS", 0)
            fallen = lane_eigenvalues([GOLDEN], [3], SolveConfig(bisection_tol=1e-3))[0, 0]
        assert fallen != loose[2] and abs(fallen - GOLDEN_EIGENVALUES[2]) <= 1e-3 * 7.0


def _float_runs(lanes) -> list:
    """Each lane's runs as a list of (diag, lead, reps) of Python numbers,
    as eigensolve._float_brackets reads them."""
    return [list(zip(*(v.tolist() for v in t.runs))) for t in lanes]


@st.composite
def bracket_lanes(draw):
    """laguerre_lanes, some scaled toward the float limit (padded ends
    past half the largest float, through the matrix or, under a stop of
    1e308, through the stop alone), and a stop."""
    lanes = draw(laguerre_lanes())
    scale = draw(st.sampled_from([1.0, 1.0, 1e306, 4e307, 1e308]))
    if scale != 1.0:
        k = draw(st.integers(0, len(lanes) - 1))
        t = lanes[k]
        lanes[k] = SymTridiag(t.diag / max(1.0, np.abs(t.diag).max()) * scale, t.offdiag)
    tol = draw(st.sampled_from([1e-13, 1e-300, 1e-3, 1e308]))
    return lanes, SolveConfig(bisection_tol=tol)


def _raised(solve):
    """The ValueError text solve raises, or None and its value."""
    try:
        return None, solve()
    except ValueError as error:
        return str(error), None


class TestFloatLanes:
    """Below the run-plan gate the bug paths hand the solver each lane's
    runs as Python floats (eigensolve._float_eigenvalues): the brackets,
    stops, rows and errors of _float_brackets are those of _brackets and
    _row_lists bit for bit, and so are the values of lane_eigenvalues."""

    @settings(max_examples=200, deadline=None)
    @given(bracket_lanes())
    def test_float_brackets_are_the_array_brackets(self, problem):
        lanes, cfg = problem
        runs = eigensolve._lane_runs(lanes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text, arrays = _raised(lambda: eigensolve._brackets(runs, cfg))
            float_text, floats = _raised(lambda: eigensolve._float_brackets(_float_runs(lanes), cfg))
        assert float_text == text
        if text is not None:
            assert "half the largest float" in text
            return
        for got, want in zip(floats[:3], arrays[:3]):
            assert np.array(got).tobytes() == want.tobytes()
        # leads past _LEAD_MAX square to inf on both forms
        with np.errstate(over="ignore"):
            assert floats[3] == eigensolve._row_lists(runs)
        assert floats[4] == arrays[3].max()

    @settings(max_examples=100, deadline=None)
    @given(laguerre_lanes(), st.sampled_from(["all", "top", "ends"]))
    def test_float_lanes_give_lane_eigenvalues_bits(self, lanes, asked):
        # lanes scaled by 1e160 go the array way, solved scaled (_fitted)
        m = lanes[0].order
        need = {"all": list(range(1, m + 1)), "top": [m], "ends": [1, m]}[asked]
        want = lane_eigenvalues(lanes, need)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eigensolve._float_eigenvalues(_float_runs(lanes), m, need)
        assert np.array(got).tobytes() == want.tobytes()


@st.composite
def bug_calls(draw):
    """A call of the bug paths below the run-plan gate: n and d (d <= 62,
    n from d + 2 up to 1e15), lanes (i, alpha) of every split and of alpha
    in [0, 1) with 0 included, one lane or up to 100, and the indices
    asked: the full spectrum, rho alone or {1, m}."""
    d = draw(st.integers(2, _BELOW_GATE - 1))
    n = draw(st.one_of(st.just(d + 2), st.integers(d + 2, 10**15)))
    ends = sorted({1, 2, d - 2, d - 1} & set(range(1, d)))
    split = st.one_of(st.sampled_from(ends), st.integers(1, d - 1))
    alpha = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
    count = draw(st.sampled_from([1, 1, 8, 41, 81, 100]))
    lanes = draw(st.lists(st.tuples(split, alpha), min_size=count, max_size=count))
    return n, d, lanes, draw(st.sampled_from(["all", "top", "ends"]))


def _asked(asked: str, m: int) -> list:
    return {"all": list(range(1, m + 1)), "top": [m], "ends": [1, m]}[asked]


def _bug_lane(n: int, d: int, i: int, alpha: float) -> SymTridiag:
    """bug_tridiagonal of B(n, d, i), i mirrored past d/2 or not: the
    tridiagonal of the one lane _bug_runs builds."""
    if i <= d // 2:
        return bug_tridiagonal(BugSpec(n, d, i), alpha)
    return SymTridiag._from_runs(*_bug_runs(n, d, i, alpha)[:3])


class TestSlotLanes:
    """The bug paths' solve of quotients read off the slot table
    (structured._slot_values) gives lane_eigenvalues's bits on the same
    quotients as SymTridiag, for full spectra, rho alone and {1, m}, on
    one lane and on more than 80; so does the halved quotient's, and both
    raise the same ValueError where padded ends overflow."""

    @settings(max_examples=80, deadline=None)
    @given(bug_calls())
    def test_slot_lanes_give_lane_eigenvalues_bits(self, call):
        n, d, lanes, asked = call
        m, need = d + 1, _asked(asked, d + 1)
        want = lane_eigenvalues([_bug_lane(n, d, i, alpha) for i, alpha in lanes], need)
        splits, alphas = (np.array(v) for v in zip(*lanes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _slot_values(*_bug_lanes(n, d, splits, alphas), m, need)
            if len(lanes) == 1:
                # as bug_spectrum, spectrum and spectral_radius call it
                i, alpha = lanes[0]
                alone = _slot_values(*_bug_lanes(n, d, i, alpha), m, need)
                assert np.array(alone).tobytes() == want.tobytes()
        assert np.array(got).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, (_BELOW_GATE - 1) // 2).map(lambda h: 2 * h),
           st.integers(0, 10**15), st.sampled_from([1, 8, 41, 81]),
           st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
           st.sampled_from(["all", "top", "ends"]))
    def test_halved_slot_lanes_give_lane_eigenvalues_bits(self, d, extra, count, alpha, asked):
        n, m = d + 2 + extra, d // 2 + 1
        need = _asked(asked, m)
        alphas = [alpha * (k + 1) / count for k in range(count)]
        want = lane_eigenvalues([halved_tridiagonal(n, d, a) for a in alphas], need)
        got = _slot_values(*_halving_slots(n, d, np.array(alphas)), m, need)
        assert np.array(got).tobytes() == want.tobytes()
        if count == 1:
            alone = _slot_values(*_halving_slots(n, d, alpha), m, need)
            assert np.array(alone).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, tol", [(10**308, 1e-13), (100, 1e308)])
    @pytest.mark.parametrize("count", [1, 41, 81])
    def test_overflowing_ends_raise_the_same_error(self, n, tol, count):
        # a clique cell near the float limit takes the Gershgorin ends past
        # half the largest float, a stop of 1e308 the padding alone
        d, cfg = 10, SolveConfig(bisection_tol=tol)
        alphas = [0.5] * count
        lanes = [_bug_lane(n, d, 3, a) for a in alphas]
        with pytest.raises(ValueError) as want:
            lane_eigenvalues(lanes, [d + 1], cfg)
        with pytest.raises(ValueError) as got:
            _slot_values(*_bug_lanes(n, d, 3, alphas if count > 1 else 0.5), d + 1, [d + 1], cfg)
        assert str(got.value) == str(want.value)
        assert ("bisection_tol" in str(want.value)) == (tol == 1e308)


def _grid_zeros(alpha):
    """The n <= 12 grid's quotients at alpha, solved alone and as one call
    per order repeated past 80 lanes, with their 80-bit references."""
    lanes = [bug_tridiagonal(b, alpha) for b in enumerate_bugs(12)]
    for m in sorted({t.order for t in lanes}):
        group = [t for t in lanes if t.order == m]
        ref = longdouble_eigenvalues([t.diag for t in group], [t.offdiag for t in group])
        yield m, ref, *_alone_and_together(group, np.arange(1, m + 1), many=True)


class TestExactZeros:
    """A certified bracket that holds 0 gives +0, not its midpoint, which
    is rounding noise, alone and among any number of lanes alike."""

    def test_p3_at_one_half(self):
        # its smallest value printed as 2.10218774213e-16
        t = bug_tridiagonal(BugSpec(3, 2, 1), 0.5)
        assert tridiag_eigenvalues(t).tolist()[0] == 0.0
        assert math.copysign(1.0, tridiag_eigenvalues(t)[0]) == 1.0
        assert bug_spectrum(BugSpec(3, 2, 1), 0.5).entries[0].value == 0.0
        many = lane_eigenvalues([t] * 81, [1, 2, 3])
        assert many.tobytes() == np.tile(tridiag_eigenvalues(t), (81, 1)).tobytes()

    @pytest.mark.skipif(not _EXTENDED, reason="np.longdouble has no 64-bit mantissa here")
    def test_grid_zeros_at_alpha_0(self):
        # the adjacency spectra of the grid's bugs: each value whose
        # 80-bit reference is 0 within its 2**-100 floor is +0, but for the
        # middle value of order 3, which is bisected to the default stop
        # (10 of the 50 zeros)
        zeros = 0
        for m, ref, alone, together in _grid_zeros(0.0):
            assert alone.tobytes() == together.tobytes(), m
            zero = np.abs(ref) < 1e-28
            if m == 3:
                assert np.all(np.abs(alone[:, 1][zero[:, 1]]) <= 1e-12)
                zero[:, 1] = False
            assert np.all(alone[zero] == 0.0) and not np.signbit(alone[zero]).any(), m
            zeros += int(zero.sum())
        assert zeros == 40


class TestJacobi:
    def test_complete_graph_block(self):
        w = assemble_dense_alpha(BugSpec(11, 5, 2), 0.6)
        values = jacobi_eigenvalues(w)
        assert values.shape == (11,)
        expected = sorted(GOLDEN_EIGENVALUES + [3.8] * 5)
        assert np.allclose(values, expected, atol=5e-5)

    def test_one_by_one(self):
        assert jacobi_eigenvalues([[4.25]]).tolist() == [4.25]

    def test_diagonal_matrix_short_circuits(self):
        values = jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert values.tolist() == [-1.0, 2.0, 3.0]

    def test_k6_alpha_spectrum(self):
        w = np.full((6, 6), 0.4)
        np.fill_diagonal(w, 3.0)
        values = jacobi_eigenvalues(w)
        assert np.allclose(values, [2.6] * 5 + [5.0], atol=1e-10)

    def test_trace_and_frobenius_invariants(self):
        rng = np.random.default_rng(41)
        a = rng.uniform(-10, 10, (20, 20))
        a = (a + a.T) / 2
        values = jacobi_eigenvalues(a)
        assert abs(values.sum() - np.trace(a)) <= 1e-9 * max(1.0, abs(np.trace(a)))
        fro_sq = (a**2).sum()
        assert abs((values**2).sum() - fro_sq) <= 1e-9 * max(1.0, fro_sq)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            jacobi_eigenvalues([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        with pytest.raises(ValueError):
            jacobi_eigenvalues([[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("a", [
        [[1e200, 1e200], [1e200, 0.0]],  # finite, but the norm overflows
        [[np.inf, 1.0], [1.0, 0.0]],
        [[-np.inf]],
        [[np.nan]],
    ])
    def test_overflowing_or_infinite_input_is_rejected(self, a):
        # the overflowing norm made the stop inf, and the unrotated diagonal
        # came back: [0, 1e200] and [0, inf]. A NaN entry was once called
        # asymmetric, as it equals nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                jacobi_eigenvalues(a)

    def test_large_entries_below_the_limit_are_solved(self):
        values = jacobi_eigenvalues([[1e150, 1e150], [1e150, 0.0]])
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert np.allclose(values, [(1.0 - golden) * 1e150, golden * 1e150], rtol=1e-12, atol=0.0)

    def test_same_bits_as_two_pass_rotation_on_grid(self, oracle_grid):
        # every bug with n <= 12 at the default alphas
        for inst in oracle_grid.instances:
            assert np.array_equal(inst.dense_values, two_pass_jacobi_eigenvalues(inst.matrix)), (
                inst.bug, inst.alpha,
            )

    @pytest.mark.parametrize("n, d, i", [(40, 20, 7), (80, 30, 10)])
    def test_same_bits_as_two_pass_rotation_at_larger_orders(self, n, d, i):
        w = assemble_dense_alpha(BugSpec(n, d, i), 0.4)
        assert np.array_equal(jacobi_eigenvalues(w), two_pass_jacobi_eigenvalues(w))

    def test_sweep_cap_raises(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-10, 10, (24, 24))
        a = (a + a.T) / 2
        with pytest.raises(ConvergenceError):
            jacobi_eigenvalues(a, SolveConfig(max_jacobi_sweeps=1))

    @pytest.mark.parametrize("m", [16, 48])
    def test_same_bits_as_two_pass_rotation_with_entries_below_skip(self, m):
        # about a quarter of the off-diagonal entries far below the skip
        # threshold, about 1e-12 * ||a|| / (2 m)
        rng = np.random.default_rng(m)
        a = rng.uniform(-1.0, 1.0, (m, m)) * np.where(rng.random((m, m)) < 0.25, 1e-18, 1.0)
        a = np.triu(a) + np.triu(a, 1).T
        assert np.array_equal(jacobi_eigenvalues(a), two_pass_jacobi_eigenvalues(a))


class TestPerronPair:
    def test_regular_graph(self):
        a = np.ones((3, 3)) - np.eye(3)
        rho, v = perron_pair(a)
        assert rho == pytest.approx(2.0, abs=1e-10)
        assert np.allclose(v, np.full(3, 1 / np.sqrt(3)), atol=1e-8)

    def test_golden_bug_radius(self):
        w = assemble_dense_alpha(BugSpec(11, 5, 2), 0.6)
        rho, v = perron_pair(w)
        assert rho == pytest.approx(6.9144, abs=5e-5)
        assert np.all(v > 0)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.8])
    def test_path_matches_structured_radius(self, alpha):
        bug = BugSpec(4, 3, 1)
        w = assemble_dense_alpha(bug, alpha)
        rho, v = perron_pair(w)
        structured = tridiag_eigenvalues(bug_tridiagonal(bug, alpha))[-1]
        assert rho == pytest.approx(structured, abs=1e-8)
        residual = np.linalg.norm(w @ v - rho * v)
        assert residual < 1e-10 * max(1.0, rho)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            perron_pair([[0.0, -1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("a", [
        [[np.inf, 1.0], [1.0, 0.0]],
        [[1e200, 1e200], [1e200, 0.0]],
        [[np.nan]],
    ])
    def test_overflowing_or_infinite_input_is_rejected(self, a):
        # an inf entry ran every step on NaNs before the cap raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                perron_pair(a)

    def test_iteration_cap_raises(self):
        w = assemble_dense_alpha(BugSpec(4, 3, 1), 0.0)
        with pytest.raises(ConvergenceError):
            perron_pair(w, SolveConfig(max_power_iters=1))

    def test_empty_matrix_is_rejected(self):
        # its start vector divided by sqrt(0) and raised ZeroDivisionError
        with pytest.raises(ValueError, match="empty"):
            perron_pair(np.zeros((0, 0)))
