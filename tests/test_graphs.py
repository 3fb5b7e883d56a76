import numpy as np
import pytest

from alphabug import BugSpec, assemble_dense_alpha
from alphabug.graphs import check_alpha
from oracles import alpha_matrix, bug_cells, bug_edges, path_edges


@pytest.mark.parametrize(
    "pqr, ndi",
    [
        ((8, 2, 3), (11, 5, 2)),
        ((5, 3, 4), (10, 7, 3)),
        ((3, 1, 2), (4, 3, 1)),
    ],
)
def test_from_pqr(pqr, ndi):
    b = BugSpec.from_pqr(*pqr)
    assert (b.n, b.d, b.i) == ndi


def test_from_pqr_rejects_bad_parameters():
    for bad in [(2, 1, 1), (5, 0, 2), (5, 2, 0)]:
        with pytest.raises(ValueError):
            BugSpec.from_pqr(*bad)


def test_pqr_roundtrip():
    b = BugSpec.from_ndi(11, 5, 2)
    assert (b.p, b.q, b.r) == (8, 2, 3)
    assert b.p + b.q + b.r - 2 == b.n
    assert b.q + b.r == b.d
    assert b.clique_order == b.n - b.d


def test_mirror_canonicalization():
    canonical = BugSpec.from_ndi(11, 5, 2)
    mirrored = BugSpec.from_ndi(11, 5, 3)
    assert mirrored.i == 2
    assert mirrored.mirrored and not canonical.mirrored
    assert mirrored == canonical  # mirrored flag does not affect identity
    # the echoed split follows the caller's orientation
    assert (mirrored.q, mirrored.r) == (3, 2)
    assert BugSpec.from_pqr(8, 3, 2) == BugSpec.from_pqr(8, 2, 3)


def test_bugspec_validation():
    with pytest.raises(ValueError):
        BugSpec(4, 5, 1)  # n < d+1
    with pytest.raises(ValueError):
        BugSpec(5, 1, 1)  # diameter too small
    with pytest.raises(ValueError):
        BugSpec(6, 4, 0)
    with pytest.raises(ValueError):
        BugSpec(6, 4, 3)  # not canonical (i > d//2)
    with pytest.raises(ValueError):
        BugSpec(6.5, 4, 1)
    with pytest.raises(ValueError):
        BugSpec.from_ndi(6, 4, 4)  # q = 4, r = 0


def test_assemble_golden_layout():
    """Vertices run along the bug: left path ending at u, clique, v, right path."""
    bug = BugSpec(11, 5, 2)
    a0 = assemble_dense_alpha(bug, 0.0)
    assert a0.sum(axis=1).tolist() == [1, 7, 7, 7, 7, 7, 7, 7, 7, 2, 1]
    assert np.flatnonzero(a0[1]).tolist() == [0, 2, 3, 4, 5, 6, 7]  # u
    assert np.flatnonzero(a0[8]).tolist() == [2, 3, 4, 5, 6, 7, 9]  # v
    assert a0[1, 8] == 0.0  # the deleted edge uv


def test_assemble_one_sided_layout():
    # with i=1, u is itself the free end of the left path
    a0 = assemble_dense_alpha(BugSpec(10, 7, 1), 0.0)
    assert a0.sum(axis=1).tolist() == [3, 4, 4, 4, 4, 2, 2, 2, 2, 1]
    assert int(a0.sum()) // 2 == len(bug_edges(5, 1, 6)) == 14


def test_check_alpha():
    assert check_alpha(0) == 0.0
    assert check_alpha(0.99) == 0.99
    for bad in (1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError):
            check_alpha(bad)


def test_assemble_p4_is_alpha_matrix_of_path():
    bug = BugSpec(4, 3, 1)
    for alpha in (0.0, 0.3, 0.9):
        expected = alpha_matrix(4, path_edges(4), alpha)
        assert np.array_equal(assemble_dense_alpha(bug, alpha), expected)


def test_assemble_rejects_bad_alpha():
    with pytest.raises(ValueError):
        assemble_dense_alpha(BugSpec(4, 3, 1), 1.0)


def test_order_is_n():
    assert BugSpec(11, 5, 2).order == 11
    assert BugSpec.from_pqr(3, 1, 2).order == 4


@pytest.mark.parametrize("n", [10.0, np.float64(10)], ids=["float", "np.float64"])
def test_integral_floats_are_stored_as_ints(n):
    # the checked int is kept, not the float it was given as
    bug = BugSpec(n, 5, 2)
    assert all(type(v) is int for v in (bug.n, bug.d, bug.i))
    assert bug == BugSpec(10, 5, 2) and hash(bug) == hash(BugSpec(10, 5, 2))
    assert type(bug.order) is int
    assert assemble_dense_alpha(bug, 0.5).shape == (10, 10)


def edge_list_matrix_in_package_order(bug, alpha):
    """The edge-list A_alpha with its vertices permuted into the package's
    numbering: the cells of the bug, in path order, one after another."""
    perm = [x for cell in bug_cells(bug.p, bug.q, bug.r) for x in cell]
    theirs = alpha_matrix(bug.n, bug_edges(bug.p, bug.q, bug.r), alpha)
    return theirs[np.ix_(perm, perm)]


@pytest.mark.parametrize("bug", [BugSpec(11, 5, 2), BugSpec(7, 2, 1), BugSpec(9, 6, 3)])
@pytest.mark.parametrize("alpha", [0.0, 0.4, 0.75])
def test_assemble_matches_edge_list_spectrum(bug, alpha):
    """The package matrix is the first-principles edge-list matrix under an
    explicit vertex relabeling, bit for bit, so their spectra coincide."""
    ours = assemble_dense_alpha(bug, alpha)
    theirs = edge_list_matrix_in_package_order(bug, alpha)
    assert ours.tobytes() == theirs.tobytes()
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(ours)), np.sort(np.linalg.eigvalsh(theirs)), atol=1e-10
    )


def test_assemble_matches_edge_list_matrix_on_grid(oracle_grid):
    for inst in oracle_grid.instances:
        theirs = edge_list_matrix_in_package_order(inst.bug, inst.alpha)
        assert inst.matrix.tobytes() == theirs.tobytes(), (inst.bug, inst.alpha)


def test_dense_structural_invariants():
    bug = BugSpec(11, 5, 2)
    edges = bug_edges(bug.p, bug.q, bug.r)
    degrees = np.zeros(bug.n)
    for x, y in edges:
        degrees[x] += 1
        degrees[y] += 1
    for alpha in (0.0, 0.6):
        w = assemble_dense_alpha(bug, alpha)
        # diagonal = alpha * degree; off-diagonal nonzeros all equal 1-alpha
        assert np.allclose(sorted(np.diag(w)), sorted(alpha * degrees))
        off = w[~np.eye(bug.n, dtype=bool)]
        nonzero = off[off != 0.0]
        assert np.allclose(nonzero, 1.0 - alpha)
        assert np.isclose(np.trace(w), alpha * 2 * len(edges))
        assert np.array_equal(w, w.T)
    # row sums at alpha=0 are the vertex degrees
    a0 = assemble_dense_alpha(bug, 0.0)
    assert sorted(a0.sum(axis=1)) == sorted(degrees)


def test_bug_degree_multiset():
    """The two free path ends have degree 1, interior path vertices degree 2,
    and all p = n-d+2 clique-side vertices (including both attachment points)
    degree n-d+1."""
    bug = BugSpec(11, 5, 2)
    a0 = assemble_dense_alpha(bug, 0.0)
    counts = {}
    for deg in a0.sum(axis=1):
        counts[int(deg)] = counts.get(int(deg), 0) + 1
    assert counts == {1: 2, 2: bug.q + bug.r - 4, bug.n - bug.d + 1: bug.p}
