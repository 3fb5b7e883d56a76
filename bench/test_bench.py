"""Self-tests of the bench: run with ``python -m pytest bench``."""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import checks
import oracle
import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_jobs(workload):
    first = json.dumps(workloads.generate(workload, 7))
    assert json.dumps(workloads.generate(workload, 7)) == first
    assert json.dumps(workloads.generate(workload, 8)) != first
    assert len(workloads.generate(workload, 7)) >= 100


def small_bugs(max_n):
    for n in range(3, max_n + 1):
        for d in range(2, n):
            for i in range(1, d):
                yield n, d, i


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.99])
def test_quotient_route_agrees_with_edge_list_route(alpha):
    for n, d, i in small_bugs(10):
        structured = oracle.structured_spectrum(n, d, i, alpha)
        dense = oracle.edge_list_spectrum(n, d, i, alpha)
        assert structured.size == n
        np.testing.assert_allclose(structured, dense, rtol=0, atol=1e-10,
                                   err_msg=f"n={n} d={d} i={i} alpha={alpha}")


def test_oracle_reproduces_the_readme_golden_bug():
    # B(8, 2, 3) = (n, d, i) = (11, 5, 2) at alpha = 0.6, as printed in README.md
    value, mult = oracle.closed_form(11, 5, 0.6)
    assert (round(value, 12), mult) == (3.8, 5)
    quotient = oracle.quotient_spectrum(11, 5, 2, 0.6)
    expected = [0.390876787575, 0.553862916752, 1.35205695137,
                3.54025027157, 4.24857358241, 6.91437949031]
    np.testing.assert_allclose(quotient, expected, rtol=0, atol=1e-11)


def test_verify_counts_match_the_default_grid():
    # README: the default grid runs 625 instances and 1280 checks
    ref = oracle.reference({"kind": "verify", "max_n": 12, "alphas": [0, 0.25, 0.5, 0.75, 0.99]})
    assert ref == {"instances": 625, "checks": 1280}


def spectrum_output(n, d, i, alpha, shift=0.0):
    quotient = oracle.quotient_spectrum(n, d, i, alpha)
    value, mult = oracle.closed_form(n, d, alpha)
    payload = {"quotient_eigenvalues": [float(f"{x:.12g}") for x in quotient],
               "rho": float(f"{quotient[-1]:.12g}") + shift,
               "closed_form": {"value": value, "multiplicity": mult},
               "verification": None}
    return json.dumps(payload)


def test_checks_accept_the_reference_and_reject_a_drift():
    spec = {"kind": "spectrum", "method": "structured",
            "n": 5000, "d": 300, "i": 120, "alpha": 0.4}
    ref = oracle.reference(spec)
    good = checks.check(spec, ref, 0, spectrum_output(5000, 300, 120, 0.4))
    assert good.ok and good.emitted == 301 and good.max_abs_err < oracle.tolerance(ref["rho"])
    drift = 3 * oracle.tolerance(ref["rho"])
    bad = checks.check(spec, ref, 0, spectrum_output(5000, 300, 120, 0.4, shift=drift))
    assert not bad.ok and "rho" in bad.message
    assert not checks.check(spec, ref, 2, "").ok
    assert not checks.check(spec, ref, 0, "not json").ok


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, 0]


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 3.0, 0),
        span("c", 2.0, 4.0, 0),      # overlaps b: the union [1, 4] counts once
        span("d", 9.0, 12.0, 0),     # clipped to the parent's end
        span("e", 1.5, 2.5, 1),      # grandchild: only b loses it
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])


def test_inclusive_counts_nested_calls_once():
    recorded = [span("f", 0.0, 5.0), span("g", 1.0, 2.0, 0), span("f", 1.2, 1.8, 1),
                span("f", 6.0, 7.0)]
    assert spans.inclusive(recorded, {"f"}) == pytest.approx((6.0, 2))
    assert spans.inclusive(recorded, {"f", "g"}) == pytest.approx((6.0, 2))


def test_tracer_wraps_every_import_site_and_restores_it():
    sys.path.insert(0, str(SRC))
    try:
        import alphabug
        from alphabug import cli, eigensolve, structured
    finally:
        sys.path.remove(str(SRC))
    argv = ["spectrum", "--n", "11", "--d", "5", "--i", "2", "--alpha", "0.6"]
    plain = io.StringIO()
    with redirect_stdout(plain):
        cli.main(argv)
    originals = (cli.tridiag_eigenvalues, eigensolve.tridiag_eigenvalues,
                 alphabug.tridiag_eigenvalues, structured.bug_tridiagonal)
    tracer = spans.Tracer()
    undo = spans.install(tracer, alphabug)
    try:
        assert cli.tridiag_eigenvalues is eigensolve.tridiag_eigenvalues
        assert cli.tridiag_eigenvalues is not originals[0]
        traced = io.StringIO()
        tracer.job = 4
        with redirect_stdout(traced):
            cli.main(argv)
    finally:
        spans.uninstall(undo)
    assert (cli.tridiag_eigenvalues, eigensolve.tridiag_eigenvalues,
            alphabug.tridiag_eigenvalues, structured.bug_tridiagonal) == originals
    assert traced.getvalue() == plain.getvalue()
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][spans.PARENT] == -1
    assert {s[spans.JOB] for s in tracer.spans} == {4}
    assert all(s[spans.START] <= s[spans.END] for s in tracer.spans)
    sturm = [s for s in tracer.spans if s[spans.NAME] == "eigensolve._sturm_counts"]
    solve = names.index("eigensolve.tridiag_eigenvalues")
    assert sturm and all(s[spans.PARENT] == solve for s in sturm)
    assert all(s[spans.WORK_FIELD] == 6 * 6 for s in sturm)  # 6 rows x 6 shifts
    assert "cli.parse_args" in names and "cli._round12" not in names
