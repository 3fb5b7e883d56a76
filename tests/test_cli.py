import json
import math
import os
import subprocess
import sys

import pytest

import alphabug.eigensolve as eigensolve
from alphabug.cli import build_parser, main

GOLDEN_ARGS = ["spectrum", "--n", "11", "--d", "5", "--i", "2", "--alpha", "0.6"]
# bugs whose quotient has a Gershgorin bound past half the largest float
HUGE_JOBS = [
    ["spectrum", "--n", str(int(9e307)), "--d", "3", "--i", "1", "--alpha", "0"],
    ["scan", "--n", str(int(1.7e308)), "--d", "4", "--alpha", "0.5"],
    ["sweep", "--n", str(int(1.7e308)), "--d", "4", "--i", "2", "--alphas", "0,0.5"],
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestSpectrumCommand:
    def test_golden_example(self, capsys):
        code, payload = run_json(capsys, *GOLDEN_ARGS)
        assert code == 0
        assert payload["input"] == {
            "input_form": "ndi", "n": 11, "d": 5, "i": 2, "p": 8, "q": 2, "r": 3,
            "alpha": 0.6,
        }
        assert payload["method"] == "structured"
        assert payload["closed_form"] == {"value": 3.8, "multiplicity": 5}
        expected = [0.3909, 0.5539, 1.3521, 3.5403, 4.2486, 6.9144]
        for got, want in zip(payload["quotient_eigenvalues"], expected):
            assert got == pytest.approx(want, abs=5e-5)
        assert payload["rho"] == payload["quotient_eigenvalues"][-1]
        assert payload["timings_ms"] is None
        assert payload["verification"] is None

    def test_parameterization_equivalence(self, capsys):
        _, ndi = run_json(capsys, *GOLDEN_ARGS)
        _, pqr = run_json(
            capsys, "spectrum", "--p", "8", "--q", "2", "--r", "3", "--alpha", "0.6"
        )
        assert ndi["input"].pop("input_form") == "ndi"
        assert pqr["input"].pop("input_form") == "pqr"
        assert ndi == pqr

    def test_byte_identical_reruns(self, capsys):
        _, first = run_cli(capsys, *GOLDEN_ARGS)
        _, second = run_cli(capsys, *GOLDEN_ARGS)
        assert first == second

    def test_timings_flag(self, capsys):
        _, payload = run_json(capsys, *GOLDEN_ARGS, "--timings")
        assert payload["timings_ms"] > 0

    def test_method_halved(self, capsys):
        code, payload = run_json(
            capsys, "spectrum", "--n", "10", "--d", "4", "--i", "2",
            "--alpha", "0", "--method", "halved",
        )
        assert code == 0
        assert payload["method"] == "halved"
        assert len(payload["quotient_eigenvalues"]) == 3
        assert payload["rho"] == pytest.approx(6.802908345718773, abs=1e-9)

    def test_method_halved_rejects_unbalanced(self, capsys):
        code, _ = run_cli(capsys, "spectrum", "--n", "11", "--d", "5", "--i", "2",
                          "--alpha", "0.6", "--method", "halved")
        assert code == 2

    def test_method_dense_clusters(self, capsys):
        code, payload = run_json(
            capsys, "spectrum", "--n", "5", "--d", "2", "--i", "1",
            "--alpha", "0.5", "--method", "dense",
        )
        assert code == 0
        assert payload["quotient_eigenvalues"] is None
        assert payload["closed_form"] is None
        mults = [e["multiplicity"] for e in payload["dense_spectrum"]]
        assert mults == [1, 3, 1]

    @pytest.mark.parametrize("n, d, i, alpha", [
        (11, 5, 2, 0.6),
        # past the n <= 12 oracle grid, the bound of every other dense check
        (40, 20, 7, 0.4),
        # the one dense check of an edge list above the order-64 run-plan
        # gate: the order-81 quotient is a run plan with two runs of equal
        # entries (one shared jump prelude per count, rounds as deep as
        # their cost sets)
        (100, 80, 20, 0.4),
    ])
    def test_method_all_verifies(self, capsys, n, d, i, alpha):
        """The dense edge-list spectrum matches the structured one."""
        code, payload = run_json(capsys, "spectrum", "--n", str(n), "--d", str(d),
                                 "--i", str(i), "--alpha", str(alpha), "--method", "all")
        assert code == 0
        v = payload["verification"]
        assert v["matched"] is True
        assert v["max_abs_deviation"] <= v["tolerance"] == 1e-8

    def test_method_all_solves_the_quotient_once(self, capsys, monkeypatch):
        import alphabug.eigensolve as eigensolve

        solves = []
        original = eigensolve.lane_eigenvalues

        def counting(*args, **kwargs):
            solves.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(eigensolve, "lane_eigenvalues", counting)
        code, payload = run_json(capsys, *GOLDEN_ARGS, "--method", "all")
        assert code == 0 and payload["verification"]["matched"] is True
        assert len(solves) == 1

    def test_csv_output(self, capsys):
        code, out = run_cli(capsys, *GOLDEN_ARGS, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "value,multiplicity,source"
        assert len(lines) == 8  # header + 6 quotient + 1 closed-form
        assert "3.8,5,closed-form" in lines
        assert out.endswith("\n")

    def test_csv_dense(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--n", "7", "--d", "4", "--i", "2",
                            "--alpha", "0.3", "--method", "dense", "--format", "csv")
        assert code == 0
        assert out == (
            "value,multiplicity,source\n"
            "-0.435164054953,1,dense\n"
            "-0.0821658488547,1,dense\n"
            "0.5,2,dense\n"
            "0.738403204937,1,dense\n"
            "1.58216584885,1,dense\n"
            "3.79676085002,1,dense\n"
        )

    def test_csv_all(self, capsys):
        # the structured rows; the dense side only fills "verification"
        code, out = run_cli(capsys, "spectrum", "--n", "7", "--d", "4", "--i", "2",
                            "--alpha", "0.3", "--method", "all", "--format", "csv")
        assert code == 0
        assert out == (
            "value,multiplicity,source\n"
            "-0.435164054953,1,quotient\n"
            "-0.0821658488545,1,quotient\n"
            "0.5,2,closed-form\n"
            "0.738403204937,1,quotient\n"
            "1.58216584885,1,quotient\n"
            "3.79676085002,1,quotient\n"
        )

    def test_csv_halved(self, capsys):
        # 3 halved-quotient rows sorted in with the closed form
        code, out = run_cli(capsys, "spectrum", "--n", "10", "--d", "4", "--i", "2",
                            "--alpha", "0.3", "--method", "halved", "--format", "csv")
        assert code == 0
        assert out == (
            "value,multiplicity,source\n"
            "-0.113660094967,1,quotient\n"
            "1.25760325116,1,quotient\n"
            "1.4,5,closed-form\n"
            "6.8560568438,1,quotient\n"
        )

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out = run_cli(capsys, *GOLDEN_ARGS, "--output", str(target))
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["closed_form"]["value"] == 3.8

    def test_rejects_mixed_triples(self, capsys):
        code, _ = run_cli(capsys, "spectrum", "--n", "11", "--d", "5", "--i", "2",
                          "--p", "8", "--alpha", "0.6")
        assert code == 2

    def test_rejects_incomplete_triple(self, capsys):
        code, _ = run_cli(capsys, "spectrum", "--n", "11", "--d", "5", "--alpha", "0.6")
        assert code == 2

    def test_rejects_alpha_one(self, capsys):
        code, _ = run_cli(capsys, "spectrum", "--n", "11", "--d", "5", "--i", "2",
                          "--alpha", "1.0")
        assert code == 2


class TestSweepCommand:
    def test_golden_single_row(self, capsys):
        code, payload = run_json(
            capsys, "sweep", "--n", "11", "--d", "5", "--i", "2", "--alphas", "0.6"
        )
        assert code == 0
        (row,) = payload["rows"]
        assert row["alpha"] == 0.6
        assert row["rho"] == pytest.approx(6.9144, abs=5e-5)
        assert row["closed_form"] == 3.8
        assert row["closed_mult"] == 5
        assert row["min_quotient"] == pytest.approx(0.3909, abs=5e-5)

    def test_path_collapse_csv(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--p", "3", "--q", "1", "--r", "2",
            "--alphas", "0,0.5", "--format", "csv",
        )
        assert code == 0
        # rho rows are the adjacency and half-signless-Laplacian radii of P_4
        assert out == (
            "alpha,rho,closed_form,closed_mult\n"
            "0,1.61803398875,,0\n"
            "0.5,1.70710678119,,0\n"
        )

    def test_empty_alpha_list(self, capsys):
        code, _ = run_cli(capsys, "sweep", "--n", "11", "--d", "5", "--i", "2",
                          "--alphas", "")
        assert code == 2

    def test_alpha_out_of_range(self, capsys):
        code, _ = run_cli(capsys, "sweep", "--n", "11", "--d", "5", "--i", "2",
                          "--alphas", "0.2,1.0")
        assert code == 2

    @pytest.mark.parametrize("item", ["abc", "1e400"])
    def test_unreadable_alpha_names_the_field(self, capsys, item):
        # "abc" gave float()'s message and "1e400" echoed the inf it parses to
        code = main(["sweep", "--n", "11", "--d", "5", "--i", "2", "--alphas", "0.5," + item])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: 'alphas' must be a finite number, got '{item}'\n"

    @pytest.mark.parametrize("n, d, i, alphas, tol, walks", [
        # at the 4-ulp stop, one multi-lane call on order-81 run plans, whose
        # brackets stop above their leaves
        (100000, 80, 20, "0,0.5,0.9", "1e-300", False),
        # order 1001 at the default stop: the sweep's counts mostly fall
        # outside the band |t| < 1 and the full spectra's mostly inside it
        # (each count solves the regime holding the most shifts on all of them)
        (1000000, 1000, 500, "0,0.6,0.95", None, False),
        # each spectrum (1 x 17 x 17 = 289) bisects on Python floats and the
        # sweep (32 x 2 x 17 = 1,088) in multisection rounds: the two sides
        # of _SCALAR_MAX_WORK (840), with no switch set
        (40, 16, 5, ",".join(f"{k / 40:g}" for k in range(32)), None, True),
    ], ids=["order-81-at-4-ulps", "order-1001", "two-bisection-paths"])
    def test_rows_print_as_each_alphas_spectrum(self, capsys, monkeypatch, n, d, i, alphas, tol,
                                                walks):
        """Each sweep row prints its alpha's rho and smallest quotient
        eigenvalue as that alpha's spectrum command does. The sweep counts
        in the count kernel, and each spectrum does too unless it walks on
        Python floats."""
        if tol is not None:
            monkeypatch.setenv("ALPHA_BUG_SOLVE_TOL", tol)
        tally = {"calls": 0}
        kernel = eigensolve._plan_counts

        def counted(plan, shifts):
            tally["calls"] += 1
            return kernel(plan, shifts)

        monkeypatch.setattr(eigensolve, "_plan_counts", counted)
        bug = ["--n", str(n), "--d", str(d), "--i", str(i)]
        code, sweep = run_json(capsys, "sweep", *bug, "--alphas", alphas)
        assert code == 0 and len(sweep["rows"]) == len(alphas.split(","))
        assert tally["calls"] > 0
        for row, alpha in zip(sweep["rows"], alphas.split(",")):
            tally["calls"] = 0
            code, spectrum = run_json(capsys, "spectrum", *bug, "--alpha", alpha)
            assert code == 0 and row["alpha"] == spectrum["input"]["alpha"]
            assert (tally["calls"] == 0) == walks
            assert row["rho"] == spectrum["rho"], row
            assert row["min_quotient"] == spectrum["quotient_eigenvalues"][0], row


class TestScanCommand:
    def test_balanced_argmax(self, capsys):
        code, payload = run_json(capsys, "scan", "--n", "10", "--d", "4",
                                 "--alpha", "0.5")
        assert code == 0
        assert payload["argmax_i"] == 2
        assert [r["i"] for r in payload["rows"]] == [1, 2]

    def test_single_row_csv(self, capsys):
        code, out = run_cli(capsys, "scan", "--n", "6", "--d", "2", "--alpha", "0",
                            "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i,rho,is_argmax"
        assert len(lines) == 2
        assert lines[1].startswith("1,") and lines[1].endswith(",true")

    def test_two_rows(self, capsys):
        code, payload = run_json(capsys, "scan", "--n", "11", "--d", "5",
                                 "--alpha", "0.6")
        assert code == 0
        assert len(payload["rows"]) == 2
        assert sum(r["is_argmax"] for r in payload["rows"]) == 1


class TestVerifyCommand:
    def test_small_grid_passes(self, capsys):
        code, payload = run_json(capsys, "verify", "--max-n", "5")
        assert code == 0
        assert payload["summary"]["ok"] is True
        assert payload["summary"]["checks_failed"] == 0
        assert payload["failures"] == []

    def test_impossible_tolerance_exits_one(self, capsys):
        code, payload = run_json(capsys, "verify", "--max-n", "4", "--tol", "1e-300")
        assert code == 1
        assert payload["summary"]["ok"] is False
        assert payload["failures"]

    def test_names_the_failures_past_the_list_cap(self, capsys):
        code, payload = run_json(capsys, "verify", "--max-n", "6", "--tol", "1e-300")
        assert code == 1
        dropped = payload["summary"]["checks_failed"] - 50
        assert dropped > 0
        assert len(payload["failures"]) == 51
        assert payload["failures"][-1] == f"{dropped} further failures not listed"

    def test_csv_summary(self, capsys):
        code, out = run_cli(capsys, "verify", "--max-n", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "instances,checks_run,checks_passed,checks_failed,worst_deviation,ok"
        assert lines[1].endswith(",true")

    def test_custom_alphas(self, capsys):
        code, payload = run_json(capsys, "verify", "--max-n", "5", "--alphas", "0.6")
        assert code == 0
        assert payload["input"]["alphas"] == [0.6]

    @pytest.mark.parametrize("raw, literal", [
        ("inf", "Infinity"), ("nan", "NaN"), ("0", "0"), ("-1", "-1"),
    ])
    def test_non_finite_or_non_positive_tolerance_exits_two(self, capsys, tmp_path, raw, literal):
        code, out = run_cli(capsys, "verify", "--max-n", "4", "--tol", raw)
        assert code == 2 and out == ""
        source = tmp_path / "jobs.json"
        source.write_text('[{"command": "verify", "max_n": 4, "tol": %s}]' % literal)
        code, out = run_cli(capsys, "batch", str(source))
        line = json.loads(out)
        assert code == 2 and line["exit_code"] == 2 and line["result"] is None


class TestBatchCommand:
    def test_mixed_jobs(self, capsys, tmp_path):
        jobs = [
            {"command": "spectrum", "n": 11, "d": 5, "i": 2, "alpha": 0.6},
            {"command": "scan", "n": 6, "d": 2, "alpha": 0},
            {"command": "spectrum", "n": 2, "d": 5, "i": 1, "alpha": 0.5},
        ]
        source = tmp_path / "jobs.json"
        source.write_text(json.dumps(jobs))
        code, out = run_cli(capsys, "batch", str(source))
        assert code == 2  # first failing job's code
        lines = [json.loads(line) for line in out.splitlines()]
        assert [line["job_id"] for line in lines] == [0, 1, 2]
        assert [line["status"] for line in lines] == ["ok", "ok", "error"]
        assert lines[0]["result"]["closed_form"] == {"value": 3.8, "multiplicity": 5}
        assert lines[2]["result"] is None and lines[2]["exit_code"] == 2

    def test_rejects_per_job_output_settings(self, capsys, tmp_path):
        source = tmp_path / "jobs.json"
        source.write_text(json.dumps([
            {"command": "spectrum", "n": 4, "d": 2, "i": 1, "alpha": 0, "format": "csv"},
        ]))
        code, out = run_cli(capsys, "batch", str(source))
        assert code == 2
        line = json.loads(out)
        assert "format" in line["error"]

    def test_output_file(self, capsys, tmp_path):
        source = tmp_path / "jobs.json"
        source.write_text(json.dumps([{"command": "scan", "n": 6, "d": 2, "alpha": 0}]))
        target = tmp_path / "results.ndjson"
        code, out = run_cli(capsys, "batch", str(source), "--output", str(target))
        assert code == 0 and out == ""
        line = json.loads(target.read_text())
        assert line["status"] == "ok" and line["result"]["argmax_i"] == 1

    def test_rejects_non_array_input(self, capsys, tmp_path):
        source = tmp_path / "jobs.json"
        source.write_text(json.dumps({"command": "scan"}))
        assert run_cli(capsys, "batch", str(source))[0] == 2

    def test_rejects_invalid_json(self, capsys, tmp_path):
        source = tmp_path / "jobs.json"
        source.write_text("not json")
        assert run_cli(capsys, "batch", str(source))[0] == 2

    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        '[{"command": "spectrum", "alpha": ' + "[" * 50_000 + "]" * 50_000 + "}]",
    ], ids=["array", "field"])
    def test_deep_nesting_is_a_usage_error(self, capsys, tmp_path, text):
        # json.loads raises RecursionError past its depth; it must not
        # escape main as a traceback with exit 1 (EXIT_VERIFY_FAILED's code)
        source = tmp_path / "jobs.json"
        source.write_text(text)
        assert main(["batch", str(source)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: batch input is not valid JSON: ")
        assert captured.err.count("\n") == 1

    def test_verify_failure_propagates(self, capsys, tmp_path):
        source = tmp_path / "jobs.json"
        source.write_text(json.dumps([
            {"command": "verify", "max_n": 4, "tol": 1e-300},
        ]))
        code, out = run_cli(capsys, "batch", str(source))
        assert code == 1
        line = json.loads(out)
        assert line["exit_code"] == 1
        assert line["result"]["summary"]["ok"] is False


    def test_null_counts_as_absent(self, capsys, tmp_path):
        source = tmp_path / "jobs.json"
        source.write_text(json.dumps([
            {"command": "verify", "max_n": 4, "tol": None},
            {"command": "spectrum", "n": 11, "d": 5, "i": 2, "alpha": 0.6, "method": None,
             "timings": None},
            {"command": "scan", "n": 6, "d": 2, "alpha": 0, "p": None},
        ]))
        code, out = run_cli(capsys, "batch", str(source))
        verify, spectrum, scan = (json.loads(line) for line in out.splitlines())
        assert code == 0
        assert verify["result"]["input"]["tolerance"] == 1e-8
        assert spectrum["result"]["method"] == "structured"
        assert spectrum["result"]["timings_ms"] is None
        assert scan["status"] == "ok"

    @pytest.mark.parametrize("bad", [
        '{"command": "scan", "n": 1e400, "d": 4, "alpha": 0.6}',
        '{"command": "sweep", "n": 11, "d": 5, "i": 2, "alphas": [[1]]}',
        '{"command": "scan", "n": 1%s, "d": 4, "alpha": 0.6}' % ("0" * 400),
    ])
    def test_bad_job_fails_only_itself(self, capsys, tmp_path, bad):
        source = tmp_path / "jobs.json"
        source.write_text("[%s, %s]" % (bad, json.dumps({"command": "scan", "n": 6, "d": 2, "alpha": 0})))
        code, out = run_cli(capsys, "batch", str(source))
        assert code == 2
        first, second = (json.loads(line) for line in out.splitlines())
        assert (first["status"], first["exit_code"], first["result"]) == ("error", 2, None)
        assert second["status"] == "ok" and second["result"]["argmax_i"] == 1

    def test_overflowing_job_fails_only_itself(self, capsys, tmp_path):
        source = tmp_path / "jobs.json"
        source.write_text(json.dumps([
            {"command": "scan", "n": int(1.7e308), "d": 4, "alpha": 0.5},
            {"command": "spectrum", "n": int(9e307), "d": 3, "i": 1, "alpha": 0},
            {"command": "scan", "n": 6, "d": 2, "alpha": 0},
        ]))
        code, out = run_cli(capsys, "batch", str(source))
        assert code == 2
        *huge, small = (json.loads(line) for line in out.splitlines())
        for line in huge:
            assert (line["status"], line["exit_code"], line["result"]) == ("error", 2, None)
            assert "half the largest float" in line["error"]
        assert small["status"] == "ok" and small["result"]["argmax_i"] == 1

    @pytest.mark.parametrize("key, value", [
        ("n", 10.7), ("n", 10.0), ("n", True), ("d", "4"), ("alpha", "0.6"),
        ("alpha", False), ("alpha", [0.6]),
        pytest.param("alpha", 10**400, id="alpha-10**400"),
    ])
    def test_scan_fields_need_strict_json_types(self, capsys, tmp_path, key, value):
        job = {"command": "scan", "n": 10, "d": 4, "alpha": 0.6, key: value}
        source = tmp_path / "jobs.json"
        source.write_text(json.dumps([job]))
        code, out = run_cli(capsys, "batch", str(source))
        line = json.loads(out)
        assert code == 2 and line["exit_code"] == 2
        assert f"'{key}'" in line["error"]

    @pytest.mark.parametrize("job", [
        {"command": "spectrum", "p": 8, "q": 2.5, "r": 3, "alpha": 0.6},
        {"command": "sweep", "n": 11, "d": 5, "i": 2, "alphas": [0.5, "0.6"]},
        {"command": "sweep", "n": 11, "d": 5, "i": 2, "alphas": [True]},
        {"command": "verify", "max_n": 4.0},
        {"command": "verify", "max_n": 4, "tol": "1e-8"},
        {"command": "spectrum", "n": 11, "d": 5, "i": 2, "alpha": 0.6, "timings": 1},
    ])
    def test_other_fields_need_strict_json_types(self, capsys, tmp_path, job):
        source = tmp_path / "jobs.json"
        source.write_text(json.dumps([job]))
        code, out = run_cli(capsys, "batch", str(source))
        assert code == 2 and json.loads(out)["exit_code"] == 2

    @pytest.mark.parametrize("field", ['"tol": NaN', '"tol": Infinity', '"alphas": [0.5, -Infinity]'])
    def test_non_finite_numbers_are_not_json_numbers(self, capsys, tmp_path, field):
        source = tmp_path / "jobs.json"
        source.write_text('[{"command": "verify", "max_n": 4, %s}]' % field)
        code, out = run_cli(capsys, "batch", str(source))
        line = json.loads(out)
        assert code == 2 and line["exit_code"] == 2 and line["result"] is None


def _non_plain(obj) -> list:
    """Every value in a payload whose type is not dict, list, str, int,
    float, bool or None (a numpy scalar or a tuple, say), and every key
    that is not a str."""
    if isinstance(obj, dict):
        bad = [k for k in obj if type(k) is not str]
        return bad + [x for v in obj.values() for x in _non_plain(v)]
    if type(obj) is list:
        return [x for v in obj for x in _non_plain(v)]
    return [] if type(obj) in (str, int, float, bool, type(None)) else [obj]


def test_payloads_hold_only_plain_types(capsys, tmp_path, monkeypatch):
    """render_json and the batch stream round floats and pass every other
    value through as it is, so the payload of every command must hold only
    plain JSON types."""
    import alphabug.cli as cli_module

    payloads = []
    original = cli_module.run_job

    def spy(cfg, solve):
        payload, code = original(cfg, solve)
        payloads.append(payload)
        return payload, code

    monkeypatch.setattr(cli_module, "run_job", spy)
    jobs = [
        *({"command": "spectrum", "n": 10, "d": 4, "i": 2, "alpha": 0.3, "method": m}
          for m in ("structured", "dense", "halved", "all")),
        {"command": "spectrum", "p": 5, "q": 3, "r": 2, "alpha": 0.5, "timings": True},
        {"command": "sweep", "n": 11, "d": 5, "i": 2, "alphas": [0, 0.5]},
        {"command": "scan", "n": 10, "d": 4, "alpha": 0.5},
        {"command": "verify", "max_n": 4},
        {"command": "verify", "max_n": 6, "tol": 1e-300},  # failures past the list cap
        {"command": "scan", "n": 3},  # an error line
    ]
    source = tmp_path / "jobs.json"
    source.write_text(json.dumps(jobs))
    code, out = run_cli(capsys, "batch", str(source))
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == len(jobs)
    assert [line["status"] for line in lines] == ["ok"] * 8 + ["error"] * 2
    # every job but the last, whose fields fail validation, runs to a payload
    assert len(payloads) == len(jobs) - 1
    assert [_non_plain(payload) for payload in payloads] == [[]] * len(payloads)


class TestDenseSizeCap:
    @pytest.fixture
    def no_assembly(self, monkeypatch):
        import alphabug.cli as cli_module

        class Assembled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Assembled("assemble_dense_alpha was called")

        monkeypatch.setattr(cli_module, "assemble_dense_alpha", refuse)
        return cli_module.DENSE_MAX_N, Assembled

    @pytest.mark.parametrize("method", ["dense", "all"])
    def test_order_above_cap_exits_two_before_assembly(self, capsys, no_assembly, method):
        cap, _ = no_assembly
        code, _ = run_cli(capsys, "spectrum", "--n", str(cap + 1), "--d", "5", "--i", "2",
                          "--alpha", "0.6", "--method", method)
        assert code == 2
        code, _ = run_cli(capsys, "spectrum", "--n", "1000000", "--d", "1000", "--i", "500",
                          "--alpha", "0.6", "--method", method)
        assert code == 2

    def test_batch_order_above_cap_fails_only_its_job(self, capsys, tmp_path, no_assembly):
        cap, _ = no_assembly
        source = tmp_path / "jobs.json"
        source.write_text(json.dumps([
            {"command": "spectrum", "n": cap + 1, "d": 5, "i": 2, "alpha": 0.6, "method": "all"},
            {"command": "spectrum", "n": 11, "d": 5, "i": 2, "alpha": 0.6},
        ]))
        code, out = run_cli(capsys, "batch", str(source))
        first, second = (json.loads(line) for line in out.splitlines())
        assert code == 2 and first["exit_code"] == 2 and str(cap) in first["error"]
        assert second["status"] == "ok"

    def test_order_at_cap_reaches_assembly(self, capsys, no_assembly):
        cap, assembled = no_assembly
        with pytest.raises(assembled):
            main(["spectrum", "--n", str(cap), "--d", "5", "--i", "2", "--alpha", "0.6",
                  "--method", "dense"])


class TestVerifySizeCap:
    @pytest.fixture
    def no_assembly(self, monkeypatch):
        import alphabug.verify as verify_module

        class Assembled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Assembled("assemble_dense_alpha was called")

        monkeypatch.setattr(verify_module, "assemble_dense_alpha", refuse)
        return verify_module.VERIFY_MAX_N, Assembled

    def test_max_n_above_cap_exits_two_before_assembly(self, capsys, no_assembly):
        cap, _ = no_assembly
        code, out = run_cli(capsys, "verify", "--max-n", str(cap + 1))
        assert code == 2 and out == ""
        assert run_cli(capsys, "verify", "--max-n", "40")[0] == 2

    def test_batch_max_n_above_cap_fails_only_its_job(self, capsys, tmp_path, no_assembly):
        cap, _ = no_assembly
        source = tmp_path / "jobs.json"
        source.write_text(json.dumps([
            {"command": "verify", "max_n": cap + 1},
            {"command": "spectrum", "n": 11, "d": 5, "i": 2, "alpha": 0.6},
        ]))
        code, out = run_cli(capsys, "batch", str(source))
        first, second = (json.loads(line) for line in out.splitlines())
        assert code == 2 and first["exit_code"] == 2 and str(cap) in first["error"]
        assert second["status"] == "ok"

    def test_max_n_at_cap_reaches_assembly(self, capsys, no_assembly):
        cap, assembled = no_assembly
        with pytest.raises(assembled):
            main(["verify", "--max-n", str(cap)])


class TestEnvironmentOverride:
    def test_invalid_tolerance_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPHA_BUG_SOLVE_TOL", "not-a-number")
        assert run_cli(capsys, *GOLDEN_ARGS)[0] == 2

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-1e-9"])
    def test_non_finite_or_non_positive_tolerance_rejected(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("ALPHA_BUG_SOLVE_TOL", raw)
        assert run_cli(capsys, *GOLDEN_ARGS)[0] == 2

    def test_tolerance_below_one_ulp_terminates(self):
        env = dict(os.environ, ALPHA_BUG_SOLVE_TOL="1e-18")
        result = subprocess.run(
            [sys.executable, "-m", "alphabug", "sweep", "--n", "40", "--d", "10",
             "--i", "3", "--alphas", "0.2,0.5"],
            capture_output=True, text=True, env=env, timeout=10, check=False,
        )
        assert result.returncode == 0, result.stderr
        rows = json.loads(result.stdout)["rows"]
        assert len(rows) == 2
        assert all(math.isfinite(r["rho"]) and math.isfinite(r["min_quotient"]) for r in rows)

    def test_bisection_step_cap_maps_to_exit_three(self, capsys, monkeypatch):
        import alphabug.eigensolve as eigensolve

        monkeypatch.setattr(eigensolve, "_MAX_BISECTION_STEPS", 4)
        code, _ = run_cli(capsys, "sweep", "--n", "40", "--d", "10", "--i", "3",
                          "--alphas", "0.2,0.5")
        assert code == 3

    def test_loose_tolerance_still_accurate(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPHA_BUG_SOLVE_TOL", "1e-6")
        code, payload = run_json(capsys, *GOLDEN_ARGS)
        assert code == 0
        assert payload["rho"] == pytest.approx(6.9144, abs=1e-3)

    def test_solver_failure_maps_to_exit_three(self, capsys, monkeypatch):
        from alphabug import ConvergenceError
        import alphabug.cli as cli_module

        def explode(*args, **kwargs):
            raise ConvergenceError("synthetic stall")

        monkeypatch.setattr(cli_module, "jacobi_eigenvalues", explode)
        code, _ = run_cli(capsys, "spectrum", "--n", "9", "--d", "3", "--i", "1",
                          "--alpha", "0.4", "--method", "dense")
        assert code == 3


FORTY_ALPHAS = ",".join(str(k / 100) for k in range(40))


class TestLaneCellCap:
    """The one size cap left: d <= cli.D_MAX, checked by the validator
    before any quotient is built. Quotients are kept as runs, so scan and
    sweep memory no longer grows with quotients x order, and the cap on
    that cell count is gone."""

    @pytest.fixture
    def no_lanes(self, monkeypatch):
        """Building a quotient raises Built: spectrum builds one with
        bug_tridiagonal, scan and sweep build theirs as runs with
        _bug_runs."""
        import alphabug.cli as cli_module
        import alphabug.verify as verify_module

        class Built(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Built("a quotient was built")

        monkeypatch.setattr(cli_module, "bug_tridiagonal", refuse)
        monkeypatch.setattr(cli_module, "_bug_runs", refuse)
        monkeypatch.setattr(verify_module, "_bug_runs", refuse)
        return cli_module.D_MAX, Built

    @pytest.mark.parametrize("argv", [
        # d + 1 eigenvalues: this died with a MemoryError traceback and exit 1
        ["spectrum", "--n", str(10**12), "--d", str(10**12 - 10), "--i", "5", "--alpha", "0.5"],
        ["scan", "--n", str(10**7), "--d", str(10**6 + 1), "--alpha", "0.5"],
        ["sweep", "--n", str(10**7), "--d", str(10**6 + 1), "--i", "2", "--alphas", "0,0.5"],
    ])
    def test_above_cap_exits_two_before_any_lane(self, capsys, no_lanes, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"d <= {no_lanes[0]}" in captured.err

    @pytest.mark.parametrize("argv", [
        ["scan", "--n", str(10**7), "--d", str(10**6), "--alpha", "0.5"],
        ["sweep", "--n", "2000000", "--d", "1000000", "--i", "2", "--alphas", FORTY_ALPHAS],
    ])
    def test_at_cap_reaches_the_lanes(self, capsys, no_lanes, argv):
        with pytest.raises(no_lanes[1]):
            main(argv)

    def test_batch_above_cap_fails_only_its_job(self, capsys, tmp_path):
        source = tmp_path / "jobs.json"
        source.write_text(json.dumps([
            {"command": "spectrum", "n": 10**12, "d": 10**12 - 10, "i": 5, "alpha": 0.5},
            {"command": "scan", "n": 6, "d": 2, "alpha": 0},
        ]))
        code, out = run_cli(capsys, "batch", str(source))
        first, second = (json.loads(line) for line in out.splitlines())
        assert code == 2 and first["exit_code"] == 2 and "d <= " in first["error"]
        assert second["status"] == "ok" and second["result"]["argmax_i"] == 1

    @pytest.mark.parametrize("argv", [
        # both exited 2 under the cap on quotients x order
        ["scan", "--n", "200000", "--d", "20000", "--alpha", "0.5", "--format", "csv"],
        ["sweep", "--n", "2000000", "--d", "1000000", "--i", "2", "--alphas", FORTY_ALPHAS],
    ])
    def test_jobs_past_the_old_cell_cap_run(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["polish"]) == 2

    def test_integer_too_large_for_a_float(self, capsys):
        for argv in (
            ["scan", "--d", "4", "--alpha", "0.5"],
            ["sweep", "--d", "4", "--i", "2", "--alphas", "0,0.5"],
            ["spectrum", "--d", "4", "--i", "2", "--alpha", "0.5"],
            ["spectrum", "--d", "4", "--i", "2", "--alpha", "0.5", "--method", "halved"],
        ):
            # each printed "error: int too large to convert to float"
            code = main([*argv, "--n", "1" + "0" * 400])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("error: n is too large"), argv
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", HUGE_JOBS)
    def test_bounds_past_half_the_largest_float_exit_two(self, capsys, argv):
        # bisection midpoints overflow there: these printed Infinity, which
        # is not JSON, and exited 0
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "half the largest float" in captured.err

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("argv", [
        ["batch", "{missing}/jobs.json"],
        [*GOLDEN_ARGS, "--output", "{missing}/x.json"],
        ["batch", "{jobs}", "--output", "{missing}/x.ndjson"],
    ])
    def test_file_errors_exit_two_with_one_line(self, capsys, tmp_path, argv):
        # exit 1 means a verification mismatch, and a traceback is no message
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([{"command": "scan", "n": 10, "d": 4, "alpha": 0.5}]))
        paths = {"missing": tmp_path / "no-such-dir", "jobs": jobs}
        code = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert "no-such-dir" in captured.err


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "alphabug", *GOLDEN_ARGS],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["closed_form"]["multiplicity"] == 5


def test_shared_parser_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    code, out = run_cli(capsys, "spectrum", "--n", "11", "--alpha", "0.6", "--bogus")
    assert code == 2 and out == ""
    _, timed = run_json(capsys, *GOLDEN_ARGS, "--timings")
    assert timed["timings_ms"] > 0
    code, plain = run_cli(capsys, *GOLDEN_ARGS)
    assert code == 0
    assert json.loads(plain)["timings_ms"] is None
    fresh = subprocess.run(
        [sys.executable, "-m", "alphabug", *GOLDEN_ARGS],
        capture_output=True, text=True, check=False,
    )
    assert fresh.returncode == 0
    assert plain == fresh.stdout


def test_library_imports_only_numpy_of_the_optional_stack():
    probe = (
        "import sys, alphabug, alphabug.cli; "
        "print(sorted(m for m in ('scipy', 'mpmath', 'hypothesis') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


DEPENDENCY_PROBE = """
import contextlib, io, json, os, sys, tempfile
from alphabug.cli import main
jobs = [{"command": "spectrum", "n": 11, "d": 5, "i": 2, "alpha": 0.5}]
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    path = os.path.join(tmp, "jobs.json")
    with open(path, "w") as handle:
        json.dump(jobs, handle)
    codes = [main(argv.split()) for argv in (
        "spectrum --n 10 --d 4 --i 2 --alpha 0.3 --method all",
        "spectrum --n 1000000 --d 200 --i 100 --alpha 0.6 --format csv",
        "sweep --n 11 --d 5 --i 2 --alphas 0,0.5",
        "scan --n 10 --d 4 --alpha 0.5",
        "verify --max-n 4",
    )] + [main(["batch", path])]
print(json.dumps([codes, sorted(m for m in ("scipy", "mpmath", "hypothesis", "pytest_benchmark")
                                if m in sys.modules)]))
"""


def test_jobs_of_every_command_import_only_numpy_of_the_optional_stack():
    """The library needs numpy and the standard library alone: a fresh
    process that runs one job of each command through cli.main has loaded
    none of the packages only the tests and the bench use."""
    result = subprocess.run(
        [sys.executable, "-c", DEPENDENCY_PROBE], capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[0] * 6, []]
