"""The CLI and batch judge a job's fields through one validator.

Jobs here are validated, not run: ``run_job`` is replaced by a recorder,
so every case costs only argument parsing.
"""

import argparse
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphabug.cli as cli
from alphabug.cli import JobConfig, build_parser, job_from_dict, main

# The fields each command takes, written out independently of the table in cli.
FIELDS = {
    "spectrum": ("n", "d", "i", "p", "q", "r", "alpha", "method", "timings"),
    "sweep": ("n", "d", "i", "p", "q", "r", "alphas"),
    "scan": ("n", "d", "alpha"),
    "verify": ("max_n", "alphas", "tol"),
}
ALL_FIELDS = sorted({f for fields in FIELDS.values() for f in fields})

# One valid job per command and parameter form.
VALID_JOBS = [
    {"command": "spectrum", "n": 11, "d": 5, "i": 2, "alpha": 0.6, "method": "all",
     "timings": True},
    {"command": "spectrum", "p": 8, "q": 2, "r": 3, "alpha": 0.6},
    {"command": "sweep", "n": 11, "d": 5, "i": 2, "alphas": [0.25, 0.5]},
    {"command": "sweep", "p": 8, "q": 2, "r": 3, "alphas": [0.25, 0.5]},
    {"command": "scan", "n": 10, "d": 4, "alpha": 0.5},
    {"command": "verify", "max_n": 6, "alphas": [0.3], "tol": 1e-6},
]
SAMPLE = {"n": 11, "d": 5, "i": 2, "p": 8, "q": 2, "r": 3, "alpha": 0.6, "method": "all",
          "timings": True, "alphas": [0.5], "max_n": 4, "tol": 1e-6}
WRONG = {"method": 3}  # every other field: the string "x"


def to_argv(job: dict) -> list[str]:
    argv = [job["command"]]
    for key, value in job.items():
        if key == "command":
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, ",".join(str(v) for v in value)]
        else:
            argv += [flag, str(value)]
    return argv


def subparser(command: str) -> argparse.ArgumentParser:
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


@pytest.mark.parametrize("command", sorted(FIELDS))
def test_each_parser_takes_exactly_the_fields_of_its_command(command):
    flags = {opt: action.dest for action in subparser(command)._actions
             for opt in action.option_strings if action.dest != "help"}
    expected = {"--" + field.replace("_", "-"): field for field in FIELDS[command]}
    assert flags == {**expected, "--format": "fmt", "--output": "output"}


def test_scan_help_describes_its_bug_flags(capsys):
    assert main(["scan", "--help"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^  --n N +order of the bug$", out, re.MULTILINE)
    assert re.search(r"^  --d D +diameter of the bug$", out, re.MULTILINE)


@pytest.fixture
def recorded(monkeypatch):
    """Replace run_job by a recorder of the validated configs."""
    configs = []

    def record(cfg, solve):
        configs.append(cfg)
        return {}, 0

    monkeypatch.setattr(cli, "run_job", record)
    return configs


def via_cli(capsys, recorded, job):
    recorded.clear()
    code = main(to_argv(job))
    capsys.readouterr()
    return code, recorded[0] if recorded else None


def via_batch(capsys, recorded, tmp_path, job):
    recorded.clear()
    source = tmp_path / "jobs.json"
    source.write_text(json.dumps([job]))
    code = main(["batch", str(source)])
    line = json.loads(capsys.readouterr().out)
    assert line["exit_code"] == code
    return code, recorded[0] if recorded else None


def table_cases():
    for base in VALID_JOBS:
        form = "pqr" if "p" in base else "ndi"
        for field in FIELDS[base["command"]]:
            yield pytest.param(base, field, id=f"{base['command']}-{form}-{field}")


@pytest.mark.parametrize("base, field", list(table_cases()))
def test_both_entry_points_judge_a_field_alike(capsys, tmp_path, recorded, base, field):
    code, cfg = via_cli(capsys, recorded, base)
    assert code == 0 and via_batch(capsys, recorded, tmp_path, base) == (code, cfg)

    absent = {k: v for k, v in base.items() if k != field}
    code, cfg = via_cli(capsys, recorded, absent)
    assert via_batch(capsys, recorded, tmp_path, absent) == (code, cfg)
    assert via_batch(capsys, recorded, tmp_path, {**absent, field: None}) == (code, cfg)
    assert code in (0, 2)

    wrong = {**absent, field: WRONG.get(field, "x")}
    assert via_cli(capsys, recorded, wrong) == (2, None)
    assert via_batch(capsys, recorded, tmp_path, wrong) == (2, None)


@pytest.mark.parametrize("command, field", [
    (command, field) for command in FIELDS for field in ALL_FIELDS
    if field not in FIELDS[command]
])
def test_a_field_the_command_does_not_take_exits_two(capsys, tmp_path, recorded, command, field):
    base = next(job for job in VALID_JOBS if job["command"] == command)
    job = {**base, field: SAMPLE[field]}
    assert via_cli(capsys, recorded, job) == (2, None)
    assert via_batch(capsys, recorded, tmp_path, job) == (2, None)
    with pytest.raises(ValueError, match=f"{command} does not take \\['{field}'\\]"):
        job_from_dict(job)


def test_defaults_come_from_job_config():
    assert job_from_dict({"command": "verify"}) == JobConfig("verify")
    assert job_from_dict({"command": "verify", "max_n": None, "tol": None}) == JobConfig(
        "verify", max_n=12, tol=1e-8
    )
    cfg = job_from_dict({"command": "spectrum", "n": 11, "d": 5, "i": 2, "alpha": 0.6,
                         "method": None, "timings": None})
    assert (cfg.method, cfg.timings) == ("structured", False)


@pytest.mark.parametrize("job, missing", [
    ({"command": "scan", "n": 10, "d": 4}, "'alpha'"),
    ({"command": "scan", "alpha": 0.5}, "'n', 'd'"),
    ({"command": "spectrum", "n": 11, "d": 5, "i": 2}, "'alpha'"),
    ({"command": "sweep", "n": 11, "d": 5, "i": 2, "alphas": None}, "'alphas'"),
])
def test_a_missing_required_field_is_named(capsys, tmp_path, recorded, job, missing):
    with pytest.raises(ValueError, match=f"^{job['command']} needs {missing}$"):
        job_from_dict(job)
    assert via_batch(capsys, recorded, tmp_path, job) == (2, None)


NAMES = ["command", *ALL_FIELDS, "format", "output", "stranger"]
VALUES = st.one_of(
    st.integers(0, 20),
    st.booleans(),
    st.sampled_from(["", "x", "all", "structured", "scan"]),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.25, 0.5]),
    st.lists(
        st.one_of(st.integers(0, 20), st.sampled_from([0.5, math.nan]),
                  st.lists(st.integers(0, 2), max_size=2)),
        max_size=3,
    ),
)
JOBS = st.builds(
    lambda command, rest: {**rest, "command": command},
    st.one_of(st.sampled_from(sorted(FIELDS)), VALUES),
    st.dictionaries(st.sampled_from(NAMES), VALUES, max_size=7),
)


@settings(max_examples=400, deadline=None)
@given(JOBS)
def test_validator_returns_a_job_or_raises_value_error(raw):
    try:
        cfg = job_from_dict(raw)
    except ValueError:
        return
    assert isinstance(cfg, JobConfig) and cfg.command == raw["command"]
