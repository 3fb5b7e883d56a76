"""Golden bytes: the sha256 of the stdout, and the exit code, of fixed CLI
invocations.

The list covers every command in JSON and in CSV, every spectrum method,
a batch stream (a spectrum of 13 values, one job of each command and one
failing job), a value below the smallest magnitude the array rounding
handles (2.10e-16) and values at and above its largest
(999000000000000.0 and 1e15). Each of these solves on Python floats. A
change to the solver, to the payloads or to the renderers that moves one
printed byte fails here.

One case prints rounding noise: `verify --tol 1e-300` fails every check and
prints each Jacobi-versus-structured deviation, which an ulp's move of a
structured value changes. Its digest is taken with each deviation masked,
so it pins the verdict, the counts and which checks fail, and each
deviation must lie within DEVIATION_BOUND instead.

A million-vertex spectrum of order 1001 jumps runs of equal rows through
numpy's tan, arctan2, log1p, arctanh and tanh, whose last bits may differ
between numpy builds and CPUs, so no digest pins its output. Its stdout
must equal the reference rendering, one value at a time, of the payload
the same solve gives.
"""

import hashlib
import json
import re

import pytest

from alphabug.cli import (_COMMANDS, _config_from_namespace, build_parser, config_from_env, main,
                          run_job)

BATCH = [
    {"command": "spectrum", "n": 40, "d": 12, "i": 5, "alpha": 0.35},
    {"command": "spectrum", "n": 10, "d": 4, "i": 2, "alpha": 0.3, "method": "all"},
    {"command": "sweep", "n": 11, "d": 5, "i": 2, "alphas": [0, 0.5]},
    {"command": "scan", "n": 10, "d": 4, "alpha": 0.5},
    {"command": "verify", "max_n": 4},
    {"command": "scan", "n": 3},
]

GOLDEN = [
    ("spectrum --n 11 --d 5 --i 2 --alpha 0.6", 0,
     "91f56d8e81c77acfd809819dff92ed7dd3a576e6830d19411f9f1df0d4951072"),
    ("spectrum --n 10 --d 4 --i 2 --alpha 0.3 --method structured", 0,
     "eeaec3899a10c0bba6bb4f04381a924ec73269ae441321225f9ddc6f5909a526"),
    ("spectrum --n 10 --d 4 --i 2 --alpha 0.3 --method dense", 0,
     "2252156533dece4b4bdfcd035b7f3618335f0572988f49001f56e30b6b6d30cf"),
    ("spectrum --n 10 --d 4 --i 2 --alpha 0.3 --method halved", 0,
     "1f5a9f2a3d31db35dcb8f6b6b2cf6b972e6b9753a647371419e3cea336267249"),
    ("spectrum --n 10 --d 4 --i 2 --alpha 0.3 --method all", 0,
     "c16a24541fe05d2f6e50318142cf343d008bc741076773089c41acabeec72ea8"),
    ("spectrum --p 5 --q 3 --r 2 --alpha 0", 0,
     "15686a35f68400efb3cba1d11d220995d9d126c4a4fe5c78a70d8ec0e50526a8"),
    ("sweep --n 11 --d 5 --i 2 --alphas 0,0.25,0.5,0.99", 0,
     "512ce2720897d669b30dbaef6755af260f881cecc71b239fce240932dbb23232"),
    ("scan --n 30 --d 12 --alpha 0.5", 0,
     "d35926e058c898d3be492673238599b0f60558ddb37345a44f210a31f1a34083"),
    ("verify --max-n 5", 0,
     "f00ceb517e0293be0da69a3e969106b407e1d9a9a261cad544143fa2ded67c9f"),
    ("verify --max-n 4 --tol 1e-300", 1,
     "1c5da49de8a48ddfa42ce63a415decba58932f83c5ac0b0a6af4aef4b9301390"),
    ("spectrum --p 3 --q 1 --r 1 --alpha 0.5 --method all", 0,
     "e4e3e6fc8aae4e14da72c225935880d3b3fd9bff35c0fea408281696d64e307b"),
    ("spectrum --n 1000000000000000 --d 4 --i 2 --alpha 0.999 --method halved", 0,
     "d5068840c0864d8b53378ab79e7478279c57c869245cdcdd10ae79588331f6a3"),
    ("spectrum --n 11 --d 5 --i 2 --alpha 0.6 --format csv", 0,
     "da8ef07218cc73459f44b8e6f388053cf57ed53f4fdcf7f8d20071466c460fd5"),
    ("spectrum --n 10 --d 4 --i 2 --alpha 0.3 --method dense --format csv", 0,
     "5961909282cf4116b7b7cb23da48b119aa1fb263b4db98b2d796b5c8e4e6f0f2"),
    ("spectrum --n 10 --d 4 --i 2 --alpha 0.3 --method halved --format csv", 0,
     "5467a348c22ffe9c186d4ced9c386492c6bc625606b3230d8a24eb143e7e2f05"),
    ("spectrum --n 10 --d 4 --i 2 --alpha 0.3 --method all --format csv", 0,
     "de7149f3f126b68bf046a41c23783cb1545361c89500c8511e86efadf0c666dc"),
    ("sweep --n 11 --d 5 --i 2 --alphas 0,0.25,0.5,0.99 --format csv", 0,
     "44a9a5c4d4711906260848505e320eb857fd56b57ffd56a3ed03dfb6d2abc241"),
    ("scan --n 30 --d 12 --alpha 0.5 --format csv", 0,
     "2e8f48fdc391f1071b0579ff522e78b093a08e6a3d7784326de983fd6643186a"),
    ("verify --max-n 5 --format csv", 0,
     "372d3d2842b984de910b90a48e48636ba276f16a12567cfb0eaa04a0923eba9d"),
    ("batch @jobs", 2,
     "c766b0f8f2b1ff6781f4772555751a9cb9a86939436b6c171cb5e2311ec1634b"),
]


# the commands whose printed deviations are masked, and the bound each
# deviation must meet: the dense route's Jacobi stops at 1e-12 of the
# Frobenius norm, below 10 on these bugs of order 4 or less
DEVIATION_BOUND = {"verify --max-n 4 --tol 1e-300": 1e-12}
# "worst_deviation": v in JSON, and "deviation v" in each failure line
_DEVIATION = re.compile(r'(deviation(?:": | ))([0-9.e+-]+)')


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_bytes(capsys, tmp_path, command, code, digest):
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps(BATCH))
    argv = [str(jobs) if word == "@jobs" else word for word in command.split()]
    assert main(argv) == code
    out = capsys.readouterr().out
    if command in DEVIATION_BOUND:
        deviations = [float(v) for _, v in _DEVIATION.findall(out)]
        assert deviations and all(0.0 < v <= DEVIATION_BOUND[command] for v in deviations)
        out = _DEVIATION.sub(r"\1*", out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def rounded(obj):
    """The payload with each float as float(f"{v:.12g}"), +-0 as 0.0."""
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [rounded(v) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if obj else 0.0
    return obj


def csv_field(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{x:.12g}" if x else "0"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_order_1001_spectrum_prints_as_its_payload(capsys, fmt):
    argv = "spectrum --n 1000000 --d 1000 --i 500 --alpha 0.6 --format".split() + [fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    payload, code = run_job(_config_from_namespace(build_parser().parse_args(argv)),
                            config_from_env())
    assert code == 0 and len(payload["quotient_eigenvalues"]) == 1001
    if fmt == "json":
        assert out == json.dumps(rounded(payload), indent=2) + "\n"
    else:
        spec = _COMMANDS["spectrum"]
        rows = [",".join(spec.columns)] + [",".join(csv_field(row[key]) for key in spec.columns)
                                           for row in spec.rows(payload)]
        assert out == "\n".join(rows) + "\n"
