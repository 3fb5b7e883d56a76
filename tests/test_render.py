"""The renderers: 12-digit rounding in one array pass, JSON with long float
lists joined at once, and CSV numbers."""

import json
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from alphabug.cli import _ARRAY_MIN, _fmt_num, _jsonable, _round12, render_csv, render_json


def rounded(v: float) -> float:
    """The rounding rule, one value at a time."""
    return float(f"{v:.12g}") if v else 0.0


def same_bits(got, want) -> bool:
    return len(got) == len(want) and all(
        type(g) is float and struct.pack("<d", g) == struct.pack("<d", w)
        or (math.isnan(g) and math.isnan(w))
        for g, w in zip(got, want)
    )


def per_value_jsonable(obj):
    """_jsonable with every float rounded on its own."""
    if isinstance(obj, dict):
        return {k: per_value_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [per_value_jsonable(v) for v in obj]
    return rounded(obj) if isinstance(obj, float) else obj


@st.composite
def near_ties(draw):
    """Values at, or a few ulps or up to 2e-3 units of the 12th digit from,
    a 12-digit tie, from 1e-20 to 1e20."""
    digits = draw(st.integers(10**11, 10**12 - 1))
    exponent = draw(st.integers(-31, 9))
    tie = float(f"{digits}5e{exponent - 1}")
    if draw(st.booleans()):
        for _ in range(draw(st.integers(0, 40))):
            tie = math.nextafter(tie, draw(st.sampled_from([0.0, math.inf])))
    else:
        tie *= 1.0 + draw(st.floats(-2e-3, 2e-3)) / (digits + 0.5)
    return tie if draw(st.booleans()) else -tie


EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
         1e12, -1e12, math.nextafter(1e12, 0.0), 999999999999.5, 1e15, 1.7976931348623157e308,
         1e-11, math.nextafter(1e-11, 0.0), 9.99999999999e-12, 1e-12, -3.65751707751e-14,
         1e11, math.nextafter(1e11, 0.0), 0.1, 1.0, 10.0]
values = st.one_of(st.floats(), near_ties(), st.sampled_from(EDGES),
                   st.floats(1e-12, 1e13), st.floats(-1e13, -1e-12))


class TestRound12:
    def test_random_values_over_sixteen_decades(self):
        rng = np.random.default_rng(20)
        x = rng.uniform(-1.0, 1.0, 200_000) * 10.0 ** rng.uniform(-14.0, 16.0, 200_000)
        assert same_bits(_round12(x), [rounded(v) for v in x.tolist()])

    def test_edges(self):
        assert same_bits(_round12(EDGES), [rounded(v) for v in EDGES])
        assert same_bits(_round12(np.array(EDGES)), [rounded(v) for v in EDGES])
        assert _round12([-0.0, 0.0]) == [0.0, 0.0]
        assert math.copysign(1.0, _round12([-0.0])[0]) == 1.0
        assert _round12([]) == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(values, min_size=1, max_size=60))
    def test_equals_the_f_string_bit_for_bit(self, xs):
        assert same_bits(_round12(xs), [rounded(v) for v in xs])


def long_list(seed: int, mixed: bool) -> list:
    """A list of _ARRAY_MIN or more floats over 30 decades, with a few edge
    values and 12-digit ties among them; if mixed, one of them an int or a
    bool, so the list prints value by value."""
    rng = np.random.default_rng(seed)
    size = _ARRAY_MIN + int(rng.integers(0, 30))
    xs = (rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.uniform(-14.0, 16.0, size)).tolist()
    for k in rng.integers(0, size, 3).tolist():
        xs[k] = EDGES[int(rng.integers(len(EDGES)))]
    for k in rng.integers(0, size, 3).tolist():
        xs[k] = float(f"{int(rng.integers(10**11, 10**12))}5e{int(rng.integers(-20, 10))}")
    if mixed:
        xs[int(rng.integers(size))] = [7, True, False, 0][int(rng.integers(4))]
    return xs


leaves = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20), values,
                   st.text(max_size=8), st.builds(long_list, st.integers(0, 2**32), st.booleans()))
trees = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children,
                                                                       max_size=4),
    max_leaves=20,
)
payloads = st.dictionaries(st.text(max_size=6), trees, max_size=6)


class TestRenderJson:
    @settings(max_examples=200, deadline=None)
    @given(payloads)
    def test_equals_json_dumps_of_the_rounded_payload(self, payload):
        assert render_json(payload) == json.dumps(_jsonable(payload), indent=2) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(payloads)
    def test_long_float_lists_round_as_each_value_alone(self, payload):
        assert json.dumps(_jsonable(payload)) == json.dumps(per_value_jsonable(payload))

    def test_empty_containers_non_ascii_keys_and_non_finite_floats(self):
        payload = {"é": [], "ß": {}, "k☃": [{}, [], None, True, False, -0.0, 7],
                   "long": [1.0, math.nan, -math.inf, math.inf, -0.0] * 10, "x": math.nan}
        text = render_json(payload)
        assert text == json.dumps(_jsonable(payload), indent=2) + "\n"
        assert '"\\u00e9": []' in text and "NaN" in text and "-Infinity" in text

    def test_payload_strings_like_the_stand_in(self):
        long = [0.1 * k for k in range(_ARRAY_MIN)]
        for payload in ({"\x00": long, "b": ["\x00", long]}, {"a": long, "b": 'q"\x00'},
                        {"a": [{"b": long, "c": [long, -0.0]}], "d": "\x00x"}):
            assert render_json(payload) == json.dumps(_jsonable(payload), indent=2) + "\n"


class TestCsvNumbers:
    def test_signed_zero_prints_as_zero(self):
        assert _fmt_num(-0.0) == _fmt_num(0.0) == "0"
        assert (_fmt_num(-1e-300), _fmt_num(2.5), _fmt_num(math.nan)) == ("-1e-300", "2.5", "nan")
        assert (_fmt_num(0), _fmt_num(False), _fmt_num(None)) == ("0", "false", "")

    def test_csv_rows_print_signed_zero_as_zero(self):
        payload = {"summary": {"instances": 1, "checks_run": 2, "checks_passed": 2,
                               "checks_failed": 0, "worst_deviation": -0.0, "ok": True}}
        assert render_csv("verify", payload).splitlines()[1] == "1,2,2,0,0,true"
