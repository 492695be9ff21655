"""The reader of input documents: what counts as a JSON document, a
number and a count."""

import math
import sys

import pytest

from slogcensus.errors import BuildError, count, numbers, parse_json


def _nested(depth):
    doc = []
    for _ in range(depth - 1):
        doc = [doc]
    return doc


@pytest.mark.parametrize("text, doc", [
    ('{"a": [1, 2.5, -0.0]}', {"a": [1, 2.5, -0.0]}),
    (b'{"a": "\xc3\xa9"}', {"a": "é"}),
    ("1e999", math.inf),
    ("1" * 4300, int("1" * 4300)),
    ("[" * 300 + "]" * 300, _nested(300)),
])
def test_parse_json_accepts_standard_json(text, doc):
    assert parse_json(text, "test file") == doc


@pytest.mark.parametrize("text", [
    "", "{", "[1,]", "{'a': 1}", "NaN", "[Infinity]", '{"a": -Infinity}',
    "1" * 4301, "[" * 100_000 + "]" * 100_000, b"[\xe9]", "[1] [2]",
], ids=["empty", "open", "trailing-comma", "single-quotes", "nan",
        "infinity", "minus-infinity", "4301-digits", "deep", "not-utf8",
        "extra-data"])
def test_parse_json_refuses_the_rest(text):
    with pytest.raises(BuildError, match="^malformed test file: ") as exc:
        parse_json(text, "test file")
    assert len(str(exc.value).splitlines()) == 1


@pytest.mark.parametrize("v, depth, out", [
    (1, 0, 1.0), (-2.5, 0, -2.5), (-0.0, 0, -0.0),
    (sys.float_info.max, 0, sys.float_info.max), (10 ** 300, 0, 1e300),
    ([], 1, ()), ([1, 2.5], 1, (1.0, 2.5)),
    ([[1], [], [2, 3]], 2, ((1.0,), (), (2.0, 3.0))),
    ([[[1]]], 3, (((1.0,),),)),
])
def test_numbers_accepts_finite_json_numbers(v, depth, out):
    got = numbers(v, "x", depth)
    assert got == out and repr(got) == repr(out)


@pytest.mark.parametrize("v, depth", [
    (True, 0), (False, 0), (None, 0), ("1", 0), ("0.5", 0), ([1], 0),
    ({}, 0), (math.inf, 0), (-math.inf, 0), (math.nan, 0), (10 ** 400, 0),
    (-10 ** 309, 0), (1, 1), ("12", 1), ((1.0,), 1), ([True], 1),
    (["0.5", 0], 1), ([1, [2]], 1), ([[1], 2], 2), ([[1.0, math.nan]], 2),
])
def test_numbers_refuses_the_rest(v, depth):
    with pytest.raises(BuildError, match="^malformed x: expected "):
        numbers(v, "x", depth)


@pytest.mark.parametrize("v, least", [(0, 0), (2, 2), (10 ** 11, 1)])
def test_count_accepts_integers_from_least(v, least):
    assert count(v, "x", least) == v


@pytest.mark.parametrize("v, least", [
    (1, 2), (-1, 0), (True, 0), (False, 0), (2.0, 0), (2.9, 0), ("3", 0),
    (None, 0), ([2], 0), (math.inf, 0),
])
def test_count_refuses_the_rest(v, least):
    with pytest.raises(BuildError, match="^malformed x: expected an integer"):
        count(v, "x", least)
