import json
import math
import sys

import pytest

from labanmotion.errors import (BadDescriptor, BadInput, ParseError, ValidationError, finite, json_numbers, read_json,
                                read_text)


def test_read_text_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "clip.json"
    path.write_bytes('{"a": "é",\r\n "b": 1}'.encode())
    assert read_text(str(path)) == '{"a": "é",\n "b": 1}'  # universal newlines, as open() reads text
    path.write_bytes(b'{"a": 1,\r\n "b": \xff}')
    with pytest.raises(ParseError) as exc:
        read_text(str(path))
    assert (exc.value.location, exc.value.detail) == (str(path), "not UTF-8 text: invalid start byte at byte 16")


def test_read_json_locates_syntax_errors():
    with pytest.raises(ParseError) as exc:
        read_json('{"a": 1,\n "b": }')
    assert exc.value.location == "line 2, column 7"


@pytest.mark.parametrize("text", ["[]", "3", '"x"', "null"])
def test_read_json_wants_an_object(text):
    with pytest.raises(ParseError, match=r"^\$: expected a JSON object$"):
        read_json(text)


# 0 where the interpreter converts integers of any length
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no integer digit limit")
def test_read_json_refuses_an_integer_over_the_digit_limit():
    with pytest.raises(ParseError) as exc:
        read_json('{"a": ' + "1" * (_DIGIT_LIMIT + 1) + "}")
    assert exc.value.location == "$"


def test_read_json_refuses_too_deep_nesting():
    with pytest.raises(ParseError) as exc:
        read_json('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert exc.value.location == "$"


def test_json_numbers_is_the_exact_type_rule():
    assert json_numbers([0, -1.5, 10**400, math.nan, math.inf])
    assert json_numbers(iter([]))
    for bad in (True, False, None, "1", [1], 1j):
        assert not json_numbers([1.0, bad])


@pytest.mark.parametrize("value", [0.0, 1, 10.5, 1.7976931348623157e308])
def test_finite_returns_a_float(value):
    out = finite(value, "x", 0.0)
    assert type(out) is float and out == value


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -(10**400), True, None, "1", [1]])
def test_finite_refuses_what_is_not_a_finite_number(value):
    with pytest.raises(BadInput, match=r"^x must be a finite number, got "):
        finite(value, "x")


@pytest.mark.parametrize("value,kwargs,bound", [
    (0.0, {"lo": 0.0, "strict": True}, "> 0"),
    (-1e-300, {"lo": 0.0}, ">= 0"),
    (1.5, {"lo": 0.0, "hi": 1.0}, "in [0, 1]"),
    (0, {"lo": 0.0, "hi": 1.0, "strict": True}, "in (0, 1]"),
])
def test_finite_names_the_bound(value, kwargs, bound):
    with pytest.raises(BadInput) as exc:
        finite(value, "x", **kwargs)
    assert str(exc.value) == f"x must be a finite number {bound}, got {value!r}"


def test_finite_raises_the_callers_error_type():
    with pytest.raises(BadDescriptor, match="^hold must be"):
        finite(math.nan, "hold", error=BadDescriptor)
    with pytest.raises(ValidationError) as exc:
        finite(0, "$.tau", 0.0, strict=True, error=ValidationError)
    assert exc.value.violations == ["$.tau must be a finite number > 0, got 0"]


def test_read_json_keeps_non_finite_constants_for_the_number_rule():
    # NaN and Infinity parse; the range check, not the reader, refuses them
    obj = read_json('{"a": NaN, "b": -Infinity}')
    assert math.isnan(obj["a"]) and obj["b"] == -math.inf
    assert json.dumps(obj) == '{"a": NaN, "b": -Infinity}'
