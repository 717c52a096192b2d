import json
from fractions import Fraction

import pytest

from centerbook import DocumentError, format_rational, load_experiment, parse_rational
from centerbook.synth import parse_bounds


def test_parses_fraction_strings():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-3/9") == Fraction(-1, 3)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(" 2 / 4 ") == Fraction(1, 2)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational(Fraction(2, 3)) == Fraction(2, 3)


def test_result_is_in_lowest_terms_with_positive_denominator():
    value = parse_rational("-6/8")
    assert (value.numerator, value.denominator) == (-3, 4)


@pytest.mark.parametrize("bad", ["0.5", "1.0", "1/0", "a/b", "", "1/2/3", None, [1, 2]])
def test_rejects_non_rational_strings(bad):
    with pytest.raises(DocumentError):
        parse_rational(bad)


def test_rejects_floats_and_booleans():
    with pytest.raises(DocumentError):
        parse_rational(0.5)
    with pytest.raises(DocumentError):
        parse_rational(True)


def test_formatting():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(-5, 3)) == "-5/3"
    assert format_rational(Fraction(1, 4), decimal=True) == "0.25"


BIG = "7" * 5000  # longer than the 4,300-digit limit on int(str)


def assert_short_error(excinfo, field):
    message = str(excinfo.value)
    assert field in message
    assert "5000 digits" in message
    assert len(message) < 200


def test_oversize_integer_in_a_fraction_string_is_a_document_error():
    for text in (f"{BIG}/3", f"3/{BIG}", f"-{BIG}", BIG):
        with pytest.raises(DocumentError) as excinfo:
            parse_rational(text, "worlds[0].prior")
        assert_short_error(excinfo, "worlds[0].prior")


def test_integer_at_the_digit_limit_is_accepted():
    assert parse_rational("9" * 4300) == Fraction(int("9" * 4300))


def test_oversize_bare_json_integer_names_its_field(tmp_path):
    doc = {
        "worlds": [{"id": "a", "prior": "PRIOR"}],
        "slots": ["s"],
        "centers": [{"world": "a", "slot": "s", "observation": "o"}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc).replace('"PRIOR"', BIG), encoding="utf-8")
    with pytest.raises(DocumentError) as excinfo:
        load_experiment(path)
    assert_short_error(excinfo, "worlds[0].prior")


def test_oversize_bounds_end_is_a_short_document_error():
    with pytest.raises(DocumentError) as excinfo:
        parse_bounds(f"0/{BIG}", "--bounds")
    assert_short_error(excinfo, "--bounds")
