import pytest
from hypothesis import given, settings

from siglogic.dsl import parse_signature, print_signature
from siglogic.model import is_ground, slot_token
from siglogic.normalizer import (
    Dialect,
    DialectParseError,
    NotGroundAfterNormalize,
    normalize,
)

from conftest import JAVA_MAX, JAVA_MAX_RAW, PHP_MAX, PHP_MAX_RAW, PY_MAX, PY_MAX_RAW
from strategies import ground_signatures


def test_java_style_row():
    sig = normalize(JAVA_MAX_RAW, Dialect.JAVA, "java")
    assert print_signature(sig) == JAVA_MAX


def test_python_style_row_fills_unk():
    sig = normalize(PY_MAX_RAW, Dialect.PYTHON, "python")
    assert print_signature(sig) == PY_MAX


def test_php_style_row_defaults_sigils_vararg():
    sig = normalize(PHP_MAX_RAW, Dialect.PHP, "php")
    assert print_signature(sig) == PHP_MAX


def test_java_style_defaults_when_namespace_missing():
    sig = normalize("Math long max(long a,long b)", Dialect.JAVA, "java")
    assert print_signature(sig) == "java core Math::max(long:a,long:b) -> long"


def test_java_style_name_only():
    sig = normalize("now()", Dialect.JAVA, "java")
    assert print_signature(sig) == "java core builtin::now() -> UNK"


def test_python_style_commas_tolerated():
    sig = normalize("decimal Context max(a, b)", Dialect.PYTHON, "python")
    assert print_signature(sig) == PY_MAX


def test_lang_tag_is_lowercased():
    sig = normalize(JAVA_MAX_RAW, Dialect.JAVA, "Java")
    assert slot_token(sig.lang) == "java"


def test_normalized_dialect_is_pass_through():
    sig = normalize(JAVA_MAX, Dialect.NORMALIZED, "java")
    assert print_signature(sig) == JAVA_MAX


def test_normalized_dialect_lowercases_lang():
    sig = normalize(
        "Haskell Data.Bits builtin::shiftL(UNK:a,Int:UNK) -> UNK",
        Dialect.NORMALIZED,
        "haskell",
    )
    assert slot_token(sig.lang) == "haskell"
    # everything else preserved, including case
    assert slot_token(sig.namespace) == "Data.Bits"


def test_output_is_ground_and_round_trips():
    for raw, dia, tag in [
        (JAVA_MAX_RAW, Dialect.JAVA, "java"),
        (PY_MAX_RAW, Dialect.PYTHON, "python"),
        (PHP_MAX_RAW, Dialect.PHP, "php"),
    ]:
        sig = normalize(raw, dia, tag)
        assert is_ground(sig)
        assert parse_signature(print_signature(sig)) == sig


def test_wildcards_in_raw_text_rejected():
    with pytest.raises(NotGroundAfterNormalize):
        normalize("lang Math long max(long a?,long b)", Dialect.JAVA, "java")
    with pytest.raises(NotGroundAfterNormalize):
        normalize("java N? C?::f?(?) -> r?", Dialect.NORMALIZED, "java")


def test_dialect_parse_errors_carry_position_and_dialect():
    with pytest.raises(DialectParseError) as e:
        normalize("lang Math long max long a", Dialect.JAVA, "java")
    assert "java" in str(e.value)

    with pytest.raises(DialectParseError):
        normalize("", Dialect.PHP, "php")

    with pytest.raises(DialectParseError):
        normalize("a b c d e f(x)", Dialect.JAVA, "java")


def test_param_count_preserved():
    sig = normalize("f(int a, int b, int c)", Dialect.PHP, "php")
    assert len(sig.params) == 3


@settings(max_examples=200, deadline=None)
@given(ground_signatures)
def test_normalized_idempotence(sig):
    lang = slot_token(sig.lang)
    if lang != lang.lower():
        return  # lang tags are canonically lowercase
    out = normalize(print_signature(sig), Dialect.NORMALIZED, lang)
    assert out == sig


def test_normalized_dialect_error_states_the_offset_once():
    with pytest.raises(DialectParseError) as e:
        normalize(JAVA_MAX + " long", Dialect.NORMALIZED, "java")
    assert e.value.position == len(JAVA_MAX) + 1
    assert str(e.value).count("at offset") == 1
    assert str(e.value) == (
        "normalized dialect, at offset %d: expected end of input, found 'l'"
        % (len(JAVA_MAX) + 1)
    )
