import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglogic.dsl import parse_signature, print_signature
from siglogic.model import NotGround, is_ground, lang_token
from siglogic.normalizer import Dialect, DialectParseError, normalize

from conftest import JAVA_MAX, JAVA_MAX_RAW, PHP_MAX, PHP_MAX_RAW, PY_MAX, PY_MAX_RAW
from strategies import ground_signatures, tokens


def test_java_style_row():
    sig = normalize(JAVA_MAX_RAW, Dialect.JAVA, "java")
    assert print_signature(sig) == JAVA_MAX


def test_python_style_row_fills_unk():
    sig = normalize(PY_MAX_RAW, Dialect.PYTHON, "python")
    assert print_signature(sig) == PY_MAX


def test_php_style_row_defaults_sigils_vararg():
    sig = normalize(PHP_MAX_RAW, Dialect.PHP, "php")
    assert print_signature(sig) == PHP_MAX


@pytest.mark.parametrize("dialect, raw, normalized", [
    (Dialect.JAVA, "lang Math long f(int $x)", "java lang Math::f(int:$x) -> long"),
    (Dialect.PHP, "mixed f(int $x, $y)", "php core builtin::f(int:x,UNK:y) -> mixed"),
])
def test_a_dollar_sigil_is_cut_only_in_php(dialect, raw, normalized):
    assert print_signature(normalize(raw, dialect, dialect.value)) == normalized


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
    assert sig.lang.token == "java"


def test_normalized_dialect_is_pass_through():
    sig = normalize(JAVA_MAX, Dialect.NORMALIZED, "java")
    assert print_signature(sig) == JAVA_MAX
    # normalized text names its language: the tag may be left out
    assert normalize(JAVA_MAX, Dialect.NORMALIZED) == sig


def test_raw_dialect_needs_a_language_tag():
    with pytest.raises(ValueError, match="java dialect needs a language tag"):
        normalize(JAVA_MAX_RAW, Dialect.JAVA)


def test_normalized_dialect_lowercases_lang():
    sig = normalize(
        "Haskell Data.Bits builtin::shiftL(UNK:a,Int:UNK) -> UNK",
        Dialect.NORMALIZED,
        "haskell",
    )
    assert sig.lang.token == "haskell"
    # everything else preserved, including case
    assert sig.namespace.token == "Data.Bits"


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
    with pytest.raises(NotGround):
        normalize("lang Math long max(long a?,long b)", Dialect.JAVA, "java")
    with pytest.raises(NotGround):
        normalize("java N? C?::f?(?) -> r?", Dialect.NORMALIZED, "java")


@pytest.mark.parametrize("text, cause", [
    ("java N? C?::f?(?) -> r?", "contains wildcards"),
    ("java lang Math::UNK(long:a) -> long", "names its function UNK"),
    ("java lang Math::EquivIn(max,php)(long:a) -> long", "has an EquivIn head"),
], ids=["wildcards", "unk-name", "equivin-head"])
def test_not_ground_error_names_its_cause(text, cause):
    with pytest.raises(NotGround) as e:
        normalize(text, Dialect.NORMALIZED)
    assert str(e.value) == "normalized input %s: %r" % (cause, text)


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
    lang = sig.lang.token
    if lang != lang_token(lang):
        return  # lang tags are stored lowercase, UNK as it is
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


@pytest.mark.parametrize("dialect, raw, offset, message", [
    # the group, not the head
    (Dialect.JAVA, "lang Math long max(Math long max)", 19,
     "expected `type name` or `name`: 'Math long max'"),
    # the `..`, not `a..`
    (Dialect.JAVA, "lang Math long max(long a.., .., long b)", 29,
     "vararg marker must be last"),
    # the param, not the namespace
    (Dialect.JAVA, "lang a#b long max(long a#)", 23, "invalid token 'a#'"),
    # a marker that is not last
    (Dialect.PYTHON, "decimal Context max(a, ..., b)", 23,
     "vararg marker must be last"),
    (Dialect.JAVA, "lang Math long max(..)", 18,
     "vararg marker requires a preceding parameter"),
    (Dialect.JAVA, "lang Math long max(long a", 25, "missing closing ')'"),
    (Dialect.JAVA, "lang Math long max(long a) x", 26, "trailing text after ')'"),
    (Dialect.PYTHON, "a b c d(x)", 0, "expected `[module] [class] name(`"),
    (Dialect.PHP, "a b c(x)", 0, "expected `[returntype] name(`"),
    # the first fault in written order, not the later misplaced marker
    (Dialect.PYTHON, "decimal Context max(a#, .., b)", 20, "invalid token 'a#'"),
    (Dialect.JAVA, "lang Math long max(long a#, .., long b)", 24,
     "invalid token 'a#'"),
    # an empty group after the last comma
    (Dialect.JAVA, "lang Math long max(long a,)", 26,
     "expected `type name` or `name`: ''"),
    (Dialect.PHP, "mixed max(int $a b)", 10,
     "expected `type name` or `name`: 'int $a b'"),
], ids=["bad-group", "misplaced-vararg", "invalid-token", "python-misplaced-vararg",
        "vararg-alone", "unclosed", "trailing-text", "python-head", "php-head",
        "python-token-before-marker", "java-token-before-marker", "empty-last-group",
        "php-three-words"])
def test_error_offset_points_at_the_offending_occurrence(
    dialect, raw, offset, message
):
    with pytest.raises(DialectParseError) as e:
        normalize(raw, dialect, dialect.value)
    assert e.value.position == offset
    assert str(e.value) == "%s dialect, at offset %d: %s" % (
        dialect.value, offset, message
    )


@pytest.mark.parametrize("dialect, raw, normalized", [
    (Dialect.PYTHON, "decimal Context max(a b ...)",
     "python decimal Context::max(UNK:a,UNK:b,...) -> UNK"),
    (Dialect.PYTHON, "decimal Context max(a, b c, ...)",
     "python decimal Context::max(UNK:a,UNK:b,UNK:c,...) -> UNK"),
    (Dialect.PYTHON, "max(a,,b)", "python core builtin::max(UNK:a,UNK:b) -> UNK"),
    (Dialect.PYTHON, "max($a)", "python core builtin::max(UNK:$a) -> UNK"),
    (Dialect.PHP, "mixed max(mixed $value1, $value2, ..)",
     "php core builtin::max(mixed:value1,UNK:value2,...) -> mixed"),
    (Dialect.JAVA, "max(long $a)", "java core builtin::max(long:$a) -> UNK"),
], ids=["python-spaces-vararg", "python-commas-and-spaces",
        "python-empty-between-commas", "python-keeps-sigil", "php-untyped-and-vararg",
        "java-keeps-sigil"])
def test_parameter_list_shapes(dialect, raw, normalized):
    assert print_signature(normalize(raw, dialect, dialect.value)) == normalized


@settings(max_examples=200, deadline=None)
@given(
    st.lists(tokens.filter(lambda t: t not in ("..", "...")), min_size=1, max_size=5),
    st.booleans(),
    st.data(),
)
def test_python_names_read_the_same_whatever_separates_them(names, vararg, data):
    names += ["..."] if vararg else []
    seps = data.draw(st.lists(
        st.sampled_from([",", " ", ", ", " , ", ",,", "\t"]),
        min_size=len(names) - 1, max_size=len(names) - 1,
    ))
    raw = names[0] + "".join(sep + name for sep, name in zip(seps, names[1:]))
    assert normalize("f(%s)" % raw, Dialect.PYTHON, "python") == normalize(
        "f(%s)" % " ".join(names), Dialect.PYTHON, "python"
    )


def test_invalid_language_tag_is_rejected():
    with pytest.raises(ValueError, match="invalid language tag: 'p p'"):
        normalize(JAVA_MAX_RAW, Dialect.JAVA, "p p")
