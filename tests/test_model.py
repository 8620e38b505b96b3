import dataclasses
import re
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglogic.model import (
    UNK,
    Const,
    EquivIn,
    FunctionKey,
    ModelError,
    NotGround,
    Param,
    Signature,
    TOKEN_RE,
    Wildcard,
    function_key,
    ground_slot,
    is_ground,
    not_ground_reason,
    wildcard_labels,
)
from siglogic.dsl import parse_signature, print_signature, read_rows
from siglogic.logic import signature_row
from siglogic.normalizer import lowercase_lang

from strategies import ground_signatures, signatures


def test_const_rejects_bad_tokens():
    with pytest.raises(ModelError):
        Const("has space")
    with pytest.raises(ModelError):
        Const("a?b")
    with pytest.raises(ModelError):
        Const("")


def test_unk_is_not_a_const():
    # UNK is the constant token UNK, shared like every ground slot
    assert Const("UNK") == UNK
    assert ground_slot("UNK") is UNK
    assert UNK != Const("unk")


def test_params_wildcard_excludes_params():
    with pytest.raises(ModelError):
        Signature(
            lang=Const("java"),
            namespace=Const("lang"),
            class_name=Const("Math"),
            head=Const("max"),
            params=(Param(Const("long"), Const("a")),),
            params_wildcard=True,
        )


def test_equivin_requires_concrete_lang():
    with pytest.raises(ModelError):
        Signature(
            lang=Wildcard("l"),
            namespace=Const("lang"),
            class_name=Const("Math"),
            head=EquivIn("max", "python"),
            params_wildcard=True,
        )


def test_is_ground_on_concrete_signature():
    sig = parse_signature("java lang Math::max(long:a,long:b) -> long")
    assert is_ground(sig)


def test_is_ground_false_with_wildcards():
    sig = parse_signature("java N? C?::f?(long:a,long:p?) -> long")
    assert not is_ground(sig)


def test_unk_slots_count_as_ground():
    sig = parse_signature("python decimal Context::max(UNK:a,UNK:b) -> UNK")
    assert is_ground(sig)


# wildcards, `(?)`, EquivIn and UNK heads, vararg, and ground lines whose
# function is or is not named UNK
@settings(max_examples=300, deadline=None)
@given(st.one_of(
    signatures(),
    ground_signatures,
    ground_signatures.map(lambda sig: dataclasses.replace(sig, head=UNK)),
))
def test_groundness_read_from_the_line_match_agrees_with_the_walk(sig):
    # sig is built by hand, so not_ground_reason walks its slots; the KB
    # line reader reads exactly the ground lines, as the library stores them
    text = print_signature(sig)
    [(lineno, key, row)] = read_rows(text)
    assert lineno == 1
    assert (key is not None) == (not_ground_reason(sig) is None)
    if key is None:
        assert row == text
    else:
        stored = lowercase_lang(sig)
        assert (key, row) == (function_key(stored), signature_row(stored, attrgetter("token")))


def test_function_key_fields():
    sig = parse_signature("java lang Math::max(long:a,long:b) -> long")
    assert function_key(sig) == FunctionKey("java", "lang", "Math", "max", 2)


def test_function_key_unk_slots_use_the_literal_token():
    sig = parse_signature("Haskell Data.Bits builtin::shiftL(UNK:a,Int:UNK) -> UNK")
    assert function_key(sig) == FunctionKey(
        "Haskell", "Data.Bits", "builtin", "shiftL", 2
    )


def test_function_key_vararg_counts_explicit_params_only():
    sig = parse_signature(
        "php core builtin::max(mixed:value1,mixed:value2,...) -> mixed"
    )
    assert function_key(sig) == FunctionKey("php", "core", "builtin", "max", 2)


def test_function_key_is_its_tuple():
    key = FunctionKey("java", "lang", "Math", "max", 2)
    fields = ("java", "lang", "Math", "max", 2)
    assert key == fields and hash(key) == hash(fields)
    assert repr(key) == (
        "FunctionKey(lang='java', namespace='lang', class_name='Math', "
        "name='max', arity=2)"
    )
    assert sorted([key._replace(arity=10), key]) == [key, key._replace(arity=10)]


@pytest.mark.parametrize("text, key", [
    ("java|lang|Math|max|2", ("java", "lang", "Math", "max", 2)),
    ("JAVA|lang|Math|max|0", ("java", "lang", "Math", "max", 0)),
    ("UNK|ns|C|f|1", ("UNK", "ns", "C", "f", 1)),
])
def test_function_key_text_round_trips(text, key):
    parsed = FunctionKey.parse(text)
    assert parsed == key
    assert FunctionKey.parse(parsed.text) == parsed


@pytest.mark.parametrize("bad", ["has space", "", "a|b", "a?"])
def test_function_key_rejects_bad_tokens(bad):
    for i in range(4):
        fields = ["java", "lang", "Math", "max"]
        fields[i] = bad
        with pytest.raises(ModelError) as e:
            FunctionKey(*fields, 2)
        assert str(e.value) == "invalid key token: %r" % bad


@pytest.mark.parametrize("build, message", [
    (lambda: Wildcard("a b"), "invalid wildcard label: 'a b'"),
    (lambda: EquivIn("a b", "php"), "invalid EquivIn token: 'a b'"),
    (lambda: Signature(Const("java"), Const("lang"), Const("Math"),
                       Const("max"), vararg=True),
     "vararg requires at least one explicit param"),
    (lambda: FunctionKey("java", "lang", "Math", "max", -1), "arity must be >= 0"),
], ids=["wildcard-label", "equivin-token", "vararg-alone", "negative-arity"])
def test_direct_construction_checks_its_values(build, message):
    with pytest.raises(ModelError) as e:
        build()
    assert str(e.value) == message


def test_function_key_requires_ground():
    sig = parse_signature("java N? C?::f?(long:a,long:p?) -> long")
    with pytest.raises(NotGround):
        function_key(sig)


def test_wildcard_labels_first_occurrence_order():
    sig = parse_signature("java N? C?::f?(t?:p?,t?:a) -> r?")
    assert wildcard_labels(sig) == ["N", "C", "f", "t", "p", "r"]


_LABEL_RE = re.compile(r"(%s)\?" % TOKEN_RE.pattern)


@settings(max_examples=500, deadline=None)
@given(signatures())
def test_wildcard_labels_and_groundness_read_as_the_printed_text(sig):
    # the printed text spells each wildcard `label?`, in written order
    text = print_signature(sig)
    labels = list(dict.fromkeys(_LABEL_RE.findall(text)))
    assert wildcard_labels(sig) == labels
    if not isinstance(sig.head, EquivIn) and sig.head != UNK:
        ground = not labels and not sig.params_wildcard
        assert (not_ground_reason(sig) is None) == ground
