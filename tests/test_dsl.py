import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglogic.dsl import (
    MixedWildcardParams,
    ParseError,
    _scan_signature,
    parse_signature,
    print_signature,
)
from siglogic.model import (
    UNK,
    Const,
    EquivIn,
    ModelError,
    Param,
    Signature,
    Wildcard,
)

from strategies import signatures


def test_repeated_token_parses_to_one_shared_const():
    sig = parse_signature("java lang Math::max(long:a,long:b) -> long")
    assert sig.params[0].type_slot is sig.params[1].type_slot is sig.ret
    # one Param per (type, name), whether the whole-line match or the
    # scanner (an EquivIn head) reads it, and at whichever place it stands
    for other in ("php core builtin::min(long:a) -> int",
                  "php core builtin::min(int:b,long:a) -> int",
                  "java lang Math::EquivIn(max,php)(long:a) -> r?",
                  "java lang Math::EquivIn(max,php)(int:b,long:a) -> r?"):
        assert parse_signature(other).params[-1] is sig.params[0]


def test_parse_concrete_signature():
    sig = parse_signature("java lang Math::max(long:a,long:b) -> long")
    assert sig == Signature(
        lang=Const("java"),
        namespace=Const("lang"),
        class_name=Const("Math"),
        head=Const("max"),
        params=(
            Param(Const("long"), Const("a")),
            Param(Const("long"), Const("b")),
        ),
        ret=Const("long"),
    )


def test_parse_wildcard_query():
    sig = parse_signature("java N? C?::f?(long:a,long:p?) -> long")
    assert sig.namespace == Wildcard("N")
    assert sig.class_name == Wildcard("C")
    assert sig.head == Wildcard("f")
    assert sig.params == (
        Param(Const("long"), Const("a")),
        Param(Const("long"), Wildcard("p")),
    )
    assert sig.ret == Const("long")


def test_parse_equiv_head_with_list_wildcard():
    sig = parse_signature(
        "java java.math BigInteger::EquivIn(shiftLeft,haskell)(?) -> r?"
    )
    assert sig.head == EquivIn("shiftLeft", "haskell")
    assert sig.params_wildcard
    assert sig.params == ()
    assert sig.ret == Wildcard("r")


def test_parse_unk_slots():
    sig = parse_signature("python decimal Context::max(UNK:a,UNK:b) -> UNK")
    assert sig.params[0].type_slot == UNK
    assert sig.ret == UNK


def test_parse_vararg():
    sig = parse_signature(
        "php core builtin::max(mixed:value1,mixed:value2,...) -> mixed"
    )
    assert sig.vararg
    assert len(sig.params) == 2


def test_parse_zero_params():
    sig = parse_signature("java lang Math::now() -> long")
    assert sig.params == ()
    assert not sig.params_wildcard


def test_whitespace_between_tokens_is_insignificant():
    loose = "java  lang   Math :: max ( long : a , long : b )  ->  long"
    tight = "java lang Math::max(long:a,long:b) -> long"
    assert parse_signature(loose) == parse_signature(tight)


def test_print_canonical_form():
    text = "java lang Math::max(long:a,long:b) -> long"
    assert print_signature(parse_signature(text)) == text


def test_print_zero_params():
    text = "java lang Math::now() -> long"
    assert print_signature(parse_signature(text)) == text


def test_print_equiv_and_list_wildcard():
    text = "java java.math BigInteger::EquivIn(shiftLeft,haskell)(?) -> r?"
    assert print_signature(parse_signature(text)) == text


def test_mixed_wildcard_params_rejected():
    # either form reports the offset of the `?` it names as found
    for text in ["java lang Math::max( ?  ,long:b) -> long",
                 "java lang Math::max(long:a, ?) -> long"]:
        with pytest.raises(MixedWildcardParams) as e:
            parse_signature(text)
        assert e.value.byte_offset == text.index("?")
        assert e.value.found == "'?'"


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as e:
        parse_signature("java lang")
    assert e.value.byte_offset == len("java lang")
    assert "end of input" in e.value.found

    with pytest.raises(ParseError) as e:
        parse_signature("java lang Math::max(long:a,long:b) => long")
    assert e.value.byte_offset == len("java lang Math::max(long:a,long:b) ")


def test_parse_error_on_trailing_garbage():
    with pytest.raises(ParseError):
        parse_signature("java lang Math::max() -> long extra")


def test_function_named_equivin_wildcard_is_plain():
    sig = parse_signature("java lang Math::EquivIn?(?) -> r?")
    assert sig.head == Wildcard("EquivIn")


@settings(max_examples=300, deadline=None)
@given(signatures())
def test_parse_print_round_trip(sig):
    assert parse_signature(print_signature(sig)) == sig


@settings(max_examples=300, deadline=None)
@given(signatures())
def test_print_parse_is_identity_on_canonical_text(sig):
    text = print_signature(sig)
    assert print_signature(parse_signature(text)) == text


# Text near the grammar: few distinct tokens (`UNK`, `EquivIn`, dots that
# may read as `...`), any whitespace or none, then a few one-character
# edits, so that most lines parse and the rest fail at every position.
_texts = st.sampled_from(["a", "long", "x.y", "UNK", "EquivIn", "...", "..", "-", "$'_9"])
_ws = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\x1c", "\u3000"])
_gaps = st.sampled_from(["", " ", " ", " ", "  ", "\t", "\u3000"])


@st.composite
def _signature_text(draw):
    def slot():
        return draw(_texts) + draw(st.sampled_from(["", "", "?"]))

    def sep(text):
        return draw(_ws) + text + draw(_ws)

    head = draw(st.sampled_from(["slot", "EquivIn(", "EquivIn ("]))
    if head == "slot":
        head = slot()
    elif head == "EquivIn(":
        head = "EquivIn(" + draw(_texts) + sep(",") + draw(_texts) + ")"
    else:  # a plain head named EquivIn
        head = "EquivIn" + draw(_gaps.filter(bool))
    if draw(st.integers(0, 4)) == 0:
        params = sep("?")
    else:
        params = sep(",").join(
            slot() + sep(":") + slot() for _ in range(draw(st.integers(0, 4)))
        )
        if draw(st.booleans()):
            params += sep(",") + "..."
    text = (draw(_ws) + slot() + draw(_gaps) + slot() + draw(_gaps) + slot() + sep("::")
            + head + sep("(") + params + sep(")") + sep("->") + slot() + draw(_ws))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["delete", "insert", "swap"]))
        if edit == "insert":
            text = text[:at] + draw(st.sampled_from(" :,()?.->Ua")) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        elif at + 1 < len(text):
            text = text[:at] + text[at + 1] + text[at] + text[at + 2:]
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return type(e), e.byte_offset, e.expected, e.found
    except ModelError as e:
        return type(e), str(e)


@settings(max_examples=1000, deadline=None)
@given(_signature_text())
def test_parse_agrees_with_the_scanner(text):
    assert _outcome(parse_signature, text) == _outcome(_scan_signature, text)
