import copy
import operator
import pickle
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
from siglogic.logic import Formula, Var, compile_signature, signature_row
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
    ground_signatures.map(lambda sig: sig._replace(head=UNK)),
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


_SIG_TEXT = "java lang Math::max(long:a,long:b?) -> r?"
_FORMULA_TEXT = "java lang Math::f?(long:a) -> long"


def test_a_value_equals_only_values_of_its_own_class():
    values = [Const("x"), Wildcard("x"), Var("x"), ("x",)]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b, a != b) == (i == j, i != j), (a, b)
    assert Param(UNK, Const("a")) != (UNK, Const("a"))


def test_equal_values_hash_equal():
    for build in (lambda: parse_signature(_SIG_TEXT),
                  lambda: compile_signature(parse_signature(_FORMULA_TEXT)),
                  lambda: Const("x"), lambda: EquivIn("max", "python")):
        a, b = build(), build()
        assert a == b and hash(a) == hash(b)


def test_values_are_immutable_and_unordered():
    sig = parse_signature(_SIG_TEXT)
    with pytest.raises(AttributeError):
        sig.ret = UNK
    with pytest.raises(AttributeError):
        Const("x").token = "y"
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        for a, b in ((Const("a"), Const("b")), (Const("a"), ("b",)), (("b",), Const("a"))):
            with pytest.raises(TypeError):
                compare(a, b)


def test_replace_builds_the_value_anew_through_its_checks():
    sig = parse_signature("java lang Math::max(long:a) -> long")
    with pytest.raises(ModelError):
        sig._replace(params_wildcard=True)
    with pytest.raises(ModelError):
        Const("x")._replace(token="a b")
    with pytest.raises(TypeError):
        sig._replace(nope=UNK)
    assert sig._replace(params=list(sig.params)).params == sig.params
    assert Formula()._replace(lambdas=range(2)).lambdas == (0, 1)
    # `copy.replace` (Python 3.13+) calls `__replace__`; `_make` builds from an iterable
    replace = getattr(copy, "replace", lambda obj, **changes: obj.__replace__(**changes))
    with pytest.raises(ModelError):
        replace(sig, params_wildcard=True)
    with pytest.raises(ModelError):
        replace(Const("x"), token="a b")
    assert replace(Formula(), lambdas=range(2)).lambdas == (0, 1)
    with pytest.raises(ModelError):
        Signature._make((*sig[:5], True, *sig[6:]))
    with pytest.raises(ModelError):
        Const._make(["a b"])
    assert Formula._make((range(2), (), ())).lambdas == (0, 1)
    assert Signature._make(sig) == sig
    assert Signature(Const("java"), Const("lang"), Const("Math"), Const("max")).ret is UNK


def test_value_reprs_are_pinned():
    assert repr(parse_signature(_SIG_TEXT)) == (
        "Signature(lang=Const(token='java'), namespace=Const(token='lang'), "
        "class_name=Const(token='Math'), head=Const(token='max'), "
        "params=(Param(type_slot=Const(token='long'), name_slot=Const(token='a')), "
        "Param(type_slot=Const(token='long'), name_slot=Wildcard(label='b'))), "
        "params_wildcard=False, vararg=False, ret=Wildcard(label='r'))"
    )
    assert repr(compile_signature(parse_signature(_FORMULA_TEXT))) == (
        "Formula(lambdas=('x1',), existentials=('v', 'f_e', 'n', 'c', 'f'), "
        "atoms=(Atom(pred='fun', args=(Var(name='f_e'), Var(name='f'))), "
        "Atom(pred='eq', args=(Var(name='v'), App(fn=Var(name='f'), args=(Var(name='x1'),)))), "
        "Atom(pred='lang', args=(Var(name='f_e'), Const(token='java'))), "
        "Atom(pred='type', args=(Var(name='v'), Const(token='long'))), "
        "Atom(pred='class', args=(Var(name='c'), Const(token='Math'))), "
        "Atom(pred='in_class', args=(Var(name='f_e'), Var(name='c'))), "
        "Atom(pred='namespace', args=(Var(name='n'), Const(token='lang'))), "
        "Atom(pred='in_namespace', args=(Var(name='f_e'), Var(name='n'))), "
        "Atom(pred='var', args=(Var(name='x1'), Const(token='a'))), "
        "Atom(pred='type', args=(Var(name='x1'), Const(token='long'))), "
        "Atom(pred='has_param', args=(Var(name='f_e'), Var(name='x1'), Const(token='1')))), "
        "arity_unconstrained=False, min_arity=False)"
    )


def test_values_survive_pickle_and_deepcopy():
    values = [
        parse_signature(_SIG_TEXT),
        parse_signature("java lang Math::EquivIn(max,python)(?) -> r?"),
        compile_signature(parse_signature(_FORMULA_TEXT)),
    ]
    for value in values:
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value and repr(copied) == repr(value)
