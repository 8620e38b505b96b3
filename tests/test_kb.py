import copy
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siglogic.dsl import parse_signature, print_row, print_signature
from siglogic.kb import (
    Binding,
    KeyConflict,
    EquivStore,
    FactStore,
    LineError,
    SourceNotFound,
    answer,
    answer_equiv,
    brute_force_answer,
    dump_facts,
    dump_snapshot,
    ingest_signature,
    kb_digest,
    load_kb,
    load_links,
    load_snapshot,
    ns_skolem,
    reconstruct_signature,
)
from siglogic.logic import UnsupportedHead, expand_equiv
from siglogic.normalizer import lowercase_lang
from siglogic.model import (
    UNK,
    Const,
    EquivIn,
    FunctionKey,
    NotGround,
    Param,
    Signature,
    Wildcard,
    function_key,
    wildcard_labels,
)

from conftest import (
    ALL_FIXTURE_SIGS,
    JAVA_MAX,
    KEY_SHIFT_CLOJURE,
    KEY_SHIFT_HASKELL,
    KEY_SHIFT_JAVA,
    PHP_MAX,
    PY_MAX,
    SHIFT_HASKELL,
    SHIFT_JAVA,
    WILDCARD_QUERY,
)
from strategies import ground_signatures, labels, tokens


def _ingest(store, text):
    return ingest_signature(store, parse_signature(text))


def test_ingest_fact_count():
    store = FactStore()
    assert _ingest(store, JAVA_MAX) == 14  # 8 + 3*2


def test_reingest_is_idempotent():
    store = FactStore()
    _ingest(store, JAVA_MAX)
    assert _ingest(store, JAVA_MAX) == 0
    assert len(store) == 14


def test_ingest_requires_ground():
    store = FactStore()
    with pytest.raises(NotGround):
        ingest_signature(store, parse_signature(WILDCARD_QUERY))


def test_skolems_not_shared_across_languages():
    store = FactStore()
    _ingest(store, PY_MAX)
    before = set(dump_facts(store))
    _ingest(store, JAVA_MAX)
    after = set(dump_facts(store))
    assert before < after
    assert len(after) == 28  # no overlap at all


def test_namespace_skolem_shared_within_language():
    store = FactStore()
    _ingest(store, "java lang Math::max(long:a,long:b) -> long")
    n = _ingest(store, "java lang Math::min(long:a,long:b) -> long")
    # namespace(n,lang), class(c,Math) facts already present
    assert n == 12
    assert len(store.facts("namespace", ns_skolem("java", "lang"))) == 1


def test_reconstruct_round_trips():
    store = FactStore()
    for text in ALL_FIXTURE_SIGS:
        sig = parse_signature(text)
        ingest_signature(store, sig)
        from siglogic.model import function_key

        back = reconstruct_signature(store, function_key(sig))
        assert print_signature(back) == print_signature(sig)


@pytest.mark.parametrize(
    "first, second",
    [(PHP_MAX, PHP_MAX.replace(",...", "")), (PHP_MAX.replace(",...", ""), PHP_MAX)],
)
def test_vararg_only_difference_is_a_key_conflict(first, second):
    store = FactStore()
    _ingest(store, first)
    with pytest.raises(KeyConflict):
        _ingest(store, second)
    assert print_signature(
        reconstruct_signature(store, FunctionKey("php", "core", "builtin", "max", 2))
    ) == first


def test_wildcard_query_fixture(max_store):
    results = answer(max_store, parse_signature(WILDCARD_QUERY))
    assert results == {
        Binding(
            FunctionKey("java", "lang", "Math", "max", 2),
            (("N", "lang"), ("C", "Math"), ("f", "max"), ("p", "b")),
        )
    }
    assert results == brute_force_answer(max_store, parse_signature(WILDCARD_QUERY))


def test_query_on_empty_store():
    store = FactStore()
    assert answer(store, parse_signature(WILDCARD_QUERY)) == set()


def test_ground_self_match(max_store):
    results = answer(max_store, parse_signature(JAVA_MAX))
    assert len(results) == 1
    (binding,) = results
    assert binding.items == ()
    assert binding.key == FunctionKey("java", "lang", "Math", "max", 2)


def test_binding_constructor_sorts_and_make_takes_sorted_pairs():
    key = FunctionKey("java", "lang", "Math", "max", 2)
    pairs = (("C", "Math"), ("f", "max"), ("p", "b"))
    built = Binding(key, (("p", "b"), ("C", "Math"), ("f", "max")))
    assert built.items == pairs
    made = Binding._make((key, pairs))
    assert made == built == (key, pairs)
    assert hash(made) == hash(built) == hash((key, pairs))
    assert Binding(key).items == ()


def test_binding_reads_labels_fields_and_unpacks():
    key = FunctionKey("java", "lang", "Math", "max", 2)
    binding = Binding(key, (("p", "b"), ("f", "max")))
    assert binding["f"] == "max" and binding["p"] == "b"
    assert binding.mapping == {"f": "max", "p": "b"}
    got_key, items = binding
    assert got_key == key and items == (("f", "max"), ("p", "b"))
    assert binding[0] == binding.key == key and binding[1] == items
    with pytest.raises(KeyError):
        binding["q"]


def test_concrete_type_does_not_match_unk(max_store):
    # python max has UNK types; a long-typed query must not return it
    results = answer(
        max_store, parse_signature("python N? C?::f?(long:a,long:b) -> r?")
    )
    assert results == set()


def test_query_unk_matches_only_unk(max_store):
    results = answer(
        max_store, parse_signature("python decimal Context::max(UNK:a,UNK:b) -> UNK")
    )
    assert len(results) == 1
    results = answer(
        max_store, parse_signature("java lang Math::max(UNK:a,UNK:b) -> UNK")
    )
    assert results == set()


def test_wildcard_matches_unk(max_store):
    results = answer(
        max_store, parse_signature("python decimal Context::max(t?:a,t?:b) -> r?")
    )
    assert len(results) == 1
    (binding,) = results
    assert binding["t"] == "UNK"
    assert binding["r"] == "UNK"


def test_repeated_labels_must_agree(max_store):
    # java max: both param types long -> t? joins; both names differ -> no p? join
    assert len(
        answer(max_store, parse_signature("java lang Math::max(t?:a,t?:b) -> t?"))
    ) == 1
    assert (
        answer(max_store, parse_signature("java lang Math::max(long:p?,long:p?) -> long"))
        == set()
    )


def test_params_wildcard_ignores_arity(full_store):
    results = answer(full_store, parse_signature("java N? C?::f?(?) -> r?"))
    assert {b.key.name for b in results} == {"max", "shiftLeft"}


def test_exact_arity_required(full_store):
    results = answer(full_store, parse_signature("java N? C?::f?(t?:n?) -> r?"))
    assert {b.key.name for b in results} == {"shiftLeft"}


def test_vararg_query_is_minimum_arity(full_store):
    results = answer(full_store, parse_signature("java N? C?::f?(t?:p?,...) -> r?"))
    assert {b.key.name for b in results} == {"max", "shiftLeft"}


def _params_query(k, tail=""):
    """A query of k explicit wildcard parameters, then tail."""
    params = ",".join("t%d?:n%d?" % (j, j) for j in range(1, k + 1))
    return "java N? C?::f?(%s%s) -> r?" % (params, tail)


# The stored rows below have arities 0-4, without and (from 1) with `,...`:
# 1, 2, 2, 3 and 2 rows of arity 0 to 4.  Each query maps to its answers' count.
ARITY_ANSWERS = {
    # the constant in the third parameter is read before any label
    "java N? C?::f?(t?:a?,t?:b?,long:c,...) -> r?": 5,
    "java N? C?::f?(long:a,u?:b?) -> long": 2,
    "java N? C?::f?(?) -> long": 9,
    "java N? C?::f?(?) -> r?": 10,
    # k explicit parameters: rows of arity k, or with `,...` of k or more
    **{_params_query(k): n for k, n in enumerate([1, 2, 2, 3, 2, 0])},
    **{_params_query(k, ",..."): n for k, n in enumerate([9, 7, 5, 2, 0], 1)},
}


@pytest.mark.parametrize("query", ARITY_ANSWERS)
def test_arity_is_checked_before_any_parameter_slot(query):
    store = FactStore()
    for text in [
        "java lang Math::f0() -> long",
        "java lang Math::f1(long:a) -> long",
        "java lang Math::f2(long:a,int:b) -> long",
        "java lang Math::f3(long:a,long:b,long:c) -> long",
        "java lang Math::g3(long:a,long:b,long:c) -> int",
        "java lang Math::f4(long:a,long:b,long:c,long:d) -> long",
        "java lang Math::v1(long:a,...) -> long",
        "java lang Math::v2(long:a,int:b,...) -> long",
        "java lang Math::v3(long:a,long:b,long:c,...) -> long",
        "java lang Math::v4(long:a,long:b,long:c,long:d,...) -> long",
    ]:
        _ingest(store, text)
    results = answer(store, parse_signature(query))
    assert len(results) == ARITY_ANSWERS[query]
    assert results == brute_force_answer(store, parse_signature(query))


def test_answer_rejects_equiv_head(max_store):
    with pytest.raises(UnsupportedHead):
        answer(
            max_store,
            parse_signature("java lang Math::EquivIn(max,python)(?) -> r?"),
        )


def test_brute_force_answer_rejects_equiv_head(max_store):
    with pytest.raises(UnsupportedHead):
        brute_force_answer(
            max_store,
            parse_signature("java lang Math::EquivIn(max,python)(?) -> r?"),
        )


def test_equiv_store_reflexive_symmetric_transitive():
    eqs = EquivStore()
    a, b, c = KEY_SHIFT_JAVA, KEY_SHIFT_HASKELL, KEY_SHIFT_CLOJURE
    assert eqs.equivalent(a, a)
    eqs.add_eq(a, b)
    assert eqs.equivalent(b, a)
    eqs.add_eq(b, c)
    assert eqs.equivalent(a, c)
    assert eqs.class_of(a) == {a, b, c}


def test_class_of_equals_brute_scan_on_random_links():
    rng = random.Random(11)
    keys = [FunctionKey("java", "ns", "C", "f%d" % i, 0) for i in range(30)]
    for trial in range(30):
        eqs, links = EquivStore(), []
        for _ in range(rng.randint(0, 40)):
            links.append((rng.choice(keys), rng.choice(keys)))
            eqs.add_eq(*links[-1])
        for key in keys:
            # the class is everything reachable from key over the links
            reach, frontier = {key}, [key]
            while frontier:
                k = frontier.pop()
                for a, b in links:
                    for x, y in ((a, b), (b, a)):
                        if x == k and y not in reach:
                            reach.add(y)
                            frontier.append(y)
            assert eqs.class_of(key) == reach
            for other in keys:
                assert eqs.equivalent(key, other) == (other in reach)


def test_equiv_store_reads_store_nothing():
    eqs = EquivStore()
    eqs.add_eq(KEY_SHIFT_JAVA, KEY_SHIFT_HASKELL)
    before = copy.deepcopy(vars(eqs))
    unlinked = [FunctionKey("java", "ns", "C", "f%d" % i, 0) for i in range(20)]
    for key in unlinked:
        assert eqs.class_of(key) == {key}
        assert not eqs.equivalent(key, KEY_SHIFT_JAVA)
        assert not eqs.equivalent(KEY_SHIFT_JAVA, key)
        assert eqs.equivalent(key, key)
    for a, b in zip(unlinked, unlinked[1:]):
        assert not eqs.equivalent(a, b)
    assert vars(eqs) == before


def test_equiv_query_finds_target(full_store, shift_eqs):
    query = parse_signature(
        "java java.math BigInteger::EquivIn(shiftLeft,haskell)(?) -> s?"
    )
    results = answer_equiv(full_store, shift_eqs, query)
    assert len(results) == 1
    (binding,) = results
    assert binding.key == KEY_SHIFT_HASKELL
    assert binding["f'"] == "shiftL"
    assert binding["N"] == "Data.Bits"
    assert binding["C"] == "builtin"


def test_equiv_query_retargeted(full_store, shift_eqs):
    query = parse_signature(
        "java java.math BigInteger::EquivIn(shiftLeft,clojure)(?) -> s?"
    )
    results = answer_equiv(full_store, shift_eqs, query)
    assert {b["f'"] for b in results} == {"bit-shift-left"}


def test_equiv_target_lang_case_insensitive(full_store, shift_eqs):
    query = parse_signature(
        "java java.math BigInteger::EquivIn(shiftLeft,Haskell)(?) -> s?"
    )
    results = answer_equiv(full_store, shift_eqs, query)
    assert {b["f'"] for b in results} == {"shiftL"}


def test_equiv_source_not_found(full_store, shift_eqs):
    query = parse_signature(
        "java java.math BigInteger::EquivIn(nothing,haskell)(?) -> s?"
    )
    with pytest.raises(SourceNotFound):
        answer_equiv(full_store, shift_eqs, query)


def test_equiv_empty_class_is_empty_result(full_store):
    query = parse_signature(
        "java java.math BigInteger::EquivIn(shiftLeft,haskell)(?) -> s?"
    )
    assert answer_equiv(full_store, EquivStore(), query) == set()


def test_equiv_closure_reaches_indirect_links(full_store, shift_eqs):
    # java -> haskell -> clojure was linked through haskell only
    query = parse_signature(
        "haskell Data.Bits builtin::EquivIn(shiftL,clojure)(?) -> s?"
    )
    results = answer_equiv(full_store, shift_eqs, query)
    assert {b.key for b in results} == {KEY_SHIFT_CLOJURE}


def test_equiv_target_lang_matches_a_stored_tag_exactly():
    # the target language is lowercased, as the CLI stores every tag: a
    # member ingested through the library with an upper-case tag is missed
    store = FactStore()
    _ingest(store, SHIFT_JAVA)
    _ingest(store, SHIFT_HASKELL.replace("haskell", "Haskell", 1))
    eqs = EquivStore()
    eqs.add_eq(
        KEY_SHIFT_JAVA,
        FunctionKey("Haskell", "Data.Bits", "builtin", "shiftL", 2),
    )
    query = parse_signature(
        "java java.math BigInteger::EquivIn(shiftLeft,Haskell)(?) -> s?"
    )
    assert answer_equiv(store, eqs, query) == set()


def test_equiv_skips_a_linked_key_the_kb_does_not_hold():
    store = FactStore()
    _ingest(store, JAVA_MAX)
    _ingest(store, "php core builtin::max(mixed:a,mixed:b) -> mixed")
    java = FunctionKey("java", "lang", "Math", "max", 2)
    eqs = EquivStore()
    eqs.add_eq(java, FunctionKey("haskell", "Prelude", "builtin", "max", 2))
    eqs.add_eq(java, FunctionKey("php", "core", "builtin", "max", 2))
    query = "java lang Math::EquivIn(max,%s)(?) -> r?"
    assert answer_equiv(store, eqs, parse_signature(query % "haskell")) == set()
    assert len(answer_equiv(store, eqs, parse_signature(query % "php"))) == 1


def test_answer_equiv_requires_equiv_head(full_store, shift_eqs):
    with pytest.raises(UnsupportedHead):
        answer_equiv(full_store, shift_eqs, parse_signature(JAVA_MAX))


def test_dump_facts_deterministic_and_sorted():
    store = FactStore()
    _ingest(store, JAVA_MAX)
    lines = dump_facts(store)
    assert lines == sorted(lines)
    assert "fun(fn:java|lang|Math|max|2,max)" in lines
    assert len(lines) == 14
    _ingest(store, JAVA_MAX)
    assert dump_facts(store) == lines


def test_witnesses_distinguish_dotted_tokens():
    # joined with `.`, both keys spelled fn:java.java.util.Map.Entry.getKey.0
    store = FactStore()
    assert _ingest(store, "java java.util Map.Entry::getKey() -> K") == 8
    assert _ingest(store, "java java.util.Map Entry::getKey() -> V") == 8
    assert len(store) == len(dump_facts(store)) == 16
    query = parse_signature("java N? C?::getKey() -> r?")
    assert len(answer(store, query)) == 2
    assert answer(store, query) == brute_force_answer(store, query)


def test_fact_count_closed_form_matches_derived_facts():
    # dotted tokens, shared namespaces and classes, overloads, re-ingests
    rng = random.Random(5)
    dotted = ["a", "a.a", "a.a.a", "b"]
    for trial in range(40):
        store, total, stored = FactStore(), 0, []
        for _ in range(rng.randint(0, 30)):
            if stored and rng.random() < 0.2:
                sig = rng.choice(stored)
            else:
                sig = Signature(
                    lang=Const(rng.choice(["java", "php"])),
                    namespace=Const(rng.choice(dotted)),
                    class_name=Const(rng.choice(dotted)),
                    head=Const(rng.choice(dotted)),
                    params=tuple(
                        Param(_tok(rng, TYPES), Const(rng.choice(dotted)))
                        for _ in range(rng.randint(0, 3))
                    ),
                    ret=_tok(rng, TYPES),
                )
            try:
                total += ingest_signature(store, sig)
            except KeyConflict:
                continue
            stored.append(sig)
        assert len(store) == total == len(dump_facts(store))


def test_dump_facts_agrees_with_the_oracle_under_heavy_sharing():
    # few namespaces and classes for many functions, overloads of one name
    # at several arities, and re-ingests of stored signatures
    from siglogic.kb import _derived_facts
    from siglogic.logic import print_atom

    rng = random.Random(17)
    for trial in range(30):
        store, stored = FactStore(), []
        for _ in range(rng.randint(0, 80)):
            if stored and rng.random() < 0.25:
                sig = rng.choice(stored)
            else:
                sig = Signature(
                    lang=_tok(rng, ["java", "php"]),
                    namespace=_tok(rng, ["a", "a.b"]),
                    class_name=_tok(rng, ["C", "UNK"]),
                    head=Const(rng.choice(["f", "g"])),
                    params=tuple(
                        Param(_tok(rng, TYPES), _tok(rng, PARAM_NAMES))
                        for _ in range(rng.randint(0, 4))
                    ),
                    ret=_tok(rng, TYPES),
                )
            try:
                ingest_signature(store, sig)
            except KeyConflict:
                continue
            stored.append(sig)
        lines = dump_facts(store)
        assert lines == sorted({print_atom(a) for a in _derived_facts(store)})
        assert len(set(lines)) == len(lines) == len(store)


@st.composite
def _sharing_signatures(draw):
    """Ground signatures of arity 0-12 over a few tokens of the whole
    charset, UNK among them, so namespaces, classes and names repeat,
    names overload at several arities, and keys re-ingest or conflict."""
    pool = draw(st.lists(tokens, min_size=1, max_size=3, unique=True))
    slot = st.sampled_from(pool + ["UNK"]).map(Const)
    sigs = []
    for _ in range(draw(st.integers(0, 12))):
        arity = draw(st.one_of(st.integers(0, 12), st.sampled_from([1, 10])))
        sigs.append(Signature(
            lang=draw(st.sampled_from(["java", "php"]).map(Const)),
            namespace=draw(slot),
            class_name=draw(slot),
            head=draw(st.sampled_from(pool).map(Const)),
            params=tuple(Param(draw(slot), draw(slot)) for _ in range(arity)),
            vararg=arity > 0 and draw(st.booleans()),
            ret=draw(slot),
        ))
    return sigs


def _overloads(*arities, vararg=False):
    return [
        Signature(
            lang=Const("php"), namespace=Const("a.b"), class_name=UNK,
            head=Const("$f'-x"),
            params=tuple(Param(Const("it's"), Const("$v-%d" % i)) for i in range(n)),
            vararg=vararg and n > 0, ret=Const("x.y$"),
        )
        for n in arities
    ]


@settings(max_examples=150, deadline=None)
@given(_sharing_signatures())
@example(_overloads(1, 10, 11, 12, 0))  # `…|1` is a prefix of `…|10`
@example(_overloads(12, 2, 10, 1, vararg=True))
def test_dump_facts_agrees_with_the_oracle_over_the_charset(sigs):
    from siglogic.kb import _derived_facts
    from siglogic.logic import print_atom

    store = FactStore()
    for sig in sigs:
        try:
            ingest_signature(store, sig)
        except KeyConflict:
            pass
    lines = dump_facts(store)
    assert lines == sorted({print_atom(a) for a in _derived_facts(store)})
    assert len(lines) == len(store)
    assert [print_row(row) for row in store._rows.values()] == [
        print_signature(reconstruct_signature(store, key)) for key in store.keys
    ]


def test_dump_empty_store():
    assert dump_facts(FactStore()) == []


def test_ingest_order_independent():
    sigs = [parse_signature(t) for t in ALL_FIXTURE_SIGS]
    a, b = FactStore(), FactStore()
    for s in sigs:
        ingest_signature(a, s)
    for s in reversed(sigs):
        ingest_signature(b, s)
    assert dump_facts(a) == dump_facts(b)


# --- randomized oracle agreement -------------------------------------------

LANGS = ["java", "python", "php"]
NAMESPACES = ["lang", "core", "decimal"]
CLASSES = ["Math", "builtin", "Context"]
NAMES = ["max", "min", "abs", "now"]
TYPES = ["long", "int", "UNK", "mixed"]
PARAM_NAMES = ["a", "b", "n", "x"]


def random_ground_signature(rng):
    arity = rng.randint(0, 3)
    params = tuple(
        Param(_tok(rng, TYPES), _tok(rng, PARAM_NAMES))
        for _ in range(arity)
    )
    return Signature(
        lang=_tok(rng, LANGS),
        namespace=_tok(rng, NAMESPACES),
        class_name=_tok(rng, CLASSES),
        head=Const(rng.choice(NAMES)),
        params=params,
        vararg=bool(params) and rng.random() < 0.15,
        ret=_tok(rng, TYPES),
    )


def _tok(rng, pool):
    tok = rng.choice(pool)
    return UNK if tok == "UNK" else Const(tok)


def random_query(rng, stored):
    """Mutate a stored signature (usually) into a query with wildcards."""
    base = rng.choice(stored) if stored and rng.random() < 0.8 else (
        random_ground_signature(rng)
    )
    labels = iter("qrstuvwxyz")

    def mutate(slot):
        roll = rng.random()
        if roll < 0.4:
            # repeated labels exercise join consistency
            return Wildcard(rng.choice(["w1", "w2", next(labels)]))
        if roll < 0.5:
            return UNK
        if roll < 0.6:
            return _tok(rng, TYPES + PARAM_NAMES)
        return slot

    params_wildcard = rng.random() < 0.15
    params = ()
    vararg = False
    if not params_wildcard:
        params = tuple(
            Param(mutate(p.type_slot), mutate(p.name_slot))
            for p in base.params
        )
        if rng.random() < 0.2 and len(params) > 1:
            params = params[:-1]
            vararg = True
        elif params and rng.random() < 0.1:
            vararg = True
    head_slot = mutate(base.head)
    return Signature(
        lang=mutate(base.lang),
        namespace=mutate(base.namespace),
        class_name=mutate(base.class_name),
        head=head_slot,
        params=params,
        params_wildcard=params_wildcard,
        vararg=vararg,
        ret=mutate(base.ret),
    )


def test_answer_agrees_with_brute_force_randomized():
    rng = random.Random(20240824)
    for trial in range(60):
        store = FactStore()
        stored = []
        for _ in range(rng.randint(0, 40)):
            sig = random_ground_signature(rng)
            try:
                ingest_signature(store, sig)
            except KeyConflict:
                continue
            stored.append(sig)
        for _ in range(5):
            query = random_query(rng, stored)
            fast = answer(store, query)
            slow = brute_force_answer(store, query)
            assert fast == slow, print_signature(query)


@st.composite
def stored_and_query(draw):
    """A few ground signatures, ingested, and a query made from one of them.

    Each slot is kept, made UNK, or replaced by a label from a pool of
    three, which may be spelled like one of the signature's tokens; the
    list is sometimes `(?)`, or loses its last parameter and turns vararg.
    """
    store, stored = FactStore(), []
    for sig in draw(st.lists(ground_signatures, min_size=1, max_size=3)):
        try:
            ingest_signature(store, sig)
        except KeyConflict:
            continue
        stored.append(sig)
    base = draw(st.sampled_from(stored))
    tokens = [s.token for s in (base.lang, base.head, base.ret)]
    pool = draw(st.lists(labels | st.sampled_from(tokens), min_size=3, max_size=3))

    def mutate(slot):
        roll = draw(st.integers(0, 2))
        return slot if roll == 0 else UNK if roll == 1 else Wildcard(
            draw(st.sampled_from(pool))
        )

    params = tuple(
        Param(mutate(p.type_slot), mutate(p.name_slot))
        for p in base.params
    )
    shape = draw(st.integers(0, 2))
    params_wildcard = shape == 1
    vararg = base.vararg
    if params_wildcard:
        params, vararg = (), False
    elif shape == 2 and len(params) > 1:
        params, vararg = params[:-1], True
    query = Signature(
        lang=mutate(base.lang),
        namespace=mutate(base.namespace),
        class_name=mutate(base.class_name),
        head=mutate(base.head),
        params=params,
        params_wildcard=params_wildcard,
        vararg=vararg,
        ret=mutate(base.ret),
    )
    return store, query


@settings(max_examples=100, deadline=None)
@given(stored_and_query())
def test_answer_agrees_with_brute_force_on_drawn_spellings(store_and_query):
    store, query = store_and_query
    assert answer(store, query) == brute_force_answer(store, query)


def test_monotonicity_under_unrelated_additions():
    rng = random.Random(7)
    store = FactStore()
    stored = []
    for _ in range(20):
        sig = random_ground_signature(rng)
        try:
            ingest_signature(store, sig)
        except KeyConflict:
            continue
        stored.append(sig)
    queries = [random_query(rng, stored) for _ in range(10)]
    before = [answer(store, q) for q in queries]
    for _ in range(20):
        try:
            ingest_signature(store, random_ground_signature(rng))
        except KeyConflict:
            pass
    for q, prev in zip(queries, before):
        assert prev <= answer(store, q)


# the labels of an EquivIn query's target pattern, and a primed one
TARGET_LABELS = ["N", "C", "f'", "r", "N'"]


def random_equiv_query(rng, stored):
    """A mutated stored signature under an EquivIn head.

    Its language stays concrete, as an EquivIn head requires; some slots
    take a target pattern's labels, and the target language is a random
    one, often the source's own, in random case.
    """
    plain = random_query(rng, stored)

    def concrete(slot):
        return isinstance(slot, Const) and slot != UNK

    lang = plain.lang if concrete(plain.lang) else _tok(rng, LANGS)
    name = plain.head
    base_name = name.token if concrete(name) else rng.choice(NAMES)
    target_lang = "".join(
        c.upper() if rng.random() < 0.3 else c
        for c in rng.choice(LANGS + [lang.token] * 2)
    )

    def relabel(slot):
        if rng.random() < 0.3:
            return Wildcard(rng.choice(TARGET_LABELS))
        return slot

    return Signature(
        lang=lang,
        namespace=relabel(plain.namespace),
        class_name=relabel(plain.class_name),
        head=EquivIn(base_name, target_lang),
        params=tuple(
            Param(p.type_slot, relabel(p.name_slot))
            for p in plain.params
        ),
        params_wildcard=plain.params_wildcard,
        vararg=plain.vararg,
        ret=relabel(plain.ret),
    )


def brute_force_answer_equiv(store, eqs, query):
    """Oracle for answer_equiv(): the oracle's answers to the two plain
    queries, joined through EquivStore.equivalent."""
    base, target = expand_equiv(query)
    sources = brute_force_answer(store, base)
    if not sources:
        raise SourceNotFound(query.head.base_name)
    return {
        Binding(t.key, s.items + t.items)
        for s in sources
        for t in brute_force_answer(store, target)
        if eqs.equivalent(s.key, t.key)
    }


def test_answer_equiv_agrees_with_brute_force_randomized():
    rng = random.Random(20261018)
    store, stored = FactStore(), []
    while len(stored) < 150:
        sig = random_ground_signature(rng)
        try:
            ingest_signature(store, sig)
        except KeyConflict:
            continue
        stored.append(sig)
    keys = list(store.keys)
    eqs = EquivStore()
    for _ in range(120):
        eqs.add_eq(rng.choice(keys), rng.choice(keys))
    # links may name functions the KB does not hold
    eqs.add_eq(rng.choice(keys), FunctionKey("java", "lang", "Gone", "max", 1))

    seen = set()
    for _ in range(80):
        query = random_equiv_query(rng, stored)
        try:
            expected = brute_force_answer_equiv(store, eqs, query)
        except SourceNotFound:
            with pytest.raises(SourceNotFound):
                answer_equiv(store, eqs, query)
            seen.add("no source")
            continue
        assert answer_equiv(store, eqs, query) == expected, print_signature(query)
        if expected:
            target_lang = query.head.target_lang
            seen.add("answered")
            if set(wildcard_labels(query)) & set(TARGET_LABELS):
                seen.add("colliding labels")
            if target_lang != target_lang.lower():
                seen.add("mixed-case target")
            if target_lang.lower() == query.lang.token:
                seen.add("same-language target")
    assert seen == {
        "no source", "answered", "colliding labels", "mixed-case target",
        "same-language target",
    }


def _matcher_edge_queries(sig):
    """Queries over a stored signature, one per edge case of the matcher."""
    w = Wildcard
    yield "ground", sig
    yield "one label", sig._replace(ret=w("r"))
    yield "no constant", sig._replace(
        lang=w("l"), namespace=w("N"), class_name=w("C"), head=w("f"),
        params=tuple(Param(w("t%d" % j), w("p%d" % j)) for j in range(len(sig.params))),
        ret=w("r"),
    )
    # t in the ret slot and in every parameter's type
    yield "repeated label", sig._replace(
        head=w("f"), params=tuple(Param(w("t"), p.name_slot) for p in sig.params),
        ret=w("t"),
    )
    yield "unsorted labels", sig._replace(lang=w("z"), class_name=w("m"), ret=w("a"))
    if sig.params:
        yield "vararg", sig._replace(head=w("f"), params=sig.params[:1], vararg=True)
    yield "(?)", sig._replace(params=(), params_wildcard=True, vararg=False, head=w("f"))


def test_answer_agrees_with_brute_force_on_matcher_edge_cases():
    rng = random.Random(20261019)
    store, stored = FactStore(), []
    while len(stored) < 120:
        sig = random_ground_signature(rng)
        try:
            ingest_signature(store, sig)
        except KeyConflict:
            continue
        stored.append(sig)
    seen = set()
    for sig in rng.sample(stored, 25):
        for kind, query in _matcher_edge_queries(sig):
            results = answer(store, query)
            assert results == brute_force_answer(store, query), print_signature(query)
            assert all(list(b.items) == sorted(b.items) for b in results)
            if not results:  # only a repeated label can miss sig itself
                assert kind == "repeated label", print_signature(query)
                continue
            seen.add(kind)
            if kind == "ground" and UNK in (sig.ret, *(p.type_slot for p in sig.params)):
                seen.add("ground with UNK")
            if kind == "vararg" and max(b.key.arity for b in results) > 1:
                seen.add("vararg over longer rows")
    assert seen == {
        "ground", "ground with UNK", "one label", "no constant", "repeated label",
        "unsorted labels", "vararg", "vararg over longer rows", "(?)",
    }


def test_answer_equiv_sorts_the_base_and_primed_target_labels(full_store, shift_eqs):
    query = parse_signature(
        "java java.math N?::EquivIn(shiftLeft,haskell)(int:f'?) -> r?"
    )
    results = answer_equiv(full_store, shift_eqs, query)
    assert results == brute_force_answer_equiv(full_store, shift_eqs, query)
    (binding,) = results
    assert binding.key == KEY_SHIFT_HASKELL
    assert binding.items == (
        ("C", "builtin"), ("N", "BigInteger"), ("N'", "Data.Bits"), ("f'", "n"),
        ("f''", "shiftL"), ("r", "BigInteger"), ("r'", "UNK"),
    )


def test_binding_soundness(max_store):
    query = parse_signature(WILDCARD_QUERY)
    for binding in answer(max_store, query):
        mapping = binding.mapping

        def subst(slot):
            if isinstance(slot, Wildcard):
                tok = mapping[slot.label]
                return UNK if tok == "UNK" else Const(tok)
            return slot

        grounded = Signature(
            lang=subst(query.lang),
            namespace=subst(query.namespace),
            class_name=subst(query.class_name),
            head=subst(query.head),
            params=tuple(
                Param(subst(p.type_slot), subst(p.name_slot))
                for p in query.params
            ),
            ret=subst(query.ret),
        )
        keys = {b.key for b in answer(max_store, grounded)}
        assert binding.key in keys


def test_ingested_facts_equal_skolemized_compile_atoms():
    # the compiled formula with its binders replaced by witnesses is the
    # reference for the KB's facts: arity 0-4, UNK, `,...`, dotted tokens,
    # namespaces and classes shared across functions
    from siglogic.kb import (
        _skolemize, cls_skolem, fn_skolem, param_skolem, ret_skolem,
    )
    from siglogic.logic import (
        compile_signature, print_atom, signature_row, subst_atoms,
    )
    from siglogic.model import function_key

    rng = random.Random(11)
    dotted = ["lang", "java.util", "java.util.Map", "Map.Entry", "Entry"]
    sigs = {}
    for sig in [parse_signature(JAVA_MAX)] + [
        Signature(
            lang=Const(rng.choice(["java", "php"])),
            namespace=Const(rng.choice(dotted)),
            class_name=Const(rng.choice(dotted)),
            head=Const(rng.choice(NAMES + dotted)),
            params=tuple(
                Param(_tok(rng, TYPES), _tok(rng, PARAM_NAMES + ["UNK"]))
                for _ in range(arity)
            ),
            vararg=arity > 0 and rng.random() < 0.3,
            ret=_tok(rng, TYPES),
        )
        for arity in [rng.randint(0, 4) for _ in range(60)]
    ]:
        sigs.setdefault(function_key(sig), sig)
    assert {len(sig.params) for sig in sigs.values()} == {0, 1, 2, 3, 4}
    assert any(sig.vararg for sig in sigs.values())

    store, expected = FactStore(), set()
    for key, sig in sigs.items():
        formula = compile_signature(sig)
        v, f, n, c = formula.existentials[:4]
        witness = {
            v: ret_skolem(key),
            f: fn_skolem(key),
            n: ns_skolem(key.lang, key.namespace),
            c: cls_skolem(key.lang, key.namespace, key.class_name),
        }
        for j, x in enumerate(formula.lambdas, start=1):
            witness[x] = param_skolem(key, j)
        atoms = subst_atoms(formula.atoms, witness)
        assert _skolemize(key, signature_row(sig)) == atoms
        expected |= set(atoms)
        ingest_signature(store, sig)
    assert set().union(*(
        store.facts(pred) for pred in (
            "fun", "eq", "lang", "type", "var", "has_param",
            "namespace", "in_namespace", "class", "in_class",
        )
    )) == expected
    assert dump_facts(store) == sorted({print_atom(a) for a in expected})


def test_oracle_reports_a_renamed_label_by_its_spelling(max_store):
    # the label a? is spelled like the constant a, so compile renames its
    # variable; bindings still carry the label
    query = parse_signature("java N? C?::f?(long:a,long:a?) -> long")
    results = brute_force_answer(max_store, query)
    assert results == answer(max_store, query)
    assert {b["a"] for b in results} == {"b"}


# --- the posting lists answer reads ----------------------------------------

def _conflicting(sig):
    """sig with a different body under the same key."""
    ret = Const("mixed") if sig.ret != Const("mixed") else Const("long")
    return Signature(sig.lang, sig.namespace, sig.class_name, sig.head,
                     sig.params, vararg=sig.vararg, ret=ret)


def _index_queries(rng, stored):
    """Queries with a constant in each head slot, with none, with a token
    no row holds, and mutated stored signatures."""
    labelled = Signature(Wildcard("l"), Wildcard("N"), Wildcard("C"),
                         Wildcard("f"), params_wildcard=True, ret=Wildcard("r"))
    fields = ("lang", "namespace", "class_name", "head", "ret")
    queries = [labelled, labelled._replace(head=Const("nope"))]
    if stored:
        sig = rng.choice(stored)
        queries += [labelled._replace(**{f: getattr(sig, f)}) for f in fields]
        queries.append(labelled._replace(ret=UNK))
    return queries + [random_query(rng, stored) for _ in range(4)]


def test_answer_agrees_with_brute_force_across_ingests():
    rng = random.Random(20261019)
    store, stored, eqs = FactStore(), [], EquivStore()
    steps = set()
    for _ in range(60):
        roll = rng.random()
        if stored and roll < 0.2:
            assert ingest_signature(store, rng.choice(stored)) == 0
            steps.add("re-ingest")
        elif stored and roll < 0.4:
            with pytest.raises(KeyConflict):
                ingest_signature(store, _conflicting(rng.choice(stored)))
            steps.add("conflict")
        else:
            sig = random_ground_signature(rng)
            try:
                ingest_signature(store, sig)
            except KeyConflict:
                continue
            stored.append(sig)
            if len(stored) > 1:
                a, b = rng.sample(sorted(store.keys), 2)
                eqs.add_eq(a, b)
            steps.add("new")
        for query in _index_queries(rng, stored):
            assert answer(store, query) == brute_force_answer(store, query), (
                print_signature(query))
        query = random_equiv_query(rng, stored)
        try:
            expected = brute_force_answer_equiv(store, eqs, query)
        except SourceNotFound:
            with pytest.raises(SourceNotFound):
                answer_equiv(store, eqs, query)
            continue
        assert answer_equiv(store, eqs, query) == expected, print_signature(query)
    assert steps == {"new", "re-ingest", "conflict"}
    assert set(store._index) == {3, 4, len}


def _seeded_store(n, seed=3):
    """n functions over 300 names, 3 languages and 4 return types."""
    rng, store = random.Random(seed), FactStore()
    while len(store.keys) < n:
        arity = rng.randint(0, 3)
        sig = Signature(
            Const(rng.choice(LANGS)), Const(rng.choice(NAMESPACES)),
            Const(rng.choice(CLASSES)), Const("f%d" % rng.randrange(300)),
            tuple(Param(_tok(rng, TYPES), Const("p%d" % j)) for j in range(arity)),
            ret=_tok(rng, TYPES),
        )
        try:
            ingest_signature(store, sig)
        except KeyConflict:
            pass
    return store


@pytest.fixture
def counted(monkeypatch):
    """The number of rows answer's matchers have examined so far."""
    from siglogic import kb

    seen = [0]
    matcher = kb._matcher

    def counting_matcher(query):
        match = matcher(query)

        def counted_match(row):
            seen[0] += 1
            return match(row)

        return counted_match

    monkeypatch.setattr(kb, "_matcher", counting_matcher)
    return lambda: seen[0]


def _rows_with(store, at, token):
    return sum(row[at] == token for row in store._rows.values())


def test_a_query_examines_only_its_constant_name_or_else_ret_rows(counted):
    store = _seeded_store(1000)
    name = store._rows[min(store.keys)][3]
    point = parse_signature("l? N? C?::%s(?) -> r?" % name)
    assert answer(store, point)
    assert counted() == _rows_with(store, 3, name) < 20
    scan = parse_signature("l? N? C?::f?(?) -> int")
    returns_int = len(answer(store, scan))
    assert counted() - _rows_with(store, 3, name) == returns_int < 400
    before = counted()
    assert answer(store, parse_signature("java N? C?::nope(?) -> r?")) == set()
    assert counted() == before


def _rows_of_length(store, length):
    return sum(len(row) == length for row in store._rows.values())


def test_an_exact_arity_join_examines_only_the_rows_of_its_length(counted):
    from siglogic import kb

    store = _seeded_store(1000)
    for text, length in (("l? N? C?::f?(t?:p0) -> t?", 8), ("l? N? C?::f?() -> r?", 6)):
        query = parse_signature(text)
        before = counted()
        results = answer(store, query)
        assert counted() - before == _rows_of_length(store, length) < 400
        match = kb._matcher(query)
        assert results == {
            Binding(key, pairs) for key, row in store._rows.items()
            if (pairs := match(row)) is not None
        }
    assert set(store._index) == {len}


def test_the_rows_an_exact_arity_join_examines_grow_with_the_store(counted):
    query = parse_signature("l? N? C?::f?(t?:p0,t?:p1) -> t?")
    examined = []
    for n in (1000, 10000):
        before = counted()
        answer(_seeded_store(n), query)
        examined.append(counted() - before)
    assert 150 < examined[0] < 400
    assert 8 < examined[1] / examined[0] < 12


def test_a_query_without_a_constant_name_or_ret_examines_every_row(counted):
    # lang, namespace and class have few tokens: they are not indexed, and
    # neither a `(?)` nor a `,...` list fixes one row length
    store = _seeded_store(1000)
    results = answer(store, parse_signature("java N? C?::f?(?) -> r?"))
    assert counted() == 1000 and 0 < len(results) < 1000
    answer(store, parse_signature("l? N? %s::f?(?) -> r?" % CLASSES[0]))
    assert counted() == 2000
    results = answer(store, parse_signature("l? N? C?::f?(t?:p0,...) -> t?"))
    assert counted() == 3000 and 0 < len(results) < 1000
    assert store._index == {}


def test_the_index_is_built_once_and_dropped_by_a_new_row(counted):
    store = _seeded_store(1000)
    query = parse_signature("java lang Math::f7(?) -> r?")
    first = answer(store, query)
    postings = store._index[3]
    seen = counted()
    assert answer(store, parse_signature("l? N? C?::f8(?) -> r?"))
    assert store._index[3] is postings and set(store._index) == {3}
    join = parse_signature("l? N? C?::f?(t?:p0) -> t?")
    assert answer(store, join)
    lengths = store._index[len]
    assert answer(store, join)
    assert store._index[len] is lengths and set(store._index) == {3, len}
    # an identical re-ingest or a conflict stores nothing, so keeps the index
    sig = reconstruct_signature(store, min(store.keys))
    assert ingest_signature(store, sig) == 0
    with pytest.raises(KeyConflict):
        ingest_signature(store, _conflicting(sig))
    assert store._index[3] is postings and store._index[len] is lengths
    new = parse_signature("java lang Math::f7(int:p0,int:p1,int:p2,int:p3) -> int")
    ingest_signature(store, new)
    assert store._index == {}
    before = counted()
    assert answer(store, query) == first | {Binding(function_key(new), (("r", "int"),))}
    assert counted() - before == seen + 1


def test_the_readme_library_example_answers_as_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    setup, rest = block.split("sl.answer(store, query)\n", 1)
    documented = " ".join(
        line.lstrip("# ").strip() for line in rest.splitlines() if line.startswith("#")
    )
    scope = {}
    exec(setup, scope)
    assert repr(eval("sl.answer(store, query)", scope)) == documented


def test_load_kb_of_no_text_is_an_empty_store():
    store = load_kb("")
    assert (len(store), list(store.keys), dump_facts(store)) == (0, [], [])


_MAX = "java lang Math::max(long:a,long:b) -> long"


@pytest.mark.parametrize("path", [None, "lib/kb.txt"])
@pytest.mark.parametrize("bad, message", [
    ("java lang Math::f?(long:a) -> long",
     "normalized input contains wildcards: 'java lang Math::f?(long:a) -> long'"),
    ("JAVA lang Math::max(long:a,long:b) -> int",
     "differing signature already stored for java|lang|Math|max|2"),
])
def test_load_kb_raises_a_line_error_at_the_first_bad_line(path, bad, message):
    text = "%s\n\n%s\nnot a signature\n" % (_MAX, bad)  # line 4 is bad too
    with pytest.raises(LineError) as raised:
        load_kb(text) if path is None else load_kb(text, path)
    assert str(raised.value) == "%s:3: %s" % (path or "<kb>", message)
    e = raised.value  # a library caller reads its fields, not its text
    assert (e.path, e.lineno, e.message) == (path or "<kb>", 3, message)


def test_a_line_error_survives_pickling():
    e = pickle.loads(pickle.dumps(LineError("lib/kb.txt", 7, "bad line")))
    assert type(e) is LineError
    assert (str(e), e.path, e.lineno, e.message) == (
        "lib/kb.txt:7: bad line", "lib/kb.txt", 7, "bad line")


@pytest.mark.parametrize("path", [None, "lib/links.txt"])
def test_load_links_raises_a_line_error_at_the_first_bad_line(path):
    text = (
        "java|lang|Math|max|2\tpython|builtins|builtin|max|2\r\n\r\n"
        "java|lang|Math|min|+1\tpython|builtins|builtin|min|1\r\n"
        "java|lang|Math\tpython|builtins|builtin|min|1\r\n"  # line 4 is bad too
    )
    with pytest.raises(LineError) as raised:
        load_links(text) if path is None else load_links(text, path)
    assert str(raised.value) == "%s:3: invalid arity '+1'" % (path or "<links>")
    e = raised.value
    assert (e.path, e.lineno, e.message) == (path or "<links>", 3, "invalid arity '+1'")
    eqs = load_links(text.split("\r\n\r\n")[0].replace("java", "JAVA"))
    assert eqs.class_of(FunctionKey("java", "lang", "Math", "max", 2)) == {
        FunctionKey("java", "lang", "Math", "max", 2),
        FunctionKey("python", "builtins", "builtin", "max", 2),
    }


def test_a_stores_rows_are_a_live_read_only_view_in_storing_order():
    store = load_kb(_MAX + "\n")
    rows = store.rows
    sig = parse_signature("java lang Math::abs(int:a,...) -> int")
    ingest_signature(store, sig)
    assert list(rows) == list(store.keys) == [
        FunctionKey("java", "lang", "Math", "max", 2), function_key(sig)]
    assert [print_row(row) for row in rows.values()] == [_MAX, print_signature(sig)]
    with pytest.raises(TypeError):
        rows[function_key(sig)] = ()


@st.composite
def _kb_texts(draw):
    """KB texts of drawn ground signatures, a key's body once, some lines
    repeated, each line ended by any of the breaks a KB reader accepts."""
    sigs = draw(st.lists(
        ground_signatures.map(lowercase_lang), max_size=12, unique_by=function_key))
    lines = [print_signature(sig) for sig in sigs]
    lines += draw(st.lists(st.sampled_from(lines), max_size=3)) if lines else []
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\n\n"])
    return "".join(line + draw(breaks) for line in lines)


def _strings(store):
    return [t for item in store.rows.items() for part in item for t in part
            if isinstance(t, str)]


@settings(max_examples=150, deadline=None)
@given(_kb_texts())
@example("")
def test_a_row_snapshot_loads_the_store_its_text_loads(text):
    digest = kb_digest(text.encode())
    loaded = load_kb(text)
    store = load_snapshot(b"".join(dump_snapshot(loaded, digest)), digest)
    assert list(store.rows.items()) == list(loaded.rows.items())
    assert {type(key) for key in store.keys} <= {FunctionKey}
    assert (len(store), store._shared, store._index) == (len(loaded), loaded._shared, {})
    # one string per distinct token, as in a text load
    strings = _strings(store)
    assert len({id(t) for t in strings}) == len(set(strings))
    assert dump_facts(store) == dump_facts(loaded)


def test_a_row_snapshot_holds_its_header_and_rows_as_pinned_here():
    # Whatever a snapshot holds is read back as is: a change to it, the
    # row layout included, must change the format tag (2) as well as this
    # test, so that no snapshot written before is read as one of the new.
    import hashlib
    import marshal
    import sys

    from siglogic import __version__, kb

    text = _MAX + "\njava lang Math::abs(int:a,...) -> int\n"
    digest = kb_digest(text.encode())
    assert digest == hashlib.blake2b(text.encode()).digest()[:16]
    head, blob = dump_snapshot(load_kb(text), digest)
    assert head == kb.SNAPSHOT_MAGIC + hashlib.blake2b(digest + blob).digest()[:16]
    assert marshal.loads(blob) == (
        ("siglogic rows", 2, __version__, sys.version_info[:2], marshal.version),
        (
            ("java", "lang", "Math", "max", "long", "long", "a", "long", "b", False),
            ("java", "lang", "Math", "abs", "int", "int", "a", True),
        ),
    )
    store = load_snapshot(head + blob, digest)
    assert list(store.keys) == [
        FunctionKey("java", "lang", "Math", "max", 2),
        FunctionKey("java", "lang", "Math", "abs", 1),
    ]
    # 6 + 3*2 and 6 + 3*1 of their own, one namespace and one class atom
    assert (len(store), store._shared) == (
        23, {("java", "lang"), ("java", "lang", "Math")}
    )


def test_a_row_snapshot_of_other_bytes_or_damaged_loads_nothing(monkeypatch):
    from siglogic import kb

    text = "\n".join(ALL_FIXTURE_SIGS) + "\n"
    data = text.encode()
    digest = kb_digest(data)
    snapshot = b"".join(dump_snapshot(load_kb(text), digest))
    assert load_snapshot(snapshot, digest) is not None
    flipped = bytearray(snapshot)
    flipped[-40] ^= 1  # marshal may crash on bytes it did not write
    not_marshal = b"\xff" * 40
    others = []  # another Python's, another siglogic's, another format's
    tag, version, python, marshal_version = kb._SNAPSHOT_HEADER[1:]
    for header in [
        ("siglogic rows", tag, version, (2, 7), marshal_version),
        ("siglogic rows", tag, version, python, 2),
        ("siglogic rows", tag, "0.0.1", python, marshal_version),
        ("siglogic rows", 1, version, python, marshal_version),
    ]:
        monkeypatch.setattr(kb, "_SNAPSHOT_HEADER", header)
        others.append(b"".join(dump_snapshot(load_kb(text), digest)))
    monkeypatch.undo()
    for bad, kb_data in [
        (snapshot, data + b"java lang Math::abs(int:a) -> int\n"),  # a stale one
        (snapshot, data.replace(b"\n", b"\r\n")),  # the same rows, other bytes
        (snapshot[:-1], data),
        (snapshot[:len(kb.SNAPSHOT_MAGIC) + 3], data),
        (b"", data),
        (b"\0garbage" * 50, data),
        (bytes(flipped), data),
        (kb.SNAPSHOT_MAGIC + kb._snapshot_digest(digest, not_marshal) + not_marshal, data),
        *((other, data) for other in others),
    ]:
        assert load_snapshot(bad, kb_digest(kb_data)) is None


def test_a_kb_without_the_builtin_blake2_module_still_loads_its_snapshot():
    # where Python lacks `_blake2` (and so hashlib's blake2b), a digest
    # is cut from sha256: siglogic imports and its snapshots still work
    import subprocess
    import sys

    code = (
        "import hashlib, sys; sys.modules['_blake2'] = None\n"
        "from siglogic import kb\n"
        "data = b'java lang Math::abs(int:a) -> int\\n'\n"
        "digest = kb.kb_digest(data)\n"
        "assert digest == hashlib.sha256(data).digest()[:16]\n"
        "store = kb.load_kb(data.decode())\n"
        "loaded = kb.load_snapshot(b''.join(kb.dump_snapshot(store, digest)), digest)\n"
        "assert list(loaded.rows.items()) == list(store.rows.items())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src}, check=True)
