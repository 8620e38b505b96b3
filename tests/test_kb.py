import random

import pytest

from siglogic.dsl import parse_signature, print_signature
from siglogic.kb import (
    Binding,
    KeyConflict,
    EquivStore,
    FactStore,
    SourceNotFound,
    answer,
    answer_equiv,
    brute_force_answer,
    dump_facts,
    ingest_signature,
    ns_skolem,
    reconstruct_signature,
)
from siglogic.logic import NotEquivHead, UnsupportedHead
from siglogic.model import (
    UNK,
    Const,
    FunctionKey,
    NotGround,
    Param,
    Plain,
    Signature,
    Wildcard,
)

from conftest import (
    ALL_FIXTURE_SIGS,
    JAVA_MAX,
    KEY_SHIFT_CLOJURE,
    KEY_SHIFT_HASKELL,
    KEY_SHIFT_JAVA,
    PHP_MAX,
    PY_MAX,
    WILDCARD_QUERY,
)


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


def test_answer_rejects_equiv_head(max_store):
    with pytest.raises(UnsupportedHead):
        answer(
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


def test_answer_equiv_requires_equiv_head(full_store, shift_eqs):
    with pytest.raises(NotEquivHead):
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
                    head=Plain(Const(rng.choice(dotted))),
                    params=tuple(
                        Param(_tok(rng, TYPES), Const(rng.choice(dotted)), j + 1)
                        for j in range(rng.randint(0, 3))
                    ),
                    ret=_tok(rng, TYPES),
                )
            try:
                total += ingest_signature(store, sig)
            except KeyConflict:
                continue
            stored.append(sig)
        assert len(store) == total == len(dump_facts(store))


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
        Param(_tok(rng, TYPES), _tok(rng, PARAM_NAMES), j + 1)
        for j in range(arity)
    )
    return Signature(
        lang=_tok(rng, LANGS),
        namespace=_tok(rng, NAMESPACES),
        class_name=_tok(rng, CLASSES),
        head=Plain(Const(rng.choice(NAMES))),
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
            Param(mutate(p.type_slot), mutate(p.name_slot), p.position)
            for p in base.params
        )
        if rng.random() < 0.2 and len(params) > 1:
            params = tuple(
                Param(p.type_slot, p.name_slot, p.position)
                for p in params[:-1]
            )
            vararg = True
        elif params and rng.random() < 0.1:
            vararg = True
    head_slot = mutate(base.head.name_slot)
    return Signature(
        lang=mutate(base.lang),
        namespace=mutate(base.namespace),
        class_name=mutate(base.class_name),
        head=Plain(head_slot),
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
            head=Plain(subst(query.head.name_slot)),
            params=tuple(
                Param(subst(p.type_slot), subst(p.name_slot), p.position)
                for p in query.params
            ),
            ret=subst(query.ret),
        )
        keys = {b.key for b in answer(max_store, grounded)}
        assert binding.key in keys


def test_ingested_facts_equal_skolemized_compile_atoms():
    from siglogic.kb import cls_skolem, fn_skolem, param_skolem, ret_skolem
    from siglogic.logic import binder_names, compile_signature, subst_atoms
    from siglogic.model import function_key

    sig = parse_signature(JAVA_MAX)
    key = function_key(sig)
    lambdas, ent = binder_names(sig)
    witness = {
        ent["v"]: ret_skolem(key),
        ent["f"]: fn_skolem(key),
        ent["n"]: ns_skolem(key.lang, key.namespace),
        ent["c"]: cls_skolem(key.lang, key.namespace, key.class_name),
    }
    for j, x in enumerate(lambdas, start=1):
        witness[x] = param_skolem(key, j)
    expected = set(subst_atoms(compile_signature(sig).atoms, witness))

    store = FactStore()
    ingest_signature(store, sig)
    assert set(store.facts("fun")) | set(store.facts("eq")) | set(
        store.facts("lang")
    ) | set(store.facts("type")) | set(store.facts("var")) | set(
        store.facts("has_param")
    ) | set(store.facts("namespace")) | set(store.facts("in_namespace")) | set(
        store.facts("class")
    ) | set(store.facts("in_class")) == expected


def test_oracle_reports_a_renamed_label_by_its_spelling(max_store):
    # the label a? is spelled like the constant a, so compile renames its
    # variable; bindings still carry the label
    query = parse_signature("java N? C?::f?(long:a,long:a?) -> long")
    results = brute_force_answer(max_store, query)
    assert results == answer(max_store, query)
    assert {b["a"] for b in results} == {"b"}
