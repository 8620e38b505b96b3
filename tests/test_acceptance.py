"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the report lines.
"""

import random
import time

from siglogic.dsl import parse_signature, print_signature
from siglogic.kb import (
    EquivStore,
    FactStore,
    KeyConflict,
    answer,
    answer_equiv,
    brute_force_answer,
    dump_facts,
    ingest_signature,
)
from siglogic.logic import (
    App,
    Atom,
    Formula,
    Var,
    alpha_eq,
    beta_apply,
    compile_signature,
    validate_formula,
)
from siglogic.model import (
    UNK,
    Const,
    EquivIn,
    FunctionKey,
    Param,
    Signature,
    Wildcard,
)
from siglogic.normalizer import Dialect, normalize

from conftest import (
    ALL_FIXTURE_SIGS,
    JAVA_MAX,
    JAVA_MAX_RAW,
    KEY_SHIFT_CLOJURE,
    KEY_SHIFT_HASKELL,
    KEY_SHIFT_JAVA,
    WILDCARD_QUERY,
)
from test_kb import random_ground_signature, random_query


def _report(num, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print("[%s] criterion %d: %s (%.2fs, budget %.0fs)"
          % (status, num, name, elapsed, budget))
    assert ok, name
    assert elapsed < budget, "%s exceeded %.0fs" % (name, budget)


def test_criterion_1_java_max_golden():
    start = time.perf_counter()
    sig = normalize(JAVA_MAX_RAW, Dialect.JAVA, "java")
    ok = print_signature(sig) == JAVA_MAX

    g, w, m, k = Var("g"), Var("w"), Var("m"), Var("k")
    y1, y2 = Var("y1"), Var("y2")
    expected = Formula(
        lambdas=("y1", "y2"),
        existentials=("w", "g", "m", "k"),
        atoms=(
            Atom("fun", (g, Const("max"))),
            Atom("eq", (w, App(Const("max"), (y1, y2)))),
            Atom("lang", (g, Const("java"))),
            Atom("type", (w, Const("long"))),
            Atom("class", (k, Const("Math"))),
            Atom("in_class", (g, k)),
            Atom("namespace", (m, Const("lang"))),
            Atom("in_namespace", (g, m)),
            Atom("var", (y1, Const("a"))),
            Atom("type", (y1, Const("long"))),
            Atom("has_param", (g, y1, Const("1"))),
            Atom("var", (y2, Const("b"))),
            Atom("type", (y2, Const("long"))),
            Atom("has_param", (g, y2, Const("2"))),
        ),
    )
    ok = ok and alpha_eq(compile_signature(sig), expected)
    _report(1, "normalize + compile the java max golden example", ok,
            time.perf_counter() - start, 1.0)


def test_criterion_2_beta_application():
    start = time.perf_counter()
    formula = compile_signature(parse_signature(JAVA_MAX))
    applied = beta_apply(formula, [Const("4L"), Const("5L")])
    ok = applied.lambdas == ()
    ok = ok and applied.atoms[1] == Atom(
        "eq",
        (Var("v"), App(Const("max"), (Const("4L"), Const("5L")))),
    )
    _report(2, "beta application of 4L, 5L to java max", ok,
            time.perf_counter() - start, 1.0)


def test_criterion_3_wildcard_query():
    start = time.perf_counter()
    store = FactStore()
    for text in ALL_FIXTURE_SIGS:
        ingest_signature(store, parse_signature(text))
    query = parse_signature(WILDCARD_QUERY)
    results = answer(store, query)
    ok = len(results) == 1
    if ok:
        (binding,) = results
        ok = binding.key == FunctionKey("java", "lang", "Math", "max", 2)
        ok = ok and binding.mapping == {
            "N": "lang", "C": "Math", "f": "max", "p": "b",
        }
    ok = ok and results == brute_force_answer(store, query)
    _report(3, "two-long-args wildcard query finds exactly java max", ok,
            time.perf_counter() - start, 1.0)


def test_criterion_4_cross_language_equivalence():
    start = time.perf_counter()
    store = FactStore()
    for text in ALL_FIXTURE_SIGS:
        ingest_signature(store, parse_signature(text))
    eqs = EquivStore()
    eqs.add_eq(KEY_SHIFT_JAVA, KEY_SHIFT_HASKELL)
    eqs.add_eq(KEY_SHIFT_HASKELL, KEY_SHIFT_CLOJURE)

    to_haskell = parse_signature(
        "java java.math BigInteger::EquivIn(shiftLeft,haskell)(?) -> s?"
    )
    results = answer_equiv(store, eqs, to_haskell)
    ok = {b.key for b in results} == {KEY_SHIFT_HASKELL}
    if ok:
        (b,) = results
        ok = (b["f'"], b["N"], b["C"]) == ("shiftL", "Data.Bits", "builtin")

    to_clojure = parse_signature(
        "java java.math BigInteger::EquivIn(shiftLeft,clojure)(?) -> s?"
    )
    results = answer_equiv(store, eqs, to_clojure)
    ok = ok and {b["f'"] for b in results} == {"bit-shift-left"}
    _report(4, "EquivIn query resolves shiftLeft across languages", ok,
            time.perf_counter() - start, 1.0)


# --- deterministic random generators for the bulk criteria ------------------

_TOKENS = [
    "java", "python", "Math", "max", "a", "b", "long", "Int", "x1", "v",
    "f", "core", "builtin", "Data.Bits", "bit-shift-left", "f'", "n$1",
]
_LABELS = ["N", "C", "f", "p", "r", "t", "v", "x1", "q'"]


def _rand_slot(rng, ground=False):
    roll = rng.random()
    if roll < 0.15:
        return UNK
    if not ground and roll < 0.45:
        return Wildcard(rng.choice(_LABELS))
    return Const(rng.choice(_TOKENS))


def _rand_signature(rng, ground=False):
    if not ground and rng.random() < 0.1:
        head = EquivIn(rng.choice(_TOKENS), rng.choice(_TOKENS))
        lang = Const(rng.choice(_TOKENS))
    else:
        head = Const(rng.choice(_TOKENS)) if ground else _rand_slot(rng)
        lang = _rand_slot(rng, ground)
    params_wildcard = not ground and rng.random() < 0.15
    params = ()
    vararg = False
    if not params_wildcard:
        params = tuple(
            Param(_rand_slot(rng, ground), _rand_slot(rng, ground))
            for _ in range(rng.randint(0, 4))
        )
        vararg = bool(params) and rng.random() < 0.2
    return Signature(
        lang=lang,
        namespace=_rand_slot(rng, ground),
        class_name=_rand_slot(rng, ground),
        head=head,
        params=params,
        params_wildcard=params_wildcard,
        vararg=vararg,
        ret=_rand_slot(rng, ground),
    )


def test_criterion_5_round_trip_1000():
    start = time.perf_counter()
    rng = random.Random(5)
    seen = {"equiv": 0, "wild": 0, "unk": 0, "vararg": 0, "zero": 0, "pw": 0}
    ok = True
    for _ in range(1000):
        sig = _rand_signature(rng)
        ok = ok and parse_signature(print_signature(sig)) == sig
        seen["equiv"] += isinstance(sig.head, EquivIn)
        seen["wild"] += bool(
            not isinstance(sig.head, EquivIn)
            and any(
                isinstance(s, Wildcard)
                for s in (sig.lang, sig.namespace, sig.class_name, sig.ret)
            )
        )
        seen["unk"] += sig.ret == UNK
        seen["vararg"] += sig.vararg
        seen["zero"] += not sig.params and not sig.params_wildcard
        seen["pw"] += sig.params_wildcard
    ok = ok and all(count > 0 for count in seen.values())
    _report(5, "print/parse round trip on 1000 generated signatures", ok,
            time.perf_counter() - start, 10.0)


def test_criterion_6_atom_count_1000():
    start = time.perf_counter()
    rng = random.Random(6)
    ok = True
    for _ in range(1000):
        sig = _rand_signature(rng, ground=True)
        formula = compile_signature(sig)
        n = len(sig.params)
        ok = ok and len(formula.lambdas) == n
        ok = ok and len(formula.existentials) == 4
        ok = ok and len(formula.atoms) == 8 + 3 * n
        try:
            validate_formula(formula)
        except Exception:
            ok = False
    _report(6, "compile invariants on 1000 ground signatures", ok,
            time.perf_counter() - start, 10.0)


def test_criterion_7_oracle_agreement_500():
    start = time.perf_counter()
    rng = random.Random(7)
    ok = True
    pairs = 0
    while pairs < 500:
        store = FactStore()
        stored = []
        for _ in range(rng.choice([5, 20, 60, 200])):
            sig = random_ground_signature(rng)
            try:
                ingest_signature(store, sig)
            except KeyConflict:
                continue
            stored.append(sig)
        for _ in range(25):
            query = random_query(rng, stored)
            ok = ok and answer(store, query) == brute_force_answer(store, query)
            pairs += 1
    _report(7, "answer equals brute-force oracle on %d pairs" % pairs, ok,
            time.perf_counter() - start, 60.0)


def test_criterion_8_ingest_order_determinism():
    start = time.perf_counter()
    rng = random.Random(8)
    corpus = []
    probe = FactStore()
    while len(corpus) < 100:
        sig = random_ground_signature(rng)
        try:
            ingest_signature(probe, sig)
        except KeyConflict:
            continue
        corpus.append(sig)
    shuffled = list(corpus)
    rng.shuffle(shuffled)
    a, b = FactStore(), FactStore()
    for sig in corpus:
        ingest_signature(a, sig)
    for sig in shuffled:
        ingest_signature(b, sig)
    dump_a, dump_b = dump_facts(a), dump_facts(b)
    ok = dump_a == dump_b and "\n".join(dump_a) == "\n".join(dump_b)
    _report(8, "shuffled corpus ingestion dumps byte-identically", ok,
            time.perf_counter() - start, 5.0)
