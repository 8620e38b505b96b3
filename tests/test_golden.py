"""Golden output of the fixture signatures: formula text and KB facts.

These pin the exact bytes that `siglogic compile` and `siglogic facts`
print, so that a refactor of the compiler, the printer or the
skolemizer cannot change them unnoticed.
"""

import hashlib

from siglogic import (
    FactStore,
    compile_signature,
    dump_facts,
    ingest_signature,
    parse_signature,
    print_formula,
)

from conftest import ALL_FIXTURE_SIGS, WILDCARD_QUERY

# `(?)` arity is pinned too: it prints through its own branch.
ANY_ARITY_QUERY = "java N? C?::f?(?) -> r?"

GOLDEN_FORMULAS = [
    "lam x1 . lam x2 . ex v . ex f . ex n . ex c . fun(f,max) & "
    "eq(v,max(x1,x2)) & lang(f,java) & type(v,long) & class(c,Math) & "
    "in_class(f,c) & namespace(n,lang) & in_namespace(f,n) & var(x1,a) & "
    "type(x1,long) & has_param(f,x1,1) & var(x2,b) & type(x2,long) & "
    "has_param(f,x2,2)",
    "lam x1 . lam x2 . ex v . ex f . ex n . ex c . fun(f,max) & "
    "eq(v,max(x1,x2)) & lang(f,python) & type(v,UNK) & class(c,Context) & "
    "in_class(f,c) & namespace(n,decimal) & in_namespace(f,n) & var(x1,a) & "
    "type(x1,UNK) & has_param(f,x1,1) & var(x2,b) & type(x2,UNK) & "
    "has_param(f,x2,2)",
    "lam x1 . lam x2 . ex v . ex f . ex n . ex c . fun(f,max) & "
    "eq(v,max(x1,x2,...)) & lang(f,php) & type(v,mixed) & "
    "class(c,builtin) & in_class(f,c) & namespace(n,core) & "
    "in_namespace(f,n) & var(x1,value1) & type(x1,mixed) & "
    "has_param(f,x1,1) & var(x2,value2) & type(x2,mixed) & "
    "has_param(f,x2,2)",
    "lam x1 . lam x2 . ex v . ex f . ex n . ex c . fun(f,shiftL) & "
    "eq(v,shiftL(x1,x2)) & lang(f,haskell) & type(v,UNK) & "
    "class(c,builtin) & in_class(f,c) & namespace(n,Data.Bits) & "
    "in_namespace(f,n) & var(x1,a) & type(x1,UNK) & has_param(f,x1,1) & "
    "var(x2,UNK) & type(x2,Int) & has_param(f,x2,2)",
    "lam x1 . ex v . ex f . ex n . ex c . fun(f,shiftLeft) & "
    "eq(v,shiftLeft(x1)) & lang(f,java) & type(v,BigInteger) & "
    "class(c,BigInteger) & in_class(f,c) & namespace(n,java.math) & "
    "in_namespace(f,n) & var(x1,n) & type(x1,int) & has_param(f,x1,1)",
    "lam x1 . lam x2 . ex v . ex f . ex n . ex c . fun(f,bit-shift-left) & "
    "eq(v,bit-shift-left(x1,x2)) & lang(f,clojure) & type(v,UNK) & "
    "class(c,builtin) & in_class(f,c) & namespace(n,clojure.core) & "
    "in_namespace(f,n) & var(x1,x) & type(x1,UNK) & has_param(f,x1,1) & "
    "var(x2,n) & type(x2,UNK) & has_param(f,x2,2)",
    "lam x1 . lam x2 . ex v . ex f_e . ex n . ex c . ex N . ex C . ex f . "
    "ex p . fun(f_e,f) & eq(v,f(x1,x2)) & lang(f_e,java) & type(v,long) & "
    "class(c,C) & in_class(f_e,c) & namespace(n,N) & in_namespace(f_e,n) & "
    "var(x1,a) & type(x1,long) & has_param(f_e,x1,1) & var(x2,p) & "
    "type(x2,long) & has_param(f_e,x2,2)",
    "ex v . ex f_e . ex n . ex c . ex N . ex C . ex f . ex r . fun(f_e,f) & "
    "eq(v,f(?)) & lang(f_e,java) & type(v,r) & class(c,C) & "
    "in_class(f_e,c) & namespace(n,N) & in_namespace(f_e,n)",
]

# sha256 of the 81 lines `siglogic facts` prints for ALL_FIXTURE_SIGS.
GOLDEN_FACTS_LINES = 81
GOLDEN_FACTS_SHA256 = (
    "8487101913d9f8dba6abc4dbcfd16f91c0b2c8b088ae751b4db8294e73d791f4"
)


def test_compile_text_is_golden():
    texts = ALL_FIXTURE_SIGS + [WILDCARD_QUERY, ANY_ARITY_QUERY]
    got = [print_formula(compile_signature(parse_signature(t))) for t in texts]
    assert got == GOLDEN_FORMULAS


def test_dump_facts_is_golden():
    store = FactStore()
    for text in ALL_FIXTURE_SIGS:
        ingest_signature(store, parse_signature(text))
    lines = dump_facts(store)
    assert len(lines) == GOLDEN_FACTS_LINES
    text = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_FACTS_SHA256
