import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siglogic.dsl import parse_signature
from siglogic.logic import (
    App,
    ArityMismatch,
    Atom,
    Formula,
    LogicError,
    UnsupportedHead,
    Var,
    alpha_eq,
    beta_apply,
    compile_signature,
    expand_equiv,
    print_formula,
    validate_formula,
)
from siglogic.model import Const, EquivIn, Wildcard

from strategies import ground_signatures, signatures, tokens

JAVA_MAX = "java lang Math::max(long:a,long:b) -> long"


def _java_max_formula():
    return compile_signature(parse_signature(JAVA_MAX))


def test_java_max_canonical_text():
    assert print_formula(_java_max_formula()) == (
        "lam x1 . lam x2 . ex v . ex f . ex n . ex c . "
        "fun(f,max) & eq(v,max(x1,x2)) & lang(f,java) & type(v,long) & "
        "class(c,Math) & in_class(f,c) & namespace(n,lang) & in_namespace(f,n) & "
        "var(x1,a) & type(x1,long) & has_param(f,x1,1) & "
        "var(x2,b) & type(x2,long) & has_param(f,x2,2)"
    )


def test_java_max_alpha_eq_hand_encoded():
    # same formula with bound variables renamed y1,y2,w,g,m,k
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
    assert alpha_eq(_java_max_formula(), expected)


def test_zero_param_compile():
    f = compile_signature(parse_signature("java lang Math::now() -> long"))
    assert f.lambdas == ()
    assert len(f.existentials) == 4
    assert len(f.atoms) == 8
    assert f.atoms[1] == Atom("eq", (Var("v"), App(Const("max" * 0 + "now"), ())))


def test_wildcards_add_existentials_not_atoms():
    f = compile_signature(
        parse_signature("java N? C?::f?(long:a,long:p?) -> long")
    )
    assert len(f.lambdas) == 2
    assert len(f.existentials) == 4 + 4  # v f n c + N C f p
    assert len(f.atoms) == 8 + 3 * 2
    # the entity variable shifts out of the way of the label `f`
    assert f.atoms[0] == Atom("fun", (Var("f_e"), Var("f")))
    assert f.atoms[1].args[1] == App(Var("f"), (Var("x1"), Var("x2")))
    assert Atom("namespace", (Var("n"), Var("N"))) in f.atoms
    assert Atom("var", (Var("x2"), Var("p"))) in f.atoms


def test_unk_compiles_to_the_unk_token():
    f = compile_signature(
        parse_signature("python decimal Context::max(UNK:a,UNK:b) -> UNK")
    )
    assert Atom("type", (Var("v"), Const("UNK"))) in f.atoms
    assert Atom("type", (Var("x1"), Const("UNK"))) in f.atoms


def test_params_wildcard_compile():
    f = compile_signature(parse_signature("java N? C?::f?(?) -> r?"))
    assert f.arity_unconstrained
    assert f.lambdas == ()
    assert f.atoms[1].args[1] == App(Var("f"), ())
    assert not any(a.pred in ("var", "has_param") for a in f.atoms)


def test_compile_rejects_equiv_head():
    sig = parse_signature(
        "java java.math BigInteger::EquivIn(shiftLeft,haskell)(?) -> r?"
    )
    with pytest.raises(UnsupportedHead):
        compile_signature(sig)


def test_beta_apply_substitutes_everywhere():
    applied = beta_apply(
        _java_max_formula(), [Const("4L"), Const("5L")]
    )
    assert applied.lambdas == ()
    assert applied.atoms[1] == Atom(
        "eq", (Var("v"), App(Const("max"), (Const("4L"), Const("5L"))))
    )
    assert Atom("var", (Const("4L"), Const("a"))) in applied.atoms
    assert Atom(
        "has_param", (Var("f"), Const("5L"), Const("2"))
    ) in applied.atoms


def test_beta_apply_renames_an_existential_spelled_like_an_argument():
    applied = beta_apply(_java_max_formula(), [Const("f"), Const("v")])
    assert applied.existentials == ("v_e", "f_e", "n", "c")
    assert Atom("has_param", (Var("f_e"), Const("f"), Const("1"))) in applied.atoms
    assert Atom("eq", (
        Var("v_e"), App(Const("max"), (Const("f"), Const("v")))
    )) in applied.atoms


def test_beta_apply_does_not_capture_a_variable_argument():
    applied = beta_apply(_java_max_formula(), [Var("f"), Const("b")])
    assert applied.existentials == ("v", "f_e", "n", "c")
    assert Atom("has_param", (Var("f_e"), Var("f"), Const("1"))) in applied.atoms
    assert print_formula(applied).startswith(
        "ex v . ex f_e . ex n . ex c . fun(f_e,max) & eq(v,max(f,b)) & "
    )


def test_beta_apply_zero_args_is_identity():
    f = compile_signature(parse_signature("java lang Math::now() -> long"))
    assert beta_apply(f, []) == f


def test_beta_apply_arity_mismatch():
    with pytest.raises(ArityMismatch):
        beta_apply(_java_max_formula(), [Const("4L")])


def test_alpha_eq_reflexive():
    f = _java_max_formula()
    assert alpha_eq(f, f)


def test_alpha_eq_order_sensitive():
    f = _java_max_formula()
    reordered = Formula(
        lambdas=f.lambdas,
        existentials=f.existentials,
        atoms=(f.atoms[1],) + (f.atoms[0],) + f.atoms[2:],
    )
    assert not alpha_eq(f, reordered)


def test_alpha_eq_distinguishes_free_variables():
    a = Formula(existentials=("v",), atoms=(Atom("fun", (Var("v"), Var("free"))),))
    b = Formula(existentials=("v",), atoms=(Atom("fun", (Var("v"), Var("other"))),))
    assert not alpha_eq(a, b)


def test_alpha_eq_keeps_free_variables_apart_from_bound_ones():
    # x and y are bound, b0 is free in both: a canonical name for a binder
    # must not be a name a free variable can have
    a = Formula(existentials=("x",), atoms=(Atom("var", (Var("x"), Var("b0"))),))
    b = Formula(existentials=("y",), atoms=(Atom("var", (Var("b0"), Var("y"))),))
    assert not alpha_eq(a, b)


def test_expand_equiv_parts():
    sig = parse_signature(
        "java java.math BigInteger::EquivIn(shiftLeft,haskell)"
        "(long:a,long:b) -> long"
    )
    base, target = expand_equiv(sig)
    plain = parse_signature(
        "java java.math BigInteger::shiftLeft(long:a,long:b) -> long"
    )
    assert base == plain
    assert target.lang.token == "haskell"
    assert target.params_wildcard
    assert target.head == Wildcard("f'")
    assert target == parse_signature("haskell N? C?::f'?(?) -> r?")


def test_expand_equiv_same_language_target():
    sig = parse_signature("java lang Math::EquivIn(max,java)(?) -> r?")
    base, target = expand_equiv(sig)
    assert target.lang.token == "java"


def test_expand_equiv_primes_colliding_target_labels():
    # the target language is lowercased, as every KB stores it
    sig = parse_signature(
        "java N? C'?::EquivIn(max,Python)(long:f'?,long:C?) -> r?"
    )
    _, target = expand_equiv(sig)
    assert target == parse_signature("python N'? C''?::f''?(?) -> r'?")


def test_expand_equiv_requires_equiv_head():
    with pytest.raises(UnsupportedHead):
        expand_equiv(parse_signature(JAVA_MAX))


def test_print_single_atom_formula():
    f = Formula(atoms=(Atom("fun", (Var("f"), Const("max"))),))
    assert print_formula(f) == "fun(f,max)"


@pytest.mark.parametrize("pred, args, message", [
    ("fn", (Var("f"), Const("max")), "unknown predicate: 'fn'"),
    ("fun", (Var("f"),), "fun expects 2 args, got 1"),
], ids=["unknown-predicate", "wrong-arg-count"])
def test_atom_checks_its_predicate_and_arity(pred, args, message):
    with pytest.raises(LogicError) as e:
        Atom(pred, args)
    assert str(e.value) == message


def test_validate_formula_rejects_an_app_outside_eq():
    app = App(Const("max"), (Var("x1"),))
    validate_formula(Formula(atoms=(Atom("eq", (Var("v"), app)),)))
    for atom in (Atom("eq", (app, Var("v"))), Atom("type", (Var("v"), app))):
        with pytest.raises(LogicError) as e:
            validate_formula(Formula(atoms=(atom,)))
        assert str(e.value) == "App term outside the second arg of eq"


@settings(max_examples=300, deadline=None)
@given(ground_signatures)
def test_atom_count_invariant(sig):
    f = compile_signature(sig)
    n = len(sig.params)
    assert len(f.lambdas) == n
    assert len(f.existentials) == 4
    assert len(f.atoms) == 8 + 3 * n
    validate_formula(f)


@settings(max_examples=300, deadline=None)
@given(signatures())
def test_wildcard_labels_add_one_existential_each(sig):
    from siglogic.model import EquivIn, wildcard_labels

    if isinstance(sig.head, EquivIn):
        return
    f = compile_signature(sig)
    assert len(f.existentials) == 4 + len(wildcard_labels(sig))
    validate_formula(f)


@settings(max_examples=200, deadline=None)
@given(ground_signatures)
def test_compile_deterministic(sig):
    assert print_formula(compile_signature(sig)) == print_formula(
        compile_signature(sig)
    )


@settings(max_examples=200, deadline=None)
@given(ground_signatures)
def test_beta_apply_preserves_counts(sig):
    f = compile_signature(sig)
    args = [Const("c%d" % i) for i in range(len(f.lambdas))]
    applied = beta_apply(f, args)
    assert len(applied.atoms) == len(f.atoms)
    assert applied.existentials == f.existentials
    lam = set(f.lambdas)
    for atom in applied.atoms:
        for term in atom.args:
            assert not (isinstance(term, Var) and term.name in lam)


@settings(max_examples=200, deadline=None)
@given(signatures(), signatures())
def test_print_injective_on_distinct_canonical_formulas(s1, s2):
    from siglogic.model import EquivIn

    if isinstance(s1.head, EquivIn) or isinstance(s2.head, EquivIn):
        return
    f1, f2 = compile_signature(s1), compile_signature(s2)
    if print_formula(f1) == print_formula(f2):
        assert alpha_eq(f1, f2)


def _rename_bound(f, suffix):
    from siglogic.logic import subst_atoms

    mapping = {
        name: Var(name + suffix)
        for name in tuple(f.lambdas) + tuple(f.existentials)
    }
    return Formula(
        lambdas=tuple(x + suffix for x in f.lambdas),
        existentials=tuple(x + suffix for x in f.existentials),
        atoms=subst_atoms(f.atoms, mapping),
        arity_unconstrained=f.arity_unconstrained,
        min_arity=f.min_arity,
    )


@settings(max_examples=150, deadline=None)
@given(ground_signatures)
def test_alpha_eq_equivalence_relation(sig):
    f1 = compile_signature(sig)
    f2 = _rename_bound(f1, "_r")
    f3 = _rename_bound(f1, "_s")
    assert alpha_eq(f1, f1)
    assert alpha_eq(f1, f2) and alpha_eq(f2, f1)
    assert alpha_eq(f2, f3) and alpha_eq(f1, f3)


def test_label_spelled_like_a_constant_is_not_captured():
    # In each, the label 000? would bind the constant 000 in the printed
    # text if its variable kept the label's spelling.
    f1 = compile_signature(
        parse_signature("UNK UNK 00?::000(UNK:000?,UNK:UNK,...) -> UNK")
    )
    f2 = compile_signature(
        parse_signature("UNK UNK 00?::000?(UNK:000,UNK:UNK,...) -> UNK")
    )
    assert not alpha_eq(f1, f2)
    assert print_formula(f1) != print_formula(f2)
    assert f1.existentials[4:] == ("00", "000_e")
    assert Atom("var", (Var("x1"), Var("000_e"))) in f1.atoms
    assert Atom("fun", (Var("f"), Const("000"))) in f1.atoms


def test_fixed_binders_give_way_to_constants():
    f = compile_signature(parse_signature("java v Math::f(int:c) -> n"))
    assert print_formula(f) == (
        "lam x1 . ex v_e . ex f_e . ex n_e . ex c_e . fun(f_e,f) & "
        "eq(v_e,f(x1)) & lang(f_e,java) & type(v_e,n) & class(c_e,Math) & "
        "in_class(f_e,c_e) & namespace(n_e,v) & in_namespace(f_e,n_e) & "
        "var(x1,c) & type(x1,int) & has_param(f_e,x1,1)"
    )


def _assert_binders_fresh(formula, free=()):
    binders = formula.lambdas + formula.existentials
    assert len(set(binders)) == len(binders)
    terms = [t for a in formula.atoms for t in a.args]
    terms += [u for t in terms if isinstance(t, App) for u in (t.fn, *t.args)]
    consts = {t.token for t in terms if isinstance(t, Const)}
    assert not (consts | set(free)) & set(binders)


# arguments for beta_apply, often spelled like a fixed binder
_arg_tokens = st.one_of(st.sampled_from(["v", "f", "n", "c", "x1", "x2"]), tokens)
_four = dict(min_size=4, max_size=4)


@settings(max_examples=300, deadline=None)
@given(signatures(), st.lists(_arg_tokens, **_four), st.lists(st.booleans(), **_four))
@example(
    parse_signature("java java.math BigInteger::shiftLeft(int:n) -> BigInteger"),
    ["a", "b", "c", "d"], [False] * 4,
)
@example(parse_signature("java lang Math::max(int:x1) -> long"), ["a"] * 4, [False] * 4)
@example(parse_signature("java v Math::f(int:c) -> n"), ["a"] * 4, [False] * 4)
@example(parse_signature(JAVA_MAX), ["f", "v", "a", "a"], [False] * 4)
@example(parse_signature(JAVA_MAX), ["f", "b", "a", "a"], [True, False, False, False])
def test_no_binder_is_spelled_like_a_constant(sig, arg_tokens, as_var):
    # nor, after beta_apply, like a free variable among the arguments
    if isinstance(sig.head, EquivIn):
        return
    f = compile_signature(sig)
    _assert_binders_fresh(f)
    args = [
        (Var if var else Const)(t)
        for t, var in zip(arg_tokens[:len(f.lambdas)], as_var)
    ]
    free = [a.name for a in args if isinstance(a, Var)]
    _assert_binders_fresh(beta_apply(f, args), free)
