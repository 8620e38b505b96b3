"""First-order-logic formulas for signatures and the signature compiler.

A compiled signature is a prenex formula: a lambda prefix (one binder per
explicit parameter), an existential prefix, and a conjunction of atoms
over a fixed predicate inventory:

    fun/2 eq/2 lang/2 type/2 var/2 has_param/3
    namespace/2 in_namespace/2 class/2 in_class/2

For a ground signature with n parameters the compiler always emits
n lambdas, 4 existentials (value, function, namespace, class entities)
and 8 + 3n atoms.  Each distinct wildcard label adds one existential.
No binder is spelled like a constant of its formula or like another
binder (`_freshen`), and `beta_apply` keeps it so, nor like a variable
it substitutes.  Var, App, Atom and Formula are checked named tuples,
like the model's values (`model.Value`).
"""

from __future__ import annotations

from collections import namedtuple

from .model import (
    Const,
    EquivIn as EquivInHead,
    Signature,
    Value,
    Wildcard,
    ground_slot,
    lang_token,
    signature_row,
    wildcard_labels,
    wildcard_slot,
)


class LogicError(ValueError):
    pass


class UnsupportedHead(LogicError):
    """Operation requires a plain head but got EquivIn (or vice versa)."""


class ArityMismatch(LogicError):
    pass


class Var(Value, namedtuple("Var", "name")):
    __slots__ = ()


class App(Value, namedtuple("App", "fn args")):
    """Applied term `f(x1,...,xn)`; only legal as the second arg of `eq`.
    `fn` is a Const for a known name, a Var when the name is queried."""

    __slots__ = ()

    def __new__(cls, fn, args=()):
        return tuple.__new__(cls, (fn, tuple(args)))


Term = Var | Const | App

PREDICATE_ARITIES = {
    "fun": 2,
    "eq": 2,
    "lang": 2,
    "type": 2,
    "var": 2,
    "has_param": 3,
    "namespace": 2,
    "in_namespace": 2,
    "class": 2,
    "in_class": 2,
}


class Atom(Value, namedtuple("Atom", "pred args")):
    __slots__ = ()

    def __new__(cls, pred, args):
        args = tuple(args)
        arity = PREDICATE_ARITIES.get(pred)
        if arity is None:
            raise LogicError("unknown predicate: %r" % (pred,))
        if len(args) != arity:
            raise LogicError("%s expects %d args, got %d" % (pred, arity, len(args)))
        return tuple.__new__(cls, (pred, args))


class Formula(Value, namedtuple(
    "Formula", "lambdas existentials atoms arity_unconstrained min_arity"
)):
    __slots__ = ()

    # arity_unconstrained: a `(?)` list, with no lambdas, a zero-arg App and
    # no arity constraint; min_arity: a trailing `...`, a lower bound on arity
    def __new__(cls, lambdas=(), existentials=(), atoms=(),
                arity_unconstrained=False, min_arity=False):
        return tuple.__new__(cls, (tuple(lambdas), tuple(existentials), tuple(atoms),
                                   arity_unconstrained, min_arity))


def _fresh(name, taken, suffix="_e"):
    """name with `suffix`es until it is not in the set taken, which it joins."""
    while name in taken:
        name += suffix
    taken.add(name)
    return name


def _freshen(kept, fixed, atoms, free=()) -> tuple:
    """The spellings of the binders `kept + fixed` of atoms, in order.

    A kept name keeps its spelling unless a constant of atoms, or a free
    variable named in `free`, has it.  That name, and then each fixed
    name, takes `_e` suffixes until it differs from every such name and
    every binder.
    """
    terms = [t for a in atoms for t in a.args]
    terms += [u for t in terms if isinstance(t, App) for u in (t.fn, *t.args)]
    names = {t.token for t in terms if isinstance(t, Const)}.union(free)
    taken = names | set(kept)
    return tuple(
        _fresh(x, taken) if i >= len(kept) or x in names else x
        for i, x in enumerate(kept + fixed)
    )


def call_text(name: str, args) -> str:
    """`name(a1,...,an)`: the text of an atom or an application."""
    return "%s(%s)" % (name, ",".join(args))


def _term(slot):
    return Var(slot.label) if isinstance(slot, Wildcard) else slot


def signature_atoms(row, v, f, n, c, xs,
                    atom=Atom, app=App, const=ground_slot) -> tuple:
    """The 8 + 3n atoms of a signature's flat row of terms (`signature_row`),
    `(lang, namespace, class, name, ret, t1, n1, …, tn, nn, vararg)`.

    v, f, n and c stand for the value, function, namespace and class
    entities, xs for the parameters in order: binder variables when
    `compile_signature` compiles, witnesses when the KB skolemizes a
    stored row.  `atom`, `app` and `const` build each atom, the
    application in `eq` and each `has_param` position: model objects by
    default, and their printed text (`call_text`, `str`) for
    `kb.dump_facts`, which passes template fields as terms and fills the
    printed layout with each stored row's token strings.
    """
    lang, namespace, class_name, name, ret = row[:5]
    terms = iter(row[5:-1])  # zipped twice: one (type, name) pair a step
    atoms = [
        atom("fun", (f, name)),
        atom("eq", (v, app(name, xs))),
        atom("lang", (f, lang)),
        atom("type", (v, ret)),
        atom("class", (c, class_name)),
        atom("in_class", (f, c)),
        atom("namespace", (n, namespace)),
        atom("in_namespace", (f, n)),
    ]
    for i, (x, type_term, name_term) in enumerate(zip(xs, terms, terms), 1):
        atoms.append(atom("var", (x, name_term)))
        atoms.append(atom("type", (x, type_term)))
        atoms.append(atom("has_param", (f, x, const(str(i)))))
    return tuple(atoms)


def compile_signature(sig: Signature) -> Formula:
    """Translate a signature into its prenex logic formula.

    `_freshen` names its binders: a wildcard label keeps its spelling
    unless a constant of the formula has it, and the fixed names `v`, `f`,
    `n`, `c` and `x1…xn` give way to the constants and the labels.
    """
    if isinstance(sig.head, EquivInHead):
        raise UnsupportedHead("EquivIn heads expand via expand_equiv")
    labels = tuple(wildcard_labels(sig))
    fixed = ("v", "f", "n", "c") + tuple(
        "x%d" % j for j in range(1, len(sig.params) + 1)
    )
    # until it is named, the i-th fixed binder is Var(i): no label is an int
    v, f, n, c, *xs = map(Var, range(len(fixed)))
    atoms = signature_atoms(signature_row(sig, _term), v, f, n, c, tuple(xs))
    names = _freshen(labels, fixed, atoms)
    binders = dict(zip(labels + tuple(range(len(fixed))), map(Var, names)))
    k = len(labels)
    return Formula(
        lambdas=names[k + 4:],
        existentials=names[k:k + 4] + names[:k],
        atoms=subst_atoms(atoms, binders),
        arity_unconstrained=sig.params_wildcard,
        min_arity=sig.vararg,
    )


def _subst_term(term: Term, mapping) -> Term:
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, App):
        return App(_subst_term(term.fn, mapping),
                   tuple(_subst_term(a, mapping) for a in term.args))
    return term


def subst_atoms(atoms, mapping):
    return tuple(
        Atom(a.pred, tuple(_subst_term(t, mapping) for t in a.args)) for a in atoms
    )


def beta_apply(formula: Formula, args) -> Formula:
    """Substitute the arguments for the lambda-bound parameters, and rename
    (by `_freshen`) each existential spelled like a constant or like a
    free variable of the arguments, so that none of them is captured."""
    args = tuple(args)
    if len(args) != len(formula.lambdas):
        raise ArityMismatch(
            "formula expects %d args, got %d" % (len(formula.lambdas), len(args))
        )
    binds = dict(zip(formula.lambdas, args))
    free = [a.name for a in args if isinstance(a, Var)]
    existentials = _freshen(
        formula.existentials, (), subst_atoms(formula.atoms, binds), free
    )
    # one simultaneous substitution: an argument's variable is never renamed
    binds.update(zip(formula.existentials, map(Var, existentials)))
    atoms = subst_atoms(formula.atoms, binds)
    return formula._replace(lambdas=(), existentials=existentials, atoms=atoms)


def _canon(formula: Formula) -> Formula:
    # each binder becomes its position, an int: no free Var is spelled so
    bound = formula.lambdas + formula.existentials
    k = len(formula.lambdas)
    atoms = subst_atoms(formula.atoms, {x: Var(i) for i, x in enumerate(bound)})
    return formula._replace(lambdas=range(k), existentials=range(k, len(bound)),
                            atoms=atoms)


def alpha_eq(f1: Formula, f2: Formula) -> bool:
    """Equality up to consistent renaming of bound variables.

    Atom order is significant; free variables must match verbatim.
    """
    return _canon(f1) == _canon(f2)


def expand_equiv(sig: Signature):
    """An EquivIn query's two plain queries, (base, target).

    `base` is sig under the plain base name; `target` is
    `<target_lang> N? C?::f'?(?) -> r?`, its language as every KB stores
    it (`lang_token`).  A target label sig already uses gets primes until
    it is fresh (`N'`, `f''`).  The EquivStore links a target answer to a
    base answer.
    """
    if not isinstance(sig.head, EquivInHead):
        raise UnsupportedHead("expand_equiv requires an EquivIn head")
    taken = set(wildcard_labels(sig))
    n, c, f, r = (wildcard_slot(_fresh(x, taken, "'")) for x in ("N", "C", "f'", "r"))
    base = Signature(
        sig.lang, sig.namespace, sig.class_name, ground_slot(sig.head.base_name),
        sig.params, sig.params_wildcard, sig.vararg, sig.ret,
    )
    target = Signature(
        lang=ground_slot(lang_token(sig.head.target_lang)), namespace=n,
        class_name=c, head=f, params_wildcard=True, ret=r,
    )
    return base, target


def print_term(term: Term, formula: Formula = None) -> str:
    """A term's text; an App's argument list follows formula's arity mode."""
    if isinstance(term, str):  # knowledge-base witnesses are plain strings
        return term
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Const):
        return term.token
    args = [print_term(a) for a in term.args]  # an App
    if formula is not None and formula.arity_unconstrained:
        args = ["?"]
    elif formula is not None and formula.min_arity:
        args.append("...")
    return call_text(print_term(term.fn), args)


def print_atom(atom: Atom, formula: Formula = None) -> str:
    return call_text(atom.pred, [print_term(a, formula) for a in atom.args])


def print_formula(formula: Formula) -> str:
    parts = ["lam %s ." % x for x in formula.lambdas]
    parts += ["ex %s ." % x for x in formula.existentials]
    parts.append(" & ".join(print_atom(a, formula) for a in formula.atoms))
    return " ".join(parts)


def validate_formula(formula: Formula):
    """Check the fixed predicate arities and App placement; raise on failure."""

    def check_term(term, app_ok=False):
        if isinstance(term, App):
            if not app_ok:
                raise LogicError("App term outside the second arg of eq")
            check_term(term.fn)
            for a in term.args:
                check_term(a)

    for atom in formula.atoms:
        # building an Atom enforces predicates and arity; check placement
        for i, arg in enumerate(atom.args):
            check_term(arg, app_ok=(atom.pred == "eq" and i == 1))
