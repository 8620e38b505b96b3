"""First-order-logic formulas for signatures and the signature compiler.

A compiled signature is a prenex formula: a lambda prefix (one binder per
explicit parameter), an existential prefix, and a conjunction of atoms
over a fixed predicate inventory:

    fun/2 eq/2 lang/2 type/2 var/2 has_param/3
    namespace/2 in_namespace/2 class/2 in_class/2

For a ground signature with n parameters the compiler always emits
n lambdas, 4 existentials (value, function, namespace, class entities)
and 8 + 3n atoms.  Each distinct wildcard label adds one existential.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from .model import (
    Const,
    EquivIn as EquivInHead,
    Plain,
    Signature,
    SlotValue,
    Unk,
    Wildcard,
    wildcard_labels,
)


class LogicError(ValueError):
    pass


class UnsupportedHead(LogicError):
    """Operation requires a Plain head but got EquivIn (or vice versa)."""


class NotEquivHead(LogicError):
    pass


class ArityMismatch(LogicError):
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class ConstTok:
    token: str


@dataclass(frozen=True)
class App:
    """Applied term `f(x1,...,xn)`; only legal as the second arg of `eq`."""

    fn: "Term"  # ConstTok for a known name, Var when the name is queried
    args: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


Term = Union[Var, ConstTok, App]

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


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        arity = PREDICATE_ARITIES.get(self.pred)
        if arity is None:
            raise LogicError("unknown predicate: %r" % (self.pred,))
        if len(self.args) != arity:
            raise LogicError(
                "%s expects %d args, got %d" % (self.pred, arity, len(self.args))
            )


@dataclass(frozen=True)
class Formula:
    lambdas: tuple = field(default=())
    existentials: tuple = field(default=())
    atoms: tuple = field(default=())
    # `(?)` parameter list: no lambdas, zero-arg App, no arity constraint
    arity_unconstrained: bool = False
    # trailing `...`: explicit params are a lower bound on arity
    min_arity: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(self.lambdas))
        object.__setattr__(self, "existentials", tuple(self.existentials))
        object.__setattr__(self, "atoms", tuple(self.atoms))


def _fresh(name, taken):
    while name in taken:
        name += "_e"
    return name


def binder_names(sig: Signature):
    """Fixed binder spellings for compile(sig).

    Returns (lambda_names, entity_names) where entity_names maps the four
    roles 'v', 'f', 'n', 'c' to their variable spellings.  A fixed name
    colliding with a wildcard label gets `_e` suffixes until distinct.
    """
    labels = set(wildcard_labels(sig))
    lambdas = tuple(
        _fresh("x%d" % j, labels) for j in range(1, len(sig.params) + 1)
    )
    entities = {role: _fresh(role, labels) for role in ("v", "f", "n", "c")}
    return lambdas, entities


def _slot_term(slot: SlotValue) -> Term:
    if isinstance(slot, Const):
        return ConstTok(slot.token)
    if isinstance(slot, Unk):
        return ConstTok("UNK")
    return Var(slot.label)


def compile_signature(sig: Signature) -> Formula:
    """Translate a signature into its prenex logic formula."""
    if isinstance(sig.head, EquivInHead):
        raise UnsupportedHead("EquivIn heads expand via expand_equiv")

    lambdas, ent = binder_names(sig)
    v, f, n, c = ent["v"], ent["f"], ent["n"], ent["c"]
    labels = wildcard_labels(sig)
    existentials = (v, f, n, c) + tuple(labels)

    fname = _slot_term(sig.head.name_slot)
    xs = tuple(Var(x) for x in lambdas)
    atoms = [
        Atom("fun", (Var(f), fname)),
        Atom("eq", (Var(v), App(fname, xs))),
        Atom("lang", (Var(f), _slot_term(sig.lang))),
        Atom("type", (Var(v), _slot_term(sig.ret))),
        Atom("class", (Var(c), _slot_term(sig.class_name))),
        Atom("in_class", (Var(f), Var(c))),
        Atom("namespace", (Var(n), _slot_term(sig.namespace))),
        Atom("in_namespace", (Var(f), Var(n))),
    ]
    for p, x in zip(sig.params, xs):
        atoms.append(Atom("var", (x, _slot_term(p.name_slot))))
        atoms.append(Atom("type", (x, _slot_term(p.type_slot))))
        atoms.append(Atom("has_param", (Var(f), x, ConstTok(str(p.position)))))
    if labels:
        # A label keeps its spelling unless one of the formula's constants
        # is spelled alike: its binder would capture that constant in the
        # printed text, so it gets `_e` suffixes until fresh.
        consts = {
            t.token for a in atoms for t in a.args if isinstance(t, ConstTok)
        }
        taken = consts | set(existentials) | set(lambdas)
        renamed = {}
        for label in labels:
            if label in consts:
                renamed[label] = _fresh(label, taken)
                taken.add(renamed[label])
        atoms = subst_atoms(atoms, {k: Var(x) for k, x in renamed.items()})
        existentials = tuple(renamed.get(x, x) for x in existentials)
    return Formula(
        lambdas=lambdas,
        existentials=existentials,
        atoms=tuple(atoms),
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
    """Substitute constants for the lambda-bound parameters."""
    args = tuple(args)
    if len(args) != len(formula.lambdas):
        raise ArityMismatch(
            "formula expects %d args, got %d" % (len(formula.lambdas), len(args))
        )
    mapping = dict(zip(formula.lambdas, args))
    return replace(formula, lambdas=(), atoms=subst_atoms(formula.atoms, mapping))


def _canon(formula: Formula) -> Formula:
    bound = tuple(formula.lambdas) + tuple(formula.existentials)
    mapping = {name: Var("b%d" % i) for i, name in enumerate(bound)}
    return replace(
        formula,
        lambdas=tuple("b%d" % i for i in range(len(formula.lambdas))),
        existentials=tuple(
            "b%d" % i
            for i in range(len(formula.lambdas), len(bound))
        ),
        atoms=subst_atoms(formula.atoms, mapping),
    )


def alpha_eq(f1: Formula, f2: Formula) -> bool:
    """Equality up to consistent renaming of bound variables.

    Atom order is significant; free variables must match verbatim.
    """
    if len(f1.lambdas) != len(f2.lambdas):
        return False
    if len(f1.existentials) != len(f2.existentials):
        return False
    return _canon(f1) == _canon(f2)


def expand_equiv(sig: Signature):
    """Expand an EquivIn head into its three joint parts.

    Returns (base, target_pattern, link): the compiled base signature with
    the head replaced by its plain name, a fully-wildcarded pattern over
    the target language, and the `eq` atom linking the two function
    variables.  The query engine resolves the parts jointly.
    """
    if not isinstance(sig.head, EquivInHead):
        raise NotEquivHead("expand_equiv requires an EquivIn head")
    base_sig = replace(sig, head=Plain(Const(sig.head.base_name)))
    base = compile_signature(base_sig)
    target_pattern = Signature(
        lang=Const(sig.head.target_lang),
        namespace=Wildcard("N"),
        class_name=Wildcard("C"),
        head=Plain(Wildcard("f'")),
        params_wildcard=True,
        ret=Wildcard("r"),
    )
    link = Atom("eq", (Var("f"), Var("f'")))
    return base, target_pattern, link


def print_term(term: Term, formula: Formula = None) -> str:
    """A term's text; an App's argument list follows formula's arity mode."""
    if isinstance(term, Var):
        return term.name
    if isinstance(term, ConstTok):
        return term.token
    if isinstance(term, App):
        args = ",".join(print_term(a) for a in term.args)
        if formula is not None and formula.arity_unconstrained:
            args = "?"
        elif formula is not None and formula.min_arity:
            args += ",..."
        return "%s(%s)" % (print_term(term.fn), args)
    # knowledge-base witnesses are plain strings
    return str(term)


def print_atom(atom: Atom, formula: Formula = None) -> str:
    return "%s(%s)" % (
        atom.pred, ",".join(print_term(a, formula) for a in atom.args)
    )


def print_formula(formula: Formula) -> str:
    parts = ["lam %s ." % x for x in formula.lambdas]
    parts += ["ex %s ." % x for x in formula.existentials]
    parts.append(" & ".join(print_atom(a, formula) for a in formula.atoms))
    return " ".join(parts)


def validate_formula(formula: Formula):
    """Check the fixed predicate arities and App placement; raise on failure."""
    bound = set(formula.lambdas) | set(formula.existentials)

    def check_term(term, app_ok=False):
        if isinstance(term, App):
            if not app_ok:
                raise LogicError("App term outside the second arg of eq")
            check_term(term.fn)
            for a in term.args:
                check_term(a)

    for atom in formula.atoms:
        # Atom.__post_init__ enforces predicates and arity; check placement
        for i, arg in enumerate(atom.args):
            check_term(arg, app_ok=(atom.pred == "eq" and i == 1))
    return bound
