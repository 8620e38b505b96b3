"""Core data model for normalized function signatures.

A signature describes one function: the language it comes from, its
namespace and class, the function name, an ordered list of typed named
parameters, and a return slot.  Any slot may be a concrete token or a
query-side wildcard ``label?``; the token ``UNK`` marks information known
to be missing, and is ground like any other.

Each value type here and in `logic` is an immutable named tuple on
`Value` whose `__new__` checks it, also when `_replace`, `copy.replace`
or `_make` builds it.  A value equals only its own class's
(`Const("x") != Wildcard("x") != ("x",)`).
"""

from __future__ import annotations

import functools
import re
from collections import namedtuple

# Character set of concrete tokens, the DSL grammar's `token`.  `|` and
# `:` lie outside it, so the KB's `|`-joined witness ids are injective.
TOKEN_CHAR = r"[A-Za-z0-9._$'-]"
TOKEN_RE = re.compile(TOKEN_CHAR + "+")
# A key's text, `lang|namespace|class|name|arity` (`FunctionKey.text`): four
# tokens and an arity of ASCII digits, each a group.
KEY_TEXT = r"({0})\|({0})\|({0})\|({0})\|([0-9]+)".format(TOKEN_RE.pattern)


class ModelError(ValueError):
    """Raised when a model value violates its invariants."""


class NotGround(ModelError):
    """Input only a query may hold: a wildcard, an EquivIn head or a
    function named UNK, where a ground signature is required."""


class Value(tuple):  # each value type is `X(Value, namedtuple("X", fields))`
    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):  # else tuple's, which compares across classes
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        raise TypeError("%s values are not ordered" % type(self).__name__)

    __le__ = __gt__ = __ge__ = __lt__

    # namedtuple's `_replace`, `__replace__` (`copy.replace`) and `_make` skip __new__
    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    __replace__ = _replace

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Const(Value, namedtuple("Const", "token")):
    """A concrete token in a slot: a type, a name, a language tag, or UNK."""

    __slots__ = ()

    def __new__(cls, token):
        if not TOKEN_RE.fullmatch(token):
            raise ModelError("invalid constant token: %r" % (token,))
        return tuple.__new__(cls, (token,))


@functools.cache  # unbounded: parsed, normalized and rebuilt signatures' tokens
def ground_slot(tok: str) -> Const:
    """One shared Const per distinct token."""
    return Const(tok)


UNK = ground_slot("UNK")


def lang_token(tok: str) -> str:
    """A language tag as every KB stores it: lowercased, unless it is UNK."""
    return tok if tok == "UNK" else tok.lower()


class Wildcard(Value, namedtuple("Wildcard", "label")):
    """Query variable in a slot; equal labels in one signature co-refer."""

    __slots__ = ()

    def __new__(cls, label):
        if not TOKEN_RE.fullmatch(label):
            raise ModelError("invalid wildcard label: %r" % (label,))
        return tuple.__new__(cls, (label,))


@functools.cache  # unbounded: the labels of parsed and expanded queries
def wildcard_slot(label: str) -> Wildcard:
    """One shared Wildcard per distinct label, the twin of `ground_slot`."""
    return Wildcard(label)


# `|` unions, not typing.Union: typing caches each Union it builds, which
# keeps a re-imported module alive, shared-value caches included.
SlotValue = Const | Wildcard


class Param(Value, namedtuple("Param", "type_slot name_slot")):
    __slots__ = ()


class EquivIn(Value, namedtuple("EquivIn", "base_name target_lang")):
    """Head requesting the equivalent of `base_name` in `target_lang`."""

    __slots__ = ()

    def __new__(cls, base_name, target_lang):
        for tok in (base_name, target_lang):
            if not TOKEN_RE.fullmatch(tok):
                raise ModelError("invalid EquivIn token: %r" % (tok,))
        return tuple.__new__(cls, (base_name, target_lang))


class Signature(Value, namedtuple(
    "Signature", "lang namespace class_name head params params_wildcard vararg ret"
)):
    """A plain head is its name slot; `params` are Params, numbered 1.. by place."""

    __slots__ = ()

    def __new__(cls, lang, namespace, class_name, head, params=(),
                params_wildcard=False, vararg=False, ret=UNK):
        params = tuple(params)
        if params_wildcard and (params or vararg):
            raise ModelError("whole-list wildcard excludes explicit params")
        if vararg and not params:
            # the concrete syntax only admits `,...` after at least one param
            raise ModelError("vararg requires at least one explicit param")
        if isinstance(head, EquivIn) and isinstance(lang, Wildcard):
            raise ModelError("EquivIn requires a concrete source language")
        return tuple.__new__(cls, (lang, namespace, class_name, head, params,
                                   params_wildcard, vararg, ret))


class FunctionKey(namedtuple("FunctionKey", "lang namespace class_name name arity")):
    """Identity of a concrete function; arity keeps overloads distinct.

    It equals, hashes and orders like its tuple.  Building one checks each
    token and the arity; `_make` skips that, for tokens already checked.
    """

    __slots__ = ()

    def __new__(cls, lang, namespace, class_name, name, arity):
        for tok in (lang, namespace, class_name, name):
            if not TOKEN_RE.fullmatch(tok):
                raise ModelError("invalid key token: %r" % (tok,))
        if arity < 0:
            raise ModelError("arity must be >= 0")
        return super().__new__(cls, lang, namespace, class_name, name, arity)

    # a C-level getter, so a map over keys reads their texts with no frame each
    text = property("%s|%s|%s|%s|%d".__mod__, doc=(
        """`lang|ns|class|name|arity`, as witnesses and links files spell
        the key; `|` lies outside the token charset, so it is injective."""))

    @classmethod
    def parse(cls, text: str) -> FunctionKey:
        """The key `text` spells, its language as every KB stores it.

        A text that is not `KEY_TEXT` is checked field by field, as
        written, and the first fault found is raised.
        """
        m = _key_re().fullmatch(text)
        if m is None:
            fields = text.split("|")
            if len(fields) != 5:
                raise ModelError("expected `lang|ns|class|name|arity`")
            # ASCII digits only: `int` would also read `+2`, `2_0`, ` 2` and `\u0662`
            if not (fields[4].isascii() and fields[4].isdigit()):
                raise ModelError("invalid arity %r" % fields[4])
            cls(*fields[:4], 0)  # raises for the first invalid token
        lang, namespace, class_name, name, arity = m.groups()
        return cls._make((lang_token(lang), namespace, class_name, name, int(arity)))


# `FunctionKey._make` without its Python-level call, for fields already checked
unchecked_key = functools.partial(tuple.__new__, FunctionKey)


@functools.cache  # compiled on the first parse, not at import
def _key_re():
    return re.compile(KEY_TEXT)


def is_ground(sig: Signature) -> bool:
    """True iff sig names its function and has no wildcard; UNK is ground."""
    return not_ground_reason(sig) is None


def not_ground_reason(sig: Signature) -> str | None:
    """What keeps sig from being ground, as a clause, or None if it is."""
    if isinstance(sig.head, EquivIn):
        return "has an EquivIn head"
    if sig.head == UNK:
        return "names its function UNK"
    if sig.params_wildcard or Wildcard in map(type, signature_row(sig)):
        return "contains wildcards"
    return None


def function_key(sig: Signature) -> FunctionKey:
    """Identity of a ground signature.  Vararg `...` does not count in arity."""
    if not is_ground(sig):
        raise NotGround("function_key requires a ground signature")
    # a ground signature's slots are Consts, their tokens already checked
    return FunctionKey._make((
        sig.lang.token, sig.namespace.token, sig.class_name.token,
        sig.head.token, len(sig.params),
    ))


def signature_row(sig: Signature, term=None) -> tuple:
    """sig as a flat row `(lang, namespace, class, name, ret, t1, n1, …,
    tn, nn, vararg)`, each slot as is or through `term`; the one walk
    over its slots.  The compiler reads a row of formula terms, the KB
    stores token rows, and the matcher reads a query's slots from one."""
    slots = [sig.lang, sig.namespace, sig.class_name, sig.head, sig.ret]
    for p in sig.params:
        slots += p.type_slot, p.name_slot
    return (*(slots if term is None else map(term, slots)), sig.vararg)


def wildcard_labels(sig: Signature) -> list:
    """Distinct wildcard labels in first-occurrence (written) order:
    language, namespace, class, head, each parameter (type before name),
    then the return slot."""
    row = signature_row(sig)
    written = (*row[:4], *row[5:-1], row[4])
    return list(
        dict.fromkeys(s.label for s in written if isinstance(s, Wildcard))
    )
