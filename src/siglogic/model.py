"""Core data model for normalized function signatures.

A signature describes one function: the language it comes from, its
namespace and class, the function name, an ordered list of typed named
parameters, and a return slot.  Any slot may be a concrete token, the
placeholder ``UNK`` (information known to be missing), or a query-side
wildcard ``label?``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

# Character set of concrete tokens, the DSL grammar's `token`.  `|` and
# `:` lie outside it, so the KB's `|`-joined witness ids are injective.
TOKEN_RE = re.compile(r"[A-Za-z0-9._$'-]+")


class ModelError(ValueError):
    """Raised when a model value violates its invariants."""


class NotGround(ModelError):
    """Raised when a ground signature is required but wildcards are present."""


@dataclass(frozen=True)
class Const:
    """A concrete token in a slot (type name, identifier, language tag...)."""

    token: str

    def __post_init__(self):
        if not TOKEN_RE.fullmatch(self.token):
            raise ModelError("invalid constant token: %r" % (self.token,))
        if self.token == "UNK":
            # UNK has its own model value so that print/parse stay bijective.
            raise ModelError("use Unk, not Const('UNK')")


@dataclass(frozen=True)
class Unk:
    """Placeholder for missing information.  Ground, unlike a wildcard."""


UNK = Unk()


@dataclass(frozen=True)
class Wildcard:
    """Query variable in a slot; equal labels in one signature co-refer."""

    label: str

    def __post_init__(self):
        if not TOKEN_RE.fullmatch(self.label):
            raise ModelError("invalid wildcard label: %r" % (self.label,))


SlotValue = Union[Const, Unk, Wildcard]


def slot_token(slot: SlotValue) -> str:
    """Token-level view of a ground slot (Unk reads as the token UNK)."""
    if isinstance(slot, Const):
        return slot.token
    if isinstance(slot, Unk):
        return "UNK"
    raise NotGround("wildcard %s? has no token" % slot.label)


@dataclass(frozen=True)
class Param:
    type_slot: SlotValue
    name_slot: SlotValue
    position: int  # 1-based

    def __post_init__(self):
        if self.position < 1:
            raise ModelError("param position must be >= 1")


@dataclass(frozen=True)
class Plain:
    """Ordinary function head; the name is a slot (may be UNK or a wildcard)."""

    name_slot: SlotValue


@dataclass(frozen=True)
class EquivIn:
    """Head requesting the equivalent of `base_name` in `target_lang`."""

    base_name: str
    target_lang: str

    def __post_init__(self):
        for tok in (self.base_name, self.target_lang):
            if not TOKEN_RE.fullmatch(tok):
                raise ModelError("invalid EquivIn token: %r" % (tok,))


FunctionHead = Union[Plain, EquivIn]


@dataclass(frozen=True)
class Signature:
    lang: SlotValue
    namespace: SlotValue
    class_name: SlotValue
    head: FunctionHead
    params: tuple = field(default=())
    params_wildcard: bool = False
    vararg: bool = False
    ret: SlotValue = UNK

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        for i, p in enumerate(self.params, start=1):
            if p.position != i:
                raise ModelError("param positions must be contiguous from 1")
        if self.params_wildcard and (self.params or self.vararg):
            raise ModelError("whole-list wildcard excludes explicit params")
        if self.vararg and not self.params:
            # the concrete syntax only admits `,...` after at least one param
            raise ModelError("vararg requires at least one explicit param")
        if isinstance(self.head, EquivIn) and not isinstance(self.lang, Const):
            raise ModelError("EquivIn requires a concrete source language")


@dataclass(frozen=True)
class FunctionKey:
    """Identity of a concrete function; arity keeps overloads distinct."""

    lang: str
    namespace: str
    class_name: str
    name: str
    arity: int

    def __post_init__(self):
        for tok in (self.lang, self.namespace, self.class_name, self.name):
            if not TOKEN_RE.fullmatch(tok):
                raise ModelError("invalid key token: %r" % (tok,))
        if self.arity < 0:
            raise ModelError("arity must be >= 0")


def is_ground(sig: Signature) -> bool:
    """True iff sig contains no wildcard anywhere.  UNK counts as ground."""
    if sig.params_wildcard:
        return False
    if not isinstance(sig.head, Plain):
        return False
    if not isinstance(sig.head.name_slot, Const):
        return False
    return Wildcard not in map(type, _slots(sig))


def function_key(sig: Signature) -> FunctionKey:
    """Identity of a ground signature.  Vararg `...` does not count in arity."""
    if not is_ground(sig):
        raise NotGround("function_key requires a ground signature")
    return FunctionKey(
        lang=slot_token(sig.lang),
        namespace=slot_token(sig.namespace),
        class_name=slot_token(sig.class_name),
        name=slot_token(sig.head.name_slot),
        arity=len(sig.params),
    )


def _slots(sig: Signature):
    """Every slot of sig in written order: language, namespace, class,
    head, then each parameter (type before name), then the return slot.
    """
    yield sig.lang
    yield sig.namespace
    yield sig.class_name
    if isinstance(sig.head, Plain):
        yield sig.head.name_slot
    for p in sig.params:
        yield p.type_slot
        yield p.name_slot
    yield sig.ret


def wildcard_labels(sig: Signature) -> list:
    """Distinct wildcard labels in first-occurrence (written) order."""
    return list(
        dict.fromkeys(s.label for s in _slots(sig) if isinstance(s, Wildcard))
    )
