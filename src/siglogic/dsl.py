"""Parser and printer for the normalized signature syntax.

Grammar (whitespace between top-level tokens is insignificant):

    signature   = lang ns cls "::" head "(" paramspec ")" "->" slot
    head        = slot | "EquivIn(" token "," token ")"
    paramspec   = "?" | [ param { "," param } [ ",..." ] ]
    param       = slot ":" slot
    slot        = token | ident "?" | "UNK"
    token,ident = [A-Za-z0-9._$'-]+

The printer emits the canonical form: single spaces between the three
leading slots, no space around "::", params comma-separated without
spaces, " -> " before the return slot.
"""

from __future__ import annotations

from .model import (
    UNK,
    Const,
    EquivIn,
    Param,
    Plain,
    Signature,
    SlotValue,
    TOKEN_RE,
    Wildcard,
    slot_token,
)


class ParseError(ValueError):
    def __init__(self, byte_offset: int, expected: str, found: str):
        self.byte_offset = byte_offset
        self.expected = expected
        self.found = found
        super().__init__(
            "at offset %d: expected %s, found %s" % (byte_offset, expected, found)
        )


class MixedWildcardParams(ParseError):
    """`?` (whole-list wildcard) mixed with explicit parameters."""

    def __init__(self, byte_offset: int):
        super().__init__(
            byte_offset,
            "either a bare `?` parameter list or explicit params, not both",
            "'?'",
        )


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def found(self) -> str:
        if self.at_end():
            return "end of input"
        return repr(self.text[self.pos])

    def fail(self, expected: str):
        raise ParseError(self.pos, expected, self.found())

    def expect(self, literal: str):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            self.fail(repr(literal))
        self.pos += len(literal)

    def token(self, what: str = "a token") -> str:
        self.skip_ws()
        m = TOKEN_RE.match(self.text, self.pos)
        if not m:
            self.fail(what)
        self.pos = m.end()
        return m.group()

    def slot(self, what: str = "a slot") -> SlotValue:
        tok = self.token(what)
        if self.peek() == "?":
            self.pos += 1
            return Wildcard(tok)
        if tok == "UNK":
            return UNK
        return Const(tok)


def parse_signature(text: str) -> Signature:
    s = _Scanner(text)
    lang = s.slot("a language slot")
    namespace = s.slot("a namespace slot")
    class_name = s.slot("a class slot")
    s.expect("::")

    # Head: `EquivIn(` wins over a function literally named EquivIn.
    head_pos = s.pos
    tok = s.token("a function head")
    if tok == "EquivIn" and s.peek() == "(":
        s.expect("(")
        base = s.token("a base function name")
        s.expect(",")
        target = s.token("a target language")
        s.expect(")")
        head = EquivIn(base, target)
    else:
        s.pos = head_pos
        head = Plain(s.slot("a function head"))

    s.expect("(")
    params = []
    params_wildcard = False
    vararg = False
    s.skip_ws()
    if s.peek() == "?":
        s.pos += 1
        params_wildcard = True
        s.skip_ws()
        if s.peek() == ",":
            raise MixedWildcardParams(s.pos)
    elif s.peek() != ")":
        params.append(_param(s, len(params) + 1))
        while True:
            s.skip_ws()
            if s.peek() != ",":
                break
            s.pos += 1
            s.skip_ws()
            if s.text.startswith("...", s.pos):
                s.pos += 3
                vararg = True
                break
            if s.peek() == "?":
                raise MixedWildcardParams(s.pos)
            params.append(_param(s, len(params) + 1))
    s.expect(")")
    s.expect("->")
    ret = s.slot("a return slot")
    s.skip_ws()
    if not s.at_end():
        s.fail("end of input")
    return Signature(
        lang=lang,
        namespace=namespace,
        class_name=class_name,
        head=head,
        params=tuple(params),
        params_wildcard=params_wildcard,
        vararg=vararg,
        ret=ret,
    )


def _param(s: _Scanner, position: int) -> Param:
    type_slot = s.slot("a parameter type")
    s.expect(":")
    name_slot = s.slot("a parameter name")
    return Param(type_slot, name_slot, position)


def _slot_str(slot: SlotValue) -> str:
    return slot.label + "?" if isinstance(slot, Wildcard) else slot_token(slot)


def print_signature(sig: Signature) -> str:
    if isinstance(sig.head, EquivIn):
        head = "EquivIn(%s,%s)" % (sig.head.base_name, sig.head.target_lang)
    else:
        head = _slot_str(sig.head.name_slot)
    if sig.params_wildcard:
        params = "?"
    else:
        params = ",".join(
            "%s:%s" % (_slot_str(p.type_slot), _slot_str(p.name_slot))
            for p in sig.params
        )
        if sig.vararg:
            params += ",..."
    return "%s %s %s::%s(%s) -> %s" % (
        _slot_str(sig.lang),
        _slot_str(sig.namespace),
        _slot_str(sig.class_name),
        head,
        params,
        _slot_str(sig.ret),
    )
