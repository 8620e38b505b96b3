"""Parser and printer for the normalized signature syntax.

Grammar (whitespace between top-level tokens is insignificant):

    signature   = lang ns cls "::" head "(" paramspec ")" "->" slot
    head        = slot | "EquivIn(" token "," token ")"
    paramspec   = "?" | [ param { "," param } [ ",..." ] ]
    param       = slot ":" slot
    slot        = token | ident "?"
    token,ident = [A-Za-z0-9._$'-]+

The printer emits the canonical form: single spaces between the three
leading slots, no space around "::", params comma-separated without
spaces, " -> " before the return slot.  It prints a flat row of slot
strings (`print_row`), a Signature's read through `model.signature_row`,
so a stored row prints as it is.

A line with a plain head and an explicit parameter list, as every KB
line and every printed ground signature has, is read by one whole-line
match (`_line_re`).  Any other text (an `EquivIn(` head, a `(?)` list,
a malformed line) falls back to the scanner, which is also the only
source of every ParseError.  Both paths share one Const per distinct
token, one Wildcard per distinct label and one frozen Param per distinct
(type, name).  A KB text is read
in one pass of a pattern built from the same line grammar (`read_rows`),
whose whitespace ends at a line break: each ground line goes into a flat
row of token strings with no Signature, one string per distinct token
of the text, shared through a table of the read's own.
"""

from __future__ import annotations

import functools
import re

from .model import (
    EquivIn,
    Param,
    Signature,
    SlotValue,
    TOKEN_CHAR,
    TOKEN_RE,
    Wildcard,
    ground_slot,
    lang_token,
    signature_row,
    unchecked_key,
    wildcard_slot,
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
        self.match_slot = _slot_re().match

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

    def _match(self, what: str):
        # whitespace, a token and an optional `?`: one match at pos; the
        # error path skips the whitespace to report the offset after it
        m = self.match_slot(self.text, self.pos)
        if not m:
            self.skip_ws()
            self.fail(what)
        return m

    def token(self, what: str = "a token") -> str:
        m = self._match(what)
        self.pos = m.end(1)
        return m.group(1)

    def slot_text(self, what: str) -> tuple:
        """The next slot's token and its wildcard mark (`?` or empty)."""
        m = self._match(what)
        self.pos = m.end()
        return m.groups()

    def slot(self, what: str = "a slot") -> SlotValue:
        return _slot(*self.slot_text(what))


# A token ends only where the scanner's greedy match ends it, so a
# backtracking match never splits one token into two: its `++` is possessive.
_TOKEN = TOKEN_CHAR + "++"
# Whitespace, then a slot's token and its wildcard mark as two groups.
_SLOT = r"\s*(%s)(\??)" % _TOKEN
# The patterns of a slot, a parameter and a whole line with a plain head
# (`_line`), each compiled on the first parse, not at import: a KB load
# reads none of them.
_slot_re = functools.cache(lambda: re.compile(_SLOT))
_param_re = functools.cache(lambda: re.compile(_SLOT + r"\s*:" + _SLOT))
_line_re = functools.cache(lambda: re.compile(_line(r"\s*", r"\??")))


def _line(ws: str, mark: str) -> str:
    """The pattern of a whole line with a plain head (not `EquivIn(`) and
    an explicit parameter list, where `...` after a comma is the vararg
    marker, as the scanner reads it; `ws` is its whitespace and `mark` a
    token's wildcard mark.  Groups: lang, namespace, class and head (token
    and mark each), the parameter span, the `,...` marker, and the return
    slot."""
    slot = "{0}({1})({2})".format(ws, _TOKEN, mark)
    param = "{0}{1}{2}{0}:{0}{1}{2}".format(ws, _TOKEN, mark)
    return (
        r"{s}{s}{s}{w}::(?!{w}EquivIn\(){s}"
        r"{w}\({w}(?:({p}(?:{w},(?!{w}\.\.\.){p})*)({w},{w}\.\.\.)?)?{w}\)"
        r"{w}->{s}{w}"
    ).format(s=slot, p=param, w=ws)


# A line with the `\n`, `\r` or `\r\n` that ends it; the last may have none.
ANY_LINE = r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+"


@functools.cache  # each compiled on its first load, not at import
def lines_re(line: str):
    """The compiled pattern with one match per line of a text: a whole
    line that `line` matches, and its break, or else any line (`ANY_LINE`)."""
    return re.compile(r"(?:%s)(?:\r\n?|\n|\Z)|%s" % (line, ANY_LINE))


# A ground KB line: its whitespace is in-line (a `\s` would run across a
# break and join two lines), and it holds no wildcard mark.
_KB_LINE = _line(r"[^\S\r\n]*", "")


def _slot(tok: str, mark: str) -> SlotValue:
    return wildcard_slot(tok) if mark else ground_slot(tok)


@functools.cache
def _param(type_tok, type_mark, name_tok, name_mark) -> Param:
    """One shared frozen Param per distinct (type, name)."""
    return Param(_slot(type_tok, type_mark), _slot(name_tok, name_mark))


def parse_signature(text: str) -> Signature:
    m = _line_re().fullmatch(text)
    if m is None:
        return _scan_signature(text)
    g = m.groups()
    params = _param_re().finditer(text, m.start(9), m.end(9)) if g[8] else ()
    return Signature(
        lang=_slot(g[0], g[1]),
        namespace=_slot(g[2], g[3]),
        class_name=_slot(g[4], g[5]),
        head=_slot(g[6], g[7]),
        params=tuple(_param(*p.groups()) for p in params),
        vararg=g[9] is not None,
        ret=_slot(g[10], g[11]),
    )


def read_rows(text: str):
    """Each line of a KB text read in one pass: `(lineno, key, row)` for a
    ground line that names its function, and `(lineno, None, line)`, its
    break cut, for any other line that is not blank.

    The row is the line's flat token row `(lang, namespace, class, name,
    ret, t1, n1, …, tn, nn, vararg)` (`model.signature_row`), its
    language as every KB stores it (`lang_token`), each distinct token one
    string through this call's own table, not a model cache.  Lines end at
    `\\n`, `\\r` or `\\r\\n` and are numbered from 1, blank ones included.
    """
    share = {}.setdefault
    for lineno, m in enumerate(lines_re(_KB_LINE).finditer(text), start=1):
        lang, ns, cls, name, span, vararg, ret = m.group(1, 3, 5, 7, 9, 10, 11)
        if lang is None or name == "UNK":
            line = m.group()
            if line.strip():
                yield lineno, None, line.rstrip("\r\n")
            continue
        params = TOKEN_RE.findall(span) if span else ()
        tokens = lang_token(lang), ns, cls, name, ret, *params
        row = (*map(share, tokens, tokens), vararg is not None)
        yield lineno, unchecked_key((*row[:4], len(params) // 2)), row


def _scan_signature(text: str) -> Signature:
    s = _Scanner(text)
    lang = s.slot("a language slot")
    namespace = s.slot("a namespace slot")
    class_name = s.slot("a class slot")
    s.expect("::")

    # Head: `EquivIn(` wins over a function literally named EquivIn.
    head = s.slot("a function head")
    if head == ground_slot("EquivIn") and s.peek() == "(":
        s.expect("(")
        base = s.token("a base function name")
        s.expect(",")
        target = s.token("a target language")
        s.expect(")")
        head = EquivIn(base, target)

    s.expect("(")
    params = []
    params_wildcard = False
    vararg = False
    s.skip_ws()
    if s.peek() == "?":
        mark = s.pos
        s.pos += 1
        params_wildcard = True
        s.skip_ws()
        if s.peek() == ",":
            raise MixedWildcardParams(mark)
    elif s.peek() != ")":
        params.append(_scan_param(s))
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
            params.append(_scan_param(s))
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


def _scan_param(s: _Scanner) -> Param:
    type_text = s.slot_text("a parameter type")
    s.expect(":")
    return _param(*type_text, *s.slot_text("a parameter name"))


def _slot_str(slot: SlotValue | EquivIn) -> str:
    if isinstance(slot, EquivIn):
        return "EquivIn(%s,%s)" % (slot.base_name, slot.target_lang)
    return slot.label + "?" if isinstance(slot, Wildcard) else slot.token


def print_signature(sig: Signature) -> str:
    params = "?" if sig.params_wildcard else None
    return print_row(signature_row(sig, _slot_str), params)


def print_row(row, params=None) -> str:
    """The line of a flat row of slot strings `(lang, namespace, class,
    head, ret, t1, n1, …, tn, nn, vararg)` (`model.signature_row`), its
    parameter list spelled `params` if given (the `?` of a `(?)` list)."""
    if params is None:
        tokens = row[5:-1]
        params = ",".join(("%s:%s",) * (len(tokens) // 2)) % tokens
        if row[-1]:
            params += ",..."
    return "%s %s %s::%s(%s) -> %s" % (*row[:4], params, row[4])
