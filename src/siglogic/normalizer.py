"""Normalization of raw per-language signature strings.

Three raw dialects are supported, matching the documentation styles they
were lifted from, plus a pass-through for already-normalized text:

    java    lang Math long max(long a,long b)
    python  decimal Context max(a b)
    php     mixed max(mixed $value1, mixed $value2, ..)

Missing information is filled with defaults: namespace -> core,
class -> builtin, types and return -> UNK.  Language tags are lowercased
so cross-language joins compare reliably.
"""

from __future__ import annotations

import dataclasses
import enum

from . import dsl
from .model import (
    UNK,
    Const,
    Param,
    Plain,
    Signature,
    TOKEN_RE,
    is_ground,
)


class Dialect(enum.Enum):
    JAVA = "java"
    PYTHON = "python"
    PHP = "php"
    NORMALIZED = "normalized"


class DialectParseError(ValueError):
    def __init__(self, dialect: Dialect, position: int, message: str):
        self.dialect = dialect
        self.position = position
        super().__init__(
            "%s dialect, at offset %d: %s" % (dialect.value, position, message)
        )


class NotGroundAfterNormalize(ValueError):
    """Raw text contained wildcard syntax; wildcards are query-only."""


def normalize(raw: str, dialect: Dialect, lang_tag: str) -> Signature:
    if not raw.strip():
        raise DialectParseError(dialect, 0, "empty input")
    if not TOKEN_RE.fullmatch(lang_tag):
        raise ValueError("invalid language tag: %r" % (lang_tag,))
    lang_tag = lang_tag.lower()

    if dialect is Dialect.NORMALIZED:
        try:
            sig = dsl.parse_signature(raw)
        except dsl.ParseError as e:
            raise DialectParseError(
                dialect, e.byte_offset,
                "expected %s, found %s" % (e.expected, e.found),
            ) from e
        if not is_ground(sig):
            raise NotGroundAfterNormalize(
                "normalized input contains wildcards: %r" % (raw,)
            )
        lang = sig.lang
        if isinstance(lang, Const) and lang.token != lang.token.lower():
            sig = dataclasses.replace(sig, lang=Const(lang.token.lower()))
        return sig

    if "?" in raw:
        raise NotGroundAfterNormalize(
            "raw input contains wildcard syntax: %r" % (raw,)
        )

    head_text, args_text = _split_paren(raw, dialect)
    tokens = head_text.split()
    if dialect is Dialect.JAVA:
        ns, cls, ret, name = _head_java(tokens, raw, dialect)
        params, vararg = _params_typed(args_text, raw, dialect, sigils=False)
    elif dialect is Dialect.PYTHON:
        ns, cls, ret, name = _head_python(tokens, raw, dialect)
        params, vararg = _params_untyped(args_text, raw, dialect)
    else:
        ns, cls, ret, name = _head_php(tokens, raw, dialect)
        params, vararg = _params_typed(args_text, raw, dialect, sigils=True)

    if vararg and not params:
        raise DialectParseError(
            dialect, raw.index("("), "vararg marker requires a preceding parameter"
        )
    return Signature(
        lang=Const(lang_tag),
        namespace=_const_tok(ns, raw, dialect),
        class_name=_const_tok(cls, raw, dialect),
        head=Plain(_const_tok(name, raw, dialect)),
        params=tuple(params),
        vararg=vararg,
        ret=UNK if ret is None else _const_tok(ret, raw, dialect),
    )


def _split_paren(raw: str, dialect: Dialect):
    open_i = raw.find("(")
    if open_i < 0:
        raise DialectParseError(dialect, len(raw), "missing '(' before parameters")
    close_i = raw.rfind(")")
    if close_i < open_i:
        raise DialectParseError(dialect, len(raw), "missing closing ')'")
    if raw[close_i + 1 :].strip():
        raise DialectParseError(dialect, close_i + 1, "trailing text after ')'")
    return raw[:open_i], raw[open_i + 1 : close_i]


def _head_java(tokens, raw, dialect):
    # [namespace] [class] returntype name — identified from the right.
    if not tokens or len(tokens) > 4:
        raise DialectParseError(
            dialect, 0, "expected `[namespace] [class] returntype name(`"
        )
    name = tokens[-1]
    ret = tokens[-2] if len(tokens) >= 2 else None
    cls = tokens[-3] if len(tokens) >= 3 else "builtin"
    ns = tokens[-4] if len(tokens) >= 4 else "core"
    return ns, cls, ret, name


def _head_python(tokens, raw, dialect):
    # [module] [class] name — python docs carry no return type here.
    if not tokens or len(tokens) > 3:
        raise DialectParseError(dialect, 0, "expected `[module] [class] name(`")
    name = tokens[-1]
    cls = tokens[-2] if len(tokens) >= 3 else "builtin"
    ns = tokens[0] if len(tokens) >= 2 else "core"
    return ns, cls, None, name


def _head_php(tokens, raw, dialect):
    # returntype name — namespace and class are never written in PHP docs.
    if not tokens or len(tokens) > 2:
        raise DialectParseError(dialect, 0, "expected `[returntype] name(`")
    name = tokens[-1]
    ret = tokens[-2] if len(tokens) >= 2 else None
    return "core", "builtin", ret, name


_VARARG = ("..", "...")


def _params_typed(args_text, raw, dialect, sigils: bool):
    params = []
    vararg = False
    groups = [g.strip() for g in args_text.split(",")] if args_text.strip() else []
    for i, group in enumerate(groups):
        if group in _VARARG:
            if i != len(groups) - 1:
                raise DialectParseError(
                    dialect, raw.index(group), "vararg marker must be last"
                )
            vararg = True
            continue
        words = group.split()
        if len(words) == 1:
            type_tok, name_tok = None, words[0]
        elif len(words) == 2:
            type_tok, name_tok = words
        else:
            raise DialectParseError(
                dialect, raw.index(group), "expected `type name` or `name`: %r" % group
            )
        if sigils and name_tok.startswith("$"):
            name_tok = name_tok[1:]
        params.append(
            Param(
                UNK if type_tok is None else _const_tok(type_tok, raw, dialect),
                _const_tok(name_tok, raw, dialect),
                len(params) + 1,
            )
        )
    return params, vararg


def _params_untyped(args_text, raw, dialect):
    # space-separated names, commas tolerated
    vararg = False
    names = args_text.replace(",", " ").split()
    if names and names[-1] in _VARARG:
        names = names[:-1]
        vararg = True
    params = [
        Param(UNK, _const_tok(n, raw, dialect), i + 1) for i, n in enumerate(names)
    ]
    return params, vararg


def _const_tok(tok, raw, dialect):
    if tok == "UNK":
        return UNK
    if not TOKEN_RE.fullmatch(tok):
        raise DialectParseError(
            dialect, max(raw.find(tok), 0), "invalid token %r" % (tok,)
        )
    return Const(tok)



