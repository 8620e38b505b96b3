"""Normalization of raw per-language signature strings.

Three raw dialects are supported, matching the documentation styles they
were lifted from, plus a pass-through for already-normalized text:

    java    lang Math long max(long a,long b)
    python  decimal Context max(a b)
    php     mixed max(mixed $value1, mixed $value2, ..)

Missing information is filled with defaults: namespace -> core,
class -> builtin, types and return -> UNK.  Language tags are lowercased,
all but UNK (`model.lang_token`), so cross-language joins compare reliably.

A raw parameter list is read as groups.  In java and php, commas split
the groups and each is `type name` or `name`; in python each name is a
group of its own, and commas or spaces split the names.  A one-word
group is typed UNK, and php drops a leading `$` from a name.  A `..` or
`...` group marks varargs: it must be last and follow a parameter.  The
first fault in written order is the one reported.
"""

from __future__ import annotations

import enum
import re

from . import dsl
from .model import (
    UNK,
    Const,
    ModelError,
    NotGround,
    Param,
    Signature,
    TOKEN_RE,
    ground_slot,
    lang_token,
    not_ground_reason,
)


class Dialect(enum.Enum):
    JAVA = "java"
    PYTHON = "python"
    PHP = "php"
    NORMALIZED = "normalized"

    # by identity, as members compare: `Enum.__hash__` is a Python-level call
    __hash__ = object.__hash__


# Bound once: each read of a member off its class is a Python-level lookup.
_NORMALIZED, _PYTHON, _PHP = Dialect.NORMALIZED, Dialect.PYTHON, Dialect.PHP


class DialectParseError(ValueError):
    def __init__(self, dialect: Dialect, position: int, message: str):
        self.dialect = dialect
        self.position = position
        super().__init__(
            "%s dialect, at offset %d: %s" % (dialect.value, position, message)
        )


def normalize(raw: str, dialect: Dialect, lang_tag: str | None = None) -> Signature:
    """raw as a ground signature.  `lang_tag` names the language of raw
    dialect text; normalized text names its own, so there it may be None."""
    if not raw.strip():
        raise DialectParseError(dialect, 0, "empty input")
    if lang_tag is not None and not TOKEN_RE.fullmatch(lang_tag):
        raise ValueError("invalid language tag: %r" % (lang_tag,))

    if dialect is _NORMALIZED:
        try:
            sig = dsl.parse_signature(raw)
        except dsl.ParseError as e:
            raise DialectParseError(
                dialect, e.byte_offset,
                "expected %s, found %s" % (e.expected, e.found),
            ) from e
        reason = not_ground_reason(sig)
        if reason is not None:
            raise NotGround("normalized input %s: %r" % (reason, raw))
        return lowercase_lang(sig)

    if lang_tag is None:
        raise ValueError("the %s dialect needs a language tag" % dialect.value)
    if "?" in raw:
        raise NotGround("raw input contains wildcard syntax: %r" % (raw,))

    head_text, args_text, args_at = _split_paren(raw, dialect)
    ns, cls, ret, name = _head(_words(head_text, 0), dialect)
    params, vararg = _params(args_text, args_at, dialect)
    if name[1] == "UNK":  # ground, but a stored signature names its function
        raise DialectParseError(dialect, name[0], "function name may not be UNK")
    return Signature(
        lang=ground_slot(lang_token(lang_tag)),
        namespace=_const_tok(ns, dialect),
        class_name=_const_tok(cls, dialect),
        head=_const_tok(name, dialect),
        params=tuple(params),
        vararg=vararg,
        ret=UNK if ret is None else _const_tok(ret, dialect),
    )


def lowercase_lang(sig: Signature) -> Signature:
    """sig with its language tag as every KB stores it (`lang_token`)."""
    lang = sig.lang
    if isinstance(lang, Const) and lang.token != lang_token(lang.token):
        sig = sig._replace(lang=ground_slot(lang_token(lang.token)))
    return sig


def _split_paren(raw: str, dialect: Dialect):
    open_i = raw.find("(")
    if open_i < 0:
        raise DialectParseError(dialect, len(raw), "missing '(' before parameters")
    close_i = raw.rfind(")")
    if close_i < open_i:
        raise DialectParseError(dialect, len(raw), "missing closing ')'")
    if raw[close_i + 1 :].strip():
        raise DialectParseError(dialect, close_i + 1, "trailing text after ')'")
    return raw[:open_i], raw[open_i + 1 : close_i], open_i + 1


_WORD_RE = re.compile(r"\S+")

# Defaults for a slot the raw text leaves out; they are valid tokens, so
# their offset is never reported.
_CORE, _BUILTIN = (0, "core"), (0, "builtin")


def _words(text, start):
    """(offset, word) for each word of text, which starts at `start` in raw.

    Errors report these offsets, so each names the occurrence at fault.
    """
    return [(start + m.start(), m.group()) for m in _WORD_RE.finditer(text)]


# Each raw dialect's head: its usage text and, by word count, the slot
# each word fills (s namespace, c class, r return type, n name).  Python
# docs carry no return type, PHP docs no namespace or class.
_HEADS = {
    Dialect.JAVA: ("[namespace] [class] returntype name(", ("n", "rn", "crn", "scrn")),
    Dialect.PYTHON: ("[module] [class] name(", ("n", "sn", "scn")),
    Dialect.PHP: ("[returntype] name(", ("n", "rn")),
}


def _head(words, dialect):
    """The (namespace, class, return type, name) words of a raw head; a
    slot the head leaves out is its default, the return type None."""
    usage, layouts = _HEADS[dialect]
    if not 0 < len(words) <= len(layouts):
        raise DialectParseError(dialect, 0, "expected `%s`" % usage)
    slot = dict(zip(layouts[len(words) - 1], words))
    return slot.get("s", _CORE), slot.get("c", _BUILTIN), slot.get("r"), slot["n"]


_VARARG = ("..", "...")


def _params(args_text, start, dialect):
    """The params and vararg flag of a raw parameter list that starts at
    `start` in raw, read group by group by the rules of the module docstring."""
    if dialect is _PYTHON:
        groups = _words(args_text.replace(",", " "), start)
    else:
        groups, at = [], start
        for text in args_text.split(",") if args_text.strip() else ():
            group = text.strip()
            groups.append((at + text.find(group), group))  # at its first word, if any
            at += len(text) + 1  # past the group and its comma
    params, php = [], dialect is _PHP
    for at, group in groups:
        if group in _VARARG:
            if (at, group) != groups[-1]:  # no two groups share an offset
                raise DialectParseError(dialect, at, "vararg marker must be last")
            if not params:
                raise DialectParseError(
                    dialect, start - 1, "vararg marker requires a preceding parameter"
                )
            return params, True
        words = group.split()
        if len(words) == 1:
            type_slot, name_at, name = UNK, at, group
        elif len(words) == 2:
            type_slot, name = _const_tok((at, words[0]), dialect), words[1]
            name_at = at + len(group) - len(name)  # the name ends the group
        else:
            raise DialectParseError(
                dialect, at, "expected `type name` or `name`: %r" % group
            )
        if php and name.startswith("$"):
            name_at, name = name_at + 1, name[1:]
        params.append(Param(type_slot, _const_tok((name_at, name), dialect)))
    return params, False


def _const_tok(word, dialect):
    """The slot value of an (offset, token) word."""
    at, tok = word
    try:
        return ground_slot(tok)
    except ModelError:
        raise DialectParseError(dialect, at, "invalid token %r" % (tok,)) from None
