"""Command-line interface.

Subcommands:

    normalize   raw signature lines -> normalized DSL lines
    compile     normalized lines -> canonical logic formulas
    ingest      normalize input and extend a KB corpus file
    query       run a wildcard query against a KB
    equiv       run an EquivIn query against a KB plus an equivalence file
    facts       dump the KB's ground facts

A KB is a plain text file of normalized signatures, one per line, and
`ingest` extends it atomically (the whole new file is written beside it,
then renamed over it).  An equivalence file holds one link per line: two
tab-separated keys, each `lang|namespace|class|name|arity`.  The CLI
reads each file and hands it to the library's loader (`kb.load_kb`,
`kb.load_links`), whose `path:line: message` diagnostic (`kb.LineError`)
it prints.

Beside a KB the CLI keeps its row snapshot, `<kb>.rows`, as Python keeps
`__pycache__`: the loaded rows in `marshal` form, about the KB's size,
with a digest of the KB's bytes (`kb.kb_digest`, `kb.dump_snapshot`).  A
KB-reading command loads the store from it when it matches the KB
(`kb.load_snapshot`), and else from the text, and then writes it, which
makes the first call after a change a little slower than a text load;
`ingest` writes the new KB's once the KB is in place.  A snapshot is
written only of a load that succeeded, atomically, and never over a file
there that is no snapshot; one that cannot be written is left out.  The
KB text stays the only store of record: the snapshot may be deleted at
any time.  Whoever can write it can write the KB, so `marshal`'s trust
in its input adds no trust boundary.

All input is read as UTF-8; a leading byte-order mark is dropped, so
`ingest` writes the KB back without one.  Exit codes: 0 success,
1 parse/normalize error, key conflict, input that is not UTF-8 or I/O
error, 2 usage error.  `run(argv, stdin, stdout, stderr)` runs one
command in process and returns its exit code, with the cyclic collector
paused for the call; `main`, the console entry, exits with it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import itertools
import os
import re
import shutil
import sys
from _thread import allocate_lock

from . import dsl, kb, logic, normalizer
from .model import TOKEN_RE
from .normalizer import Dialect

_DIALECTS = {d.value: d for d in Dialect}  # each dialect by its name
_NORMALIZED = Dialect.NORMALIZED  # bound once: a member read off its class is slow


@functools.cache  # built on the first call, not at import; parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siglogic",
        description="Signature DSL, logic compiler, and knowledge-base queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument(
            "inputs", nargs="*", metavar="FILE",
            help="input files (default: stdin)",
        )
        p.add_argument(
            "--dialect", choices=list(_DIALECTS),
            help="dialect of all input lines; omit for tab-separated "
                 "`dialect<TAB>lang<TAB>raw` corpus lines",
        )
        p.add_argument("--lang", help="language tag of raw --dialect input")
        p.set_defaults(subparser=p)  # reports a bad --dialect/--lang pair

    p = sub.add_parser("normalize", help="normalize raw signatures")
    add_input(p)

    p = sub.add_parser("compile", help="compile normalized signatures to logic")
    p.add_argument("inputs", nargs="*", metavar="FILE")

    p = sub.add_parser("ingest", help="normalize input and extend a KB file")
    add_input(p)
    p.add_argument("--kb", required=True, help="KB corpus file to create/extend")

    p = sub.add_parser("query", help="answer a wildcard query")
    p.add_argument("query", help="query in normalized DSL syntax")
    p.add_argument("--kb", required=True)
    p.add_argument("--porcelain", action="store_true",
                   help="one tab-separated line per result")

    p = sub.add_parser("equiv", help="answer an EquivIn query")
    p.add_argument("query", help="EquivIn query in normalized DSL syntax")
    p.add_argument("--kb", required=True)
    p.add_argument("--eq", required=True, help="equivalence-link file")
    p.add_argument("--porcelain", action="store_true")

    p = sub.add_parser("facts", help="dump a KB's ground facts")
    p.add_argument("--kb", required=True)
    return parser


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read(path) -> str:
    """The text of a UTF-8 file, its line breaks as written."""
    return _decode(path, _read_bytes(path))


def _decode(path, data) -> str:
    """UTF-8 bytes as text without a leading byte-order mark; bytes that are
    not UTF-8 are a `path:line` error."""
    if isinstance(data, str):  # read from a text stream without a byte buffer
        return data.removeprefix("\ufeff")
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        head = data[:e.start].decode("utf-8")
        # `\n`, `\r` and `\r\n` each end a line, as in _lines
        lineno = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
        raise kb.LineError(path, lineno, "invalid UTF-8: %s" % e.reason)


_LINE_RE = re.compile(dsl.ANY_LINE)


def _lines(text):
    """(lineno, line) for each non-blank line of text, its line break cut.

    Lines end at `\n`, `\r` or `\r\n`, as in Python's text mode.
    """
    for i, m in enumerate(_LINE_RE.finditer(text), start=1):
        line = m.group()
        if line.strip():
            yield i, line.rstrip("\r\n")


def _input_lines(paths, stdin):
    """(path, lineno, line) for each non-blank line of the inputs."""
    for path in paths or ["<stdin>"]:
        if paths:
            text = _read(path)
        else:
            text = _decode(path, getattr(stdin, "buffer", stdin).read())
        for lineno, line in _lines(text):
            yield path, lineno, line


def _check_lang(args):
    """A usage error unless --lang is a valid tag given with a raw --dialect,
    and only then."""
    raw = args.dialect not in (None, Dialect.NORMALIZED.value)
    if raw != (args.lang is not None):
        where = "with --dialect " + args.dialect if args.dialect else "without --dialect"
        args.subparser.error("argument --lang: %s %s" % (
            "required" if raw else "not allowed", where))
    if raw and not TOKEN_RE.fullmatch(args.lang):
        args.subparser.error(
            "argument --lang: invalid language tag: %r" % (args.lang,))


def _input_sigs(args, stdin):
    """(path, lineno, sig) for each non-blank input line, normalized.

    A line has one of three shapes: raw text in the given `--dialect` (a
    tab in it is text); without `--dialect`, a `dialect<TAB>lang<TAB>raw`
    corpus line; or else a normalized DSL line.
    """
    given = args.dialect and _DIALECTS[args.dialect]
    for path, lineno, line in _input_lines(args.inputs, stdin):
        raw, dialect, tag = line, given, args.lang
        try:
            if given is None and "\t" in line:
                fields = line.split("\t")
                if len(fields) != 3:
                    raise ValueError("expected `dialect<TAB>lang<TAB>raw`")
                name, tag, raw = fields
                dialect = _DIALECTS.get(name)
                if dialect is None:
                    raise ValueError("unknown dialect %r" % name)
                if dialect is _NORMALIZED and tag:  # the text names its language
                    raise ValueError("the normalized dialect takes no language tag")
            sig = normalizer.normalize(raw, dialect or _NORMALIZED, tag or None)
        except kb.INPUT_ERRORS as e:
            raise kb.LineError(path, lineno, str(e))
        yield path, lineno, sig


def _write_atomically(path, parts, durable=True):
    """Write byte strings in turn to path by writing the whole new file,
    then renaming it; a `durable` file is synced to disk before the rename.

    The file is either unchanged or complete, never half-written.
    """
    tmp = "%s.%d.tmp" % (path, os.getpid())  # same directory: rename is atomic
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(parts)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        with contextlib.suppress(FileNotFoundError):  # a new file
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _read_kb(path):
    """The text of the KB file at path, empty where there is none, and the
    digest of its bytes (`kb.kb_digest`), which are not kept."""
    try:
        data = _read_bytes(path)
    except FileNotFoundError:
        data = b""
    return _decode(path, data), kb.kb_digest(data)


def _load_kb(path):
    """The store of the KB at path: its row snapshot's when that is one of
    the KB's bytes, else its text's (`kb.load_kb`), whose snapshot is then
    written.  A snapshot changes no diagnostic: one is written only of a
    store that a text load built."""
    data = _read_bytes(path)
    digest = kb.kb_digest(data)
    store = _read_snapshot(path, digest)
    if store is None:
        # the bytes and then the text are each held only while needed, so
        # that the text load and the snapshot's dump peak apart
        text = _decode(path, data)
        del data
        store = kb.load_kb(text, path)
        del text
        _write_snapshot(path, store, digest)
    return store


def _read_snapshot(path, digest):
    """The store of the row snapshot `<path>.rows` of the KB bytes of
    `digest` (`kb.load_snapshot`), or None."""
    try:
        return kb.load_snapshot(_read_bytes(path + ".rows"), digest)
    except OSError:  # none, or a directory, say
        return None


def _write_snapshot(path, store, digest):
    """Write the row snapshot of a store and the digest of its KB bytes to
    `<path>.rows`, but never over a file there that is no snapshot.

    A snapshot that cannot be written is left out in silence, as the KB
    text stays the only store of record; nor is one synced to disk, as
    its digest passes over one that a crash cut short."""
    rows = path + ".rows"
    with contextlib.suppress(OSError):
        with contextlib.suppress(FileNotFoundError), open(rows, "rb") as fh:
            if fh.read(len(kb.SNAPSHOT_MAGIC)) != kb.SNAPSHOT_MAGIC:
                return
        _write_atomically(rows, kb.dump_snapshot(store, digest), durable=False)


def _parse(text):
    """A DSL line's signature, its language lowercased like the KB's."""
    return normalizer.lowercase_lang(dsl.parse_signature(text))


def _write_lines(out, lines):
    """Each line and a newline, 1024 lines a write: fewer calls than a
    print per line, less memory than one string of them all."""
    for i in range(0, len(lines), 1024):
        out.write("\n".join(lines[i:i + 1024]) + "\n")


def _print_results(store, results, porcelain, out):
    ordered = sorted(results)
    lines = [] if ordered else ["0 results"]
    for i, binding in enumerate(ordered):
        line = dsl.print_row(store.rows[binding.key])
        if porcelain:
            fields = [line] + ["%s=%s" % kv for kv in binding.items]
            lines.append("\t".join(fields))
        else:
            if i:
                lines.append("")
            lines.append(line)
            lines.extend("%s=%s" % kv for kv in binding.items)
    _write_lines(out, lines)


_GC_LOCK = allocate_lock()  # `_thread`'s: `threading` would add to every import


def run(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    """Run one command, `argv` without the program name; its exit code.

    The cyclic collector is paused meanwhile and then left as it was:
    what a command builds is freed by reference counting when it returns.
    """
    with _GC_LOCK:  # else another call's re-enable could fall in between
        enabled = gc.isenabled()
        gc.disable()
    try:
        return _run(argv, stdin, stdout, stderr)
    finally:
        if enabled:
            with _GC_LOCK:
                gc.enable()


def _run(argv, stdin, stdout, stderr) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        # argparse prints help to sys.stdout and usage errors to sys.stderr
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _build_parser().parse_args(argv)
            if "dialect" in args:
                _check_lang(args)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        if args.command == "normalize":
            for _, _, sig in _input_sigs(args, stdin):
                print(dsl.print_signature(sig), file=out)

        elif args.command == "compile":
            for path, lineno, line in _input_lines(args.inputs, stdin):
                try:
                    formula = logic.compile_signature(_parse(line))
                except kb.INPUT_ERRORS as e:
                    raise kb.LineError(path, lineno, str(e))
                print(logic.print_formula(formula), file=out)

        elif args.command == "ingest":
            entries = list(_input_sigs(args, stdin))
            text, digest = _read_kb(args.kb)
            store = _read_snapshot(args.kb, digest)
            if store is None:  # a snapshot written now would be stale at once
                store = kb.load_kb(text, args.kb)
            if text and not text.endswith(("\n", "\r")):
                text += "\n"  # else the first new line joins the KB's last
            # rows and facts past these are new: a repeat adds neither
            loaded, facts = len(store.rows), len(store)
            for path, lineno, sig in entries:
                try:
                    kb.ingest_signature(store, sig)
                except kb.INPUT_ERRORS as e:
                    raise kb.LineError(path, lineno, str(e))
            new_rows = itertools.islice(store.rows.values(), loaded, None)
            data = (text + "".join(dsl.print_row(r) + "\n" for r in new_rows)).encode()
            del text
            _write_atomically(args.kb, (data,))
            digest = kb.kb_digest(data)
            del data  # neither the text nor its bytes is held through the dump
            _write_snapshot(args.kb, store, digest)
            print("ingested %d signatures, %d new facts"
                  % (len(entries), len(store) - facts), file=out)

        else:  # query, equiv and facts read the KB, then the links, then the query
            store = _load_kb(args.kb)
            if args.command == "facts":
                _write_lines(out, kb.dump_facts(store))
            else:
                eqs = kb.load_links(_read(args.eq), args.eq) if "eq" in args else None
                try:
                    query = _parse(args.query)
                    results = (kb.answer(store, query) if eqs is None
                               else kb.answer_equiv(store, eqs, query))
                except kb.INPUT_ERRORS as e:
                    raise kb.LineError("<query>", 1, str(e))
                _print_results(store, results, args.porcelain, out)

    except (kb.LineError, OSError) as e:
        print(str(e), file=err)
        return 1
    return 0


def main():  # console entry point
    # Off for the whole process, not only for `run`'s call: the interpreter's
    # shutdown runs a full collection only if the collector is on.
    gc.disable()
    raise SystemExit(run())


if __name__ == "__main__":
    main()
