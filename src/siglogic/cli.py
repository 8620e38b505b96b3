"""Command-line interface.

Subcommands:

    normalize   raw signature lines -> normalized DSL lines
    compile     normalized lines -> canonical logic formulas
    ingest      normalize input and extend a KB corpus file
    query       run a wildcard query against a KB
    equiv       run an EquivIn query against a KB plus an equivalence file
    facts       dump the KB's ground facts

A KB is a plain text file of normalized signatures, one per line; it is
re-read on every load, and `ingest` extends it atomically (the whole new
file is written beside it, then renamed over it).  An equivalence file
holds one link per line: two tab-separated keys, each
`lang|namespace|class|name|arity`.

All input is read as UTF-8.  Exit codes: 0 success, 1 parse/normalize
error, key conflict, input that is not UTF-8 or I/O error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import sys

from . import dsl, kb, logic, normalizer
from .model import FunctionKey, ModelError
from .normalizer import Dialect


class _LineError(Exception):
    def __init__(self, path, lineno, message):
        super().__init__("%s:%d: %s" % (path, lineno, message))


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
            "--dialect", choices=[d.value for d in Dialect],
            help="dialect of all input lines; omit for tab-separated "
                 "`dialect<TAB>lang<TAB>raw` corpus lines",
        )
        p.add_argument("--lang", help="language tag (required with --dialect)")

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


def _read(path) -> str:
    """The text of a UTF-8 file, its line breaks as written."""
    with open(path, "rb") as fh:
        return _decode(path, fh.read())


def _decode(path, data) -> str:
    """UTF-8 bytes as text; bytes that are not UTF-8 are a `path:line` error."""
    if isinstance(data, str):  # read from a text stream without a byte buffer
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start].decode("utf-8")
        # `\n`, `\r` and `\r\n` each end a line, as in _lines
        lineno = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
        raise _LineError(path, lineno, "invalid UTF-8: %s" % e.reason)


def _lines(text):
    """(lineno, line) for each non-blank line of text, its line break cut.

    Lines end at `\n`, `\r` or `\r\n`, as in Python's text mode.
    """
    for i, line in enumerate(io.StringIO(text, newline=""), start=1):
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


def _normalize_line(path, lineno, line, dialect, lang):
    """One non-blank corpus line to a ground Signature."""
    if dialect is not None:
        raw, dia, tag = line, Dialect(dialect), lang
    elif "\t" in line:
        fields = line.split("\t")
        if len(fields) != 3:
            raise _LineError(
                path, lineno, "expected `dialect<TAB>lang<TAB>raw`"
            )
        dia_name, tag, raw = fields
        try:
            dia = Dialect(dia_name)
        except ValueError:
            raise _LineError(path, lineno, "unknown dialect %r" % dia_name)
    else:
        raw, dia, tag = line, Dialect.NORMALIZED, None
    if dia is not Dialect.NORMALIZED and not tag:
        raise _LineError(
            path, lineno, "--lang is required for the %s dialect" % dia.value
        )
    try:
        return normalizer.normalize(raw, dia, tag or "unknown")
    except (normalizer.DialectParseError,
            normalizer.NotGroundAfterNormalize,
            ModelError, ValueError) as e:
        raise _LineError(path, lineno, str(e))


def _load_kb(path, text) -> kb.FactStore:
    store = kb.FactStore()
    for lineno, line in _lines(text):
        sig = _normalize_line(path, lineno, line, Dialect.NORMALIZED.value, None)
        _ingest_line(store, path, lineno, sig)
    return store


def _ingest_line(store, path, lineno, sig) -> int:
    try:
        return kb.ingest_signature(store, sig)
    except kb.KeyConflict as e:
        raise _LineError(path, lineno, str(e))


def _write_atomically(path, text):
    """Write text to path by writing the whole new file, then renaming it.

    The file is either unchanged or complete, never half-written.
    """
    tmp = "%s.%d.tmp" % (path, os.getpid())  # same directory: rename is atomic
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        with contextlib.suppress(FileNotFoundError):  # a new file
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _parse_key(text, path, lineno) -> FunctionKey:
    fields = text.split("|")
    if len(fields) != 5:
        raise _LineError(path, lineno, "expected `lang|ns|class|name|arity`")
    try:
        return FunctionKey(
            fields[0].lower(), fields[1], fields[2], fields[3], int(fields[4])
        )
    except (ModelError, ValueError) as e:
        raise _LineError(path, lineno, str(e))


def _load_eq(path) -> kb.EquivStore:
    eqs = kb.EquivStore()
    for lineno, line in _lines(_read(path)):
        halves = line.split("\t")
        if len(halves) != 2:
            raise _LineError(path, lineno, "expected two tab-separated keys")
        eqs.add_eq(
            _parse_key(halves[0], path, lineno),
            _parse_key(halves[1], path, lineno),
        )
    return eqs


def _parse_query(text):
    try:
        return dsl.parse_signature(text)
    except dsl.ParseError as e:
        raise _LineError("<query>", 1, str(e))


def _print_results(store, results, porcelain, out):
    ordered = sorted(
        results, key=lambda b: (str(b.key), b.items)
    )
    if not ordered:
        print("0 results", file=out)
        return
    for i, binding in enumerate(ordered):
        sig = kb.reconstruct_signature(store, binding.key)
        line = dsl.print_signature(sig)
        if porcelain:
            fields = [line] + ["%s=%s" % kv for kv in binding.items]
            print("\t".join(fields), file=out)
        else:
            if i:
                print("", file=out)
            print(line, file=out)
            for label, value in binding.items:
                print("%s=%s" % (label, value), file=out)


def run(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        # argparse prints help to sys.stdout and usage errors to sys.stderr
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        if args.command == "normalize":
            for path, lineno, line in _input_lines(args.inputs, stdin):
                sig = _normalize_line(path, lineno, line, args.dialect, args.lang)
                print(dsl.print_signature(sig), file=out)

        elif args.command == "compile":
            for path, lineno, line in _input_lines(args.inputs, stdin):
                try:
                    sig = dsl.parse_signature(line)
                    formula = logic.compile_signature(sig)
                except (dsl.ParseError, logic.LogicError) as e:
                    raise _LineError(path, lineno, str(e))
                print(logic.print_formula(formula), file=out)

        elif args.command == "ingest":
            entries = [
                (path, lineno,
                 _normalize_line(path, lineno, line, args.dialect, args.lang))
                for path, lineno, line in _input_lines(args.inputs, stdin)
            ]
            try:
                text = _read(args.kb)
            except FileNotFoundError:
                text = ""
            store = _load_kb(args.kb, text)
            if text and not text.endswith(("\n", "\r")):
                text += "\n"  # else the first new line joins the KB's last
            new_facts = 0
            new_sigs = []
            for path, lineno, sig in entries:
                added = _ingest_line(store, path, lineno, sig)
                if added:
                    new_sigs.append(sig)
                new_facts += added
            _write_atomically(
                args.kb,
                text + "".join(dsl.print_signature(s) + "\n" for s in new_sigs),
            )
            print(
                "ingested %d signatures, %d new facts" % (len(entries), new_facts),
                file=out,
            )

        elif args.command == "query":
            store = _load_kb(args.kb, _read(args.kb))
            query = _parse_query(args.query)
            try:
                results = kb.answer(store, query)
            except logic.UnsupportedHead as e:
                raise _LineError("<query>", 1, str(e))
            _print_results(store, results, args.porcelain, out)

        elif args.command == "equiv":
            store = _load_kb(args.kb, _read(args.kb))
            eqs = _load_eq(args.eq)
            query = _parse_query(args.query)
            try:
                results = kb.answer_equiv(store, eqs, query)
            except (kb.SourceNotFound, logic.NotEquivHead) as e:
                raise _LineError("<query>", 1, str(e))
            _print_results(store, results, args.porcelain, out)

        elif args.command == "facts":
            store = _load_kb(args.kb, _read(args.kb))
            for line in kb.dump_facts(store):
                print(line, file=out)

    except (_LineError, OSError) as e:
        print(str(e), file=err)
        return 1
    return 0


def main():  # console entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()
